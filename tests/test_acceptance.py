"""The acceptance gate: one test per exit criterion, each printing its
pass/fail line.

Criterion 10 asserts, among verifiable facts, an inherited claim that the
antisymmetric form xy over Z/2 yields a rack.  Direct computation refutes
that claim (the right translation by 1 is the constant zero map, so the
bijectivity axiom fails), so that assertion is recorded as a strict
expected failure rather than weakened; the computed behaviour is pinned by
its own test below and in tests/test_quandle.py.
"""

import itertools
import re
from functools import cache
from math import gcd

import pytest

from trefoil import acceptance, longknot
from trefoil.acceptance import _ALEXANDER_RINGS, CRITERIA, _conj_core_groups, run_criterion
from trefoil.longknot import _x_image
from trefoil.pfrac import (
    PF_INFINITY,
    PF_ZERO,
    TransvectionMatrix,
    pf_new,
    sympl_op_inv,
    transvection_matrix,
)
from trefoil.quandle import check_quandle, transvection_quandle

_EXPECTED_GREEN = [c for c in CRITERIA if c[0] != 10]

# each criterion's unpatched result, computed once per session; the tests
# that monkeypatch a criterion call run_criterion afresh
_criterion = cache(run_criterion)


@pytest.mark.parametrize(
    "number", [c[0] for c in _EXPECTED_GREEN],
    ids=[f"{c[0]:02d}-{c[1]}" for c in _EXPECTED_GREEN],
)
def test_criterion(number):
    result = _criterion(number)
    print(result.line())
    assert result.ok, result.detail


@pytest.mark.xfail(
    strict=True,
    reason="the stated rack claim for the form xy over Z/2 is refuted by "
    "computation: right translation by 1 is constant, so the bijectivity "
    "axiom fails; antisymmetry only yields a rack when 2 is regular",
)
def test_criterion_10_as_stated():
    result = _criterion(10)
    print(result.line())
    assert result.ok, result.detail


def test_criterion_10_verifiable_content():
    """The parts of criterion 10 that computation confirms: the fixed Z/2
    regression behaviour and the alternating/antisymmetric equivalences."""
    result = _criterion(10)
    print(result.line())
    # the criterion run must fail exactly on the rack claim, reporting the
    # computed counterexample, with idempotence failing as stated
    assert not result.ok
    assert "NOT a rack" in result.detail
    # the bijectivity witness: 0*1 = 1*1 = 0
    assert "witness (0, 1, 1)" in result.detail
    report = check_quandle(transvection_quandle(2, [[1]]))
    assert not report.idempotent
    assert report.right_distributive
    assert not report.right_translations_bijective


def test_criterion_10_reports_refuted_as_expected():
    result = _criterion(10)
    assert result.status == "REFUTED-AS-EXPECTED"
    assert result.to_json()["status"] == "REFUTED-AS-EXPECTED"
    assert result.line().startswith("REFUTED-AS-EXPECTED  10  symplectic-footnote")


def test_criterion_3_counts_its_cases():
    result = _criterion(3)
    groups = _conj_core_groups()
    orders = list(range(1, 65)) + [m ** (len(h) - 1) for m, h in _ALEXANDER_RINGS]
    orders += [g.size for g in groups] * 2
    assert result.ok
    assert result.detail.startswith(
        f"exhaustive: 64 dihedral (order <= 64), {len(_ALEXANDER_RINGS)} alexander "
        f"(order <= 64), {len(groups)} conj (order <= 24), {len(groups)} core (order <= 24), "
        f"{sum(n ** 3 for n in orders)} cells decided")
    assert "10000 fraction triples and 10000 covered triples" in result.detail


def test_criteria_2_4_5_6_count_their_cases():
    # each pair has four sign lifts (±x, ±y) to Z⊕Z
    assert _criterion(2).detail == (
        "exact generators; 10000 random pairs with |p|,|q| <= 1000: the matrix and its "
        "adjugate act as * and *̄, every determinant 1; on their 40000 sign lifts to Z⊕Z "
        "the symplectic operation and its inverse project to * and *̄; on both, the "
        "inverse undoes the operation")
    # word_op and word_op_inv on each of the 999 consecutive pairs of short words
    detail = _criterion(4).detail
    m = re.fullmatch(r"1000 random words of <= 30 letters and 4 of 10000 letters "
                     r"\((\d+) letters\): rewriting is sound, both routes agree, "
                     r"all outputs valid; word_op and word_op_inv on 999 consecutive pairs "
                     r"of the short words equal the normal forms of \* and \*̄ on their "
                     r"images \(1998 comparisons, each of the normal form and the fraction "
                     r"image\), and word_op_inv undoes word_op", detail)
    assert m, detail
    assert 40_000 <= int(m.group(1)) <= 40_000 + 1000 * 30
    fractions = sum(gcd(abs(p), q) == 1 for q in range(1, 201) for p in range(-200, 201))
    grid = 25 * sum(11 * 12 ** (n - 2) if n >= 2 else 1 for n in range(1, 5))
    assert _criterion(5).detail == (
        f"{fractions} fractions with |p|,|q| <= 200 round-trip; exhaustive term grid for "
        f"n <= 4, |k| <= 12 ({grid} lists) plus 20000 random lists for n in 5..8 "
        f"(full grid infeasible in budget)")
    assert _criterion(6).detail == (
        "holds on 10000 random fractions with |p|,|q| <= 1000000 and 100 random words "
        "of <= 30 letters")


def test_criteria_1_7_8_count_their_cases():
    assert _criterion(1).detail == (
        "both displayed product chains reproduce exactly (4 products)")
    targets = 1 + sum(gcd(abs(p), q) == 1 for q in range(1, 31) for p in range(-30, 31))
    assert _criterion(7).detail == (
        f"all {targets} fractions with |p|,|q| <= 30 reached; all {targets} witness words "
        f"verify; all {targets - 2} search edges are operation steps by their generator")
    assert _criterion(8).detail == (
        "closed form matches iteration for |k| <= 20 on 1000 random pairs with |p|,|q| <= 100 "
        "(41000 powers); 4 special cases (0/1 and 1/0, k > 0 and k < 0) match their closed "
        "forms on 1000 fractions each with |p|,|q| <= 1000")


def test_criterion_9_counts_its_route_checks():
    # each of 1000 pairs checks * and *̄ against both displayed second slots
    assert _criterion(9).detail.startswith(
        "* and *̄ second slots equal both displayed forms (4000 comparisons) and *̄ undoes * "
        "on both, stored x equals g'^-1 m g' (2000 results); ")


def test_criterion_9_counts_its_kernel_checks():
    # each of 300 random pairs of raw texts checks one inverse and one
    # product, then both slots of * and of *̄ on the covered elements over
    # the two texts
    assert ("inv and * equal the Garside forms and images of the parsed inverted and "
            "concatenated raw texts of <= 200 letters (600 results); on covered elements "
            "over u and v, the slots y^-1 x y, m^-1 g' y, y x y^-1 and m g' y^-1 of * and *̄ "
            "those of the concatenated texts (1200 results)") in _criterion(9).detail


def _transposed_x_image(c, d):
    p, q, r, s = _x_image(c, d)
    return p, r, q, s


def test_criterion_9_reports_a_transposed_x_image(monkeypatch):
    # x's image read off g''s bottom row, but transposed: every x slot of
    # *, *̄ and pi1_act is off its letter-loop image
    monkeypatch.setattr(longknot, "_x_image", _transposed_x_image)
    result = run_criterion(9)
    assert not result.ok
    assert result.detail.startswith("the g' x^-1 y route and the reference disagree at "), (
        result.detail)


def _negated_sympl_op_inv(u, v):
    return tuple(-c for c in sympl_op_inv(u, v))


def test_criterion_2_decides_the_symplectic_undo_on_z_plus_z(monkeypatch):
    # the negated vector projects to the right class, so only the exact
    # comparison on Z⊕Z catches it
    routes = [(name, encode, op, _negated_sympl_op_inv if op_inv is sympl_op_inv else op_inv, key)
              for name, encode, op, op_inv, key in acceptance._FRACTION_ROUTES]
    monkeypatch.setattr(acceptance, "_FRACTION_ROUTES", routes)
    result = run_criterion(2)
    assert not result.ok
    assert result.detail.startswith("the symplectic sign lifts route's inverse does not undo it")


def _det_two_off_the_generators(y):
    m = transvection_matrix(y)
    if y in (PF_INFINITY, PF_ZERO):
        return m
    return TransvectionMatrix._trusted(2 * m.a, 2 * m.b, m.c, m.d)


def test_criterion_2_reports_a_wrong_determinant(monkeypatch):
    monkeypatch.setattr(acceptance, "transvection_matrix", _det_two_off_the_generators)
    result = run_criterion(2)
    assert not result.ok
    assert re.fullmatch(r"det of matrix for -?\d+/\d+ is 2", result.detail), result.detail


def _covering_map_reading_a_for_d(p):
    a, _, c, _ = p.g.image
    return pf_new(-c, a)


def test_criterion_9_reports_a_covering_map_off_the_fraction_quandle(monkeypatch):
    monkeypatch.setattr(acceptance, "_COVERING_ROUTE",
                        [("covering map", acceptance._sole, acceptance.qt_op,
                          acceptance.qt_op_inv, _covering_map_reading_a_for_d)])
    result = run_criterion(9)
    assert not result.ok
    assert result.detail.startswith("the covering map route and the reference disagree at ")


def _wrong_at_first_distinct_pair(op):
    """op, but sending the first pair of distinct elements it is given, and
    that pair alone, to its first argument."""
    faulty = []

    def op_with_fault(x, y):
        if x != y and not faulty:
            faulty.append((x, y))
        return x if faulty and faulty[0] == (x, y) else op(x, y)
    return op_with_fault


@pytest.mark.parametrize("name, quandle", [("qt_op", "covered-quandle"), ("pf_op", "fraction")])
def test_criterion_3_reports_an_operation_wrong_at_one_pair(monkeypatch, name, quandle):
    monkeypatch.setattr(acceptance, name, _wrong_at_first_distinct_pair(getattr(acceptance, name)))
    result = run_criterion(3)
    assert not result.ok
    assert result.detail.startswith(f"{quandle} "), result.detail


def test_sampled_axioms_reports_a_failure_of_distributivity_alone():
    # y + s(x - y) on Z/5, s swapping 1 and 2: idempotent, each right
    # translation an involution, but not distributive
    swap = (0, 2, 1, 3, 4)

    def op(x, y):
        return (y + swap[(x - y) % 5]) % 5
    triples = list(itertools.product(range(5), repeat=3))
    assert acceptance._sampled_axioms("toy", op, op, triples) == (
        "toy distributivity fails at 0, 1, 4")
