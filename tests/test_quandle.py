import collections
import dataclasses
import itertools
import os
import random
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trefoil
from trefoil import (
    AxiomReport,
    FiniteGroup,
    FiniteQuandle,
    LaurentQuotientRing,
    alexander_quandle,
    check_quandle,
    check_rack,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    klein_four_group,
    symmetric_group,
    transvection_quandle,
)
from trefoil.acceptance import _ALEXANDER_RINGS, _conj_core_groups
from trefoil.quandle import (
    _bijectivity_failure,
    _codec,
    _encode,
    _generating_set,
    _identity_and_inverse,
    form_is_alternating,
    form_is_antisymmetric,
    module_vectors,
)


def test_dihedral_values():
    r3 = dihedral_quandle(3)
    assert r3.table[0][1] == 2
    r4 = dihedral_quandle(4)
    assert r4.table[1][3] == 1
    for n in (1, 2, 5, 9):
        q = dihedral_quandle(n)
        assert all(q.table[i][i] == i for i in range(n))


def test_dihedral_rejects_zero():
    for n in (0, True, 3.0):
        with pytest.raises(ValueError):
            dihedral_quandle(n)


def test_dihedral_axioms():
    assert check_quandle(dihedral_quandle(5)).is_quandle
    report = check_rack(dihedral_quandle(3))
    assert report.idempotent and report.is_rack and report.counterexample is None


def test_singleton_magma_is_quandle():
    report = check_rack(FiniteQuandle([[0]]))
    assert report.idempotent and report.right_translations_bijective and report.right_distributive


def test_constant_magma_fails_bijectivity():
    q = FiniteQuandle([[0, 0], [0, 0]])
    report = check_rack(q)
    assert not report.right_translations_bijective
    i, j, k = report.counterexample
    # the witness reproduces the failure
    assert i != j and q.table[i][k] == q.table[j][k]
    assert report.reproduces(q)


def test_malformed_table_rejected():
    with pytest.raises(ValueError):
        FiniteQuandle([[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        FiniteQuandle([[0, 1]])
    for table in ([], [[0, 1.9], [True, "1"]], [[0, 1.0], [1, 1]], [[0, 1], [True, 1]],
                  [[0, "1"], [1, 1]]):
        with pytest.raises(ValueError):
            FiniteQuandle(table)
    # the size is derived from the table and takes no part in equality
    q = FiniteQuandle([[0, 0], [1, 1]])
    assert q.size == 2 and q == FiniteQuandle(((0, 0), (1, 1)))


def test_counterexample_reproduces_each_axiom():
    # fails idempotence only: the swap table on two elements
    q = FiniteQuandle([[1, 1], [0, 0]])
    report = check_quandle(q)
    assert not report.idempotent
    i, j, k = report.counterexample
    assert i == j == k and q.table[i][i] != i
    assert report.reproduces(q)
    # a distributivity witness: i * j = i + j on Z/3
    q3 = FiniteQuandle([[(i + j) % 3 for j in range(3)] for i in range(3)])
    report3 = check_rack(q3)
    assert not report3.right_distributive and report3.right_translations_bijective
    a, b, c = report3.counterexample
    assert q3.table[q3.table[a][b]][c] != q3.table[q3.table[a][c]][q3.table[b][c]]
    assert report3.reproduces(q3)
    # no counterexample on a clean quandle
    good = check_quandle(dihedral_quandle(5))
    assert good.counterexample is None and good.reproduces(dihedral_quandle(5))


def test_conj_quandle_examples():
    c4 = cyclic_group(4)
    q = conj_quandle(c4)
    assert all(q.table[a][b] == a for a in range(4) for b in range(4))

    s3 = symmetric_group(3)
    q3 = conj_quandle(s3)
    assert check_quandle(q3).is_quandle
    # transpositions as mapping tuples: (12) = (1,0,2), (13) = (2,1,0), (23) = (0,2,1)
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    t12, t13, t23 = idx[(1, 0, 2)], idx[(2, 1, 0)], idx[(0, 2, 1)]
    assert q3.table[t12][t13] == t23
    e = s3.identity
    assert all(q3.table[e][b] == e for b in range(6))


def test_conj_trivial_group():
    assert check_quandle(conj_quandle(cyclic_group(1))).is_quandle


def test_conj_relabelling_by_conjugation_is_isomorphism():
    g = symmetric_group(3)
    q = conj_quandle(g)
    for u in range(g.size):
        sigma = [g.table[g.table[g.inverse[u]][x]][u] for x in range(g.size)]
        for x in range(g.size):
            for y in range(g.size):
                assert sigma[q.table[x][y]] == q.table[sigma[x]][sigma[y]]


def test_core_quandle_examples():
    c5 = cyclic_group(5)
    assert core_quandle(c5).table == dihedral_quandle(5).table
    c2 = cyclic_group(2)
    assert core_quandle(c2).table[0][1] == 0
    s3 = symmetric_group(3)
    q = core_quandle(s3)
    assert all(q.table[a][a] == a for a in range(6))


def test_alexander_dihedral_coincidence():
    ring = LaurentQuotientRing(3, (1, 1))  # t = -1
    assert alexander_quandle(ring).table == dihedral_quandle(3).table


def test_alexander_four_element_quandle():
    ring = LaurentQuotientRing(2, (1, 1, 1))
    q = alexander_quandle(ring)
    assert q.size == 4
    assert check_quandle(q).is_quandle


def test_alexander_idempotent():
    ring = LaurentQuotientRing(5, (2, 0, 1))
    q = alexander_quandle(ring)
    assert all(q.table[a][a] == a for a in range(q.size))


def test_ring_rejects_non_unit_t():
    # constant term 0 shares a factor with every modulus
    with pytest.raises(ValueError):
        LaurentQuotientRing(2, (0, 1, 1))
    # constant term 2 is a zero divisor mod 4
    with pytest.raises(ValueError):
        LaurentQuotientRing(4, (2, 1))


def test_ring_rejects_bad_leading_or_degree():
    with pytest.raises(ValueError):
        LaurentQuotientRing(4, (1, 2))  # leading coefficient not a unit
    with pytest.raises(ValueError):
        LaurentQuotientRing(3, (1,))  # degree zero
    for modulus, h in ((3, (1.0, 1)), (3, (True, 1)), (3, (1, "1")), (3.0, (1, 1)),
                       (True, (1, 1)), (0, (1, 1)), (-3, (1, 1))):
        with pytest.raises(ValueError):
            LaurentQuotientRing(modulus, h)


@pytest.mark.parametrize("modulus, h, message", [
    (0, (1, 1), "modulus must be a positive int, got 0"),
    (3, (1, 1.0), r"coefficients of h must be ints, got \(1, 1.0\)"),
    (3, (1, 3), r"h\(t\) must have degree at least 1"),
    (1, (1, 1), r"h\(t\) must have degree at least 1"),
    (4, (1, 2), "leading coefficient of h must be a unit mod n"),
    (4, (2, 1), "t is not a unit in the quotient"),
])
def test_ring_rejections_keep_their_messages(modulus, h, message):
    with pytest.raises(ValueError, match=message):
        LaurentQuotientRing(modulus, h)


def test_constructors_pass_check_quandle():
    assert check_quandle(dihedral_quandle(64)).is_quandle
    assert check_quandle(conj_quandle(symmetric_group(4))).is_quandle
    assert check_quandle(core_quandle(symmetric_group(3))).is_quandle
    ring = LaurentQuotientRing(2, (1, 1, 0, 1))
    assert check_quandle(alexander_quandle(ring)).is_quandle


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square / no inverse
    for table in ([[0, 1.0], [1, 0]], [[0, 1], [1]], [[0, 1], [1, 0], [0, 1]]):
        with pytest.raises(ValueError):
            FiniteGroup(table)
    assert FiniteGroup([[0, 1], [1, 0]]) == cyclic_group(2)


# --- the bilinear-form footnote ---------------------------------------------

def test_alternating_implies_antisymmetric_exhaustively():
    for n in (2, 3, 4, 5):
        vectors = module_vectors(n, 2)
        for entries in itertools.product(range(min(n, 3)), repeat=4):
            gram = [list(entries[:2]), list(entries[2:])]
            if form_is_alternating(gram, vectors, n):
                assert form_is_antisymmetric(gram, vectors, n)


def test_antisymmetric_implies_alternating_when_two_invertible():
    for n in (3, 5):
        vectors = module_vectors(n, 2)
        for entries in itertools.product(range(n), repeat=4):
            gram = [list(entries[:2]), list(entries[2:])]
            if form_is_antisymmetric(gram, vectors, n):
                assert form_is_alternating(gram, vectors, n)


def test_z2_product_form_regression():
    """The fixed regression: xy on (Z/2)^1 is antisymmetric but not
    alternating, and the transvection operation fails idempotence (1*1 = 0).
    It also fails bijectivity (*1 is constant), so antisymmetry alone does
    not yield a rack when 2 is a zero divisor."""
    gram = [[1]]
    vectors = module_vectors(2, 1)
    assert form_is_antisymmetric(gram, vectors, 2)
    assert not form_is_alternating(gram, vectors, 2)
    q = transvection_quandle(2, gram)
    report = check_quandle(q)
    assert q.table[1][1] == 0
    assert not report.idempotent
    assert report.right_distributive
    assert not report.right_translations_bijective
    assert q.table[0][1] == q.table[1][1] == 0


@pytest.mark.parametrize("gram", [[[1.5]], [[1], [2]], [["1"]], [[1, 0]], [[True]], [1], "1"],
                         ids=["float", "column", "str-entry", "row", "bool", "flat", "str"])
def test_transvection_quandle_rejects_a_bad_gram(gram):
    with pytest.raises(ValueError, match="square matrix of ints"):
        transvection_quandle(3, gram)


def test_transvection_quandle_takes_lists_and_tuples():
    assert transvection_quandle(2, ((1,),)) == transvection_quandle(2, [[1]])
    assert transvection_quandle(3, ([0, 1], (-1, 0))).size == 9


def test_alternating_gram_gives_quandle():
    q = transvection_quandle(3, [[0, 1], [-1, 0]])
    assert check_quandle(q).is_quandle


def test_symplectic_table_over_z2_counterexample_witness():
    report = check_quandle(transvection_quandle(2, [[1]]))
    assert not report.idempotent
    i, j, k = report.counterexample
    assert (i, j, k) == (1, 1, 1)


# --- the whole-row scans against the scalar loops they replaced ---------------

def _scalar_reports(q):
    """check_rack and check_quandle as cell-by-cell loops over every cell,
    the oracle: the two reports differ only in which witness comes first."""
    n, t = q.size, q.table
    idem = next(((i, i, i) for i in range(n) if t[i][i] != i), None)
    bij = None
    for k in range(n):
        seen = {}
        for i in range(n):
            if t[i][k] in seen:
                bij = (seen[t[i][k]], i, k)
                break
            seen[t[i][k]] = i
        if bij is not None:
            break
    dist = None
    for c in range(n):
        # (a*b)*c against (a*c)*(b*c), cell by cell in (c, a, b) order
        col = [row[c] for row in t]
        for a in range(n):
            row_a, row_ac = t[a], t[col[a]]
            b = next((b for b in range(n) if col[row_a[b]] != row_ac[col[b]]), None)
            if b is not None:
                dist = (a, b, c)
                break
        if dist is not None:
            break

    def report(first):
        return AxiomReport(idem is None, bij is None, dist is None,
                           next((w for w in first if w is not None), None))

    return report((bij, dist, idem)), report((idem, bij, dist))


def _scalar_identity_inverse(table):
    """The identity and inverse search of FiniteGroup as cell-by-cell loops:
    the (identity, inverse) it finds, or the text of its ValueError."""
    n = len(table)
    identity = next((e for e in range(n)
                     if all(table[e][a] == a and table[a][e] == a for a in range(n))), None)
    if identity is None:
        return "table has no identity element"
    inverse = []
    for a in range(n):
        b = next((b for b in range(n)
                  if table[a][b] == identity and table[b][a] == identity), None)
        if b is None:
            return f"element {a} has no inverse"
        inverse.append(b)
    return identity, tuple(inverse)


def _scalar_from_table(table):
    """FiniteGroup's search as cell-by-cell loops: the
    (identity, inverse) it finds, or the text of its ValueError."""
    found = _scalar_identity_inverse(table)
    if isinstance(found, str):
        return found
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return found


def _from_table_outcome(table):
    try:
        g = FiniteGroup(table)
    except ValueError as exc:
        return str(exc)
    return g.identity, g.inverse


def _assert_scans_match(q):
    """check_rack and check_quandle agree with the oracle in all four fields."""
    for check, expected in zip((check_rack, check_quandle), _scalar_reports(q)):
        report = check(q)
        assert (report.idempotent, report.right_translations_bijective,
                report.right_distributive, report.counterexample) == (
            expected.idempotent, expected.right_translations_bijective,
            expected.right_distributive, expected.counterexample), (q.size, check.__name__)
        assert report.reproduces(q)


def _stock_quandles():
    """Every stock quandle the acceptance criterion checks, order <= 64."""
    quandles = [dihedral_quandle(n) for n in range(1, 65)]
    quandles += [alexander_quandle(LaurentQuotientRing(m, h)) for m, h in _ALEXANDER_RINGS]
    for g in _conj_core_groups():
        quandles += [conj_quandle(g), core_quandle(g)]
    return quandles


def _perturbed(q, rng):
    """Two one-cell edits of q: a new value in one cell, which breaks the
    bijectivity of its column, and a swap of two cells in one column, which
    keeps every column bijective."""
    n = q.size
    rows = [list(row) for row in q.table]
    i, k = rng.randrange(n), rng.randrange(n)
    rows[i][k] = (rows[i][k] + rng.randrange(1, n)) % n if n > 1 else 0
    swapped = [list(row) for row in q.table]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    swapped[i][k], swapped[j][k] = swapped[j][k], swapped[i][k]
    return FiniteQuandle(rows), FiniteQuandle(swapped)


def test_scans_match_scalar_loops_on_random_tables():
    rng = random.Random(901)
    for n in range(1, 9):
        for _ in range(40):
            arbitrary = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            # columns that are permutations reach the distributivity witness
            cols = [rng.sample(range(n), n) for _ in range(n)]
            bijective = [[cols[k][i] for k in range(n)] for i in range(n)]
            for i in range(n):
                if rng.random() < 0.8:
                    # make i idempotent by relabelling column i's values
                    v = bijective[i][i]
                    for row in bijective:
                        row[i] = i if row[i] == v else v if row[i] == i else row[i]
            for table in (arbitrary, bijective):
                _assert_scans_match(FiniteQuandle(table))


def test_scans_match_scalar_loops_on_perturbed_stock_quandles():
    rng = random.Random(902)
    distributivity_witnesses = 0
    for q in _stock_quandles():
        assert check_quandle(q) == AxiomReport(True, True, True, None)
        for edited in _perturbed(q, rng):
            _assert_scans_match(edited)
            report = check_rack(edited)
            distributivity_witnesses += report.right_translations_bijective and not report.is_rack
    # the column swaps do exercise the located distributivity witness
    assert distributivity_witnesses > 50


def _bijectivity_failure_by_sets(cols, n):
    """The first non-permutation column, found with a set per column: the
    oracle for the byte columns' translate test."""
    for k, col in enumerate(cols):
        if len(set(col)) != n:
            j = next(j for j in range(n) if col[j] in col[:j])
            return (col.index(col[j]), j, k)
    return None


def test_bijectivity_matches_the_set_scan_on_planted_tables():
    rng = random.Random(903)
    # orders up to 256 run the codec's translate test, 257 to 260 its set test
    for n in range(2, 261):
        _, row, _, _, permutes = _codec(n)
        cols = [rng.sample(range(n), n) for _ in range(n)]
        assert _bijectivity_failure(list(map(row, cols)), permutes) is None
        # plant repeats: one or more values copied within a column, in a
        # column before, at or after the first that already repeats
        for _ in range(3 if n <= 256 else 10):
            planted = [list(col) for col in cols]
            for _ in range(rng.choice((1, 1, 2, 5))):
                col = planted[rng.randrange(n)]
                i, j = rng.sample(range(n), 2)
                col[j] = col[i]
            expected = _bijectivity_failure_by_sets(planted, n)
            assert expected is not None
            assert _bijectivity_failure(list(map(row, planted)), permutes) == expected, n


def test_scans_at_both_encodings():
    # order 256 is the largest in bytes, order 257 the smallest in tuples
    for n in (256, 257):
        q = dihedral_quandle(n)
        assert check_quandle(q) == check_rack(q) == AxiomReport(True, True, True, None)
        rows = [list(row) for row in q.table]
        # a swap in column 0 keeps the columns bijective and breaks
        # distributivity at c = 0; a new value in a cell breaks bijectivity
        rows[3][0], rows[5][0] = rows[5][0], rows[3][0]
        _assert_scans_match(FiniteQuandle(rows))
        rows[7][9] = (rows[7][9] + 1) % n
        _assert_scans_match(FiniteQuandle(rows))
        rows[2][2] = 0
        _assert_scans_match(FiniteQuandle(rows))


# --- right distributivity decided on a generating set -------------------------

def _columns(q):
    return list(zip(*q.table))


def _greedy_generating_set(q):
    return _generating_set(_columns(q), tuple(range(q.size)))


def _closure(q, chosen):
    """The closure of chosen under the right translations by its members,
    by fixpoint iteration: the oracle for the greedy generating set."""
    reached = set(chosen)
    while True:
        more = {q.table[a][s] for a in reached for s in chosen} - reached
        if not more:
            return reached
        reached |= more


def _stock_quandles_to_order_40():
    """Every stock family at orders up to 40, trivial quandles included."""
    quandles = [dihedral_quandle(n) for n in range(1, 41)]
    # the rings whose h has constant term at most 3, every shape up to order 40
    quandles += [alexander_quandle(ring) for ring in _monic_rings(40) if ring.h[0] <= 3]
    groups = [cyclic_group(n) for n in range(1, 41)] + [dihedral_group(n) for n in range(2, 21)]
    groups += [symmetric_group(3), symmetric_group(4), klein_four_group(),
               FiniteGroup(_cells_direct_product(cyclic_group(2), cyclic_group(6))),
               FiniteGroup(_cells_direct_product(klein_four_group(), cyclic_group(2)))]
    for g in groups:
        quandles += [conj_quandle(g), core_quandle(g)]
    for n in range(2, 41):
        units = [u for u in range(1, n) if gcd(u, n) == 1]
        quandles += [alexander_quandle(LaurentQuotientRing(n, (-u, 1))) for u in units[:3]]
    for modulus in range(2, 7):
        for gram in ([[0, 1], [-1, 0]], [[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 2], [1, 0]]):
            quandles.append(transvection_quandle(modulus, gram))
    quandles += [transvection_quandle(m, [[1]]) for m in range(2, 41)]
    return quandles


def test_generating_set_of_dihedral_quandles_is_zero_and_one():
    for n in range(2, 301):
        assert _greedy_generating_set(dihedral_quandle(n))[0] == [0, 1], n
    assert _greedy_generating_set(dihedral_quandle(1)) == ([0], [])


def test_generating_set_is_greedy_and_generates():
    for q in _stock_quandles_to_order_40():
        if not check_rack(q).right_translations_bijective:
            continue
        cols = _columns(q)
        chosen, moving = _greedy_generating_set(q)
        assert _closure(q, chosen) == set(range(q.size))
        # each s is the first element outside the closure of the earlier ones
        for i, s in enumerate(chosen):
            earlier = _closure(q, chosen[:i])
            assert s == min(set(range(q.size)) - earlier)
        assert moving == [s for s in chosen if cols[s] != tuple(range(q.size))]


def test_generating_set_of_trivial_quandles_is_everything():
    for n in range(1, 41):
        q = conj_quandle(cyclic_group(n))
        assert _greedy_generating_set(q) == (list(range(n)), [])
        assert check_quandle(q) == check_rack(q) == AxiomReport(True, True, True, None)


def test_scans_match_scalar_loops_on_stock_families_to_order_40():
    quandles = _stock_quandles_to_order_40()
    assert len(quandles) == 505
    outcomes = set()
    for q in quandles:
        _assert_scans_match(q)
        outcomes.add(check_quandle(q).is_quandle)
    assert outcomes == {True, False}


def test_scans_match_scalar_loops_around_order_256():
    for n in (255, 256, 257):
        _assert_scans_match(dihedral_quandle(n))


def _assert_first_failure_in_generating_set(q):
    """The first c at which the law fails is a member of S, so the scan over
    S meets the oracle's first failing cell; returns that c, or None."""
    report = _scalar_reports(q)[0]
    if not report.right_translations_bijective or report.right_distributive:
        return None
    c = report.counterexample[2]
    assert c in _greedy_generating_set(q)[1], (q.table, c)
    return c


def test_scans_match_scalar_loops_on_random_bijective_tables():
    rng = random.Random(905)
    failing = 0
    for n in range(2, 41):
        for _ in range(6):
            cols = [rng.sample(range(n), n) for _ in range(n)]
            q = FiniteQuandle([[cols[k][i] for k in range(n)] for i in range(n)])
            _assert_scans_match(q)
            failing += _assert_first_failure_in_generating_set(q) is not None
    assert failing > 200


def test_first_failure_is_in_the_generating_set_past_its_first_member():
    # one swap in a column of a stock quandle often leaves R_0 an
    # automorphism, so the first failing c is a later member of S
    rng = random.Random(906)
    later = 0
    for q in _stock_quandles():
        for _ in range(3):
            for edited in _perturbed(q, rng):
                later += bool(_assert_first_failure_in_generating_set(edited))
    assert later > 20


@st.composite
def _small_tables(draw):
    """An n x n table, n <= 6: arbitrary cells, or columns that are
    permutations, or a stock quandle with two cells of one column swapped."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("arbitrary", "bijective", "swapped")))
    if kind == "arbitrary":
        return [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    if kind == "bijective":
        cols = [draw(st.permutations(range(n))) for _ in range(n)]
        return [[cols[k][i] for k in range(n)] for i in range(n)]
    q = draw(st.sampled_from((dihedral_quandle(n), conj_quandle(symmetric_group(3)),
                              core_quandle(dihedral_group(3)),
                              alexander_quandle(LaurentQuotientRing(2, (1, 1, 1))))))
    rows = [list(row) for row in q.table]
    m = q.size
    i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
    rows[i][k], rows[j][k] = rows[j][k], rows[i][k]
    return rows


@settings(max_examples=300, derandomize=True)
@given(_small_tables())
def test_scans_match_scalar_loops_property(table):
    _assert_scans_match(FiniteQuandle(table))


def test_from_table_matches_scalar_loops():
    rng = random.Random(903)
    groups = [cyclic_group(n) for n in range(1, 13)] + [
        symmetric_group(3), symmetric_group(4), klein_four_group(), dihedral_group(4),
        dihedral_group(6), FiniteGroup(_cells_direct_product(cyclic_group(2), cyclic_group(3)))]
    messages = set()
    for g in groups:
        table = [list(row) for row in g.table]
        assert _from_table_outcome(table) == _scalar_from_table(table) == (g.identity, g.inverse)
        n = g.size
        for _ in range(30):
            edited = [list(row) for row in table]
            i, j = rng.randrange(n), rng.randrange(n)
            edited[i][j] = rng.randrange(n)
            outcome = _from_table_outcome(edited)
            assert outcome == _scalar_from_table(edited)
            if isinstance(outcome, str):
                messages.add(outcome.split(" at ")[0])
    assert "associativity fails" in messages
    # order 257: the tuple encoding
    table = [list(row) for row in cyclic_group(257).table]
    table[1][1] = 5
    expected = "associativity fails at (1, 1, 2)"
    assert _from_table_outcome(table) == _scalar_from_table(table) == expected


def _associativity_failure_on_every_row(table):
    """FiniteGroup's associativity check before it was decided on a
    generating set, the oracle: for every a, (ab)c over all (b, c) is row
    ab joined over b and a(bc) is row a gathered along the flat table.
    The first failing (a, b, c), located cell by cell in the failing row,
    or None."""
    n = len(table)
    rows, flat, _, (_, _, gather, join, _) = _encode(table)
    for a, row_a in enumerate(rows):
        if join([rows[x] for x in row_a]) != gather(row_a, flat):
            return next((a, b, c) for b in range(n) for c in range(n)
                        if table[table[a][b]][c] != table[a][table[b][c]])
    return None


def _group_outcome_on_every_row(table):
    found = _scalar_identity_inverse(table)
    if isinstance(found, str):
        return found
    failure = _associativity_failure_on_every_row(table)
    return found if failure is None else f"associativity fails at {failure}"


def _random_table_with_inverses(rng, n):
    """A random loop-like table with identity 0 in which every element also
    has a planted two-sided inverse, paired off at random: almost never
    associative."""
    table = _random_loop_like_table(rng, n)
    rest = rng.sample(range(1, n), n - 1)
    for a, b in itertools.zip_longest(rest[::2], rest[1::2]):
        b = a if b is None else b
        table[a][b] = table[b][a] = 0
    return table


def test_associativity_on_the_generating_set_matches_every_row():
    rng = random.Random(911)
    stock = [*map(cyclic_group, (1, 2, 3, 12, 64, 256, 257)), *map(symmetric_group, range(1, 6)),
             *map(dihedral_group, (1, 2, 5, 64, 129)), klein_four_group(),
             FiniteGroup(_cells_direct_product(symmetric_group(3), cyclic_group(4))),
             FiniteGroup(_cells_direct_product(cyclic_group(2), cyclic_group(129))),
             *_conj_core_groups()]
    outcomes = collections.Counter()
    for g in stock:
        table = [list(row) for row in g.table]
        assert _group_outcome_on_every_row(table) == (g.identity, g.inverse)
        n = g.size
        for _ in range(12 if n < 200 else 2):
            edited = [list(row) for row in table]
            edited[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            expected = _group_outcome_on_every_row(edited)
            assert _from_table_outcome(edited) == expected, (n, expected)
            outcomes[expected if isinstance(expected, str) else "group"] += 1
    for n in [*range(2, 13), 40, 300]:
        for _ in range(20 if n < 13 else 2):
            table = _random_table_with_inverses(rng, n)
            expected = _group_outcome_on_every_row(table)
            assert _from_table_outcome(table) == expected, (n, expected)
            outcomes[expected if isinstance(expected, str) else "group"] += 1
    # L x G with G a group, G's coordinate varying fastest: the first
    # members of S lie in G and pass, and only the later ones, in L, fail
    for g in (cyclic_group(3), symmetric_group(3)):
        k = g.size
        for n in range(2, 7):
            loop = _random_table_with_inverses(rng, n)
            table = [[loop[x // k][y // k] * k + g.table[x % k][y % k] for y in range(n * k)]
                     for x in range(n * k)]
            expected = _group_outcome_on_every_row(table)
            assert _from_table_outcome(table) == expected, (n, k, expected)
            outcomes[expected if isinstance(expected, str) else "group"] += 1
    failures = sum(v for o, v in outcomes.items() if o.startswith("associativity"))
    assert failures > 150 and outcomes["group"] > 20, outcomes


def test_group_constructors_reject_non_ints():
    for n in (True, False, 2.0, 2.5, "3"):
        for build in (cyclic_group, dihedral_group, symmetric_group):
            with pytest.raises(ValueError):
                build(n)
        with pytest.raises(ValueError):
            transvection_quandle(n, [[1]])
    assert cyclic_group(1).size == symmetric_group(1).size == 1


# --- the Alexander tables against general ring arithmetic ---------------------

def _reference_alexander_table(ring):
    """alexander_quandle's table by general multiply-and-reduce in
    Z/n[t]/(h), h monic: the oracle.  It enumerates the elements itself,
    the t^0 coefficient varying fastest."""
    n, h, d = ring.modulus, ring.h, ring.degree

    def reduce(poly):
        prod = [c % n for c in poly] + [0] * (d - len(poly))
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            for j in range(d):
                prod[k - d + j] = (prod[k - d + j] - c * h[j]) % n
        return tuple(prod[:d])

    def mul(a, b):
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return reduce(prod)

    def add(a, b):
        return tuple((x + y) % n for x, y in zip(a, b))

    elems = [tuple(i // n ** k % n for k in range(d)) for i in range(n ** d)]
    index = {e: i for i, e in enumerate(elems)}
    t, one_minus_t = reduce([0, 1]), reduce([1, -1])
    left = [mul(t, a) for a in elems]
    right = [mul(one_minus_t, b) for b in elems]
    return tuple(tuple(index[add(ta, ub)] for ub in right) for ta in left)


def _monic_rings(max_order):
    """Every ring Z/n[t]/(h) with h monic, a unit constant term and
    n^deg(h) <= max_order."""
    for n in range(2, max_order + 1):
        d = 1
        while n ** d <= max_order:
            for c0 in (c for c in range(1, n) if gcd(c, n) == 1):
                for middle in itertools.product(range(n), repeat=d - 1):
                    yield LaurentQuotientRing(n, (c0, *middle, 1))
            d += 1


def test_alexander_tables_match_general_ring_arithmetic():
    rings = list(_monic_rings(32))
    assert len(rings) == 405
    rings += [LaurentQuotientRing(m, h) for m, h in _ALEXANDER_RINGS]
    # the order-64 shapes the certify-small benchmark deck draws: degree 6, 3, 2 and 1
    rng = random.Random(904)
    for n, d in ((2, 6), (4, 3), (8, 2), (64, 1)):
        for _ in range(4):
            c0 = rng.choice([c for c in range(1, n) if gcd(c, n) == 1])
            rings.append(LaurentQuotientRing(n, (c0, *(rng.randrange(n) for _ in range(d - 1)), 1)))
    for ring in rings:
        assert alexander_quandle(ring).table == _reference_alexander_table(ring), ring


# --- the stock constructors against their cell-by-cell formulas ---------------

def _cells(n, op):
    return tuple(tuple(op(a, b) for b in range(n)) for a in range(n))


def _cells_dihedral_group(n):
    def mul(a, b):
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        r = (rb + ra) % n if fb == 0 else (rb - ra) % n
        return r + n * ((fa + fb) % 2)

    return _cells(2 * n, mul)


def _cells_symmetric_group(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(map(b.__getitem__, a))] for b in perms) for a in perms)


def _cells_direct_product(g, h):
    m = h.size

    def mul(x, y):
        a1, b1 = divmod(x, m)
        a2, b2 = divmod(y, m)
        return g.table[a1][a2] * m + h.table[b1][b2]

    return _cells(g.size * m, mul)


def _cells_conj(g):
    return _cells(g.size, lambda a, b: g.table[g.table[g.inverse[b]][a]][b])


def _cells_core(g):
    return _cells(g.size, lambda a, b: g.table[g.table[b][g.inverse[a]]][b])


def _cells_alexander(ring):
    """t a and b - t b once per element as coefficient vectors, then one
    digitwise sum mod n and one lookup per cell."""
    n, h, d = ring.modulus, ring.h, ring.degree
    elems = [tuple(i // n ** k % n for k in range(d)) for i in range(n ** d)]
    index = {e: i for i, e in enumerate(elems)}
    times_t = [tuple((low - v[-1] * c) % n for low, c in zip((0, *v[:-1]), h)) for v in elems]
    rest = [tuple((x - y) % n for x, y in zip(b, tb)) for b, tb in zip(elems, times_t)]
    return tuple(tuple(index[tuple((x + y) % n for x, y in zip(ta, r))] for r in rest)
                 for ta in times_t)


def _assert_table(table, expected):
    """The table equals its oracle's and, like it, is a tuple of int tuples."""
    assert table == expected
    assert type(table) is tuple and set(map(type, table)) == {tuple}
    assert set(map(type, itertools.chain.from_iterable(table))) == {int}


def _assert_group(g, expected):
    """g's table is the oracle's, and its identity and inverses those the
    cell-by-cell search finds in the oracle."""
    _assert_table(g.table, expected)
    assert (g.identity, g.inverse) == _scalar_identity_inverse(expected)


def test_dihedral_quandle_matches_its_cells_across_order_256():
    for n in range(1, 301):
        _assert_table(dihedral_quandle(n).table, _cells(n, lambda i, j: (2 * j - i) % n))


def test_cyclic_groups_match_their_cells_across_order_256():
    for n in [*range(1, 41), *range(250, 261)]:
        _assert_group(cyclic_group(n), _cells(n, lambda a, b: (a + b) % n))


def test_dihedral_groups_match_their_cells():
    for n in [*range(1, 31), 128, 129]:
        _assert_group(dihedral_group(n), _cells_dihedral_group(n))


def test_symmetric_groups_and_products_match_their_cells():
    for n in range(1, 6):
        _assert_group(symmetric_group(n), _cells_symmetric_group(n))
    c2 = cyclic_group(2)
    # (Z/2)^2 composed by XOR is the dihedral group of order 4
    _assert_group(klein_four_group(), _cells_direct_product(c2, c2))
    assert klein_four_group() == dihedral_group(2)
    # Z/3 relabelled so that its identity is 2, not 0
    shifted = FiniteGroup(_cells(3, lambda a, b: (a + b + 1) % 3))
    assert shifted.identity == 2
    factors = [cyclic_group(1), c2, cyclic_group(3), shifted, symmetric_group(3),
               dihedral_group(4), klein_four_group()]
    for g, h in [*itertools.product(factors, repeat=2), (c2, cyclic_group(129))]:
        cells = _cells_direct_product(g, h)
        _assert_group(FiniteGroup(cells), cells)


def test_conj_and_core_quandles_match_their_cells():
    # Z/3 with identity 2, and its product with S3, whose identity is 12
    shifted = FiniteGroup(_cells(3, lambda a, b: (a + b + 1) % 3))
    product = FiniteGroup(_cells_direct_product(shifted, symmetric_group(3)))
    assert (shifted.identity, product.identity) == (2, 12)
    groups = _conj_core_groups() + [shifted, product, symmetric_group(5), dihedral_group(129)]
    assert groups[-1].size == 258
    for g in groups:
        _assert_table(conj_quandle(g).table, _cells_conj(g))
        _assert_table(core_quandle(g).table, _cells_core(g))


def test_structures_hold_only_their_table_and_what_a_group_derives():
    # size is read off the table, not stored beside it
    assert [f.name for f in dataclasses.fields(FiniteQuandle)] == ["table"]
    assert [f.name for f in dataclasses.fields(FiniteGroup)] == ["table", "identity", "inverse"]
    groups = [*_conj_core_groups(), *map(symmetric_group, range(1, 6)), dihedral_group(129)]
    quandles = [*map(dihedral_quandle, (1, 2, 64, 257)), transvection_quandle(2, [[1]]),
                *(alexander_quandle(LaurentQuotientRing(m, h)) for m, h in _ALEXANDER_RINGS),
                *map(conj_quandle, groups), *map(core_quandle, groups)]
    for x in groups + quandles:
        assert x.size == len(x.table), x


def test_alexander_quandles_match_their_cells_across_order_256():
    rings = [LaurentQuotientRing(m, h) for m, h in _ALEXANDER_RINGS]
    # orders 243, 289 and 343: degree 5, 2 and 1
    rings += [LaurentQuotientRing(3, (1, 2, 0, 1, 0, 1)), LaurentQuotientRing(17, (3, 1, 1)),
              LaurentQuotientRing(343, (5, 1))]
    for ring in rings:
        expected = _cells_alexander(ring)
        _assert_table(alexander_quandle(ring).table, expected)
        if ring.size <= 289:
            assert expected == _reference_alexander_table(ring), ring


# --- the row-level checks against the cell-by-cell loops ----------------------

def _scalar_freeze_error(table):
    """The shape and entry checks as a cell-by-cell loop, the size being the
    number of rows: the text of the first ValueError, or None."""
    rows = [tuple(row) for row in table]
    size = len(rows)
    for i, row in enumerate(rows):
        if len(row) != size:
            return f"table row {i} has length {len(row)}, expected {size}"
        for x in row:
            if type(x) is not int or not 0 <= x < size:
                return f"table entry {x!r} is not an int in [0, {size})"
    return None


def _planted_tables(table):
    """Copies of a table with one bad cell or row: a bool, a negative, the
    value size, a float equal to a valid entry, a string, a short row, a
    long row or an extra row, at the first, a middle and the last position."""
    n = len(table)
    for i, j in ((0, 0), (n // 2, n // 3), (n - 1, n - 1)):
        for value in (True, False, -1, n, float(table[i][j]), str(table[i][j]), None):
            rows = [list(row) for row in table]
            rows[i][j] = value
            yield rows
        rows = [list(row) for row in table]
        del rows[i][j]
        yield rows
        rows = [list(row) for row in table]
        rows[i].append(0)
        yield rows
        rows = [list(row) for row in table]
        rows.insert(i, list(range(n)))
        yield rows


def _error(build, table):
    try:
        build(table)
    except ValueError as exc:
        return str(exc)
    return None


def test_row_checks_raise_the_scalar_loops_messages():
    planted = 0
    for table in (dihedral_quandle(1).table, dihedral_quandle(5).table,
                  cyclic_group(7).table, symmetric_group(4).table,
                  dihedral_quandle(300).table):
        for rows in _planted_tables(table):
            expected = _scalar_freeze_error(rows)
            assert expected is not None
            # a quandle's or a group's size is its number of rows
            assert _error(FiniteQuandle, rows) == _error(FiniteGroup, rows) == expected
            planted += 1
    assert planted == 5 * 3 * 10


def _random_loop_like_table(rng, n):
    """An n x n table with identity 0 and every other cell random: mostly
    no group, often with inverses that are one-sided or missing."""
    return [[b if a == 0 else a if b == 0 else rng.randrange(n) for b in range(n)]
            for a in range(n)]


def _search_outcome(table):
    """The row-level identity and inverse search on a table of any shape
    FiniteGroup accepts: what it finds, or the text of its ValueError."""
    rows, _, cols, (idx, _, _, _, _) = _encode(table)
    try:
        return _identity_and_inverse(rows, cols, idx)
    except ValueError as exc:
        return str(exc)


def test_identity_and_inverse_search_matches_the_scalar_loops():
    rng = random.Random(907)
    outcomes = collections.Counter()
    for n in [*range(1, 9), 300]:
        for _ in range(60 if n < 9 else 3):
            table = _random_loop_like_table(rng, n)
            if rng.random() < 0.3:
                # move the identity away from 0, or break it
                perm = rng.sample(range(n), n)
                table = [[perm[table[perm.index(a)][perm.index(b)]] for b in range(n)]
                         for a in range(n)]
                table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            found = _scalar_identity_inverse(table)
            assert _search_outcome(table) == found
            if n < 9:
                assert _from_table_outcome(table) == _scalar_from_table(table)
            outcomes[found if isinstance(found, str) else "found"] += 1
    assert outcomes["table has no identity element"] > 20 and outcomes["found"] > 20
    assert sum(v for o, v in outcomes.items() if o.startswith("element")) > 20


def test_first_right_inverse_that_is_not_two_sided_is_skipped():
    # row 2 meets the identity first at column 1, but 1*2 = 2: that right
    # inverse is one-sided, and the first two-sided one is 3
    table = [[0, 1, 2, 3],
             [1, 0, 2, 3],
             [2, 0, 3, 0],
             [3, 3, 0, 1]]
    assert _search_outcome(table) == _scalar_identity_inverse(table) == (0, (0, 1, 3, 2))
    assert _from_table_outcome(table) == _scalar_from_table(table)
    # with no two-sided inverse at all the search names the element
    table[3][2] = 1
    assert _search_outcome(table) == _scalar_identity_inverse(table) == "element 2 has no inverse"
    assert _from_table_outcome(table) == "element 2 has no inverse"


def test_group_checks_do_not_rest_on_assert():
    # under python -O, which drops assert statements, malformed tables are
    # still refused with the same messages
    script = (
        "from trefoil import FiniteGroup, FiniteQuandle\n"
        "for args in ([[[0, 1], [1, 1]]], [[[0, 1], [1, True]]], [[[0, 1], [1]]],\n"
        "             [[[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 3, 0], [3, 3, 1, 1]]],\n"
        "             [[[1, 0], [0, 0]]]):\n"
        "    try:\n"
        "        FiniteGroup(*args)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "try:\n"
        "    FiniteQuandle([[0, -1], [1, 1]])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trefoil.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "element 1 has no inverse",
        "table entry True is not an int in [0, 2)",
        "table row 1 has length 1, expected 2",
        "element 2 has no inverse",
        "table has no identity element",
        "table entry -1 is not an int in [0, 2)",
    ]
