import json
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefoil import (
    PF_INFINITY,
    PF_ZERO,
    PFrac,
    TransvectionMatrix,
    apply_matrix,
    is_primitive,
    orbit_bfs,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    projectivize,
    sympl_op,
    sympl_op_inv,
    transvection_matrix,
)

pairs = st.tuples(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
).filter(lambda t: t != (0, 0))

fractions = pairs.map(lambda t: pf_new(*t))


def test_pf_new_examples():
    assert pf_new(0, 5) == PFrac(0, 1)
    assert pf_new(-2, -6) == PFrac(1, 3)
    assert pf_new(3, 0) == PFrac(1, 0)
    assert pf_new(4, -6) == PFrac(-2, 3)


def test_pf_new_rejects_zero_pair():
    with pytest.raises(ValueError):
        pf_new(0, 0)


def test_canonical_constructor_rejects_raw_pairs():
    for p, q in ((2, 4), (1, -2), (-1, 0), (0, 0), (0, 2), (0, -1), (3, 0),
                 (True, 1), (1, True), (1.0, 1), (0, 1.0), ("1", 1)):
        with pytest.raises(ValueError):
            PFrac(p, q)
    # bools, floats and strs are not coerced to ints on any public path
    for p, q in ((True, 1), (0, True), (1.0, 2), (1, "2")):
        with pytest.raises(ValueError):
            pf_new(p, q)
        with pytest.raises(ValueError):
            projectivize((p, q))
    for k in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            pf_op_pow(PF_ZERO, PF_INFINITY, k)
    for r in (0.5, True, "1"):
        with pytest.raises(TypeError):
            PFrac.from_fraction(r)


def test_pf_new_reduces_scaled_pairs():
    rng = random.Random(16)
    canonical = [(0, 1), (1, 0), (1, 1), (-1, 1)]
    for bits in (8, 64, 2048):
        for _ in range(40):
            p, q = rng.getrandbits(bits) * rng.choice((1, -1)), rng.getrandbits(bits) + 1
            g = gcd(p, q)
            canonical.append((p // g, q // g))
    for p, q in canonical:
        x = PFrac(p, q)
        for g in (1, 2, rng.getrandbits(16) + 1, rng.getrandbits(300) + 1):
            for s in (1, -1):
                y = pf_new(s * g * p, s * g * q)
                assert y == x and hash(y) == hash(x)


def random_primitive_pairs(rng, bit_sizes):
    yield PF_ZERO
    yield PF_INFINITY
    for bits in bit_sizes:
        for sign in (1, -1):
            q = rng.getrandbits(bits) + 1
            p = sign * (rng.getrandbits(bits) + 1)
            g = gcd(p, q)
            yield PFrac(p // g, q // g)


def test_det_one_maps_sign_only():
    # pf_op, pf_op_inv, pf_op_pow and the matrix action skip pf_new's gcd:
    # each result must still pass every PFrac check and equal the reduced
    # raw pair
    rng = random.Random(17)
    small = list(random_primitive_pairs(rng, (1, 8, 64, 1024)))
    big = list(random_primitive_pairs(rng, (2**12, 2**15)))[2:]
    pairs = [(x, y) for x in small for y in small]
    pairs += [(x, y) for b in big for s in small[:2] + small[-2:] for x, y in ((b, s), (s, b))]
    pairs += [(big[1], big[3]), (big[3], big[2])]
    for x, y in pairs:
        d = x.p * y.q - x.q * y.p
        m = transvection_matrix(y)
        results = [
            (pf_op(x, y), (x.p - d * y.p, x.q - d * y.q)),
            (pf_op_inv(x, y), (x.p + d * y.p, x.q + d * y.q)),
            (apply_matrix(m, x), (m.a * x.p + m.b * x.q, m.c * x.p + m.d * x.q)),
        ]
        for k in (-3, 0, 3):
            results.append((pf_op_pow(x, y, k), (x.p - k * d * y.p, x.q - k * d * y.q)))
        for r, raw in results:
            assert PFrac(r.p, r.q) == r == pf_new(*raw)


def test_worked_identity_chains():
    assert pf_op(PF_ZERO, PF_INFINITY) == pf_new(1, 1)
    assert pf_op(pf_new(1, 1), PF_ZERO) == PF_INFINITY
    assert pf_op(PF_INFINITY, PF_ZERO) == pf_new(-1, 1)
    assert pf_op(pf_new(-1, 1), PF_INFINITY) == PF_ZERO


@settings(max_examples=300, derandomize=True)
@given(fractions)
def test_idempotence(x):
    assert pf_op(x, x) == x
    assert pf_op_inv(x, x) == x


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions)
def test_inverse_operation(x, y):
    assert pf_op_inv(pf_op(x, y), y) == x
    assert pf_op(pf_op_inv(x, y), y) == x


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions, fractions)
def test_right_distributivity(x, y, z):
    assert pf_op(pf_op(x, y), z) == pf_op(pf_op(x, z), pf_op(y, z))


@settings(max_examples=200, derandomize=True)
@given(fractions, fractions)
def test_projective_well_definedness(x, y):
    reference = pf_op(x, y)
    for sx in (1, -1):
        for sy in (1, -1):
            u, v = sympl_op((sx * x.p, sx * x.q), (sy * y.p, sy * y.q))
            assert pf_new(u, v) == reference


@settings(max_examples=200, derandomize=True)
@given(fractions, fractions)
def test_unreduced_result_is_primitive(x, y):
    d = x.p * y.q - x.q * y.p
    raw = (x.p - d * y.p, x.q - d * y.q)
    assert gcd(abs(raw[0]), abs(raw[1])) == 1


def test_pow_examples():
    assert pf_op_pow(pf_new(1, 3), PF_ZERO, 2) == pf_new(1, 1)
    assert pf_op_pow(pf_new(1, 3), PF_INFINITY, 2) == pf_new(7, 3)
    x = pf_new(5, 7)
    assert pf_op_pow(x, pf_new(2, 3), 0) == x


def test_pow_matches_iteration():
    rng = random.Random(11)
    for _ in range(50):
        x = pf_new(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        y = pf_new(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        forward = backward = x
        for k in range(1, 21):
            forward = pf_op(forward, y)
            backward = pf_op_inv(backward, y)
            assert pf_op_pow(x, y, k) == forward
            assert pf_op_pow(x, y, -k) == backward


def test_pow_special_cases_closed_forms():
    rng = random.Random(12)
    for _ in range(200):
        x = pf_new(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        k = rng.randint(1, 15)
        assert pf_op_pow(x, PF_ZERO, k) == pf_new(x.p, x.q - k * x.p)
        assert pf_op_pow(x, PF_ZERO, -k) == pf_new(x.p, x.q + k * x.p)
        assert pf_op_pow(x, PF_INFINITY, k) == pf_new(x.p + k * x.q, x.q)
        assert pf_op_pow(x, PF_INFINITY, -k) == pf_new(x.p - k * x.q, x.q)


def test_transvection_matrix_generators():
    assert transvection_matrix(PF_INFINITY).rows() == [[1, 1], [0, 1]]
    assert transvection_matrix(PF_ZERO).rows() == [[1, 0], [-1, 1]]


@settings(max_examples=300, derandomize=True)
@given(fractions)
def test_transvection_matrix_determinant(y):
    assert transvection_matrix(y).det() == 1


def test_transvection_matrix_determinant_large():
    # transvection_matrix skips the determinant check of a direct
    # TransvectionMatrix(...), since the determinant is 1 identically
    rng = random.Random(18)
    for y in random_primitive_pairs(rng, (2**10, 2**12, 2**14, 2**15)):
        m = transvection_matrix(y)
        assert m.det() == 1
        assert m == TransvectionMatrix(m.a, m.b, m.c, m.d)


def test_matrix_action_examples():
    x, y = pf_new(2, 5), pf_new(1, 3)
    assert apply_matrix(transvection_matrix(y), x) == pf_op(x, y)
    identity = TransvectionMatrix(1, 0, 0, 1)
    assert apply_matrix(identity, x) == x
    shear = TransvectionMatrix(1, 1, 0, 1)
    assert apply_matrix(shear, PF_ZERO) == pf_new(1, 1)


@settings(max_examples=300, derandomize=True)
@given(fractions, fractions)
def test_matrix_action_agrees_with_operation(x, y):
    assert apply_matrix(transvection_matrix(y), x) == pf_op(x, y)


def test_matrix_equality_is_projective():
    m = TransvectionMatrix(1, 1, 0, 1)
    assert m == TransvectionMatrix(-1, -1, 0, -1)
    assert hash(m) == hash(TransvectionMatrix(-1, -1, 0, -1))
    assert m != TransvectionMatrix(1, 0, 0, 1)


def test_matrix_rejects_bad_determinant():
    with pytest.raises(ValueError):
        TransvectionMatrix(1, 0, 0, 0)
    with pytest.raises(ValueError):
        TransvectionMatrix(0, 1, 1, 0)  # determinant -1
    for entries in ((1.0, 0, 0, 1.0), (True, 0, 0, True), (1, 0, 0.0, 1), (1, "0", 0, 1)):
        with pytest.raises(ValueError):
            TransvectionMatrix(*entries)


def test_sympl_examples():
    assert sympl_op((0, 0), (3, 7)) == (0, 0)
    assert sympl_op((2, 4), (1, 1)) == (4, 6)
    assert sympl_op((5, 3), (5, 3)) == (5, 3)


def test_sympl_rack_axioms_sampled():
    rng = random.Random(13)
    for _ in range(300):
        x = (rng.randint(-99, 99), rng.randint(-99, 99))
        y = (rng.randint(-99, 99), rng.randint(-99, 99))
        z = (rng.randint(-99, 99), rng.randint(-99, 99))
        assert sympl_op(x, x) == x
        assert sympl_op_inv(sympl_op(x, y), y) == x
        assert sympl_op(sympl_op(x, y), z) == sympl_op(sympl_op(x, z), sympl_op(y, z))


def test_primitivity():
    assert not is_primitive((2, 4))
    assert is_primitive((1, 0))
    assert is_primitive((-3, 5))
    assert projectivize((1, 0)) == PF_INFINITY
    assert projectivize((-3, 5)) == PFrac(-3, 5)
    with pytest.raises(ValueError):
        projectivize((2, 4))
    with pytest.raises(ValueError):
        projectivize((0, 0))


def test_braid_relation_on_fractions():
    rng = random.Random(14)
    a, b = PF_ZERO, PF_INFINITY
    for _ in range(500):
        x = pf_new(rng.randint(-999, 999) or 1, rng.randint(1, 999))
        assert pf_op(pf_op(pf_op(x, a), b), a) == pf_op(pf_op(pf_op(x, b), a), b)


def test_orbit_bfs_examples():
    report = orbit_bfs([pf_new(1, 1), PF_ZERO, pf_new(7, 3)], bound=10)
    assert report.reached[pf_new(1, 1)] == "ab"
    assert report.reached[PF_ZERO] == "a"
    assert pf_new(7, 3) in report.reached
    assert report.all_reached()


def test_orbit_bfs_respects_bound():
    report = orbit_bfs([pf_new(7, 3)], bound=2)
    assert pf_new(7, 3) in report.unreached
    assert all(abs(f.p) <= 2 and abs(f.q) <= 2 for f in report.witnesses)


def test_orbit_bfs_rejects_bad_bound():
    with pytest.raises(ValueError):
        orbit_bfs([PF_ZERO], bound=0)


def test_orbit_dot_output():
    dot = orbit_bfs([pf_new(1, 1)], bound=1).to_dot()
    assert dot.startswith("digraph orbit {")
    assert '"0/1" -> "1/1" [label="b"];' in dot


def test_text_and_json_round_trips():
    for text in ("7/3", "-1/2", "1/0", "0/1", "5"):
        x = PFrac.parse(text)
        assert PFrac.parse(str(x)) == x
        assert PFrac.from_json(json.loads(json.dumps(x.to_json()))) == x
    assert str(PFrac.parse("5")) == "5/1"
    assert PFrac.parse("-2/6") == PFrac(-1, 3)
    with pytest.raises(ValueError):
        PFrac.parse("x/y")
    with pytest.raises(ValueError):
        PFrac.parse("1/-2")


def test_to_fraction():
    assert PFrac.parse("7/3").to_fraction() == __import__("fractions").Fraction(7, 3)
    with pytest.raises(ValueError):
        PF_INFINITY.to_fraction()
