import itertools
import random
from math import gcd

import pytest

from trefoil import (
    BraidElement,
    CoveredElement,
    FiberMismatchError,
    braid_eq,
    covering_p,
    fiber_compare,
    lambda_act,
    longitude,
    meridian,
    pf_new,
    pi1_act,
    qt_new,
    qt_op,
    qt_op_inv,
    render_braid,
)
from trefoil import longknot
from trefoil.acceptance import random_braid, sample_covered_pool
from trefoil.braid import _image, _matmul
from trefoil.longknot import _x_image


@pytest.fixture(scope="module")
def pool():
    return sample_covered_pool(random.Random(31), 16, 12)


def base_point():
    return qt_new(BraidElement.identity())


def test_qt_new_base_point():
    p = base_point()
    assert braid_eq(covering_p(p), meridian())
    assert p.x.eps == 1


def test_qt_new_rejects_nonzero_exponent_sum():
    # CoveredElement is the same checked path; Delta^4 has the image of 1
    for build in (qt_new, CoveredElement):
        for g in ("a", "ab", "aba" * 4):
            with pytest.raises(ValueError, match="exponent sum 0"):
                build(BraidElement.parse(g))


def test_qt_new_rejects_a_non_braid():
    # a typed error naming the type, as the other public constructors give
    for build in (qt_new, CoveredElement):
        for g, name in (("ab", "str"), (pf_new(1, 2), "PFrac"), (None, "NoneType"),
                        (longitude().w, "str")):
            with pytest.raises(TypeError, match=f"takes a BraidElement, not {name}$"):
                build(g)


def test_longitude_slot_gives_fibre_mate():
    p = base_point()
    q = qt_new(longitude())
    assert braid_eq(covering_p(p), covering_p(q))
    assert p != q


def test_idempotence(pool):
    for p in pool:
        assert qt_op(p, p) == p


def test_idempotent_chain_keeps_its_size(pool):
    for x in pool:
        sizes = (len(x.g.w), len(render_braid(x.g)))
        for _ in range(5):
            x = qt_op(x, x)
            assert (len(x.g.w), len(render_braid(x.g))) == sizes


def test_inverse_round_trips(pool):
    rng = random.Random(32)
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        assert qt_op_inv(qt_op(p, q), q) == p
        assert qt_op(qt_op_inv(p, q), q) == p


def test_quandle_axioms_on_sampled_triples(pool):
    rng = random.Random(33)
    for _ in range(1000):
        p, q, r = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert qt_op(qt_op(p, q), r) == qt_op(qt_op(p, r), qt_op(q, r))


def test_both_displayed_second_slot_forms_agree(pool):
    m, m_inv = meridian(), meridian().inv()
    rng = random.Random(34)
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        # * : g' x^-1 y and m^-1 g' h'^-1 m h'
        f1, f2 = p.g * p.x.inv() * q.x, m_inv * p.g * q.g.inv() * m * q.g
        assert braid_eq(f1, f2) and braid_eq(qt_op(p, q).g, f1)
        # *̄ : g' x y^-1 and m g' h'^-1 m^-1 h'
        g1, g2 = p.g * p.x * q.x.inv(), m * p.g * q.g.inv() * m_inv * q.g
        assert braid_eq(g1, g2) and braid_eq(qt_op_inv(p, q).g, g1)


def _forms(*braids):
    return [(u.d, u.w, u.image) for u in braids]


def _two_product_op(pair, q):
    # (x, g') * (y, h') = (y^-1 x y, m^-1 g' y), each slot from two *s;
    # pair is (g', x)
    g, x = pair
    y = q.x
    return meridian().inv() * g * y, y.inv() * x * y


def _two_product_op_inv(pair, q):
    # (x, g') *̄ (y, h') = (y x y^-1, m g' y^-1)
    g, x = pair
    y = q.x
    return meridian() * g * y.inv(), y * x * y.inv()


# each operation with its reference slot formulas
_SLOT_REFERENCES = ((qt_op, _two_product_op), (qt_op_inv, _two_product_op_inv))


def _reference_act(p, h):
    # pi1_act's slots, each from two *s
    g, x = p.g, p.x
    return meridian() ** (-h.eps) * g * h, h.inv() * x * h


def _x_by_letters(x):
    # the letter-loop image of x's Garside form
    return x.image == _image(x.d, x.w)


def test_constructor_does_not_use_the_slot_builder(monkeypatch):
    # CoveredElement(g) stays a route of its own: with the slot builder
    # and the x-image reader raising, it still builds x on the selftest
    # pool, equal to g^-1 a g parsed from g's text letter by letter
    pool = sample_covered_pool(random.Random(1009), 20, 12)

    def called(*args):
        raise AssertionError("the constructor called the slot builder")

    monkeypatch.setattr(longknot, "_act", called)
    monkeypatch.setattr(longknot, "_x_image", called)
    for p in pool:
        text = p.g.render()
        want = BraidElement.parse(text[::-1].swapcase() + "a" + text)
        assert _forms(CoveredElement(p.g).x) == _forms(want)


def test_slots_equal_the_two_product_formulas_on_the_selftest_pool():
    # the pool and act lengths of the selftest's long-trefoil criterion;
    # each x's image, read off its g', equals the letter loop over x's form
    pool = sample_covered_pool(random.Random(1009), 20, 12)
    for p, q in itertools.product(pool, repeat=2):
        for op, ref in _SLOT_REFERENCES:
            r = op(p, q)
            assert _forms(r.g, r.x) == _forms(*ref((p.g, p.x), q))
            assert _x_by_letters(r.x)
    rng = random.Random(40)
    for _ in range(500):
        p, h = rng.choice(pool), random_braid(rng, 8)
        r = pi1_act(p, h)
        assert _forms(r.g, r.x) == _forms(*_reference_act(p, h))
        assert _x_by_letters(r.x)


def test_slots_equal_the_two_product_formulas_along_chains():
    # chains of depth 32 of * and of *̄ from the selftest pool, the
    # two-product slots carried along beside the covered element
    pool = sample_covered_pool(random.Random(1009), 20, 12)
    rng = random.Random(41)
    for op, ref in _SLOT_REFERENCES:
        for _ in range(8):
            p = rng.choice(pool)
            pair = p.g, p.x
            for _ in range(32):
                q = rng.choice(pool)
                p, pair = op(p, q), ref(pair, q)
                assert _forms(p.g, p.x) == _forms(*pair)
                assert _x_by_letters(p.x)


def _random_sl2(rng, bits):
    # a random coprime bottom row (c, d), c != 0, completed to determinant 1
    while True:
        c = rng.getrandbits(bits) * rng.choice((1, -1))
        d = rng.getrandbits(bits) * rng.choice((1, -1))
        if c and gcd(c, d) == 1:
            break
    a = pow(d, -1, abs(c))
    return a, (a * d - 1) // c, c, d


def test_x_image_is_the_conjugated_meridian_image():
    # G^-1 M G for random G in SL(2, Z) with entries up to 10^3 bits, and
    # for G = +-[[1, b], [0, 1]], whose bottom row has c = 0
    rng, meridian_image = random.Random(42), meridian().image
    images = [_random_sl2(rng, rng.randint(1, 1000)) for _ in range(2000)]
    images += [(e, b, 0, e) for e in (1, -1) for b in (0, 1, -7, 2 ** 999)]
    for a, b, c, d in images:
        assert a * d - b * c == 1
        conjugated = _matmul(_matmul((d, -b, -c, a), meridian_image), (a, b, c, d))
        assert _x_image(c, d) == conjugated


def test_covering_property(pool):
    rng = random.Random(35)
    for _ in range(200):
        anchor, base = rng.choice(pool), rng.choice(pool)
        mate = lambda_act(rng.randint(-2, 2), base)
        assert braid_eq(covering_p(base), covering_p(mate))
        assert qt_op(anchor, base) == qt_op(anchor, mate)


def test_representation_property(pool):
    rng = random.Random(36)
    for _ in range(200):
        p, q = rng.choice(pool), rng.choice(pool)
        pq = qt_op(p, q)
        lhs = covering_p(pq)
        rhs = covering_p(q).inv() * covering_p(p) * covering_p(q)
        assert braid_eq(lhs, rhs)
        assert braid_eq(lhs, pq.g.inv() * meridian() * pq.g)


def test_covering_image_is_meridian_conjugate(pool):
    for p in pool:
        assert covering_p(p).eps == 1
        assert covering_p(p) is p.x  # set with g', then kept in its slot


def test_lambda_act_basics():
    p = base_point()
    assert lambda_act(0, p) == p
    moved = lambda_act(1, p)
    assert moved != p
    assert braid_eq(covering_p(moved), covering_p(p))
    assert lambda_act(-1, moved) == p


@pytest.mark.parametrize("k", [True, 2.0])
def test_lambda_act_rejects_a_non_int_power(k):
    # True once acted as k = 1, and 2.0 raised TypeError
    with pytest.raises(ValueError, match="must be an int"):
        lambda_act(k, base_point())


def test_lambda_act_freeness(pool):
    rng = random.Random(37)
    for _ in range(50):
        p = rng.choice(pool)
        for k in range(-5, 6):
            assert (lambda_act(k, p) == p) == (k == 0)


def test_pi1_act_basics(pool):
    p = base_point()
    assert pi1_act(p, BraidElement.identity()) == p
    assert pi1_act(p, meridian()) == p
    rng = random.Random(38)
    for _ in range(100):
        q = rng.choice(pool)
        h = BraidElement.parse("".join(rng.choice("aAbB") for _ in range(rng.randint(0, 6))))
        acted = pi1_act(q, h)
        assert acted.g.eps == 0
        assert braid_eq(covering_p(acted), h.inv() * covering_p(q) * h)


def test_fiber_compare_recovers_planted_powers(pool):
    rng = random.Random(39)
    for _ in range(50):
        p = rng.choice(pool)
        k = rng.randint(-3, 3)
        assert fiber_compare(p, lambda_act(k, p)) == k
    for k in (-10**4, -1000, -999, -256, 255, 999, 1000, 10**4):
        p = rng.choice(pool)
        assert fiber_compare(p, lambda_act(k, p)) == k
        assert fiber_compare(lambda_act(k, p), p) == -k


def test_lambda_act_has_the_closed_form():
    base = base_point()
    for k in range(-300, 301):
        assert lambda_act(k, base).g == longitude() ** k


def test_lambda_act_seeds_the_image_of_its_result(pool):
    # varied g': the base point, odd and even powers of Delta, long slots
    slots = [base_point()] + pool[:3] + [lambda_act(5, pool[3]), pi1_act(pool[4], meridian())]
    assert len({p.g.d % 4 for p in slots}) > 1
    for p in slots:
        for k in range(-300, 301, 7 if p.g.d else 1):
            g = lambda_act(k, p).g
            assert g.image == BraidElement(g.d, g.w).image, (k, p)


def test_fiber_compare_partitions_fibres_like_covering_p():
    pool = sample_covered_pool(random.Random(41), 40, 12)
    points = [lambda_act(k, p) for p in pool for k in (0, 1, -2)]
    mismatches = 0
    for p in points:
        for q in points:
            if covering_p(p) != covering_p(q):
                mismatches += 1
                with pytest.raises(FiberMismatchError):
                    fiber_compare(p, q)
            else:
                assert lambda_act(fiber_compare(p, q), p) == q
    # every element shares its fibre with its own two mates at least
    assert 0 < mismatches <= len(points) ** 2 - 9 * len(pool)


def test_fiber_compare_rejects_different_fibres():
    p = base_point()
    q = pi1_act(p, BraidElement.parse("b"))
    assert not braid_eq(covering_p(p), covering_p(q))
    with pytest.raises(FiberMismatchError):
        fiber_compare(p, q)


def test_fiber_compare_rejects_a_non_power():
    # second slots that qt_new would refuse, planted over the same point m:
    # the quotient a has exponent sum 1, and Delta^4 has the image of lambda^0
    p = base_point()
    for g in map(BraidElement.parse, ("a", "aba" * 4)):
        q = CoveredElement._trusted(g, g.inv() * meridian() * g)
        assert covering_p(q) == covering_p(p)
        with pytest.raises(AssertionError):
            fiber_compare(p, q)


def test_connectedness_witness(pool):
    rng = random.Random(40)
    frontier = [base_point()]
    seen = {frontier[0]}
    fibres = {frontier[0].x}
    for _ in range(60):
        current = frontier[rng.randrange(len(frontier))]
        other = rng.choice(pool)
        nxt = qt_op(current, other) if rng.random() < 0.5 else qt_op_inv(current, other)
        if nxt not in seen:
            seen.add(nxt)
            frontier.append(nxt)
            fibres.add(nxt.x)
    assert len(fibres) >= 3
    assert len({el.g for el in seen}) >= 3


def test_json_shape():
    payload = qt_new(longitude()).to_json()
    assert set(payload) == {"g_prime", "x", "eps"}
    assert payload["eps"] == 1
    assert payload["g_prime"] == "AAAAbaab"
