import itertools
import random
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefoil import (
    PF_INFINITY,
    PF_ZERO,
    BraidElement,
    ContinuedFraction,
    LaurentQuotientRing,
    PFrac,
    alexander_quandle,
    apply_matrix,
    cf_eval,
    cf_expand,
    cf_validate,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    frac_to_word,
    klein_four_group,
    lambda_act,
    parse_word,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    pi1_act,
    projectivize,
    qt_new,
    qt_op,
    qt_op_inv,
    symmetric_group,
    transvection_matrix,
    transvection_quandle,
    word_op,
    word_op_inv,
)
from trefoil.cfrac import (_BATCH_KEEP, _BATCH_MIN_BITS, _BATCH_TOP_BITS, _TREE_LEAF,
                           _euclid_batch)


def fraction_expand(r):
    """The floor algorithm on Fraction: the reference for cf_expand."""
    r = Fraction(r)
    terms = []
    while True:
        k = floor(r)
        terms.append(k)
        delta = r - k
        if delta == 0:
            return tuple(terms)
        r = 1 / delta


def fraction_eval(terms):
    """The right-to-left Fraction fold: the reference for cf_eval."""
    value = Fraction(terms[-1])
    for k in reversed(terms[:-1]):
        value = k + 1 / value
    return value


def convergents(terms):
    """The matrix product over the terms, [[h_n, h_(n-1)], [k_n, k_(n-1)]],
    row by row, by the forward convergent recurrence."""
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, h_prev, k, k_prev


def full_product(terms):
    """The whole matrix product as a balanced tree of tuple slices, all four
    entries at every node: the reference for cf_eval's one column."""
    if len(terms) <= _TREE_LEAF:
        return convergents(terms)
    mid = len(terms) // 2
    a, b, c, d = full_product(terms[:mid])
    e, f, g, h = full_product(terms[mid:])
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def window_euclid(p, q):
    """Euclid on the top bits of p > q as a batch reads them: the proposed
    quotients, the window (A, B) and the window pair after the quotients."""
    shift = p.bit_length() - _BATCH_TOP_BITS
    top, bottom = a, b = p >> shift, q >> shift
    proposed = []
    while b >= _BATCH_KEEP:
        t, rem = divmod(a, b)
        if rem < _BATCH_KEEP:
            break
        proposed.append(t)
        a, b = b, rem
    return proposed, (top, bottom), (a, b)


def two_row_batch(p, q):
    """A batch with both rows of its matrix from the convergent recurrence:
    the reference for _euclid_batch."""
    quotients = window_euclid(p, q)[0]
    h, h_prev, k, k_prev = convergents(quotients)
    x, y = k_prev * p - h_prev * q, h * q - k * p
    if len(quotients) % 2:
        x, y = -x, -y
    while not x > y >= 0:
        x, y = quotients.pop() * x + y, x
    if not quotients:
        t, rem = divmod(p, q)
        return [t], q, rem
    return quotients, x, y


def random_rationals():
    rng = random.Random(41)
    yield from (Fraction(n) for n in (0, 1, -1, 7, -7, 2**70, -(2**70)))
    for bits in (4, 16, 64, 256, 1024):
        for _ in range(40):
            p = rng.getrandbits(bits) * rng.choice((1, -1))
            yield Fraction(p, rng.getrandbits(bits) + 1)
    for _ in range(3):
        p = (rng.getrandbits(2**15) | 1 << 2**15) * rng.choice((1, -1))
        yield Fraction(p, rng.getrandbits(2**15) | 1 << 2**15)


def test_kernels_match_fraction_reference():
    for r in random_rationals():
        cf = cf_expand(r)
        assert cf.terms == fraction_expand(r)
        assert cf_eval(cf) == fraction_eval(cf.terms) == r
        h, _, k, _ = full_product(cf.terms)
        assert (h, k) == (r.numerator, r.denominator)
        assert cf_expand(r.numerator) == ContinuedFraction((r.numerator,))
        terms = cf.terms
        if len(terms) >= 2:
            # the last two convergents h_(n-1)/k_(n-1) and h_n/k_n = r
            prev = fraction_eval(terms[:-1])
            det = r.numerator * prev.denominator - prev.numerator * r.denominator
            assert det == (-1) ** len(terms)


def field_names(x):
    """Each field of a value with whether its public constructor takes it:
    a dataclass's fields, or a pair's two items, named by __match_args__."""
    if is_dataclass(x):
        return [(f.name, f.init) for f in fields(x)]
    return [(name, True) for name in type(x).__match_args__]


def assert_passes_public_checks(x):
    """x, built without its class's checks, rebuilt through the public
    constructor from its init fields: the same value, with the same hash,
    and every field equal, those set in closed form (a braid's image)
    included."""
    names = field_names(x)
    y = type(x)(*(getattr(x, name) for name, init in names if init))
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    for name, _ in names:
        assert getattr(y, name) == getattr(x, name), name


def test_unchecked_results_pass_the_public_checks():
    # every result built without its class's checks, as one more input
    rng = random.Random(47)
    for r in random_rationals():
        cf = cf_expand(r)
        assert type(cf.terms) is tuple and cf_validate(cf.terms)
        x = pf_new(r.numerator, r.denominator)
        y = pf_new(rng.randint(-99, 99), rng.randint(1, 99))
        nf = frac_to_word(x)
        assert nf.exponents == cf.terms == cf_expand(x).terms
        results = [cf, cf_expand(r.numerator), cf_expand(x), nf,
                   frac_to_word(y).to_word(), PFrac.from_fraction(r),
                   PFrac.from_fraction(r.numerator), projectivize((r.numerator, r.denominator)),
                   pf_op(x, y), pf_op_inv(x, y), pf_op_pow(x, y, -3), pf_op(y, PF_INFINITY),
                   transvection_matrix(x), apply_matrix(transvection_matrix(y), x)]
        for z in results:
            assert_passes_public_checks(z)
    for x in (PF_INFINITY, PF_ZERO):
        assert_passes_public_checks(frac_to_word(x))
        assert_passes_public_checks(frac_to_word(x).to_word())
    for _ in range(50):
        u, v = (parse_word(rng.choice("ab") + "".join(rng.choice("abAB") for _ in range(12)))
                for _ in range(2))
        for w in (u.extended(v.tail), word_op(u, v), word_op_inv(u, v)):
            assert_passes_public_checks(w)
        g, h = (BraidElement.parse("".join(rng.choice("abAB") for _ in range(12)))
                for _ in range(2))
        for b in (g, BraidElement.parse("aBbaa"), BraidElement.identity(),
                  g * h, g.inv(), h ** 3):
            assert_passes_public_checks(b)
    # the operations on covered elements give both slots in Garside form,
    # and the x each sets in closed form is the one g' determines
    pool = [qt_new(BraidElement.parse(w)) for w in ("", "aB", "AAAAbaab", "abABbA")]
    for p in pool:
        for k in (-2, 0, 3, rng.randint(-99, 99)):
            assert_passes_public_checks(lambda_act(k, p))
            assert_passes_public_checks(lambda_act(k, p).g)
        for q in pool:
            for c in (qt_op(p, q), qt_op_inv(p, q), pi1_act(p, q.x)):
                assert_passes_public_checks(c)
                assert_passes_public_checks(c.g)
                assert_passes_public_checks(c.x)
    # the stock quandles and groups
    groups = [cyclic_group(6), dihedral_group(4), symmetric_group(3), klein_four_group()]
    quandles = [dihedral_quandle(7), alexander_quandle(LaurentQuotientRing(3, (2, 0, 1))),
                transvection_quandle(3, [[0, 1], [-1, 0]]),
                alexander_quandle(LaurentQuotientRing(5, (-2, 1)))]
    quandles += [make(g) for g in groups for make in (conj_quandle, core_quandle)]
    for z in groups + quandles:
        assert_passes_public_checks(z)


def assert_kernels_match(r):
    cf = cf_expand(r)
    assert cf.terms == fraction_expand(r)
    assert cf_eval(cf) == fraction_eval(cf.terms) == r
    return cf


def test_batched_expand_at_the_cutoff():
    # the batches start once a remainder has more than _BATCH_MIN_BITS bits
    rng = random.Random(43)
    for bits in (_BATCH_MIN_BITS - 1, _BATCH_MIN_BITS, _BATCH_MIN_BITS + 1):
        for size in (bits - 40, bits, bits + 40, 2 * bits):
            for sign in (1, -1):
                q = rng.getrandbits(bits) | 1 << bits - 1
                p = sign * (rng.getrandbits(size) | 1)
                while gcd(p, q) != 1:
                    p += sign
                r = Fraction(p, q)
                assert r.denominator.bit_length() == bits
                assert_kernels_match(r)


def test_batched_expand_on_long_fibonacci_ratios():
    # every quotient is 1: the most terms, and the most batches, per bit
    a, b = 1, 1
    for n in range(2, 9001):
        a, b = b, a + b
        if n in (6000, 9000):
            assert a.bit_length() > 2**12
            for r in (Fraction(b, a), Fraction(-a, b)):
                cf = assert_kernels_match(r)
                assert len(cf) <= 2 * r.denominator.bit_length() + 2
            assert cf_expand(Fraction(b, a)).terms == (1,) * (n - 2) + (2,)


def test_euclid_batch_returns_only_true_quotients():
    # whatever the leading bits propose, a batch returns true Euclidean
    # quotients and the pair after them, the same as the two-row reference;
    # about one batch in thirty here drops a proposed trailing quotient, and
    # nothing is proposed when p is much longer than q, or when p is about a
    # 250-bit multiple of q, so the first window remainder is short
    rng = random.Random(46)
    seen = set()
    for _ in range(400):
        bits = rng.randint(_BATCH_MIN_BITS + 1, 3 * _BATCH_MIN_BITS)
        q = rng.getrandbits(bits) | 1 << bits - 1
        if rng.random() < 0.1:
            p = (rng.getrandbits(250) | 1 << 249) * q + rng.getrandbits(64)
        else:
            p = q + 1 + rng.getrandbits(rng.choice((bits - 8, bits, bits + 8, bits + 600)))
        quotients, x, y = _euclid_batch(p, q)
        assert quotients
        a, b = p, q
        for t in quotients:
            k, r = divmod(a, b)
            assert k == t
            a, b = b, r
        assert (x, y) == (a, b)
        assert (quotients, x, y) == two_row_batch(p, q)
        proposed, (top, bottom), (a, b) = window_euclid(p, q)
        if p.bit_length() > q.bit_length() + 200:
            seen.add("p >> q")
        if not proposed:
            seen.add("keeps nothing, " + ("B short" if bottom < _BATCH_KEEP else "remainder short"))
            continue
        # the top row recovered from the bottom row is the recurrence's; with
        # the kept quotients and (x, y) equal to the reference's, so is the
        # kernel's, as y = s (h q - k p) fixes h and x fixes h_prev
        h, h_prev, k, _ = convergents(proposed)
        s = (-1) ** len(proposed)
        assert divmod(top * k + s * b, bottom) == (h, 0)
        assert divmod(top - h * a, b) == (h_prev, 0)
        seen.add(f"m {'odd' if len(proposed) % 2 else 'even'}")
        if len(quotients) < len(proposed):
            seen.add("pops")
    assert seen == {"keeps nothing, B short", "keeps nothing, remainder short",
                    "m odd", "m even", "pops", "p >> q"}, seen


def test_batched_expand_around_a_huge_partial_quotient():
    # a quotient far longer than the leading bits a batch reads, in the
    # middle of an 18k-term expansion: one divmod step, then batches again
    rng = random.Random(44)
    terms = ([-3] + [rng.randint(1, 9) for _ in range(9000)] + [2**4000]
             + [rng.randint(1, 9) for _ in range(8998)] + [2])
    r = fraction_eval(terms)
    assert r.denominator.bit_length() > 2**15
    assert cf_eval(terms) == r
    assert assert_kernels_match(r).terms == tuple(terms)


def test_tree_eval_matches_fraction_reference():
    # one leaf, a spine of one and of two nodes, and either side of each cut
    rng = random.Random(45)
    for n in range(1, 3 * _TREE_LEAF + 3):
        for bound in (3, 2**70):
            terms = [rng.randint(-bound, bound)] + [rng.randint(1, bound) for _ in range(n - 1)]
            if n >= 2 and terms[-1] == 1:
                terms[-1] = 2
            value = cf_eval(terms)
            assert value == fraction_eval(terms)
            h, _, k, _ = full_product(tuple(terms))
            assert (value.numerator, value.denominator) == (h, k)
            assert cf_expand(value).terms == tuple(terms)


def test_expand_rejects_non_rationals():
    # a bool is not coerced to an int, as in PFrac.from_fraction
    for r in (0.5, 2.0, "1/2", Decimal("0.5"), None, True, False):
        with pytest.raises(TypeError):
            cf_expand(r)


def test_expand_examples():
    assert cf_expand(5).terms == (5,)
    assert cf_expand(Fraction(7, 3)).terms == (2, 3)
    assert cf_expand(Fraction(-1, 2)).terms == (-1, 2)
    assert cf_expand(0).terms == (0,)


def test_eval_examples():
    assert cf_eval(ContinuedFraction((2, 3))) == Fraction(7, 3)
    assert cf_eval(ContinuedFraction((-4,))) == -4
    assert cf_eval(ContinuedFraction((-1, 2))) == Fraction(-1, 2)


def _assert_same_fraction(value, reference):
    """value behaves as the Fraction reference in every respect a caller
    can observe."""
    assert type(value) is Fraction
    assert (value.numerator, value.denominator) == (reference.numerator, reference.denominator)
    assert gcd(value.numerator, value.denominator) == 1 and value.denominator > 0
    assert hash(value) == hash(reference) and value == reference
    if value.denominator.bit_length() < 4096:
        # longer ints exceed the default int-to-str digit limit
        assert str(value) == str(reference) and repr(value) == repr(reference)
    assert value + 1 == reference + 1 and value - reference == 0
    assert value * 3 == reference * 3 and (value / 2, -value) == (reference / 2, -reference)
    assert value < reference + 1 and int(value) == int(reference) and floor(value) == floor(reference)
    assert Fraction(value) == reference and {value: 1} == {reference: 1}


def test_eval_values_match_fraction_without_the_gcd():
    # cf_eval builds h/k without reducing it, as gcd(h, k) = 1; the values
    # are indistinguishable from Fraction(h, k)
    cases = [(2, 3), (-4,), (-1, 2), (0,), (1,), (0, 2), (-3, 1, 2)]
    cases += [cf_expand(r).terms for r in random_rationals()]
    for terms in cases:
        _assert_same_fraction(cf_eval(terms), fraction_eval(terms))


def test_validate_examples():
    assert cf_validate([2, 3])
    assert not cf_validate([2, 1])
    assert cf_validate([7])
    assert not cf_validate([0, 0, 2])
    assert not cf_validate([1, -3])
    with pytest.raises(ValueError):
        cf_validate([])


def three_pass_validate(terms):
    """The list copy and two generator passes cf_validate replaced: the oracle
    for its one-pass loop."""
    terms = list(terms)
    if not terms:
        raise ValueError("a continued fraction has at least one term")
    if any(type(k) is not int for k in terms):
        return False
    if any(k < 1 for k in terms[1:]):
        return False
    if len(terms) >= 2 and terms[-1] == 1:
        return False
    return True


def test_validate_matches_the_three_pass_oracle_exhaustively():
    entries = (-2, -1, 0, 1, 2, 3, True, False, 1.0, 2.5, "1", "2")
    count = 0
    for n in range(1, 5):
        for terms in itertools.product(entries, repeat=n):
            expected = three_pass_validate(terms)
            assert cf_validate(terms) is expected, terms
            assert cf_validate(list(terms)) is expected, terms
            assert cf_validate(iter(terms)) is expected, terms
            count += 1
    assert count == sum(len(entries) ** n for n in range(1, 5))
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError):
            cf_validate(empty)


def test_eval_rejects_invalid_lists():
    with pytest.raises(ValueError):
        cf_eval([2, 1])
    with pytest.raises(ValueError):
        cf_eval([2, 0, 2])
    for terms in ([1, 2.9], ["3", 2], [2.0]):
        with pytest.raises(ValueError):
            cf_eval(terms)


def test_constructor_rejects_invalid_terms():
    with pytest.raises(ValueError):
        ContinuedFraction((2, 1))
    with pytest.raises(ValueError):
        ContinuedFraction(())
    for terms in ((1, 2.5), (1, 2.9), ("3", 2), (2.0,), (1, "2"), (True, 2)):
        with pytest.raises(ValueError):
            ContinuedFraction(terms)
    # a PFrac is a pair on tuple, but a point, not the term list (p, q)
    for make in (ContinuedFraction, cf_eval):
        with pytest.raises(TypeError):
            make(pf_new(3, 7))


def test_round_trip_small_grid():
    for k1 in range(-6, 7):
        assert cf_expand(cf_eval(ContinuedFraction((k1,)))).terms == (k1,)
        for kn in range(2, 7):
            cf = ContinuedFraction((k1, kn))
            assert cf_expand(cf_eval(cf)) == cf
            for k2 in range(1, 7):
                cf = ContinuedFraction((k1, k2, kn))
                assert cf_expand(cf_eval(cf)) == cf


def test_round_trip_rationals_exhaustive():
    for q in range(1, 61):
        for p in range(-60, 61):
            if gcd(abs(p), q) == 1:
                r = Fraction(p, q)
                assert cf_eval(cf_expand(r)) == r


@settings(max_examples=300, derandomize=True)
@given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9))
def test_round_trip_rationals_random(r):
    assert cf_eval(cf_expand(r)) == r


term_lists = st.integers(min_value=-50, max_value=50).flatmap(
    lambda k1: st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=7).map(
        lambda middle: (k1, *middle)
    )
).map(lambda terms: terms if len(terms) == 1 or terms[-1] > 1 else terms + (2,))


@settings(max_examples=300, derandomize=True)
@given(term_lists)
def test_round_trip_terms_random(terms):
    cf = ContinuedFraction(terms)
    assert cf_expand(cf_eval(cf)) == cf


def test_expansion_terminates_on_fibonacci_ratios():
    a, b = 1, 1
    for _ in range(40):
        a, b = b, a + b
    # the worst case for the Euclidean descent still meets the step budget
    cf = cf_expand(Fraction(b, a))
    assert cf_eval(cf) == Fraction(b, a)
    assert len(cf) <= 2 * a.bit_length() + 2


def test_parse_and_str():
    assert str(ContinuedFraction((2, 3))) == "[2;3]"
    assert str(ContinuedFraction((-7,))) == "[-7]"
    assert ContinuedFraction.parse("[2;3]") == ContinuedFraction((2, 3))
    assert ContinuedFraction.parse("[ -1 ; 2, 5 ]") == ContinuedFraction((-1, 2, 5))
    assert ContinuedFraction.parse("[4]") == ContinuedFraction((4,))
    with pytest.raises(ValueError):
        ContinuedFraction.parse("2;3")
    with pytest.raises(ValueError):
        ContinuedFraction.parse("[2;]")
