import functools
import itertools
import random

import pytest

from trefoil import (
    BraidElement,
    braid_eq,
    garside_eq,
    longitude,
    meridian,
    render_braid,
)

# the Burau images at t = -1 of a, a^-1, b, b^-1, as (p, q, r, s) = [[p, q], [r, s]]
_GENS = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}
_IDENTITY = (1, 0, 0, 1)


def _matmul(x, y):
    p, q, r, s = x
    e, f, g, h = y
    return (p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)


def raw_mat(word):
    """The product of the generator matrices over the word as given, the
    reference that never looks at the Garside form."""
    return functools.reduce(_matmul, (_GENS[g] for g in word), _IDENTITY)


def raw_key(word):
    """(raw matrix product, raw letter sum): a faithful key for B3, since
    the t = -1 image has kernel <Delta^4> and Delta^4 has exponent sum 12."""
    return raw_mat(word), sum(1 if g > 0 else -1 for g in word)


def random_word(rng, lo, hi):
    return tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(lo, hi)))


def test_generator_matrices_are_as_specified():
    assert BraidElement.parse("a").image == (1, 1, 0, 1)
    assert BraidElement.parse("b").image == (1, 0, -1, 1)
    assert BraidElement.parse("aba").image == (0, 1, -1, 0)
    for k, want in ((2, (-1, 0, 0, -1)), (3, (0, -1, 1, 0)), (4, _IDENTITY)):
        assert BraidElement.parse("aba" * k).image == want
        assert BraidElement.parse("ABA" * k).image == raw_mat((-1, -2, -1) * k)


def test_generator_inverses():
    for g in (1, 2):
        assert _matmul(_GENS[g], _GENS[-g]) == _IDENTITY
        assert BraidElement.from_word((-g,)).image == _GENS[-g]
        assert BraidElement.from_word((g, -g)).image == _IDENTITY


def test_braid_relation():
    a, b = BraidElement.parse("a"), BraidElement.parse("b")
    assert braid_eq(a * b * a, b * a * b)
    assert braid_eq(BraidElement.parse("aba"), BraidElement.parse("bab"))


def test_center_commutes_with_generators():
    a, b = BraidElement.parse("a"), BraidElement.parse("b")
    center = (a * b) ** 3
    assert braid_eq(center * a, a * center)
    assert braid_eq(center * b, b * center)


def test_group_laws():
    rng = random.Random(21)
    for _ in range(50):
        u = BraidElement.from_word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10)))
        assert braid_eq(u * u.inv(), BraidElement.identity())
        assert braid_eq(u.inv() * u, BraidElement.identity())
    assert not braid_eq(BraidElement.parse("a"), BraidElement.parse("b"))


def test_determinant_one_and_exponent_sum():
    rng = random.Random(22)
    for _ in range(50):
        word = random_word(rng, 0, 10)
        u = BraidElement.from_word(word)
        p, q, r, s = u.image
        assert p * s - q * r == 1
        assert u.eps == raw_key(word)[1]


def test_exponent_sum_examples():
    assert longitude().eps == 0
    assert BraidElement.identity().eps == 0
    assert BraidElement.parse("aaa").eps == 3
    assert meridian().eps == 1


def test_exponent_sum_additive():
    rng = random.Random(23)
    for _ in range(50):
        u = BraidElement.from_word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
        v = BraidElement.from_word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8)))
        assert (u * v).eps == u.eps + v.eps


def test_longitude_properties():
    lam, m = longitude(), meridian()
    assert lam.eps == 0
    assert braid_eq(lam * m, m * lam)
    assert not braid_eq(lam, BraidElement.identity())
    assert render_braid(lam) == "AAAAbaab"
    # equal elements print alike, however they were spelled
    assert render_braid(BraidElement.parse("abaabaAAAAAA")) == "AAAAbaab"


def test_parse_and_render():
    assert render_braid(BraidElement.parse("aAb")) == "b"
    assert render_braid(BraidElement.identity()) == ""
    with pytest.raises(ValueError):
        BraidElement.parse("axb")


def test_constructor_takes_only_garside_forms():
    # (d, w) is the unique Garside form, so equal braids compare and hash alike
    for d, w in ((0, "aba"), (0, "bab"), (2, "aabab"), (0, "abA"), (0, "x"),
                 (True, ""), (0.0, "a"), ("1", ""), (0, ["a"]), (0, b"a")):
        with pytest.raises(ValueError):
            BraidElement(d, w)
    for d, w in ((0, ""), (-3, "abbaab"), (5, "bbbaa")):
        u = BraidElement(d, w)
        assert (u.d, u.w) == (d, w)
    u = BraidElement(1, "")
    assert u == BraidElement.parse("aba") == BraidElement.parse("bab")
    assert hash(u) == hash(BraidElement.parse("aba"))


def test_garside_identity_and_delta():
    def form(word):
        u = BraidElement.from_word(word)
        return u.d, u.w

    assert form(()) == (0, "")
    assert form((1, -1)) == (0, "")
    assert form((1, 2, 1)) == form((2, 1, 2)) == (1, "")
    assert form((-1,)) == (-1, "ab")


def test_garside_matches_matrix_oracle_exhaustively():
    words = [()]
    for length in range(1, 6):
        words.extend(itertools.product((1, -1, 2, -2), repeat=length))
    by_matrix: dict = {}
    by_garside: dict = {}
    for w in words:
        u = BraidElement.from_word(w)
        by_matrix.setdefault(raw_key(w), set()).add(w)
        by_garside.setdefault((u.d, u.w), set()).add(w)
    partition_matrix = sorted(frozenset(v) for v in by_matrix.values())
    partition_garside = sorted(frozenset(v) for v in by_garside.values())
    assert partition_matrix == partition_garside


def test_garside_matches_matrix_oracle_random_length_8():
    rng = random.Random(24)
    for _ in range(1500):
        wu, wv = random_word(rng, 0, 8), random_word(rng, 0, 8)
        u, v = BraidElement.from_word(wu), BraidElement.from_word(wv)
        equal = raw_key(wu) == raw_key(wv)
        assert garside_eq(u, v) == equal
        assert braid_eq(u, v) == equal


def test_matrix_of_garside_form_matches_raw_word_product():
    rng = random.Random(25)
    for _ in range(40):
        text = "".join(rng.choice("abAB") for _ in range(rng.randint(100, 500)))
        word = [{"a": 1, "A": -1, "b": 2, "B": -2}[ch] for ch in text]
        assert BraidElement.parse(text).image == raw_mat(word)


def test_braid_powers():
    a = BraidElement.parse("a")
    assert braid_eq(a ** 3, BraidElement.parse("aaa"))
    assert braid_eq(a ** -2, BraidElement.parse("AA"))
    assert braid_eq(a ** 0, BraidElement.identity())
    rng = random.Random(26)
    for _ in range(20):
        u = BraidElement.from_word(random_word(rng, 0, 10))
        k = rng.randint(-20, 20)
        product = BraidElement.identity()
        for _ in range(abs(k)):
            product = product * (u if k > 0 else u.inv())
        assert u ** k == product


def test_braid_eq_separates_powers_of_delta():
    # Delta^4 and Delta^2 have the images I and -I, so only the exponent sum
    # separates these; no word of at most 5 letters reaches Delta^4
    powers = [BraidElement.parse(w) for w in ("aba" * 4, "aba" * 2, "ABA" * 2, "")]
    for i, u in enumerate(powers):
        for j, v in enumerate(powers):
            assert braid_eq(u, v) == (i == j)
    assert braid_eq(powers[0], BraidElement.parse("bab" * 4))
    assert braid_eq(powers[0] * powers[2], powers[1])


def test_longitude_powers_have_the_closed_form_image():
    lam, identity = longitude(), BraidElement.identity()
    for k in range(-8, 9):
        sign = (-1) ** k
        assert (lam ** k).image == (sign, -6 * k * sign, 0, sign)
        assert braid_eq(lam ** k, identity) == (k == 0)
