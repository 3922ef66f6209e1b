import functools
import itertools
import random

import pytest

from trefoil import (
    BraidElement,
    LaurentPoly,
    braid_eq,
    garside_eq,
    longitude,
    meridian,
    render_braid,
)
from trefoil.braid import _GEN_MATS, LaurentMatrix

_IDENTITY_MAT = LaurentMatrix(LaurentPoly.constant(1), LaurentPoly.make(0, ()),
                              LaurentPoly.make(0, ()), LaurentPoly.constant(1))


def raw_mat(word):
    """The product of the generator matrices over the word as given, the
    reference that never looks at the Garside form."""
    return functools.reduce(LaurentMatrix.__matmul__, (_GEN_MATS[g] for g in word), _IDENTITY_MAT)


def random_word(rng, lo, hi):
    return tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(lo, hi)))


def test_laurent_poly_arithmetic():
    t = LaurentPoly.monomial(1, 1)
    one = LaurentPoly.constant(1)
    assert (one + t) * (one - t) == LaurentPoly.make(0, [1, 0, -1])
    assert (t * t).low == 2
    assert t.shifted(-1) == one
    assert (-t).as_unit() == (-1, 1)
    with pytest.raises(ValueError):
        (one + t).as_unit()
    assert str(LaurentPoly.make(-1, [1, 0, -2])) == "t^-1 - 2t"
    assert str(LaurentPoly.make(0, ())) == "0"


def test_generator_matrices_are_as_specified():
    t = LaurentPoly.monomial(1, 1)
    one = LaurentPoly.constant(1)
    zero = LaurentPoly.make(0, ())
    assert _GEN_MATS[1] == LaurentMatrix(-t, one, zero, one)
    assert _GEN_MATS[2] == LaurentMatrix(one, zero, t, -t)


def test_generator_inverses():
    for g in (1, 2):
        assert _GEN_MATS[g] @ _GEN_MATS[-g] == _IDENTITY_MAT


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


def test_determinant_tracks_exponent_sum():
    rng = random.Random(22)
    for _ in range(50):
        u = BraidElement.from_word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 10)))
        sign, exp = u.mat.det().as_unit()
        assert exp == u.eps
        assert sign == (-1) ** (u.eps % 2)


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
        by_matrix.setdefault(raw_mat(w), set()).add(w)
        by_garside.setdefault((u.d, u.w), set()).add(w)
    partition_matrix = sorted(frozenset(v) for v in by_matrix.values())
    partition_garside = sorted(frozenset(v) for v in by_garside.values())
    assert partition_matrix == partition_garside


def test_garside_matches_matrix_oracle_random_length_8():
    rng = random.Random(24)
    for _ in range(1500):
        wu, wv = random_word(rng, 0, 8), random_word(rng, 0, 8)
        u, v = BraidElement.from_word(wu), BraidElement.from_word(wv)
        equal = raw_mat(wu) == raw_mat(wv)
        assert garside_eq(u, v) == equal
        assert braid_eq(u, v) == equal


def test_matrix_of_garside_form_matches_raw_word_product():
    rng = random.Random(25)
    for _ in range(40):
        text = "".join(rng.choice("abAB") for _ in range(rng.randint(100, 500)))
        word = [{"a": 1, "A": -1, "b": 2, "B": -2}[ch] for ch in text]
        assert BraidElement.parse(text).mat == raw_mat(word)


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
