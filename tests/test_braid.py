import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefoil import (
    BraidElement,
    braid_eq,
    garside_eq,
    longitude,
    meridian,
    render_braid,
)
from trefoil.acceptance import random_braid_text
from trefoil.braid import _EXPAND, _TAU, _glue, _times, longitude_power

# the Burau images at t = -1 of a, a^-1, b, b^-1, as (p, q, r, s) = [[p, q], [r, s]]
_GENS = {"a": (1, 1, 0, 1), "A": (1, -1, 0, 1), "b": (1, 0, -1, 1), "B": (1, 0, 1, 1)}
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
    return raw_mat(word), sum(1 if g.islower() else -1 for g in word)


def random_word(rng, lo, hi):
    return "".join(rng.choice("aAbB") for _ in range(rng.randint(lo, hi)))


def loop_inv(u):
    """The inverse letter by letter, the oracle for inv:
    (Delta^d w)^-1 = Delta^-d tau^d(w)^-1, each inverse letter written as
    x^-1 = Delta^-1 x y and the whole reduced by the raw-input loop."""
    w = u.w.translate(_TAU) if u.d % 2 else u.w
    return BraidElement(*_times(-u.d, "", w[::-1].upper().translate(_EXPAND)))


def loop_mul(u, v):
    """The product letter by letter, the oracle for *: every letter of v is
    appended to Delta^(d+e) tau^e(w) by the raw-input loop."""
    w = u.w.translate(_TAU) if v.d % 2 else u.w
    return BraidElement(*_times(u.d + v.d, w, v.w))


def assert_same(got, want):
    """Equal Garside forms, and the image set by the operation equal to the
    one the checked constructor folds from the oracle's (d, w)."""
    assert (got.d, got.w, got.image) == (want.d, want.w, want.image)


def inverted_text(text):
    return text[::-1].swapcase()


def test_generator_matrices_are_as_specified():
    assert BraidElement.parse("a").image == (1, 1, 0, 1)
    assert BraidElement.parse("b").image == (1, 0, -1, 1)
    assert BraidElement.parse("aba").image == (0, 1, -1, 0)
    for k, want in ((2, (-1, 0, 0, -1)), (3, (0, -1, 1, 0)), (4, _IDENTITY)):
        assert BraidElement.parse("aba" * k).image == want
        assert BraidElement.parse("ABA" * k).image == raw_mat("ABA" * k)


def test_generator_inverses():
    for g in "ab":
        assert _matmul(_GENS[g], _GENS[g.upper()]) == _IDENTITY
        assert BraidElement.parse(g.upper()).image == _GENS[g.upper()]
        assert BraidElement.parse(g + g.upper()).image == _IDENTITY


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
        u = BraidElement.parse(random_word(rng, 0, 10))
        assert braid_eq(u * u.inv(), BraidElement.identity())
        assert braid_eq(u.inv() * u, BraidElement.identity())
    assert not braid_eq(BraidElement.parse("a"), BraidElement.parse("b"))


def test_determinant_one_and_exponent_sum():
    rng = random.Random(22)
    for _ in range(50):
        word = random_word(rng, 0, 10)
        u = BraidElement.parse(word)
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
        u = BraidElement.parse(random_word(rng, 0, 8))
        v = BraidElement.parse(random_word(rng, 0, 8))
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
        u = BraidElement.parse(word)
        return u.d, u.w

    assert form("") == (0, "")
    assert form("aA") == (0, "")
    assert form("aba") == form("bab") == (1, "")
    assert form("A") == (-1, "ab")


def test_garside_matches_matrix_oracle_exhaustively():
    words = [""]
    for length in range(1, 6):
        words.extend(map("".join, itertools.product("aAbB", repeat=length)))
    by_matrix: dict = {}
    by_garside: dict = {}
    for w in words:
        u = BraidElement.parse(w)
        by_matrix.setdefault(raw_key(w), set()).add(w)
        by_garside.setdefault((u.d, u.w), set()).add(w)
    partition_matrix = sorted(frozenset(v) for v in by_matrix.values())
    partition_garside = sorted(frozenset(v) for v in by_garside.values())
    assert partition_matrix == partition_garside


def test_garside_matches_matrix_oracle_random_length_8():
    rng = random.Random(24)
    for _ in range(1500):
        wu, wv = random_word(rng, 0, 8), random_word(rng, 0, 8)
        u, v = BraidElement.parse(wu), BraidElement.parse(wv)
        equal = raw_key(wu) == raw_key(wv)
        assert garside_eq(u, v) == equal
        assert braid_eq(u, v) == equal


def test_matrix_of_garside_form_matches_raw_word_product():
    rng = random.Random(25)
    for _ in range(40):
        text = "".join(rng.choice("abAB") for _ in range(rng.randint(100, 500)))
        assert BraidElement.parse(text).image == raw_mat(text)


def test_braid_powers():
    a = BraidElement.parse("a")
    assert braid_eq(a ** 3, BraidElement.parse("aaa"))
    assert braid_eq(a ** -2, BraidElement.parse("AA"))
    assert braid_eq(a ** 0, BraidElement.identity())
    # a bool is not taken as 1, and a float fails before the loop
    for k in (True, 2.0):
        with pytest.raises(ValueError, match="must be an int"):
            a ** k
    rng = random.Random(26)
    for _ in range(20):
        u = BraidElement.parse(random_word(rng, 0, 10))
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


def test_built_images_match_raw_word_products():
    # products, inverses and powers set their images in closed form, from
    # the operands' images; each must be the product over the raw word
    rng = random.Random(27)
    for _ in range(200):
        wu, wv = random_word(rng, 0, 12), random_word(rng, 0, 12)
        u, v = BraidElement.parse(wu), BraidElement.parse(wv)
        inv_u, inv_v = inverted_text(wu), inverted_text(wv)
        k = rng.randint(-6, 6)
        assert (u * v).image == raw_mat(wu + wv)
        assert u.inv().image == raw_mat(inv_u)
        assert (u ** k).image == raw_mat((wu if k >= 0 else inv_u) * abs(k))
        assert (u * v.inv() * u).image == raw_mat(wu + inv_v + wu)
    assert BraidElement.identity().image == _IDENTITY


def test_longitude_power_is_the_power_of_the_longitude():
    word = "AAAAbaab"
    for k in range(-9, 10):
        power = longitude_power(k)
        assert power == longitude() ** k
        assert power.image == raw_mat((word if k >= 0 else inverted_text(word)) * abs(k))
    for k in (True, 1.0, "1"):
        with pytest.raises(ValueError):
            longitude_power(k)


def test_inverse_and_product_match_the_letter_loop_exhaustively():
    # every braid of word length <= 8 is inverted, and every product of two
    # braids whose shortest words have at most 8 letters together is formed
    by_length = [[BraidElement.identity()]]
    seen = set(by_length[0])
    for n in range(1, 9):
        fresh = {u for word in itertools.product("abAB", repeat=n)
                 if (u := BraidElement.parse("".join(word))) not in seen}
        seen |= fresh
        by_length.append(sorted(fresh, key=lambda u: (u.d, u.w)))
    assert [len(layer) for layer in by_length] == [1, 4, 12, 30, 68, 148, 314, 656, 1356]
    for u in seen:
        assert_same(u.inv(), loop_inv(u))
    products = 0
    for i, left in enumerate(by_length):
        right = [v for layer in by_length[:9 - i] for v in layer]
        for u in left:
            for v in right:
                assert_same(u * v, loop_mul(u, v))
            products += len(right)
    assert products == 47085


def test_inverse_and_product_match_the_letter_loop_on_long_random_braids():
    # words of up to 200 letters, shifted by Delta^j for both parities of d
    rng = random.Random(28)
    deltas = [BraidElement(j, "") for j in range(-3, 4)]
    braids = deltas + [BraidElement.identity()]
    for _ in range(300):
        u = BraidElement.parse(random_braid_text(rng, 200))
        braids += [u, rng.choice(deltas) * u, u * rng.choice(deltas)]
    assert {u.d % 2 for u in braids} == {0, 1}
    for u in braids:
        assert_same(u.inv(), loop_inv(u))
        assert_same(u * u.inv(), BraidElement.identity())
    for _ in range(3000):
        u, v = rng.choice(braids), rng.choice(braids)
        assert_same(u * v, loop_mul(u, v))


braid_texts = st.text(alphabet="abAB", max_size=60)


@settings(max_examples=300, derandomize=True)
@given(braid_texts, braid_texts, st.integers(-5, 5))
def test_inverse_and_product_match_the_letter_loop(left, right, j):
    u = BraidElement.parse(left) * BraidElement(j, "")
    v = BraidElement.parse(right)
    assert_same(u.inv(), loop_inv(u))
    assert_same(u * v, loop_mul(u, v))
    assert_same(v * u, loop_mul(v, u))
    assert_same(u.inv().inv(), u)


def test_inverse_and_product_match_the_parsed_raw_text():
    rng = random.Random(29)
    for _ in range(500):
        left, right = random_braid_text(rng, 120), random_braid_text(rng, 120)
        u, v = BraidElement.parse(left), BraidElement.parse(right)
        assert_same(u.inv(), BraidElement.parse(inverted_text(left)))
        assert_same(u * v, BraidElement.parse(left + right))
        assert_same(v.inv() * u.inv(), BraidElement.parse(inverted_text(left + right)))


def test_glue_twists_the_left_word_like_translate_then_glue():
    # every pair of words free of aba and bab of <= 6 letters, under Delta^e
    # of both parities: the twisted glue equals translating w by tau^e and
    # gluing with e = 0, and the letter loop on the translated w
    words = [""]
    for n in range(1, 7):
        words += [w for w in map("".join, itertools.product("ab", repeat=n))
                  if "aba" not in w and "bab" not in w]
    assert len(words) == 1 + 2 + 4 + 6 + 10 + 16 + 26
    cancelled = 0
    for w, v in itertools.product(words, repeat=2):
        for d, e in ((0, 0), (1, 2), (-2, 1), (3, -3)):
            twisted = w.translate(_TAU) if e % 2 else w
            got = _glue(d, w, e, v)
            assert got == _glue(d + e, twisted, 0, v) == _times(d + e, twisted, v)
            cancelled += got[0] > d + e
    assert cancelled > 2000


def test_inverse_and_render_match_the_references_at_size():
    # raw texts of 10^5 letters, shifted by Delta^j: both parities of d,
    # from a positive d ("aab") and from a negative d whose render cancels
    # Delta^d against part of w ("abAB") to one left over after all of w's
    # simple factors (-d > len(w))
    rng = random.Random(30)
    for alphabet in ("abAB", "aab"):
        text = "".join(rng.choice(alphabet) for _ in range(10**5))
        u = BraidElement.parse(text)
        for j in (0, 1, -(u.d + len(u.w)) - 2, -(u.d + len(u.w)) - 3):
            shifted = ("aba" if j > 0 else "ABA") * abs(j) + text
            v = BraidElement(j, "") * u
            assert_same(v.inv(), loop_inv(v))
            assert_same(v.inv(), BraidElement.parse(inverted_text(shifted)))
            for x in (v, v.inv()):
                shown = x.render()
                assert_same(BraidElement.parse(shown), x)
                # Delta^d cancels against the first -d simple factors of w
                # (its maximal alternating pieces); the rest of w follows
                factors = re.findall("ab?|ba?", x.w)
                positive = "".join(factors[max(-x.d, 0):])
                assert shown.lstrip("AB") == ("aba" * x.d if x.d > 0 else "") + positive
