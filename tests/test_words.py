import inspect
import itertools
import os
import random
import re
import subprocess
import sys

import pytest

import trefoil.words
from trefoil import (
    PF_INFINITY,
    PF_ZERO,
    NormalForm,
    QWord,
    braid_relation_holds,
    frac_to_word,
    free_reduce,
    normal_form_valid,
    normalize,
    parse_word,
    pf_new,
    pf_op,
    pf_op_inv,
    word_op,
    word_op_inv,
    word_to_frac,
    words_equal,
)


def random_word(rng, max_tail=30):
    return QWord(rng.choice("ab"), "".join(rng.choice("abAB") for _ in range(rng.randint(0, max_tail))))


def fold_word_to_frac(w):
    """The letter-by-letter fold through pf_op and pf_op_inv that word_to_frac
    replaced: the oracle for its integer-pair loop."""
    x = PF_ZERO if w.base == "a" else PF_INFINITY
    for ch in w.tail:
        y = PF_ZERO if ch in "aA" else PF_INFINITY
        x = pf_op(x, y) if ch.islower() else pf_op_inv(x, y)
    return x


# The block moves of normalize, as operator identities: the least block
# length each applies to, and its two sides as strings of operator letters
# for a block length s (the t of a move is its s).  The key is the name
# normalize's comments use.
BLOCK_MOVES = {
    "A B^s a -> b A^s B": (1, lambda s: ("A" + "B" * s + "a", "b" + "A" * s + "B")),
    "b b a -> A B B": (1, lambda s: ("bba", "ABB")),
    "b A^t b a -> A B^(t+2)": (1, lambda s: ("b" + "A" * s + "ba", "A" + "B" * (s + 2))),
    "b A^t B A -> A B^t": (1, lambda s: ("b" + "A" * s + "BA", "A" + "B" * s)),
    "A B^s A -> b A^(s-2) b": (2, lambda s: ("A" + "B" * s + "A", "b" + "A" * (s - 2) + "b")),
}


def test_parse_examples():
    w = parse_word("aba")
    assert (w.base, w.tail) == ("a", "ba")
    w = parse_word("bAAAbb")
    assert (w.base, w.tail) == ("b", "AAAbb")


def test_parse_errors():
    for bad in ("", "Xa", "Ab", "ax b", "a-b"):
        with pytest.raises(ValueError):
            parse_word(bad)
    for base, tail in (("A", ""), ("c", "ab"), ("a", "abx"), ("b", "-"), ("a", ["b"]), ("a", None)):
        with pytest.raises(ValueError):
            QWord(base, tail)
    for letters in ("x", "abAc", "a b", ["a"]):
        with pytest.raises(ValueError):
            parse_word("ab").extended(letters)


def test_render_parse_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        w = random_word(rng)
        assert parse_word(str(w)) == w


def test_free_reduce_examples():
    assert str(free_reduce("abB")) == "a"
    assert str(free_reduce("aAa")) == "a"
    assert str(free_reduce("ab")) == "ab"
    assert str(free_reduce("abBAab")) == "ab"


def test_free_reduce_preserves_image():
    rng = random.Random(2)
    for _ in range(200):
        w = random_word(rng)
        assert word_to_frac(free_reduce(w)) == word_to_frac(w)


def test_normalize_presentation_relations():
    assert normalize("aba").render() == "b"
    assert normalize("bab").render() == "a"
    assert normalize("abA").render() == "bAA"


def test_normalize_specials():
    assert normalize("a").render() == "a"
    assert normalize("b").render() == "b"
    assert normalize("ab").render() == "ab"
    assert normalize("ba").render() == "ba"
    # b*a and a*̄b are the same element; the printer prefers the short class
    assert normalize("aB").render() == "ba"
    assert words_equal("aB", "ba")


def test_normalize_is_idempotent():
    rng = random.Random(3)
    for _ in range(300):
        w = random_word(rng)
        nf = normalize(w)
        assert normalize(nf.to_word()) == nf


def test_normalize_soundness_and_completeness():
    rng = random.Random(4)
    for _ in range(400):
        w = random_word(rng)
        image = word_to_frac(w)
        nf = normalize(w)
        assert word_to_frac(nf.to_word()) == image
        assert frac_to_word(image) == nf
        assert normal_form_valid(nf.exponents)


def test_normalize_matches_fraction_route_exhaustively():
    count = 0
    for n in range(8):
        for letters in itertools.product("abAB", repeat=n):
            for base in "ab":
                w = QWord(base, "".join(letters))
                image = word_to_frac(w)
                assert image == fold_word_to_frac(w), w
                assert normalize(w) == frac_to_word(image), w
                count += 1
    assert count == 43_690


def test_normalize_matches_fraction_route_on_random_words():
    rng = random.Random(12)
    for _ in range(10_000):
        w = QWord(rng.choice("ab"), "".join(rng.choices("abAB", k=rng.randint(0, 1000))))
        assert normalize(w) == frac_to_word(word_to_frac(w)), w


def test_normalize_long_words():
    # a normalizer doing more than O(1) work per letter is slow here
    rng = random.Random(8)
    for _ in range(2):
        w = QWord(rng.choice("ab"), "".join(rng.choices("abAB", k=100_000)))
        assert normalize(w) == frac_to_word(word_to_frac(w))


@pytest.mark.parametrize("name", sorted(BLOCK_MOVES))
def test_block_moves_are_operator_identities(name):
    rng = random.Random(13)
    prefixes = [QWord("a", ""), QWord("b", "")] + [random_word(rng, 12) for _ in range(8)]
    least, sides = BLOCK_MOVES[name]
    for s in range(least, 51):
        lhs, rhs = sides(s)
        for x in prefixes:
            assert word_to_frac(x.extended(lhs)) == word_to_frac(x.extended(rhs)), (name, s, x)


def test_normalize_names_only_verified_block_moves():
    source = inspect.getsource(trefoil.words.normalize)
    named = set(re.findall(r"# move: (.+?)(?:,|$)", source, re.M))
    assert named == set(BLOCK_MOVES)


def test_word_to_frac_matches_the_pf_op_fold_on_random_words():
    rng = random.Random(14)
    for length in (0, 1, 10, 100, 1000, 10_000):
        for _ in range(3):
            w = QWord(rng.choice("ab"), "".join(rng.choices("abAB", k=length)))
            assert word_to_frac(w) == fold_word_to_frac(w)


def test_word_to_frac_examples():
    assert word_to_frac("a") == pf_new(0, 1)
    assert word_to_frac("b") == pf_new(1, 0)
    assert word_to_frac("ab") == pf_new(1, 1)
    assert word_to_frac("ba") == pf_new(-1, 1)
    assert word_to_frac("bAAAbb") == pf_new(7, 3)


def test_frac_to_word_examples():
    assert frac_to_word(pf_new(0, 1)).render() == "a"
    assert frac_to_word(pf_new(7, 3)).render() == "bAAAbb"
    assert frac_to_word(pf_new(1, 0)).render() == "b"
    assert frac_to_word(pf_new(-1, 1)).render() == "ba"


def test_words_equal_examples():
    assert words_equal("aba", "b")
    assert not words_equal("a", "b")
    # relation (1) instance with x = a: the words share the base a
    assert words_equal("aaba", "abab")
    # "abab" and "baba" have different bases and are distinct elements
    # (they evaluate to 1/0 and 0/1 respectively)
    assert word_to_frac("abab") == pf_new(1, 0)
    assert word_to_frac("baba") == pf_new(0, 1)
    assert not words_equal("abab", "baba")


def test_words_equal_cross_check_survives_optimized_mode():
    # with the fraction route patched to give a new value on every call,
    # the two routes disagree; the check must fire under -O as well
    code = (
        "import itertools, sys\n"
        "import trefoil.words as words\n"
        "assert sys.flags.optimize == 1\n"
        "words.word_to_frac = lambda w, calls=itertools.count(): next(calls)\n"
        "try:\n"
        "    words.words_equal('ab', 'ab')\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trefoil.words.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "rewriting and fraction evaluation disagree on ab vs ab\n"


def test_braid_relation_examples():
    assert braid_relation_holds("a")
    assert braid_relation_holds("b")
    assert braid_relation_holds("bAAAbb")


def test_braid_relation_random_words():
    rng = random.Random(5)
    for _ in range(100):
        assert braid_relation_holds(random_word(rng))


def test_word_op_is_homomorphic_to_the_fraction_quandle():
    rng = random.Random(6)
    for _ in range(10_000):
        u, v = random_word(rng, 15), random_word(rng, 15)
        assert word_to_frac(word_op(u, v)) == pf_op(word_to_frac(u), word_to_frac(v))
        assert word_to_frac(word_op_inv(u, v)) == pf_op_inv(word_to_frac(u), word_to_frac(v))


def test_normal_form_validity_predicate():
    assert normal_form_valid(())
    assert normal_form_valid((0,))
    assert normal_form_valid((-5,))
    assert normal_form_valid((2, 3))
    assert not normal_form_valid((2, 1))     # kn = 1 needs n = 1
    assert not normal_form_valid((1, 0, 2))  # middle exponent must be positive
    assert not normal_form_valid((1, -2, 3))
    assert not normal_form_valid((True, 2))   # terms are ints, not bools,
    assert not normal_form_valid((1, 2.9))    # floats
    assert not normal_form_valid(("3",))      # or strings


def test_normal_form_constructor_validates():
    with pytest.raises(ValueError):
        NormalForm((2, 1))
    with pytest.raises(ValueError):
        NormalForm((1, 0, 2))
    for bad in ((1, 2.9), ("3",), (True, 2)):
        with pytest.raises(ValueError):
            NormalForm(bad)


def test_normal_form_render_blocks():
    assert NormalForm((2, 3)).render() == "bAAAbb"
    assert NormalForm((0, 2)).render() == "bAA"
    assert NormalForm((-2, 1, 2)).render() == "abbABB"
    assert NormalForm((3,)).render() == "abbb"
    assert NormalForm((-2,)).render() == "aBB"


def test_normal_form_base_parity():
    assert NormalForm((0,)).base == "a"
    assert NormalForm(()).base == "b"
    assert NormalForm((2, 3)).base == "b"
    assert NormalForm((-2, 1, 2)).base == "a"


def test_exponents_match_continued_fraction_terms():
    nf = normalize("bAAAbb")
    assert nf.exponents == (2, 3)
    assert nf.to_continued_fraction().terms == (2, 3)
    with pytest.raises(ValueError):
        NormalForm(()).to_continued_fraction()
