"""The trefoil knot quandle as words over operator letters, with two
independent canonicalization routes.

A word is a base generator ('a' or 'b') followed by operator letters:
lowercase means the operation by that generator, uppercase its inverse.
The presentation is {a, b | a*b*a = b, b*a*b = a}.

Route one, :func:`normalize`, rewrites a word to its unique normal form
using only the presentation relations, free reduction and idempotence:
letters are appended one at a time to a normal word, and each append
restores the normal shape by at most one block move, a constant number of
integer edits to the last exponents.  Route two goes through the fraction
quandle: :func:`word_to_frac` evaluates the word at phi(a) = 0/1,
phi(b) = 1/0 on a plain integer pair, and :func:`frac_to_word` reads the
normal form off the continued-fraction expansion of the image.  The two
routes agreeing on arbitrary words is the machine-checked certificate that
the word quandle and the fraction quandle are isomorphic.

Normal forms alternate positive b-blocks and inverse a-blocks:

    a * b^kn * a^-k(n-1) * ... * a^-k2 * b^k1      (n odd)
    b * a^-kn * b^k(n-1) * ... * a^-k2 * b^k1      (n even)

with k2..kn >= 1, kn > 1 for n >= 2, and k1 any integer.  The exponent
vector (k1, ..., kn) is stored directly; it coincides with the
continued-fraction terms of the word's fraction image.
"""

from __future__ import annotations

from typing import Sequence, Union

from ._trusted import value_type
from .cfrac import ContinuedFraction, cf_expand, cf_validate
from .pfrac import PFrac, _pf_signed

LETTERS = "abAB"

# the two classes the block rule does not print: b has no k1, and the rule
# would print b*a as aB
_SPECIAL_RENDER = {(): "b", (-1,): "ba"}


@value_type
class QWord:
    """A raw word: base generator plus a (possibly empty) tail of operator
    letters.  No relation is applied; arbitrary words are legal."""

    base: str
    tail: str

    def __post_init__(self) -> None:
        if self.base not in ("a", "b"):
            raise ValueError(f"base generator must be 'a' or 'b', got {self.base!r}")
        _check_letters(self.tail)

    def __str__(self) -> str:
        return self.base + self.tail

    def extended(self, letters: str) -> "QWord":
        """The word with `letters` appended; only they are checked."""
        _check_letters(letters)
        return QWord._trusted(self.base, self.tail + letters)


def _check_letters(letters: str) -> None:
    if type(letters) is not str:
        raise ValueError(f"operator letters must be a str, got {letters!r}")
    bad = letters.strip(LETTERS)  # starts at the first illegal letter
    if bad:
        raise ValueError(f"illegal operator letter {bad[0]!r}")


WordLike = Union[QWord, str]


def parse_word(text: str) -> QWord:
    """Parse the bit-exact word grammar: nonempty, first character a or b,
    remaining characters in {a, b, A, B}."""
    if not text:
        raise ValueError("empty word")
    return QWord(text[0], text[1:])


def _as_word(w: WordLike) -> QWord:
    return w if isinstance(w, QWord) else parse_word(w)


def _invert_letters(letters: str) -> str:
    return letters[::-1].swapcase()


def free_reduce(w: WordLike) -> QWord:
    """Cancel adjacent inverse operator pairs (aA, Aa, bB, Bb) in the tail.
    The base generator is untouched."""
    w = _as_word(w)
    out: list[str] = []
    for ch in w.tail:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return QWord._trusted(w.base, "".join(out))


def word_op(u: WordLike, v: WordLike) -> QWord:
    """The quandle operation at the word level: u * v appends the operator
    expansion of v (inverse tail, base, tail) to u."""
    u, v = _as_word(u), _as_word(v)
    return QWord._trusted(u.base, u.tail + _invert_letters(v.tail) + v.base + v.tail)


def word_op_inv(u: WordLike, v: WordLike) -> QWord:
    u, v = _as_word(u), _as_word(v)
    return QWord._trusted(u.base, u.tail + _invert_letters(v.tail) + v.base.upper() + v.tail)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def normal_form_valid(exponents: Sequence[int]) -> bool:
    """The class constraints on an exponent vector (k1, ..., kn): empty (the
    generator b), or the continued-fraction constraints of :func:`cf_validate`
    (integer terms, middle exponents positive, kn > 1 when n >= 2)."""
    return not exponents or cf_validate(exponents)


@value_type
class NormalForm:
    """A canonical word, stored as its exponent vector (k1, ..., kn).

    n odd means base a, n even base b.  The four short classes a, b, a*b,
    b*a print as "a", "b", "ab", "ba"; every other form prints its blocks
    letter by letter, e.g. (2, 3) -> "bAAAbb".
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exponents = tuple(self.exponents)
        if not normal_form_valid(exponents):
            raise ValueError(f"invalid normal-form exponents {list(exponents)}")
        object.__setattr__(self, "exponents", exponents)

    @property
    def base(self) -> str:
        return "a" if len(self.exponents) % 2 == 1 else "b"

    def render(self) -> str:
        special = _SPECIAL_RENDER.get(self.exponents)
        if special is not None:
            return special
        e = self.exponents
        n = len(e)
        parts = [self.base]
        for i in range(n, 1, -1):
            parts.append(("A" if i % 2 == 0 else "b") * e[i - 1])
        k1 = e[0]
        parts.append("b" * k1 if k1 >= 0 else "B" * (-k1))
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def to_word(self) -> QWord:
        text = self.render()
        return QWord._trusted(text[0], text[1:])

    def to_continued_fraction(self) -> ContinuedFraction:
        if not self.exponents:
            raise ValueError("the generator b maps to 1/0, which has no expansion")
        return ContinuedFraction._trusted(self.exponents)


# ---------------------------------------------------------------------------
# the incremental normalizer
# ---------------------------------------------------------------------------
#
# State: the exponent vector of a normal word stored reversed, e = [kn, ...,
# k2, k1], so that every edit touches the end of the list (n = 0 is the bare
# generator b, n = 1 with k1 = 0 the bare generator a).  One letter is
# appended at a time and the normal shape restored by O(1) integer edits of
# the last few entries: appending b or B adjusts k1, and an appended a or A
# applies at most one block move to whole blocks.  Each block move is an
# identity of operator words, the composite of the presentation relations,
# free reduction and idempotence, for t >= 1 and s >= 1 (s >= 2 in the
# last).  The operator form of the relations is the braid relation
# A b a = b a B, and (b a b)^2 = 1, since b a b swaps a and b:
#
#     A B^s a   ->  b A^s B          (A B a = b A B, the braid relation inverted)
#     b b a     ->  A B B            (a b b a b b = (a b a)(b a b) = 1)
#     b A^t b a ->  A B^(t+2)        (A b a -> b a B, t times, then b b a)
#     b A^t B A ->  A B^t            (b A^t = A B^t a b by the first move,
#                                     then free reduction)
#     A B^s A   ->  b A^(s-2) b      (B B A = a b b by the second move, then
#                                     the first)
#
# A move whose left side begins with a letter the word lacks borrows it from
# the base: a = a A and b = b b by idempotence.  The element relations
#
#     b a = a B,   b A = a b,   a b a = b,   a B A = b
#
# handle the bare generators.  After a move :func:`_canon` squashes the
# empty blocks and the kn = 1 head it may leave.

def _canon(e: list[int]) -> None:
    """Squash empty blocks and eliminate kn = 1 heads.

    A zero interior block merges its same-letter neighbours (free
    reduction); a zero innermost block is absorbed into the base generator
    by idempotence; a kn = 1 head is removed by a b A... = b A A... (base a)
    or b A b... = a b b... (base b), which fold the head block into its
    neighbour.
    """
    while len(e) >= 2:
        if e[0] == 0:
            del e[:2]
            continue
        # Only k2..k4 can be zero: they are the only entries a move
        # decrements or writes as s - 2, and a merge of two positive blocks
        # is positive.
        inner = e[-4:-1]
        if 0 in inner:
            i = len(e) - 1 - len(inner) + inner.index(0)
            e[i - 1 : i + 2] = [e[i - 1] + e[i + 1]]
        elif e[0] == 1:
            del e[0]
            e[0] += 1
        else:
            return


def _last_b_to(e: list[int], m: int) -> None:
    """... b^k3 A^k2 b^k1 becomes ... b^(k3-1) A B^m: the right sides of
    b A^t b a and b A^t B A, whose leading b is the last of the k3-block or,
    when there is none (base b), the base itself."""
    if len(e) > 2:
        e[-3:] = [e[-3] - 1, 1, -m]
    else:
        e[:] = [1, -m]
    _canon(e)


def normalize(w: WordLike) -> NormalForm:
    """Rewrite a word to its unique normal form, one appended letter at a
    time, each by at most one block move composed of the presentation
    relations, free reduction and idempotence.  Total on arbitrary words,
    in time linear in their length.  Every move leaves a normal exponent
    vector, so the result is built without re-running cf_validate."""
    w = _as_word(w)
    e = [0] if w.base == "a" else []
    for ch in w.tail:
        if ch == "b":
            if e:  # else b b = b
                e[-1] += 1
        elif ch == "B":
            if e:  # else b B = b
                e[-1] -= 1
        elif not e:
            e = [-1] if ch == "a" else [1]  # b a = a B, b A = a b
        elif ch == "a":
            k1 = e[-1]
            if k1 >= 2:
                e[-1:] = [k1 - 2, 1, -2]  # move: b b a -> A B B
                _canon(e)
            elif k1 == 1:
                if len(e) == 1:
                    e.clear()  # a b a = b
                else:
                    _last_b_to(e, e[-2] + 2)  # move: b A^t b a -> A B^(t+2)
            elif k1 < 0:
                # move: A B^s a -> b A^s B, the A from the k2-block or the base
                if len(e) > 1:
                    e[-2] -= 1
                e[-1:] = [1, -k1, -1]
                _canon(e)
            elif len(e) > 1:
                e[-2] -= 1  # A a: free reduction
                _canon(e)
            # else a a = a
        else:  # ch == "A"
            k1 = e[-1]
            if k1 > 0:
                e += [1, 0]  # a fresh A-block; k1 may legally be 0
                _canon(e)
            elif k1 == 0:
                if len(e) > 1:
                    e[-2] += 1  # else a A = a
            elif k1 == -1:
                if len(e) == 1:
                    e.clear()  # a B A = b
                else:
                    _last_b_to(e, e[-2])  # move: b A^t B A -> A B^t
            else:
                # move: A B^s A -> b A^(s-2) b, the A from the k2-block or
                # the base
                if len(e) > 1:
                    e[-2] -= 1
                e[-1:] = [1, -k1 - 2, 1]
                _canon(e)
    return NormalForm._trusted(tuple(reversed(e)))


# ---------------------------------------------------------------------------
# the fraction route
# ---------------------------------------------------------------------------

def word_to_frac(w: WordLike) -> PFrac:
    """Evaluate a word in the fraction quandle: the base maps to 0/1 (a) or
    1/0 (b), then each tail letter acts by * or *̄ with that generator's
    image, in closed form on the pair (p, q): * 0/1 subtracts p from q,
    *̄ 0/1 adds it, * 1/0 adds q to p and *̄ 1/0 subtracts it.  The steps
    are determinant-one maps, so the pair stays primitive and is signed once,
    at the end."""
    w = _as_word(w)
    p, q = (0, 1) if w.base == "a" else (1, 0)
    for ch in w.tail:
        if ch == "a":
            q -= p
        elif ch == "A":
            q += p
        elif ch == "b":
            p += q
        else:
            p -= q
    return _pf_signed(p, q)


def frac_to_word(x: PFrac) -> NormalForm:
    """The inverse route: 1/0 is the generator b; any finite fraction's
    normal form has the continued-fraction terms as its exponent vector."""
    exponents = cf_expand(x).terms if x.q else ()
    return NormalForm._trusted(exponents)


def words_equal(w1: WordLike, w2: WordLike) -> bool:
    """Decide equality in the quandle by comparing normal forms, and check
    the verdict against the fraction images; a disagreement raises
    AssertionError, under ``python -O`` too."""
    w1, w2 = _as_word(w1), _as_word(w2)
    same = normalize(w1) == normalize(w2)
    if same != (word_to_frac(w1) == word_to_frac(w2)):
        raise AssertionError(f"rewriting and fraction evaluation disagree on {w1} vs {w2}")
    return same


def braid_relation_holds(x: WordLike) -> bool:
    """x * a * b * a = x * b * a * b, which holds for every word."""
    x = _as_word(x)
    return words_equal(x.extended("aba"), x.extended("bab"))
