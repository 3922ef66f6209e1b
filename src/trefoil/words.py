"""The trefoil knot quandle as words over operator letters, with two
independent canonicalization routes.

A word is a base generator ('a' or 'b') followed by operator letters:
lowercase means the operation by that generator, uppercase its inverse.
The presentation is {a, b | a*b*a = b, b*a*b = a}.

Route one, :func:`normalize`, rewrites a word to its unique normal form
using only the presentation relations, free reduction and idempotence:
letters are appended one at a time to a normal word and the shape is
restored after each append.  Route two goes through the fraction quandle:
:func:`word_to_frac` evaluates the word at phi(a) = 0/1, phi(b) = 1/0, and
:func:`frac_to_word` reads the normal form off the continued-fraction
expansion of the image.  The two routes agreeing on arbitrary words is the
machine-checked certificate that the word quandle and the fraction quandle
are isomorphic.

Normal forms alternate positive b-blocks and inverse a-blocks:

    a * b^kn * a^-k(n-1) * ... * a^-k2 * b^k1      (n odd)
    b * a^-kn * b^k(n-1) * ... * a^-k2 * b^k1      (n even)

with k2..kn >= 1, kn > 1 for n >= 2, and k1 any integer.  The exponent
vector (k1, ..., kn) is stored directly; it coincides with the
continued-fraction terms of the word's fraction image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .cfrac import ContinuedFraction, _expand_terms, cf_validate
from .pfrac import PF_INFINITY, PF_ZERO, PFrac, pf_op, pf_op_inv

LETTERS = "abAB"

_SPECIAL_RENDER = {(): "b", (0,): "a", (1,): "ab", (-1,): "ba"}


@dataclass(frozen=True)
class QWord:
    """A raw word: base generator plus a (possibly empty) tail of operator
    letters.  No relation is applied; arbitrary words are legal."""

    base: str
    tail: str

    def __post_init__(self) -> None:
        if self.base not in ("a", "b"):
            raise ValueError(f"base generator must be 'a' or 'b', got {self.base!r}")
        for ch in self.tail:
            if ch not in LETTERS:
                raise ValueError(f"illegal operator letter {ch!r}")

    def __str__(self) -> str:
        return self.base + self.tail

    def extended(self, letters: str) -> "QWord":
        return QWord(self.base, self.tail + letters)


WordLike = Union[QWord, str]


def parse_word(text: str) -> QWord:
    """Parse the bit-exact word grammar: nonempty, first character a or b,
    remaining characters in {a, b, A, B}."""
    if not text:
        raise ValueError("empty word")
    if text[0] not in ("a", "b"):
        raise ValueError(f"word must start with a lowercase generator, got {text[0]!r}")
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
    return QWord(w.base, "".join(out))


def word_op(u: WordLike, v: WordLike) -> QWord:
    """The quandle operation at the word level: u * v appends the operator
    expansion of v (inverse tail, base, tail) to u."""
    u, v = _as_word(u), _as_word(v)
    return u.extended(_invert_letters(v.tail) + v.base + v.tail)


def word_op_inv(u: WordLike, v: WordLike) -> QWord:
    u, v = _as_word(u), _as_word(v)
    return u.extended(_invert_letters(v.tail) + v.base.upper() + v.tail)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------

def normal_form_valid(exponents: Sequence[int]) -> bool:
    """The class constraints on an exponent vector (k1, ..., kn): empty (the
    generator b), or the continued-fraction constraints of :func:`cf_validate`
    (integer terms, middle exponents positive, kn > 1 when n >= 2)."""
    return not exponents or cf_validate(exponents)


@dataclass(frozen=True)
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
        return parse_word(self.render())

    def to_continued_fraction(self) -> ContinuedFraction:
        if not self.exponents:
            raise ValueError("the generator b maps to 1/0, which has no expansion")
        return ContinuedFraction(self.exponents)


# ---------------------------------------------------------------------------
# the incremental normalizer
# ---------------------------------------------------------------------------
#
# State: the exponent vector of a normal word stored reversed, e = [kn, ...,
# k2, k1], so that every rule edits the end of the list (n = 0 is the bare
# generator b, n = 1 with k1 = 0 the bare generator a).  One letter is
# appended at a time and the normal shape restored.  Every branch below is
# one of: free reduction, idempotence x*x = x (and its inverse form), the
# presentation relations a*b*a = b / b*a*b = a and their one-step
# consequences
#
#     b a = a B,   b A = a b,   a B A = b,   a b A ... = b A A ...,
#
# or one of the three block moves for an appended a/A next to a b-block,
# each the composite of the operator-level relations
#
#     A b^s a   ->  b a^s B        (consuming the A)
#     A B^s a   ->  b A^s B        (consuming one preceding A)
#     b A^t     ->  A B^t a b
#     a B^s     ->  B A^s b a      (at the head, via idempotence)
#
# Appending b or B only adjusts k1.  The two hard cases replace the end of
# the word by a strictly shorter normal prefix and push the rest of their
# right-hand side back onto the stack of pending letters, so the loop does
# the length induction without recursing.

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
        # Only k2..k4 can be zero: they are the only entries a rule
        # decrements, and a merge of two positive blocks is positive.
        for i in range(max(1, len(e) - 4), len(e) - 1):
            if e[i] == 0:
                e[i - 1 : i + 2] = [e[i - 1] + e[i + 1]]
                break
        else:
            if e[0] != 1:
                return
            del e[0]
            e[0] += 1


def normalize(w: WordLike) -> NormalForm:
    """Rewrite a word to its unique normal form, one appended letter at a
    time, using only the presentation relations, free reduction and
    idempotence.  Total on arbitrary words."""
    w = _as_word(w)
    e = [0] if w.base == "a" else []
    # letters still to append, the next one last; a right-hand side goes
    # back on reversed
    pending = list(reversed(w.tail))
    while pending:
        ch = pending.pop()
        if not e:
            if ch == "a":
                e = [-1]  # b a = a B
            elif ch == "A":
                e = [1]  # b A = a b
            continue
        k1 = e[-1]
        if ch == "b":
            e[-1] += 1
        elif ch == "B":
            e[-1] -= 1
        elif ch == "a":
            if k1 == 0:
                # a a = a; otherwise the word ends in A and free reduction
                # shortens the a-block
                if len(e) > 1:
                    e[-2] -= 1
                    _canon(e)
            elif k1 < 0:
                # ... A B^s a -> ... b A^s B, consuming one A of the
                # k2-block (at the bare head a B^s a = a b A^s B by
                # idempotence at the base)
                if len(e) > 1:
                    e[-2] -= 1
                e[-1:] = [1, -k1, -1]
                _canon(e)
            elif len(e) == 1 and k1 == 1:
                e.clear()  # a b a = b
            else:
                # ... A b^s a -> ... b a^s B: the b becomes k1 and a^s B go
                # back on the stack; idempotence at the base supplies the
                # consumed A of a bare head
                e[-1] = 1
                if len(e) > 1:
                    e[-2] -= 1
                    _canon(e)
                pending += "B" + "a" * k1
        # from here on ch is "A"
        elif k1 > 0:
            e += [1, 0]  # a fresh a-block opens; k1 may legally be 0
            _canon(e)
        elif k1 == 0:
            if len(e) > 1:
                e[-2] += 1  # else a A = a
        elif len(e) == 1:
            e[:] = [-k1 - 1, 1]  # a B^s A = (a B A) A^(s-1) b = b A^(s-1) b
            _canon(e)
        else:
            # ... b^k3 A^k2 B^s A = ... b^(k3-1) A B^(k2+1) A^(s-1) b
            k2 = e[-2]
            del e[-2:]
            pending += "b" + "A" * (-k1 - 1) + "B" * (k2 + 1) + "AB"
    return NormalForm(tuple(reversed(e)))


# ---------------------------------------------------------------------------
# the fraction route
# ---------------------------------------------------------------------------

def word_to_frac(w: WordLike) -> PFrac:
    """Evaluate a word in the fraction quandle: the base maps to 0/1 (a) or
    1/0 (b), then each tail letter acts by * or *̄ with that generator's
    image."""
    w = _as_word(w)
    x = PF_ZERO if w.base == "a" else PF_INFINITY
    for ch in w.tail:
        y = PF_ZERO if ch in "aA" else PF_INFINITY
        x = pf_op(x, y) if ch.islower() else pf_op_inv(x, y)
    return x


def frac_to_word(x: PFrac) -> NormalForm:
    """The inverse route: 1/0 is the generator b; any finite fraction's
    normal form has the continued-fraction terms as its exponent vector.
    Euclid's terms are valid by construction, so they are checked neither
    as a ContinuedFraction nor as a NormalForm."""
    exponents = () if x.is_infinity else _expand_terms(x.p, x.q)
    nf = object.__new__(NormalForm)
    object.__setattr__(nf, "exponents", exponents)
    return nf


def words_equal(w1: WordLike, w2: WordLike) -> bool:
    """Decide equality in the quandle by comparing normal forms.  In checked
    builds the verdict is asserted against the fraction images."""
    w1, w2 = _as_word(w1), _as_word(w2)
    same = normalize(w1) == normalize(w2)
    assert same == (word_to_frac(w1) == word_to_frac(w2)), (
        f"rewriting and fraction evaluation disagree on {w1} vs {w2}"
    )
    return same


def braid_relation_holds(x: WordLike) -> bool:
    """x * a * b * a = x * b * a * b, which holds for every word."""
    x = _as_word(x)
    return words_equal(x.extended("aba"), x.extended("bab"))
