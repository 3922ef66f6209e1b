"""Exact arithmetic in the three-strand braid group B3 = <a, b | aba = bab>.

Each element is stored in one canonical form, Delta^d w (Garside 1969):
Delta = aba = bab and w is a positive word containing no aba or bab.
Equality, hashing, the exponent sum and the printed word all read (d, w).

Equality is also decided by a second, independent route over the integers:
the Burau representation at t = -1,

    a -> [[1, 1], [0, 1]]        b -> [[1, 0], [-1, 1]]

computed from (d, w) on first use, together with the exponent sum.  This
map sends B3 onto SL(2, Z) with kernel <Delta^4> (Milnor 1971; Kassel-Turaev,
Braid Groups, 2008), and eps(Delta^4) = 12, so two braids with equal images
and equal exponent sums differ by Delta^(4k) with 12k = 0: they are equal.
The test suite checks the canonical form against the product of these
matrices over raw input words.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable

from ._trusted import _trusted


# ---------------------------------------------------------------------------
# braid elements in Garside form
# ---------------------------------------------------------------------------
#
# Every element is Delta^d w, with Delta = aba = bab and w a positive word
# over {a, b} containing no aba or bab (Garside 1969).  Positive words are
# equal exactly when one rewrites to the other by aba <-> bab, so w is the
# only positive spelling of its element and is not divisible by Delta;
# hence (d, w) is unique.  Delta u = tau(u) Delta, where tau swaps a and b.

_TAU = str.maketrans("ab", "ba")
# Delta^k at t = -1 for k mod 4: Delta -> [[0, 1], [-1, 0]], Delta^2 -> -I
_DELTA_POWERS = ((1, 0, 0, 1), (0, 1, -1, 0), (-1, 0, 0, -1), (0, -1, 1, 0))
# x^-1 = Delta^-1 x y; "D" stands for Delta^-1
_EXPAND = str.maketrans({"A": "Dab", "B": "Dba"})
_GEN_TO_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}
# Delta^-1 s = (s*)^-1 for a simple factor s with s s* = Delta, as text
_CANCEL = {"a": "AB", "b": "BA", "ab": "A", "ba": "B"}


def _times(d: int, w: str, letters: str) -> "BraidElement":
    """Delta^d w times `letters` (a, b and D = Delta^-1), in Garside form.

    Only the last two letters can complete an aba or bab; that Delta then
    moves left past the rest.  The letters kept are tau^flip of the true
    ones, so each move flips a bit instead of rewriting them."""
    out = list(w)
    flip = False
    for c in letters:
        if c == "D":
            d -= 1
            flip = not flip
            continue
        if flip:
            c = "b" if c == "a" else "a"
        if len(out) > 1 and out[-2] == c != out[-1]:
            del out[-2:]
            d += 1
            flip = not flip
        else:
            out.append(c)
    w = "".join(out)
    return _trusted(BraidElement, d=d, w=w.translate(_TAU) if flip else w)


@dataclass(frozen=True)
class BraidElement:
    """The braid Delta^d w in Garside form; build it with parse, from_word
    or the group operations.  BraidElement(d, w) checks that w is a
    positive word free of aba and bab.  Equality and hashing compare (d, w)."""

    d: int
    w: str

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise ValueError(f"the power of Delta must be an int, got {self.d!r}")
        w = self.w
        if type(w) is not str or w.strip("ab") or "aba" in w or "bab" in w:
            raise ValueError(f"{w!r} is not a positive word free of aba and bab")

    @classmethod
    def from_word(cls, word: Iterable[int]) -> "BraidElement":
        try:
            text = "".join(_GEN_TO_LETTER[g] for g in word)
        except KeyError as exc:
            raise ValueError(f"illegal generator {exc.args[0]}") from None
        return _times(0, "", text.translate(_EXPAND))

    @classmethod
    def parse(cls, text: str) -> "BraidElement":
        bad = next((ch for ch in text if ch not in "abAB"), None)
        if bad is not None:
            raise ValueError(f"illegal braid letter {bad!r}")
        return _times(0, "", text.translate(_EXPAND))

    @classmethod
    def identity(cls) -> "BraidElement":
        return _trusted(cls, d=0, w="")

    @property
    def eps(self) -> int:
        """Exponent sum: the image under the homomorphism sending every
        generator to 1."""
        return 3 * self.d + len(self.w)

    @functools.cached_property
    def image(self) -> tuple[int, int, int, int]:
        """The Burau image at t = -1 as [[p, q], [r, s]]: Delta^(d mod 4)
        from the table, then one column add per letter of w."""
        p, q, r, s = _DELTA_POWERS[self.d % 4]
        for c in self.w:
            if c == "a":  # [[p, q], [r, s]] [[1, 1], [0, 1]]
                q += p
                s += r
            else:  # [[p, q], [r, s]] [[1, 0], [-1, 1]]
                p -= q
                r -= s
        return p, q, r, s

    def __mul__(self, other: "BraidElement") -> "BraidElement":
        # Delta^d w Delta^e v = Delta^(d+e) tau^e(w) v
        w = self.w.translate(_TAU) if other.d % 2 else self.w
        return _times(self.d + other.d, w, other.w)

    def inv(self) -> "BraidElement":
        # (Delta^d w)^-1 = w^-1 Delta^-d = Delta^-d tau^d(w)^-1
        w = self.w.translate(_TAU) if self.d % 2 else self.w
        return _times(-self.d, "", w[::-1].upper().translate(_EXPAND))

    def __pow__(self, k: int) -> "BraidElement":
        if k < 0:
            return self.inv() ** (-k)
        out, square = BraidElement.identity(), self
        while k:
            if k & 1:
                out = out * square
            k >>= 1
            if k:
                square = square * square
        return out

    def render(self) -> str:
        """The symmetric form N^-1 P: Delta^-k cancels against the first k
        simple factors s_i of w, as Delta^-k s_1 ... s_k is the product of
        Delta^-1 tau^(k-i)(s_i) and Delta^-1 s = (s*)^-1; a Delta left over
        prints as aba or ABA."""
        if self.d >= 0:
            return "aba" * self.d + self.w
        factors = re.findall("ab?|ba?", self.w)
        m = min(-self.d, len(factors))
        neg = "".join(_CANCEL[s.translate(_TAU) if (m - 1 - i) % 2 else s]
                      for i, s in enumerate(factors[:m]))
        return "ABA" * (-self.d - m) + neg + "".join(factors[m:])

    def __str__(self) -> str:
        return self.render()


def render_braid(u: BraidElement) -> str:
    return u.render()


def braid_eq(u: BraidElement, v: BraidElement) -> bool:
    """Equality of the Burau images at t = -1 and of the exponent sums,
    which decides the word problem: the image determines a braid up to
    Delta^4, whose exponent sum is 12."""
    return u.eps == v.eps and u.image == v.image


def garside_eq(u: BraidElement, v: BraidElement) -> bool:
    """Equality of Garside forms; an independent check on braid_eq."""
    return (u.d, u.w) == (v.d, v.w)


@functools.lru_cache(maxsize=1)
def meridian() -> BraidElement:
    """The distinguished meridian m = a."""
    return BraidElement.parse("a")


@functools.lru_cache(maxsize=1)
def longitude() -> BraidElement:
    """The longitude of the trefoil, a^-4 b a a b: exponent sum zero and
    commuting with the meridian."""
    return BraidElement.parse("AAAAbaab")
