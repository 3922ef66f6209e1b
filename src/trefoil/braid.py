"""Exact arithmetic in the three-strand braid group B3 = <a, b | aba = bab>.

Each element is stored in one canonical form, Delta^d w (Garside 1969):
Delta = aba = bab and w is a positive word containing no aba or bab.
Equality, hashing, the exponent sum and the printed word all read (d, w).

Equality is also decided by a second, independent route: a faithful 2x2
matrix representation over integer Laurent polynomials,

    a -> [[-t, 1], [0, 1]]        b -> [[1, 0], [t, -t]]

computed from (d, w) on first use.  Faithfulness of this representation for
three strands is a known external fact; the test suite checks the canonical
form against the product of these matrices over raw input words.  Every
generator image has unit determinant (+-t^k), so inverses stay exact.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable over Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial, stored as the lowest exponent plus a
    coefficient tuple with nonzero outer entries (zero is (0, ()))."""

    low: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, low: int, coeffs: Sequence[int]) -> "LaurentPoly":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        shift = 0
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            shift += 1
        if not coeffs:
            return cls(0, ())
        return cls(low + shift, tuple(coeffs))

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls.make(0, [c])

    @classmethod
    def monomial(cls, c: int, exp: int) -> "LaurentPoly":
        return cls.make(exp, [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low = min(self.low, other.low)
        high = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = [0] * (high - low)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] += c
        return LaurentPoly.make(low, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return _LP_ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a):
                    out[i + j] += ca * cb
        return LaurentPoly.make(self.low + other.low, out)

    def shifted(self, exp: int, sign: int = 1) -> "LaurentPoly":
        """Multiply by sign * t^exp."""
        if self.is_zero():
            return self
        coeffs = self.coeffs if sign == 1 else tuple(-c for c in self.coeffs)
        return LaurentPoly(self.low + exp, coeffs)

    def as_unit(self) -> tuple[int, int]:
        """Decompose as sign * t^exp, or fail if not a unit monomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] in (1, -1):
            return (self.coeffs[0], self.low)
        raise ValueError(f"{self} is not a unit of Z[t, 1/t]")

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.low + i
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                sign = "-" if c < 0 else ""
                term = f"{sign}{mag}t" if e == 1 else f"{sign}{mag}t^{e}"
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text


_LP_ZERO = LaurentPoly(0, ())
_LP_ONE = LaurentPoly(0, (1,))
_LP_T = LaurentPoly(1, (1,))


@dataclass(frozen=True)
class LaurentMatrix:
    """A 2x2 matrix of integer Laurent polynomials."""

    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "LaurentMatrix":
        """Invert using the unit determinant (+-t^k for braid images)."""
        sign, exp = self.det().as_unit()
        return LaurentMatrix(
            self.d.shifted(-exp, sign),
            (-self.b).shifted(-exp, sign),
            (-self.c).shifted(-exp, sign),
            self.a.shifted(-exp, sign),
        )

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


_GEN_MATS = {
    1: LaurentMatrix(LaurentPoly.monomial(-1, 1), _LP_ONE, _LP_ZERO, _LP_ONE),
    2: LaurentMatrix(_LP_ONE, _LP_ZERO, _LP_T, LaurentPoly.monomial(-1, 1)),
}
_GEN_MATS[-1] = _GEN_MATS[1].inverse()
_GEN_MATS[-2] = _GEN_MATS[2].inverse()


# polynomials in t as coefficient lists from t^0, for building Burau images

def _add(x: list[int], y: list[int]) -> list[int]:
    if len(x) < len(y):
        x, y = y, x
    return [e + f for e, f in zip(x, y)] + x[len(y):]


def _neg_t(x: list[int]) -> list[int]:
    """-t x"""
    return [0] + [-e for e in x]


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
# x^-1 = Delta^-1 x y; "D" stands for Delta^-1
_EXPAND = str.maketrans({"A": "Dab", "B": "Dba"})
_GEN_TO_LETTER = {1: "a", -1: "A", 2: "b", -2: "B"}
# Delta^-1 s = (s*)^-1 for a simple factor s with s s* = Delta, as text
_CANCEL = {"a": "AB", "b": "BA", "ab": "A", "ba": "B"}


def _times(d: int, w: str, letters: str) -> tuple[int, str]:
    """Delta^d w times `letters` (a, b and D = Delta^-1), as (d, w) again.

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
    return d, w.translate(_TAU) if flip else w


@dataclass(frozen=True)
class BraidElement:
    """The braid Delta^d w in Garside form; build it with parse, from_word
    or the group operations.  Equality and hashing compare (d, w)."""

    d: int
    w: str

    @classmethod
    def from_word(cls, word: Iterable[int]) -> "BraidElement":
        try:
            text = "".join(_GEN_TO_LETTER[g] for g in word)
        except KeyError as exc:
            raise ValueError(f"illegal generator {exc.args[0]}") from None
        return cls(*_times(0, "", text.translate(_EXPAND)))

    @classmethod
    def parse(cls, text: str) -> "BraidElement":
        bad = next((ch for ch in text if ch not in "abAB"), None)
        if bad is not None:
            raise ValueError(f"illegal braid letter {bad!r}")
        return cls(*_times(0, "", text.translate(_EXPAND)))

    @classmethod
    def identity(cls) -> "BraidElement":
        return cls(0, "")

    @property
    def eps(self) -> int:
        """Exponent sum: the image under the homomorphism sending every
        generator to 1."""
        return 3 * self.d + len(self.w)

    @functools.cached_property
    def mat(self) -> LaurentMatrix:
        """The Burau image: Delta^2 -> t^3 I, then one shift-add per letter
        of Delta^(d mod 2) w."""
        p, q, r, s = [1], [], [], [1]
        for c in ("aba" if self.d % 2 else "") + self.w:
            if c == "a":  # [[p, q], [r, s]] [[-t, 1], [0, 1]]
                p, q, r, s = _neg_t(p), _add(p, q), _neg_t(r), _add(r, s)
            else:  # [[p, q], [r, s]] [[1, 0], [t, -t]]
                p, q, r, s = _add(p, [0] + q), _neg_t(q), _add(r, [0] + s), _neg_t(s)
        shift = 3 * (self.d // 2)
        return LaurentMatrix(*(LaurentPoly.make(shift, e) for e in (p, q, r, s)))

    def __mul__(self, other: "BraidElement") -> "BraidElement":
        # Delta^d w Delta^e v = Delta^(d+e) tau^e(w) v
        w = self.w.translate(_TAU) if other.d % 2 else self.w
        return BraidElement(*_times(self.d + other.d, w, other.w))

    def inv(self) -> "BraidElement":
        # (Delta^d w)^-1 = w^-1 Delta^-d = Delta^-d tau^d(w)^-1
        w = self.w.translate(_TAU) if self.d % 2 else self.w
        return BraidElement(*_times(-self.d, "", w[::-1].upper().translate(_EXPAND)))

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
    """Equality of Burau images, which decides the word problem."""
    return u.mat == v.mat


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
