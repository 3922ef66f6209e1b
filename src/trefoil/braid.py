"""Exact arithmetic in the three-strand braid group B3 = <a, b | aba = bab>.

Each element is stored in one canonical form, Delta^d w (Garside 1969):
Delta = aba = bab and w is a positive word containing no aba or bab.
Equality, hashing, the exponent sum and the printed word all read (d, w).

Only raw input (parse) is reduced letter by letter.  The group
operations build (d, w) from the operands' forms without that loop.  An
inverse is the closed form from the complements of the simple factors of
w (El-Rifai-Morton, Quart. J. Math. 45, 1994), written in one pass over
w that splits off each factor and emits its complement; _inverse_form
gives that form alone, for callers that glue an inverse into a longer
product without building it as a braid, as the long trefoil's slot
builder (longknot._act) does with y^-1 in y^-1 x y.  A product
reduces only the junction of the two words and copies the right factor;
when the words meet on a repeated letter, or one is empty, there is
nothing to reduce and the words are joined as they are.

Equality is also decided by a second, independent route over the integers:
the Burau representation at t = -1,

    a -> [[1, 1], [0, 1]]        b -> [[1, 0], [-1, 1]]

stored with every braid as the field `image`, together with the exponent
sum.  Each way of building a braid sets the image in closed form: one
column add per letter of w for a parsed or checked braid; the product of
the factors' images for a product; the adjugate for an inverse; and,
for the first slot g'^-1 m g' of a covered-quandle operation's result,
the transvection matrix read off the bottom row of g''s image
(longknot._x_image).  This map
sends B3 onto SL(2, Z) with kernel <Delta^4> (Milnor 1971; Kassel-Turaev,
Braid Groups, 2008), and eps(Delta^4) = 12, so two braids with equal
images and equal exponent sums differ by Delta^(4k) with 12k = 0: they
are equal.  The test suite checks the canonical form against the product
of these matrices over raw input words, and the operations against the
letter-by-letter reduction.
"""

from __future__ import annotations

import functools
from dataclasses import field

from ._trusted import value_type


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


def _times(d: int, w: str, letters: str) -> tuple[int, str]:
    """Delta^d w times raw `letters` (a, b and D = Delta^-1), in Garside
    form, letter by letter; only parse needs it.

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


_Matrix = tuple[int, int, int, int]


def _matmul(x: _Matrix, y: _Matrix) -> _Matrix:
    p, q, r, s = x
    e, f, g, h = y
    return (p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)


def _image(d: int, w: str) -> _Matrix:
    """The Burau image at t = -1 of Delta^d w as [[p, q], [r, s]]:
    Delta^(d mod 4) from the table, then one column add per letter of w."""
    p, q, r, s = _DELTA_POWERS[d % 4]
    for c in w:
        if c == "a":  # [[p, q], [r, s]] [[1, 1], [0, 1]]
            q += p
            s += r
        else:  # [[p, q], [r, s]] [[1, 0], [-1, 1]]
            p -= q
            r -= s
    return p, q, r, s


def _glue(d: int, w: str, e: int, v: str) -> tuple[int, str]:
    """Delta^d w Delta^e v in Garside form, for positive words w and v free
    of aba and bab.

    Delta^e moves left first, Delta^d w Delta^e v = Delta^(d+e) tau^e(w) v,
    but tau^e(w) is never written out: a letter of tau^e(w) is compared
    with v through the parity flip, which starts at e's.  When w or v is
    empty, or tau^e(w) ends in the letter v starts with, nothing cancels:
    a repeated letter is in no aba or bab, so tau^e(w) v is returned as it
    is.  Otherwise a letter c of v cancels when tau^e(w) ends in c tau(c),
    as c tau(c) c = Delta.  A letter that does not cancel is kept; the next
    one then cancels only when tau^e(w) ends in x and the two are
    tau(x) x.  Each Delta so made moves left, swapping a and b in the rest
    of v and flipping the parity again, so the part of w left is written
    once, through tau^flip.  Once two letters of v are kept in a row, no
    later one can cancel, since v has no aba or bab: the rest of v is
    copied as it stands."""
    flip = e % 2 == 1
    if not w or not v or (w[-1] == v[0]) != flip:
        return d + e, (w.translate(_TAU) if flip else w) + v
    n, i = len(w), 0
    while i < len(v):
        c = v[i].translate(_TAU) if flip else v[i]
        if n > 1 and w[n - 2] == c != w[n - 1]:  # tau^e(w) ends in c tau(c)
            n, i = n - 2, i + 1
        elif n and w[n - 1] != c and i + 1 < len(v) and v[i + 1] != v[i]:
            n, i = n - 1, i + 2  # tau^e(w) ends in x and v goes on tau(x) x
        else:
            break
        d, flip = d + 1, not flip
    w = w[:n]
    return d + e, (w.translate(_TAU) if flip else w) + v[i:]


def _inverse_word(u: str, m: int) -> tuple[int, str]:
    """(k, X) with (s_1 ... s_k)^-1 = Delta^-k X, for the first k = min(m,
    number of factors) simple factors s_i of u, a word free of aba and bab,
    in one pass over u.

    The factors are u's maximal alternating pieces: a step takes a pair
    when the next letter differs, else a single.  s_i^-1 = ds_i Delta^-1,
    with ds_i the complement (s_i ds_i = Delta); moving each Delta^-1 to
    the front gives X = tau^k(ds_k) ... tau(ds_1).  The complement of a
    pair x tau(x) is x, and of a single x is tau(x) x, so with
    t = tau^i(first letter of s_i) the piece tau^i(ds_i) is t for a pair
    and tau(t) t for a single.  Adjacent factors meet on a repeated letter,
    so t carries from tau(u[0]): a pair keeps it, a single flips it.  The
    pieces meet on a repeated letter too, so X has no aba or bab.  Every
    factor and its piece have three letters together: the factors cover
    u[:3k - len(X)]."""
    pieces = []
    i, n = 0, len(u)
    t = "b" if u[:1] == "a" else "a"
    while i < n and m:
        if i + 1 < n and u[i] != u[i + 1]:
            pieces.append(t)
            i += 2
        elif t == "a":
            pieces.append("ba")
            t, i = "b", i + 1
        else:
            pieces.append("ab")
            t, i = "a", i + 1
        m -= 1
    pieces.reverse()
    return len(pieces), "".join(pieces)


def _inverse_form(d: int, w: str) -> tuple[int, str]:
    """The Garside form of (Delta^d w)^-1 = Delta^-d u^-1, with
    u = tau^d(w) = s_1 ... s_k in simple factors: one pass over u
    (_inverse_word) gives u^-1 = Delta^-k X, so the form is (-d - k, X)."""
    u = w.translate(_TAU) if d % 2 else w
    k, x = _inverse_word(u, len(u))
    return -d - k, x


@value_type
class BraidElement:
    """The braid Delta^d w in Garside form; build it with parse or the
    group operations.  BraidElement(d, w) checks that w is a positive word
    free of aba and bab.  Equality and hashing compare (d, w);
    image, the Burau image at t = -1 as (p, q, r, s) = [[p, q], [r, s]], is
    set with them."""

    d: int
    w: str
    image: tuple[int, int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise ValueError(f"the power of Delta must be an int, got {self.d!r}")
        w = self.w
        if type(w) is not str or w.strip("ab") or "aba" in w or "bab" in w:
            raise ValueError(f"{w!r} is not a positive word free of aba and bab")
        object.__setattr__(self, "image", _image(self.d, w))

    @classmethod
    def parse(cls, text: str) -> "BraidElement":
        bad = next((ch for ch in text if ch not in "abAB"), None)
        if bad is not None:
            raise ValueError(f"illegal braid letter {bad!r}")
        d, w = _times(0, "", text.translate(_EXPAND))
        return cls._trusted(d, w, _image(d, w))

    @classmethod
    def identity(cls) -> "BraidElement":
        return cls._trusted(0, "", (1, 0, 0, 1))

    @property
    def eps(self) -> int:
        """Exponent sum: the image under the homomorphism sending every
        generator to 1."""
        return 3 * self.d + len(self.w)

    def __mul__(self, other: "BraidElement") -> "BraidElement":
        d, w = _glue(self.d, self.w, other.d, other.w)
        return BraidElement._trusted(d, w, _matmul(self.image, other.image))

    def inv(self) -> "BraidElement":
        """The Garside form from _inverse_form; the inverse of a
        determinant-one image is its adjugate."""
        d, w = _inverse_form(self.d, self.w)
        p, q, r, s = self.image
        return BraidElement._trusted(d, w, (s, -q, -r, p))

    def __pow__(self, k: int) -> "BraidElement":
        if type(k) is not int:
            raise ValueError(f"the power of a braid must be an int, got {k!r}")
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
        """The symmetric form N^-1 P: Delta^-m cancels against the first
        m = min(-d, number of factors) simple factors s_i of w.  One pass
        over them (_inverse_word) gives P_m^-1 = Delta^-m X for
        P_m = s_1 ... s_m, so Delta^-m P_m = (P_m^-1 Delta^m)^-1
        = tau^m(X)^-1, and the rest of w follows as it stands; a Delta
        left over prints as aba or ABA."""
        if self.d >= 0:
            return "aba" * self.d + self.w
        m, x = _inverse_word(self.w, -self.d)
        neg = (x.translate(_TAU) if m % 2 else x)[::-1].upper()
        return "ABA" * (-self.d - m) + neg + self.w[3 * m - len(x):]

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


def longitude_power(k: int) -> BraidElement:
    """lambda^k in closed form.  lambda = Delta^2 a^-6 with Delta^2 central,
    so lambda^k = Delta^2k a^-6k: Delta^-4k (baab)^3k for k >= 0, as
    a^-1 = Delta^-1 ab and the Delta^-1 moves left by swapping a and b, and
    Delta^2k a^6|k| for k < 0.  Its image is (-1)^k [[1, -6k], [0, 1]]."""
    if type(k) is not int:
        raise ValueError(f"the power of the longitude must be an int, got {k!r}")
    sign = -1 if k % 2 else 1
    image = (sign, -6 * k * sign, 0, sign)
    if k >= 0:
        return BraidElement._trusted(-4 * k, "baab" * (3 * k), image)
    return BraidElement._trusted(2 * k, "a" * (-6 * k), image)
