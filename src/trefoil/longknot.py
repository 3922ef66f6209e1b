"""The covering quandle of the long trefoil: pairs (x, g') with g' in the
commutator subgroup of B3 and x = m^{g'} the corresponding meridian
conjugate.

g' is the source of truth.  The public constructor checks eps(g') = 0 and
sets x = g'^-1 m g'; every operation sets both slots in closed form, and
equality compares the Garside forms of the second slots.  The quandle
operations are

    (x, g') *  (y, h') = (y^-1 x y, g' x^-1 y) = (y^-1 x y, m^-1 g' y)
    (x, g') *̄ (y, h') = (y x y^-1, g' x y^-1) = (y x y^-1, m g' y^-1)

since g' x^-1 = m^-1 g' and g' x = m g'.  Each slot, of these, of the
constructor's x = g'^-1 m g' and of pi1_act's pair, is one three-factor
product (braid._product3): the Garside form of the first two factors is
glued straight to the third, so no intermediate braid is built, and *̄
inverts y once for both of its slots.  The displayed forms in h',
m^-1 g' h'^-1 m h' and m g' h'^-1 m^-1 h', are routes checked against these
operations in the acceptance suite's table, acceptance._COVERED_ROUTES.  The
longitude generates an infinite cyclic group that acts on second slots,
freely and transitively on each fibre of the covering map (x, g') -> x.

The deck layer needs no Garside products beyond lambda_act's one.  The
longitude is lambda = Delta^2 a^-6 with Delta^2 central, so lambda^k has a
closed Garside form (braid.longitude_power).  Its Burau image at t = -1 is
(-1)^k [[1, -6k], [0, 1]] and its exponent sum 0.  Two slots g'_1, g'_2 lie
over the same point exactly when their quotient commutes with m, which the
images decide alone: an image commuting with that of m leaves a commutator
in the kernel <Delta^4> with exponent sum 0, hence trivial.
"""

from __future__ import annotations

from dataclasses import field

from ._trusted import value_type
from .braid import BraidElement, _product3, longitude_power, meridian

_M, _M_INV = meridian(), meridian().inv()


class FiberMismatchError(ValueError):
    """The two elements lie over different meridian conjugates."""


@value_type
class CoveredElement:
    """A point (x, g') of the long-trefoil quandle.  CoveredElement(g')
    checks that g' has exponent sum zero and sets its meridian conjugate
    x = g'^-1 m g'.  g' determines x, so equality and hashing compare g'
    alone."""

    g: BraidElement
    x: BraidElement = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        g = self.g
        if not isinstance(g, BraidElement):
            raise TypeError(f"CoveredElement takes a BraidElement, not {type(g).__name__}")
        if g.eps != 0:
            raise ValueError(f"second slot must have exponent sum 0, got {g.eps}")
        object.__setattr__(self, "x", _product3(g.inv(), _M, g))

    def to_json(self) -> dict:
        return {"g_prime": self.g.render(), "x": self.x.render(), "eps": self.x.eps}

    def __str__(self) -> str:
        return f"({self.x.render() or '1'}, {self.g.render() or '1'})"


def qt_new(g: BraidElement) -> CoveredElement:
    """Build the covered element over g', which must have exponent sum zero."""
    return CoveredElement(g)


def qt_op(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') * (y, h') = (y^-1 x y, m^-1 g' y)."""
    y = q.x
    return CoveredElement._trusted(_product3(_M_INV, p.g, y), _product3(y.inv(), p.x, y))


def qt_op_inv(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') *̄ (y, h') = (y x y^-1, m g' y^-1)."""
    y = q.x
    y_inv = y.inv()
    return CoveredElement._trusted(_product3(_M, p.g, y_inv), _product3(y, p.x, y_inv))


def covering_p(p: CoveredElement) -> BraidElement:
    """The covering map onto the conjugacy class of the meridian."""
    return p.x


def lambda_act(k: int, p: CoveredElement) -> CoveredElement:
    """The deck transformation: multiply the second slot by lambda^k on the
    left; k must be an int.  The covering image is unchanged.  lambda^k
    comes in closed form, its t = -1 image included, so the one product
    never walks the 12|k| letters of lambda^k.  x is unchanged, as lambda
    commutes with m."""
    return CoveredElement._trusted(longitude_power(k) * p.g, p.x)


def pi1_act(p: CoveredElement, h: BraidElement) -> CoveredElement:
    """The group action (m^{g'}, g')^h = (m^{g'h}, m^{-eps(h)} g' h)."""
    return CoveredElement._trusted(_product3(_M ** (-h.eps), p.g, h), _product3(h.inv(), p.x, h))


def fiber_compare(p1: CoveredElement, p2: CoveredElement) -> int:
    """The unique k with g'_2 = lambda^k g'_1, for two elements of the same
    fibre, from one product of the stored t = -1 images: Q = G_2 G_1^-1,
    with G^-1 = [[d, -b], [-c, a]] for G = [[a, b], [c, d]].

    The elements lie over the same point, g'_1^-1 m g'_1 = g'_2^-1 m g'_2,
    exactly when g'_2 g'_1^-1 commutes with m, that is when Q commutes with
    [[1, 1], [0, 1]]: Q = +-[[1, t], [0, 1]].  The quotient is then lambda^k
    exactly when Q = (-1)^k [[1, -6k], [0, 1]] and the exponent sums agree,
    because the image and the exponent sum together are faithful."""
    a, b, c, d = p1.g.image
    e, f, g, h = p2.g.image
    # Q = [[e, f], [g, h]] [[d, -b], [-c, a]]; with its bottom-left entry
    # 0, det Q = 1 makes both diagonal entries equal to diag = +-1
    if g * d - h * c:
        raise FiberMismatchError("elements lie in different fibres")
    diag, top = e * d - f * c, f * a - e * b
    k = -top * diag // 6
    sign = -1 if k % 2 else 1
    if p1.g.eps == p2.g.eps and (diag, top) == (sign, -6 * k * sign):
        return k
    raise AssertionError(f"{p2.g} over the fibre of {p1.g} is not a longitude power of it")
