"""The covering quandle of the long trefoil: pairs (x, g') with g' in the
commutator subgroup of B3 and x = m^{g'} the corresponding meridian
conjugate.

g' is the source of truth.  The public constructor checks eps(g') = 0 and
sets x = g'^-1 m g'; every operation sets both slots in closed form, and
equality compares the Garside forms of the second slots.  The quandle
operations are

    (x, g') *  (y, h') = (y^-1 x y, g' x^-1 y) = (y^-1 x y, m^-1 g' y)
    (x, g') *̄ (y, h') = (y x y^-1, g' x y^-1) = (y x y^-1, m g' y^-1)

since g' x^-1 = m^-1 g' and g' x = m g'.  Both are pi1_act's action

    (x, g')^r = (r^-1 x r, m^s g' r),    s = -eps(r),

by r = y and by r = y^-1, and the three share one slot builder, _act,
which builds one braid per slot from the operands' parts (d, w, image):
no factor, y^-1 included, is built as a braid.  A slot's Garside form is
two junction glues (braid._glue) of its factors' forms.  The form of y^-1
comes from braid._inverse_form once per call, and *̄ uses it in both
slots; that of m^-+1 is the meridian's, and pi1_act's m^s is a^s.  On
images, M^s G adds s times G's bottom row to its top row, M = [[1, 1],
[0, 1]] being the image of m, so the second slot's image is one row
operation and one 2x2 product.  The first slot's image takes no product:
the result's x is m conjugated by its second slot, r^-1 x r =
(m^s g' r)^-1 m (m^s g' r) as m^s commutes with m, and for any
G = [[a, b], [c, d]] of determinant 1

    G^-1 M G = [[1 + cd, d^2], [-c^2, 1 - cd]]        (_x_image).

Proof: M = I + e_1 e_2^T, so G^-1 M G = I + (G^-1 e_1)(e_2^T G).  The
first column of G^-1 = [[d, -b], [-c, a]] is (d, -c), and e_2^T G is G's
bottom row (c, d), so G^-1 M G = I + (d, -c)^T (c, d), the matrix above.
It is the transvection matrix (pfrac.transvection_matrix) of the point
(d, -c), made of the row (c, d) that the covering map kappa = -c/d reads.

The constructor's x = g'^-1 m g' is two braid products, a route
independent of the slot builder.  It and the displayed forms in h',
m^-1 g' h'^-1 m h' and m g' h'^-1 m^-1 h', are checked against these
operations in the acceptance suite's table, acceptance._COVERED_ROUTES.
The longitude generates an infinite cyclic group that acts on second
slots, freely and transitively on each fibre of the covering map
(x, g') -> x.

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
from .braid import (
    BraidElement,
    _glue,
    _inverse_form,
    _matmul,
    longitude_power,
    meridian,
)

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
        object.__setattr__(self, "x", g.inv() * _M * g)

    def to_json(self) -> dict:
        return {"g_prime": self.g.render(), "x": self.x.render(), "eps": self.x.eps}

    def __str__(self) -> str:
        return f"({self.x.render() or '1'}, {self.g.render() or '1'})"


def qt_new(g: BraidElement) -> CoveredElement:
    """Build the covered element over g', which must have exponent sum zero."""
    return CoveredElement(g)


def _x_image(c: int, d: int) -> tuple[int, int, int, int]:
    """The t = -1 image of g^-1 m g for g with image [[a, b], [c, d]]:
    [[1 + cd, d^2], [-c^2, 1 - cd]], the transvection of the point
    (d, -c)."""
    cd = c * d
    return 1 + cd, d * d, -c * c, 1 - cd


def _act(p: CoveredElement, s: int, md: int, mw: str, rd: int, rw: str,
         r_image: tuple[int, int, int, int], ud: int, uw: str) -> CoveredElement:
    """p^r = (r^-1 x r, m^s g' r) for s = -eps(r), one braid per slot, from
    the Garside forms (md, mw) of m^s, (rd, rw) of r and (ud, uw) of r^-1
    and the image of r.  Each form is two junction glues; the image of
    m^s g' r is g''s with s times its bottom row added to its top row,
    times r's, and _x_image reads x's image off that image's bottom row."""
    g, x = p.g, p.x
    a, b, c, d = g.image
    image = _matmul((a + s * c, b + s * d, c, d), r_image)
    gd, gw = _glue(md, mw, g.d, g.w)
    gd, gw = _glue(gd, gw, rd, rw)
    xd, xw = _glue(ud, uw, x.d, x.w)
    xd, xw = _glue(xd, xw, rd, rw)
    return CoveredElement._trusted(BraidElement._trusted(gd, gw, image),
                                   BraidElement._trusted(xd, xw, _x_image(image[2], image[3])))


def qt_op(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') * (y, h') = (y^-1 x y, m^-1 g' y)."""
    y = q.x
    ud, uw = _inverse_form(y.d, y.w)
    return _act(p, -1, _M_INV.d, _M_INV.w, y.d, y.w, y.image, ud, uw)


def qt_op_inv(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') *̄ (y, h') = (y x y^-1, m g' y^-1)."""
    y = q.x
    ud, uw = _inverse_form(y.d, y.w)
    e, f, g, h = y.image  # y^-1's image is the adjugate
    return _act(p, 1, _M.d, _M.w, ud, uw, (h, -f, -g, e), y.d, y.w)


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
    s = -h.eps
    # m = a, so m^s is a^s, and for s < 0 the inverse of a^-s
    md, mw = (0, "a" * s) if s >= 0 else _inverse_form(0, "a" * -s)
    ud, uw = _inverse_form(h.d, h.w)
    return _act(p, s, md, mw, h.d, h.w, h.image, ud, uw)


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
