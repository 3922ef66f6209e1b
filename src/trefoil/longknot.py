"""The covering quandle of the long trefoil: pairs (x, g') with g' in the
commutator subgroup of B3 and x = m^{g'} the corresponding meridian
conjugate.

g' is the source of truth; x is derived from it on demand, so the defining
constraint can never drift, and equality compares the Garside forms of the
second slots.  The quandle operations are

    (x, g') *  (y, h') = (y^-1 x y, g' x^-1 y)
    (x, g') *̄ (y, h') = (y x y^-1, m g' h'^-1 m^-1 h')

where *̄ uses the self-consistent displayed form; both operations also have
an alternative displayed form, exposed for the agreement tests.  The
infinite cyclic group generated by the longitude acts on second slots,
freely and transitively on each fibre of the covering map (x, g') -> x.

The deck layer needs no Garside products beyond lambda_act's one.  The
longitude is lambda = Delta^2 a^-6 with Delta^2 central, so lambda^k has a
closed Garside form.  Its Burau image at t = -1 is (-1)^k [[1, -6k], [0, 1]]
and its exponent sum 0.  Two slots g'_1, g'_2 lie over the same point
exactly when their quotient commutes with m, which the images decide
alone: an image commuting with that of m leaves a commutator in the
kernel <Delta^4> with exponent sum 0, hence trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._trusted import _trusted
from .braid import BraidElement, meridian


class FiberMismatchError(ValueError):
    """The two elements lie over different meridian conjugates."""


@dataclass(frozen=True)
class CoveredElement:
    """A point of the long-trefoil quandle: the exponent-zero slot g' plus
    its meridian conjugate x = g'^-1 m g', derived and cached on first use.
    g' determines x, so equality and hashing compare g' alone."""

    g: BraidElement

    @cached_property
    def x(self) -> BraidElement:
        x = self.g.inv() * meridian() * self.g
        assert x.eps == 1
        return x

    def to_json(self) -> dict:
        return {"g_prime": self.g.render(), "x": self.x.render(), "eps": self.x.eps}

    def __str__(self) -> str:
        return f"({self.x.render() or '1'}, {self.g.render() or '1'})"


def qt_new(g: BraidElement) -> CoveredElement:
    """Build the covered element over g', which must have exponent sum zero."""
    if g.eps != 0:
        raise ValueError(f"second slot must have exponent sum 0, got {g.eps}")
    return CoveredElement(g)


def qt_op(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') * (y, h') = (x^y, g' x^-1 y)."""
    return qt_new(p.g * p.x.inv() * q.x)


def qt_op_inv(p: CoveredElement, q: CoveredElement) -> CoveredElement:
    """(x, g') *̄ (y, h') = (x^(y^-1), m g' h'^-1 m^-1 h')."""
    m = meridian()
    return qt_new(m * p.g * q.g.inv() * m.inv() * q.g)


def qt_op_second_slot_forms(p: CoveredElement, q: CoveredElement) -> tuple[BraidElement, BraidElement]:
    """Both displayed forms of the * second slot: g' x^-1 y and
    m^-1 g' h'^-1 m h'.  They must agree on valid covered elements."""
    m = meridian()
    form1 = p.g * p.x.inv() * q.x
    form2 = m.inv() * p.g * q.g.inv() * m * q.g
    return form1, form2


def qt_op_inv_second_slot_forms(p: CoveredElement, q: CoveredElement) -> tuple[BraidElement, BraidElement]:
    """Both displayed forms of the *̄ second slot: g' x y^-1 and
    m g' h'^-1 m^-1 h'."""
    m = meridian()
    form1 = p.g * p.x * q.x.inv()
    form2 = m * p.g * q.g.inv() * m.inv() * q.g
    return form1, form2


def covering_p(p: CoveredElement) -> BraidElement:
    """The covering map onto the conjugacy class of the meridian."""
    return p.x


def lambda_act(k: int, p: CoveredElement) -> CoveredElement:
    """The deck transformation: multiply the second slot by lambda^k on the
    left.  The covering image is unchanged.  lambda^k = Delta^2k a^-6k is
    Delta^-4k (baab)^3k for k >= 0, as a^-1 = Delta^-1 ab and the Delta^-1
    moves left by swapping a and b, and Delta^2k a^6|k| for k < 0."""
    if k >= 0:
        power = _trusted(BraidElement, d=-4 * k, w="baab" * (3 * k))
    else:
        power = _trusted(BraidElement, d=2 * k, w="a" * (-6 * k))
    return qt_new(power * p.g)


def pi1_act(p: CoveredElement, h: BraidElement) -> CoveredElement:
    """The group action (m^{g'}, g')^h = (m^{g'h}, m^{-eps(h)} g' h)."""
    m = meridian()
    return qt_new(m ** (-h.eps) * p.g * h)


def fiber_compare(p1: CoveredElement, p2: CoveredElement) -> int:
    """The unique k with g'_2 = lambda^k g'_1, for two elements of the same
    fibre, from one product of the cached t = -1 images: Q = G_2 G_1^-1,
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
