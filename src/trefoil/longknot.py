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
lambda^k has exponent sum 0 and Burau image at t = -1 equal to
(-1)^k [[1, -6k], [0, 1]], which fiber_compare reads k from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .braid import BraidElement, longitude, meridian


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
    left.  The covering image is unchanged."""
    return qt_new(longitude() ** k * p.g)


def pi1_act(p: CoveredElement, h: BraidElement) -> CoveredElement:
    """The group action (m^{g'}, g')^h = (m^{g'h}, m^{-eps(h)} g' h)."""
    m = meridian()
    return qt_new(m ** (-h.eps) * p.g * h)


def fiber_compare(p1: CoveredElement, p2: CoveredElement) -> int:
    """The unique k with g'_2 = lambda^k g'_1, for two elements of the same
    fibre, read off the top-right entry -6k (-1)^k of the t = -1 image of
    g'_2 g'_1^-1.  That quotient is lambda^k exactly when its exponent sum
    is 0 and its whole image is (-1)^k [[1, -6k], [0, 1]], because the
    image and the exponent sum together are faithful."""
    if covering_p(p1) != covering_p(p2):
        raise FiberMismatchError("elements lie in different fibres")
    diff = p2.g * p1.g.inv()
    p, q = diff.image[:2]
    k = -q * p // 6
    sign = -1 if k % 2 else 1
    if diff.eps == 0 and diff.image == (sign, -6 * k * sign, 0, sign):
        return k
    raise AssertionError(f"{diff} over one fibre is not a power of the longitude")
