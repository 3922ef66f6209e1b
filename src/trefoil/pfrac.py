"""The quandle of fractions Q ∪ {1/0} under the transvection operation,
the symplectic operation on Z⊕Z it projects from, and the matching
PSL(2, Z) matrices.

A point is a ±-projective primitive integer pair (p, q), canonically signed
so that q > 0, or q = 0 and p = 1.  All arithmetic is exact on unbounded
integers; the transvection (a/b) * (c/d) = (a - Dc)/(b - Dd) with
D = ad - bc grows coefficients quadratically, so fixed-width integers would
silently corrupt results.

Untrusted pairs go through pf_new, which takes one gcd.  The operations
and the matrix action are determinant-one integer maps, which send
primitive pairs to primitive pairs, so their results are only signed.

orbit_bfs witnesses that 0/1 and 1/0 generate the quandle: one
breadth-first loop over a flat bytearray grid of signed integer pairs,
with the four generator steps inline in closed form and each reached
point built as a PFrac once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Union

from ._trusted import coprime_fraction, value_type

IntPair = tuple[int, int]

_FRAC_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _require_ints(*values: object) -> None:
    """Reject a bool, float or str where an int is required."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"expected ints, got {values!r}")


@value_type
class PFrac:
    """A canonical projective primitive pair: gcd(|p|, |q|) = 1 and either
    q > 0 or (q, p) = (0, 1).  The point 1/0 is infinity; 0 is 0/1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        _require_ints(self.p, self.q)
        if (self.p, self.q) == (0, 0):
            raise ValueError("the zero pair has no projective class")
        if gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"({self.p}, {self.q}) is not reduced")
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise ValueError(f"({self.p}, {self.q}) is not canonically signed")

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def to_fraction(self) -> Fraction:
        """The same rational as a Fraction; p/q is in lowest terms with
        q > 0 by the class invariant."""
        if self.is_infinity:
            raise ValueError("1/0 is not a finite rational")
        return coprime_fraction(self.p, self.q)

    def to_json(self) -> dict:
        return {"p": str(self.p), "q": str(self.q)}

    @classmethod
    def from_json(cls, data: dict) -> "PFrac":
        return pf_new(int(data["p"]), int(data["q"]))

    @classmethod
    def from_fraction(cls, r: Union[Fraction, int]) -> "PFrac":
        """A Fraction is already reduced, with a positive denominator."""
        if not (isinstance(r, Fraction) or type(r) is int):
            raise TypeError(f"from_fraction takes a Fraction or an int, not {type(r).__name__}")
        return cls._trusted(r.numerator, r.denominator)

    @classmethod
    def parse(cls, text: str) -> "PFrac":
        m = _FRAC_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a fraction: {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
        return pf_new(p, q)


def pf_new(p: int, q: int) -> PFrac:
    """Reduce and canonically sign an integer pair; the zero pair is an error."""
    _require_ints(p, q)
    if p == 0 and q == 0:
        raise ValueError("the zero pair has no projective class")
    g = gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    return _pf_signed(p, q)


def _pf_signed(p: int, q: int) -> PFrac:
    """Canonically sign a pair already known to be primitive: the image of a
    primitive pair under a determinant-one integer map is primitive, since
    the inverse map is integral too, so pf_new's gcd would be 1."""
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return PFrac._trusted(p, q)


PF_ZERO = pf_new(0, 1)
PF_INFINITY = pf_new(1, 0)


def pf_op(x: PFrac, y: PFrac) -> PFrac:
    """(a/b) * (c/d) = (a - Dc)/(b - Dd) with D = ad - bc."""
    d = x.p * y.q - x.q * y.p
    return _pf_signed(x.p - d * y.p, x.q - d * y.q)


def pf_op_inv(x: PFrac, y: PFrac) -> PFrac:
    """The inverse operation: (a/b) *̄ (c/d) = (a + Dc)/(b + Dd)."""
    d = x.p * y.q - x.q * y.p
    return _pf_signed(x.p + d * y.p, x.q + d * y.q)


def pf_op_pow(x: PFrac, y: PFrac, k: int) -> PFrac:
    """x * y^k in closed form: (p - kDs, q - kDt) for y = s/t, D = pt - sq.

    Equals k-fold application of pf_op for k > 0, of pf_op_inv for k < 0,
    and x for k = 0.
    """
    _require_ints(k)
    kd = k * (x.p * y.q - x.q * y.p)
    return _pf_signed(x.p - kd * y.p, x.q - kd * y.q)


# ---------------------------------------------------------------------------
# the symplectic operation on all of Z⊕Z
# ---------------------------------------------------------------------------

def sympl_form(x: IntPair, y: IntPair) -> int:
    """The determinant form <(a,b), (c,d)> = ad - bc."""
    return x[0] * y[1] - x[1] * y[0]


def sympl_op(x: IntPair, y: IntPair) -> IntPair:
    """(a, b) * (c, d) = (a - Dc, b - Dd); defined on every pair, including
    zero and imprimitive vectors."""
    d = sympl_form(x, y)
    return (x[0] - d * y[0], x[1] - d * y[1])


def sympl_op_inv(x: IntPair, y: IntPair) -> IntPair:
    d = sympl_form(x, y)
    return (x[0] + d * y[0], x[1] + d * y[1])


def is_primitive(x: IntPair) -> bool:
    """True when gcd(|u|, |v|) = 1 (with gcd(0, k) = |k|)."""
    return gcd(abs(x[0]), abs(x[1])) == 1


def projectivize(x: IntPair) -> PFrac:
    """The projective class of a primitive nonzero pair."""
    _require_ints(*x)
    if x == (0, 0):
        raise ValueError("the zero vector has no projective class")
    if not is_primitive(x):
        raise ValueError(f"{x} is not primitive")
    return _pf_signed(x[0], x[1])


# ---------------------------------------------------------------------------
# transvection matrices in PSL(2, Z)
# ---------------------------------------------------------------------------

@value_type
class TransvectionMatrix:
    """A determinant-one integer 2x2 matrix, compared as a class in
    PSL(2, Z): a matrix and its negation are equal."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        _require_ints(self.a, self.b, self.c, self.d)
        if self.det() != 1:
            raise ValueError(f"determinant must be 1, got {self.det()}")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def _canonical(self) -> tuple[int, int, int, int]:
        entries = (self.a, self.b, self.c, self.d)
        for x in entries:
            if x != 0:
                return entries if x > 0 else tuple(-v for v in entries)
        return entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransvectionMatrix):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def transvection_matrix(y: PFrac) -> TransvectionMatrix:
    """The matrix of *y for y = (c, d): [[1 - dc, c^2], [-d^2, 1 + dc]].

    Its determinant (1 - dc)(1 + dc) + c^2 d^2 is 1 identically.
    """
    c, d = y.p, y.q
    dc = d * c
    return TransvectionMatrix._trusted(1 - dc, c * c, -d * d, 1 + dc)


def apply_matrix(m: TransvectionMatrix, x: PFrac) -> PFrac:
    """Apply a determinant-one matrix to a projective point."""
    return _pf_signed(m.a * x.p + m.b * x.q, m.c * x.p + m.d * x.q)


# ---------------------------------------------------------------------------
# orbit exploration from the two generators
# ---------------------------------------------------------------------------

@value_type
class OrbitReport:
    """Breadth-first closure of {0/1, 1/0} under the four generator steps,
    restricted to canonical representatives with |p|, |q| <= bound."""

    bound: int
    explored: int
    witnesses: dict  # PFrac -> witness word text
    reached: dict    # target PFrac -> witness word text
    unreached: tuple
    edges: tuple     # BFS tree edges (source PFrac, letter, target PFrac)

    def all_reached(self) -> bool:
        return not self.unreached

    def to_dot(self) -> str:
        lines = ["digraph orbit {"]
        for src in sorted(self.witnesses, key=lambda f: (f.q, f.p)):
            lines.append(f'  "{src}";')
        for src, letter, dst in self.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{letter}"];')
        lines.append("}")
        return "\n".join(lines)


def orbit_bfs(targets: Iterable[PFrac], bound: int) -> OrbitReport:
    """Explore the orbit of {0/1, 1/0} under * and *̄ by 0/1 and 1/0,
    visiting only fractions with |p|, |q| <= bound, and report which targets
    were reached together with a witness word for each.

    One breadth-first loop over a flat grid: the pair (u, v) is cell
    origin + u·side + v of a bytearray, for |u|, |v| <= 2·bound, which holds
    every step from the box.  A reached point marks both of its signs, and
    the cells outside the box are marked from the start, so a step is one
    lookup and nothing is built for a step not taken.  The steps are inline
    in closed form: * 0/1 sends p/q to p/(q - p), *̄ 0/1 to p/(q + p), * 1/0
    to (p + q)/q and *̄ 1/0 to (p - q)/q; only the first two can need a sign
    change, as q >= 0 and q = 0 only at 1/0.  A point becomes a PFrac once,
    when it is first reached.  The list of reached points is the queue, and
    the letter order a, A, b, B decides which shortest word wins."""
    _require_ints(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    targets = tuple(targets)
    new = PFrac._trusted
    side = 4 * bound + 1
    last = side * side - 1  # cell c holds (u, v) and cell last - c (-u, -v)
    origin = last // 2      # the cell of (0, 0)
    wall = b"\x01" * side
    row = b"\x01" * bound + bytes(2 * bound + 1) + b"\x01" * bound
    seen = bytearray(wall * bound + row * (2 * bound + 1) + wall * bound)
    nodes = [(new(0, 1), "a", None, origin + 1), (new(1, 0), "b", None, origin + side)]
    for _, _, _, c in nodes:
        seen[c] = seen[last - c] = 1
    push = nodes.append
    for x, word, _, cell in nodes:  # nodes grows as it is read: it is the queue
        p = x.p
        q = x.q
        c = cell - p  # a: p/(q - p)
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            if q >= p:
                push((new(p, q - p), word + "a", x, c))
            else:
                push((new(-p, p - q), word + "a", x, last - c))
        c = cell + p  # A: p/(q + p)
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            if q + p > 0:
                push((new(p, q + p), word + "A", x, c))
            else:
                push((new(-p, -q - p), word + "A", x, last - c))
        shift = q * side
        c = cell + shift  # b: (p + q)/q
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            push((new(p + q, q), word + "b", x, c))
        c = cell - shift  # B: (p - q)/q
        if not seen[c]:
            seen[c] = seen[last - c] = 1
            push((new(p - q, q), word + "B", x, c))
    fracs, words, parents, _ = zip(*nodes)
    witnesses = dict(zip(fracs, words))
    reached = {t: w for t in targets if (w := witnesses.get(t)) is not None}
    return OrbitReport(
        bound=bound,
        explored=len(fracs),
        witnesses=witnesses,
        reached=reached,
        unreached=tuple(t for t in targets if t not in reached),
        edges=tuple(zip(parents[2:], map(itemgetter(-1), words[2:]), fracs[2:])),
    )
