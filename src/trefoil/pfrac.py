"""The quandle of fractions Q ∪ {1/0} under the transvection operation,
the symplectic operation on Z⊕Z it projects from, and the matching
PSL(2, Z) matrices.

A point is a ±-projective primitive integer pair (p, q), canonically signed
so that q > 0, or q = 0 and p = 1.  All arithmetic is exact on unbounded
integers; the transvection (a/b) * (c/d) = (a - Dc)/(b - Dd) with
D = ad - bc grows coefficients quadratically, so fixed-width integers would
silently corrupt results.

A PFrac is an immutable pair on tuple, built, hashed and unpacked in C.
Untrusted pairs go through pf_new, which takes one gcd.  The operations
and the matrix action are determinant-one integer maps, which send
primitive pairs to primitive pairs, so their results are only signed, in
place, and built by the C-level trusted builder.

orbit_bfs witnesses that 0/1 and 1/0 generate the quandle.  Its search
tree is known in advance, two Calkin-Wilf trees under 1/1 and -1/1, so
the breadth-first search is a walk of that tree on plain ints that keeps
no visited set.  Every reached point is then built as a PFrac in one
pass.  The report stores only the witness words; the search tree is read
back from their prefixes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Iterable, Union

from ._trusted import pair_type, value_type

IntPair = tuple[int, int]

_FRAC_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _require_ints(*values: object) -> None:
    """Reject a bool, float or str where an int is required."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"expected ints, got {values!r}")


def _unordered(op: str):
    """A comparison that raises: projective points have no order."""
    def compare(self, other):
        raise TypeError(f"'{op}' not supported between instances of "
                        f"'{type(self).__name__}' and '{type(other).__name__}'")
    return compare


@pair_type
class PFrac(tuple):
    """A canonical projective primitive pair: gcd(|p|, |q|) = 1 and either
    q > 0 or (q, p) = (0, 1).  The point 1/0 is infinity; 0 is 0/1.

    An immutable pair on tuple, so it is built, hashed and unpacked
    (p, q = x) in C.  It equals only another PFrac, never a plain tuple, in
    either operand order, and it is unordered."""

    __slots__ = ()
    __match_args__ = ("p", "q")
    p = property(itemgetter(0), doc="The numerator.")
    q = property(itemgetter(1), doc="The denominator: positive, or 0 at 1/0.")

    def __new__(cls, p: int, q: int) -> "PFrac":
        _require_ints(p, q)
        if (p, q) == (0, 0):
            raise ValueError("the zero pair has no projective class")
        if gcd(abs(p), abs(q)) != 1:
            raise ValueError(f"({p}, {q}) is not reduced")
        if q < 0 or (q == 0 and p != 1):
            raise ValueError(f"({p}, {q}) is not canonically signed")
        return cls._trusted((p, q))

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if type(other) is PFrac:
            return self[0] == other[0] and self[1] == other[1]
        # tuple's own == would hold against a plain tuple of the same items
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's !=

    __lt__, __le__, __gt__, __ge__ = map(_unordered, ("<", "<=", ">", ">="))

    def __reduce__(self):
        return PFrac, tuple(self)

    def __repr__(self) -> str:
        p, q = self
        return f"PFrac(p={p!r}, q={q!r})"

    def __str__(self) -> str:
        p, q = self
        return f"{p}/{q}"

    def to_json(self) -> dict:
        p, q = self
        return {"p": str(p), "q": str(q)}

    @classmethod
    def from_fraction(cls, r: Union[Fraction, int]) -> "PFrac":
        """A Fraction is already reduced, with a positive denominator."""
        if not (isinstance(r, Fraction) or type(r) is int):
            raise TypeError(f"from_fraction takes a Fraction or an int, not {type(r).__name__}")
        return cls._trusted((r.numerator, r.denominator))

    @classmethod
    def parse(cls, text: str) -> "PFrac":
        m = _FRAC_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a fraction: {text!r}")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 1
        return pf_new(p, q)


_pfrac = PFrac._trusted


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
    the inverse map is integral too, so pf_new's gcd would be 1.  The
    operations below sign their results the same way, in place."""
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


PF_ZERO = pf_new(0, 1)
PF_INFINITY = pf_new(1, 0)


def pf_op(x: PFrac, y: PFrac) -> PFrac:
    """(a/b) * (c/d) = (a - Dc)/(b - Dd) with D = ad - bc."""
    a, b = x
    c, d = y
    det = a * d - b * c
    p = a - det * c
    q = b - det * d
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


def pf_op_inv(x: PFrac, y: PFrac) -> PFrac:
    """The inverse operation: (a/b) *̄ (c/d) = (a + Dc)/(b + Dd)."""
    a, b = x
    c, d = y
    det = a * d - b * c
    p = a + det * c
    q = b + det * d
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


def pf_op_pow(x: PFrac, y: PFrac, k: int) -> PFrac:
    """x * y^k in closed form: (p - kDs, q - kDt) for y = s/t, D = pt - sq.

    Equals k-fold application of pf_op for k > 0, of pf_op_inv for k < 0,
    and x for k = 0.
    """
    _require_ints(k)
    a, b = x
    s, t = y
    kd = k * (a * t - b * s)
    p = a - kd * s
    q = b - kd * t
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


# ---------------------------------------------------------------------------
# the symplectic operation on all of Z⊕Z
# ---------------------------------------------------------------------------

def sympl_form(x: IntPair, y: IntPair) -> int:
    """The determinant form <(a,b), (c,d)> = ad - bc."""
    return x[0] * y[1] - x[1] * y[0]


def sympl_op(x: IntPair, y: IntPair) -> IntPair:
    """(a, b) * (c, d) = (a - Dc, b - Dd); defined on every pair of ints,
    including zero and imprimitive vectors."""
    _require_ints(*x, *y)
    d = sympl_form(x, y)
    return (x[0] - d * y[0], x[1] - d * y[1])


def sympl_op_inv(x: IntPair, y: IntPair) -> IntPair:
    _require_ints(*x, *y)
    d = sympl_form(x, y)
    return (x[0] + d * y[0], x[1] + d * y[1])


def projectivize(x: IntPair) -> PFrac:
    """The projective class of a primitive nonzero pair."""
    _require_ints(*x)
    if x == (0, 0):
        raise ValueError("the zero vector has no projective class")
    p, q = x
    if gcd(p, q) != 1:
        raise ValueError(f"{x} is not primitive")
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


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
    c, d = y
    dc = d * c
    return TransvectionMatrix._trusted(1 - dc, c * c, -d * d, 1 + dc)


def apply_matrix(m: TransvectionMatrix, x: PFrac) -> PFrac:
    """Apply a determinant-one matrix to a projective point."""
    r, s = x
    p = m.a * r + m.b * s
    q = m.c * r + m.d * s
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return _pfrac((p, q))


# ---------------------------------------------------------------------------
# orbit exploration from the two generators
# ---------------------------------------------------------------------------

@value_type
class OrbitReport:
    """Breadth-first closure of {0/1, 1/0} under the four generator steps,
    restricted to canonical representatives with |p|, |q| <= bound.

    The witnesses are all that the search stores: breadth-first witness
    words are prefix-closed, each non-root word being its parent's word
    and one letter, so the search tree is read back from them."""

    bound: int
    witnesses: dict  # PFrac -> witness word text, in the order reached
    reached: dict    # target PFrac -> witness word text
    unreached: tuple

    @property
    def explored(self) -> int:
        """The number of points the search reached, targets or not."""
        return len(self.witnesses)

    @property
    def edges(self) -> tuple:
        """The search tree edges (source PFrac, letter, target PFrac), one
        per point but the roots 0/1 ("a") and 1/0 ("b"), in witness order:
        the source is the point whose witness is the target's witness
        without its last letter."""
        point = {word: x for x, word in self.witnesses.items()}
        return tuple((point[word[:-1]], word[-1], x)
                     for x, word in self.witnesses.items() if len(word) > 1)

    def to_dot(self) -> str:
        lines = ["digraph orbit {"]
        for src in sorted(self.witnesses, key=itemgetter(1, 0)):
            lines.append(f'  "{src}";')
        for src, letter, dst in self.edges:
            lines.append(f'  "{src}" -> "{dst}" [label="{letter}"];')
        lines.append("}")
        return "\n".join(lines)


def orbit_bfs(targets: Iterable[PFrac], bound: int) -> OrbitReport:
    """Explore the orbit of {0/1, 1/0} under * and *̄ by 0/1 and 1/0,
    visiting only fractions with |p|, |q| <= bound, and report which targets
    were reached together with a witness word for each.

    The steps a, A, b, B (* 0/1, *̄ 0/1, * 1/0, *̄ 1/0) send x to x/(1 - x),
    x/(1 + x), x + 1 and x - 1.  The breadth-first search is a walk of a
    tree known in advance, by this lemma on the depth d, the distance from
    {0/1, 1/0} by steps inside the box.  sigma(x) = -x and rho(x) = 1/x map
    the box and {0/1, 1/0} to themselves and steps to steps (sigma swaps
    a<->A and b<->B, rho swaps a<->B and A<->b), so they preserve d.  For
    x > 1, x - 1 is the only neighbour at depth d(x) - 1, by induction on
    d(x) (no x > 1 has d <= 1): were x + 1, x/(1 + x) or x/(1 - x) at depth
    d(x) - 1, the hypothesis applied to x + 1, to 1 + 1/x = rho(x/(1 + x))
    or to 1 + 1/(x - 1) = sigma(x/(1 - x)) would put x or x - 1 at depth
    d(x) - 2.  By sigma and rho, every point but 0, 1/0 and ±1 has exactly
    one neighbour one level nearer, its parent: x - 1 above 1, x + 1 below
    -1, x/(1 - x) on (0, 1) and x/(1 + x) on (-1, 0).  The neighbours ±1 of
    1/0 are reached from 0/1 first, as "ab" and "aB".  So the search finds
    exactly each point's children, in letter order, and no step changes a
    sign: a positive p/q has the children p/(q + p) ("A") and (p + q)/q
    ("b"), a negative one p/(q - p) ("a") and (p - q)/q ("B"), and both are
    in the box exactly when q + |p| <= bound.

    The walk runs on plain ints, its queue three parallel lists of p, q and
    word, so a step allocates only its word; every PFrac is built after
    it, in one pass of the C-level builder."""
    _require_ints(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    targets = tuple(targets)
    ps, qs, words = [1, -1], [1, 1], ["ab", "aB"]
    push_p, push_q, push_word = ps.append, qs.append, words.append
    # the three lists grow together as they are read: they are the queue
    for p, q, word in zip(ps, qs, words):
        if p > 0:
            if p + q <= bound:
                push_p(p)
                push_q(q + p)
                push_word(word + "A")
                push_p(p + q)
                push_q(q)
                push_word(word + "b")
        elif q - p <= bound:
            push_p(p)
            push_q(q - p)
            push_word(word + "a")
            push_p(p - q)
            push_q(q)
            push_word(word + "B")
    witnesses = {PF_ZERO: "a", PF_INFINITY: "b"}
    witnesses.update(zip(map(_pfrac, zip(ps, qs)), words))
    reached = {t: w for t in targets if (w := witnesses.get(t)) is not None}
    return OrbitReport(
        bound=bound,
        witnesses=witnesses,
        reached=reached,
        unreached=tuple(t for t in targets if t not in reached),
    )
