"""Finite quandles and racks: exact axiom checking and the stock constructions.

Carriers are index sets 0..size-1 with dense operation tables.  Each
structure is built from its defining data alone: a group from its
multiplication table, FiniteGroup(table), which derives the size, identity
and inverses; an Alexander quandle from the one linear map it uses,
multiplication by t, the companion map of the monic h.

Idempotence and bijectivity of the right translations R_c (a -> a*c) are
checked on every cell.  Right distributivity, (a*b)*c = (a*c)*(b*c) for all
a and b, says that R_c is an endomorphism.  Once every R_c is a bijection
it is decided on a generating set S (Fenn and Rourke, "Racks and links in
codimension two", J. Knot Theory Ramif. 1, 1992), chosen greedily in index
order: each new s is the first element outside the closure of the chosen
ones under their R_s, so the closure of S is the whole carrier.  Why the
law on S is enough, and why the first failure is found at the same cell:

* if R_d is an automorphism, then R_(c*d) = R_d R_c R_d^-1 for every c,
  so the c whose R_c is an automorphism are closed under every such R_d
  and its inverse, and contain the closure of S once they contain S;
* the members of S below the first c at which the law fails all pass, so
  by the first point their closure passes too; c was outside it when the
  greedy choice reached c, so c is a member of S.

So the law is scanned for the members of S in index order, skipping those
whose R_s is the identity, an automorphism of any table, and the first
failing cell in (c, a, b) order is the one a scan of every c would find.
When bijectivity fails, every c is scanned.

The scans compare whole rows rather than looping over cells in Python.  Each
is built on one primitive, gather(m, s) = (m[s[0]], m[s[1]], ...): for fixed
c, right distributivity compares col[T[a][b]] with T[col[a]][col[b]] over
all (a, b) at once, with col the column of c, and for fixed a associativity
compares T[T[a][b]][c] with T[a][T[b][c]] over all (b, c).  Tables of order
up to 256 are bytes and gather is bytes.translate; larger ones are tuples
and gather is an itemgetter.  A failure is located in the order of the
scalar scan (c, a, b for distributivity; a, b, c for associativity), so the
first counterexample found is the one a cell-by-cell loop would find.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from ._trusted import value_type


def _freeze_table(table: Sequence[Sequence[int]], size: int) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of rows, checked to be size x size over [0, size)."""
    frozen = tuple(tuple(row) for row in table)
    if len(frozen) != size:
        raise ValueError(f"table has {len(frozen)} rows, expected {size}")
    for i, row in enumerate(frozen):
        if len(row) != size:
            raise ValueError(f"table row {i} has length {len(row)}, expected {size}")
        for x in row:
            if type(x) is not int or not 0 <= x < size:
                raise ValueError(f"table entry {x!r} is not an int in [0, {size})")
    return frozen


@value_type
class FiniteQuandle:
    """A binary operation on {0, ..., size-1} given by a dense table.

    ``table[i][j]`` is the value of ``i * j``.  Construction only checks that
    the table is well formed; use :func:`check_quandle` / :func:`check_rack`
    for the axioms.
    """

    size: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.size) is not int or self.size <= 0:
            raise ValueError(f"size must be a positive int, got {self.size!r}")
        object.__setattr__(self, "table", _freeze_table(self.table, self.size))

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def to_json(self) -> dict:
        return {"size": self.size, "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteQuandle":
        return cls(data["size"], data["table"])


@value_type
class AxiomReport:
    """Outcome of an axiom check over a finite operation table.

    ``counterexample`` is a triple of element indices witnessing a failed
    flag (present exactly when some flag is false): idempotence stores
    ``(i, i, i)`` with ``i*i != i``; bijectivity stores ``(i, j, k)`` with
    ``i != j`` and ``i*k == j*k``; distributivity stores ``(a, b, c)`` with
    ``(a*b)*c != (a*c)*(b*c)``.
    """

    idempotent: bool
    right_translations_bijective: bool
    right_distributive: bool
    counterexample: Optional[tuple[int, int, int]]

    def reproduces(self, q: "FiniteQuandle") -> bool:
        """Re-evaluate the failed axioms on the stored witness."""
        if self.counterexample is None:
            return self.idempotent and self.right_translations_bijective and self.right_distributive
        i, j, k = self.counterexample
        if not self.idempotent and i == j == k:
            return q.op(i, i) != i
        if not self.right_translations_bijective and i != j:
            return q.op(i, k) == q.op(j, k)
        return q.op(q.op(i, j), k) != q.op(q.op(i, k), q.op(j, k))

    @property
    def is_rack(self) -> bool:
        return self.right_translations_bijective and self.right_distributive

    @property
    def is_quandle(self) -> bool:
        return self.idempotent and self.is_rack

    def to_json(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "right_translations_bijective": self.right_translations_bijective,
            "right_distributive": self.right_distributive,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "is_rack": self.is_rack,
            "is_quandle": self.is_quandle,
        }


def _encode(table: Sequence[Sequence[int]], n: int) -> tuple:
    """The rows of an n x n table over [0, n), the same cells as one flat
    row-major sequence, and the one primitive the scans are built on:
    gather(m, s), the sequence m[s[i]] for every i, with join, which
    concatenates rows.  Up to order 256 rows are bytes and gather is one
    bytes.translate through m padded to 256 entries; above, rows are tuples
    and gather is an itemgetter, whose s here always has at least n > 256
    indices (with one index an itemgetter returns a scalar, not a tuple)."""
    if n <= 256:
        pad = bytes(256 - n)
        rows = [bytes(row) for row in table]
        return rows, b"".join(rows), lambda m, s: s.translate(m + pad), b"".join
    rows = [tuple(row) for row in table]
    chained = itertools.chain.from_iterable
    return (rows, tuple(chained(rows)), lambda m, s: itemgetter(*s)(m),
            lambda seqs: tuple(chained(seqs)))


def _first_difference(x: Sequence[int], y: Sequence[int], n: int) -> tuple[int, int]:
    """The first cell (i, j), in row-major order, where two unequal flat
    n x n sequences differ."""
    for i in range(0, n * n, n):
        row_x, row_y = x[i:i + n], y[i:i + n]
        if row_x != row_y:
            return i // n, next(j for j in range(n) if row_x[j] != row_y[j])


def _idempotence_failure(q: FiniteQuandle) -> Optional[tuple[int, int, int]]:
    for i in range(q.size):
        if q.table[i][i] != i:
            return (i, i, i)
    return None


def _bijectivity_failure(cols: Sequence[Sequence[int]], n: int) -> Optional[tuple[int, int, int]]:
    """(i, j, k) for the first column k that is not a permutation: j is the
    first row whose value in column k repeats an earlier row's, and i the
    first row holding that value."""
    for k, col in enumerate(cols):
        if len(set(col)) != n:
            j = next(j for j in range(n) if col[j] in col[:j])
            return (col.index(col[j]), j, k)
    return None


def _generating_set(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """S, chosen greedily in index order, and the members of S whose column
    is not the identity.  Each new s is the first element outside the
    closure of the chosen ones under their right translations R_s
    (a -> a*s, column s), so the closure of S is everything.  The columns
    must be permutations, so that on a finite set the closure under R_s is
    also closed under R_s^-1.  An identity column adds s to S but moves
    nothing, so a trivial quandle costs O(n) Python steps here."""
    n = len(cols)
    identity = type(cols[0])(range(n))
    reached = bytearray(n)
    members, moves, chosen, moving = [], [], [], []
    for s, col in enumerate(cols):
        if reached[s]:
            continue
        chosen.append(s)
        reached[s] = 1
        # s meets every move; the members reached before s, already closed
        # under the earlier moves, meet only the new one
        new = [s]
        if col != identity:
            moving.append(s)
            moves.append(col)
            for b in map(col.__getitem__, members):
                if not reached[b]:
                    reached[b] = 1
                    new.append(b)
        members += new
        while new:
            a = new.pop()
            for move in moves:
                b = move[a]
                if not reached[b]:
                    reached[b] = 1
                    new.append(b)
                    members.append(b)
        if len(members) == n:
            break
    return chosen, moving


def _distributivity_failure(rows, flat, gather, join, cols, cs) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) with (a*b)*c != (a*c)*(b*c), for c in cs in the
    order given, then a, then b.  For fixed c, with col the column of c,
    the left sides over all (a, b) are col gathered along the flat table
    and the right sides are row col[a] gathered along col, joined over a."""
    n = len(rows)
    for c in cs:
        col = cols[c]
        left = gather(col, flat)
        right = join([gather(rows[x], col) for x in col])
        if left != right:
            return (*_first_difference(left, right, n), c)
    return None


def _scan(q: FiniteQuandle, rack_first: bool) -> AxiomReport:
    n = q.size
    rows, flat, gather, join = _encode(q.table, n)
    cols = [flat[c::n] for c in range(n)]
    idem = _idempotence_failure(q)
    bij = _bijectivity_failure(cols, n)
    # with every R_c a bijection, the first c at which the law fails, if
    # any, is a member of S that moves something (module docstring)
    cs = _generating_set(cols)[1] if bij is None else range(n)
    dist = _distributivity_failure(rows, flat, gather, join, cols, cs)
    if rack_first:
        witness = bij if bij is not None else dist if dist is not None else idem
    else:
        witness = idem if idem is not None else bij if bij is not None else dist
    return AxiomReport(
        idempotent=idem is None,
        right_translations_bijective=bij is None,
        right_distributive=dist is None,
        counterexample=witness,
    )


def check_rack(q: FiniteQuandle) -> AxiomReport:
    """Decide the rack axioms: bijective right translations, checked on
    every column, and right distributivity, checked on a generating set S
    when every column is a bijection (R_(c*d) = R_d R_c R_d^-1 carries the
    law from S to everything S generates, which is everything) and on every
    c otherwise.  Idempotence is computed as well but does not affect rack
    status; the counterexample witnesses a rack axiom when one fails, at the
    first cell a cell-by-cell scan would reach (see the module docstring)."""
    return _scan(q, rack_first=True)


def check_quandle(q: FiniteQuandle) -> AxiomReport:
    """Decide all three quandle axioms, by the procedure of
    :func:`check_rack` plus idempotence on every diagonal cell.  The
    counterexample witnesses the first failed axiom in definition order, at
    the first cell a cell-by-cell scan would reach."""
    return _scan(q, rack_first=False)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@value_type
class FiniteGroup:
    """A finite group on {0, ..., size-1}, given by its multiplication table.

    FiniteGroup(table) is the one checked constructor: it locates the
    identity (the first element that fixes every element from both sides)
    and each element's inverse (the first two-sided one), then checks
    associativity exhaustively.  size, identity and inverse are derived from
    the table, so equality and hashing compare the table alone."""

    table: tuple[tuple[int, ...], ...]
    size: int = field(init=False, compare=False, repr=False)
    identity: int = field(init=False, compare=False, repr=False)
    inverse: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        frozen = _freeze_table(self.table, len(self.table))
        n = len(frozen)
        identity = None
        for e in range(n):
            if all(frozen[e][a] == a and frozen[a][e] == a for a in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverse = []
        for a in range(n):
            found = None
            for b in range(n):
                if frozen[a][b] == identity and frozen[b][a] == identity:
                    found = b
                    break
            if found is None:
                raise ValueError(f"element {a} has no inverse")
            inverse.append(found)
        # for fixed a, (ab)c over all (b, c) is row ab joined over b, and
        # a(bc) is row a gathered along the flat table
        rows, flat, gather, join = _encode(frozen, n)
        for a, row_a in enumerate(rows):
            left, right = join([rows[x] for x in row_a]), gather(row_a, flat)
            if left != right:
                b, c = _first_difference(left, right, n)
                raise ValueError(f"associativity fails at ({a}, {b}, {c})")
        object.__setattr__(self, "table", frozen)
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", tuple(inverse))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.size)

    def to_json(self) -> dict:
        return {"size": self.size, "table": [list(row) for row in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteGroup":
        return cls(data["table"])


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group Z/n in additive notation."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"order must be a positive int, got {n!r}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table)


def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group on n letters (n small), elements ordered
    lexicographically as mapping tuples."""
    if type(n) is not int or not 1 <= n <= 5:
        raise ValueError(f"symmetric_group supports ints 1 <= n <= 5, got {n!r}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # product a*b applies a first, then b
    table = [
        [index[tuple(map(b.__getitem__, a))] for b in perms]
        for a in perms
    ]
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """The dihedral group of order 2n: rotations 0..n-1, reflections n..2n-1."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"order must be a positive int, got {n!r}")

    def mul(a: int, b: int) -> int:
        ra, fa = a % n, a // n
        rb, fb = b % n, b // n
        # (r^ra f^fa)(r^rb f^fb); f r = r^-1 f
        r = (rb + ra) % n if fb == 0 else (rb - ra) % n
        return r + n * ((fa + fb) % 2)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroup(table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) encoded as a * h.size + b."""
    m = h.size
    size = g.size * m

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(x, m)
        a2, b2 = divmod(y, m)
        return g.mul(a1, a2) * m + h.mul(b1, b2)

    table = [[mul(x, y) for y in range(size)] for x in range(size)]
    return FiniteGroup(table)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))


# ---------------------------------------------------------------------------
# standard quandle constructions
# ---------------------------------------------------------------------------

def dihedral_quandle(n: int) -> FiniteQuandle:
    """The dihedral quandle R_n: i * j = 2j - i (mod n)."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"order must be a positive int, got {n!r}")
    table = [[(2 * j - i) % n for j in range(n)] for i in range(n)]
    return FiniteQuandle._trusted(n, tuple(map(tuple, table)))


def conj_quandle(g: FiniteGroup) -> FiniteQuandle:
    """A group under conjugation: a * b = b^-1 a b."""
    table = [
        [g.mul(g.mul(g.inv(b), a), b) for b in g.elements()]
        for a in g.elements()
    ]
    return FiniteQuandle._trusted(g.size, tuple(map(tuple, table)))


def core_quandle(g: FiniteGroup) -> FiniteQuandle:
    """The core quandle of a group: a * b = b a^-1 b."""
    table = [
        [g.mul(g.mul(b, g.inv(a)), b) for b in g.elements()]
        for a in g.elements()
    ]
    return FiniteQuandle._trusted(g.size, tuple(map(tuple, table)))


def automorphism_quandle(g: FiniteGroup, tau: Sequence[int]) -> FiniteQuandle:
    """The quandle g * h = tau(g h^-1) h for a group automorphism tau,
    given as a permutation of element indices."""
    tau = tuple(tau)
    if any(type(x) is not int for x in tau) or sorted(tau) != list(range(g.size)):
        raise ValueError("tau is not a permutation of the group elements")
    for a in g.elements():
        for b in g.elements():
            if tau[g.mul(a, b)] != g.mul(tau[a], tau[b]):
                raise ValueError(f"tau is not an automorphism: fails at ({a}, {b})")
    table = [
        [g.mul(tau[g.mul(a, g.inv(b))], b) for b in g.elements()]
        for a in g.elements()
    ]
    return FiniteQuandle._trusted(g.size, tuple(map(tuple, table)))


# ---------------------------------------------------------------------------
# Alexander quandles over Z/n[t]/(h(t))
# ---------------------------------------------------------------------------

@value_type
class LaurentQuotientRing:
    """The quotient Z/n[t, 1/t] / (h(t)) with h given by ascending coefficients.

    Elements are coefficient vectors of length deg(h), t^0 first.  The
    leading coefficient of h must be a unit mod n, and t must be a unit in
    the quotient, which holds exactly when the constant term of h is a unit
    mod n; construction fails otherwise.  h is stored monic, which leaves
    the quotient unchanged.  The ring carries no arithmetic of its own:
    its one use, :func:`alexander_quandle`, only multiplies by t.
    """

    modulus: int
    h: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        if type(n) is not int or n <= 0:
            raise ValueError(f"modulus must be a positive int, got {n!r}")
        if any(type(c) is not int for c in self.h):
            raise ValueError(f"coefficients of h must be ints, got {self.h!r}")
        h = tuple(c % n for c in self.h)
        while len(h) > 1 and h[-1] == 0:
            h = h[:-1]
        # modulus 1 reduces every h to (0,) and fails here
        if len(h) < 2:
            raise ValueError("h(t) must have degree at least 1")
        if gcd(h[-1], n) != 1:
            raise ValueError("leading coefficient of h must be a unit mod n")
        if gcd(h[0], n) != 1:
            raise ValueError(
                "t is not a unit in the quotient (constant term of h shares a "
                "factor with the modulus)"
            )
        lead_inv = pow(h[-1], -1, n)
        object.__setattr__(self, "h", tuple(c * lead_inv % n for c in h))

    @property
    def degree(self) -> int:
        return len(self.h) - 1

    @property
    def size(self) -> int:
        return self.modulus ** self.degree

    def elements(self) -> list[tuple[int, ...]]:
        """Every coefficient vector, the t^0 coefficient varying fastest."""
        return [
            tuple(reversed(v))
            for v in itertools.product(range(self.modulus), repeat=self.degree)
        ]


def alexander_quandle(ring: LaurentQuotientRing) -> FiniteQuandle:
    """The Alexander quandle a * b = t a + (1 - t) b on the ring's elements,
    indexed in the order of ``ring.elements()``.

    The table is built from the one linear map it uses, multiplication by t.
    On coefficient vectors that is the companion map of the monic h: shift
    every coefficient up one degree, then subtract the overflowing top
    coefficient times h.  Writing a * b = t a + (b - t b), t a and b - t b
    are computed once per element, and each cell is one digitwise sum mod n
    and one index lookup."""
    n, h = ring.modulus, ring.h
    elems = ring.elements()
    index = {e: i for i, e in enumerate(elems)}
    times_t = [tuple((low - v[-1] * c) % n for low, c in zip((0, *v[:-1]), h)) for v in elems]
    rest = [tuple((x - y) % n for x, y in zip(b, tb)) for b, tb in zip(elems, times_t)]
    table = tuple(
        tuple(index[tuple((x + y) % n for x, y in zip(ta, r))] for r in rest)
        for ta in times_t
    )
    return FiniteQuandle._trusted(len(elems), table)


# ---------------------------------------------------------------------------
# bilinear forms and the transvection operation on (Z/n)^r
# ---------------------------------------------------------------------------

def form_value(gram: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int],
               modulus: Optional[int] = None) -> int:
    """<x, y> for the bilinear form with the given Gram matrix."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = gram[i]
            for j, yj in enumerate(y):
                total += xi * row[j] * yj
    return total % modulus if modulus else total


def form_is_alternating(gram: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]],
                        modulus: Optional[int] = None) -> bool:
    """True if <x, x> = 0 for every vector in the given carrier."""
    return all(form_value(gram, x, x, modulus) == 0 for x in vectors)


def form_is_antisymmetric(gram: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]],
                          modulus: Optional[int] = None) -> bool:
    """True if <x, y> = -<y, x> for every pair of vectors in the carrier."""
    for x in vectors:
        for y in vectors:
            lhs = form_value(gram, x, y, modulus)
            rhs = -form_value(gram, y, x, modulus)
            if modulus:
                lhs %= modulus
                rhs %= modulus
            if lhs != rhs:
                return False
    return True


def module_vectors(modulus: int, rank: int) -> list[tuple[int, ...]]:
    """All vectors of (Z/n)^rank."""
    return list(itertools.product(range(modulus), repeat=rank))


def transvection_quandle(modulus: int, gram: Sequence[Sequence[int]]) -> FiniteQuandle:
    """The operation x * y = x - <x, y> y on (Z/n)^rank for the bilinear form
    with the given Gram matrix, a square list or tuple of rows of ints.  No
    axiom is assumed; run the checkers."""
    if type(modulus) is not int or modulus <= 0:
        raise ValueError(f"modulus must be a positive int, got {modulus!r}")
    if not isinstance(gram, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and len(row) == len(gram)
            and all(type(c) is int for c in row) for row in gram):
        raise ValueError(f"gram must be a square matrix of ints, got {gram!r}")
    rank = len(gram)
    vectors = module_vectors(modulus, rank)
    index = {v: i for i, v in enumerate(vectors)}
    table = []
    for x in vectors:
        row = []
        for y in vectors:
            d = form_value(gram, x, y, modulus)
            row.append(index[tuple((xi - d * yi) % modulus for xi, yi in zip(x, y))])
        table.append(row)
    return FiniteQuandle._trusted(len(vectors), tuple(map(tuple, table)))
