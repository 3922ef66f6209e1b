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

A group table's associativity is decided the same way, on the same greedy
S (Light's test): the s with (xs)y = x(sy) for all x and y are closed under
products, and every element is a product of members of S.

The scans compare whole rows rather than looping over cells in Python.  Each
is built on one primitive, gather(m, s) = (m[s[0]], m[s[1]], ...): for fixed
c, right distributivity compares col[T[a][b]] with T[col[a]][col[b]] over
all (a, b) at once, with col the column of c, and for fixed s associativity
compares T[T[x][s]][y] with T[x][T[s][y]] over all (x, y).  A failure is
located in the order of the scalar scan (c, a, b for distributivity; a, b, c
for associativity), so the first counterexample found is the one a
cell-by-cell loop would find.  The stock tables are built with the same
gather and join, a whole row or column per step rather than a Python step
per cell; transvection_quandle is the exception, evaluating its form once
per cell.

Rows are bytes up to order 256, where gather is one bytes.translate, and
tuples above, where it is an itemgetter: bytes index only 256 values.  The
choice is made once, by _codec, and the same code runs on either; tables
are stored as tuples of int tuples either way.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from math import gcd
from operator import itemgetter
from typing import Optional, Sequence

from ._trusted import value_type


_INT = frozenset((int,))


def _freeze_table(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of rows, checked to be n x n over [0, n), n its
    number of rows, at least one.  Each row is checked whole, its entries'
    types as one set and their values against the set of indices; only a
    failing row is scanned again, to name its first bad entry."""
    frozen = tuple(tuple(row) for row in table)
    size = len(frozen)
    if not size:
        raise ValueError("table has no rows")
    indices = frozenset(range(size))
    for i, row in enumerate(frozen):
        if len(row) != size:
            raise ValueError(f"table row {i} has length {len(row)}, expected {size}")
        # the type test comes first: it keeps bools, equal to 0 and 1, and
        # unhashable entries away from the set of indices
        if not (_INT.issuperset(map(type, row)) and indices.issuperset(row)):
            x = next(x for x in row if type(x) is not int or not 0 <= x < size)
            raise ValueError(f"table entry {x!r} is not an int in [0, {size})")
    return frozen


@value_type
class FiniteQuandle:
    """A binary operation on {0, ..., size-1} given by a dense table.

    ``table[i][j]`` is the value of ``i * j``.  FiniteQuandle(table) only
    checks that the table is well formed and derives size from it, as
    FiniteGroup(table) does; use :func:`check_quandle` / :func:`check_rack`
    for the axioms.
    """

    table: tuple[tuple[int, ...], ...]
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        frozen = _freeze_table(self.table)
        object.__setattr__(self, "table", frozen)
        object.__setattr__(self, "size", len(frozen))


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
        t = q.table
        if not self.idempotent and i == j == k:
            return t[i][i] != i
        if not self.right_translations_bijective and i != j:
            return t[i][k] == t[j][k]
        return t[t[i][j]][k] != t[t[i][k]][t[j][k]]

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


_BYTE_VALUES = bytes(range(256))


def _codec(n: int) -> tuple:
    """The one decision of how an order-n table is encoded: its identity row
    idx, 0..n-1, in the row type; row, which makes that type from ints; the
    one primitive the scans and the constructors are built on, gather(m, s),
    the sequence m[s[i]] for every i; join, which concatenates rows; and
    permutes(cols), a list saying whether each column is a permutation.
    Up to order 256 rows are bytes and gather is one bytes.translate through
    m, of length n, padded to 256 entries; bytes.maketrans(col, idx) sends
    each value to the last row holding it, so col translated through it is
    idx exactly when no value repeats.  Above, rows are tuples, gather is an
    itemgetter, whose s here always has at least n > 256 indices (with one
    index an itemgetter returns a scalar, not a tuple), and a column is a
    permutation when its set has n values."""
    if n <= 256:
        idx, pad = _BYTE_VALUES[:n], bytes(256 - n)
        return (idx, bytes, lambda m, s: s.translate(m + pad), b"".join,
                lambda cols: [col.translate(bytes.maketrans(col, idx)) == idx for col in cols])
    chained = itertools.chain.from_iterable
    return (tuple(range(n)), tuple, lambda m, s: itemgetter(*s)(m),
            lambda seqs: tuple(chained(seqs)), lambda cols: [len(set(col)) == n for col in cols])


def _encode(table: Sequence[Sequence[int]]) -> tuple:
    """The rows of an n x n table over [0, n) in the row type of order n,
    the same cells as one flat row-major sequence, its columns, and the
    codec of order n."""
    n = len(table)
    _, row, _, join, _ = codec = _codec(n)
    rows = list(map(row, table))
    flat = join(rows)
    return rows, flat, [flat[c::n] for c in range(n)], codec


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


def _bijectivity_failure(cols: Sequence[Sequence[int]], permutes) -> Optional[tuple[int, int, int]]:
    """(i, j, k) for the first column k that is not a permutation: j is the
    first row whose value in column k repeats an earlier row's, and i the
    first row holding that value.  The codec's permutes decides every
    column; the scan below only locates the witness."""
    flags = permutes(cols)
    if all(flags):
        return None
    k = flags.index(False)
    col = cols[k]
    j = next(j for j, x in enumerate(col) if x in col[:j])
    return (col.index(col[j]), j, k)


def _generating_set(cols: Sequence[Sequence[int]], idx: Sequence[int]) -> tuple[list[int], list[int]]:
    """S, chosen greedily in index order, and the members of S whose column
    is not idx, the identity.  Each new s is the first element outside the
    closure of the chosen ones under their right translations R_s
    (a -> a*s, column s), so the closure of S is everything, and every
    element is a left-nested product of members of S, for any table.  The
    rack argument also needs the columns to be permutations, so that on a
    finite set the closure under R_s is also closed under R_s^-1.  An
    identity column adds s to S but moves nothing, so a trivial quandle
    costs O(n) Python steps here."""
    n = len(cols)
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
        if col != idx:
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


def _distributivity_failure(rows, flat, cols, gather, join, cs) -> Optional[tuple[int, int, int]]:
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
    rows, flat, cols, (idx, _, gather, join, permutes) = _encode(q.table)
    idem = _idempotence_failure(q)
    bij = _bijectivity_failure(cols, permutes)
    # with every R_c a bijection, the first c at which the law fails, if
    # any, is a member of S that moves something (module docstring)
    cs = _generating_set(cols, idx)[1] if bij is None else idx
    dist = _distributivity_failure(rows, flat, cols, gather, join, cs)
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

def _identity_and_inverse(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]],
                          idx: Sequence[int]) -> tuple:
    """The identity of an n x n table given by its encoded rows and columns,
    the first e whose row and column both read idx, 0..n-1, and each
    element's first two-sided inverse.  A row is searched whole for e with
    index; when the b found has b*a != e, that inverse is one-sided and the
    row is scanned on from b.  Raises ValueError when either is missing."""
    n = len(rows)
    identity = next((e for e, row in enumerate(rows) if row == idx and cols[e] == idx), None)
    if identity is None:
        raise ValueError("table has no identity element")
    inverse = []
    for a, row in enumerate(rows):
        b = row.index(identity) if identity in row else None
        if b is not None and rows[b][a] != identity:
            b = next((c for c in range(b + 1, n)
                      if row[c] == identity and rows[c][a] == identity), None)
        if b is None:
            raise ValueError(f"element {a} has no inverse")
        inverse.append(b)
    return identity, tuple(inverse)


def _associativity_failure(rows, flat, cols, idx, gather, join) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c), in that order, with (ab)c != a(bc) in a table
    with a two-sided identity, or None when it is associative.

    Light's test decides it on the greedy generating set S of
    :func:`_generating_set`, read on the columns: the s with
    (xs)y = x(sy) for all x and y are closed under products, since then
    (x(st))y = ((xs)t)y = (xs)(ty) = x(s(ty)) = x((st)y), and every
    element is a product of members of S.  The member of S whose column is
    the identity is the identity itself, as e = es = s, and passes
    trivially.  For fixed s, (xs)y over all (x, y) is row xs joined over
    x, and x(sy) is row x gathered along row s.  Only when a member fails
    is every a scanned, (ab)c over all (b, c) being row ab joined over b
    and a(bc) row a gathered along the flat table, to locate the first
    failure."""
    n = len(rows)
    for s in _generating_set(cols, idx)[1]:
        row_s = rows[s]
        if join([rows[x] for x in cols[s]]) != join([gather(row, row_s) for row in rows]):
            break
    else:
        return None
    for a, row_a in enumerate(rows):
        left, right = join([rows[x] for x in row_a]), gather(row_a, flat)
        if left != right:
            return (a, *_first_difference(left, right, n))


@value_type
class FiniteGroup:
    """A finite group on {0, ..., size-1}, given by its multiplication table.

    FiniteGroup(table) is the one checked constructor: it locates the
    identity (the first element that fixes every element from both sides)
    and each element's inverse (the first two-sided one), then checks
    associativity on a generating set (Light's test), every check a whole
    row at a time.  size, identity and inverse are derived from the table,
    so equality and hashing compare the table alone.  _rows and _cols are
    derived too: the table's rows and columns in the row type of its order,
    kept from the checks for conj_quandle and core_quandle to gather from."""

    table: tuple[tuple[int, ...], ...]
    size: int = field(init=False, compare=False, repr=False)
    identity: int = field(init=False, compare=False, repr=False)
    inverse: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _rows: tuple = field(init=False, compare=False, repr=False)
    _cols: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        frozen = _freeze_table(self.table)
        rows, flat, cols, (idx, _, gather, join, _) = _encode(frozen)
        identity, inverse = _identity_and_inverse(rows, cols, idx)
        failure = _associativity_failure(rows, flat, cols, idx, gather, join)
        if failure is not None:
            raise ValueError(f"associativity fails at {failure}")
        object.__setattr__(self, "table", frozen)
        object.__setattr__(self, "size", len(frozen))
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_cols", tuple(cols))


def _generated_rows(identity: Sequence[int], gens, gather) -> list:
    """Every row of a group table whose element 0 is the identity, row x
    being x*y over y, from the rows of a generating set given as (s, row s)
    pairs.  Row x*s is row x gathered along row s, since x*(s*y) = (x*s)*y,
    and x*s is entry s of row x, so each new row is one gather."""
    rows = [None] * len(identity)
    rows[0] = identity
    reached = [0]
    for x in reached:
        row_x = rows[x]
        for s, row_s in gens:
            xs = row_x[s]
            if rows[xs] is None:
                rows[xs] = gather(row_x, row_s)
                reached.append(xs)
    return rows


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group Z/n in additive notation: row a is 0..n-1 rotated
    by a."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"order must be a positive int, got {n!r}")
    doubled = _codec(n)[0] * 2
    return FiniteGroup([doubled[a:a + n] for a in range(n)])


def symmetric_group(n: int) -> FiniteGroup:
    """The symmetric group on n letters (n small), elements ordered
    lexicographically as mapping tuples."""
    if type(n) is not int or not 1 <= n <= 5:
        raise ValueError(f"symmetric_group supports ints 1 <= n <= 5, got {n!r}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    idx, row, gather, _, _ = _codec(len(perms))
    # product a*b applies a first, then b; the adjacent transpositions
    # generate, and the identity is the first mapping tuple
    swaps = [(*range(i), i + 1, i, *range(i + 2, n)) for i in range(n - 1)]
    gens = [(index[s], row(map(index.__getitem__, map(itemgetter(*s), perms))))
            for s in swaps]
    return FiniteGroup(_generated_rows(idx, gens, gather))


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

    idx, row, gather, _, _ = _codec(2 * n)
    # the rotation 1 and the reflection n generate
    gens = [(s, row(mul(s, b) for b in range(2 * n))) for s in (1, n)]
    return FiniteGroup(_generated_rows(idx, gens, gather))


def klein_four_group() -> FiniteGroup:
    """(Z/2)^2 composed by XOR, which is the dihedral group of order 4."""
    return dihedral_group(2)


# ---------------------------------------------------------------------------
# standard quandle constructions
# ---------------------------------------------------------------------------

def dihedral_quandle(n: int) -> FiniteQuandle:
    """The dihedral quandle R_n: i * j = 2j - i (mod n).  Row i is every
    other entry of 0..n-1 repeated three times, from entry n - i on."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"order must be a positive int, got {n!r}")
    tripled = _codec(n)[0] * 3
    table = tuple(tuple(tripled[n - i:3 * n - i:2]) for i in range(n))
    return FiniteQuandle._trusted(table, n)


def conj_quandle(g: FiniteGroup) -> FiniteQuandle:
    """A group under conjugation: a * b = b^-1 a b.  Column b is row b^-1
    gathered through column b."""
    gather = _codec(g.size)[2]
    cols = [gather(col, g._rows[g.inverse[b]]) for b, col in enumerate(g._cols)]
    return FiniteQuandle._trusted(tuple(zip(*cols)), g.size)


def core_quandle(g: FiniteGroup) -> FiniteQuandle:
    """The core quandle of a group: a * b = b a^-1 b.  Column b is the
    inverse map gathered through row b, then through column b."""
    _, row, gather, _, _ = _codec(g.size)
    inverse = row(g.inverse)
    cols = [gather(col, gather(g._rows[b], inverse)) for b, col in enumerate(g._cols)]
    return FiniteQuandle._trusted(tuple(zip(*cols)), g.size)


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


def alexander_quandle(ring: LaurentQuotientRing) -> FiniteQuandle:
    """The Alexander quandle a * b = t a + (1 - t) b on the ring's elements,
    the coefficient vectors with the t^0 coefficient varying fastest:
    element i has coefficient k equal to digit k of i in base n.

    The table is built from the one linear map it uses, multiplication by t,
    and the addition rows y -> x + y of the group (Z/n)^d, generated by the
    unit vectors e_k: adding e_k, index n^k, rotates each block of n^(k+1)
    indices by n^k.  On coefficient vectors, t is the companion map of the
    monic h: shift every coefficient up one degree, then subtract the
    overflowing top coefficient times h.  Writing a * b = t a + (b - t b),
    t a and b - t b are computed once per element, and row a is the
    sequence of the b - t b gathered through the addition row of t a."""
    n, h, d = ring.modulus, ring.h, ring.degree
    size, top = n ** d, n ** (d - 1)
    idx, row, gather, join, _ = _codec(size)
    units = [(s, join(idx[b + s:b + s * n] + idx[b:b + s] for b in range(0, size, s * n)))
             for s in (n ** k for k in range(d))]
    add = _generated_rows(idx, units, gather)
    # t v is v's low digits shifted up one place plus -c h, c v's top digit
    minus_h = [sum((-c * hk) % n * n ** k for k, hk in enumerate(h[:d])) for c in range(n)]
    times_t = [add[minus_h[i // top]][i % top * n] for i in range(size)]
    # b - t b is the y with t b + y = b
    rest = row(add[tb].index(b) for b, tb in enumerate(times_t))
    table = tuple(tuple(gather(add[ta], rest)) for ta in times_t)
    return FiniteQuandle._trusted(table, size)


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
    return FiniteQuandle._trusted(tuple(map(tuple, table)), len(vectors))
