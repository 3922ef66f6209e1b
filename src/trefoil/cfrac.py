"""Exact finite continued fractions [k1; k2, ..., kn] and their bijection
with the rationals.

The admissible lists have integer k1, positive k2..kn, and kn > 1 whenever
n >= 2 (integers are just [k1], so the final constraint cannot apply there).
Expansion uses floor, never truncation, so negative rationals expand the way
"greatest integer not exceeding" dictates.  No floating point anywhere.

Both directions are integer kernels sized for rationals of many thousands
of bits, and each forms only the products it keeps.  Expansion is Euclid's
algorithm, batched on the leading bits of long pairs (Lehmer).  Euclid on
the top bits (A, B) of the pair carries only the bottom row of the batch's
convergent matrix M = [[h_m, h_(m-1)], [k_m, k_(m-1)]]; the top row follows
exactly from the window pair (a, b) after the batch and s = det M = (-1)^m:

    h_m = (A k_m + s b) / B,    h_(m-1) = (A - h_m a) / b.

Proof: (A, B) = M (a, b) reads A = h_m a + h_(m-1) b and
B = k_m a + k_(m-1) b.  With h_(m-1) k_m = h_m k_(m-1) - s,
A k_m = h_m (k_m a + k_(m-1) b) - s b = h_m B - s b, and the second is the
first row solved for h_(m-1).  Evaluation multiplies the term matrices
[[k, 1], [1, 0]] as a balanced product tree, and forms only its first
column (h_n, k_n) along the tree's right spine.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

from ._trusted import coprime_fraction, value_type
from .pfrac import PFrac

Rational = Union[Fraction, int, PFrac]

_CF_RE = re.compile(r"^\[\s*([+-]?\d+)\s*(?:;(.*))?\]$")
_CF_TERM = re.compile(r"\s*[+-]?\d+\s*")


def cf_validate(terms: Sequence[int]) -> bool:
    """True iff the list satisfies the continued-fraction constraints.
    An empty list is an error, not merely invalid."""
    terms = tuple(terms)
    if not terms:
        raise ValueError("a continued fraction has at least one term")
    if type(terms[0]) is not int:  # not bool, float or str
        return False
    for k in terms[1:]:
        if type(k) is not int or k < 1:
            return False
    return len(terms) == 1 or terms[-1] != 1


@value_type
class ContinuedFraction:
    """A validated finite continued fraction."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.terms, PFrac):  # a point is a pair, not two terms
            raise TypeError("continued fraction terms must be a sequence of ints, not a PFrac")
        terms = tuple(self.terms)
        if not cf_validate(terms):
            raise ValueError(f"invalid continued fraction terms {list(terms)}")
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        head = str(self.terms[0])
        if len(self.terms) == 1:
            return f"[{head}]"
        return f"[{head};{','.join(str(k) for k in self.terms[1:])}]"

    def to_json(self) -> dict:
        return {"terms": list(self.terms)}

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        m = _CF_RE.match(text.strip())
        if not m:
            raise ValueError(f"not a continued fraction: {text!r}")
        terms = [int(m.group(1))]
        if m.group(2) is not None:
            tail = m.group(2).strip()
            if not tail:
                raise ValueError(f"empty tail in {text!r}")
            for part in tail.split(","):
                if not _CF_TERM.fullmatch(part):
                    raise ValueError(f"bad term {part.strip()!r} in {text!r}")
                terms.append(int(part))
        return cls(tuple(terms))


# Below this many denominator bits one divmod per term is faster than a
# batch: cut-offs of 1280 and 1536 bits measure the same, 1024 is 2-4%
# slower on expansions of 1280-2560 bits and 2048 about 9% slower at 2048
# bits (CPython 3.11.7, x86-64).
_BATCH_MIN_BITS = 1536
# A batch runs Euclid on the top bits of the pair and keeps a quotient while
# the truncated remainder has more than half of them; 384 to 768 bits
# measure the same.
_BATCH_TOP_BITS = 512
_BATCH_KEEP = 1 << _BATCH_TOP_BITS // 2
# Most terms per leaf of cf_eval's product tree: leaves of 96 and 128 terms
# measure the same, 32 is 4-7% slower and 192 3-5% slower from 2^12 bits
# on (CPython 3.11.7, x86-64).
_TREE_LEAF = 128


def cf_expand(r: Rational) -> ContinuedFraction:
    """Expand a rational (an int, a Fraction or a finite PFrac) by the floor
    algorithm: k = floor(r), recurse on the reciprocal of the remainder
    until it vanishes.  This is Euclid's algorithm on the numerator and the
    (positive) denominator.

    The first term is one divmod.  After it the pair (p, q) has p > q >= 0,
    and while q is large the terms come in batches (Lehmer 1938): Euclid on
    the top bits of p and q proposes quotients b_1..b_m, kept while the
    truncated remainder is still long, and their convergent matrix
    M = [[h_m, h_(m-1)], [k_m, k_(m-1)]], its top row recovered from its
    bottom row as _euclid_batch proves, is applied to the whole pair as
    (x, y) = M^-1 (p, q).  The batch is checked by

        Lemma.  For p > q > 0 and positive b_1..b_m, these are the first m
        quotients of Euclid's algorithm on (p, q) iff x > y >= 0, and then
        (x, y) is the pair after those m steps.

    (If x > y >= 0, p/q = [b_1; ..., b_m, x/y] with a tail above 1, so each
    floor is b_i; conversely Euclid's pairs satisfy x > y >= 0 and M is
    invertible.)  The condition holds for a prefix whenever it holds for
    the whole, so trailing quotients are dropped, (x, y) <- (b x + y, x),
    until it holds.  A batch that keeps nothing (the next quotient is too
    long to read off the top bits) takes one plain divmod step instead.
    Once q is short, each term is one divmod.

    The step count is Euclidean, at most 2*bit_length(denominator) + 2.
    The terms are valid by construction: after the first divmod every pair
    has p > q > 0, so each later term p // q is positive, and the last one,
    where q divides p, is at least 2.
    """
    if isinstance(r, PFrac):
        p, q = r
        if not q:
            raise ValueError("1/0 is not a finite rational")
    elif type(r) is int or isinstance(r, Fraction):
        p, q = r.numerator, r.denominator
    else:
        raise TypeError(f"cf_expand takes an int, a Fraction or a PFrac, not {type(r).__name__}")
    budget = 2 * q.bit_length() + 2
    k, rem = divmod(p, q)
    terms: list[int] = [k]
    p, q = q, rem
    while q.bit_length() > _BATCH_MIN_BITS:
        quotients, p, q = _euclid_batch(p, q)
        terms.extend(quotients)
        assert len(terms) <= budget, "continued-fraction expansion exceeded Euclidean bound"
    while q:
        k, rem = divmod(p, q)
        terms.append(k)
        assert len(terms) <= budget, "continued-fraction expansion exceeded Euclidean bound"
        p, q = q, rem
    return ContinuedFraction._trusted(tuple(terms))


def _euclid_batch(p: int, q: int) -> tuple[list[int], int, int]:
    """The next Euclidean quotients of p > q > 0 read off the top bits, with
    the pair after them.  When the top bits make not one quotient certain,
    this is the single quotient of one divmod.

    Euclid on the window (A, B) of top bits carries only the bottom row
    (k_m, k_(m-1)) of the convergent matrix M = [[h_m, h_(m-1)],
    [k_m, k_(m-1)]]; the top row is recovered from the window pair (a, b)
    after the m steps and s = det M = (-1)^m as

        h_m = (A k_m + s b) / B,    h_(m-1) = (A - h_m a) / b,

    both divisions exact.  (A, B) = M (a, b) gives A = h_m a + h_(m-1) b and
    B = k_m a + k_(m-1) b, so A k_m = h_m a k_m + h_(m-1) k_m b, and
    h_(m-1) k_m = h_m k_(m-1) - s turns this into h_m B - s b; the second
    is A = h_m a + h_(m-1) b solved for h_(m-1), with b > 0 as the last step
    kept a remainder of at least _BATCH_KEEP.
    """
    shift = p.bit_length() - _BATCH_TOP_BITS
    top, bottom = a, b = p >> shift, q >> shift
    quotients: list[int] = []
    k, k_prev = 0, 1
    keep, append = _BATCH_KEEP, quotients.append
    while b >= keep:
        t, rem = divmod(a, b)
        if rem < keep:
            break
        append(t)
        a, b = b, rem
        k, k_prev = t * k + k_prev, k
    if quotients:
        s = -1 if len(quotients) % 2 else 1
        h = (top * k + s * b) // bottom
        h_prev = (top - h * a) // b
        # (x, y) = M^-1 (p, q) = s [[k_(m-1), -h_(m-1)], [-k_m, h_m]] (p, q)
        x, y = s * (k_prev * p - h_prev * q), s * (h * q - k * p)
        while not x > y >= 0:
            x, y = quotients.pop() * x + y, x
        if quotients:
            return quotients, x, y
    t, rem = divmod(p, q)
    return [t], q, rem


def cf_eval(cf: Union[ContinuedFraction, Sequence[int]]) -> Fraction:
    """Evaluate k1 + 1/(k2 + 1/(... + 1/kn)) exactly.  Raw term lists are
    validated first; invalid lists (e.g. a trailing 1 with n >= 2) are
    errors.

    The value is h_n/k_n, read off the product of the matrices
    [[a_i, 1], [1, 0]] over the terms a_i, which is
    [[h_n, h_(n-1)], [k_n, k_(n-1)]].  The product is a balanced tree
    (Bernstein 2008, "Fast multiplication and its applications"), so its
    large products are of equal-sized factors.  Only its first column
    (h_n, k_n) is formed: along the right spine of the tree each node is the
    left half's whole product times the right half's first column, and the
    rightmost leaf is folded from the last term, (h, k) <- (a h + k, h).
    The product has determinant h_n k_(n-1) - h_(n-1) k_n = +-1 and k_n > 0,
    so h_n/k_n is already in lowest terms and is built without a gcd.
    """
    if not isinstance(cf, ContinuedFraction):
        cf = ContinuedFraction(cf)
    h, k = _column(cf.terms, 0, len(cf.terms))
    return coprime_fraction(h, k)


def _column(terms: tuple[int, ...], lo: int, hi: int) -> tuple[int, int]:
    """The first column (h, k) of the matrix product over terms[lo:hi]."""
    if hi - lo <= _TREE_LEAF:
        h, k = 1, 0
        for a in reversed(terms[lo:hi]):
            h, k = a * h + k, h
        return h, k
    mid = (lo + hi) // 2
    a, b, c, d = _product(terms, lo, mid)
    e, g = _column(terms, mid, hi)
    return a * e + b * g, c * e + d * g


def _product(terms: tuple[int, ...], lo: int, hi: int) -> tuple[int, int, int, int]:
    """The matrix product over terms[lo:hi], row by row, split in halves
    down to leaves of at most _TREE_LEAF terms, each multiplied out by the
    convergent recurrence h_i = a_i h_(i-1) + h_(i-2), and the same for
    k_i."""
    if hi - lo <= _TREE_LEAF:
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for a in terms[lo:hi]:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        return h, h_prev, k, k_prev
    mid = (lo + hi) // 2
    a, b, c, d = _product(terms, lo, mid)
    e, f, g, h = _product(terms, mid, hi)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
