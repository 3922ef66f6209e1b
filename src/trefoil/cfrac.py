"""Exact finite continued fractions [k1; k2, ..., kn] and their bijection
with the rationals.

The admissible lists have integer k1, positive k2..kn, and kn > 1 whenever
n >= 2 (integers are just [k1], so the final constraint cannot apply there).
Expansion uses floor, never truncation, so negative rationals expand the way
"greatest integer not exceeding" dictates.  No floating point anywhere.

Both directions are integer kernels sized for rationals of many thousands
of bits: expansion is Euclid's algorithm, batched on the leading bits of
long pairs (Lehmer), and evaluation multiplies the term matrices
[[k, 1], [1, 0]] as a balanced product tree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence, Union

from ._trusted import coprime_fraction, value_type
from .pfrac import PFrac

Rational = Union[Fraction, int, PFrac]

_CF_RE = re.compile(r"^\[\s*([+-]?\d+)\s*(?:;(.*))?\]$")


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
    def from_json(cls, data: dict) -> "ContinuedFraction":
        return cls(tuple(data["terms"]))

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
            terms.extend(int(part.strip()) for part in tail.split(","))
        return cls(tuple(terms))


# Below this many denominator bits one divmod per term is faster than a
# batch: the two cost the same per term at 2000-3000 bits (CPython 3.11,
# x86-64), where a batch costs about 0.6 us per term.
_BATCH_MIN_BITS = 2048
# A batch runs Euclid on the top bits of the pair and keeps a quotient while
# the truncated remainder has more than half of them; 384 to 768 bits
# measure the same.
_BATCH_TOP_BITS = 512
_BATCH_KEEP = 1 << _BATCH_TOP_BITS // 2
# Most terms per leaf of cf_eval's product tree: leaves of 16 to 128 terms
# measure the same, 8 is about 15% slower (CPython 3.11, x86-64).
_TREE_LEAF = 32


def cf_expand(r: Rational) -> ContinuedFraction:
    """Expand a rational (an int, a Fraction or a finite PFrac) by the floor
    algorithm: k = floor(r), recurse on the reciprocal of the remainder
    until it vanishes.  This is Euclid's algorithm on the numerator and the
    (positive) denominator.

    The first term is one divmod.  After it the pair (p, q) has p > q >= 0,
    and while q is large the terms come in batches (Lehmer 1938): Euclid on
    the top bits of p and q proposes quotients b_1..b_m, kept while the
    truncated remainder is still long, and their convergent matrix
    M = [[h_m, h_(m-1)], [k_m, k_(m-1)]] is applied to the whole pair as
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
        if not r.q:
            raise ValueError("1/0 is not a finite rational")
        p, q = r.p, r.q
    elif isinstance(r, (int, Fraction)):
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
    this is the single quotient of one divmod."""
    shift = p.bit_length() - _BATCH_TOP_BITS
    a, b = p >> shift, q >> shift
    quotients: list[int] = []
    keep, append = _BATCH_KEEP, quotients.append
    while b >= keep:
        t, rem = divmod(a, b)
        if rem < keep:
            break
        append(t)
        a, b = b, rem
    # (x, y) = M^-1 (p, q), where det M = (-1)^m
    h, h_prev, k, k_prev = _convergents(quotients)
    x, y = k_prev * p - h_prev * q, h * q - k * p
    if len(quotients) % 2:
        x, y = -x, -y
    while not x > y >= 0:
        x, y = quotients.pop() * x + y, x
    if not quotients:
        t, rem = divmod(p, q)
        return [t], q, rem
    return quotients, x, y


def _convergents(terms: Sequence[int]) -> tuple[int, int, int, int]:
    """The product of the matrices [[a, 1], [1, 0]] over the terms, row by
    row, [[h_n, h_(n-1)], [k_n, k_(n-1)]], by the convergent recurrence
    h_i = a_i h_(i-1) + h_(i-2) and the same for k_i."""
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, h_prev, k, k_prev


def cf_eval(cf: Union[ContinuedFraction, Sequence[int]]) -> Fraction:
    """Evaluate k1 + 1/(k2 + 1/(... + 1/kn)) exactly.  Raw term lists are
    validated first; invalid lists (e.g. a trailing 1 with n >= 2) are
    errors.

    The value is h_n/k_n, read off the product of the matrices
    [[a_i, 1], [1, 0]] over the terms a_i, which is
    [[h_n, h_(n-1)], [k_n, k_(n-1)]].  The product is a balanced tree
    (Bernstein 2008, "Fast multiplication and its applications"), so its
    large products are of equal-sized factors; each leaf is a run of terms
    multiplied out by the convergent recurrence.  The product has
    determinant h_n k_(n-1) - h_(n-1) k_n = +-1 and k_n > 0, so h_n/k_n is
    already in lowest terms and is built without a gcd.
    """
    if not isinstance(cf, ContinuedFraction):
        cf = ContinuedFraction(tuple(cf))
    h, _, k, _ = _product(cf.terms)
    return coprime_fraction(h, k)


def _product(terms: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The matrix product over the terms, as _convergents gives it, split in
    halves down to leaves of at most _TREE_LEAF terms (depth log2 of the
    number of leaves)."""
    if len(terms) <= _TREE_LEAF:
        return _convergents(terms)
    mid = len(terms) // 2
    a, b, c, d = _product(terms[:mid])
    e, f, g, h = _product(terms[mid:])
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
