"""Exact finite continued fractions [k1; k2, ..., kn] and their bijection
with the rationals.

The admissible lists have integer k1, positive k2..kn, and kn > 1 whenever
n >= 2 (integers are just [k1], so the final constraint cannot apply there).
Expansion uses floor, never truncation, so negative rationals expand the way
"greatest integer not exceeding" dictates.  No floating point anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[Fraction, int]

_CF_RE = re.compile(r"^\[\s*([+-]?\d+)\s*(?:;(.*))?\]$")


def cf_validate(terms: Sequence[int]) -> bool:
    """True iff the list satisfies the continued-fraction constraints.
    An empty list is an error, not merely invalid."""
    terms = list(terms)
    if not terms:
        raise ValueError("a continued fraction has at least one term")
    if any(type(k) is not int for k in terms):  # not bool, float or str
        return False
    if any(k < 1 for k in terms[1:]):
        return False
    if len(terms) >= 2 and terms[-1] == 1:
        return False
    return True


@dataclass(frozen=True)
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


def cf_expand(r: Rational) -> ContinuedFraction:
    """Expand a rational by the floor algorithm: k = floor(r), recurse on the
    reciprocal of the remainder until it vanishes.  This is Euclid's
    algorithm on the numerator and the (positive) denominator, so each term
    is one integer divmod.

    The step count is Euclidean, at most 2*bit_length(denominator) + 2.
    """
    if isinstance(r, int):
        p, q = r, 1
    elif isinstance(r, Fraction):
        p, q = r.numerator, r.denominator
    else:
        raise TypeError(f"cf_expand takes an int or a Fraction, not {type(r).__name__}")
    budget = 2 * q.bit_length() + 2
    terms: list[int] = []
    while True:
        k, rem = divmod(p, q)
        terms.append(k)
        assert len(terms) <= budget, "continued-fraction expansion exceeded Euclidean bound"
        if rem == 0:
            break
        p, q = q, rem
    return ContinuedFraction(tuple(terms))


def cf_eval(cf: Union[ContinuedFraction, Sequence[int]]) -> Fraction:
    """Evaluate k1 + 1/(k2 + 1/(... + 1/kn)) exactly.  Raw term lists are
    validated first; invalid lists (e.g. a trailing 1 with n >= 2) are
    errors.

    Runs the convergent recurrence h_i = a_i h_(i-1) + h_(i-2) over the terms
    a_i, and the same for the denominators k_i, on plain ints; the value is
    the last convergent h_n/k_n.
    """
    if not isinstance(cf, ContinuedFraction):
        cf = ContinuedFraction(tuple(cf))
    h, h_prev, k, k_prev = 1, 0, 0, 1
    for a in cf.terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return Fraction(h, k)
