"""Reference answers computed on plain integers, independently of trefoil.

The benchmark checks every item against these, so an expected value never
comes from the function being measured.  Fractions are (p, q) int pairs in
the canonical projective sign: q > 0, or (p, q) = (1, 0).
"""

from __future__ import annotations

from math import gcd


def canon(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return p, q


def op_pow(x: tuple[int, int], y: tuple[int, int], k: int) -> tuple[int, int]:
    """x * y^k by the transvection formula (a - kDc, b - kDd), D = ad - bc."""
    (a, b), (c, d) = x, y
    det = a * d - b * c
    return canon(a - k * det * c, b - k * det * d)


def op(x, y):
    return op_pow(x, y, 1)


def op_inv(x, y):
    return op_pow(x, y, -1)


def word_value(word: str) -> tuple[int, int]:
    """A word's image in the fraction quandle: a -> 0/1, b -> 1/0, each tail
    letter acting by * (lowercase) or its inverse (uppercase)."""
    gens = {"a": (0, 1), "b": (1, 0)}
    x = gens[word[0]]
    for ch in word[1:]:
        x = op_pow(x, gens[ch.lower()], 1 if ch.islower() else -1)
    return x


def cf_terms(p: int, q: int) -> tuple[int, ...]:
    """Floor continued-fraction terms of p/q (q > 0) by integer Euclid."""
    terms = []
    while q:
        k, r = divmod(p, q)
        terms.append(k)
        p, q = q, r
    return tuple(terms)


def cf_value(terms) -> tuple[int, int]:
    """Evaluate [k1; k2, ..., kn] by the convergent recurrence."""
    p, q, p_prev, q_prev = terms[0], 1, 1, 0
    for k in terms[1:]:
        p, q, p_prev, q_prev = k * p + p_prev, k * q + q_prev, p, q
    return canon(p, q)


def normal_form_exponents(x: tuple[int, int]) -> tuple[int, ...]:
    """The normal-form exponent vector of a fraction: () for 1/0, else the
    continued-fraction terms."""
    p, q = x
    return () if q == 0 else cf_terms(p, q)


def render_normal_form(e: tuple[int, ...]) -> str:
    """Render an exponent vector the way the word normal form prints."""
    special = {(): "b", (0,): "a", (1,): "ab", (-1,): "ba"}
    if e in special:
        return special[e]
    parts = ["a" if len(e) % 2 else "b"]
    for i in range(len(e), 1, -1):
        parts.append(("A" if i % 2 == 0 else "b") * e[i - 1])
    parts.append("b" * e[0] if e[0] >= 0 else "B" * -e[0])
    return "".join(parts)


def frac_text(x: tuple[int, int]) -> str:
    return f"{x[0]}/{x[1]}"


def cf_text(terms) -> str:
    head, tail = terms[0], terms[1:]
    return f"[{head};{','.join(map(str, tail))}]" if tail else f"[{head}]"


def matrix_text(y: tuple[int, int]) -> str:
    c, d = y
    return f"[[{1 - d * c},{c * c}],[{-d * d},{1 + d * c}]]"


def orbit_box_size(bound: int) -> int:
    """Canonical primitive pairs with |p|, |q| <= bound: 1/0 plus the p/q
    with 1 <= q <= bound, |p| <= bound, gcd(|p|, q) = 1."""
    return 1 + sum(
        1 for q in range(1, bound + 1) for p in range(-bound, bound + 1) if gcd(p, q) == 1
    )
