"""The self-certification suite: every exit criterion of the build, runnable
as a library call, from the CLI (``trefoil selftest``) and from pytest.

Each criterion is a function returning (ok, detail); one that raises fails
with the exception as its detail.  All sampling uses fixed seeds, so runs
are reproducible.  Criterion 10 asserts a claim that
computation refutes; it is reported REFUTED-AS-EXPECTED, and keeps the run
green, only when it fails with the computed counterexample.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, TextIO

from .braid import BraidElement, braid_eq, longitude, meridian
from .cfrac import _TREE_LEAF, ContinuedFraction, cf_eval, cf_expand, cf_validate
from .longknot import (
    CoveredElement,
    fiber_compare,
    lambda_act,
    pi1_act,
    qt_new,
    qt_op,
    qt_op_inv,
)
from .pfrac import (
    PF_INFINITY,
    PF_ZERO,
    PFrac,
    TransvectionMatrix,
    apply_matrix,
    orbit_bfs,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    projectivize,
    sympl_op,
    sympl_op_inv,
    transvection_matrix,
)
from .quandle import (
    LaurentQuotientRing,
    alexander_quandle,
    check_quandle,
    check_rack,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    form_is_alternating,
    form_is_antisymmetric,
    klein_four_group,
    module_vectors,
    symmetric_group,
    transvection_quandle,
)
from .words import (
    QWord,
    frac_to_word,
    normal_form_valid,
    normalize,
    parse_word,
    word_op,
    word_op_inv,
    word_to_frac,
)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_pfrac(rng: random.Random, bound: int) -> PFrac:
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if (p, q) != (0, 0):
            return pf_new(p, q)


def random_qword(rng: random.Random, max_tail: int) -> QWord:
    base = rng.choice("ab")
    tail = "".join(rng.choice("abAB") for _ in range(rng.randint(0, max_tail)))
    return QWord(base, tail)


def random_zero_braid(rng: random.Random, length: int) -> BraidElement:
    """A braid word of the given even length with exponent sum zero."""
    if length % 2:
        raise ValueError("exponent-zero words have even length")
    signs = [1] * (length // 2) + [-1] * (length // 2)
    rng.shuffle(signs)
    return BraidElement.parse("".join(rng.choice("ab" if s > 0 else "AB") for s in signs))


def random_braid_text(rng: random.Random, max_len: int) -> str:
    """A raw braid text of up to max_len letters a, b, A = a^-1 and B = b^-1."""
    return "".join(rng.choice("abAB") for _ in range(rng.randint(0, max_len)))


def random_braid(rng: random.Random, max_len: int) -> BraidElement:
    """A braid word of up to max_len letters with any exponent sum."""
    return BraidElement.parse(random_braid_text(rng, max_len))


def sample_covered_pool(rng: random.Random, count: int, max_len: int) -> list[CoveredElement]:
    """Distinct covered elements built over random exponent-zero words."""
    pool: list[CoveredElement] = []
    seen = set()
    lengths = [n for n in range(0, max_len + 1, 2)]
    while len(pool) < count:
        el = qt_new(random_zero_braid(rng, rng.choice(lengths)))
        if el not in seen:
            seen.add(el)
            pool.append(el)
    return pool


# ---------------------------------------------------------------------------
# routes: a plain tuple (name, encode, op, op_inv, key) for each realization
# of a quandle; encode turns a sample into route values, and key sends a
# route value to the value of the reference (op, op_inv, key) it stands for
# ---------------------------------------------------------------------------

def _sole(sample):
    return (sample,)


def _itself(value):
    return value


def _adjugate_op(x: PFrac, y: PFrac) -> PFrac:
    # criterion 2 has checked the determinant of every y's matrix
    m = transvection_matrix(y)
    return apply_matrix(TransvectionMatrix._trusted(m.d, -m.b, -m.c, m.a), x)


def _word_image(w: QWord) -> Optional[PFrac]:
    """The image of w by evaluation if its normal form is the image's."""
    image = word_to_frac(w)
    return image if normalize(w) == frac_to_word(image) else None


_FRACTION_REFERENCE = (pf_op, pf_op_inv, _itself)
# routes whose samples are fractions
_FRACTION_ROUTES = [
    ("transvection matrices", _sole,
     lambda x, y: apply_matrix(transvection_matrix(y), x), _adjugate_op, _itself),
    ("symplectic sign lifts", lambda x: ((x.p, x.q), (-x.p, -x.q)),
     sympl_op, sympl_op_inv, projectivize),
]
# routes whose samples are raw words
_WORD_ROUTES = [
    ("words", _sole, word_op, word_op_inv, _word_image),
]

_M, _M_INV = meridian(), meridian().inv()
# both slots by exponent sum and t = -1 image, not by Garside form
_COVERED_REFERENCE = (qt_op, qt_op_inv, lambda p: (p.g.eps, p.g.image, p.x.eps, p.x.image))
# the displayed second slots, made covered elements by the public
# constructor, which sets x = g'^-1 m g' afresh
_COVERED_ROUTES = [
    ("g' x^-1 y", _sole,
     lambda p, q: CoveredElement(p.g * p.x.inv() * q.x),
     lambda p, q: CoveredElement(p.g * p.x * q.x.inv()), _itself),
    ("m^-1 g' h'^-1 m h'", _sole,
     lambda p, q: CoveredElement(_M_INV * p.g * q.g.inv() * _M * q.g),
     lambda p, q: CoveredElement(_M * p.g * q.g.inv() * _M_INV * q.g), _itself),
]


def _covering_map(p: CoveredElement) -> PFrac:
    """The point 0/1 moved by g' letter by letter, a as *0/1 and b as *1/0:
    -c/d for the t = -1 image [[a, b], [c, d]] of g'."""
    _, _, c, d = p.g.image
    return pf_new(-c, d)


# the long trefoil's own operations, sampled on covered elements and mapped
# into the fraction quandle
_COVERING_ROUTE = [("covering map", _sole, qt_op, qt_op_inv, _covering_map)]


def _routes_agree(reference, routes, pairs,
                  canonical: bool = True) -> tuple[Optional[str], dict[str, int]]:
    """The first failure on the sampled pairs, else None; and the number of
    value pairs each route checked.  On route values u and v standing for x
    and y, op(u, v) and op_inv(u, v) must stand, under the reference's key,
    for x * y and x *̄ y, and op_inv(op(u, v), v) must undo op: be u itself
    when route values are canonical, else stand for x, as raw words do,
    whose key is exact on their quandle."""
    ref_op, ref_op_inv, same = reference
    checked = dict.fromkeys((route[0] for route in routes), 0)
    for (name, encode, op, op_inv, key), (s, t) in itertools.product(routes, pairs):
        for u, v in itertools.product(encode(s), encode(t)):
            x, y = key(u), key(v)
            w = op(u, v)
            if (same(key(w)), same(key(op_inv(u, v)))) != (same(ref_op(x, y)),
                                                           same(ref_op_inv(x, y))):
                return f"the {name} route and the reference disagree at {s}, {t}", checked
            undone = op_inv(w, v)
            undoes = undone == u if canonical else same(key(undone)) == same(x)
            if not undoes:
                return f"the {name} route's inverse does not undo it at {u}, {v}", checked
            checked[name] += 1
    return None, checked


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _criterion_worked_identities() -> tuple[bool, str]:
    chain = [
        (PF_ZERO, PF_INFINITY, pf_new(1, 1)),
        (pf_new(1, 1), PF_ZERO, PF_INFINITY),
        (PF_INFINITY, PF_ZERO, pf_new(-1, 1)),
        (pf_new(-1, 1), PF_INFINITY, PF_ZERO),
    ]
    bad = [f"{x} * {y} = {pf_op(x, y)} != {want}" for x, y, want in chain
           if pf_op(x, y) != want]
    if bad:
        return False, "; ".join(bad)
    return True, f"both displayed product chains reproduce exactly ({len(chain)} products)"


def _criterion_transvection_matrices() -> tuple[bool, str]:
    m_b = transvection_matrix(PF_INFINITY)
    m_a = transvection_matrix(PF_ZERO)
    if m_b.rows() != [[1, 1], [0, 1]]:
        return False, f"matrix of *(1/0) is {m_b}, expected [[1,1],[0,1]]"
    if m_a.rows() != [[1, 0], [-1, 1]]:
        return False, f"matrix of *(0/1) is {m_a}, expected [[1,0],[-1,1]]"
    rng = random.Random(1002)
    bound = 1000
    pairs = [(random_pfrac(rng, bound), random_pfrac(rng, bound)) for _ in range(10_000)]
    for _, y in pairs:
        m = transvection_matrix(y)
        if m.det() != 1:
            return False, f"det of matrix for {y} is {m.det()}"
    # the fraction quandle is the projection of the symplectic operation on Z⊕Z
    failure, checked = _routes_agree(_FRACTION_REFERENCE, _FRACTION_ROUTES, pairs)
    if failure:
        return False, failure
    return True, (f"exact generators; {checked['transvection matrices']} random pairs with "
                  f"|p|,|q| <= {bound}: the matrix and its adjugate act as * and *̄, "
                  f"every determinant 1; on their {checked['symplectic sign lifts']} sign "
                  f"lifts to Z⊕Z the symplectic operation and its inverse project to * "
                  f"and *̄; on both, the inverse undoes the operation")


_ALEXANDER_RINGS = [
    (2, (1, 1)),            # order 2
    (3, (1, 1)),            # order 3
    (2, (1, 1, 1)),         # order 4
    (5, (3, 1)),            # order 5
    (7, (2, 1)),            # order 7
    (2, (1, 1, 0, 1)),      # order 8
    (3, (1, 0, 1)),         # order 9
    (4, (1, 1)),            # order 4, composite modulus
    (2, (1, 1, 0, 0, 1)),   # order 16
    (5, (2, 0, 1)),         # order 25
    (3, (1, 2, 0, 1)),      # order 27
    (2, (1, 0, 1, 0, 0, 1)),  # order 32
    (2, (1, 1, 0, 0, 0, 0, 1)),  # order 64
]


def _conj_core_groups():
    groups = [cyclic_group(n) for n in range(1, 25)]
    groups += [symmetric_group(3), symmetric_group(4), klein_four_group(),
               dihedral_group(4), dihedral_group(6), dihedral_group(12)]
    return groups


def _sampled_axioms(name: str, op, op_inv, triples) -> Optional[str]:
    """The first failure on the sampled triples (x, y, z) of idempotence, of
    *̄ undoing * either way round, or of right distributivity, else None."""
    for x, y, z in triples:
        if op(x, x) != x:
            return f"{name} idempotence fails at {x}"
        xy = op(x, y)
        if op_inv(xy, y) != x or op(op_inv(x, y), y) != x:
            return f"{name} inverse operation fails at {x}, {y}"
        if op(xy, z) != op(op(x, z), op(y, z)):
            return f"{name} distributivity fails at {x}, {y}, {z}"
    return None


def _criterion_axioms() -> tuple[bool, str]:
    checked = {"dihedral": 0, "alexander": 0, "conj": 0, "core": 0}
    largest = dict.fromkeys(checked, 0)
    cells = 0

    def is_quandle(family: str, q) -> bool:
        nonlocal cells
        checked[family] += 1
        largest[family] = max(largest[family], q.size)
        cells += q.size ** 3
        return check_quandle(q).is_quandle

    for n in range(1, 65):
        if not is_quandle("dihedral", dihedral_quandle(n)):
            return False, f"dihedral quandle of order {n} failed"
    for modulus, h in _ALEXANDER_RINGS:
        ring = LaurentQuotientRing(modulus, h)
        assert ring.size <= 64
        if not is_quandle("alexander", alexander_quandle(ring)):
            return False, f"alexander quandle over Z/{modulus} mod {list(h)} failed"
    for g in _conj_core_groups():
        assert g.size <= 24
        if not is_quandle("conj", conj_quandle(g)):
            return False, f"conjugation quandle of group order {g.size} failed"
        if not is_quandle("core", core_quandle(g)):
            return False, f"core quandle of group order {g.size} failed"

    fraction_triples, covered_triples = 10_000, 10_000
    rng = random.Random(1003)
    triples = [(random_pfrac(rng, 10**6), random_pfrac(rng, 10**6), random_pfrac(rng, 10**6))
               for _ in range(fraction_triples)]
    failure = _sampled_axioms("fraction", pf_op, pf_op_inv, triples)
    if failure:
        return False, failure
    pool = sample_covered_pool(rng, 24, 12)
    triples = [(pool[rng.randrange(24)], pool[rng.randrange(24)], pool[rng.randrange(24)])
               for _ in range(covered_triples)]
    # the pool's products repeat, so each is computed once
    failure = _sampled_axioms("covered-quandle", cache(qt_op), cache(qt_op_inv), triples)
    if failure:
        return False, failure
    families = ", ".join(f"{checked[f]} {f} (order <= {largest[f]})" for f in checked)
    return True, (f"exhaustive: {families}, {cells} cells decided (n^3 per quandle); "
                  f"randomized: {fraction_triples} fraction triples and {covered_triples} "
                  f"covered triples, zero failures")


def _criterion_isomorphism_certificate() -> tuple[bool, str]:
    rng = random.Random(1004)
    short_words, short_max, long_words, long_len = 1000, 30, 4, 10_000
    words = [random_qword(rng, short_max) for _ in range(short_words)]
    words += [QWord(rng.choice("ab"), "".join(rng.choices("abAB", k=long_len)))
              for _ in range(long_words)]
    letters = 0
    forms, conjugates = set(), set()
    for w in words:
        letters += len(w.tail)
        nf = normalize(w)
        # braids compare by Garside form, not by image
        conjugate = _conjugate(w)
        if _conjugate(nf.to_word()) != conjugate:
            return False, f"rewriting changed the braid conjugate of {w}"
        forms.add(nf)
        conjugates.add(conjugate)
        image = word_to_frac(w)
        if frac_to_word(image) != nf:
            return False, f"the two canonicalization routes disagree on {w}"
        if not normal_form_valid(nf.exponents):
            return False, f"normalize({w}) violates the normal-form constraints"
    if len(conjugates) != len(forms):
        return False, (f"{len(forms)} distinct normal forms have {len(conjugates)} distinct "
                       f"braid conjugates")
    # the word quandle's own operations on consecutive short words
    short = words[:short_words]
    failure, checked = _routes_agree(_FRACTION_REFERENCE, _WORD_ROUTES,
                                     list(zip(short, short[1:])), canonical=False)
    if failure:
        return False, failure
    pairs = checked["words"]
    return True, (f"{short_words} random words of <= {short_max} letters and {long_words} of "
                  f"{long_len} letters ({letters} letters): rewriting is sound, each word "
                  f"having its normal form's braid conjugate in B3 ({len(forms)} distinct "
                  f"normal forms, {len(conjugates)} distinct conjugates); both routes agree, "
                  f"all outputs valid; word_op and word_op_inv on {pairs} consecutive "
                  f"pairs of the short words equal the normal forms of * and *̄ on their "
                  f"images ({2 * pairs} comparisons, each of the normal form and the "
                  f"fraction image), and word_op_inv undoes word_op")


def _conjugate(w: QWord) -> BraidElement:
    """The braid T^-1 g T of B3 for the word w = g.T, with a as sigma_1, b as
    sigma_2 and T the braid of w's tail; w * v is sent to the conjugate of
    w's braid by v's, so the quandle relations hold, as
    sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2.  The map is injective
    on the trefoil quandle: its elements are the cosets of the peripheral
    subgroup <sigma_1, Delta^2>, the centraliser of sigma_1 in B3 (Joyce,
    J. Pure Appl. Algebra 23, 1982; Fenn, Rolfsen and Zhu, Enseign. Math.
    42, 1996).  It reads neither fractions nor rewriting."""
    return BraidElement.parse(w.tail[::-1].swapcase() + w.base + w.tail)


def _cf_fold(terms) -> Fraction:
    """The value of [k1; k2, ..., kn] folded from the last term,
    k + 1/(h/k') = (k h + k')/h, one product per term, and reduced by a
    gcd: a route apart from cfrac's batched expansion and evaluation
    tree."""
    h, k = 1, 0
    for a in reversed(terms):
        h, k = a * h + k, h
    return Fraction(h, k)


def _criterion_continued_fractions() -> tuple[bool, str]:
    bound, term_max, random_lists = 200, 12, 20_000
    fractions = 0
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) != 1:
                continue
            fractions += 1
            r = Fraction(p, q)
            if cf_eval(cf_expand(r)) != r:
                return False, f"eval(expand({p}/{q})) != {p}/{q}"

    # exhaustive over the full coefficient ranges for n <= 4; the literal
    # n <= 8 grid has ~8.6e8 lists, far beyond the runtime budget, so the
    # longer lengths are covered by random draws from the same ranges
    first, middle, last = (range(-term_max, term_max + 1), range(1, term_max + 1),
                           range(2, term_max + 1))
    grid = list(itertools.product(first))
    for n in range(2, 5):
        grid += itertools.product(first, *[middle] * (n - 2), last)
    rng = random.Random(1005)
    drawn = []
    for _ in range(random_lists):
        n = rng.randint(5, 8)
        drawn.append([rng.randint(-term_max, term_max),
                      *(rng.randint(1, term_max) for _ in range(n - 2)), rng.randint(2, term_max)])
    for terms in grid + drawn:
        cf = ContinuedFraction(terms)
        if cf_expand(cf_eval(cf)) != cf:
            return False, f"expand(eval({list(terms)})) != {list(terms)}"

    # the batched expansion and the evaluation tree, against the fold:
    # rationals past the batch threshold, and lists of several tree levels
    big_bits, long_min, long_max = (2**11, 2**13, 2**15), 3 * _TREE_LEAF + 1, 8 * _TREE_LEAF
    big = 0
    for bits in big_bits:
        q = rng.getrandbits(bits) | 1 << bits - 1
        r = Fraction(rng.choice((1, -1)) * rng.getrandbits(bits), q)
        terms = cf_expand(r).terms
        if not cf_validate(terms) or _cf_fold(terms) != r or cf_eval(terms) != r:
            return False, f"the continued fraction of a {bits}-bit rational is off its fold"
        big += 1
    long_lists = 0
    for _ in range(8):
        n = rng.randint(long_min, long_max)
        cf = ContinuedFraction([rng.randint(-term_max, term_max),
                                *(rng.randint(1, term_max) for _ in range(n - 2)),
                                rng.randint(2, term_max)])
        value = cf_eval(cf)
        if value != _cf_fold(cf.terms) or cf_expand(value) != cf:
            return False, f"the value of a {n}-term list is off its fold"
        long_lists += 1
    return True, (f"{fractions} fractions with |p|,|q| <= {bound} round-trip; exhaustive "
                  f"term grid for n <= 4, |k| <= {term_max} ({len(grid)} lists) plus "
                  f"{len(drawn)} random lists for n in 5..8 (full grid infeasible "
                  f"in budget); expansion and evaluation equal the convergent fold on "
                  f"{big} rationals of {', '.join(map(str, big_bits))} bits and {long_lists} "
                  f"lists of {long_min}..{long_max} terms, each round-tripping")


def _criterion_braid_relation() -> tuple[bool, str]:
    rng = random.Random(1006)
    a, b = PF_ZERO, PF_INFINITY
    fractions, bound, words, max_tail = 10_000, 10**6, 100, 30
    for _ in range(fractions):
        x = random_pfrac(rng, bound)
        lhs = pf_op(pf_op(pf_op(x, a), b), a)
        rhs = pf_op(pf_op(pf_op(x, b), a), b)
        if lhs != rhs:
            return False, f"x*a*b*a != x*b*a*b at x = {x}"
    for _ in range(words):
        w = random_qword(rng, max_tail)
        lhs, rhs = w.extended("aba"), w.extended("bab")
        if normalize(lhs) != normalize(rhs) or word_to_frac(lhs) != word_to_frac(rhs):
            return False, f"braid relation fails at word {w}"
    return True, (f"holds on {fractions} random fractions with |p|,|q| <= {bound} and "
                  f"{words} random words of <= {max_tail} letters")


def _criterion_orbit_surjectivity() -> tuple[bool, str]:
    bound = 30
    targets = [PF_INFINITY]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                targets.append(pf_new(p, q))
    report = orbit_bfs(targets, bound=bound)
    if report.unreached:
        return False, f"{len(report.unreached)} targets unreached, e.g. {report.unreached[0]}"
    for target, witness in report.reached.items():
        if word_to_frac(parse_word(witness)) != target:
            return False, f"witness {witness!r} does not evaluate to {target}"
    steps = {"a": (PF_ZERO, pf_op), "A": (PF_ZERO, pf_op_inv),
             "b": (PF_INFINITY, pf_op), "B": (PF_INFINITY, pf_op_inv)}
    edges = 0
    for x, letter, y in report.edges:
        gen, step = steps[letter]
        if step(x, gen) != y:
            return False, f"edge {x} -{letter}-> {y} is not the operation step"
        edges += 1
    return True, (f"all {len(targets)} fractions with |p|,|q| <= {bound} reached; "
                  f"all {len(report.reached)} witness words verify; all {edges} search "
                  f"edges are operation steps by their generator")


def _criterion_power_formulas() -> tuple[bool, str]:
    rng = random.Random(1008)
    pairs, pair_bound, k_max, draws, draw_bound = 1000, 100, 20, 1000, 1000
    powers = 0
    for _ in range(pairs):
        x = random_pfrac(rng, pair_bound)
        y = random_pfrac(rng, pair_bound)
        forward = x
        backward = x
        powers += 1
        if pf_op_pow(x, y, 0) != x:
            return False, f"{x} * {y}^0 != {x}"
        for k in range(1, k_max + 1):
            powers += 2
            forward = pf_op(forward, y)
            if pf_op_pow(x, y, k) != forward:
                return False, f"power formula fails at {x} * {y}^{k}"
            backward = pf_op_inv(backward, y)
            if pf_op_pow(x, y, -k) != backward:
                return False, f"power formula fails at {x} * {y}^-{k}"
    # the special cases against their independent closed forms
    special = (
        (1, PF_ZERO, lambda x, k: pf_new(x.p, x.q - k * x.p)),
        (-1, PF_ZERO, lambda x, k: pf_new(x.p, x.q - k * x.p)),
        (1, PF_INFINITY, lambda x, k: pf_new(x.p + k * x.q, x.q)),
        (-1, PF_INFINITY, lambda x, k: pf_new(x.p + k * x.q, x.q)),
    )
    for sign, gen, closed in special:
        for _ in range(draws):
            x = random_pfrac(rng, draw_bound)
            k = sign * rng.randint(1, k_max)
            if pf_op_pow(x, gen, k) != closed(x, k):
                return False, f"special case fails at {x} * {gen}^{k}"
    return True, (f"closed form matches iteration for |k| <= {k_max} on {pairs} random pairs "
                  f"with |p|,|q| <= {pair_bound} ({powers} powers); {len(special)} special "
                  f"cases (0/1 and 1/0, k > 0 and k < 0) match their closed forms on {draws} "
                  f"fractions each with |p|,|q| <= {draw_bound}")


def _criterion_long_trefoil() -> tuple[bool, str]:
    lam, m = longitude(), meridian()
    if lam.eps != 0:
        return False, f"eps(lambda) = {lam.eps} != 0"
    if not braid_eq(lam * m, m * lam):
        return False, "the longitude does not commute with the meridian"
    if braid_eq(lam, BraidElement.identity()):
        return False, "the longitude is trivial"

    rng = random.Random(1009)
    pool = sample_covered_pool(rng, 20, 12)
    pairs, closed_k, free_k, free_cases, fiber_k, fiber_cases = 1000, 64, 5, 100, 1000, 100
    act_cases, act_len, random_slots, text_pairs, text_len = 500, 8, 100, 300, 200

    # each route's x is g'^-1 m g' afresh, so keying both slots also checks
    # the stored x of every result of * and *̄
    samples = [(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)]
    failure, checked = _routes_agree(_COVERED_REFERENCE, _COVERED_ROUTES, samples)
    if failure:
        return False, failure
    slot_checks, x_checks = 2 * sum(checked.values()), 2 * len(samples)

    for _ in range(pairs):
        anchor, base = rng.choice(pool), rng.choice(pool)
        mate = lambda_act(rng.randint(-2, 2), base)
        if qt_op(anchor, base) != qt_op(anchor, mate):
            return False, "covering property fails: fibre mates act differently"

    covered = [(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)]
    failure, mapped = _routes_agree(_FRACTION_REFERENCE, _COVERING_ROUTE, covered)
    if failure:
        return False, failure

    base = qt_new(BraidElement.identity())
    closed = range(-closed_k, closed_k + 1)
    for k in closed:
        if lambda_act(k, base).g != lam ** k:
            return False, f"lambda_act's closed form differs from lambda^{k}"

    for _ in range(free_cases):
        p = rng.choice(pool)
        for k in range(-free_k, free_k + 1):
            if (lambda_act(k, p) == p) != (k == 0):
                return False, f"longitude action is not free at k = {k}"

    planted = [-fiber_k, fiber_k] + [rng.randint(-fiber_k, fiber_k) for _ in range(fiber_cases - 2)]
    for k in planted:
        p = rng.choice(pool)
        if fiber_compare(p, lambda_act(k, p)) != k:
            return False, f"fiber_compare failed to recover k = {k}"

    acted = 0
    for _ in range(act_cases):
        p, h1, h2 = rng.choice(pool), random_braid(rng, act_len), random_braid(rng, act_len)
        r, where = pi1_act(p, h1), f"{p} and h = {h1.render() or '1'}"
        if not braid_eq(r.x, r.g.inv() * m * r.g):
            return False, f"pi1_act stores an x other than g'^-1 m g' at {where}"
        if pi1_act(r, h2) != pi1_act(p, h1 * h2):
            return False, f"pi1_act does not compose at {where}, {h2.render() or '1'}"
        acted += 1

    # inv, * and the slot builder behind * and *̄ build Garside forms
    # without the raw-input loop, the builder reading x's image off g''s;
    # parsing the inverted or concatenated raw text is the letter-by-letter
    # route.  The slots are those of * and *̄ on p over g' = u and q over
    # h' = v, x and y their meridian conjugates.  The slot identities hold
    # for every braid, so p and q are built whatever the exponent sums of u
    # and v
    kernel_checks, builder_checks, rendered = 0, 0, 0
    for _ in range(text_pairs):
        left, right = random_braid_text(rng, text_len), random_braid_text(rng, text_len)
        u, v = BraidElement.parse(left), BraidElement.parse(right)
        inverted = left[::-1].swapcase()
        u_inv, v_inv = u.inv(), v.inv()
        kernel = [(u_inv, inverted), (u * v, left + right)]
        p, q = (CoveredElement._trusted(g, g_inv * m * g)
                for g, g_inv in ((u, u_inv), (v, v_inv)))
        star, bar = qt_op(p, q), qt_op_inv(p, q)
        x_text, y_text = inverted + "a" + left, right[::-1].swapcase() + "a" + right
        y_inv_text = y_text[::-1].swapcase()
        moved = [(star.x, y_inv_text + x_text + y_text), (star.g, "A" + left + y_text),
                 (bar.x, y_text + x_text + y_inv_text), (bar.g, "a" + left + y_inv_text)]
        for got, text in kernel + moved:
            want = BraidElement.parse(text)
            if (got.d, got.w, got.image) != (want.d, want.w, want.image):
                return False, f"{got} differs from the parsed raw text {text or '1'}"
        kernel_checks += len(kernel)
        builder_checks += len(moved)
        # the symmetric form cancels Delta^d, d < 0, against w's factors
        for w in (u_inv, v_inv):
            if w.d < 0:
                if BraidElement.parse(w.render()) != w:
                    return False, f"Delta^{w.d} {w.w} renders as {w.render()}, another braid"
                rendered += 1

    slots = [BraidElement.parse("a"), BraidElement.parse("ab"), BraidElement.parse("aba") ** 4]
    while len(slots) < 3 + random_slots:
        h = random_braid(rng, act_len)
        if h.eps != 0:
            slots.append(h)
    rejected = 0
    for g in slots:
        try:
            CoveredElement(g)
        except ValueError:
            rejected += 1
        else:
            return False, f"CoveredElement accepted the slot {g} with exponent sum {g.eps}"
    return True, (f"* and *̄ second slots equal both displayed forms ({slot_checks} "
                  f"comparisons) and *̄ undoes * on both, stored x equals g'^-1 m g' "
                  f"({x_checks} results); covering property holds ({pairs} pairs); the "
                  f"covering map into the fraction quandle carries * and *̄ to * and *̄ "
                  f"({mapped['covering map']} pairs); longitude checks exact; "
                  f"lambda^k closed form for |k|<={closed_k} ({len(closed)} powers); "
                  f"freeness |k|<={free_k} ({free_cases} elements); "
                  f"fiber_compare recovers {len(planted)} planted k with |k|<={fiber_k}; "
                  f"pi1_act by braids of <= {act_len} letters keeps x "
                  f"equal to g'^-1 m g' and composes ({acted} cases); inv and * equal "
                  f"the Garside forms and images of the parsed inverted and concatenated "
                  f"raw texts of <= {text_len} letters ({kernel_checks} results); on "
                  f"covered elements over u and v, the slots y^-1 x y, m^-1 g' y, y x y^-1 "
                  f"and m g' y^-1 of * and *̄ those of the concatenated texts "
                  f"({builder_checks} results); {rendered} of u^-1 and v^-1 "
                  f"with d < 0 parse back from their rendered text; "
                  f"CoveredElement rejects {rejected} slots with eps != 0")


def _criterion_symplectic_footnote() -> tuple[bool, str]:
    # the fixed Z/2 regression: form xy on a rank-1 module
    vectors2 = module_vectors(2, 1)
    gram2 = [[1]]
    if not form_is_antisymmetric(gram2, vectors2, 2):
        return False, "xy over Z/2 should be antisymmetric"
    if form_is_alternating(gram2, vectors2, 2):
        return False, "xy over Z/2 should not be alternating"
    q2 = transvection_quandle(2, gram2)
    report = check_rack(q2)
    if report.idempotent or q2.table[1][1] != 0:
        return False, "idempotence should fail with 1*1 = 0"
    if not report.right_distributive:
        return False, "right distributivity should hold over Z/2"
    # alternating <=> antisymmetric where 2 is regular
    box = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    for entries in itertools.product(range(-2, 3), repeat=4):
        gram = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if form_is_alternating(gram, box) != form_is_antisymmetric(gram, box):
            return False, f"over Z, alternating <=> antisymmetric fails for {gram}"
    vectors5 = module_vectors(5, 2)
    for entries in itertools.product(range(5), repeat=4):
        gram = [[entries[0], entries[1]], [entries[2], entries[3]]]
        alt = form_is_alternating(gram, vectors5, 5)
        anti = form_is_antisymmetric(gram, vectors5, 5)
        if alt != anti:
            return False, f"over Z/5, alternating <=> antisymmetric fails for {gram}"
    # the claim that the Z/2 operation is a rack fails by direct computation:
    # *1 sends every element to 0, so right translations are not bijective
    if not report.is_rack:
        return False, ("computed counterexample: the operation x - (xy)y over Z/2 is NOT "
                       "a rack (right translation by 1 is constant zero, witness "
                       f"{report.counterexample}); antisymmetry alone does not "
                       "suffice when 2 is a zero divisor")
    return True, "regression and equivalences verified"


# Criteria that assert a claim computation refutes, each with the text its
# failing detail must carry: the computed counterexample.  Failing with that
# text is the expected outcome; passing, or failing without it, is red, as
# pytest's strict xfail together with the pinned counterexample test is.
_EXPECTED_REFUTATIONS = {10: "NOT a rack"}


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    @property
    def status(self) -> str:
        """PASS or FAIL; for a criterion expected to be refuted,
        REFUTED-AS-EXPECTED, UNEXPECTED-PASS, or FAIL when the detail lacks
        the counterexample."""
        marker = _EXPECTED_REFUTATIONS.get(self.number)
        if marker is None:
            return "PASS" if self.ok else "FAIL"
        if self.ok:
            return "UNEXPECTED-PASS"
        return "REFUTED-AS-EXPECTED" if marker in self.detail else "FAIL"

    def line(self) -> str:
        return f"{self.status}  {self.number:2d}  {self.name}  [{self.seconds:.1f}s]  {self.detail}"

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "pass": self.ok,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 2),
        }


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "worked-identities", _criterion_worked_identities),
    (2, "transvection-matrices", _criterion_transvection_matrices),
    (3, "quandle-axioms", _criterion_axioms),
    (4, "isomorphism-certificate", _criterion_isomorphism_certificate),
    (5, "continued-fractions", _criterion_continued_fractions),
    (6, "braid-relation", _criterion_braid_relation),
    (7, "orbit-surjectivity", _criterion_orbit_surjectivity),
    (8, "power-formulas", _criterion_power_formulas),
    (9, "long-trefoil", _criterion_long_trefoil),
    (10, "symplectic-footnote", _criterion_symplectic_footnote),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:
                # a criterion whose checked code raises fails on its own line
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(num, name, ok, detail, time.perf_counter() - start)
    raise ValueError(f"no criterion {number}")


def run_selftest(stream: Optional[TextIO] = None) -> tuple[bool, list[CriterionResult]]:
    """Run every criterion, optionally printing one line per criterion.  The
    run is green when each criterion passes or is refuted as expected."""
    results = []
    for num, _name, _fn in CRITERIA:
        result = run_criterion(num)
        results.append(result)
        if stream is not None:
            print(result.line(), file=stream, flush=True)
    ok = all(r.status in ("PASS", "REFUTED-AS-EXPECTED") for r in results)
    if stream is not None:
        passed = sum(r.ok for r in results)
        summary = f"{passed}/{len(results)} criteria passed"
        refuted = sum(r.status == "REFUTED-AS-EXPECTED" for r in results)
        if refuted:
            summary += f", {refuted} refuted as expected"
        print(summary, file=stream, flush=True)
    return ok, results
