"""The self-certification suite: every exit criterion of the build, runnable
as a library call, from the CLI (``trefoil selftest``) and from pytest.

Each criterion is a function returning (ok, detail).  All sampling uses
fixed seeds, so runs are reproducible.  Criterion 10 asserts a claim that
computation refutes; it is reported REFUTED-AS-EXPECTED, and keeps the run
green, only when it fails with the computed counterexample.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, TextIO

from .braid import BraidElement, braid_eq, longitude, meridian
from .cfrac import ContinuedFraction, cf_eval, cf_expand
from .longknot import (
    CoveredElement,
    covering_p,
    fiber_compare,
    lambda_act,
    pi1_act,
    qt_new,
    qt_op,
    qt_op_inv,
    qt_op_inv_second_slot_forms,
    qt_op_second_slot_forms,
)
from .pfrac import (
    PF_INFINITY,
    PF_ZERO,
    PFrac,
    apply_matrix,
    orbit_bfs,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    transvection_matrix,
)
from .quandle import (
    LaurentQuotientRing,
    alexander_quandle,
    check_quandle,
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
    braid_relation_holds,
    frac_to_word,
    normal_form_valid,
    normalize,
    parse_word,
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
    return BraidElement.from_word(s * rng.choice((1, 2)) for s in signs)


def random_braid(rng: random.Random, max_len: int) -> BraidElement:
    """A braid word of up to max_len letters with any exponent sum."""
    return BraidElement.from_word(rng.choice((1, -1, 2, -2))
                                  for _ in range(rng.randint(0, max_len)))


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
    pairs, bound = 10_000, 1000
    for _ in range(pairs):
        x = random_pfrac(rng, bound)
        y = random_pfrac(rng, bound)
        m = transvection_matrix(y)
        if m.det() != 1:
            return False, f"det of matrix for {y} is {m.det()}"
        if apply_matrix(m, x) != pf_op(x, y):
            return False, f"matrix action and * disagree at x={x}, y={y}"
    return True, (f"exact generators; {pairs} random pairs with |p|,|q| <= {bound}: "
                  f"matrix action equals *, every determinant 1")


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
    for _ in range(fraction_triples):
        x = random_pfrac(rng, 10**6)
        y = random_pfrac(rng, 10**6)
        z = random_pfrac(rng, 10**6)
        if pf_op(x, x) != x:
            return False, f"idempotence fails at {x}"
        if pf_op_inv(pf_op(x, y), y) != x or pf_op(pf_op_inv(x, y), y) != x:
            return False, f"inverse operation fails at {x}, {y}"
        if pf_op(pf_op(x, y), z) != pf_op(pf_op(x, z), pf_op(y, z)):
            return False, f"distributivity fails at {x}, {y}, {z}"

    pool = sample_covered_pool(rng, 24, 12)
    op_memo: dict[tuple[int, int], CoveredElement] = {}

    def pooled_op(i: int, j: int) -> CoveredElement:
        key = (i, j)
        if key not in op_memo:
            op_memo[key] = qt_op(pool[i], pool[j])
        return op_memo[key]

    for i, p in enumerate(pool):
        if qt_op(p, p) != p:
            return False, f"covered-quandle idempotence fails at pool element {i}"
    checked_pairs = set()
    for _ in range(covered_triples):
        i, j, k = rng.randrange(24), rng.randrange(24), rng.randrange(24)
        if (i, j) not in checked_pairs:
            checked_pairs.add((i, j))
            if qt_op_inv(pooled_op(i, j), pool[j]) != pool[i]:
                return False, f"covered-quandle inverse fails at pair ({i}, {j})"
            if qt_op(qt_op_inv(pool[i], pool[j]), pool[j]) != pool[i]:
                return False, f"covered-quandle inverse fails at pair ({i}, {j})"
        lhs = qt_op(pooled_op(i, j), pool[k])
        rhs = qt_op(pooled_op(i, k), pooled_op(j, k))
        if lhs != rhs:
            return False, f"covered-quandle distributivity fails at ({i}, {j}, {k})"
    families = ", ".join(f"{checked[f]} {f} (order <= {largest[f]})" for f in checked)
    return True, (f"exhaustive: {families}, {cells} cells compared (n^3 per quandle); "
                  f"randomized: {fraction_triples} fraction triples and {covered_triples} "
                  f"covered triples, zero failures")


def _criterion_isomorphism_certificate() -> tuple[bool, str]:
    rng = random.Random(1004)
    short_words, short_max, long_words, long_len = 1000, 30, 4, 10_000
    words = [random_qword(rng, short_max) for _ in range(short_words)]
    words += [QWord(rng.choice("ab"), "".join(rng.choices("abAB", k=long_len)))
              for _ in range(long_words)]
    letters = 0
    for w in words:
        letters += len(w.tail)
        nf = normalize(w)
        image = word_to_frac(w)
        if word_to_frac(nf.to_word()) != image:
            return False, f"rewriting changed the fraction image of {w}"
        if frac_to_word(image) != nf:
            return False, f"the two canonicalization routes disagree on {w}"
        if not normal_form_valid(nf.exponents):
            return False, f"normalize({w}) violates the normal-form constraints"
    return True, (f"{short_words} random words of <= {short_max} letters and {long_words} of "
                  f"{long_len} letters ({letters} letters): rewriting is sound, both routes "
                  f"agree, all outputs valid")


def _criterion_continued_fractions() -> tuple[bool, str]:
    bound, term_max, random_lists = 200, 12, 20_000
    fractions = lists = 0
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) != 1:
                continue
            fractions += 1
            r = Fraction(p, q)
            if cf_eval(cf_expand(r)) != r:
                return False, f"eval(expand({p}/{q})) != {p}/{q}"

    def check(terms: tuple[int, ...]) -> Optional[str]:
        nonlocal lists
        lists += 1
        cf = ContinuedFraction(terms)
        if cf_expand(cf_eval(cf)) != cf:
            return f"expand(eval({list(terms)})) != {list(terms)}"
        return None

    # exhaustive over the full coefficient ranges for n <= 4; the literal
    # n <= 8 grid has ~8.6e8 lists, far beyond the runtime budget, so the
    # longer lengths are covered by random draws from the same ranges
    for k1 in range(-term_max, term_max + 1):
        err = check((k1,))
        if err:
            return False, err
        for kn in range(2, term_max + 1):
            err = check((k1, kn))
            if err:
                return False, err
            for k2 in range(1, term_max + 1):
                err = check((k1, k2, kn))
                if err:
                    return False, err
                for k3 in range(1, term_max + 1):
                    err = check((k1, k2, k3, kn))
                    if err:
                        return False, err
    grid_lists = lists
    rng = random.Random(1005)
    for _ in range(random_lists):
        n = rng.randint(5, 8)
        terms = [rng.randint(-term_max, term_max)]
        terms += [rng.randint(1, term_max) for _ in range(n - 2)]
        terms.append(rng.randint(2, term_max))
        err = check(tuple(terms))
        if err:
            return False, err
    return True, (f"{fractions} fractions with |p|,|q| <= {bound} round-trip; exhaustive "
                  f"term grid for n <= 4, |k| <= {term_max} ({grid_lists} lists) plus "
                  f"{lists - grid_lists} random lists for n in 5..8 (full grid infeasible "
                  f"in budget)")


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
        if not braid_relation_holds(w):
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
    return True, (f"all {len(targets)} fractions with |p|,|q| <= {bound} reached; "
                  f"all {len(report.reached)} witness words verify")


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
    act_cases, act_len, random_slots = 500, 8, 100

    slot_checks = x_checks = 0
    for _ in range(pairs):
        p, q = rng.choice(pool), rng.choice(pool)
        for name, op, forms in (("*", qt_op, qt_op_second_slot_forms),
                                ("*̄", qt_op_inv, qt_op_inv_second_slot_forms)):
            r = op(p, q)
            if not all(braid_eq(r.g, f) for f in forms(p, q)):
                return False, f"{name} and its two displayed second slots disagree at {p}, {q}"
            if not braid_eq(r.x, r.g.inv() * m * r.g):
                return False, f"the stored x of {p} {name} {q} is not its g'^-1 m g'"
            slot_checks, x_checks = slot_checks + 2, x_checks + 1

    for _ in range(pairs):
        anchor, base = rng.choice(pool), rng.choice(pool)
        mate = lambda_act(rng.randint(-2, 2), base)
        if qt_op(anchor, base) != qt_op(anchor, mate):
            return False, "covering property fails: fibre mates act differently"

    for _ in range(pairs):
        p, q = rng.choice(pool), rng.choice(pool)
        lhs = covering_p(qt_op(p, q))
        rhs = covering_p(q).inv() * covering_p(p) * covering_p(q)
        if not braid_eq(lhs, rhs):
            return False, f"representation property fails at {p}, {q}"

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
        if not braid_eq(r.x, h1.inv() * covering_p(p) * h1):
            return False, f"pi1_act moves x to {r.x}, not to h^-1 x h, at {where}"
        if not braid_eq(r.x, r.g.inv() * m * r.g):
            return False, f"pi1_act stores an x other than g'^-1 m g' at {where}"
        if pi1_act(r, h2) != pi1_act(p, h1 * h2):
            return False, f"pi1_act does not compose at {where}, {h2.render() or '1'}"
        acted += 1

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
                  f"comparisons), stored x equals g'^-1 m g' ({x_checks} results); covering "
                  f"and representation properties hold ({pairs} each); longitude checks exact; "
                  f"lambda^k closed form for |k|<={closed_k} ({len(closed)} powers); "
                  f"freeness |k|<={free_k} ({free_cases} elements); "
                  f"fiber_compare recovers {len(planted)} planted k with |k|<={fiber_k}; "
                  f"pi1_act by braids of <= {act_len} letters moves x to h^-1 x h, keeps x "
                  f"equal to g'^-1 m g' and composes ({acted} cases); CoveredElement "
                  f"rejects {rejected} slots with eps != 0")


def _criterion_symplectic_footnote() -> tuple[bool, str]:
    # the fixed Z/2 regression: form xy on a rank-1 module
    vectors2 = module_vectors(2, 1)
    gram2 = [[1]]
    if not form_is_antisymmetric(gram2, vectors2, 2):
        return False, "xy over Z/2 should be antisymmetric"
    if form_is_alternating(gram2, vectors2, 2):
        return False, "xy over Z/2 should not be alternating"
    q2 = transvection_quandle(2, gram2)
    report = check_quandle(q2)
    if report.idempotent or q2.op(1, 1) != 0:
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
            ok, detail = fn()
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
