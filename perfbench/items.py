"""Benchmark items: how raw inputs become trefoil objects, the work each
item asks of the program, and the check of its output.

Importing this module imports trefoil, so the benchmark imports it inside
the timed set-up.  Every call into the program goes through a ``Layers``
object, whose attributes are the library's public functions, or, in a
traced run, wrappers that record one span per call.  Checks compare
against ``ref`` and against values the benchmark planted, never against
the function being measured, and call no layer.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import trefoil
from trefoil import PF_INFINITY, PF_ZERO, BraidElement, cli

import ref

# (span name, attribute on Layers, function)
LAYER_FUNCS: tuple[tuple[str, str, Callable], ...] = (
    ("pfrac.new", "pf_new", trefoil.pf_new),
    ("pfrac.op", "pf_op", trefoil.pf_op),
    ("pfrac.op_inv", "pf_op_inv", trefoil.pf_op_inv),
    ("pfrac.op_pow", "pf_op_pow", trefoil.pf_op_pow),
    ("pfrac.transvection_matrix", "transvection_matrix", trefoil.transvection_matrix),
    ("pfrac.apply_matrix", "apply_matrix", trefoil.apply_matrix),
    ("pfrac.orbit_bfs", "orbit_bfs", trefoil.orbit_bfs),
    ("cfrac.expand", "cf_expand", trefoil.cf_expand),
    ("cfrac.eval", "cf_eval", trefoil.cf_eval),
    ("words.parse", "parse_word", trefoil.parse_word),
    ("words.normalize", "normalize", trefoil.normalize),
    ("words.word_to_frac", "word_to_frac", trefoil.word_to_frac),
    ("words.frac_to_word", "frac_to_word", trefoil.frac_to_word),
    ("words.normal_form_valid", "normal_form_valid", trefoil.normal_form_valid),
    ("braid.parse", "braid_parse", BraidElement.parse),
    ("braid.eq", "braid_eq", trefoil.braid_eq),
    ("braid.garside_eq", "garside_eq", trefoil.garside_eq),
    ("braid.render", "render_braid", trefoil.render_braid),
    ("longknot.qt_new", "qt_new", trefoil.qt_new),
    ("longknot.qt_op", "qt_op", trefoil.qt_op),
    ("longknot.qt_op_inv", "qt_op_inv", trefoil.qt_op_inv),
    ("longknot.lambda_act", "lambda_act", trefoil.lambda_act),
    ("longknot.covering_p", "covering_p", trefoil.covering_p),
    ("longknot.fiber_compare", "fiber_compare", trefoil.fiber_compare),
    ("quandle.check", "check_quandle", trefoil.check_quandle),
    ("cli.run", "cli_run", cli.run),
)

# A number recorded with each traced span, taken from the call's result.
SPAN_VALUES: dict[str, Callable] = {
    "pfrac.op": lambda r: max(r.p.bit_length(), r.q.bit_length()),
    "pfrac.orbit_bfs": lambda r: r.explored,
    "cfrac.expand": len,
    "braid.render": len,
}


def _group(spec: tuple) -> trefoil.FiniteGroup:
    kind = spec[0]
    if kind == "cyclic":
        return trefoil.cyclic_group(spec[1])
    if kind == "dihedral":
        return trefoil.dihedral_group(spec[1])
    if kind == "symmetric":
        return trefoil.symmetric_group(spec[1])
    return trefoil.klein_four_group()


def build_quandle(spec: tuple) -> trefoil.FiniteQuandle:
    """The finite quandle a generated spec names, from the public
    constructors (recorded as one ``quandle.build`` span)."""
    kind = spec[0]
    if kind == "dihedral":
        return trefoil.dihedral_quandle(spec[1])
    if kind == "alexander":
        return trefoil.alexander_quandle(trefoil.LaurentQuotientRing(spec[1], spec[2]))
    if kind == "conj":
        return trefoil.conj_quandle(_group(spec[1]))
    if kind == "core":
        return trefoil.core_quandle(_group(spec[1]))
    return trefoil.transvection_quandle(spec[1], spec[2])


class Layers:
    """The program's public functions, called directly or through a
    tracer's span-recording wrappers."""

    def __init__(self, tracer=None) -> None:
        funcs = LAYER_FUNCS + (("quandle.build", "build_quandle", build_quandle),)
        for span, attr, fn in funcs:
            if tracer is not None:
                fn = tracer.wrap(span, fn, SPAN_VALUES.get(span))
            setattr(self, attr, fn)


class Item(NamedTuple):
    kind: str
    props: dict
    raw: dict
    inp: object
    work: Callable
    check: Callable  # (raw, inp, out) -> None, or (tag, detail) on a mismatch


Problem = Optional[tuple[str, str]]


def _pair(x) -> tuple[int, int]:
    return (x.p, x.q)


def _expect(pairs) -> Problem:
    """The first (tag, got, want) whose got differs from want."""
    for tag, got, want in pairs:
        if got != want:
            return tag, f"got {got!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------------
# fractions and continued fractions
# ---------------------------------------------------------------------------

def build_frac(L, raw, pool):
    return tuple(L.pf_new(*raw[v]) for v in "xyz")


def work_frac(L, inp):
    x, y, z = inp
    xy = L.pf_op(x, y)
    return (
        L.pf_op(x, x),
        xy,
        L.pf_op_inv(xy, y),
        L.pf_op(L.pf_op_inv(x, y), y),
        L.pf_op(xy, z),
        L.pf_op(L.pf_op(x, z), L.pf_op(y, z)),
        L.pf_op(L.pf_op(L.pf_op(x, PF_ZERO), PF_INFINITY), PF_ZERO),
        L.pf_op(L.pf_op(L.pf_op(x, PF_INFINITY), PF_ZERO), PF_INFINITY),
        L.apply_matrix(L.transvection_matrix(y), x),
    )


def check_frac(raw, inp, out):
    x, y, z = (ref.canon(*raw[v]) for v in "xyz")
    idem, xy, inv1, inv2, lhs, rhs, aba, bab, mat = map(_pair, out)
    want_xy = ref.op(x, y)
    want_dist = ref.op(want_xy, z)
    want_braid = ref.op(ref.op(ref.op(x, (0, 1)), (1, 0)), (0, 1))
    return _expect((
        ("idempotence", idem, x), ("op", xy, want_xy),
        ("inverse", inv1, x), ("inverse", inv2, x),
        ("distributivity", lhs, want_dist), ("distributivity", rhs, want_dist),
        ("braid-relation", aba, want_braid), ("braid-relation", bab, want_braid),
        ("matrix", mat, want_xy),
    ))


def build_cf_frac(L, raw, pool):
    return Fraction(*raw["x"])


def work_cf_frac(L, r):
    cf = L.cf_expand(r)
    return cf, L.cf_eval(cf)


def check_cf_frac(raw, inp, out):
    cf, value = out
    p, q = raw["x"]
    return _expect((("cf-expand", cf.terms, ref.cf_terms(p, q)),
                    ("cf-eval", (value.numerator, value.denominator), ref.canon(p, q))))


def build_cf_terms(L, raw, pool):
    return list(raw["terms"])


def work_cf_terms(L, terms):
    value = L.cf_eval(terms)
    return value, L.cf_expand(value)


def check_cf_terms(raw, inp, out):
    value, cf = out
    return _expect((("cf-eval", (value.numerator, value.denominator), ref.cf_value(raw["terms"])),
                    ("cf-expand", cf.terms, tuple(raw["terms"]))))


def build_big(L, raw, pool):
    x, y = L.pf_new(*raw["x"]), L.pf_new(*raw["y"])
    return x, y, raw["k"], Fraction(*raw["x"])


def work_big(L, inp):
    x, y, k, r = inp
    w = L.pf_op_pow(x, y, k)
    cf = L.cf_expand(r)
    return (
        L.pf_op(x, y),
        L.pf_op_inv(x, y),
        w,
        L.pf_op_pow(w, y, -k),
        L.apply_matrix(L.transvection_matrix(y), x),
        cf,
        L.cf_eval(cf),
    )


def check_big(raw, inp, out):
    xy, xy_inv, w, back, mat, cf, value = out
    x, y, k = raw["x"], raw["y"], raw["k"]
    want_xy = ref.op(x, y)
    return _expect((
        ("op", _pair(xy), want_xy), ("op-inv", _pair(xy_inv), ref.op_inv(x, y)),
        ("op-pow", _pair(w), ref.op_pow(x, y, k)), ("op-pow-undo", _pair(back), x),
        ("matrix", _pair(mat), want_xy),
        ("cf-expand", cf.terms, ref.cf_terms(*x)),
        ("cf-eval", (value.numerator, value.denominator), x),
    ))


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def build_word(L, raw, pool):
    return L.parse_word(raw["word"])


def work_word(L, w):
    """The isomorphism certificate for one word: the fraction route, then
    the rewriting route, then the validity of the rewritten form."""
    frac = L.word_to_frac(w)
    via_frac = L.frac_to_word(frac)
    nf = L.normalize(w)
    return frac, via_frac, nf, L.normal_form_valid(nf.exponents)


def check_word(raw, inp, out):
    frac, via_frac, nf, valid = out
    value = ref.word_value(raw["word"])
    exponents = ref.normal_form_exponents(value)
    return _expect((("word-to-frac", _pair(frac), value),
                    ("frac-to-word", via_frac.exponents, exponents),
                    ("normalize", nf.exponents, exponents),
                    ("normal-form-valid", valid, True)))


# ---------------------------------------------------------------------------
# finite quandles, orbits and the CLI
# ---------------------------------------------------------------------------

def build_quandle_item(L, raw, pool):
    return L.build_quandle(raw["spec"])


def work_quandle(L, q):
    return L.check_quandle(q)


def check_axioms(raw, q, report):
    if raw["spec"][0] != "transvection":
        # dihedral, Alexander, conjugation and core quandles all satisfy
        # the axioms for every order
        return _expect((("quandle-axioms", report.is_quandle, True),))
    # x * y = x - xy y on Z/2: 1 * 1 = 0 and *1 sends both points to 0,
    # while right distributivity holds
    problem = _expect((
        ("nonrack", (report.idempotent, report.right_translations_bijective,
                     report.right_distributive), (False, False, True)),
        ("nonrack-witness", report.counterexample is not None, True),
    ))
    if problem is None:
        i, _, _ = report.counterexample
        problem = _expect((("nonrack-witness", q.table[i][i] != i, True),))
    return problem


def build_orbit(L, raw, pool):
    return [L.pf_new(p, q) for p, q in raw["targets"]], raw["bound"]


def work_orbit(L, inp):
    return L.orbit_bfs(*inp)


def check_orbit(raw, targets, report):
    problem = _expect((
        ("orbit-unreached", len(report.unreached), 0),
        ("orbit-explored", report.explored, ref.orbit_box_size(raw["bound"])),
        ("orbit-targets", sorted(_pair(t) for t in report.reached), sorted(set(raw["targets"]))),
    ))
    if problem is None:
        for frac, witness in report.witnesses.items():
            if ref.word_value(witness) != _pair(frac):
                return "orbit-witness", f"{witness!r} does not evaluate to {frac}"
    return problem


def build_cli(L, raw, pool):
    return list(raw["argv"])


def work_cli(L, argv):
    out, err = io.StringIO(), io.StringIO()
    code = L.cli_run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _cli_expected(raw) -> tuple[int, str]:
    cmd = raw["cmd"]
    if cmd == "error":
        return 2, ""
    if cmd == "op":
        text = ref.frac_text(ref.op(raw["x"], raw["y"]))
    elif cmd == "pow":
        text = ref.frac_text(ref.op_pow(raw["x"], raw["y"], raw["k"]))
    elif cmd == "matrix":
        text = ref.matrix_text(raw["x"])
    elif cmd == "normalize":
        text = ref.render_normal_form(ref.normal_form_exponents(ref.word_value(raw["word"])))
    elif cmd == "word2frac":
        text = ref.frac_text(ref.word_value(raw["word"]))
    elif cmd == "frac2word":
        text = ref.render_normal_form(ref.normal_form_exponents(raw["x"]))
    elif cmd == "cf expand":
        text = ref.cf_text(ref.cf_terms(*raw["x"]))
    else:
        text = ref.frac_text(ref.cf_value(raw["terms"]))
    return 0, text + "\n"


def check_cli(raw, argv, out):
    code, stdout, _ = out
    want_code, want_stdout = _cli_expected(raw)
    return _expect((("exit", code, want_code), ("stdout", stdout, want_stdout)))


# ---------------------------------------------------------------------------
# the long-trefoil covering quandle
# ---------------------------------------------------------------------------

def build_pool(L, words):
    return [L.qt_new(L.braid_parse(w)) for w in words]


def build_triple(L, raw, pool):
    return tuple(pool[i] for i in raw["ijk"])


def work_triple(L, inp):
    p, q, r = inp
    pq = L.qt_op(p, q)
    lhs = L.qt_op(pq, r)
    rhs = L.qt_op(L.qt_op(p, r), L.qt_op(q, r))
    return L.braid_eq(lhs.g, rhs.g), L.braid_eq(L.qt_op_inv(pq, q).g, p.g)


def check_triple(raw, inp, out):
    return _expect(zip(("distributivity", "inverse"), out, (True, True)))


def build_cover(L, raw, pool):
    return pool[raw["anchor"]], pool[raw["base"]], raw["k"]


def work_cover(L, inp):
    """Fibre mates act alike (the covering property), lie over the same
    point, and differ unless k = 0 (the deck action is free)."""
    anchor, base, k = inp
    mate = L.lambda_act(k, base)
    return (
        L.braid_eq(L.qt_op(anchor, base).g, L.qt_op(anchor, mate).g),
        L.braid_eq(L.covering_p(mate), L.covering_p(base)),
        L.braid_eq(mate.g, base.g),
    )


def check_cover(raw, inp, out):
    want = (True, True, raw["k"] == 0)
    return _expect(zip(("covering", "fibre", "free"), out, want))


def build_fiber(L, raw, pool):
    return pool[raw["i"]], raw["k"]


def work_fiber(L, inp):
    p, k = inp
    return L.fiber_compare(p, L.lambda_act(k, p))


def check_fiber(raw, inp, k):
    return _expect((("fiber-k", k, raw["k"]),))


def build_garside(L, raw, pool):
    return L.braid_parse(raw["u"]), L.braid_parse(raw["v"])


def work_garside(L, inp):
    u, v = inp
    return L.garside_eq(u, v), L.braid_eq(u, v)


def check_garside(raw, inp, out):
    garside, matrix = out
    return _expect((("garside-vs-matrix", garside, matrix), ("braid-eq", matrix, raw["equal"])))


def build_chain(L, raw, pool):
    return pool[raw["start"]], [pool[j] for j in raw["steps"]]


def work_chain(L, inp):
    """x <- x * y along the chain, each step undone by *̄ and compared."""
    x, steps = inp
    undone = []
    for y in steps:
        nxt = L.qt_op(x, y)
        undone.append(L.braid_eq(L.qt_op_inv(nxt, y).g, x.g))
        x = nxt
    return undone, L.render_braid(x.g)


def check_chain(raw, inp, out):
    undone, _ = out
    return _expect((("chain-undo", undone, [True] * len(raw["steps"])),))


KINDS: dict[str, tuple[Callable, Callable, Callable]] = {
    "frac": (build_frac, work_frac, check_frac),
    "cf_frac": (build_cf_frac, work_cf_frac, check_cf_frac),
    "cf_terms": (build_cf_terms, work_cf_terms, check_cf_terms),
    "big": (build_big, work_big, check_big),
    "word": (build_word, work_word, check_word),
    "quandle": (build_quandle_item, work_quandle, check_axioms),
    "nonrack": (build_quandle_item, work_quandle, check_axioms),
    "orbit": (build_orbit, work_orbit, check_orbit),
    "cli": (build_cli, work_cli, check_cli),
    "triple": (build_triple, work_triple, check_triple),
    "cover": (build_cover, work_cover, check_cover),
    "fiber": (build_fiber, work_fiber, check_fiber),
    "garside": (build_garside, work_garside, check_garside),
    "chain": (build_chain, work_chain, check_chain),
}


def build_items(L, shared: dict, deck: list) -> list[Item]:
    """Turn the raw deck into library objects through ``L``."""
    pool = build_pool(L, shared["pool"]) if "pool" in shared else None
    items = []
    for kind, props, raw in deck:
        build, work, check = KINDS[kind]
        items.append(Item(kind, props, raw, build(L, raw, pool), work, check))
    return items
