"""Batch command-line front end.

Exit codes: 0 success, 1 usage error (unknown subcommand, malformed
arguments), 2 domain error (e.g. the continued fraction of 1/0), 3 internal
error (any other exception, reported as one line).  All
output is line-oriented text by default and machine JSON under --json;
orbit graphs can be emitted as DOT.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional, Sequence, TextIO

from .braid import BraidElement
from .cfrac import ContinuedFraction, cf_eval, cf_expand
from .longknot import fiber_compare, pi1_act, qt_new, qt_op
from .pfrac import PFrac, orbit_bfs, pf_op, pf_op_pow, transvection_matrix
from .quandle import (
    LaurentQuotientRing,
    alexander_quandle,
    check_quandle,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    klein_four_group,
    symmetric_group,
)
from .words import frac_to_word, normalize, parse_word, word_to_frac


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # let signed fractions like -1/2 pass as positionals
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state in the parser, only in the namespace it returns."""
    parser = _Parser(prog="trefoil", description="Exact trefoil-quandle arithmetic")
    parser.add_argument("--json", action="store_true", help="emit machine JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("op", help="product x * y in the fraction quandle")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("pow", help="x * y^k in closed form")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("k", type=int)

    p = sub.add_parser("matrix", help="the PSL(2,Z) matrix of *y")
    p.add_argument("y")

    p = sub.add_parser("normalize", help="normal form of a word")
    p.add_argument("word")

    p = sub.add_parser("word2frac", help="fraction image of a word")
    p.add_argument("word")

    p = sub.add_parser("frac2word", help="normal-form word of a fraction")
    p.add_argument("frac")

    p = sub.add_parser("cf", help="continued fractions")
    cf_sub = p.add_subparsers(dest="cf_command", required=True)
    q = cf_sub.add_parser("expand", help="expand a finite rational")
    q.add_argument("frac")
    q = cf_sub.add_parser("eval", help="evaluate a term list like [2;3]")
    q.add_argument("cf")

    p = sub.add_parser("axioms", help="axiom report for a builtin quandle spec")
    p.add_argument("spec", help="dihedral:N | alexander:N:POLY | conj:GROUP | core:GROUP")

    p = sub.add_parser("orbit", help="reachability of a fraction from the generators")
    p.add_argument("frac")
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--dot", action="store_true", help="emit the explored orbit as DOT")

    p = sub.add_parser("long", help="the long-trefoil covering quandle")
    long_sub = p.add_subparsers(dest="long_command", required=True)
    q = long_sub.add_parser("op", help="(x,g') * (y,h') from the g' words")
    q.add_argument("g1")
    q.add_argument("g2")
    q = long_sub.add_parser("act", help="group action of a braid word h")
    q.add_argument("g")
    q.add_argument("h")
    q = long_sub.add_parser("fiber", help="deck power taking the first element to the second")
    q.add_argument("g1")
    q.add_argument("g2")

    sub.add_parser("selftest", help="run the full acceptance suite")
    return parser


_POLY_TERM = re.compile(r"([+-]?)(\d*)(?:(t)(?:\^(\d+))?)?")


def _parse_poly(text: str) -> tuple[int, ...]:
    """Parse h(t) like 't+1', 't^2+t+1', '2t^3+5'; ascending coefficients.
    Each term is a sign (optional on the first), then a coefficient, t or
    both, with an optional ^exponent on t; anything else, a sign with no
    term after it included, is a bad term."""
    cleaned = text.replace(" ", "")
    if not cleaned.strip("+-"):  # signs alone, or nothing
        raise ValueError(f"empty polynomial {text!r}")
    terms = re.split(r"(?=[+-])", cleaned)
    if not terms[0]:  # the text starts with a sign
        del terms[0]
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _POLY_TERM.fullmatch(term)
        if m is None or not (m[2] or m[3]):
            raise ValueError(f"bad term {term!r} in {text!r}")
        sign, coef, t, exp = m.groups()
        value = int(coef) if coef else 1
        power = int(exp) if exp else 1 if t else 0
        coeffs[power] = coeffs.get(power, 0) + (-value if sign == "-" else value)
    degree = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(degree + 1))


_GROUPS = {
    "s3": lambda: symmetric_group(3),
    "s4": lambda: symmetric_group(4),
    "v4": klein_four_group,
}


def _parse_group(text: str):
    text = text.lower()
    if text in _GROUPS:
        return _GROUPS[text]()
    # isdecimal, not isdigit: int() rejects digits such as superscripts
    if text.startswith("c") and text[1:].isdecimal():
        return cyclic_group(int(text[1:]))
    if text.startswith("d") and text[1:].isdecimal():
        return dihedral_group(int(text[1:]))
    raise ValueError(f"unknown group spec {text!r} (use cN, dN, s3, s4 or v4)")


def _spec_int(field: str, text: str, spec: str) -> int:
    """A field of a quandle spec that int() must read, named with the spec
    when it cannot."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {field} {text!r} in quandle spec {spec!r}") from None


def _quandle_from_spec(spec: str):
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "dihedral" and len(parts) == 2:
        return dihedral_quandle(_spec_int("order", parts[1], spec))
    if kind == "alexander" and len(parts) == 3:
        modulus = _spec_int("modulus", parts[1], spec)
        return alexander_quandle(LaurentQuotientRing(modulus, _parse_poly(parts[2])))
    if kind == "conj" and len(parts) == 2:
        return conj_quandle(_parse_group(parts[1]))
    if kind == "core" and len(parts) == 2:
        return core_quandle(_parse_group(parts[1]))
    raise ValueError(f"unknown quandle spec {spec!r}")


def _word_payload(input_text: str, nf, frac) -> dict:
    """The --json payload of a word command; it needs both routes' answers."""
    return {"input": input_text, "normal_form": nf.render(), "fraction": str(frac)}


def run(argv: Optional[Sequence[str]] = None,
        stdout: Optional[TextIO] = None,
        stderr: Optional[TextIO] = None) -> int:
    """Run one command.  Exact results of valid input can have more digits
    than CPython's int/str conversion limit allows (CVE-2020-10735), so the
    limit is lifted while the command runs and then restored; interpreters
    without the limit have nothing to lift."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _run(argv, stdout, stderr)
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv, stdout, stderr)
    finally:
        sys.set_int_max_str_digits(saved)


def _run(argv: Optional[Sequence[str]],
         stdout: Optional[TextIO],
         stderr: Optional[TextIO]) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1

    try:
        payload: dict
        text: str
        if args.command == "op":
            result = pf_op(PFrac.parse(args.x), PFrac.parse(args.y))
            payload, text = result.to_json(), str(result)
        elif args.command == "pow":
            result = pf_op_pow(PFrac.parse(args.x), PFrac.parse(args.y), args.k)
            payload, text = result.to_json(), str(result)
        elif args.command == "matrix":
            m = transvection_matrix(PFrac.parse(args.y))
            payload, text = {"matrix": m.rows(), "det": m.det()}, str(m)
        elif args.command == "normalize":
            w = parse_word(args.word)
            nf = normalize(w)
            text = nf.render()
            if args.json:
                payload = _word_payload(args.word, nf, word_to_frac(w))
        elif args.command == "word2frac":
            w = parse_word(args.word)
            frac = word_to_frac(w)
            text = str(frac)
            if args.json:
                payload = _word_payload(args.word, normalize(w), frac)
        elif args.command == "frac2word":
            frac = PFrac.parse(args.frac)
            nf = frac_to_word(frac)
            text = nf.render()
            if args.json:
                payload = _word_payload(args.frac, nf, frac)
        elif args.command == "cf":
            if args.cf_command == "expand":
                cf = cf_expand(PFrac.parse(args.frac))
                payload, text = cf.to_json(), str(cf)
            else:
                value = cf_eval(ContinuedFraction.parse(args.cf))
                result = PFrac.from_fraction(value)
                payload, text = result.to_json(), str(result)
        elif args.command == "axioms":
            report = check_quandle(_quandle_from_spec(args.spec))
            payload = report.to_json()
            lines = [f"idempotent: {str(report.idempotent).lower()}",
                     f"right_translations_bijective: {str(report.right_translations_bijective).lower()}",
                     f"right_distributive: {str(report.right_distributive).lower()}",
                     f"quandle: {str(report.is_quandle).lower()}"]
            if report.counterexample is not None:
                lines.append(f"counterexample: {report.counterexample}")
            text = "\n".join(lines)
        elif args.command == "orbit":
            target = PFrac.parse(args.frac)
            report = orbit_bfs([target], args.bound)
            if args.dot:
                print(report.to_dot(), file=out)
                return 0
            witness = report.reached.get(target)
            payload = {
                "target": str(target),
                "bound": report.bound,
                "reached": witness is not None,
                "witness": witness,
                "explored": report.explored,
            }
            if witness is None:
                text = f"unreached within bound {report.bound} (explored {report.explored})"
            else:
                text = f"reached via {witness} (explored {report.explored})"
        elif args.command == "long":
            if args.long_command == "fiber":
                k = fiber_compare(qt_new(BraidElement.parse(args.g1)),
                                  qt_new(BraidElement.parse(args.g2)))
                payload, text = {"k": k}, f"k = {k}"
            else:
                if args.long_command == "op":
                    result = qt_op(qt_new(BraidElement.parse(args.g1)),
                                   qt_new(BraidElement.parse(args.g2)))
                else:
                    result = pi1_act(qt_new(BraidElement.parse(args.g)),
                                     BraidElement.parse(args.h))
                payload = result.to_json()
                text = (f"g' = {payload['g_prime'] or '1'}\nx = {payload['x']}\n"
                        f"eps = {payload['eps']}")
        elif args.command == "selftest":
            # imported here, not at the top: only selftest needs the suite
            from .acceptance import run_selftest

            if args.json:
                ok, results = run_selftest(stream=None)
                payload = {
                    "criteria": [r.to_json() for r in results],
                    "passed": sum(r.ok for r in results),
                    "total": len(results),
                    "ok": ok,
                }
                print(json.dumps(payload), file=out)
            else:
                ok, _results = run_selftest(stream=out)
            return 0 if ok else 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except Exception as exc:
        # a defect, not bad input: one line and its own code, never the
        # usage code 1 that a traceback would leave
        print(f"internal error: {type(exc).__name__}: {exc}", file=err)
        return 3

    if args.json:
        print(json.dumps(payload), file=out)
    else:
        print(text, file=out)
    return 0


def main() -> None:
    sys.exit(run())
