import io
import json
import os
import random
import subprocess
import sys

import trefoil
from trefoil import (
    BraidElement,
    ContinuedFraction,
    PFrac,
    cf_expand,
    check_quandle,
    dihedral_quandle,
    frac_to_word,
    normalize,
    pf_new,
    pf_op,
    pf_op_pow,
    qt_new,
    qt_op,
    transvection_matrix,
    word_to_frac,
)
from trefoil.cli import run


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_op():
    assert go("op", "0/1", "1/0") == (0, "1/1\n", "")
    assert go("op", "1/1", "0/1") == (0, "1/0\n", "")


def test_pow():
    assert go("pow", "1/3", "1/0", "2") == (0, "7/3\n", "")
    assert go("pow", "1/3", "0/1", "-2") == (0, "1/5\n", "")


def test_matrix():
    assert go("matrix", "1/0") == (0, "[[1,1],[0,1]]\n", "")
    assert go("matrix", "0/1") == (0, "[[1,0],[-1,1]]\n", "")


def test_word_commands():
    assert go("normalize", "aba") == (0, "b\n", "")
    assert go("word2frac", "bAAAbb") == (0, "7/3\n", "")
    assert go("frac2word", "7/3") == (0, "bAAAbb\n", "")
    assert go("frac2word", "-1/1") == (0, "ba\n", "")


def test_word_commands_on_long_words():
    rng = random.Random(9)
    w = "a" + "".join(rng.choice("abAB") for _ in range(4000))
    frac = word_to_frac(w)
    assert go("normalize", w) == (0, frac_to_word(frac).render() + "\n", "")
    assert go("word2frac", w) == (0, f"{frac}\n", "")


def test_cf_commands():
    assert go("cf", "expand", "7/3") == (0, "[2;3]\n", "")
    assert go("cf", "expand", "-1/2") == (0, "[-1;2]\n", "")
    assert go("cf", "eval", "[2;3]") == (0, "7/3\n", "")


def test_results_beyond_the_int_str_digit_limit():
    # 7000-bit inputs print in about 2100 digits, but the product has about
    # 21000 bits, more digits than CPython's default int/str limit of 4300
    rng = random.Random(10)
    x, y = (pf_new(rng.getrandbits(7000) | 1 << 6999, rng.getrandbits(7000) | 1 << 6999)
            for _ in range(2))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    runs = [go("op", str(x), str(y)), go("--json", "matrix", str(x)), go("cf", "expand", str(x))]
    assert limit() == before
    if before is not None:
        sys.set_int_max_str_digits(0)
    try:
        m = transvection_matrix(x)
        assert runs == [(0, f"{pf_op(x, y)}\n", ""),
                        (0, json.dumps({"matrix": m.rows(), "det": m.det()}) + "\n", ""),
                        (0, f"{cf_expand(x)}\n", "")]
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def test_axioms_command():
    code, out, err = go("axioms", "dihedral:7")
    assert code == 0 and "quandle: true" in out
    code, out, err = go("axioms", "alexander:3:t+1")
    assert code == 0 and "quandle: true" in out
    code, out, err = go("axioms", "conj:s3")
    assert code == 0 and "quandle: true" in out
    code, out, err = go("axioms", "core:c5")
    assert code == 0 and "quandle: true" in out


def test_orbit_command():
    code, out, _ = go("orbit", "7/3", "--bound", "10")
    assert code == 0 and "reached via" in out
    code, out, _ = go("orbit", "1/1", "--bound", "3", "--dot")
    assert code == 0 and out.startswith("digraph orbit {")


def test_long_commands():
    code, out, _ = go("long", "op", "", "AAAAbaab")
    assert code == 0 and "eps = 1" in out
    code, out, _ = go("long", "fiber", "", "AAAAbaab")
    assert code == 0 and out == "k = 1\n"
    code, out, _ = go("long", "act", "", "a")
    assert code == 0


def test_long_output_is_canonical():
    # the same element spelled two ways prints the same bytes
    first = go("--json", "long", "op", "", "AAAAbaab")
    assert first[0] == 0
    assert go("--json", "long", "op", "", "abaabaAAAAAA") == first


def test_exit_code_usage_errors():
    assert go("bogus")[0] == 1
    assert go("op", "0/1")[0] == 1
    assert go("cf")[0] == 1
    assert go("pow", "1/2", "1/3", "x")[0] == 1


def test_exit_code_domain_errors():
    assert go("cf", "expand", "1/0")[0] == 2
    assert go("op", "0/0", "1/0")[0] == 2
    assert go("normalize", "Xa")[0] == 2
    assert go("long", "op", "a", "b")[0] == 2
    assert go("axioms", "nonsense:1")[0] == 2
    assert go("cf", "eval", "[2;1]")[0] == 2


def test_exit_code_internal_errors(monkeypatch):
    import trefoil.cli as cli

    def broken(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = go("normalize", "ab")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_text_word_commands_skip_the_other_route(monkeypatch):
    """Text mode prints one route's answer, so it never runs the other;
    --json still does, for its payload."""
    import trefoil.cli as cli

    def broken(word):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "normalize", broken)
    assert go("word2frac", "bAAAbb") == (0, "7/3\n", "")
    assert go("--json", "word2frac", "bAAAbb") == (3, "", "internal error: RuntimeError: boom\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "word_to_frac", broken)
    assert go("normalize", "bAAAbb") == (0, "bAAAbb\n", "")
    assert go("--json", "normalize", "bAAAbb")[0] == 3


def test_json_output_matches_library_bytes():
    cases = [
        (("--json", "op", "0/1", "1/0"),
         pf_op(PFrac.parse("0/1"), PFrac.parse("1/0")).to_json()),
        (("--json", "pow", "1/3", "1/0", "2"),
         pf_op_pow(PFrac.parse("1/3"), PFrac.parse("1/0"), 2).to_json()),
        (("--json", "cf", "expand", "7/3"),
         cf_expand(PFrac.parse("7/3").to_fraction()).to_json()),
        (("--json", "cf", "eval", "[2;3]"), PFrac.parse("7/3").to_json()),
        (("--json", "axioms", "dihedral:7"),
         check_quandle(dihedral_quandle(7)).to_json()),
        (("--json", "long", "op", "", "AAAAbaab"),
         qt_op(qt_new(BraidElement.identity()),
               qt_new(BraidElement.parse("AAAAbaab"))).to_json()),
    ]
    for argv, expected in cases:
        code, out, err = go(*argv)
        assert code == 0, err
        assert out == json.dumps(expected) + "\n"


def test_json_word_payloads():
    code, out, _ = go("--json", "normalize", "abA")
    assert code == 0
    w = "abA"
    expected = {"input": w, "normal_form": normalize(w).render(),
                "fraction": str(word_to_frac(w))}
    assert out == json.dumps(expected) + "\n"


def test_matrix_json_payload():
    code, out, _ = go("--json", "matrix", "1/0")
    m = transvection_matrix(PFrac.parse("1/0"))
    assert code == 0
    assert out == json.dumps({"matrix": m.rows(), "det": m.det()}) + "\n"


def test_selftest_exit_code_tracks_criteria(monkeypatch):
    import trefoil.acceptance as acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, "stub-pass", lambda: (True, "ok"))])
    code, out, _ = go("selftest")
    assert code == 0 and "PASS" in out and "1/1 criteria passed" in out
    monkeypatch.setattr(
        acceptance, "CRITERIA",
        [(1, "stub-pass", lambda: (True, "ok")), (2, "stub-fail", lambda: (False, "boom"))],
    )
    code, out, _ = go("selftest")
    assert code == 1 and "FAIL" in out and "1/2 criteria passed" in out
    code, out, _ = go("--json", "selftest")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] == 1 and payload["total"] == 2 and payload["ok"] is False


def test_selftest_reports_criterion_10_refutation(monkeypatch):
    import trefoil.acceptance as acceptance

    def only_criterion_10(ok, detail):
        monkeypatch.setattr(
            acceptance, "CRITERIA",
            [(1, "stub-pass", lambda: (True, "ok")),
             (10, "symplectic-footnote", lambda: (ok, detail))],
        )

    # refuted with the computed counterexample: green
    only_criterion_10(False, "computed counterexample: ... is NOT a rack (witness (1, 0))")
    code, out, _ = go("selftest")
    assert code == 0
    assert "REFUTED-AS-EXPECTED  10" in out
    assert "1/2 criteria passed, 1 refuted as expected" in out
    code, out, _ = go("--json", "selftest")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert [c["status"] for c in payload["criteria"]] == ["PASS", "REFUTED-AS-EXPECTED"]
    # the refuted claim passing: red
    only_criterion_10(True, "regression and equivalences verified")
    code, out, _ = go("selftest")
    assert code == 1 and "UNEXPECTED-PASS  10" in out
    # failing without the counterexample: red
    only_criterion_10(False, "xy over Z/2 should be antisymmetric")
    code, out, _ = go("selftest")
    assert code == 1 and "FAIL  10" in out and "refuted" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trefoil", "op", "0/1", "1/0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/1\n"


def test_one_process_matches_fresh_interpreters():
    # the parser is built once per process; no call may leave state behind
    # for the next one, so each answer equals that of a fresh interpreter
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trefoil.__file__))}
    calls = (
        ("op", "0/1"),
        ("orbit", "1/1", "--bound", "3", "--dot"),
        ("orbit", "1/1", "--bound", "3"),
        ("--json", "cf", "expand", "7/3"),
        ("cf", "expand", "7/3"),
    )
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "trefoil", *argv],
                              capture_output=True, text=True, env=env)
        assert go(*argv) == (proc.returncode, proc.stdout, proc.stderr), argv
