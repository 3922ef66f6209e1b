"""The README's examples, run as written: the library quick tour and the
command-line examples whose comment is their output."""

import io
import pathlib
import re
import shlex

from trefoil.cli import run

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(_block("Library quick tour", "python"), "README quick tour", "exec"), {})


def test_command_line_examples_print_their_comment():
    examples = []
    for line in _block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] in ("axioms", "orbit", "long", "selftest"):
            continue
        examples.append((argv, comment.split()[0]))
    # op, pow, matrix, normalize, word2frac, frac2word, cf expand, cf eval
    assert len(examples) == 8
    for argv, expected in examples:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, stdout=out, stderr=err) == 0, (argv, err.getvalue())
        assert out.getvalue().splitlines()[0] == expected, argv
