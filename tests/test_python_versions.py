"""The oldest Python that pyproject.toml promises can parse every source file.

ast.parse with feature_version checks grammar only: a standard-library
name or behaviour that is missing from that version is not caught here."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _oldest_supported() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_every_source_file_parses_at_the_oldest_supported_version():
    version = _oldest_supported()
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
