"""Every name trefoil exports has a caller outside the tests: the library
itself (a name's own definition and __init__.py do not count), the
benchmark, or the README."""

import ast
import pathlib
import re

import trefoil

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _used_names(path):
    """Every name a module reads, as a variable or an attribute, except a
    top-level definition's own name inside its body."""
    used = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                 for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
        names.discard(getattr(node, "name", None))
        used |= names
    return used


def test_every_export_has_a_caller_outside_the_tests():
    modules = [p for p in (ROOT / "src" / "trefoil").glob("*.py") if p.name != "__init__.py"]
    modules += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_used_names, modules))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in trefoil.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []
