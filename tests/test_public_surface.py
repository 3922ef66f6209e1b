"""Every name trefoil exports has a caller outside the tests: the library
itself (a name's own definition and __init__.py do not count), the
benchmark, or the README.  Every other module-level name of the library
is read by the library itself, so no helper outlives its last caller."""

import ast
import pathlib
import re

import trefoil

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trefoil"


def _used_names(path):
    """Every name a module reads, as a variable or an attribute, except a
    top-level definition's own name inside its body.  An import is not a
    read."""
    used = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                 for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
        names.discard(getattr(node, "name", None))
        used |= names
    return used


def _defined_names(path):
    """The module-level functions, classes and assigned names of a module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (sub.id for target in targets for sub in ast.walk(target)
                        if isinstance(sub, ast.Name))


def test_every_export_has_a_caller_outside_the_tests():
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    modules += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_used_names, modules))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [name for name in trefoil.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_every_other_module_level_name_is_read_by_the_library():
    # tests and the benchmark do not count: a name only they read is
    # either exported or dead
    modules = sorted(SRC.glob("*.py"))
    used = set().union(*map(_used_names, modules))
    unread = [f"{path.stem}.{name}" for path in modules for name in _defined_names(path)
              if name not in trefoil.__all__ and not name.startswith("__") and name not in used]
    assert unread == []
