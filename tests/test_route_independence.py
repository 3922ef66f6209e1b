"""The routes that certify each other stay independent: the helpers reached
from one route's entry points share nothing with those reached from the
route it is checked against, but value types and validators.

The walk reads src/trefoil with ast.  A module-level function, or a
module-level name bound by assignment, reads every module-level function,
class or name of the package that its definition names, across imports,
by name or as an attribute of a module imported with `from . import`;
reaching is the closure of reading.  A class is a value type: it is
reached but not entered.  Annotations are not read.
"""

import ast
import itertools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "trefoil"

# Each group lists the entry points of routes that must not share helpers.
ROUTES = {
    # rewriting against the fraction route and its continued fractions
    "words": (["words.normalize"],
              ["words.word_to_frac", "words.frac_to_word", "cfrac.cf_expand"]),
    # the Garside kernels against the Burau image at t = -1, the covered
    # element's first slot read off its second slot's image included
    "braids": (["braid._times", "braid._glue", "braid._inverse_word", "braid._inverse_form"],
               ["braid._image", "braid._matmul", "longknot._x_image"]),
    # the transvection, the matrix action and the symplectic operation
    "fractions": (["pfrac.pf_op"],
                  ["pfrac.apply_matrix", "pfrac.transvection_matrix"],
                  ["pfrac.sympl_op"]),
    # the long trefoil's operations against the fraction quandle they map to
    "covering": (["longknot.qt_op", "longknot.qt_op_inv"], ["pfrac.pf_op", "pfrac.pf_op_inv"]),
    # expansion against evaluation, which criterion 5 checks both ways
    "continued fractions": (["cfrac.cf_expand"], ["cfrac.cf_eval"]),
}

# The validators and value-type builders routes may share, besides classes.
SHARED = {"words._as_word", "words.parse_word", "pfrac._pfrac"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _runtime_names(node):
    """The names a definition reads when it runs, annotations left out:
    each bare name, and each attribute of one as 'name.attribute'."""
    hidden = set()
    for sub in ast.walk(node):
        for annotation in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if annotation is not None:
                hidden.update(map(id, ast.walk(annotation)))
    names = set()
    for n in ast.walk(node):
        if id(n) in hidden:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            names.add(f"{n.value.id}.{n.attr}")
    return names


def _reads(trees):
    """Each module-level definition, as 'module.name', with the qualified
    names it reads, and the set of classes.  After `from . import module`,
    module.name reads that module's name; a read is kept, once every module
    is walked, when it names a definition."""
    reads, classes = {}, set()
    for module, tree in trees.items():
        scope, bodies = {}, []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module else alias.name)
            elif isinstance(node, ast.ClassDef):
                scope[node.name] = f"{module}.{node.name}"
                classes.add(scope[node.name])
                bodies.append((node.name, None))
            elif isinstance(node, ast.FunctionDef):
                scope[node.name] = f"{module}.{node.name}"
                bodies.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in ast.walk(ast.Tuple(elts=targets)):
                    if isinstance(target, ast.Name):
                        scope[target.id] = f"{module}.{target.id}"
                        bodies.append((target.id, node.value))
        for name, body in bodies:
            own = f"{module}.{name}"
            named = set() if body is None else _runtime_names(body)
            # 'head.attribute' qualifies its head: 'pfrac.pf_op' after
            # `from . import pfrac`, and no definition after a class name
            qualified = {scope[head] + dot + attr
                         for head, dot, attr in (n.partition(".") for n in named) if head in scope}
            reads.setdefault(own, set()).update(qualified - {own})
    return {own: names & reads.keys() for own, names in reads.items()}, classes


def _reach(reads, entries):
    seen, stack = set(), list(entries)
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(reads[name])
    return seen


def _shared_helpers(trees, group):
    """The helpers two routes of the group both reach, value types and the
    allowed validators left out, for each pair of routes."""
    reads, classes = _reads(trees)
    reached = [_reach(reads, entries) for entries in ROUTES[group]]
    return {(i, j): reached[i] & reached[j] - classes - SHARED
            for i, j in itertools.combinations(range(len(reached)), 2)}


@pytest.mark.parametrize("group", ROUTES)
def test_routes_share_no_helper(group):
    shared = _shared_helpers(_trees(), group)
    assert all(not names for names in shared.values()), shared


def test_the_walk_follows_calls_across_modules():
    reads, classes = _reads(_trees())
    assert {"words._canon", "words._last_b_to"} <= _reach(reads, ["words.normalize"])
    assert {"cfrac._euclid_batch", "cfrac._BATCH_KEEP", "cfrac.ContinuedFraction"} <= (
        _reach(reads, ["words.frac_to_word"]))
    assert {"pfrac._pf_signed", "pfrac._pfrac", "pfrac.PFrac"} <= (
        _reach(reads, ["words.word_to_frac"]))
    assert "braid.meridian" in _reach(reads, ["longknot.qt_op"])  # through _M
    assert {"words.QWord", "words.NormalForm", "pfrac.PFrac"} <= classes


def test_every_allowed_helper_is_shared_somewhere():
    # an allowance no pair of routes needs is stale
    reads, _ = _reads(_trees())
    needed = set()
    for sides in ROUTES.values():
        reached = [_reach(reads, entries) for entries in sides]
        for a, b in itertools.combinations(reached, 2):
            needed |= a & b
    assert SHARED <= needed


@pytest.mark.parametrize("group, module, function, call", [
    ("words", "words", "normalize", "word_to_frac(w)"),
    ("braids", "braid", "_glue", "_matmul((1, 0, 0, 1), (1, 0, 0, 1))"),
    ("braids", "braid", "_inverse_word", "_matmul((1, 0, 0, 1), (1, 0, 0, 1))"),
    ("braids", "longknot", "_x_image", "_glue(0, '', 0, '')"),
    ("fractions", "pfrac", "sympl_op", "pf_op(x, y)"),
    ("covering", "longknot", "qt_op", "from . import pfrac; pfrac.pf_op(p, q)"),
    ("continued fractions", "cfrac", "cf_eval", "_euclid_batch(3, 2)"),
])
def test_a_planted_call_across_routes_is_found(group, module, function, call):
    # an import is planted at module level, the call at the top of the function
    trees = _trees()
    node = next(n for n in trees[module].body
                if isinstance(n, ast.FunctionDef) and n.name == function)
    planted = ast.parse(call).body
    trees[module].body[:0] = [s for s in planted if isinstance(s, ast.ImportFrom)]
    node.body[:0] = [s for s in planted if not isinstance(s, ast.ImportFrom)]
    assert any(_shared_helpers(trees, group).values())
