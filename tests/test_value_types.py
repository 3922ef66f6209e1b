"""Every value type is a frozen dataclass on slots with one trusted builder,
only _trusted.py builds an instance without its class's checks, and a
field is written after construction only by its class's __post_init__."""

import ast
import dataclasses
import pathlib

import trefoil
from trefoil import (
    BraidElement,
    ContinuedFraction,
    dihedral_quandle,
    frac_to_word,
    lambda_act,
    longitude,
    parse_word,
    pf_new,
    qt_new,
    transvection_matrix,
)

SRC = pathlib.Path(trefoil.__file__).parent
VALUE_TYPES = [obj for obj in (getattr(trefoil, name) for name in trefoil.__all__)
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)]


def test_every_value_type_is_frozen_on_slots_with_a_builder():
    assert {cls.__name__ for cls in VALUE_TYPES} == {
        "PFrac", "TransvectionMatrix", "OrbitReport", "ContinuedFraction", "QWord",
        "NormalForm", "BraidElement", "CoveredElement", "FiniteQuandle", "AxiomReport",
        "FiniteGroup", "LaurentQuotientRing"}
    for cls in VALUE_TYPES:
        assert cls.__dataclass_params__.frozen, cls
        assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}, cls
        assert cls.__dictoffset__ == 0, cls
        assert callable(cls._trusted), cls


def test_values_have_no_instance_dict():
    p = qt_new(longitude())
    values = [pf_new(3, 7), transvection_matrix(pf_new(1, 2)), ContinuedFraction((1, 2)),
              parse_word("abA"), frac_to_word(pf_new(7, 3)), BraidElement.parse("abAB"),
              p, p.x, lambda_act(3, p), dihedral_quandle(3)]
    for x in values:
        assert not hasattr(x, "__dict__"), type(x)


def test_sources_keep_one_unchecked_constructor_and_no_instance_dicts():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "_trusted.py" in sources
    assert [name for name, text in sources.items() if "object.__new__" in text] == ["_trusted.py"]
    for needle in ("cached_property", "__dict__", "vars("):
        assert [name for name, text in sources.items() if needle in text] == [], needle


def _setattr_calls(node: ast.AST) -> int:
    return sum(isinstance(n, ast.Attribute) and n.attr == "__setattr__"
               and isinstance(n.value, ast.Name) and n.value.id == "object"
               for n in ast.walk(node))


def test_object_setattr_appears_only_in_post_init():
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inits = [n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"]
        assert _setattr_calls(tree) == sum(map(_setattr_calls, inits)), path.name
