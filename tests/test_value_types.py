"""Every value type is a frozen dataclass on slots with one trusted builder,
except PFrac, an immutable pair on tuple with its trusted builder and that
builder's bulk form; only _trusted.py builds an instance without its
class's checks, and a field is written after construction only by its
class's __post_init__."""

import ast
import copy
import dataclasses
import pathlib
import pickle

import pytest

import trefoil
from trefoil import (
    BraidElement,
    ContinuedFraction,
    PFrac,
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
        "TransvectionMatrix", "OrbitReport", "ContinuedFraction", "QWord",
        "NormalForm", "BraidElement", "CoveredElement", "FiniteQuandle", "AxiomReport",
        "FiniteGroup", "LaurentQuotientRing"}
    for cls in VALUE_TYPES:
        assert cls.__dataclass_params__.frozen, cls
        assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}, cls
        assert cls.__dictoffset__ == 0, cls
        assert callable(cls._trusted), cls


def test_pfrac_is_an_immutable_strict_unordered_pair():
    x, y = pf_new(3, 7), pf_new(-1, 2)
    # a tuple subclass with no slots of its own and no unchecked namedtuple builders
    assert PFrac.__bases__ == (tuple,) and PFrac.__slots__ == ()
    assert PFrac.__dictoffset__ == 0 and not hasattr(x, "__dict__")
    assert not hasattr(PFrac, "_make") and not hasattr(PFrac, "_replace")
    assert callable(PFrac._trusted)
    # immutable
    for name in ("p", "q", "r"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.p
    assert (x.p, x.q) == (3, 7) and tuple(x) == (3, 7)
    # equal only to another PFrac, in either operand order; hash consistent
    assert x == PFrac(3, 7) and not x != PFrac(3, 7) and hash(x) == hash(PFrac(3, 7))
    assert x != y and not x == y
    for other in ((3, 7), [3, 7], 3, "3/7", None):
        assert x != other and other != x
        assert not x == other and not other == x
    assert len({x, PFrac(3, 7), (3, 7)}) == 2
    assert {x: 1}.get((3, 7)) is None and {(3, 7): 1}.get(x) is None
    # unordered, against a PFrac or a plain tuple, in either operand order
    for a, b in ((x, y), (x, (3, 8)), ((3, 8), x)):
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()
    # repr, str and the public constructor's checks and messages
    assert repr(x) == "PFrac(p=3, q=7)" and str(y) == "-1/2"
    for args, message in (((0, 0), "the zero pair has no projective class"),
                          ((2, 4), "(2, 4) is not reduced"),
                          ((1, -2), "(1, -2) is not canonically signed"),
                          ((-1, 0), "(-1, 0) is not canonically signed"),
                          ((True, 1), "expected ints, got (True, 1)"),
                          ((1, 2.0), "expected ints, got (1, 2.0)")):
        with pytest.raises(ValueError) as err:
            PFrac(*args)
        assert str(err.value) == message
    with pytest.raises(TypeError):
        PFrac((3, 7))
    # copy and pickle round-trip to an equal PFrac
    big = pf_new(2**200 + 1, 3**90)
    for z in (x, y, big, pf_new(1, 0)):
        copies = [copy.copy(z), copy.deepcopy(z)]
        copies += [pickle.loads(pickle.dumps(z, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is PFrac and c == z and hash(c) == hash(z) and repr(c) == repr(z)


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
    for needle in ("object.__new__", "tuple.__new__"):
        assert [name for name, text in sources.items() if needle in text] == ["_trusted.py"], needle
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
