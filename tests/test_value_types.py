"""Every value type is a frozen dataclass on slots with one trusted builder,
and only _trusted.py builds an instance without its class's checks."""

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
