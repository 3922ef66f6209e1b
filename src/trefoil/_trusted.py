"""Value types: frozen dataclasses on slots, each with one trusted builder;
the pair type on tuple, with its trusted builder; and the one trusted
builder of a Fraction."""

from dataclasses import dataclass, fields
from fractions import Fraction
from types import MethodType


def value_type(cls):
    """Declare cls a frozen dataclass on slots and attach cls._trusted, its
    one builder that skips the checks: cls._trusted(*values) holds the
    values in field order, init=False fields included, without running
    __init__ or __post_init__.  It is only for values valid by an argument
    stated where they are built.  The builder is generated once, from the
    slot descriptors, so a build is one allocation and one store per field."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {"new": object.__new__, "cls": cls}
    scope.update((f"set_{n}", getattr(cls, n).__set__) for n in names)
    stores = "".join(f"\n    set_{n}(self, {n})" for n in names)
    exec(f"def _trusted({', '.join(names)}):\n    self = new(cls){stores}\n    return self", scope)
    cls._trusted = staticmethod(scope["_trusted"])
    return cls


def pair_type(cls):
    """Attach to cls, a tuple subclass with __slots__ = (), its C-level
    builder that skips the checks: cls._trusted(pair) holds the two items
    of the tuple pair as given, without running cls.__new__.  It is only
    for pairs valid by an argument stated where they are built.  The
    builder is tuple.__new__ bound to cls as a method, which passes cls
    ahead of the pair without building an argument tuple, as a partial
    does."""
    cls._trusted = MethodType(tuple.__new__, cls)
    return cls


def coprime_fraction(p: int, q: int) -> Fraction:
    """Fraction(p, q) for coprime ints p and q > 0, without the gcd that
    Fraction(p, q) takes to reduce them: its two slots hold p and q as
    given.  Only for pairs coprime by an argument stated where they are
    built."""
    value = object.__new__(Fraction)
    value._numerator = p
    value._denominator = q
    return value
