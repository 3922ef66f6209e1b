"""Value types: frozen dataclasses on slots, each with one trusted builder."""

from dataclasses import dataclass, fields


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
