"""The one constructor that skips a value type's checks."""


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, skipping
    __post_init__: only for fields valid by an argument stated at the call."""
    x = object.__new__(cls)
    x.__dict__.update(fields)
    return x
