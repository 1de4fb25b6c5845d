"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value lies outside its algebra: bad hedge count, bad grade,
    non-comparable index out of range, malformed labels."""


def require(value, kind):
    """``value``, once it is a ``kind``; entry points check their arguments first."""
    if not isinstance(value, kind):
        raise DomainError(f"expected {kind.__name__}, got {value!r}")
    return value


class ParseError(ValueError):
    """Malformed formula or truth-value text.

    ``position`` is the 0-based offset of the offending character (or the
    text length for unexpected end of input).
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnboundAtomError(ValueError):
    """A formula atom has no assigned truth value."""

    def __init__(self, atom: str):
        super().__init__(f"atom {atom!r} has no assigned truth value")
        self.atom = atom
