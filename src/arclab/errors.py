"""Shared exception types."""


class ArclabError(Exception):
    """Base class for all package-specific errors."""


class DslSyntaxError(ArclabError):
    """Raised on malformed DSL input; carries the offending position."""

    def __init__(self, message, pos, text=None):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos})")


class ShapeError(ArclabError):
    """An element or series does not fit the group it was paired with."""


class NonEffectiveError(ArclabError):
    """Element-level arithmetic was requested on a schematic component."""


class ZeroInputError(ArclabError):
    """The operation is undefined for the zero series."""


class TruncationError(ArclabError):
    """A truncated series does not carry enough terms to decide the question."""


class RootError(ArclabError):
    """No root exists, or the leading coefficient is not an exact power."""


class UnsupportedQuantifierPattern(ArclabError):
    """The decidable evaluator met a quantifier shape it has no procedure for."""


class ParameterError(ArclabError):
    """Supplied parameters violate the coset-representative contract, or a
    parameter lies outside the range arclab decides (a prime too large to
    test)."""


class UnboundVariableError(ArclabError):
    """A formula referenced a variable with no binding in scope."""


class InternalError(ArclabError):
    """An internal invariant failed: a contradiction in the theory layer, not bad input."""
