"""Exception types shared across the package."""


class DstaError(Exception):
    """Base class for all package errors."""


class InvalidParams(DstaError):
    """Algorithm parameters violate their documented bounds."""


class IncompatibleOperator(DstaError):
    """An operator was requested for a representation it cannot act on."""


class DegenerateState(DstaError):
    """The state is too small for the requested transformation."""


class DimensionMismatch(DstaError):
    """Solution length does not match the instance dimension."""


class DomainViolation(DstaError):
    """A decoded value falls outside the problem's alphabet."""


class NonFiniteCost(DstaError):
    """The cost of the initial state or of a round's best candidate is NaN or infinite."""


class ParseError(DstaError):
    """Malformed instance, result or trace file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedType(DstaError):
    """Instance type or weight format outside the supported subset."""


class TooLarge(DstaError):
    """Instance exceeds the brute-force oracle bound."""
