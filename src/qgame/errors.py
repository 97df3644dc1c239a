"""Exception types shared across the package."""


class QGameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QGameError, ValueError):
    """An input failed a structural or numerical precondition."""


class CapacityError(QGameError):
    """A register or operator would exceed the configured qubit budget."""
