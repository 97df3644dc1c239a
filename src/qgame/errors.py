"""Exception types shared across the package."""


class QGameError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QGameError, ValueError):
    """An input failed a structural or numerical precondition."""


class CapacityError(QGameError):
    """A register or operator would exceed the configured qubit budget."""


class GridTruncationError(QGameError):
    """A grid is too narrow for the requested strategy.

    ``boundary_mass`` records how much probability weight sits on the
    outermost grid nodes, so the caller can judge how bad the cut is.
    """

    def __init__(self, message: str, boundary_mass: float):
        super().__init__(message)
        self.boundary_mass = boundary_mass


class StepCapError(QGameError):
    """A random walk exceeded its step cap without reaching the target."""

    def __init__(self, message: str, steps: int):
        super().__init__(message)
        self.steps = steps
