"""Quantum game toolbox: dense simulation, measurement-driven gates, markets.

The package holds only the error types and the version, so ``import qgame``
loads no numpy; everything else is imported from its submodule.
"""

from .errors import CapacityError, QGameError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "QGameError",
    "ValidationError",
    "__version__",
]
