"""Quantum game toolbox: dense simulation, measurement-driven gates, markets."""

from .config import ATOL_ALGEBRA, ATOL_CIRCUIT, seeded_rng
from .errors import (
    CapacityError,
    GridTruncationError,
    QGameError,
    StepCapError,
    ValidationError,
)
from .states import (
    DensityOp,
    Operator,
    QState,
    equal_up_to_global_phase,
    fidelity,
    matfun_hermitian,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL_ALGEBRA",
    "ATOL_CIRCUIT",
    "CapacityError",
    "DensityOp",
    "GridTruncationError",
    "Operator",
    "QGameError",
    "QState",
    "StepCapError",
    "ValidationError",
    "equal_up_to_global_phase",
    "fidelity",
    "matfun_hermitian",
    "seeded_rng",
    "tensor",
    "__version__",
]
