"""Dense state vectors, operators, and density matrices.

Registers are stored as flat complex amplitude vectors of length 2**n with
qubit 0 as the most significant bit, so ``np.kron(a, b)`` of two amplitude
vectors puts ``a`` on the high-order wires.  Operators are plain dense
matrices and are allowed to have any dimension up to the register limit, not
just powers of two; the measurement layer is the only place that insists on
qubit shapes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .config import ATOL_ALGEBRA, ATOL_CIRCUIT, MAX_QUBITS
from .errors import CapacityError, ValidationError

_NORM_SLACK = 1e-6
# Hermiticity, trace and positivity slack of operators built by the library.
_OPERATOR_ATOL = 1e-9


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1:
        raise ValidationError(f"amplitudes must be one-dimensional, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError("amplitudes contain NaN or infinity")
    return vec


class QState:
    """Normalized pure state of ``n_qubits`` qubits."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes, *, normalize: bool = False):
        vec = _as_complex_vector(amplitudes)
        n = int(vec.size).bit_length() - 1
        if vec.size != 2**n or vec.size < 2:
            raise ValidationError(f"amplitude count {vec.size} is not a power of two >= 2")
        if n > MAX_QUBITS:
            raise CapacityError(f"register of {n} qubits exceeds the limit of {MAX_QUBITS}")
        # Finite amplitudes near the float limit overflow the norm to inf,
        # which the checks below refuse.
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        if not normalize and not abs(norm - 1.0) <= _NORM_SLACK:
            raise ValidationError(f"state norm {norm} is not 1; pass normalize=True to rescale")
        if not math.isfinite(norm):
            raise ValidationError(f"cannot normalize: state norm {norm} is not finite")
        self.amplitudes = vec / norm
        self.n_qubits = n

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "QState":
        """Computational basis state |index> of an n-qubit register."""
        dim = 2**n_qubits
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} out of range for {n_qubits} qubits")
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(vec)

    def inner(self, other: "QState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def prob_of_bit(self, qubit: int, bit: int) -> float:
        """Marginal probability that ``qubit`` reads ``bit``."""
        if not 0 <= qubit < self.n_qubits:
            raise ValidationError(f"qubit {qubit} out of range")
        tensor_view = self.amplitudes.reshape((2,) * self.n_qubits)
        slab = np.take(tensor_view, bit, axis=qubit)
        return float(np.sum(np.abs(slab) ** 2))


class Operator:
    """Dense square matrix acting on a register or subsystem."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"operator must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("operator contains NaN or infinity")
        if mat.shape[0] > 2**MAX_QUBITS:
            raise CapacityError(
                f"operator dimension {mat.shape[0]} exceeds the {MAX_QUBITS}-qubit limit"
            )
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.conj().T, atol=_OPERATOR_ATOL))


class DensityOp:
    """Density matrix: Hermitian, unit trace, positive semidefinite."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("density matrix contains NaN or infinity")
        # Finite entries near the float limit overflow these checks to inf
        # or NaN; each test is written so that NaN fails it.  Halving before
        # the sum keeps the symmetrized entries finite.
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.allclose(mat, mat.conj().T, atol=_OPERATOR_ATOL):
                raise ValidationError("density matrix is not Hermitian")
            mat = mat / 2 + mat.conj().T / 2
            trace = float(np.trace(mat).real)
        if not abs(trace - 1.0) <= _OPERATOR_ATOL:
            raise ValidationError(f"density matrix trace {trace} is not 1")
        mat = mat / trace
        eigs = np.linalg.eigvalsh(mat)
        if not eigs.min() >= -_OPERATOR_ATOL:
            raise ValidationError(f"density matrix has negative eigenvalue {eigs.min()}")
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def matfun_hermitian(g: Operator, f: Callable[[np.ndarray], np.ndarray]) -> Operator:
    """Apply a scalar function to a Hermitian operator through its eigenbasis."""
    if not g.is_hermitian():
        raise ValidationError("matfun_hermitian requires a Hermitian operator")
    eigvals, eigvecs = np.linalg.eigh(g.matrix)
    fvals = np.asarray(f(eigvals))
    result = (eigvecs * fvals) @ eigvecs.conj().T
    if np.isrealobj(fvals) or np.allclose(fvals.imag, 0.0, atol=ATOL_ALGEBRA):
        result = (result + result.conj().T) / 2
    return Operator(result)


def equal_up_to_global_phase(a, b, atol: float = ATOL_CIRCUIT):
    """Whether two states or matrices agree after removing one global phase.

    Returns ``(flag, phase)`` where ``b ~ phase * a`` when the flag is true;
    the phase is None on failure.
    """
    x = a.amplitudes if isinstance(a, QState) else (a.matrix if isinstance(a, Operator) else np.asarray(a, dtype=complex))
    y = b.amplitudes if isinstance(b, QState) else (b.matrix if isinstance(b, Operator) else np.asarray(b, dtype=complex))
    if x.shape != y.shape:
        return False, None
    overlap = np.vdot(x, y)
    size = abs(overlap)
    # Orthogonal or one side is zero: no phase can align them unless both vanish.
    if size < atol * max(1.0, float(np.vdot(x, x).real)):
        vanish = np.allclose(x, 0, atol=atol) and np.allclose(y, 0, atol=atol)
        return (True, 1.0 + 0.0j) if vanish else (False, None)
    phase = complex(overlap / size)
    return (True, phase) if np.allclose(y, phase * x, atol=atol) else (False, None)


def fidelity(a: QState, b: QState) -> float:
    """|<a|b>|^2 for pure states."""
    return float(abs(a.inner(b)) ** 2)

