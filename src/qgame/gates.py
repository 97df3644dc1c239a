"""Gate constants, binary observables, and their eigenprojectors.

The single-qubit gates live in SU(2), so the bit flip is i times the usual
Pauli X and the Hadamard squares to minus identity.  That factor of i is
invisible to any measurement but matters a great deal when composing gates,
so the identity checks in :func:`qgame.transfer.verify_universality` pin the
conventions down explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ATOL_ALGEBRA
from .errors import ValidationError

_SQRT2 = np.sqrt(2.0)

# Pauli matrices, used as observables rather than gates.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# SU(2) gate constants.
NOT = 1j * SIGMA_X
H = (1j / _SQRT2) * np.array([[1, 1], [1, -1]], dtype=complex)
T = np.array([[1, 0], [0, (1 + 1j) / _SQRT2]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# Controlled flip with the SU(2) bit flip as its target block; differs from
# the textbook CNOT by a phase of i on the control-1 subspace.
CNOT_ALLIANCE = np.block(
    [[I2, np.zeros((2, 2))], [np.zeros((2, 2)), NOT]]
).astype(complex)

# Plain controlled-NOT, the two-qubit target of the measurement-based
# construction (Pauli corrections cannot absorb the alliance's extra phase).
CNOT = np.block([[I2, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA_X]]).astype(complex)


class Observable:
    """Binary observable: a Hermitian involution with outcomes +1 and -1."""

    __slots__ = ("matrix", "label", "projectors", "proj_plus", "proj_minus", "_eigenvectors")

    def __init__(self, matrix, label: str):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"observable {label!r} must be square")
        if not np.allclose(mat, mat.conj().T, atol=ATOL_ALGEBRA):
            raise ValidationError(f"observable {label!r} is not Hermitian")
        eye = np.eye(mat.shape[0])
        if not np.allclose(mat @ mat, eye, atol=ATOL_ALGEBRA):
            raise ValidationError(f"observable {label!r} is not an involution")
        self.matrix = mat
        self.label = label
        # The +1 and -1 projectors as one (2, d, d) stack, so one kernel call forks a register.
        self.projectors = np.stack([(eye + mat) / 2, (eye - mat) / 2])
        self.proj_plus, self.proj_minus = self.projectors
        self._eigenvectors = {}

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        n = int(self.dim).bit_length() - 1
        if 2**n != self.dim:
            raise ValidationError(f"observable {self.label!r} is not qubit-shaped")
        return n

    def projector(self, sign: int) -> np.ndarray:
        if sign not in (+1, -1):
            raise ValidationError(f"outcome sign must be +1 or -1, got {sign}")
        return self.proj_plus if sign == +1 else self.proj_minus

    def eigenvector(self, sign: int) -> np.ndarray:
        """Unit eigenvector for ``sign``; only defined for one-qubit observables.

        The phase is fixed by making the first nonzero component real and
        positive.  It is computed once per sign and shared, so it is
        read-only.
        """
        vec = self._eigenvectors.get(sign)
        if vec is None:
            vec = self._eigenvectors[sign] = self._unit_eigenvector(sign)
        return vec

    def _unit_eigenvector(self, sign: int) -> np.ndarray:
        if self.dim != 2:
            raise ValidationError("eigenvector lookup is only supported for one-qubit observables")
        proj = self.projector(sign)
        col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
        norm = np.linalg.norm(col)
        if norm < 1e-12:
            raise ValidationError(f"observable {self.label!r} has no {sign:+d} eigenspace")
        col = col / norm
        anchor = col[np.argmax(np.abs(col) > 1e-12)]
        vec = col * (anchor.conjugate() / abs(anchor))
        vec.setflags(write=False)
        return vec

    def tensor(self, other: "Observable") -> "Observable":
        return Observable(np.kron(self.matrix, other.matrix), f"{self.label}*{other.label}")


# The four one-qubit observables of the measurement calculus.  OBS_X_PRIME is
# what a computational-basis readout reports (outcome +1 meaning bit 0), and
# OBS_X_SECOND is forced to be sigma_y by the phase-gate conjugation identity
# checked in _check_conventions below.
OBS_X = Observable(SIGMA_X, "X")
OBS_X_PRIME = Observable(SIGMA_Z, "X'")
OBS_X_SECOND = Observable(SIGMA_Y, "X''")
OBS_DIAG = Observable((SIGMA_Z + SIGMA_Y) / _SQRT2, "G")
OBS_X_MINUS_SECOND = Observable((SIGMA_X - SIGMA_Y) / _SQRT2, "(X-X'')/sqrt2")


@dataclass(frozen=True)
class GateSet:
    """The gate constants a protocol runs with.

    The defaults are the SU(2) set above; tests substitute perturbed copies
    to confirm that the identity checks actually bite.
    """

    not_gate: np.ndarray = field(default_factory=lambda: NOT.copy())
    hadamard: np.ndarray = field(default_factory=lambda: H.copy())
    phase_t: np.ndarray = field(default_factory=lambda: T.copy())

    def __post_init__(self):
        # Non-finite entries are kept: the ledger rows that read them fail alone.
        for name in ("not_gate", "hadamard", "phase_t"):
            raw = np.asarray(getattr(self, name))
            if raw.dtype.kind not in "biufc" or raw.shape != (2, 2):
                raise ValidationError(f"the {name} gate must be a numeric 2 x 2 matrix, "
                                      f"got {raw.dtype} of shape {raw.shape}")
            object.__setattr__(self, name, raw.astype(complex, copy=False))


DEFAULT_GATES = GateSet()


def _check_conventions() -> None:
    """Assert the phase conventions the rest of the package leans on."""
    t_inv = np.linalg.inv(T)
    derived = t_inv @ SIGMA_X @ T
    if not np.allclose(derived, OBS_X_MINUS_SECOND.matrix, atol=ATOL_ALGEBRA):
        raise AssertionError("phase-gate conjugation of X does not match (X - X'')/sqrt2")
    if not np.allclose(H @ SIGMA_X @ H.conj().T, SIGMA_Z, atol=ATOL_ALGEBRA):
        raise AssertionError("Hadamard conjugation of X does not give X'")
    if not np.allclose(H @ H, -I2, atol=ATOL_ALGEBRA):
        raise AssertionError("Hadamard does not square to minus identity")


_check_conventions()
