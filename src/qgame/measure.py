"""Gate application and projective measurement on dense registers.

Branch enumeration is written so that evaluations share no mutable state:
each branch works on its own amplitude copy and results are merged in a
fixed order (+1 before -1), which is what makes reports reproducible and
would let the branches run concurrently if anyone cared to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import PROB_EPS
from .errors import ValidationError
from .gates import Observable
from .states import DensityOp, Operator, QState, matfun_hermitian


def _check_wires(targets: Sequence[int], n_qubits: int, width: int) -> tuple[int, ...]:
    wires = tuple(int(t) for t in targets)
    if len(wires) != width:
        raise ValidationError(f"expected {width} target wires, got {len(wires)}")
    if len(set(wires)) != len(wires):
        raise ValidationError(f"target wires must be distinct, got {wires}")
    for w in wires:
        if not 0 <= w < n_qubits:
            raise ValidationError(f"wire {w} out of range for {n_qubits} qubits")
    return wires


def _on_wires(ops: np.ndarray, vec: np.ndarray, wires: tuple, n_qubits: int) -> np.ndarray:
    """Each ``(r, 2**k)`` operator in ``ops`` times the register, ``wires`` first:
    one ``np.matmul`` that makes, per contiguous operator, the BLAS call it alone gets."""
    psi = vec.reshape((2,) * n_qubits + vec.shape[1:])
    rest = [a for a in range(psi.ndim) if a not in wires]
    return np.matmul(np.ascontiguousarray(ops),
                     psi.transpose(*wires, *rest).reshape(2 ** len(wires), -1))


def apply_matrix(vec: np.ndarray, mat: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Apply a k-wire matrix to the chosen wires of a flat amplitude vector.

    ``vec`` is one register of shape ``(2**n_qubits,)`` or a block of shape
    ``(2**n_qubits, b)`` whose b columns are registers; every column gets the
    same matrix, and the result has the shape of ``vec``.  A stack ``mat`` of
    shape ``(m, 2**k, 2**k)`` gives ``(m, *vec.shape)`` in the same one call,
    entry i bit for bit what ``mat[i]`` alone gives.
    """
    k = int(mat.shape[-1]).bit_length() - 1
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (2**k, 2**k):
        raise ValidationError(f"matrix shape {mat.shape} is not a k-qubit operator")
    wires = _check_wires(targets, n_qubits, k)
    out = _on_wires(mat.reshape(-1, 2**k, 2**k), vec, wires, n_qubits)
    # The axes come out as (operator, target wires, other wires, columns).
    order = wires + tuple(w for w in range(n_qubits) if w not in wires)
    out = out.reshape(out.shape[:1] + (2,) * n_qubits + vec.shape[1:])
    out = out.transpose(0, *(1 + np.argsort(order)), *range(n_qubits + 1, out.ndim))
    return out.reshape(mat.shape[:-2] + vec.shape)


def apply_gate(state: QState, gate, targets: Sequence[int]) -> QState:
    """Unitary gate application; raises if the result drifts off unit norm."""
    mat = gate.matrix if isinstance(gate, Operator) else np.asarray(gate, dtype=complex)
    out = apply_matrix(state.amplitudes, mat, targets, state.n_qubits)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError(f"gate application changed the norm to {norm}; gate is not unitary")
    return QState(out)


def partial_inner(vec: np.ndarray, local: np.ndarray, wire: int, n_qubits: int) -> np.ndarray:
    """Contract <local| against one wire, returning the remaining register.

    Like :func:`apply_matrix`, ``vec`` may be a ``(2**n_qubits, b)`` block of
    column registers; the result is then ``(2**(n_qubits - 1), b)``.  A stack
    ``local`` of shape ``(m, 2)`` adds a leading axis m, all in one kernel call.
    """
    out = _on_wires(local.conj().reshape(-1, 1, 2), vec, (wire,), n_qubits)
    return out.reshape(local.shape[:-1] + (2 ** (n_qubits - 1),) + vec.shape[1:])


@dataclass(frozen=True)
class Branch:
    """One measurement outcome: signed results, probability, normalized state."""

    outcomes: tuple[tuple[str, int], ...]
    probability: float
    state: QState


def measure(state: QState, obs: Observable, targets: Sequence[int]) -> list[Branch]:
    """Measure a binary observable on the chosen wires.

    Enumerates every realizable branch, +1 before -1; there is no sampling.
    """
    wires = _check_wires(targets, state.n_qubits, obs.n_qubits)
    branches = []
    for sign in (+1, -1):
        projected = apply_matrix(state.amplitudes, obs.projector(sign), wires, state.n_qubits)
        prob = float(np.vdot(projected, projected).real)
        if prob < PROB_EPS:
            continue
        branches.append(Branch(
            outcomes=((obs.label, sign),),
            probability=prob,
            state=QState(projected / np.sqrt(prob)),
        ))
    return branches


@dataclass(frozen=True)
class InterfaceResult:
    """Yes/no interrogation of a system through a coupled pointer.

    The affirmative branch evolves under the cosine half of the coupling and
    the negative branch under the sine half; a branch whose weight vanishes
    is flagged by a None density matrix.
    """

    p_plus: float
    p_minus: float
    rho_plus: DensityOp | None
    rho_minus: DensityOp | None


def interface_yes_no(rho: DensityOp, g: Operator, coupling: float) -> InterfaceResult:
    """Split a state into yes/no branches for coupling angle ``coupling``.

    Implements the back-action of reading one bit off an apparatus coupled
    through the Hermitian generator ``g``: rho -> cos(c g) rho cos(c g) on
    the yes branch and sin(c g) rho sin(c g) on the no branch.
    """
    if not g.is_hermitian():
        raise ValidationError("coupling generator must be Hermitian")
    if g.dim != rho.dim:
        raise ValidationError(f"generator dim {g.dim} does not match state dim {rho.dim}")
    scaled = Operator(coupling * g.matrix)
    cos_part = matfun_hermitian(scaled, np.cos).matrix
    sin_part = matfun_hermitian(scaled, np.sin).matrix

    def _branch(op: np.ndarray) -> tuple[float, DensityOp | None]:
        unnorm = op @ rho.matrix @ op
        weight = float(np.trace(unnorm).real)
        if weight < PROB_EPS:
            return max(weight, 0.0), None
        return weight, DensityOp(unnorm / weight)

    p_plus, rho_plus = _branch(cos_part)
    p_minus, rho_minus = _branch(sin_part)
    return InterfaceResult(p_plus=p_plus, p_minus=p_minus, rho_plus=rho_plus, rho_minus=rho_minus)
