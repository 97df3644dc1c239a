"""Random states, operators and density matrices for tests."""

import numpy as np

from qgame.states import DensityOp, Operator, QState


def random_state(n_qubits: int, rng: np.random.Generator) -> QState:
    """Haar-ish random pure state from a complex Gaussian draw."""
    dim = 2**n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QState(vec, normalize=True)


def random_unitary(dim: int, rng: np.random.Generator) -> Operator:
    """Haar random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return Operator(q)


def random_hermitian(dim: int, rng: np.random.Generator) -> Operator:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator((z + z.conj().T) / 2)


def random_density(dim: int, rng: np.random.Generator) -> DensityOp:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return DensityOp(rho / np.trace(rho).real)
