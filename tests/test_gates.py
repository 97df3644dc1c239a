"""Gate constants, conjugation identities, and observable structure."""

import numpy as np
import pytest

from qgame import ValidationError
from qgame.gates import (
    CNOT,
    CNOT_ALLIANCE,
    H,
    NOT,
    OBS_DIAG,
    OBS_X,
    OBS_X_MINUS_SECOND,
    OBS_X_PRIME,
    OBS_X_SECOND,
    Observable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    T,
)
from qgame.states import equal_up_to_global_phase

ATOL = 1e-12


def test_not_and_h_live_in_su2():
    assert np.linalg.det(NOT) == pytest.approx(1.0, abs=ATOL)
    assert np.linalg.det(H) == pytest.approx(1.0, abs=ATOL)
    assert np.allclose(NOT @ NOT, -np.eye(2), atol=ATOL)
    assert np.allclose(H @ H, -np.eye(2), atol=ATOL)


def test_h_sandwich_of_not_is_the_diagonal_phase_pair():
    assert np.allclose(H @ NOT @ H, np.diag([-1j, 1j]), atol=ATOL)


def test_hadamard_conjugation_swaps_the_flip_and_readout_observables():
    assert np.allclose(H @ SIGMA_X @ H.conj().T, SIGMA_Z, atol=ATOL)
    assert np.allclose(H @ SIGMA_Z @ H.conj().T, SIGMA_X, atol=ATOL)
    assert np.allclose(H @ SIGMA_Y @ H.conj().T, -SIGMA_Y, atol=ATOL)


def test_phase_gate_conjugation_tilts_the_flip_observable():
    derived = np.linalg.inv(T) @ SIGMA_X @ T
    assert np.allclose(derived, OBS_X_MINUS_SECOND.matrix, atol=ATOL)
    # T is unitary, so the inverse route and the dagger route agree.
    assert np.allclose(np.linalg.inv(T), T.conj().T, atol=ATOL)


def test_h_conjugation_sends_tilted_flip_to_diagonal_mix():
    derived = H @ OBS_X_MINUS_SECOND.matrix @ H.conj().T
    assert np.allclose(derived, OBS_DIAG.matrix, atol=ATOL)


def test_alliance_block_structure_and_period():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    built = np.kron(p0, np.eye(2)) + np.kron(p1, NOT)
    assert np.allclose(CNOT_ALLIANCE, built, atol=ATOL)
    fourth = np.linalg.matrix_power(CNOT_ALLIANCE, 4)
    assert np.allclose(fourth, np.eye(4), atol=ATOL)


def test_alliance_copies_the_computational_basis_up_to_phase():
    for m in (0, 1):
        src = np.zeros(4, dtype=complex)
        src[m << 1] = 1.0  # |m>|0>
        expect = np.zeros(4, dtype=complex)
        expect[(m << 1) | m] = 1.0  # |m>|m>
        ok, phase = equal_up_to_global_phase(CNOT_ALLIANCE @ src, expect)
        assert ok, f"copy failed for m={m}"
        if m == 1:
            assert phase == pytest.approx(-1j, abs=1e-12)


def test_plain_cnot_differs_from_alliance_by_a_conditional_phase():
    ratio = CNOT_ALLIANCE @ np.linalg.inv(CNOT)
    assert np.allclose(ratio, np.diag([1, 1, 1j, 1j]), atol=ATOL)


_ONE_QUBIT = [pytest.param(obs, id=obs.label)
              for obs in (OBS_X, OBS_X_PRIME, OBS_X_SECOND, OBS_DIAG)]


@pytest.mark.parametrize("obs", _ONE_QUBIT)
def test_named_observables_are_involutions_with_clean_projectors(obs):
    eye = np.eye(2)
    assert np.allclose(obs.matrix @ obs.matrix, eye, atol=ATOL)
    plus, minus = obs.projectors
    assert np.allclose(plus @ plus, plus, atol=ATOL)
    assert np.allclose(plus @ minus, 0.0, atol=ATOL)
    assert np.allclose(plus + minus, eye, atol=ATOL)


@pytest.mark.parametrize("obs", _ONE_QUBIT)
@pytest.mark.parametrize("sign", [+1, -1])
def test_eigenvectors_actually_belong_to_their_eigenvalue(obs, sign):
    vec = obs.eigenvector(sign)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(obs.matrix @ vec, sign * vec, atol=ATOL)


@pytest.mark.parametrize("sign", [+1, -1])
def test_eigenvectors_are_computed_once_and_read_only(sign):
    obs = OBS_DIAG
    vec = obs.eigenvector(sign)
    assert obs.eigenvector(sign) is vec
    with pytest.raises(ValueError):
        vec[0] = 0.0


def test_observable_tensor_builds_the_joint_label_and_matrix():
    joint = OBS_X.tensor(OBS_X_PRIME)
    assert joint.label == "X*X'"
    assert np.allclose(joint.matrix, np.kron(SIGMA_X, SIGMA_Z), atol=ATOL)
    assert joint.n_qubits == 2


def test_non_involutions_are_rejected():
    with pytest.raises(ValidationError):
        Observable(np.diag([1.0, 2.0]), "bad-scale")
    with pytest.raises(ValidationError):
        Observable(np.array([[0, 1], [0, 0]]), "bad-sym")
