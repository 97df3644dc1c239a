"""State, operator, and density-matrix plumbing."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgame
from qgame import CapacityError, ValidationError, market
from qgame.config import MAX_QUBITS
from qgame.gates import Observable
from qgame.pauli import tag_from_scalar
from qgame.report import Report
from qgame.states import (
    DensityOp,
    Operator,
    QState,
    equal_up_to_global_phase,
    fidelity,
    matfun_hermitian,
)
from qgame.transfer import transfer_byproduct_distribution

from random_matrices import random_density, random_hermitian, random_state, random_unitary


def test_every_exported_name_resolves():
    assert [name for name in qgame.__all__ if not hasattr(qgame, name)] == []
    namespace = {}
    exec("from qgame import *", namespace)
    assert set(qgame.__all__) <= namespace.keys()


def test_importing_the_package_loads_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    probe = subprocess.run(
        [sys.executable, "-c", "import qgame, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout == "False\n"


def test_basis_state_indexing_puts_qubit_zero_on_the_high_bit():
    ket01 = QState(np.kron(QState.basis(1, 0).amplitudes, QState.basis(1, 1).amplitudes))
    assert ket01.n_qubits == 2
    assert np.allclose(ket01.amplitudes, [0, 1, 0, 0])
    assert ket01.prob_of_bit(0, 0) == pytest.approx(1.0)
    assert ket01.prob_of_bit(1, 1) == pytest.approx(1.0)


def test_register_capacity_is_enforced():
    with pytest.raises(CapacityError):
        QState(np.ones(2**9) / 2**4.5)


@pytest.mark.parametrize("build", [
    pytest.param(lambda n: QState.basis(n, 0), id="register"),
    pytest.param(lambda n: Operator(np.eye(2**n)), id="operator"),
])
def test_the_limit_is_a_fixed_eight_qubits(build):
    assert MAX_QUBITS == 8
    build(MAX_QUBITS)
    with pytest.raises(CapacityError, match=f"{MAX_QUBITS}"):
        build(MAX_QUBITS + 1)


@pytest.mark.parametrize("fn", [
    market.to_momentum, market.from_momentum, market.supply_cdf, market.momentum_density_at,
    market.wigner, market.wigner_summary, market.GridSpec.conjugate, market.WignerGrid,
    Observable, DensityOp, Operator.is_hermitian, tag_from_scalar, Report.render,
    transfer_byproduct_distribution,
], ids=lambda fn: fn.__qualname__)
def test_fixed_constants_are_not_arguments(fn):
    # h_E = 2 pi, the tolerances and the render target have one value in
    # use, so none of them is a parameter or a parameter's default.
    params = inspect.signature(fn).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)
    assert {"h_e", "hbar", "in_momentum_rep", "atol", "swapped"}.isdisjoint(
        p.name for p in params)


def test_nan_and_zero_vectors_are_rejected():
    with pytest.raises(ValidationError):
        QState([np.nan, 0.0])
    with pytest.raises(ValidationError):
        QState([0.0, 0.0], normalize=True)
    with pytest.raises(ValidationError):
        Operator([[np.inf, 0], [0, 1]])


def test_norm_is_checked_unless_normalize_requested():
    with pytest.raises(ValidationError):
        QState([1.0, 1.0])
    s = QState([1.0, 1.0], normalize=True)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: QState([1e308, 1e308], normalize=True),
                 "cannot normalize: state norm inf is not finite", id="normalized-state"),
    pytest.param(lambda: QState([1e308, 1e308]),
                 "state norm inf is not 1", id="state"),
    pytest.param(lambda: DensityOp([[1e308, 0], [0, 1e308]]),
                 "density matrix trace inf is not 1", id="density-trace"),
    pytest.param(lambda: DensityOp([[1e308, 0], [0, -1e308]]),
                 "density matrix trace 0.0 is not 1", id="density-cancelling-trace"),
    pytest.param(lambda: DensityOp([[0.5, 1e308], [1e308, 0.5]]),
                 "density matrix has negative eigenvalue", id="density-off-diagonal"),
])
def test_huge_finite_entries_are_refused_without_a_warning(build, message):
    # Every RuntimeWarning is an error under the test settings, so an
    # overflow warning on the way to the refusal fails this test too.
    with pytest.raises(ValidationError, match=message):
        build()


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityOp(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityOp(np.diag([2.0, -1.0]))  # negative weight
    vec = QState([1, 1j], normalize=True).amplitudes
    rho = DensityOp(np.outer(vec, vec.conj()))
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_matfun_cosine_of_scaled_pauli_z():
    g = Operator((np.pi / 3) * np.diag([1.0, -1.0]))
    out = matfun_hermitian(g, np.cos)
    assert np.allclose(out.matrix, 0.5 * np.eye(2), atol=1e-12)


def test_matfun_identity_function_returns_the_operator():
    rng = np.random.default_rng(3)
    g = random_hermitian(5, rng)
    out = matfun_hermitian(g, lambda w: w)
    assert np.allclose(out.matrix, g.matrix, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_matfun_cos_sin_pythagoras(dim):
    rng = np.random.default_rng(100 + dim)
    g = random_hermitian(dim, rng)
    c = matfun_hermitian(g, np.cos).matrix
    s = matfun_hermitian(g, np.sin).matrix
    assert np.allclose(c @ c + s @ s, np.eye(dim), atol=1e-12)


def test_matfun_rejects_non_hermitian_input():
    with pytest.raises(ValidationError):
        matfun_hermitian(Operator([[0, 1], [0, 0]]), np.cos)


def test_equal_up_to_global_phase_finds_the_phase():
    rng = np.random.default_rng(11)
    psi = random_state(2, rng)
    shifted = QState(np.exp(0.73j) * psi.amplitudes)
    ok, phase = equal_up_to_global_phase(psi, shifted)
    assert ok
    assert phase == pytest.approx(np.exp(0.73j), abs=1e-10)


def test_equal_up_to_global_phase_rejects_distinct_states():
    ok, phase = equal_up_to_global_phase(QState.basis(1, 0), QState.basis(1, 1))
    assert not ok and phase is None
    ok, _ = equal_up_to_global_phase(QState([1, 0]), QState([0.8, 0.6]))
    assert not ok


def test_fidelity_of_basis_and_balanced_state():
    plus = QState([1, 1], normalize=True)
    assert fidelity(QState.basis(1, 0), plus) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(plus, plus) == pytest.approx(1.0, abs=1e-12)


def test_random_unitary_and_density_are_well_formed():
    rng = np.random.default_rng(5)
    u = random_unitary(6, rng)
    assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(6), atol=1e-10)
    rho = random_density(4, rng)
    assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12
