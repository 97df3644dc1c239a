"""Projective measurement and the yes/no interface split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import ValidationError
from qgame.gates import H, OBS_DIAG, OBS_X, OBS_X_PRIME, OBS_X_SECOND
from qgame.measure import (
    apply_gate,
    apply_matrix,
    interface_yes_no,
    measure,
    partial_inner,
)
from qgame.states import DensityOp, Operator, QState

from random_matrices import random_density, random_hermitian, random_state, random_unitary


def test_measuring_the_flip_observable_on_a_basis_state_is_a_coin():
    branches = measure(QState.basis(1, 0), OBS_X, [0])
    assert [b.outcomes for b in branches] == [(("X", +1),), (("X", -1),)]
    assert branches[0].probability == pytest.approx(0.5, abs=1e-12)
    assert branches[1].probability == pytest.approx(0.5, abs=1e-12)


def test_measuring_readout_on_its_own_eigenstate_is_deterministic():
    branches = measure(QState.basis(1, 1), OBS_X_PRIME, [0])
    assert len(branches) == 1
    assert branches[0].outcomes == (("X'", -1),)
    assert branches[0].probability == pytest.approx(1.0, abs=1e-12)


def test_two_wire_measurement_against_direct_projector_arithmetic():
    # Flip observable on the second wire, readout on the first; computed two
    # ways: through the library and through raw 4x4 projectors.
    state = QState(np.kron(H @ np.array([1, 0], dtype=complex), [1, 0]))
    joint = OBS_X_PRIME.tensor(OBS_X)
    branches = measure(state, joint, [0, 1])
    mat = np.kron(OBS_X_PRIME.matrix, OBS_X.matrix)
    for branch, sign in zip(branches, (+1, -1)):
        proj = (np.eye(4) + sign * mat) / 2
        raw = proj @ state.amplitudes
        prob = float(np.vdot(raw, raw).real)
        assert branch.probability == pytest.approx(prob, abs=1e-12)
        assert branch.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(branch.state.amplitudes, raw / np.sqrt(prob), atol=1e-12)
        # The projected states are genuinely entangled.
        tensor_view = branch.state.amplitudes.reshape(2, 2)
        assert np.linalg.matrix_rank(tensor_view, tol=1e-9) == 2


def test_same_factor_order_on_a_joint_eigenstate_is_deterministic():
    # With the factor order matching the wires, the same preparation is a +1
    # eigenstate of flip(x)readout and nothing branches.
    state = QState(np.kron(H @ np.array([1, 0], dtype=complex), [1, 0]))
    joint = OBS_X.tensor(OBS_X_PRIME)
    branches = measure(state, joint, [0, 1])
    assert len(branches) == 1
    assert branches[0].outcomes[0][1] == +1
    assert branches[0].probability == pytest.approx(1.0, abs=1e-12)


def test_enumerated_probabilities_sum_to_one_for_many_random_states():
    rng = np.random.default_rng(42)
    joint = OBS_X.tensor(OBS_X_PRIME)
    worst = 0.0
    for _ in range(1000):
        state = random_state(2, rng)
        total = sum(b.probability for b in measure(state, joint, [0, 1]))
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-12


_ONE_QUBIT = (OBS_X, OBS_X_PRIME, OBS_X_SECOND, OBS_DIAG)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(st.sampled_from(_ONE_QUBIT), min_size=1, max_size=2),
       st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_branch_probabilities_sum_to_one(n, factors, order, seed):
    width = min(len(factors), n)
    obs = factors[0]
    for factor in factors[1:width]:
        obs = obs.tensor(factor)
    wires = order.sample(range(n), width)
    state = random_state(n, np.random.default_rng(seed))
    total = sum(b.probability for b in measure(state, obs, wires))
    assert abs(total - 1.0) <= 1e-12


def _block(rng, n, k):
    return rng.standard_normal((2**n, k)) + 1j * rng.standard_normal((2**n, k))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 6),
       st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_block_kernel_acts_column_by_column(n, width, k, order, seed):
    """A (2**n, k) block gives each column's 1-D result within 1e-14; through
    apply_matrix, a one-column block gives the 1-D result bit for bit."""
    width = min(width, n)
    rng = np.random.default_rng(seed)
    mat = _block(rng, width, 2**width)
    wires = order.sample(range(n), width)
    block = _block(rng, n, k)
    out = apply_matrix(block, mat, wires, n)
    assert out.shape == block.shape
    for j in range(k):
        single = apply_matrix(block[:, j], mat, wires, n)
        assert np.max(np.abs(out[:, j] - single)) <= 1e-14 * max(1.0, np.max(np.abs(single)))
        assert np.array_equal(apply_matrix(block[:, [j]], mat, wires, n)[:, 0], single)
    local = _block(rng, 1, 1)[:, 0]
    wire = order.randrange(n)
    inner = partial_inner(block, local, wire, n)
    assert inner.shape == (2 ** (n - 1), k)
    for j in range(k):
        single = partial_inner(block[:, j], local, wire, n)
        assert np.max(np.abs(inner[:, j] - single)) <= 1e-14 * max(1.0, np.max(np.abs(single)))


def _tensordot_reference(vec, mat, wires, n):
    """The kernel as a tensordot over the target axes, moved back in place."""
    k = len(wires)
    psi = vec.reshape((2,) * n + vec.shape[1:])
    out = np.tensordot(mat.reshape((2,) * (2 * k)), psi, axes=(tuple(range(k, 2 * k)), wires))
    return np.ascontiguousarray(np.moveaxis(out, tuple(range(k)), wires)).reshape(vec.shape)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 5), st.integers(1, 4),
       st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_an_operator_stack_equals_each_operator_alone(n, width, k, m, order, seed):
    """An (m, 2**w, 2**w) stack through apply_matrix, and an (m, 2) stack
    through partial_inner, give entry i bit for bit what operator i gives
    alone, which is bit for bit the tensordot reference; k = 0 is a 1-D
    register."""
    width = min(width, n)
    rng = np.random.default_rng(seed)
    mats = np.stack([_block(rng, width, 2**width) for _ in range(m)])
    wires = order.sample(range(n), width)
    vec = _block(rng, n, k) if k else _block(rng, n, 1)[:, 0]
    out = apply_matrix(vec, mats, wires, n)
    assert out.shape == (m, *vec.shape)
    for i in range(m):
        alone = apply_matrix(vec, mats[i], wires, n)
        assert np.array_equal(out[i], alone)
        assert np.array_equal(alone, _tensordot_reference(vec, mats[i], wires, n))
    local = _block(rng, 1, m).T
    wire = order.randrange(n)
    inner = partial_inner(vec, local, wire, n)
    assert inner.shape == (m, 2 ** (n - 1), *vec.shape[1:])
    for i in range(m):
        alone = partial_inner(vec, local[i], wire, n)
        assert np.array_equal(inner[i], alone)
        reference = np.tensordot(local[i].conj(), vec.reshape((2,) * n + vec.shape[1:]),
                                 axes=([0], [wire]))
        assert np.array_equal(alone, reference.reshape(alone.shape))


def test_repeated_measurement_repeats_the_outcome():
    rng = np.random.default_rng(9)
    for _ in range(25):
        state = random_state(2, rng)
        for branch in measure(state, OBS_X, [1]):
            again = measure(branch.state, OBS_X, [1])
            assert len(again) == 1
            assert again[0].outcomes == branch.outcomes
            assert again[0].probability == pytest.approx(1.0, abs=1e-12)


def test_measure_takes_no_sampling_arguments():
    state = QState([0.8, 0.6])
    with pytest.raises(TypeError, match="mode"):
        measure(state, OBS_X, [0], mode="sample")
    with pytest.raises(TypeError, match="rng"):
        measure(state, OBS_X, [0], rng=np.random.default_rng(0))


def test_target_wire_validation():
    state = QState.basis(2, 0)
    with pytest.raises(ValidationError):
        measure(state, OBS_X, [0, 1])
    with pytest.raises(ValidationError):
        measure(state, OBS_X.tensor(OBS_X), [1, 1])
    with pytest.raises(ValidationError):
        measure(state, OBS_X, [2])


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_unitary_application_preserves_the_norm(n):
    rng = np.random.default_rng(60 + n)
    state = random_state(n, rng)
    u = random_unitary(2**n, rng)
    out = apply_gate(state, u, list(range(n)))
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_rejects_non_unitary_matrices():
    state = QState([1, 1], normalize=True)
    with pytest.raises(ValidationError):
        apply_gate(state, np.array([[1, 0], [0, 0.5]]), [0])


def test_interface_split_at_a_third_of_the_way():
    # One-dimensional pointer: rho = |0><0|, generator the readout observable,
    # coupling angle pi/3.  cos^2(pi/3) = 1/4 on the yes branch.
    rho = DensityOp(np.diag([1.0, 0.0]))
    g = Operator(np.diag([1.0, -1.0]))
    res = interface_yes_no(rho, g, np.pi / 3)
    assert res.p_plus == pytest.approx(0.25, abs=1e-12)
    assert res.p_minus == pytest.approx(0.75, abs=1e-12)
    assert np.allclose(res.rho_plus.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(res.rho_minus.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_interface_with_zero_coupling_never_says_no():
    rho = DensityOp(np.diag([0.5, 0.5]))
    res = interface_yes_no(rho, Operator(np.diag([1.0, -1.0])), 0.0)
    assert res.p_plus == pytest.approx(1.0, abs=1e-12)
    assert res.p_minus == pytest.approx(0.0, abs=1e-15)
    assert res.rho_minus is None


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_interface_branch_weights_close_and_branches_are_states(dim):
    rng = np.random.default_rng(200 + dim)
    for _ in range(15):
        rho = random_density(dim, rng)
        g = random_hermitian(dim, rng)
        res = interface_yes_no(rho, g, float(rng.uniform(0, 2 * np.pi)))
        assert res.p_plus + res.p_minus == pytest.approx(1.0, abs=1e-12)
        for branch in (res.rho_plus, res.rho_minus):
            if branch is not None:
                assert np.trace(branch.matrix).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(branch.matrix).min() > -1e-10


def test_interface_rejects_mismatched_or_crooked_generators():
    rho = DensityOp(np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        interface_yes_no(rho, Operator(np.eye(3)), 1.0)
    with pytest.raises(ValidationError):
        interface_yes_no(rho, Operator([[0, 1], [0, 0]]), 1.0)
