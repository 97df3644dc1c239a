"""Measurement-driven gate synthesis: branch maps, byproducts, equivalences."""

import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import ValidationError, transfer
from qgame.config import ATOL_CIRCUIT
from qgame.gates import CNOT, DEFAULT_GATES, OBS_X, OBS_X_PRIME, GateSet, H, Observable, T
from qgame.measure import Branch, measure, partial_inner
from qgame.pauli import PauliTag, match_pauli_word, tag_from_scalar
from qgame.states import QState, equal_up_to_global_phase, fidelity
from qgame.transfer import (
    implicit_readout,
    mbqc_cnot,
    measure_composite,
    state_transfer_sigma_h,
    transfer_byproduct_distribution,
    transfer_identity,
    transfer_phase_t,
    verify_universality,
)

from random_matrices import random_state


def _with_fresh_ancilla(psi: QState) -> QState:
    return QState(np.kron(psi.amplitudes, [1, 0]))


def _block(states) -> np.ndarray:
    """The states' amplitudes as the columns of one block."""
    return np.stack([psi.amplitudes for psi in states], axis=1)


def _derived_sign(branch) -> int:
    """The readout sign an implicit readout branch reports: the product of
    its two outcome signs."""
    (_, first), (_, second) = branch.outcomes
    return first * second


def _implicit_law(register: QState) -> dict[int, float]:
    """Outcome law of the implicit readout of wire 0 through ancilla 1, keyed
    by the derived sign."""
    law = {+1: 0.0, -1: 0.0}
    for res in implicit_readout(register, 0, 1):
        law[_derived_sign(res)] += res.probability
    return law


def _pair_register(pair: QState) -> QState:
    """Lay a two-qubit strategy on wires (0, 2) with a fresh wire 1."""
    amps = np.zeros(8, dtype=complex)
    for c in range(2):
        for t in range(2):
            amps[c * 4 + t] = pair.amplitudes[c * 2 + t]
    return QState(amps)


def test_transfer_has_eight_uniform_branches():
    outs = state_transfer_sigma_h(_with_fresh_ancilla(QState.basis(1, 0)), 0, 1)
    assert len(outs) == 8
    for out in outs:
        assert out.probability == pytest.approx(0.125, abs=1e-12)


def test_transfer_all_plus_branch_carries_the_basis_switch():
    outs = state_transfer_sigma_h(_with_fresh_ancilla(QState.basis(1, 0)), 0, 1)
    top = outs[0]
    assert [sign for _, sign in top.outcomes] == [1, 1, 1]
    assert top.byproduct.letters == ("I",)
    ok, _ = equal_up_to_global_phase(top.state.amplitudes, H @ np.array([1, 0]))
    assert ok


@pytest.mark.parametrize("swapped,n_branches", [(False, 8), (True, 4)])
def test_transfer_branches_all_realize_byproduct_times_switch(swapped, n_branches):
    rng = np.random.default_rng(17)
    worst = 1.0
    for _ in range(100):
        psi = random_state(1, rng)
        outs = state_transfer_sigma_h(_with_fresh_ancilla(psi), 0, 1, swapped=swapped)
        assert len(outs) == n_branches
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        for out in outs:
            expect = QState(out.byproduct.matrix() @ H @ psi.amplitudes, normalize=True)
            worst = min(worst, fidelity(out.state, expect))
    assert worst > 1 - 1e-10


def test_transfer_byproducts_cover_all_letters_twice():
    outs = state_transfer_sigma_h(_with_fresh_ancilla(QState.basis(1, 0)), 0, 1)
    tally: dict[str, int] = {}
    for out in outs:
        tally[out.byproduct.letters[0]] = tally.get(out.byproduct.letters[0], 0) + 1
    assert tally == {"I": 2, "X": 2, "X'": 2, "X''": 2}


def test_transfer_respects_spectator_wires():
    rng = np.random.default_rng(23)
    spectator = random_state(1, rng)
    psi = random_state(1, rng)
    # Register (spectator, src, anc): transfer 1 -> 2, spectator untouched.
    reg = QState(np.kron(np.kron(spectator.amplitudes, psi.amplitudes), [1, 0]))
    for out in state_transfer_sigma_h(reg, 1, 2):
        moved = out.byproduct.matrix() @ H @ psi.amplitudes
        expect = QState(np.kron(spectator.amplitudes, moved), normalize=True)
        ok, _ = equal_up_to_global_phase(out.state, expect)
        assert ok


def test_transfer_requires_a_fresh_ancilla():
    dirty = QState.basis(2, 1)
    with pytest.raises(ValidationError):
        state_transfer_sigma_h(dirty, 0, 1)


@pytest.mark.parametrize("entry", [state_transfer_sigma_h, transfer_identity, transfer_phase_t,
                                   mbqc_cnot, implicit_readout, measure_composite],
                         ids=lambda entry: entry.__name__)
def test_entry_points_enumerate_with_no_sampling_arguments(entry):
    assert {"mode", "rng"}.isdisjoint(inspect.signature(entry).parameters)


@pytest.mark.parametrize("variant,n_branches", [("h", 8), ("zz", 8), ("xx", 4)])
def test_identity_transfer_variants_move_the_state_unchanged(variant, n_branches):
    rng = np.random.default_rng(31)
    for _ in range(50):
        psi = random_state(1, rng)
        outs = transfer_identity(_with_fresh_ancilla(psi), 0, 1, variant=variant)
        assert len(outs) == n_branches
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        for out in outs:
            expect = QState(out.byproduct.matrix() @ psi.amplitudes, normalize=True)
            assert fidelity(out.state, expect) > 1 - 1e-10


def test_identity_transfer_rejects_unknown_variants():
    with pytest.raises(ValidationError):
        transfer_identity(_with_fresh_ancilla(QState.basis(1, 0)), 0, 1, variant="yy")


@pytest.mark.parametrize("conjugated", [False, True])
def test_phase_transfer_realizes_the_eighth_turn(conjugated):
    rng = np.random.default_rng(37)
    for _ in range(50):
        psi = random_state(1, rng)
        outs = transfer_phase_t(_with_fresh_ancilla(psi), 0, 1, conjugated=conjugated)
        assert len(outs) == 8
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        for out in outs:
            expect = QState(out.byproduct.matrix() @ T @ psi.amplitudes, normalize=True)
            assert fidelity(out.state, expect) > 1 - 1e-10


def test_phase_transfer_variants_agree_branch_by_branch():
    psi = QState([0.28, 0.96j])
    reg = _with_fresh_ancilla(psi)
    plain = transfer_phase_t(reg, 0, 1)
    conj = transfer_phase_t(reg, 0, 1, conjugated=True)
    for a, b in zip(plain, conj):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        ok, _ = equal_up_to_global_phase(a.state, b.state)
        assert ok, f"branches {a.outcomes} and {b.outcomes} disagree"


def test_cnot_sixteen_branches_on_basis_and_random_inputs():
    rng = np.random.default_rng(41)
    inputs = [QState.basis(2, k) for k in range(4)]
    inputs += [random_state(2, rng) for _ in range(20)]
    for pair in inputs:
        outs = mbqc_cnot(_pair_register(pair), 0, 2, 1)
        assert len(outs) == 16
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)
        for out in outs:
            assert out.probability == pytest.approx(1 / 16, abs=1e-12)
            expect = QState(out.byproduct.matrix() @ CNOT @ pair.amplitudes, normalize=True)
            assert fidelity(out.state, expect) > 1 - 1e-10


def test_cnot_byproducts_undo_to_the_plain_gate():
    pair = random_state(2, np.random.default_rng(43))
    for out in mbqc_cnot(_pair_register(pair), 0, 2, 1):
        corrected = np.linalg.inv(out.byproduct.matrix()) @ out.branch_map
        matched = match_pauli_word(corrected @ np.linalg.inv(CNOT))
        assert matched is not None
        letters, _ = matched
        assert letters == ("I", "I")


def test_cnot_cannot_be_decorated_into_the_alliance():
    # No Pauli word times the plain gate reaches the SU(2) alliance: the
    # conditional phase block is not expressible that way.
    from qgame.gates import CNOT_ALLIANCE

    assert match_pauli_word(CNOT_ALLIANCE @ np.linalg.inv(CNOT)) is None


def test_implicit_readout_matches_the_direct_law_and_posts():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(100):
        psi = random_state(1, rng)
        reg = _with_fresh_ancilla(psi)
        law = _implicit_law(reg)
        direct = {b.outcomes[0][1]: b.probability for b in measure(psi, OBS_X_PRIME, [0])}
        for sign in (+1, -1):
            worst = max(worst, abs(law[sign] - direct.get(sign, 0.0)))
    assert worst < 1e-12


def test_implicit_readout_posts_equal_direct_projections():
    psi = QState([0.6, 0.8], normalize=True)
    reg = _with_fresh_ancilla(psi)
    direct = {b.outcomes[0][1]: b.state for b in measure(psi, OBS_X_PRIME, [0])}
    for res in implicit_readout(reg, 0, 1):
        assert isinstance(res, Branch)
        ok, _ = equal_up_to_global_phase(res.state, direct[_derived_sign(res)])
        assert ok


@pytest.mark.parametrize("kind,label", [("xx", "X*X"), ("zz", "X'*X'")])
def test_composite_measurements_match_direct_observables(kind, label):
    rng = np.random.default_rng(53)
    direct_obs = {
        "X*X": OBS_X.tensor(OBS_X),
        "X'*X'": OBS_X_PRIME.tensor(OBS_X_PRIME),
    }[label]
    for _ in range(100):
        pair = random_state(2, rng)
        via_link = measure_composite(pair, (0, 1), kind)
        direct = measure(pair, direct_obs, [0, 1])
        direct_by_sign = {b.outcomes[0][1]: b for b in direct}
        assert len(via_link) == len(direct)
        for branch in via_link:
            sign = branch.outcomes[0][1]
            assert branch.outcomes[0][0] == label
            assert branch.probability == pytest.approx(
                direct_by_sign[sign].probability, abs=1e-12)
            ok, _ = equal_up_to_global_phase(branch.state, direct_by_sign[sign].state)
            assert ok


def test_composite_on_doubly_switched_zeros_is_deterministic():
    # Both wires carrying the switched |0> are +1 eigenstates of the flip,
    # so the joint flip word cannot branch.
    switched = QState(H @ np.array([1, 0], dtype=complex))
    pair = QState(np.kron(switched.amplitudes, switched.amplitudes))
    outs = measure_composite(pair, (0, 1), "xx")
    assert len(outs) == 1
    assert outs[0].outcomes == (("X*X", +1),)
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)


def test_byproduct_algebra_composes_exactly_across_two_transfers():
    """Tags of two chained transfers compose, phases included.

    Each branch map factors as c * sigma * switch with c a positive multiple
    of a power of i; chaining branch maps must reproduce the tag algebra
    sigma_2 . (H-conjugate of sigma_1) with two extra quarter turns from the
    squared switch.
    """
    reg = _with_fresh_ancilla(QState.basis(1, 0))
    outs = state_transfer_sigma_h(reg, 0, 1)
    h_inv = np.linalg.inv(H)
    tagged = []
    for out in outs:
        letters, coeff = match_pauli_word(out.branch_map @ h_inv)
        tag, magnitude = tag_from_scalar(letters, coeff)
        tagged.append((tag, magnitude, out.branch_map))
    checked = 0
    for tag1, mag1, map1 in tagged:
        for tag2, mag2, map2 in tagged:
            expected = tag2.compose(tag1.conjugated_by_h()).shifted(2)
            letters, coeff = match_pauli_word(map2 @ map1)
            got, mag = tag_from_scalar(letters, coeff)
            assert got == expected, f"{tag2} after {tag1}"
            assert mag == pytest.approx(mag1 * mag2, abs=1e-12)
            checked += 1
    assert checked == 64


def test_byproduct_distributions_are_reported_from_enumeration():
    swapped: dict[str, float] = {}
    for row in transfer._byproducts("transfer_swapped", DEFAULT_GATES).values():
        letter = row.tag.letters[0]
        swapped[letter] = swapped.get(letter, 0.0) + float(np.vdot(row.branch_map[:, 0],
                                                                    row.branch_map[:, 0]).real)
    for law in (transfer_byproduct_distribution(), swapped):
        assert set(law) == {"I", "X", "X'", "X''"}
        # The enumerated law happens to be flat; recorded, not assumed.
        for value in law.values():
            assert value == pytest.approx(0.25, abs=1e-12)


def test_structurally_corrupted_switch_target_is_refused():
    # If the declared target drifts from what the chain implements by more
    # than a global phase, no Pauli word can bridge the gap and the branch
    # identification machinery says so instead of mislabeling.
    tilt = np.diag([1.0, np.exp(1e-3j)])
    bad = GateSet(hadamard=H @ tilt)
    reg = _with_fresh_ancilla(QState.basis(1, 0))
    with pytest.raises(ValidationError):
        state_transfer_sigma_h(reg, 0, 1, gates=bad)


class TestVerifySuite:
    def test_fresh_build_passes_every_check(self):
        checks = verify_universality()
        failed = [c.name for c in checks if c.status == "fail"]
        assert failed == []
        names = [c.name for c in checks]
        for expected in ("hnh", "hsq", "xprime", "xsecond", "gconj", "transfer",
                         "cnot", "sigma_t", "byproduct_algebra"):
            assert expected in names

    def test_check_records_carry_deviations_and_tolerances(self):
        checks = verify_universality()
        by_name = {c.name: c for c in checks}
        assert by_name["hnh"].deviation < 1e-12
        assert by_name["transfer"].tolerance == 1e-10
        info = by_name["byproduct_distribution"]
        assert info.status == "info"
        assert info.tolerance is None
        assert info.passed  # info rows never count as failures

    def test_phase_corrupted_switch_fails_only_phase_sensitive_rows(self):
        bad = GateSet(hadamard=H * np.exp(1e-6j))
        checks = verify_universality(bad)
        failed = {c.name for c in checks if c.status == "fail"}
        assert "hnh" in failed
        assert "hsq" in failed
        # Conjugation identities and branch fidelities shrug off a global
        # phase, so the synthesis rows must stay green.
        for name in ("xprime", "gconj", "transfer", "cnot", "identity_h",
                     "sigma_t_conj", "composite_xx"):
            assert name not in failed

    def test_structurally_corrupted_switch_is_reported_not_raised(self):
        tilt = np.diag([1.0, np.exp(1e-3j)])
        bad = GateSet(hadamard=H @ tilt)
        checks = verify_universality(bad)
        by_name = {c.name: c for c in checks}
        assert by_name["transfer"].status == "fail"
        assert "aborted" in by_name["transfer"].detail


class TestByproductCache:
    """The byproduct table is built once per chain and gate set, never reused across sets."""

    def test_default_verify_builds_each_chain_table_once(self, monkeypatch):
        from qgame import transfer

        built = []
        original = transfer._branch_maps

        def counting(chain, read):
            built.append(chain)
            return original(chain, read)

        transfer._byproduct_table.cache_clear()
        monkeypatch.setattr(transfer, "_branch_maps", counting)
        verify_universality()
        assert len(built) <= len(transfer._CHAINS)
        assert len(set(map(id, built))) == len(built)
        verify_universality()
        assert len(built) <= len(transfer._CHAINS)

    def test_corrupted_run_between_clean_runs_changes_nothing(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from qgame.cli import main

        def in_process(name, argv):
            out = tmp_path / name
            code = main(["verify", *argv, "--output", "json", "--out", str(out)])
            return code, out.read_text()

        def fresh_process(argv):
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[1] / "src")
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-m", "qgame.cli", "verify", *argv,
                                   "--output", "json"], capture_output=True, text=True, env=env)
            return proc.returncode, proc.stdout

        corrupt = ["--corrupt", "0.3"]
        sequence = [in_process("a", []), in_process("b", corrupt), in_process("c", [])]
        clean, corrupted = fresh_process([]), fresh_process(corrupt)
        assert clean[0] == 0 and corrupted[0] == 1
        assert sequence == [clean, corrupted, clean]

    def test_shared_branch_maps_are_read_only(self):
        out = state_transfer_sigma_h(_with_fresh_ancilla(QState.basis(1, 0)), 0, 1)[0]
        with pytest.raises(ValueError):
            out.branch_map[0, 0] = 0.0

    @pytest.mark.parametrize("name", sorted(transfer._CHAINS))
    def test_cached_expected_maps_are_read_only(self, name):
        for row in transfer._byproducts(name, GateSet()).values():
            with pytest.raises(ValueError):
                row.expected[0, 0] = 0.0

    def test_singular_gates_fail_their_rows_and_the_ledger_runs_on(self):
        by_name = {c.name: c for c in verify_universality(GateSet(hadamard=np.zeros((2, 2))))}
        for name in ("transfer", "transfer_swapped", "byproduct_algebra"):
            assert by_name[name].status == "fail"
            assert "aborted" in by_name[name].detail and "singular" in by_name[name].detail
        # A zero switch gate kills every branch of this chain: no branch map
        # at all, so the whole identity is missing.
        assert transfer._byproducts("identity_h", GateSet(hadamard=np.zeros((2, 2)))) == {}
        assert by_name["identity_h"].status == "fail"
        assert by_name["identity_h"].deviation == 1.0
        assert by_name["identity_zz"].status == "pass"
        assert by_name["byproduct_distribution"].status == "info"
        by_name = {c.name: c for c in verify_universality(GateSet(phase_t=np.zeros((2, 2))))}
        for name in ("xsecond", "sigma_t", "sigma_t_conj"):
            assert "aborted" in by_name[name].detail and "singular" in by_name[name].detail
        assert by_name["transfer"].status == "pass"

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field,rows", [
        ("hadamard", ("hnh", "hsq", "dets", "xprime", "gconj", "transfer",
                      "transfer_swapped", "identity_h", "sigma_t_conj", "composite_xx",
                      "composite_zz", "byproduct_algebra")),
        ("not_gate", ("hnh", "dets")),
        ("phase_t", ("xsecond", "sigma_t", "sigma_t_conj")),
    ])
    def test_non_finite_gates_fail_their_rows_without_a_warning(self, field, rows, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = verify_universality(GateSet(**{field: np.full((2, 2), value)}))
        for check in checks:
            if check.name in rows:
                assert check.status == "fail"
                assert check.detail.endswith(f"aborted: the {field} gate is not finite")
            else:
                assert check.status in ("pass", "info"), check.name

    @pytest.mark.parametrize("bad", [np.eye(4), np.ones(3), np.ones((2, 3)), "H", None],
                             ids=["4x4", "3", "2x3", "string", "none"])
    @pytest.mark.parametrize("field", ["not_gate", "hadamard", "phase_t"])
    def test_malformed_gates_are_refused_when_the_gate_set_is_built(self, field, bad):
        with pytest.raises(ValidationError, match=f"the {field} gate "):
            verify_universality(GateSet(**{field: bad}))

    def test_gates_given_as_nested_lists_read_as_the_same_arrays(self):
        gates = GateSet(**{field: getattr(DEFAULT_GATES, field).tolist()
                           for field in ("not_gate", "hadamard", "phase_t")})
        assert all(getattr(gates, f).dtype == complex for f in ("not_gate", "hadamard", "phase_t"))
        assert verify_universality(gates) == verify_universality()

    @pytest.mark.parametrize("scale", [2.0, 1e-200])
    def test_a_scaled_switch_is_still_the_transfer_target(self, scale):
        # The transfer chains use the switch only as their target, which a
        # row checks up to a scalar; a tiny one must not underflow in the norms.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            by_name = {c.name: c for c in verify_universality(GateSet(hadamard=scale * H))}
        assert by_name["transfer"].status == by_name["transfer_swapped"].status == "pass"
        assert by_name["identity_h"].status == "fail"

    def test_algebra_row_is_cached_per_gate_set_but_errors_are_not(self):
        singular = GateSet(hadamard=np.zeros((2, 2)))
        transfer._algebra_row.cache_clear()
        for _ in range(2):
            with pytest.raises(ValidationError, match="singular"):
                transfer._algebra_deviation(singular)
        assert transfer._algebra_row.cache_info().currsize == 0
        first = transfer._algebra_deviation(GateSet())
        assert transfer._algebra_deviation(GateSet()) == first
        info = transfer._algebra_row.cache_info()
        assert (info.currsize, info.hits) == (1, 1)


# Public entry point and keyword arguments that run each declared chain.
_ENTRY = {
    "transfer": (state_transfer_sigma_h, {}),
    "transfer_swapped": (state_transfer_sigma_h, {"swapped": True}),
    "identity_h": (transfer_identity, {"variant": "h"}),
    "identity_zz": (transfer_identity, {"variant": "zz"}),
    "identity_xx": (transfer_identity, {"variant": "xx"}),
    "sigma_t": (transfer_phase_t, {}),
    "sigma_t_conj": (transfer_phase_t, {"conjugated": True}),
    "cnot": (mbqc_cnot, {}),
}
_PHASE_OFF = GateSet(hadamard=H * np.exp(0.3j))
_TILTED = GateSet(hadamard=H @ np.diag([1.0, np.exp(1e-3j)]))
_NUDGED = GateSet(hadamard=H @ np.diag([1.0, np.exp(1e-7j)]))


def _run_entry(name, register, gates):
    entry, options = _ENTRY[name]
    if transfer._CHAINS[name].reads:
        options = dict(options, gates=gates)
    return entry(register, *transfer._CHAINS[name].wires, **options)


def _inputs(chain, rng, k):
    """k random logical inputs followed by every basis state, on which some
    branches cannot occur."""
    width = len(chain.input_wires)
    basis = [QState.basis(width, m) for m in range(2**width)]
    return [random_state(width, rng) for _ in range(k)] + basis


def _run_or_refusal(block, n, steps, consumed):
    """``_run_chain``'s branches and None, or None and the message of its
    refusal to discard the consumed wire."""
    try:
        return transfer._run_chain(block, n, steps, consumed), None
    except ValidationError as exc:
        return None, str(exc)


def _reference_chain_deviation(name, gates, inputs):
    """The ledger row as one public entry-point run per input."""
    chain = transfer._CHAINS[name]
    target = transfer._resolve(chain.target, vars(gates))
    worst = 0.0
    for psi in inputs:
        total = 0.0
        for out in _run_entry(name, QState(chain.embed(psi.amplitudes[:, None])[:, 0]), gates):
            total += out.probability
            expect = out.byproduct.matrix() @ target @ psi.amplitudes
            expect = expect / np.linalg.norm(expect)
            if not equal_up_to_global_phase(out.state.amplitudes, expect, atol=1e-8)[0]:
                return 1.0
            worst = max(worst, 1.0 - float(abs(np.vdot(out.state.amplitudes, expect))))
        worst = max(worst, abs(total - 1.0))
    return worst


def _ledger_kernel_calls(monkeypatch, gates=DEFAULT_GATES) -> tuple[int, int]:
    """The apply_matrix and match_pauli_word calls one ledger run makes."""
    counts = {"apply_matrix": 0, "match_pauli_word": 0}
    for name in counts:
        def counting(*args, _name=name, _original=getattr(transfer, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(transfer, name, counting)
    verify_universality(gates)
    monkeypatch.undo()
    return counts["apply_matrix"], counts["match_pauli_word"]


class TestBatchedReplay:
    """The runner takes a block of registers as columns; the ledger checks each
    chain's branch maps as operators, and per-input public runs are its oracle."""

    def test_every_chain_has_a_public_entry_point(self):
        assert set(_ENTRY) == set(transfer._CHAINS)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(_ENTRY)), st.integers(0, 2**32 - 1))
    def test_chain_branch_probabilities_sum_to_one(self, name, seed):
        chain = transfer._CHAINS[name]
        (psi,) = _inputs(chain, np.random.default_rng(seed), 1)[:1]
        register = QState(chain.embed(psi.amplitudes[:, None])[:, 0])
        total = sum(out.probability for out in _run_entry(name, register, GateSet()))
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", sorted(_ENTRY))
    def test_block_replay_matches_single_replays(self, name):
        chain = transfer._CHAINS[name]
        block = _block(_inputs(chain, np.random.default_rng(11), 6))
        together = {signs: (mass, v) for signs, mass, v in chain.replay(vars(GateSet()), block)}
        for j in range(block.shape[1]):
            single = chain.replay(vars(GateSet()), block[:, [j]])
            live = {s for s, (mass, _) in together.items() if mass[j] > 0}
            assert live == {s for s, _, _ in single}
            for signs, mass, v in single:
                assert np.max(np.abs(together[signs][1][:, j] - v[:, 0])) <= 1e-14
                assert abs(together[signs][0][j] - mass[0]) <= 1e-14

    def test_a_column_pruned_in_a_kept_branch_is_zero_there(self):
        block = np.array([[1, 0, 1], [0, 1, 1]], dtype=complex) / [1, 1, np.sqrt(2)]
        paths = transfer._run_chain(block, 1, ((OBS_X_PRIME, (0,)),))
        assert [signs for signs, _, _ in paths] == [(1,), (-1,)]
        (_, plus, v_plus), (_, minus, v_minus) = paths
        assert plus.tolist() == [1.0, 0.0, pytest.approx(0.5)]
        assert minus.tolist() == [0.0, 1.0, pytest.approx(0.5)]
        assert not v_plus[:, 1].any() and not v_minus[:, 0].any()
        paths = transfer._run_chain(block[:, :1], 1, ((OBS_X_PRIME, (0,)),))
        assert [signs for signs, _, _ in paths] == [(1,)]

    def test_lowest_entangled_column_is_the_fault(self):
        # Readout on wire 1, then a controlled flip from wire 0: discarding
        # wire 1 is clean only where wire 0 was |0>.  Columns 1 and 3 are
        # entangled, with different mass losses, so their messages differ.
        zero, plus, one = np.eye(2)[0], np.array([1, 1]) / np.sqrt(2), np.eye(2)[1]
        block = np.stack([np.kron(c, zero) for c in (zero, plus, zero, one)], axis=1)
        block = block.astype(complex)
        steps = ((OBS_X_PRIME, (1,)), (CNOT, (0, 1)))
        messages = []
        for cols in ([1], [3], slice(None)):
            with pytest.raises(ValidationError, match="still entangled") as refused:
                transfer._run_chain(block[:, cols], 2, steps, 1)
            messages.append(str(refused.value))
        assert messages[2] == messages[0] != messages[1]
        with pytest.raises(ValidationError, match="still entangled"):
            transfer._branches(QState(block[:, 1]), steps, lambda *branch: branch, 1)

    @pytest.mark.parametrize("gates", [GateSet(), _PHASE_OFF, _TILTED],
                             ids=["clean", "phase", "tilted"])
    @pytest.mark.parametrize("name", sorted(_ENTRY))
    def test_operator_chain_row_agrees_with_per_input_runs(self, name, gates):
        inputs = _inputs(transfer._CHAINS[name], np.random.default_rng(5), 12)
        try:
            expected = _reference_chain_deviation(name, gates, inputs)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                transfer._chain_deviation(name, gates)
            return
        got = transfer._chain_deviation(name, gates)
        assert (got <= ATOL_CIRCUIT) == (expected <= ATOL_CIRCUIT)
        if expected <= ATOL_CIRCUIT:
            assert got <= 1e-14

    def test_operator_readout_row_agrees_with_per_input_runs(self):
        rng = np.random.default_rng(9)
        inputs = [random_state(1, rng) for _ in range(10)] + [QState.basis(1, 1)]
        worst = 0.0
        for psi in inputs:
            law = _implicit_law(_with_fresh_ancilla(psi))
            direct = {b.outcomes[0][1]: b.probability
                      for b in measure(psi, OBS_X_PRIME, [0])}
            worst = max(worst, *(abs(law[s] - direct.get(s, 0.0)) for s in (+1, -1)))
        assert worst <= 1e-14
        assert transfer._implicit_deviation() <= 1e-14

    @pytest.mark.parametrize("gates,passes", [(GateSet(), True), (_PHASE_OFF, True),
                                              (_TILTED, False), (_NUDGED, False)],
                             ids=["clean", "phase", "tilted", "nudged"])
    @pytest.mark.parametrize("kind", ["xx", "zz"])
    def test_operator_composite_row_agrees_with_per_input_runs(self, kind, gates, passes):
        rng = np.random.default_rng(9)
        pairs = [random_state(2, rng) for _ in range(6)] + [QState.basis(2, 2)]
        direct_obs = transfer._XX if kind == "xx" else transfer._ZZ
        worst = 0.0
        for pair in pairs:
            via = measure_composite(pair, (0, 1), kind, gates=gates)
            ref = {b.outcomes[0][1]: b for b in measure(pair, direct_obs, [0, 1])}
            if len(via) != len(ref):
                worst = 1.0
                break
            for branch in via:
                other = ref[branch.outcomes[0][1]]
                worst = max(worst, abs(branch.probability - other.probability))
                if not equal_up_to_global_phase(branch.state, other.state, atol=1e-8)[0]:
                    worst = 1.0
        got = transfer._composite_deviation(kind, direct_obs, gates)
        assert (got <= ATOL_CIRCUIT) == (worst <= ATOL_CIRCUIT) == passes

    @pytest.mark.parametrize("mutation", ["wrong_word", "dropped_branch"])
    @pytest.mark.parametrize("name", sorted(_ENTRY))
    def test_a_mutated_table_fails_its_row(self, name, mutation, monkeypatch):
        original = transfer._byproducts

        def mutated(chain, gates):
            table = dict(original(chain, gates))
            if chain == name:
                signs, row = next(iter(table.items()))
                if mutation == "dropped_branch":
                    del table[signs]
                else:
                    # A flip on the first wire turns the word into another one.
                    flip = PauliTag(("X",) + ("I",) * (len(row.tag.letters) - 1)).matrix()
                    table[signs] = row._replace(expected=flip @ row.expected)
            return table

        monkeypatch.setattr(transfer, "_byproducts", mutated)
        failed = [c.name for c in verify_universality() if c.status == "fail"]
        assert failed == [name]

    def test_warm_ledger_makes_few_kernel_calls(self, monkeypatch):
        # The chain rows read their cached tables and make no call; the
        # implicit readout makes one per measurement (2), and each composite
        # word one per link gate and one for its measurement (6).  Tables and
        # the algebra row are warm.
        verify_universality()
        assert _ledger_kernel_calls(monkeypatch) == (8, 0)

    def test_cold_ledger_makes_one_call_per_step_and_one_match_per_table(self, monkeypatch):
        # The eight replays make one call per gate and per measurement, 27 in
        # all, on top of the warm 8; each table and the algebra row match
        # all their maps in one call.
        transfer._byproduct_table.cache_clear()
        transfer._algebra_row.cache_clear()
        assert _ledger_kernel_calls(monkeypatch) == (35, 9)

    def test_a_corrupted_switch_rebuilds_only_the_tables_that_read_it(self, monkeypatch):
        # transfer, transfer_swapped, identity_h and sigma_t_conj replay (14
        # calls) and match once each; the algebra row stops at its first
        # refused scalar, before it matches anything.
        transfer._byproduct_table.cache_clear()
        verify_universality()
        gates = GateSet(hadamard=H * np.exp(0.3j))
        assert _ledger_kernel_calls(monkeypatch, gates) == (22, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(transfer._CHAINS)), st.integers(1, 6), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_stacked_branches_equal_single_column_runs(self, name, k, fresh, seed):
        # The chain's own discard is clean on its inputs.  Otherwise random
        # registers drop a wire fixed by some one-wire measurement, which most
        # columns leave entangled, so the refusal is compared too.  There |0...0>
        # tilted by 1e-8 has branches of mass ~1e-16, below PROB_EPS but not
        # zero, which the stacked run keeps for other columns and must zero.
        chain = transfer._CHAINS[name]
        n = len(chain.wires)
        rng = np.random.default_rng(seed)
        steps = chain.bind(vars(GateSet()), {w: w for w in chain.wires})
        if fresh:
            block = chain.embed(_block(_inputs(chain, rng, k)))
            consumed = chain.consumed
        else:
            tilted = QState(QState.basis(n, 0).amplitudes + 1e-8)
            block = _block([random_state(n, rng) for _ in range(k)] + [tilted])
            alone = {wires[0] for op, wires in steps
                     if isinstance(op, Observable) and len(wires) == 1}
            consumed = int(rng.choice(sorted(alone)))
        block = block[:, rng.permutation(block.shape[1])]
        stacked, refusal = _run_or_refusal(block, n, steps, consumed)
        refusals = [_run_or_refusal(block[:, [j]], n, steps, consumed)[1]
                    for j in range(block.shape[1])]
        assert refusal == next(filter(None, refusals), None)
        if refusal is not None:
            # A refused discard leaves no branches: compare those before it.
            consumed = None
            stacked = transfer._run_chain(block, n, steps)
        for j in range(block.shape[1]):
            single = transfer._run_chain(block[:, [j]], n, steps, consumed)
            live = [(signs, mass[j], v[:, j]) for signs, mass, v in stacked if mass[j] > 0]
            assert [signs for signs, _, _ in live] == [signs for signs, _, _ in single]
            for (_, mass, v), (_, single_mass, single_v) in zip(live, single):
                assert mass.tobytes() == single_mass[0].tobytes()
                assert v.tobytes() == single_v[:, 0].tobytes()
            assert not any(v[:, j].any() for _, mass, v in stacked if not mass[j] > 0)

    @pytest.mark.parametrize("gates", [GateSet(), GateSet(hadamard=H * np.exp(0.3j))],
                             ids=["clean", "phase"])
    @pytest.mark.parametrize("name", sorted(transfer._CHAINS))
    def test_byproduct_tables_list_plus_before_minus_at_every_fork(self, name, gates):
        # The tables take the runner's branch order as it comes, so that order
        # must already be the +1-first order the ledger sums in.
        keys = list(transfer._byproducts(name, gates))
        assert len(keys) > 1
        assert keys == sorted(keys, key=lambda signs: [-s for s in signs])

    # Per chain, the measurement whose eigenvectors drop its consumed wire,
    # counted among measurements only.
    _DISCARD_INDEX = {"transfer": 2, "transfer_swapped": 2, "identity_h": 2, "identity_zz": 2,
                      "identity_xx": 2, "sigma_t": 2, "sigma_t_conj": 2, "cnot": 3,
                      "implicit": 0}

    @pytest.mark.parametrize("name", sorted(_DISCARD_INDEX))
    def test_discarding_by_wire_drops_through_the_indexed_measurement(self, name):
        rng = np.random.default_rng(31)
        if name == "implicit":
            n, consumed, steps = 2, 1, transfer._implicit_steps(0, 1)
            inputs = [random_state(1, rng) for _ in range(4)]
            inputs += [QState.basis(1, m) for m in (0, 1)]
            block = np.kron(_block(inputs), [[1.0], [0.0]])
        else:
            chain = transfer._CHAINS[name]
            n, consumed = len(chain.wires), chain.consumed
            steps = chain.bind(vars(GateSet()), {w: w for w in chain.wires})
            block = chain.embed(_block(_inputs(chain, rng, 4)))
        j = self._DISCARD_INDEX[name]
        obs = [op for op, _ in steps if isinstance(op, Observable)][j]
        kept = transfer._run_chain(block, n, steps)
        dropped = transfer._run_chain(block, n, steps, consumed)
        signs = [s for s, _, _ in kept]
        assert [s for s, _, _ in dropped] == signs
        # The discard as the index named it: both eigenvectors in one call,
        # each column taking the one its j-th outcome selects.
        amps = np.stack([v for _, _, v in kept], axis=1).reshape(block.shape[0], -1)
        both = partial_inner(amps, np.stack([obs.eigenvector(+1), obs.eigenvector(-1)]),
                             consumed, n)
        want = np.where(np.repeat([s[j] for s in signs], block.shape[1]) == +1, both[0], both[1])
        got = np.stack([v for _, _, v in dropped], axis=1).reshape(want.shape)
        assert got.tobytes() == want.tobytes()
        for (_, mass, _), (_, dropped_mass, _) in zip(kept, dropped):
            assert mass.tobytes() == dropped_mass.tobytes()
