"""Measurement-driven gate synthesis on dense registers.

Every construction here is a short chain of binary measurements on a source
wire and a fresh ancilla, declared once as data in ``_CHAINS``: its steps on
a canonical register, the wires the input enters on, the wire measured away
and the gate it implements.  One runner, ``_run_chain``, walks any step list
over every branch at once, +1 outcomes before -1 at every fork, so
enumeration is reproducible.  The public entry points
only check the ancilla, pick a chain and hand it to the runner.

Each branch acts on the logical input as a fixed linear map that factors as
(positive scalar) x (power of i) x (Pauli word) x (target gate).  The Pauli
word is the reported byproduct; a random walk over Pauli words (see
:mod:`qgame.walk`) undoes it.  A chain's byproduct table depends only on the
chain and the gates it reads, so it is computed once per gate set and cached,
each branch's expected map (Pauli word) x (target gate) with it.  Because each
branch is linear, the runner takes a block of registers as the columns of one
array: the public entry points pass one column, while the byproduct tables
pass the basis inputs, so each branch comes out as its map.  All live
branches ride in that one array as column groups, so a chain costs one kernel
call per gate and per measurement, however many branches it has, and a table
matches all its maps in one call.  The verify ledger checks those maps as
operator identities, so no row depends on sampled inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ATOL_ALGEBRA, ATOL_CIRCUIT, PROB_EPS
from .errors import QGameError, ValidationError
from .gates import (CNOT, DEFAULT_GATES, I2, OBS_DIAG, OBS_X, OBS_X_MINUS_SECOND, OBS_X_PRIME,
                    OBS_X_SECOND, SIGMA_X, SIGMA_Y, SIGMA_Z, GateSet, Observable)
from .measure import Branch, apply_matrix, partial_inner
from .pauli import PauliTag, match_pauli_word, tag_from_scalar, word_matrix
from .report import CheckRecord
from .states import QState

_DISCARD_MASS_ATOL = 1e-12

# Joint words on a wire pair, first letter on the first wire.
_XZ = OBS_X.tensor(OBS_X_PRIME)
_ZX = OBS_X_PRIME.tensor(OBS_X)
_XX = OBS_X.tensor(OBS_X)
_ZZ = OBS_X_PRIME.tensor(OBS_X_PRIME)


@dataclass(frozen=True)
class GateStep:
    gate: np.ndarray | str  # a string names a GateSet field, read when the chain runs
    wires: tuple[int, ...]


@dataclass(frozen=True)
class MeasureStep:
    obs: Observable
    wires: tuple[int, ...]


@dataclass(frozen=True)
class TransferOutcome(Branch):
    """One branch of a synthesis chain after the consumed wire is dropped."""

    byproduct: PauliTag
    branch_map: np.ndarray


def _masses(block: np.ndarray) -> np.ndarray:
    """Squared norm of each column."""
    return np.einsum("ij,ij->j", block.conj(), block).real


def _run_chain(block: np.ndarray, n: int, steps, consumed=None) -> list:
    """Walk a step chain over a block of registers, branching at measurements.

    ``block`` has shape ``(2**n, k)``: k registers as columns.  Every live
    branch rides along as a group of k columns of one array, so each gate and
    each measurement (both projectors stacked) is one kernel call, however
    many branches there are; the children of a branch follow it in +1, -1
    order.  Returns every branch as a ``(signs, masses, amplitudes)`` triple:
    ``amplitudes[:, c]`` is column c of the register block in that branch,
    unnormalized, and ``masses[c]`` its probability.  A branch is dropped
    when every column's mass falls below PROB_EPS at a measurement; a column
    below it in a kept branch is zeroed there, mass 0, as if that outcome
    could not occur for it.  ``consumed = (wire, j)`` drops ``wire``, which
    the j-th measurement left in an eigenstate (one call for both signs).  If
    a column's register is still entangled with that wire, a ValidationError
    is raised for the lowest such column, from its first such branch.
    """
    dim, k = block.shape
    signs, amps = [()], block
    for step in steps:
        if isinstance(step, GateStep):
            amps = apply_matrix(amps, step.gate, step.wires, n)
            continue
        # (dim, P, 2, k): the +1 and -1 child of each of the P branches side by side.
        forks = apply_matrix(amps, step.obs.projectors, step.wires, n).reshape(2, dim, -1, k)
        forks = forks.transpose(1, 2, 0, 3).reshape(dim, 2 * len(signs), k)
        masses = _masses(forks.reshape(dim, -1)).reshape(-1, k)
        dead = masses < PROB_EPS
        (keep,) = np.nonzero(~dead.all(axis=1))
        forks = forks[:, keep]
        forks[:, dead[keep]] = 0.0
        signs = [signs[i // 2] + ((+1, -1)[i % 2],) for i in keep.tolist()]
        amps = forks.reshape(dim, -1)
    mass = _masses(amps)
    if consumed is not None:
        wire, j = consumed
        obs = [s for s in steps if isinstance(s, MeasureStep)][j].obs
        both = partial_inner(amps, np.stack([obs.eigenvector(+1), obs.eigenvector(-1)]), wire, n)
        amps = np.where(np.repeat([s[j] for s in signs], k) == +1, both[0], both[1])
        kept = _masses(amps)
        (bad,) = np.nonzero(np.abs(kept - mass) > _DISCARD_MASS_ATOL * np.maximum(mass, 1e-30))
        if bad.size:
            b = bad[np.argmin(bad % k)]
            raise ValidationError(
                f"wire {wire} is still entangled with the register "
                f"(mass {mass[b]:.3e} -> {kept[b]:.3e}); cannot discard it")
    shape = (len(signs), k)
    return list(zip(signs, mass.reshape(shape),
                    amps.reshape(amps.shape[:1] + shape).transpose(1, 0, 2)))


def _branches(state: QState, steps, package, consumed=None) -> list:
    """Each branch on the caller's register as ``package(signs, prob, state)``."""
    branches = _run_chain(state.amplitudes[:, None], state.n_qubits, steps, consumed)
    return [package(signs, float(mass[0]), QState(v[:, 0] / np.sqrt(mass[0])))
            for signs, mass, v in branches]


@dataclass(frozen=True)
class _Chain:
    """A synthesis chain on a canonical register of ``len(wires)`` qubits, whose
    wires are listed in the order its public entry point takes them.  Gates and
    targets named by a string are read from the caller's GateSet."""

    steps: tuple
    target: np.ndarray | str      # gate the chain is meant to implement
    detail: str                   # what its verify ledger row asserts
    wires: tuple[int, ...] = (0, 1)
    input_wires: tuple[int, ...] = (0,)  # canonical wires the input enters on, ascending
    consumed: int = 0             # canonical wire measured away at the end
    eigvec_step: int = 2          # measure-step index fixing the consumed wire

    @property
    def reads(self) -> tuple[str, ...]:
        """GateSet fields this chain depends on, in a fixed order."""
        named = [s.gate for s in self.steps if isinstance(s, GateStep)] + [self.target]
        return tuple(sorted({g for g in named if isinstance(g, str)}))

    def bind(self, read: dict, where: dict) -> tuple:
        """Concrete steps: named gates looked up in ``read``, wires renamed."""
        return tuple(
            GateStep(_resolve(s.gate, read), tuple(where[w] for w in s.wires))
            if isinstance(s, GateStep) else MeasureStep(s.obs, tuple(where[w] for w in s.wires))
            for s in self.steps)

    def embed(self, amps: np.ndarray) -> np.ndarray:
        """Lay a ``(2**len(input_wires), k)`` block of logical inputs on the input
        wires, every other wire at |0>, giving a block of canonical registers."""
        n, k = len(self.wires), amps.shape[1]
        block = np.zeros((2,) * n + (k,), dtype=complex)
        index = tuple(slice(None) if w in self.input_wires else 0 for w in range(n))
        block[index] = np.reshape(amps, (2,) * len(self.input_wires) + (k,))
        return block.reshape(-1, k)

    def replay(self, read: dict, amps: np.ndarray) -> list:
        """Every branch of the chain on its canonical register for a block of
        logical inputs, as ``_run_chain`` returns them."""
        steps = self.bind(read, {w: w for w in self.wires})
        return _run_chain(self.embed(amps), len(self.wires), steps,
                          (self.consumed, self.eigvec_step))


def _resolve(gate, read: dict) -> np.ndarray:
    return read[gate] if isinstance(gate, str) else gate


def _m(obs, *wires: int) -> MeasureStep:
    return MeasureStep(obs, wires)


# Canonical registers: input 0 and ancilla 1, or control 0, ancilla 1 and
# target 2 for the cnot.  In a transfer the joint word always pairs the
# opening letter on the source with the closing letter on the ancilla.
_SWITCH = GateStep("hadamard", (0,))
_IDENTITY_VARIANTS = ("h", "zz", "xx")
_IDENTITY = "identity transfer variant {!r} moves the state unchanged"
_CHAINS = {
    "transfer": _Chain((_m(OBS_X, 1), _m(_XZ, 0, 1), _m(OBS_X_PRIME, 0)), "hadamard",
                       "transfer realizes byproduct times basis switch on every branch"),
    "transfer_swapped": _Chain((_m(OBS_X_PRIME, 1), _m(_ZX, 0, 1), _m(OBS_X, 0)), "hadamard",
                               "letter-swapped transfer realizes the same tactic"),
    "identity_h": _Chain((_SWITCH, _m(OBS_X, 1), _m(_XZ, 0, 1), _m(OBS_X_PRIME, 0)), I2,
                         _IDENTITY.format("h")),
    "identity_zz": _Chain((_m(OBS_X, 1), _m(_ZZ, 0, 1), _m(OBS_X, 0)), I2,
                          _IDENTITY.format("zz")),
    "identity_xx": _Chain((_m(OBS_X_PRIME, 1), _m(_XX, 0, 1), _m(OBS_X_PRIME, 0)), I2,
                          _IDENTITY.format("xx")),
    "sigma_t": _Chain((_m(OBS_X, 1), _m(_ZZ, 0, 1), _m(OBS_X_MINUS_SECOND, 0)), "phase_t",
                      "phase transfer realizes byproduct times the eighth turn"),
    "sigma_t_conj": _Chain((_SWITCH, _m(OBS_X, 1), _m(_XZ, 0, 1), _m(OBS_DIAG, 0)), "phase_t",
                           "conjugated phase transfer realizes the same gate"),
    "cnot": _Chain(
        (_m(OBS_X, 1), _m(_ZX, 1, 2), _m(_ZX, 0, 1), _m(OBS_X_PRIME, 1)), CNOT,
        "measurement chain realizes the plain controlled flip up to byproducts",
        wires=(0, 2, 1), input_wires=(0, 2), consumed=1, eigvec_step=3),
}


def _branch_maps(chain: _Chain, read: dict) -> dict[tuple[int, ...], np.ndarray]:
    """Linear map of each branch on the logical input, one column per basis state."""
    branches = chain.replay(read, np.eye(2 ** len(chain.input_wires)))
    return {signs: mat for signs, _, mat in branches}


class _Byproduct(NamedTuple):
    """One branch of a chain: branch_map == scalar * tag . target, and the
    map the branch is expected to realize, ``expected = tag . target``."""

    tag: PauliTag
    branch_map: np.ndarray
    scalar: complex
    expected: np.ndarray


def _inverse(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{what} is singular") from None


@functools.lru_cache(maxsize=64)
def _byproduct_table(name: str, gate_bytes: tuple[bytes, ...]) -> dict:
    """A :class:`_Byproduct` by signs, in branch order.

    Keyed by the bytes of every gate the chain reads, so it never serves
    another gate set; the maps are shared, so they are read-only."""
    chain = _CHAINS[name]
    read = {f: np.frombuffer(raw, dtype=complex) for f, raw in zip(chain.reads, gate_bytes)}
    read = {f: flat.reshape(math.isqrt(flat.size), -1) for f, flat in read.items()}
    target = _resolve(chain.target, read)
    target_inv = _inverse(target, f"the target of chain {name!r}")
    branches = sorted(_branch_maps(chain, read).items(), key=lambda kv: [-s for s in kv[0]])
    # A gate that kills every branch leaves an empty stack and an empty table.
    matches = match_pauli_word(np.reshape([mat @ target_inv for _, mat in branches],
                                          (-1, *target.shape)), atol=1e-9)
    out = {}
    for (signs, mat), matched in zip(branches, matches):
        if matched is None:
            raise ValidationError(
                f"branch {signs} does not reduce to a Pauli correction of the target")
        letters, scalar = matched
        tag = PauliTag(letters)
        expected = word_matrix(letters) @ target
        for shared in (mat, expected):
            shared.setflags(write=False)
        out[signs] = _Byproduct(tag, mat, scalar, expected)
    return out


def _finite_gate(gates: GateSet, field: str) -> np.ndarray:
    """A gate that a ledger row reads; a NaN or infinite entry aborts the row
    before numpy can warn about it."""
    mat = getattr(gates, field)
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"the {field} gate is not finite")
    return mat


def _gate_key(name: str, gates: GateSet) -> tuple[bytes, ...]:
    return tuple(_finite_gate(gates, f).tobytes() for f in _CHAINS[name].reads)


def _byproducts(name: str, gates: GateSet) -> dict:
    return _byproduct_table(name, _gate_key(name, gates))


def _validate_fresh(state: QState, wire: int) -> None:
    if state.prob_of_bit(wire, 1) > 1e-12:
        raise ValidationError(f"ancilla wire {wire} must be freshly prepared in |0>")


def _run_public(state: QState, caller_wires: tuple, name: str, gates: GateSet) -> list:
    """Run chain ``name`` on the caller's wires (the entry point's wire arguments,
    in order); the consumed wire is removed, leaving one fewer qubit."""
    chain = _CHAINS[name]
    table = _byproducts(name, gates)
    where = dict(zip(chain.wires, caller_wires))
    steps = chain.bind(vars(gates), where)
    labels = [s.obs.label for s in steps if isinstance(s, MeasureStep)]
    return _branches(state, steps, lambda signs, prob, psi: TransferOutcome(
        tuple(zip(labels, signs)), prob, psi, table[signs].tag, table[signs].branch_map),
        (where[chain.consumed], chain.eigvec_step))


def state_transfer_sigma_h(state: QState, src: int, anc: int, *, swapped: bool = False,
                           gates: GateSet = DEFAULT_GATES):
    """Move the strategy on ``src`` to ``anc`` while applying the basis switch.

    Three measurements consume ``src``; each branch leaves ``anc`` carrying
    (Pauli byproduct) . H . (input) up to a global phase.  With ``swapped``
    the roles of the flip and readout observables are exchanged, which makes
    the opening measurement on the fresh ancilla deterministic.
    """
    _validate_fresh(state, anc)
    return _run_public(state, (src, anc), "transfer_swapped" if swapped else "transfer", gates)


def transfer_identity(state: QState, src: int, anc: int, variant: str = "zz", *,
                      gates: GateSet = DEFAULT_GATES):
    """Move a strategy unchanged (up to a Pauli byproduct) onto a fresh wire.

    The three equivalent realizations: ``h`` precedes the basis-switch
    transfer with an explicit switch gate, ``zz`` measures the doubled
    readout word, ``xx`` the doubled flip word.
    """
    _validate_fresh(state, anc)
    if variant not in _IDENTITY_VARIANTS:
        raise ValidationError(f"variant must be one of {_IDENTITY_VARIANTS}, got {variant!r}")
    return _run_public(state, (src, anc), f"identity_{variant}", gates)


def transfer_phase_t(state: QState, src: int, anc: int, *, conjugated: bool = False,
                     gates: GateSet = DEFAULT_GATES):
    """Apply the eighth-turn phase gate by measurement, up to a byproduct.

    The closing measurement is the tilted flip word; the ``conjugated`` form
    rotates it to the diagonal mix G by a basis-switch gate on the source.
    """
    _validate_fresh(state, anc)
    return _run_public(state, (src, anc), "sigma_t_conj" if conjugated else "sigma_t", gates)


def mbqc_cnot(state: QState, control: int, target: int, anc: int):
    """Entangle control and target by measurements through a fresh ancilla.

    Four measurements consume the ancilla and leave the pair carrying the
    plain controlled-NOT, decorated by a two-wire Pauli byproduct.  Note the
    implemented gate is the phase-free controlled flip: no Pauli correction
    can absorb the conditional phase of the SU(2) alliance gate.
    """
    _validate_fresh(state, anc)
    return _run_public(state, (control, target, anc), "cnot", DEFAULT_GATES)


@dataclass(frozen=True)
class ImplicitReadout:
    """Readout realized by correlation with an ancilla instead of directly."""

    outcomes: tuple[tuple[str, int], ...]
    derived_sign: int
    probability: float
    state: QState


def implicit_readout(state: QState, wire: int, anc: int):
    """Readout of a wire inferred from a flip measurement pair.

    Measures the flip word on a fresh ancilla, then the joint flip/readout
    word on (ancilla, wire); the product of the two signs reproduces the
    readout law and post-states exactly, and the ancilla comes off clean.
    """
    _validate_fresh(state, anc)
    return _branches(state, _implicit_steps(wire, anc),
                     lambda signs, prob, psi: ImplicitReadout(
                         outcomes=tuple(zip((OBS_X.label, _XZ.label), signs)),
                         derived_sign=signs[0] * signs[1], probability=prob, state=psi),
                     (anc, 0))


def _implicit_steps(wire: int, anc: int) -> tuple:
    return _m(OBS_X, anc), _m(_XZ, anc, wire)


def measure_composite(state: QState, pair: tuple[int, int], kind: str, *,
                      gates: GateSet = DEFAULT_GATES):
    """Measure a same-letter two-wire word through its flip/readout realization.

    ``kind`` is ``"xx"`` (link gate on the second wire) or ``"zz"`` (link on
    the first); the joint flip/readout word is measured in between.  Branch
    labels report the composite actually realized.
    """
    if kind not in ("xx", "zz"):
        raise ValidationError(f"kind must be 'xx' or 'zz', got {kind!r}")
    label = (_XX if kind == "xx" else _ZZ).label
    return _branches(state, _composite_steps(pair, kind, gates),
                     lambda signs, prob, psi: Branch(((label, signs[0]),), prob, psi))


def _composite_steps(pair: tuple[int, int], kind: str, gates: GateSet) -> tuple:
    link = GateStep(_finite_gate(gates, "hadamard"), (pair[1] if kind == "xx" else pair[0],))
    return link, MeasureStep(_XZ, tuple(pair)), link


def transfer_byproduct_distribution() -> dict[str, float]:
    """Byproduct law of a single default-gate transfer, from exhaustive branch
    enumeration; each map is a scaled unitary, so the law does not depend on
    the input."""
    law: dict[str, float] = {}
    for row in _byproducts("transfer", DEFAULT_GATES).values():
        prob = float(np.vdot(row.branch_map[:, 0], row.branch_map[:, 0]).real)
        law[row.tag.letters[0]] = law.get(row.tag.letters[0], 0.0) + prob
    return law


def _gap(lhs, rhs) -> float:
    return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))


def _guarded(name: str, fn, tol: float, detail: str) -> CheckRecord:
    """One ledger row; a QGameError fails the row instead of the ledger."""
    try:
        deviation = float(fn())
    except QGameError as exc:
        return CheckRecord(name, float("inf"), tol, f"{detail}; aborted: {exc}")
    return CheckRecord(name, deviation, tol, detail)


def _chain_deviation(name: str, gates: GateSet) -> float:
    """Worst branch misalignment with its expected map, or the completeness gap.

    Each branch map M must be a multiple of its expected map E = (Pauli
    byproduct) x (target): 1 - |<E, M>| / (|M| |E|), Frobenius, is zero
    exactly then.  Together the branches must keep every input's mass:
    sum M^dag M = I.  A chain that kills every branch has the full gap
    ||0 - I|| = 1.  Kept branches and invertible targets make no map zero.
    np.max keeps a NaN term, so an overflowing gate fails the row.
    """
    dim = 2 ** len(_CHAINS[name].input_wires)
    rows = _byproducts(name, gates).values()
    got, want = (np.reshape([getattr(row, f) for row in rows], (-1, dim, dim))
                 for f in ("branch_map", "expected"))
    kept = np.einsum("bij,bik->jk", got.conj(), got)
    # Each map is scaled by its largest entry first, so that a tiny or huge
    # gate neither underflows nor overflows in the norms.
    got, want = (x / np.abs(x).max(axis=(1, 2), keepdims=True, initial=0.0) for x in (got, want))
    cosine = np.abs(np.einsum("bij,bij->b", want.conj(), got)) / (
        np.linalg.norm(got, axis=(1, 2)) * np.linalg.norm(want, axis=(1, 2)))
    return float(np.max([_gap(kept, np.eye(dim)), *(1.0 - cosine)]))


def _implicit_deviation() -> float:
    """Largest gap between each derived sign's effect sum M^dag M and the
    direct readout projector."""
    paths = _run_chain(np.kron(np.eye(2), [[1.0], [0.0]]), 2, _implicit_steps(0, 1), (1, 0))
    effect = {+1: np.zeros((2, 2), dtype=complex), -1: np.zeros((2, 2), dtype=complex)}
    for signs, _, v in paths:
        effect[signs[0] * signs[1]] += v.conj().T @ v
    return max(_gap(effect[sign], OBS_X_PRIME.projector(sign)) for sign in (+1, -1))


def _composite_deviation(kind: str, direct: Observable, gates: GateSet) -> float:
    """Largest gap between the linked map of each sign and the direct projector,
    up to one global phase; a missing sign is a zero map."""
    linked = {signs[0]: v for signs, _, v in
              _run_chain(np.eye(4), 2, _composite_steps((0, 1), kind, gates))}
    gaps = []
    for sign in (+1, -1):
        proj = direct.projector(sign)
        got = linked.get(sign, np.zeros_like(proj))
        overlap = np.vdot(proj, got)
        gaps.append(_gap(got, (overlap / abs(overlap) if overlap else 1.0) * proj))
    return float(np.max(gaps))  # keeps a NaN gap from an overflowing gate


def _algebra_deviation(gates: GateSet) -> float:
    return _algebra_row(_gate_key("transfer", gates))


@functools.lru_cache(maxsize=64)
def _algebra_row(gate_bytes: tuple[bytes, ...]) -> float:
    """Compose every pair of transfer branch maps and compare with the tag
    algebra.  It reads only the transfer table, so it is cached beside it
    under the same key; an error is raised, never cached."""
    tagged = [(*tag_from_scalar(row.tag.letters, row.scalar), row.branch_map)
              for _, row in sorted(_byproduct_table("transfer", gate_bytes).items())]
    pairs = list(itertools.product(tagged, repeat=2))
    matches = match_pauli_word(np.stack([map2 @ map1 for (_, _, map1), (_, _, map2) in pairs]))
    worst = 0.0
    for ((tag1, mag1, _), (tag2, mag2, _)), found in zip(pairs, matches):
        expected = tag2.compose(tag1.conjugated_by_h()).shifted(2)
        if found is None:
            return float("inf")
        got, mag = tag_from_scalar(*found)
        if got != expected:
            worst = 1.0
        worst = max(worst, abs(mag - mag1 * mag2))
    return worst


def verify_universality(gates: GateSet = DEFAULT_GATES) -> list[CheckRecord]:
    """Run the whole identity and synthesis checklist and report each result.

    Covers the literal gate identities, the conjugation identities, every
    measurement-driven construction against its target, the implicit
    readout, the composite words, and the exact byproduct algebra.  The
    synthesis rows compare branch maps with operators, so the ledger draws
    nothing at random.  The byproduct laws are recorded as informational
    entries.
    """
    h, n, t = (functools.partial(_finite_gate, gates, field)
               for field in ("hadamard", "not_gate", "phase_t"))
    rows = [
        ("hnh", lambda: _gap(h() @ n() @ h(), np.diag([-1j, 1j])), ATOL_ALGEBRA,
         "literal switch-flip-switch product equals the diagonal phase pair"),
        ("hsq", lambda: _gap(h() @ h(), -np.eye(2)), ATOL_ALGEBRA,
         "the basis switch squares to minus identity"),
        ("dets", lambda: _gap([np.linalg.det(n()), np.linalg.det(h())], [1.0, 1.0]),
         ATOL_ALGEBRA, "flip and switch have unit determinant"),
        ("xprime", lambda: _gap(h() @ SIGMA_X @ h().conj().T, SIGMA_Z), ATOL_ALGEBRA,
         "switch conjugation carries the flip observable to the readout"),
        ("xsecond", lambda: max(_gap(_inverse(t(), "the phase gate") @ SIGMA_X @ t(),
                                     OBS_X_MINUS_SECOND.matrix),
                                _gap(OBS_X_SECOND.matrix, SIGMA_Y)), ATOL_ALGEBRA,
         "phase-gate conjugation tilts the flip into (X - X'')/sqrt2, pinning X'' to sigma-y"),
        ("gconj", lambda: _gap(h() @ OBS_X_MINUS_SECOND.matrix @ h().conj().T, OBS_DIAG.matrix),
         ATOL_ALGEBRA, "switch conjugation carries the tilted flip to the diagonal mix"),
        ("involutions", lambda: max(_gap(o.matrix @ o.matrix, np.eye(2)) for o in (
            OBS_X, OBS_X_PRIME, OBS_X_SECOND, OBS_DIAG, OBS_X_MINUS_SECOND)),
         ATOL_ALGEBRA, "every named observable squares to identity"),
        *((name, functools.partial(_chain_deviation, name, gates), ATOL_CIRCUIT, chain.detail)
          for name, chain in _CHAINS.items()),
        ("implicit_xprime", _implicit_deviation, ATOL_ALGEBRA,
         "ancilla-correlation scheme reproduces the readout law"),
        *((f"composite_{kind}",
           functools.partial(_composite_deviation, kind, direct, gates),
           ATOL_CIRCUIT, f"linked realization of the {kind} word matches the direct measurement")
          for kind, direct in (("xx", _XX), ("zz", _ZZ))),
        ("byproduct_algebra", lambda: _algebra_deviation(gates), ATOL_CIRCUIT,
         "chained branch maps compose exactly as the tag algebra predicts"),
    ]
    checks = [_guarded(*row) for row in rows]
    law = transfer_byproduct_distribution()
    flatness = max(abs(v - 0.25) for v in law.values()) if len(law) == 4 else 1.0
    return checks + [CheckRecord("byproduct_distribution", flatness, None, (
        "enumerated single-transfer byproduct law; deviation is distance from flat"))]
