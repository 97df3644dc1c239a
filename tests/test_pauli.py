"""Byproduct tag algebra against direct matrix arithmetic."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import ValidationError
from qgame.gates import SIGMA_X, SIGMA_Y, SIGMA_Z
from qgame.pauli import LETTERS, PauliTag, match_pauli_word, tag_from_scalar


@pytest.mark.parametrize("left", LETTERS)
@pytest.mark.parametrize("right", LETTERS)
def test_composition_table_matches_matrix_products(left, right):
    a = PauliTag((left,))
    b = PauliTag((right,))
    composed = a.compose(b)
    assert np.allclose(composed.matrix(), a.matrix() @ b.matrix(), atol=1e-15)


def test_phase_accumulates_mod_four():
    x = PauliTag(("X",))
    xp = PauliTag(("X'",))
    t = x.compose(xp)  # -i X''
    assert t.letters == ("X''",) and t.phase == 3
    roundtrip = t.compose(t)
    # (-i X'')^2 = -I
    assert roundtrip.letters == ("I",) and roundtrip.phase == 2
    assert np.allclose(roundtrip.matrix(), -np.eye(2), atol=1e-15)


@pytest.mark.parametrize("letter", LETTERS)
def test_h_conjugation_table_matches_matrix_conjugation(letter):
    from qgame.gates import H

    tag = PauliTag((letter,))
    conjugated = tag.conjugated_by_h()
    direct = H @ tag.matrix() @ H.conj().T
    assert np.allclose(conjugated.matrix(), direct, atol=1e-12)


def test_two_wire_composition():
    a = PauliTag(("X", "X'"))
    b = PauliTag(("X'", "X'"))
    composed = a.compose(b)
    assert np.allclose(composed.matrix(), a.matrix() @ b.matrix(), atol=1e-15)
    assert composed.letters == ("X''", "I")


def test_width_mismatch_is_rejected():
    with pytest.raises(ValidationError):
        PauliTag(("X",)).compose(PauliTag(("X", "I")))
    with pytest.raises(ValidationError):
        PauliTag(("Q",))


def test_match_pauli_word_recovers_letters_and_scalar():
    rng = np.random.default_rng(8)
    for _ in range(20):
        letters = tuple(rng.choice(LETTERS, size=2))
        coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if abs(coeff) < 1e-3:
            coeff = 1.0 + 0j
        mat = coeff * PauliTag(letters).matrix()
        found = match_pauli_word(mat)
        assert found is not None
        got_letters, got_coeff = found
        assert got_letters == letters
        assert got_coeff == pytest.approx(coeff, abs=1e-10)


def test_match_pauli_word_refuses_non_pauli_matrices():
    assert match_pauli_word(np.diag([1.0, 0.5])) is None


@pytest.mark.parametrize("mat", [1.0, [1.0, 0.0], np.zeros((2, 2, 2, 2))],
                         ids=["0-d", "1-d", "4-d"])
def test_match_pauli_word_refuses_an_operator_of_the_wrong_rank(mat):
    with pytest.raises(ValidationError, match="not a qubit operator"):
        match_pauli_word(mat)


def test_tag_from_scalar_reads_quarter_turns():
    tag, mag = tag_from_scalar(("X",), -2j)
    assert tag == PauliTag(("X",), 3)
    assert mag == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValidationError):
        tag_from_scalar(("X",), np.exp(0.3j))


def test_match_pauli_word_covers_four_wires_and_refuses_five():
    letters = ("X''", "I", "X'", "X")
    coeff = -0.75 + 2.5j
    found = match_pauli_word(coeff * PauliTag(letters).matrix())
    assert found is not None
    assert found[0] == letters
    assert found[1] == pytest.approx(coeff, abs=1e-12)
    with pytest.raises(ValidationError, match="limit is 4 qubits"):
        match_pauli_word(np.eye(32))


# Property tests over words of width 1 to 3.
words = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*[st.sampled_from(LETTERS)] * n))
scalars = st.builds(
    lambda magnitude, angle: magnitude * np.exp(1j * angle),
    st.floats(1e-3, 1e3), st.floats(0.0, 2 * np.pi))
phases = st.integers(0, 3)


def _word_matrix(letters, phase=0):
    """Reference matrix of i**phase times a word, built without PauliTag."""
    single = {"I": np.eye(2), "X": SIGMA_X, "X'": SIGMA_Z, "X''": SIGMA_Y}
    return 1j**phase * reduce(np.kron, [single[letter] for letter in letters])


@settings(deadline=None)
@given(words, scalars)
def test_match_recovers_any_scaled_word(letters, scalar):
    found = match_pauli_word(scalar * _word_matrix(letters))
    assert found is not None
    got, coeff = found
    assert got == letters
    assert abs(coeff - scalar) <= 1e-12 * abs(scalar)


@settings(deadline=None)
@given(words, scalars, st.floats(1e-6, 1e-1), st.integers(0, 2**32 - 1))
def test_match_refuses_a_perturbed_word(letters, scalar, size, seed):
    word = _word_matrix(letters)
    dim = word.shape[0]
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # Remove the word's own component, so the perturbation is never a rescaling.
    noise -= np.trace(word.conj().T @ noise) / dim * word
    noise /= np.max(np.abs(noise))
    assert match_pauli_word(scalar * (word + size * noise)) is None


def _stack_entry(kind, letters, scalar, rng):
    word = scalar * _word_matrix(letters)
    if kind == "perturbed":
        return word + 1e-3 * abs(scalar) * rng.standard_normal(word.shape)
    if kind == "zero":
        return np.zeros_like(word)
    if kind in ("nan", "inf"):
        word[tuple(rng.integers(word.shape[0], size=2))] = float(kind)
    return word


def _found(result):
    """A match result with its scalar as repr, so that NaN compares equal."""
    return None if result is None else (result[0], repr(result[1]))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(
    st.sampled_from(["scaled", "perturbed", "zero", "nan", "inf"]),
    st.tuples(*[st.sampled_from(LETTERS)] * n), scalars), min_size=1, max_size=6)),
    st.integers(0, 2**32 - 1))
def test_a_stack_matches_as_each_matrix_alone(entries, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([_stack_entry(*entry, rng) for entry in entries])
    with np.errstate(invalid="ignore", over="ignore"):
        together = match_pauli_word(stack)
        alone = [match_pauli_word(mat) for mat in stack]
    assert [_found(r) for r in together] == [_found(r) for r in alone]


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.tuples(*[st.sampled_from(LETTERS)] * n), phases,
    st.tuples(*[st.sampled_from(LETTERS)] * n), phases)))
def test_multi_wire_compose_matches_matrix_product(case):
    left_letters, left_phase, right_letters, right_phase = case
    composed = PauliTag(left_letters, left_phase).compose(PauliTag(right_letters, right_phase))
    direct = _word_matrix(left_letters, left_phase) @ _word_matrix(right_letters, right_phase)
    assert np.allclose(_word_matrix(composed.letters, composed.phase), direct,
                       rtol=0.0, atol=1e-14)


@settings(deadline=None)
@given(words, phases)
def test_multi_wire_h_conjugation_matches_matrix_conjugation(letters, phase):
    from qgame.gates import H

    switch = reduce(np.kron, [H] * len(letters))
    direct = switch @ _word_matrix(letters, phase) @ switch.conj().T
    image = PauliTag(letters, phase).conjugated_by_h()
    assert np.allclose(_word_matrix(image.letters, image.phase), direct, rtol=0.0, atol=1e-12)
