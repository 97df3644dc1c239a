"""Exact bookkeeping for Pauli byproducts.

A tag is a tensor word over the four one-qubit observables {I, X, X', X''}
together with a power of i.  Composition follows matrix order, so
``a.compose(b)`` stands for the product (matrix of a) @ (matrix of b); the
accumulated phase is kept as an integer exponent mod 4 and never rounded
through floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from .errors import ValidationError
from .gates import SIGMA_X, SIGMA_Y, SIGMA_Z

LETTERS = ("I", "X", "X'", "X''")

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": SIGMA_X,
    "X'": SIGMA_Z,
    "X''": SIGMA_Y,
}

# (left, right) -> (result letter, added power of i), from the products of
# the underlying matrices: for instance X . X' = -i X''.
_COMPOSE = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "X'"): ("X'", 0), ("I", "X''"): ("X''", 0),
    ("X", "I"): ("X", 0), ("X'", "I"): ("X'", 0), ("X''", "I"): ("X''", 0),
    ("X", "X"): ("I", 0), ("X'", "X'"): ("I", 0), ("X''", "X''"): ("I", 0),
    ("X", "X'"): ("X''", 3), ("X'", "X"): ("X''", 1),
    ("X", "X''"): ("X'", 1), ("X''", "X"): ("X'", 3),
    ("X'", "X''"): ("X", 3), ("X''", "X'"): ("X", 1),
}

# Conjugation by the Hadamard swaps the flip and readout letters and negates
# the third one (a sign is two powers of i).
_H_CONJ = {"I": ("I", 0), "X": ("X'", 0), "X'": ("X", 0), "X''": ("X''", 2)}


@dataclass(frozen=True)
class PauliTag:
    """A signed Pauli word: i**phase times a tensor product of letters."""

    letters: tuple[str, ...]
    phase: int = 0

    def __post_init__(self):
        for letter in self.letters:
            if letter not in LETTERS:
                raise ValidationError(f"unknown Pauli letter {letter!r}")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n_qubits: int = 1) -> "PauliTag":
        return cls(("I",) * n_qubits)

    @classmethod
    def single(cls, letter: str, phase: int = 0) -> "PauliTag":
        return cls((letter,), phase)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def compose(self, other: "PauliTag") -> "PauliTag":
        """Matrix-order product self . other."""
        if other.n_qubits != self.n_qubits:
            raise ValidationError("cannot compose tags of different widths")
        phase = self.phase + other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            letter, extra = _COMPOSE[(a, b)]
            letters.append(letter)
            phase += extra
        return PauliTag(tuple(letters), phase)

    def conjugated_by_h(self) -> "PauliTag":
        """Image under Hadamard conjugation on every wire."""
        phase = self.phase
        letters = []
        for a in self.letters:
            letter, extra = _H_CONJ[a]
            letters.append(letter)
            phase += extra
        return PauliTag(tuple(letters), phase)

    def shifted(self, quarter_turns: int) -> "PauliTag":
        return PauliTag(self.letters, self.phase + quarter_turns)

    def mod_phase(self) -> "PauliTag":
        return PauliTag(self.letters)

    def same_mod_phase(self, other: "PauliTag") -> bool:
        return self.letters == other.letters

    def matrix(self) -> np.ndarray:
        out = np.array([[1.0 + 0.0j]])
        for letter in self.letters:
            out = np.kron(out, _LETTER_MATRICES[letter])
        return (1j**self.phase) * out

    @property
    def label(self) -> str:
        word = "*".join(self.letters)
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase]
        return prefix + word


# Word tables are kept up to this width: 4**4 words of 16 x 16 is 1 MB,
# while wider tables grow 16-fold per wire, so wider words are built lazily.
_CACHED_WIDTH = 4


def _iter_words(n: int):
    """(letters, matrix, conjugate transpose) of every n-letter word, in order."""
    for letters in _iter_product(LETTERS, repeat=n):
        word = PauliTag(letters).matrix()
        yield letters, word, word.conj().T


@functools.lru_cache(maxsize=None)  # called for widths up to _CACHED_WIDTH only
def _word_table(n: int) -> tuple:
    return tuple(_iter_words(n))


def match_pauli_word(mat: np.ndarray, atol: float = 1e-10) -> tuple[tuple[str, ...], complex] | None:
    """Identify ``mat`` as scalar * (tensor word of Pauli letters).

    Returns the letters and the complex scalar, or None when no word fits.
    The scalar is unconstrained here; use :func:`tag_from_scalar` when it is
    supposed to be a power of i.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    n = int(dim).bit_length() - 1
    if mat.shape != (dim, dim) or 2**n != dim:
        raise ValidationError(f"matrix shape {mat.shape} is not a qubit operator")
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    for letters, word, word_h in _word_table(n) if n <= _CACHED_WIDTH else _iter_words(n):
        coeff = complex(np.trace(word_h @ mat) / dim)
        if np.max(np.abs(mat - coeff * word)) <= atol * scale:
            return letters, coeff
    return None


def tag_from_scalar(letters: tuple[str, ...], coeff: complex, atol: float = 1e-8) -> tuple[PauliTag, float]:
    """Fold a matched scalar into a tag, requiring its phase to be a power of i.

    Returns the tag and the leftover positive magnitude.
    """
    magnitude = abs(coeff)
    if magnitude < 1e-300:
        raise ValidationError("scalar is numerically zero")
    angle = np.angle(coeff)
    quarter = int(np.round(angle / (np.pi / 2))) % 4
    residue = abs(np.exp(1j * angle) - 1j**quarter)
    if residue > atol:
        raise ValidationError(f"scalar phase {angle} is not a multiple of pi/2 (residue {residue:.2e})")
    return PauliTag(letters, quarter), magnitude
