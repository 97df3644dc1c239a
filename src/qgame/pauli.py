"""Exact bookkeeping for Pauli byproducts.

A tag is a tensor word over the four one-qubit observables {I, X, X', X''}
together with a power of i.  Composition follows matrix order, so
``a.compose(b)`` stands for the product (matrix of a) @ (matrix of b); the
accumulated phase is kept as an integer exponent mod 4 and never rounded
through floats.

A letter's index in ``LETTERS`` is its 2-bit code, x bit | z bit << 1, with
X'' = i X X' (Aaronson and Gottesman, arXiv:quant-ph/0406196).  A word is
then one x mask and one z mask, wire w at bit w: composition XORs the masks
and H conjugation swaps them, each with a phase read off the bit counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product as _iter_product

import numpy as np

from .errors import ValidationError
from .gates import SIGMA_X, SIGMA_Y, SIGMA_Z

LETTERS = ("I", "X", "X'", "X''")

# The letters' matrices, indexed by code.
_MATRICES = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Z, SIGMA_Y)

# match_pauli_word keeps one stacked word table per width up to this one:
# 4**4 words of 16 x 16 take 1 MB, twice with their conjugate transposes,
# and a table grows 16-fold per wire.
_TABLE_WIDTH = 4


def _masks(letters: tuple[str, ...]) -> tuple[int, int]:
    x = z = 0
    for wire, letter in enumerate(letters):
        code = LETTERS.index(letter)
        x |= (code & 1) << wire
        z |= (code >> 1) << wire
    return x, z


def _word(x: int, z: int, n: int) -> tuple[str, ...]:
    return tuple(LETTERS[(x >> wire & 1) | (z >> wire & 1) << 1] for wire in range(n))


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

    def compose(self, other: "PauliTag") -> "PauliTag":
        """Matrix-order product self . other.

        With P(x, z) = i**(x&z) X**x X'**z on each wire, moving X'**z1 past
        X**x2 costs a sign per wire where both bits are set.
        """
        n = len(self.letters)
        if len(other.letters) != n:
            raise ValidationError("cannot compose tags of different widths")
        (x1, z1), (x2, z2) = _masks(self.letters), _masks(other.letters)
        x, z = x1 ^ x2, z1 ^ z2
        phase = (self.phase + other.phase + (x1 & z1).bit_count() + (x2 & z2).bit_count()
                 + 2 * (z1 & x2).bit_count() - (x & z).bit_count())
        return PauliTag(_word(x, z, n), phase)

    def conjugated_by_h(self) -> "PauliTag":
        """Image under Hadamard conjugation on every wire: the x and z bits
        swap, and each X'' changes sign."""
        x, z = _masks(self.letters)
        return PauliTag(_word(z, x, len(self.letters)), self.phase + 2 * (x & z).bit_count())

    def shifted(self, quarter_turns: int) -> "PauliTag":
        return PauliTag(self.letters, self.phase + quarter_turns)

    def matrix(self) -> np.ndarray:
        out = np.array([[1.0 + 0.0j]])
        for letter in self.letters:
            out = np.kron(out, _MATRICES[LETTERS.index(letter)])
        return (1j**self.phase) * out


@functools.lru_cache(maxsize=None)  # called for widths up to _TABLE_WIDTH only
def _word_table(n: int) -> tuple:
    """Every n-letter word in order, their stacked read-only matrices and conjugate transposes."""
    words = tuple(_iter_product(LETTERS, repeat=n))
    table = np.stack([PauliTag(letters).matrix() for letters in words])
    table.setflags(write=False)
    return words, table, table.conj().transpose(0, 2, 1)


def word_matrix(letters: tuple[str, ...]) -> np.ndarray:
    """``PauliTag(letters).matrix()``, read from the cached word table; read-only."""
    words, table, _ = _word_table(len(letters))
    return table[words.index(letters)]


def match_pauli_word(mat: np.ndarray, atol: float = 1e-10):
    """Identify ``mat`` as scalar * (tensor word of Pauli letters).

    Returns the letters and the complex scalar, or None when no word fits;
    when several fit, the first in ``LETTERS`` order wins.  The scalar is
    unconstrained here; use :func:`tag_from_scalar` when it is supposed to
    be a power of i.  Words wider than 4 qubits are refused.  A stack ``mat``
    of b matrices is matched at once, giving a list of what each alone gives.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[-1] if mat.ndim else 0
    n = int(dim).bit_length() - 1
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (dim, dim) or 2**n != dim:
        raise ValidationError(f"matrix shape {mat.shape} is not a qubit operator")
    if n > _TABLE_WIDTH:
        raise ValidationError(
            f"cannot match a {n}-qubit word: the limit is {_TABLE_WIDTH} qubits")
    words, table, table_h = _word_table(n)
    stack = mat.reshape(-1, 1, dim, dim)
    scale = np.maximum(np.abs(stack).max(axis=(1, 2, 3), initial=0.0), 1e-300)
    coeffs = np.trace(table_h @ stack, axis1=2, axis2=3) / dim
    fits = np.abs(stack - coeffs[..., None, None] * table).max(axis=(2, 3)) <= atol * scale[:, None]
    found = [(words[first], complex(row[first])) if fit.any() else None
             for fit, row, first in zip(fits, coeffs, np.argmax(fits, axis=1).tolist())]
    return found if mat.ndim == 3 else found[0]


def tag_from_scalar(letters: tuple[str, ...], coeff: complex) -> tuple[PauliTag, float]:
    """Fold a matched scalar into a tag, requiring its phase to be a power of i.

    Returns the tag and the leftover positive magnitude.
    """
    magnitude = abs(coeff)
    if magnitude < 1e-300:
        raise ValidationError("scalar is numerically zero")
    angle = np.angle(coeff)
    quarter = int(np.round(angle / (np.pi / 2))) % 4
    residue = abs(np.exp(1j * angle) - 1j**quarter)
    if residue > 1e-8:
        raise ValidationError(f"scalar phase {angle} is not a multiple of pi/2 (residue {residue:.2e})")
    return PauliTag(letters, quarter), magnitude
