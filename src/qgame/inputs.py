"""Strategy and automaton files, read from a path into checked objects.

Both readers share one number rule, one decoder for arrays of plain or
[re, im] entries, and one place, ``named``, that leads a refusal with the
file's path."""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from .errors import QGameError, ValidationError
from .games import QFA
from .market import MAX_WIGNER_POINTS, GridSpec, WaveFunction1D, make_gaussian_strategy

# Every input file refuses JSON strings, booleans and nulls where a number
# belongs, although float and numpy would read "8" and true as numbers and
# numpy would read null as NaN.
_NOT_NUMBERS = (str, bool, type(None))


@contextlib.contextmanager
def named(prefix: str):
    """Re-raise any QGameError of the block as a ValidationError led by ``prefix``,
    so a refusal names the input file and, where it is one, the field."""
    try:
        yield
    except QGameError as exc:
        raise ValidationError(f"{prefix}: {exc}") from None


def _read_json_object(path: str, what: str, build):
    """``build`` applied to the JSON object in the ``what`` file at ``path``;
    every refusal but an unreadable file's is led by the path."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    with named(path):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"JSON parse error at line {exc.lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"unreadable JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValidationError(f"{what} file must hold a JSON object")
        return build(payload)


def _number(payload: dict, key: str, default=None) -> float:
    """One numeric field; a bad value names the field."""
    value = payload.get(key, default)
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"field {key!r} must be a number, got {value!r}")


def _entries_to_array(value, rank: int, what: str) -> np.ndarray:
    """Decode a JSON-friendly array of the given rank.

    Entries are plain numbers for real data; complex data adds one trailing
    axis of [re, im] pairs.  The expected rank disambiguates the two (a 2x2
    real matrix and a two-entry pair vector share a shape otherwise).
    NaN and infinity are left to the types built from the array.
    """
    entries = np.asarray(value, dtype=object)
    if entries.ndim not in (rank, rank + 1):
        raise ValidationError(f"{what} has unsupported shape {entries.shape}")
    if any(isinstance(entry, _NOT_NUMBERS) for entry in entries.flat):
        raise ValidationError(
            f"{what} holds a string, boolean or null where a number belongs")
    try:
        arr = entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is not an array of numbers: {exc}") from None
    if arr.ndim == rank:
        return arr.astype(complex)
    if arr.shape[-1] == 2:
        return arr.view(complex)[..., 0]
    raise ValidationError(f"{what} has unsupported shape {arr.shape}")


def _point_count(value: int | float, source: str) -> int:
    """A grid point count read from ``source``, a file field or a flag.

    The count is checked here, before any array is built, so a fractional
    or oversized count is refused by name instead of being truncated or
    allocated.
    """
    whole = isinstance(value, int) or value.is_integer()
    if not (whole and 64 <= value <= MAX_WIGNER_POINTS
            and int(value) & (int(value) - 1) == 0):
        raise ValidationError(
            f"{source} must be a power of two from 64 to "
            f"{MAX_WIGNER_POINTS}, got {value!r}")
    return int(value)


def read_strategy(path: str, grid: int | None) -> WaveFunction1D:
    """The Gaussian descriptor or explicit-sample wave at ``path``; ``grid``,
    when given, replaces a Gaussian's ``n_points`` and is checked first."""
    n_points = None if grid is None else _point_count(grid, "--grid")
    return _read_json_object(path, "strategy",
                             lambda payload: _strategy(payload, n_points))


def _strategy(payload: dict, n_points: int | None) -> WaveFunction1D:
    explicit = "samples" in payload
    if not explicit and payload.get("kind") != "gaussian":
        raise ValidationError("expected kind 'gaussian' or explicit samples")
    for key in ("q_min", "q_max", "n_points"):
        if key not in payload:
            raise ValidationError(f"missing grid field {key!r}")
    if n_points is None:
        n_points = _point_count(_number(payload, "n_points"), "field 'n_points'")
    elif explicit:
        raise ValidationError("--grid applies only to Gaussian descriptors")
    q_min, q_max = _number(payload, "q_min"), _number(payload, "q_max")
    spec = GridSpec(q_min, q_max, n_points)
    if explicit:
        samples = _entries_to_array(payload["samples"], 1, "field 'samples'")
        with named("field 'samples'"):
            return WaveFunction1D(spec, samples)
    center = payload.get("center", True)
    if not isinstance(center, bool):
        raise ValidationError(f"field 'center' must be true or false, got {center!r}")
    mean = _number(payload, "mean", default=0.0)
    spread = _number(payload, "spread", default=1.0)
    return make_gaussian_strategy(mean, spread, spec, center=center)


def read_automaton(path: str) -> QFA:
    """The automaton file at ``path``, built by ``qfa_from_dict``."""
    return _read_json_object(path, "automaton", qfa_from_dict)


def qfa_from_dict(payload: dict) -> QFA:
    """Build an automaton from a JSON object.

    Expects keys ``initial`` (vector), ``transitions`` (symbol -> matrix),
    and ``accept`` (matrix).  Entries are plain numbers for real data or
    [re, im] pairs for complex data.
    """
    missing = {"initial", "transitions", "accept"} - set(payload)
    if missing:
        raise ValidationError(f"automaton file is missing {sorted(missing)}")
    transitions = payload["transitions"]
    if not isinstance(transitions, dict):
        raise ValidationError("transitions must map symbols to matrices")
    initial = _entries_to_array(payload["initial"], 1, "initial")
    table = {symbol: _entries_to_array(mat, 2, f"transition {symbol!r}")
             for symbol, mat in transitions.items()}
    accept = _entries_to_array(payload["accept"], 2, "accept")
    return QFA(initial, table, accept)
