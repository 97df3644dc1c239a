"""Trader strategies as waves over the log-price line.

A strategy is a normalized complex profile on a uniform grid of the
centered log price q.  Buying propensity is the probability mass below a
price; selling propensity lives in the conjugate representation reached by
a discrete Fourier transform.  The phase-space view is a discretized
Wigner transform whose q-marginal is exact on the grid by construction.

Conventions: the economic Planck constant defaults to h = 2*pi so that the
reduced constant is 1, and grids exclude their upper endpoint so the
implied circle closes and FFT round trips are exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapacityError,
    GridTruncationError,
    ImpossibleTransactionError,
    ValidationError,
)

TWO_PI = 2.0 * math.pi

_NORM_ATOL = 1e-10
_EDGE_AMPLITUDE = 1e-12
_ALIAS_MASS = 1e-8
_DEAD_AMPLITUDE = 1e-150
MAX_WIGNER_POINTS = 4096


@dataclass(frozen=True)
class GridSpec:
    """Uniform log-price grid; the upper endpoint is excluded."""

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)
                and self.q_min < self.q_max):
            raise ValidationError(
                f"grid needs q_min < q_max, got [{self.q_min}, {self.q_max}]")
        n = self.n_points
        if n < 64 or n & (n - 1) != 0:
            raise ValidationError(
                f"n_points must be a power of two >= 64, got {n}")

    @property
    def step(self) -> float:
        return (self.q_max - self.q_min) / self.n_points

    def nodes(self) -> np.ndarray:
        return self.q_min + self.step * np.arange(self.n_points)

    def conjugate(self, hbar: float = 1.0) -> "GridSpec":
        """Grid of the Fourier-dual coordinate, same point count."""
        half_span = math.pi * hbar / self.step
        return GridSpec(-half_span, half_span, self.n_points)


@dataclass(frozen=True, eq=False)
class WaveFunction1D:
    """Normalized strategy profile sampled on a grid.

    Normalization is in the Riemann sense: sum |psi|^2 * step = 1, which
    the Fourier transform below preserves exactly.
    """

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.n_points,):
            raise ValidationError(
                f"expected {self.grid.n_points} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("samples contain NaN or infinity")
        norm = float(np.sum(np.abs(arr) ** 2) * self.grid.step)
        if abs(norm - 1.0) > _NORM_ATOL:
            raise ValidationError(
                f"wave norm {norm} is not 1; use WaveFunction1D.normalized")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def normalized(cls, grid: GridSpec, samples) -> "WaveFunction1D":
        arr = np.asarray(samples, dtype=complex)
        norm = math.sqrt(float(np.sum(np.abs(arr) ** 2)) * grid.step)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValidationError("cannot normalize: zero or non-finite mass")
        return cls(grid, arr / norm)

    def density(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def norm(self) -> float:
        return float(np.sum(self.density()) * self.grid.step)

    def mean(self) -> float:
        """E(q) under the sampled density."""
        return float(np.sum(self.grid.nodes() * self.density()) * self.grid.step)

    def variance(self) -> float:
        centered = self.grid.nodes() - self.mean()
        return float(np.sum(centered ** 2 * self.density()) * self.grid.step)


def make_gaussian_strategy(mean: float, spread: float, grid: GridSpec, *,
                           center: bool = True) -> WaveFunction1D:
    """Gaussian profile exp(-(q-m)^2 / (2 spread^2)), normalized.

    The density then has variance spread^2 / 2.  With ``center`` on (the
    default) the profile is placed so E(q) = 0 regardless of the requested
    mean, matching the unit convention that log prices are centered; pass
    ``center=False`` to keep a displaced component, e.g. for mixtures.
    """
    if not (math.isfinite(spread) and spread > 0.0):
        raise ValidationError(f"spread must be positive, got {spread!r}")
    if not math.isfinite(mean):
        raise ValidationError(f"mean must be finite, got {mean!r}")
    target = 0.0 if center else mean
    nodes = grid.nodes()
    raw = np.exp(-((nodes - target) ** 2) / (2.0 * spread * spread))
    peak = float(raw.max())
    edge = max(float(abs(raw[0])), float(abs(raw[-1])))
    if peak == 0.0 or edge / peak >= _EDGE_AMPLITUDE:
        total = float(np.sum(raw ** 2))
        boundary = float(raw[0] ** 2 + raw[-1] ** 2) / total if total else 1.0
        raise GridTruncationError(
            f"grid [{grid.q_min}, {grid.q_max}] clips the strategy "
            f"(edge amplitude ratio {edge / peak if peak else 1.0:.2e})",
            boundary_mass=boundary)
    return WaveFunction1D.normalized(grid, raw.astype(complex))


def _cdf_at(wave: WaveFunction1D, threshold: float) -> float:
    """Trapezoid mass of |psi|^2 below the threshold, over the total mass."""
    rho = wave.density()
    nodes = wave.grid.nodes()
    step = wave.grid.step
    total = float(np.trapezoid(rho, dx=step))
    if threshold <= nodes[0]:
        return 0.0
    if threshold >= nodes[-1]:
        return 1.0
    j = min(int((threshold - nodes[0]) // step), nodes.size - 2)
    below = float(np.trapezoid(rho[:j + 1], dx=step))
    frac = (threshold - nodes[j]) / step
    rho_t = rho[j] + (rho[j + 1] - rho[j]) * frac
    below += 0.5 * (rho[j] + rho_t) * (threshold - nodes[j])
    return below / total


def _check_price(price: float) -> float:
    if not (isinstance(price, (int, float)) and math.isfinite(price) and price > 0.0):
        raise ValidationError(f"price must be a positive number, got {price!r}")
    return float(price)


def demand_cdf(psi: WaveFunction1D, price: float) -> float:
    """Probability that the trader is willing to buy at the given price.

    Integrates the log-price density up to ln(price) by trapezoidal
    quadrature on the grid, interpolating within the final cell.
    """
    return _cdf_at(psi, math.log(_check_price(price)))


def to_momentum(psi: WaveFunction1D, *, h_e: float = TWO_PI) -> WaveFunction1D:
    """Fourier transform to the conjugate representation.

    Returns the wave on the conjugate grid of the same point count; the
    scaling keeps the Riemann norm exactly 1 (a discrete Parseval
    identity), so round trips through from_momentum are exact.
    """
    hbar = h_e / TWO_PI
    grid = psi.grid
    n = grid.n_points
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spectrum = np.fft.fft(signs * psi.samples)
    k_offset = np.arange(n) - n // 2
    phases = np.exp(-1j * TWO_PI * k_offset * grid.q_min / (n * grid.step))
    samples = (grid.step / math.sqrt(h_e)) * phases * spectrum
    return WaveFunction1D(grid.conjugate(hbar), samples)


def from_momentum(psi_p: WaveFunction1D, grid: GridSpec, *,
                  h_e: float = TWO_PI) -> WaveFunction1D:
    """Inverse of to_momentum back onto the given position grid."""
    hbar = h_e / TWO_PI
    n = grid.n_points
    if psi_p.grid.n_points != n:
        raise ValidationError("momentum wave and target grid sizes differ")
    if not math.isclose(psi_p.grid.step * grid.step * n, TWO_PI * hbar,
                        rel_tol=1e-9):
        raise ValidationError("grids are not Fourier conjugates")
    k_offset = np.arange(n) - n // 2
    phases = np.exp(1j * TWO_PI * k_offset * grid.q_min / (n * grid.step))
    spectrum = (math.sqrt(h_e) / grid.step) * phases * psi_p.samples
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return WaveFunction1D(grid, signs * np.fft.ifft(spectrum))


def supply_cdf(psi: WaveFunction1D, price: float, *, in_momentum_rep: bool = False,
               h_e: float = TWO_PI) -> float:
    """Probability that the trader is willing to sell at the given price.

    The selling propensity integrates the conjugate-representation density
    up to ln(1/price).  Pass ``in_momentum_rep=True`` when the wave is
    already the conjugate profile to skip the transform.
    """
    threshold = -math.log(_check_price(price))
    wave = psi if in_momentum_rep else to_momentum(psi, h_e=h_e)
    return _cdf_at(wave, threshold)


def momentum_density_at(psi: WaveFunction1D, p_values, *,
                        h_e: float = TWO_PI) -> np.ndarray:
    """Conjugate density evaluated directly at arbitrary points.

    Unlike to_momentum this is not restricted to the FFT node set, at the
    cost of a dense transform; used to cross-check phase-space marginals.
    """
    hbar = h_e / TWO_PI
    p = np.atleast_1d(np.asarray(p_values, dtype=float))
    nodes = psi.grid.nodes()
    transform = (psi.grid.step / math.sqrt(h_e)) * (
        np.exp(-1j * np.outer(p, nodes) / hbar) @ psi.samples)
    return np.abs(transform) ** 2


def _boundary_mass(psi: WaveFunction1D) -> float:
    rho = psi.density()
    return float((rho[0] + rho[-1]) * psi.grid.step)


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Phase-space pseudo-density on the (p, q) node lattice.

    Rows follow p, columns follow q.  The p lattice is twice as fine as
    the Fourier-dual grid over half its span; that choice makes the
    q-marginal land exactly on the sampled density.
    """

    values: np.ndarray
    p_nodes: np.ndarray
    q_nodes: np.ndarray
    h_e: float
    max_imag: float
    aliased: bool

    @property
    def p_step(self) -> float:
        return float(self.p_nodes[1] - self.p_nodes[0])

    @property
    def q_step(self) -> float:
        return float(self.q_nodes[1] - self.q_nodes[0])

    def normalization(self) -> float:
        return float(self.values.sum() * self.p_step * self.q_step)

    def marginal_q(self) -> np.ndarray:
        return self.values.sum(axis=0) * self.p_step

    def marginal_p(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.q_step


def wigner(psi: WaveFunction1D, *, h_e: float = TWO_PI) -> WignerGrid:
    """Discrete Wigner transform of a strategy.

    Follows the shifted-product form with offsets x = 2m * step so both
    shifted arguments stay on the grid; the transform over m is folded to
    length n and done with one FFT per column.  The real part is returned
    with the worst imaginary residue recorded, and strategies carrying
    visible mass at the grid edge are flagged as aliased.
    """
    hbar = h_e / TWO_PI
    grid = psi.grid
    n = grid.n_points
    if n > MAX_WIGNER_POINTS:
        raise CapacityError(
            f"wigner needs an n x n work array; {n} exceeds the "
            f"{MAX_WIGNER_POINTS}-point limit")
    step = grid.step
    vec = psi.samples
    folded = np.zeros((n, n), dtype=complex)
    j = np.arange(n)
    for r in range(n):
        lo, hi = r, n - 1 - r
        if lo <= hi:
            jj = j[lo:hi + 1]
            folded[r, lo:hi + 1] = vec[jj + r] * np.conj(vec[jj - r])
        lo, hi = n - r, r - 1
        if lo <= hi:
            jj = j[lo:hi + 1]
            folded[r, lo:hi + 1] = vec[jj + r - n] * np.conj(vec[jj - r + n])
    # Shift, transform and scale in the one n x n buffer.
    folded[1::2] *= -1.0
    np.fft.ifft(folded, axis=0, out=folded)
    folded *= (2.0 * step / h_e) * n
    p_nodes = math.pi * hbar * (j - n // 2) / (n * step)
    return WignerGrid(
        values=np.ascontiguousarray(folded.real),
        p_nodes=p_nodes,
        q_nodes=grid.nodes(),
        h_e=h_e,
        max_imag=float(np.max(np.abs(folded.imag))),
        aliased=_boundary_mass(psi) > _ALIAS_MASS,
    )


def mix_wigner(components: Sequence[tuple[float, WaveFunction1D]], *,
               h_e: float = TWO_PI) -> WignerGrid:
    """Convex combination of strategy Wigner grids, taken pointwise."""
    if not components:
        raise ValidationError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0.0):
        raise ValidationError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValidationError(f"mixture weights sum to {weights.sum()}, not 1")
    base = components[0][1].grid
    for _, wave in components[1:]:
        if wave.grid != base:
            raise ValidationError("mixture components must share one grid")
    grids = [wigner(wave, h_e=h_e) for _, wave in components]
    values = np.zeros_like(grids[0].values)
    for weight, part in zip(weights, grids):
        values += weight * part.values
    return WignerGrid(
        values=values,
        p_nodes=grids[0].p_nodes,
        q_nodes=grids[0].q_nodes,
        h_e=h_e,
        max_imag=max(part.max_imag for part in grids),
        aliased=any(part.aliased for part in grids),
    )


@dataclass(frozen=True)
class Buy:
    """Buy leg: project onto the log-price node nearest ``at``."""

    at: float


@dataclass(frozen=True)
class Sell:
    """Sell leg: project onto the conjugate-coordinate node nearest ``at``."""

    at: float


@dataclass(frozen=True, eq=False)
class LegOutcome:
    """One trader's projection record."""

    side: str
    requested: float
    node_value: float
    node_index: int
    snap_delta: float
    amplitude: float
    post: WaveFunction1D


def _nearest_node(grid: GridSpec, value: float) -> tuple[int, float]:
    index = int(round((value - grid.q_min) / grid.step))
    index = min(max(index, 0), grid.n_points - 1)
    return index, grid.q_min + index * grid.step


def transaction_project(traders: Sequence[WaveFunction1D],
                        division: Sequence[Buy | Sell], *,
                        h_e: float = TWO_PI) -> list[LegOutcome]:
    """Apply the transaction projection for a caller-supplied division.

    Buyers collapse to the grid stand-in for a sharp log price; their
    recorded amplitude is the density mass at that node.  Sellers are
    treated the same way in the conjugate representation, which leaves
    their position profile a flat-modulus wave.  Node amplitudes below
    the dead threshold abort with an impossible-transaction error.
    """
    if len(traders) != len(division):
        raise ValidationError(
            f"{len(traders)} traders but {len(division)} division entries")
    outcomes: list[LegOutcome] = []
    for slot, (psi, leg) in enumerate(zip(traders, division)):
        if isinstance(leg, Buy):
            wave, side = psi, "buy"
        elif isinstance(leg, Sell):
            wave, side = to_momentum(psi, h_e=h_e), "sell"
        else:
            raise ValidationError(f"division entry {slot} is not Buy or Sell")
        index, node = _nearest_node(wave.grid, leg.at)
        amplitude = float(wave.density()[index]) * wave.grid.step
        if amplitude < _DEAD_AMPLITUDE:
            raise ImpossibleTransactionError(
                f"trader {slot}: no amplitude at node {node:.6g} "
                f"({side} side)")
        collapsed = np.zeros(wave.grid.n_points, dtype=complex)
        collapsed[index] = 1.0 / math.sqrt(wave.grid.step)
        post = WaveFunction1D(wave.grid, collapsed)
        if side == "sell":
            post = from_momentum(post, psi.grid, h_e=h_e)
        outcomes.append(LegOutcome(
            side=side,
            requested=float(leg.at),
            node_value=node,
            node_index=index,
            snap_delta=node - float(leg.at),
            amplitude=amplitude,
            post=post,
        ))
    return outcomes


def wave_to_json(psi: WaveFunction1D) -> str:
    """The explicit-sample strategy file that ``qgame market`` reads."""
    return json.dumps({
        "q_min": psi.grid.q_min,
        "q_max": psi.grid.q_max,
        "n_points": psi.grid.n_points,
        "samples": [[z.real, z.imag] for z in psi.samples],
    })


def wigner_to_csv(w: WignerGrid) -> str:
    """The grid as CSV text: a ``p\\q`` header of q nodes, then one row per p node."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["p\\q", *map(repr, w.q_nodes.tolist())])
    writer.writerows([repr(p), *map(repr, row)]
                     for p, row in zip(w.p_nodes.tolist(), w.values.tolist()))
    return out.getvalue()
