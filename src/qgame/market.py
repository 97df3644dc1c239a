"""Trader strategies as waves over the log-price line.

A strategy is a normalized complex profile on a uniform grid of the
centered log price q.  Buying propensity is the probability mass below a
price; selling propensity lives in the conjugate representation reached by
a discrete Fourier transform.  The phase-space view is a discretized
Wigner transform whose q-marginal is exact on the grid by construction.

Conventions: the economic Planck constant is fixed at h_E = 2*pi, so the
reduced constant is 1 and no function takes it as an argument, and grids
exclude their upper endpoint so the implied circle closes and FFT round
trips are exact.  ``supply_cdf`` takes the conjugate wave that
``to_momentum`` returns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GridTruncationError, ValidationError
from .report import write_float_rows

TWO_PI = 2.0 * math.pi

_NORM_ATOL = 1e-10
_EDGE_AMPLITUDE = 1e-12
_ALIAS_MASS = 1e-8
MAX_WIGNER_POINTS = 4096
# The Wigner transform runs _BLOCK q columns at a time, so beside the n x n
# float grid (none for a summary) it holds one (_BLOCK, n/2 + 1) complex
# block, one (_BLOCK, n) float block and their gather temporaries, a few MB
# at 4096 points.  The grid's values do not depend on _BLOCK; its summed
# mass may move in the last bit.
_BLOCK = 32


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
        if not 0.0 < self.step < math.inf:
            raise ValidationError(
                f"grid step (q_max - q_min) / n_points is {self.step!r} on "
                f"[{self.q_min}, {self.q_max}]; it must be finite and positive")

    @property
    def step(self) -> float:
        return (self.q_max - self.q_min) / self.n_points

    def nodes(self) -> np.ndarray:
        return self.q_min + self.step * np.arange(self.n_points)

    def conjugate(self) -> "GridSpec":
        """Grid of the Fourier-dual coordinate, same point count."""
        half_span = math.pi / self.step
        return GridSpec(-half_span, half_span, self.n_points)


@dataclass(frozen=True, eq=False)
class WaveFunction1D:
    """Normalized strategy profile sampled on a grid.

    Normalization is in the Riemann sense: sum |psi|^2 * step = 1, which
    the Fourier transform below preserves exactly; ``normalized`` rescales
    samples to it.
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
        # Finite samples near the float limit overflow the norm to inf, which
        # the NaN-failing test below refuses.
        with np.errstate(over="ignore"):
            norm = float(np.sum(np.abs(arr) ** 2) * self.grid.step)
        if not abs(norm - 1.0) <= _NORM_ATOL:
            raise ValidationError(
                f"wave norm {norm} is not 1 (the sum of |samples|^2 * step)")
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
    ``center=False`` to keep the requested mean.
    """
    if not (math.isfinite(spread) and spread > 0.0):
        raise ValidationError(f"spread must be positive, got {spread!r}")
    if not math.isfinite(mean):
        raise ValidationError(f"mean must be finite, got {mean!r}")
    width = 2.0 * spread * spread
    if not 0.0 < width < math.inf:
        raise ValidationError(
            f"spread {spread!r} is out of range: 2 * spread**2 is {width!r}")
    target = 0.0 if center else mean
    nodes = grid.nodes()
    # A far node's exponent may overflow to -inf; exp(-inf) = 0 is exact.
    with np.errstate(over="ignore"):
        raw = np.exp(-((nodes - target) ** 2) / width)
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


def to_momentum(psi: WaveFunction1D) -> WaveFunction1D:
    """Fourier transform to the conjugate representation.

    Returns the wave on the conjugate grid of the same point count; the
    scaling keeps the Riemann norm exactly 1 (a discrete Parseval
    identity), so round trips through from_momentum are exact.
    """
    grid = psi.grid
    n = grid.n_points
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spectrum = np.fft.fft(signs * psi.samples)
    k_offset = np.arange(n) - n // 2
    phases = np.exp(-1j * TWO_PI * k_offset * grid.q_min / (n * grid.step))
    samples = (grid.step / math.sqrt(TWO_PI)) * phases * spectrum
    return WaveFunction1D(grid.conjugate(), samples)


def from_momentum(psi_p: WaveFunction1D, grid: GridSpec) -> WaveFunction1D:
    """Inverse of to_momentum back onto the given position grid."""
    n = grid.n_points
    if psi_p.grid.n_points != n:
        raise ValidationError("momentum wave and target grid sizes differ")
    if not math.isclose(psi_p.grid.step * grid.step * n, TWO_PI,
                        rel_tol=1e-9):
        raise ValidationError("grids are not Fourier conjugates")
    k_offset = np.arange(n) - n // 2
    phases = np.exp(1j * TWO_PI * k_offset * grid.q_min / (n * grid.step))
    spectrum = (math.sqrt(TWO_PI) / grid.step) * phases * psi_p.samples
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return WaveFunction1D(grid, signs * np.fft.ifft(spectrum))


def supply_cdf(psi_p: WaveFunction1D, price: float) -> float:
    """Probability that the trader is willing to sell at the given price.

    ``psi_p`` is the conjugate wave, ``to_momentum(psi)``; the selling
    propensity integrates its density up to ln(1/price).
    """
    return _cdf_at(psi_p, -math.log(_check_price(price)))


def momentum_density_at(psi: WaveFunction1D, p_values) -> np.ndarray:
    """Conjugate density evaluated directly at arbitrary points.

    Unlike to_momentum this is not restricted to the FFT node set, at the
    cost of a dense transform; used to cross-check phase-space marginals.
    """
    p = np.atleast_1d(np.asarray(p_values, dtype=float))
    nodes = psi.grid.nodes()
    transform = (psi.grid.step / math.sqrt(TWO_PI)) * (
        np.exp(-1j * np.outer(p, nodes)) @ psi.samples)
    return np.abs(transform) ** 2


def _boundary_mass(psi: WaveFunction1D) -> float:
    rho = psi.density()
    return float((rho[0] + rho[-1]) * psi.grid.step)


@dataclass(frozen=True)
class WignerSummary:
    """The reductions of a Wigner grid that the JSON and text reports print."""

    normalization: float
    min_value: float
    p_step: float
    q_step: float
    aliased: bool


def _step(nodes: np.ndarray) -> float:
    return float(nodes[1] - nodes[0])


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Phase-space pseudo-density on the (p, q) node lattice.

    Rows follow p, columns follow q.  The p lattice is twice as fine as
    the Fourier-dual grid over half its span; that choice makes the
    q-marginal land exactly on the sampled density.  ``table`` is the
    grid's CSV table ``[p | values]``: column 0 holds the p nodes, the
    other columns the values.  ``summary`` holds the reductions taken
    while the grid was built.
    """

    table: np.ndarray
    q_nodes: np.ndarray
    summary: WignerSummary

    @property
    def values(self) -> np.ndarray:
        return self.table[:, 1:]

    @property
    def p_nodes(self) -> np.ndarray:
        return self.table[:, 0]

    def normalization(self) -> float:
        return self.summary.normalization

    def marginal_q(self) -> np.ndarray:
        return self.values.sum(axis=0) * self.summary.p_step

    def marginal_p(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.summary.q_step


def _p_nodes(psi: WaveFunction1D) -> np.ndarray:
    """The p nodes of the Wigner grid; refuses a grid past the point limit."""
    grid = psi.grid
    n = grid.n_points
    if n > MAX_WIGNER_POINTS:
        raise CapacityError(
            f"wigner needs an n x n grid; {n} exceeds the "
            f"{MAX_WIGNER_POINTS}-point limit")
    return math.pi * (np.arange(n) - n // 2) / (n * grid.step)


def _transform(psi: WaveFunction1D, keep_grid: bool) -> tuple:
    """One pass over the Wigner grid, ``_BLOCK`` q columns at a time.

    Returns ``(table, summary)``.  With ``keep_grid``, ``table`` is the
    n x (n + 1) table ``[p | values]``: the p nodes in column 0 and each
    real block written after them; else it is None.  The summary adds the
    blocks' sums in block order and keeps the minimum, exact in any order.
    """
    p_nodes = _p_nodes(psi)
    grid = psi.grid
    n = grid.n_points
    vec = psi.samples
    scale = 2.0 * grid.step / TWO_PI
    table = None
    if keep_grid:
        table = np.empty((n, n + 1))
        table[:, 0] = p_nodes
    # np.minimum propagates a NaN like one whole-grid reduction.
    total, minimum = 0.0, np.inf
    for start in range(0, n, _BLOCK):
        cols = np.arange(start, min(start + _BLOCK, n))
        # Column j's live shifts are |m| <= min(j, n-1-j).  Shift -m is the
        # conjugate of shift m, so only m >= 0 is filled and the Hermitian
        # transform returns the column's real values.
        reach = np.minimum(cols, n - 1 - cols)[:, None]
        top = int(reach.max())
        shifts = np.arange(top + 1)
        products = (vec[(cols[:, None] + shifts) % n]
                    * np.conj(vec[(cols[:, None] - shifts) % n]))
        products[shifts > reach] = 0.0
        block = np.zeros((cols.size, n // 2 + 1), dtype=complex)
        block[:, :top + 1] = products
        block[:, 1::2] *= -1.0
        real = np.fft.hfft(block, n, axis=1) * scale
        if table is not None:
            table[:, 1 + start:1 + start + cols.size] = real.T
        total += real.sum()
        minimum = np.minimum(minimum, real.min())
    p_step, q_step = _step(p_nodes), _step(grid.nodes())
    return table, WignerSummary(
        normalization=float(total * p_step * q_step),
        min_value=float(minimum),
        p_step=p_step,
        q_step=q_step,
        aliased=_boundary_mass(psi) > _ALIAS_MASS,
    )


def wigner(psi: WaveFunction1D) -> WignerGrid:
    """Discrete Wigner transform of a strategy.

    Follows the shifted-product form with offsets x = 2m * step so both
    shifted arguments stay on the grid.  Each column's shifted products are
    a Hermitian sequence in m, so the transform over m is one length-n
    Hermitian FFT per column, which returns a real block.  Columns are
    transformed ``_BLOCK`` at a time, so the only n x n array is the real
    grid returned, held with its p nodes as one table.  The grid's summary
    flags strategies carrying visible mass at the grid edge as aliased.
    """
    table, summary = _transform(psi, keep_grid=True)
    return WignerGrid(table, psi.grid.nodes(), summary)


def wigner_summary(psi: WaveFunction1D) -> WignerSummary:
    """``wigner(psi).summary``, bit for bit, without the n x n grid."""
    return _transform(psi, keep_grid=False)[1]


def wigner_to_csv(w: WignerGrid) -> str:
    """The grid as CSV text: a ``p\\q`` header of q nodes, then one row per p node."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["p\\q", *map(repr, w.q_nodes.tolist())])
    write_float_rows(out, w.table)
    return out.getvalue()
