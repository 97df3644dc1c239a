"""Strategy waves, trade probability integrals, phase-space densities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgame import CapacityError, ValidationError
from qgame import market as market_module
from qgame.config import seeded_rng
from qgame.market import (
    TWO_PI,
    GridSpec,
    WaveFunction1D,
    demand_cdf,
    from_momentum,
    make_gaussian_strategy,
    momentum_density_at,
    supply_cdf,
    to_momentum,
    wigner,
    wigner_summary,
    wigner_to_csv,
)

GRID = GridSpec(-8.0, 8.0, 512)


def _gaussian(spread=1.0, mean=0.0, grid=GRID, center=True):
    return make_gaussian_strategy(mean, spread, grid, center=center)


def _moments(psi):
    """Mass, mean and variance of the sampled density, as Riemann sums."""
    rho = np.abs(psi.samples) ** 2 * psi.grid.step
    nodes = psi.grid.nodes()
    mean = float(np.sum(nodes * rho))
    return float(np.sum(rho)), mean, float(np.sum((nodes - mean) ** 2 * rho))


def _kicked_gaussian(kick=2.0):
    """A unit Gaussian with the complex phase exp(i kick q)."""
    psi = _gaussian()
    return WaveFunction1D(GRID, psi.samples * np.exp(1j * kick * GRID.nodes()))


class TestGrid:
    def test_nodes_and_step(self):
        grid = GridSpec(-2.0, 2.0, 64)
        nodes = grid.nodes()
        assert nodes.size == 64
        assert nodes[0] == -2.0
        assert grid.step == pytest.approx(4.0 / 64)
        # upper endpoint excluded so the implied circle closes
        assert nodes[-1] == pytest.approx(2.0 - grid.step)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.0, 100)      # not a power of two
        with pytest.raises(ValidationError):
            GridSpec(-1.0, 1.0, 32)       # too coarse
        with pytest.raises(ValidationError):
            GridSpec(1.0, -1.0, 64)


class TestGaussianStrategy:
    def test_moments(self):
        mass, mean, variance = _moments(_gaussian(spread=1.0))
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert variance == pytest.approx(0.5, abs=1e-6)

    def test_spread_scales_variance(self):
        assert _moments(_gaussian(spread=0.5))[2] == pytest.approx(0.125, abs=1e-6)

    def test_samples_symmetric(self):
        psi = _gaussian()
        # node 0 sits alone at -L/2; the rest pair up around zero
        tail = psi.samples[1:]
        np.testing.assert_allclose(tail, tail[::-1], atol=1e-12)

    def test_centering_flag(self):
        centered = _gaussian(mean=1.5, center=True)
        assert _moments(centered)[1] == pytest.approx(0.0, abs=1e-8)
        wide = GridSpec(-10.0, 10.0, 512)
        displaced = _gaussian(mean=1.5, grid=wide, center=False)
        assert _moments(displaced)[1] == pytest.approx(1.5, abs=1e-6)

    def test_narrow_grid_is_refused(self):
        with pytest.raises(ValidationError, match=r"grid \[-4.0, 4.0\] clips the strategy "
                                                  r"\(edge amplitude ratio 4.30e-04\)"):
            make_gaussian_strategy(0.0, 1.0, GridSpec(-4.0, 4.0, 128))

    def test_invalid_spread(self):
        with pytest.raises(ValidationError):
            make_gaussian_strategy(0.0, 0.0, GRID)

    def test_wave_constructor_checks_normalization(self):
        bad = np.ones(GRID.n_points, dtype=complex)
        with pytest.raises(ValidationError):
            WaveFunction1D(GRID, bad)
        ok = WaveFunction1D.normalized(GRID, bad)
        assert _moments(ok)[0] == pytest.approx(1.0, abs=1e-12)

    def test_normalizing_huge_samples_is_refused_without_a_warning(self):
        # Every RuntimeWarning is an error under the test settings, so the
        # mass overflowing with a warning would fail this test too.
        with pytest.raises(ValidationError, match="cannot normalize: zero or non-finite mass"):
            WaveFunction1D.normalized(GridSpec(-8.0, 8.0, 64), [1e308] * 64)


class TestDemand:
    def test_price_one_splits_even(self):
        assert demand_cdf(_gaussian(), 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_matches_error_function_oracle(self):
        # Var(q) = 1/2, so P(q <= 1) = Phi(sqrt(2)) = (1 + erf(1)) / 2.
        psi = make_gaussian_strategy(0.0, 1.0, GridSpec(-12.0, 12.0, 2048))
        target = (1.0 + math.erf(1.0)) / 2.0
        assert demand_cdf(psi, math.e) == pytest.approx(target, abs=1e-5)

    def test_cdf_limits(self):
        psi = _gaussian()
        assert demand_cdf(psi, 1e-9) == 0.0
        assert demand_cdf(psi, 1e9) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_over_random_mixtures(self):
        rng = seeded_rng(41)
        for _ in range(5):
            raw = np.zeros(GRID.n_points, dtype=complex)
            nodes = GRID.nodes()
            for _ in range(3):
                m = rng.uniform(-2, 2)
                s = rng.uniform(0.4, 1.5)
                raw += rng.uniform(0.2, 1.0) * np.exp(-((nodes - m) ** 2) / (2 * s * s))
            psi = WaveFunction1D.normalized(GRID, raw)
            prices = np.exp(np.linspace(-4, 4, 33))
            values = [demand_cdf(psi, c) for c in prices]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_refinement_is_converged(self):
        coarse = make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 4096))
        fine = make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 8192))
        for price in (0.5, 1.0, math.e):
            assert demand_cdf(coarse, price) == pytest.approx(
                demand_cdf(fine, price), abs=1e-6)

    def test_rejects_bad_price(self):
        with pytest.raises(ValidationError):
            demand_cdf(_gaussian(), 0.0)
        with pytest.raises(ValidationError):
            demand_cdf(_gaussian(), -2.0)


class TestMomentum:
    def test_parseval_exact(self):
        psi = _gaussian()
        tilde = to_momentum(psi)
        assert _moments(tilde)[0] == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self):
        psi = _gaussian(spread=0.7)
        back = from_momentum(to_momentum(psi), psi.grid)
        np.testing.assert_allclose(back.samples, psi.samples, atol=1e-10)

    def test_momentum_grid_is_conjugate(self):
        psi = _gaussian()
        tilde = to_momentum(psi)
        dq = psi.grid.step
        dp = tilde.grid.step
        assert dp * dq * psi.grid.n_points == pytest.approx(2 * math.pi, abs=1e-12)

    def test_unit_gaussian_is_self_dual(self):
        n = 256
        half = math.sqrt(2 * math.pi * n) / 2
        grid = GridSpec(-half, half, n)
        psi = make_gaussian_strategy(0.0, 1.0, grid)
        tilde = to_momentum(psi)
        np.testing.assert_allclose(np.abs(tilde.samples), np.abs(psi.samples),
                                   atol=1e-10)


class TestSupply:
    def test_price_one_splits_even(self):
        assert supply_cdf(to_momentum(_gaussian()), 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_nonincreasing_in_price(self):
        tilde = to_momentum(_gaussian())
        prices = np.exp(np.linspace(-3, 3, 25))
        values = [supply_cdf(tilde, c) for c in prices]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


_COMPLEX = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_WAVE_SAMPLES = st.sampled_from([64, 128, 256]).flatmap(
    lambda n: st.lists(_COMPLEX, min_size=n, max_size=n))
# Column-block widths for wigner's _BLOCK: 32 is the default, 64 the width
# used before it, and None stands for one block of every column.
_BLOCK_WIDTHS = st.sampled_from([1, 5, 32, 64, None])


def _row_loop_wigner(psi):
    """Reference transform: shifts m = 0..n/2 of every q column filled a row
    at a time into one (n/2 + 1) x n array, then a Hermitian FFT down its
    columns, scaled afterwards, with h_E = 2 pi."""
    n, vec = psi.grid.n_points, psi.samples
    folded = np.zeros((n // 2 + 1, n), dtype=complex)
    j = np.arange(n)
    for m in range(n // 2 + 1):
        jj = j[m:n - m]
        folded[m, m:n - m] = vec[jj + m] * np.conj(vec[jj - m])
    folded[1::2] *= -1.0
    return np.fft.hfft(folded, n, axis=0) * (2.0 * psi.grid.step / TWO_PI)


def _complex_fold_wigner(psi):
    """Independent reference: both halves of every column's shifts folded to
    length n, shift m to row m mod n, then a complex FFT down the columns;
    returns the real part."""
    n, vec = psi.grid.n_points, psi.samples
    folded = np.zeros((n, n), dtype=complex)
    j = np.arange(n)
    for r in range(n):
        jj = j[r:n - r]
        folded[r, r:n - r] = vec[jj + r] * np.conj(vec[jj - r])
        jj = j[n - r:r]
        folded[r, n - r:r] = vec[jj + r - n] * np.conj(vec[jj - r + n])
    folded[1::2] *= -1.0
    np.fft.fft(folded, axis=0, out=folded)
    folded *= 2.0 * psi.grid.step / TWO_PI
    return folded.real


class TestWigner:
    def test_gaussian_matches_analytic_formula(self):
        psi = _gaussian(spread=1.0)
        w = wigner(psi)
        q = w.q_nodes[None, :]
        p = w.p_nodes[:, None]
        analytic = (1.0 / math.pi) * np.exp(-(q ** 2) - (p ** 2))
        assert np.max(np.abs(w.values - analytic)) < 1e-6

    def test_marginals_and_normalization(self):
        psi = _gaussian(spread=0.8)
        w = wigner(psi)
        np.testing.assert_allclose(w.marginal_q(), psi.density(), atol=1e-6)
        p_density = momentum_density_at(psi, w.p_nodes)
        np.testing.assert_allclose(w.marginal_p(), p_density, atol=1e-6)
        assert w.normalization() == pytest.approx(1.0, abs=1e-8)
        assert not w.summary.aliased

    def test_displaced_gaussian_is_the_shifted_formula(self):
        psi = _gaussian(mean=1.0, grid=GridSpec(-10.0, 10.0, 512), center=False)
        w = wigner(psi)
        q = w.q_nodes[None, :]
        p = w.p_nodes[:, None]
        analytic = (1.0 / math.pi) * np.exp(-((q - 1.0) ** 2) - (p ** 2))
        assert np.max(np.abs(w.values - analytic)) < 1e-6

    def test_kicked_gaussian_marginal_is_the_momentum_density(self):
        # A complex wave's grid is not symmetric in p: exp(2i q) moves the
        # momentum to +2, so W = exp(-q^2 - (p - 2)^2) / pi.
        psi = _kicked_gaussian()
        w = wigner(psi)
        np.testing.assert_allclose(w.marginal_p(), momentum_density_at(psi, w.p_nodes),
                                   atol=1e-6)
        q = w.q_nodes[None, :]
        p = w.p_nodes[:, None]
        analytic = np.exp(-(q ** 2) - (p - 2.0) ** 2) / math.pi
        assert np.max(np.abs(w.values - analytic)) < 1e-6

    def test_global_phase_leaves_the_grid_unchanged(self):
        psi = _kicked_gaussian()
        turned = WaveFunction1D(psi.grid, psi.samples * np.exp(0.7j))
        np.testing.assert_allclose(wigner(turned).values, wigner(psi).values,
                                   rtol=0, atol=1e-14)

    def test_conjugate_wave_mirrors_the_grid_in_p(self):
        # p node k pairs with node n - k; node 0, at -n/2, has no partner.
        psi = _kicked_gaussian()
        mirrored = wigner(WaveFunction1D(psi.grid, np.conj(psi.samples)))
        w = wigner(psi)
        np.testing.assert_allclose(w.p_nodes[1:], -w.p_nodes[1:][::-1], atol=1e-12)
        np.testing.assert_allclose(mirrored.values[1:], w.values[1:][::-1],
                                   rtol=0, atol=1e-14)
        assert np.max(np.abs(w.values[1:] - w.values[1:][::-1])) > 0.1

    def test_cat_state_has_negative_fringes(self):
        # Two separated Gaussians interfere: the grid dips below zero
        # between them, while its marginal and mass stay exact.
        grid = GridSpec(-10.0, 10.0, 512)
        q = grid.nodes()
        cat = WaveFunction1D.normalized(
            grid, np.exp(-(q - 2.5) ** 2 / 2) + np.exp(-(q + 2.5) ** 2 / 2))
        w = wigner(cat)
        assert w.values.min() < -0.2
        np.testing.assert_allclose(w.marginal_q(), cat.density(), atol=1e-12)
        assert w.normalization() == pytest.approx(1.0, abs=1e-8)
        assert not w.summary.aliased

    def test_gaussian_positivity_canary(self):
        for spread, grid in ((0.5, GRID), (1.0, GRID),
                             (2.0, GridSpec(-16.0, 16.0, 512))):
            w = wigner(_gaussian(spread=spread, grid=grid))
            assert w.values.min() >= -1e-10

    def test_boundary_mass_flags_aliasing(self):
        flat = WaveFunction1D.normalized(
            GRID, np.ones(GRID.n_points, dtype=complex))
        assert wigner(flat).summary.aliased

    def test_transform_holds_one_float_grid_plus_one_block(self):
        # The n x n float grid returned plus one block of columns in flight;
        # an n x n complex array anywhere would alone reach n^2 x 16 bytes.
        n = 1024
        psi = _gaussian(grid=GridSpec(-8.0, 8.0, n))
        tracemalloc.start()
        try:
            wigner(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16

    @settings(max_examples=60, deadline=None)
    @given(_WAVE_SAMPLES, _BLOCK_WIDTHS)
    def test_blocked_transform_is_the_row_loop_bit_for_bit(self, samples, block):
        n = len(samples)
        try:
            psi = WaveFunction1D.normalized(GridSpec(-8.0, 8.0, n), samples)
        except ValidationError:
            assume(False)
        expected = _row_loop_wigner(psi)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_module, "_BLOCK", block or n)
            w = wigner(psi)
        assert w.values.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_WAVE_SAMPLES)
    def test_hermitian_transform_is_the_complex_fold_within_eight_ulps(self, samples):
        # The worst gap measured on random waves up to n = 4096 was
        # 4.1 eps max|W|, and 2.3 eps max|W| over 3000 of these examples.
        n = len(samples)
        try:
            psi = WaveFunction1D.normalized(GridSpec(-8.0, 8.0, n), samples)
        except ValidationError:
            assume(False)
        expected = _complex_fold_wigner(psi)
        bound = 8.0 * np.finfo(float).eps * np.max(np.abs(expected))
        assert np.max(np.abs(wigner(psi).values - expected)) <= bound


def _assert_summary_is_the_grid(summary, full):
    """``summary`` is ``full``'s own summary bit for bit, its minimum is the
    grid's, and its mass is the grid's sum up to the order of addition."""
    # repr tells -0.0 from 0.0 and would show a last-bit difference.
    assert repr(summary) == repr(full.summary)
    assert repr(summary.min_value) == repr(float(full.values.min()))
    whole = float(full.values.sum() * summary.p_step * summary.q_step)
    assert abs(summary.normalization - whole) <= 1e-12


class TestWignerSummary:
    @settings(max_examples=60, deadline=None)
    @given(_WAVE_SAMPLES, _BLOCK_WIDTHS)
    def test_summary_is_the_grid_for_every_block_width(self, samples, block):
        n = len(samples)
        try:
            psi = WaveFunction1D.normalized(GridSpec(-8.0, 8.0, n), samples)
        except ValidationError:
            assume(False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market_module, "_BLOCK", block or n)
            summary = wigner_summary(psi)
            full = wigner(psi)
        _assert_summary_is_the_grid(summary, full)

    @pytest.mark.parametrize("n", [512, 2048, 4096])
    def test_seeded_gaussians_match_the_full_grid(self, n):
        rng = seeded_rng(11, n)
        psi = _gaussian(spread=rng.uniform(0.6, 1.0), mean=rng.uniform(-1.0, 1.0),
                        grid=GridSpec(-8.0, 8.0, n), center=False)
        _assert_summary_is_the_grid(wigner_summary(psi), wigner(psi))

    def test_summary_holds_no_grid(self):
        # One block of columns: a fraction of the n x n float grid that
        # wigner returns, and linear in n.
        n = 2048
        psi = _gaussian(grid=GridSpec(-8.0, 8.0, n))
        tracemalloc.start()
        try:
            wigner_summary(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 3

    @pytest.mark.parametrize("transform", [wigner, wigner_summary])
    def test_grid_past_the_point_limit_is_refused(self, transform):
        grid = GridSpec(-8.0, 8.0, 2 * market_module.MAX_WIGNER_POINTS)
        with pytest.raises(CapacityError):
            transform(WaveFunction1D.normalized(grid, np.ones(grid.n_points)))


class TestSerialization:
    def test_wigner_csv_layout(self):
        w = wigner(make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 64)))
        lines = wigner_to_csv(w).strip().splitlines()
        assert len(lines) == 65
        head = lines[0].split(",")
        assert head[0] == "p\\q"
        assert len(head) == 65
        assert lines[1] == ",".join(map(repr, [float(w.p_nodes[0]), *w.values[0].tolist()]))
