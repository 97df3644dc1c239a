"""Strategy waves, trade probability integrals, phase-space densities."""

import math
import tracemalloc

import numpy as np
import pytest

from qgame import (
    GridTruncationError,
    ImpossibleTransactionError,
    ValidationError,
    seeded_rng,
)
from qgame.market import (
    Buy,
    GridSpec,
    Sell,
    WaveFunction1D,
    demand_cdf,
    from_momentum,
    make_gaussian_strategy,
    mix_wigner,
    momentum_density_at,
    supply_cdf,
    to_momentum,
    transaction_project,
    wigner,
    wigner_to_csv,
)

GRID = GridSpec(-8.0, 8.0, 512)


def _gaussian(spread=1.0, mean=0.0, grid=GRID, center=True):
    return make_gaussian_strategy(mean, spread, grid, center=center)


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
        psi = _gaussian(spread=1.0)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)
        assert psi.mean() == pytest.approx(0.0, abs=1e-8)
        assert psi.variance() == pytest.approx(0.5, abs=1e-6)

    def test_spread_scales_variance(self):
        psi = _gaussian(spread=0.5)
        assert psi.variance() == pytest.approx(0.125, abs=1e-6)

    def test_samples_symmetric(self):
        psi = _gaussian()
        # node 0 sits alone at -L/2; the rest pair up around zero
        tail = psi.samples[1:]
        np.testing.assert_allclose(tail, tail[::-1], atol=1e-12)

    def test_centering_flag(self):
        centered = _gaussian(mean=1.5, center=True)
        assert centered.mean() == pytest.approx(0.0, abs=1e-8)
        wide = GridSpec(-10.0, 10.0, 512)
        displaced = _gaussian(mean=1.5, grid=wide, center=False)
        assert displaced.mean() == pytest.approx(1.5, abs=1e-6)

    def test_narrow_grid_is_refused_with_measured_mass(self):
        with pytest.raises(GridTruncationError) as excinfo:
            make_gaussian_strategy(0.0, 1.0, GridSpec(-4.0, 4.0, 128))
        assert excinfo.value.boundary_mass > 0.0

    def test_invalid_spread(self):
        with pytest.raises(ValidationError):
            make_gaussian_strategy(0.0, 0.0, GRID)

    def test_wave_constructor_checks_normalization(self):
        bad = np.ones(GRID.n_points, dtype=complex)
        with pytest.raises(ValidationError):
            WaveFunction1D(GRID, bad)
        ok = WaveFunction1D.normalized(GRID, bad)
        assert ok.norm() == pytest.approx(1.0, abs=1e-12)


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
        assert tilde.norm() == pytest.approx(1.0, abs=1e-12)

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
        assert supply_cdf(_gaussian(), 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_monotone_nonincreasing_in_price(self):
        psi = _gaussian()
        prices = np.exp(np.linspace(-3, 3, 25))
        values = [supply_cdf(psi, c) for c in prices]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_momentum_rep_input_skips_the_transform(self):
        psi = _gaussian()
        tilde = to_momentum(psi)
        for price in (0.5, 1.0, 2.0):
            assert supply_cdf(tilde, price, in_momentum_rep=True) == pytest.approx(
                supply_cdf(psi, price), abs=1e-12)


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
        assert w.max_imag < 1e-10
        assert not w.aliased

    def test_gaussian_positivity_canary(self):
        for spread, grid in ((0.5, GRID), (1.0, GRID),
                             (2.0, GridSpec(-16.0, 16.0, 512))):
            w = wigner(_gaussian(spread=spread, grid=grid))
            assert w.values.min() >= -1e-10

    def test_boundary_mass_flags_aliasing(self):
        flat = WaveFunction1D.normalized(
            GRID, np.ones(GRID.n_points, dtype=complex))
        assert wigner(flat).aliased

    def test_transform_reuses_one_complex_buffer(self):
        # One n x n complex work array plus the real grid and the residue
        # scan; a copy per shift or scaling step would add n^2 x 16 bytes each.
        n = 1024
        psi = _gaussian(grid=GridSpec(-8.0, 8.0, n))
        tracemalloc.start()
        try:
            wigner(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 16


class TestMixture:
    def test_single_component_is_plain_wigner(self):
        psi = _gaussian()
        np.testing.assert_allclose(mix_wigner([(1.0, psi)]).values,
                                   wigner(psi).values, atol=1e-15)

    def test_two_displaced_components_average_pointwise(self):
        wide = GridSpec(-10.0, 10.0, 512)
        left = _gaussian(mean=-1.5, grid=wide, center=False)
        right = _gaussian(mean=1.5, grid=wide, center=False)
        mixed = mix_wigner([(0.5, left), (0.5, right)])
        expected = 0.5 * wigner(left).values + 0.5 * wigner(right).values
        np.testing.assert_allclose(mixed.values, expected, atol=1e-12)
        assert mixed.normalization() == pytest.approx(1.0, abs=1e-8)

    def test_weight_validation(self):
        psi = _gaussian()
        with pytest.raises(ValidationError):
            mix_wigner([(0.9, psi)])
        with pytest.raises(ValidationError):
            mix_wigner([(-0.2, psi), (1.2, psi)])
        other = make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 256))
        with pytest.raises(ValidationError):
            mix_wigner([(0.5, psi), (0.5, other)])


class TestTransactions:
    def test_buyer_amplitude_is_peak_density_mass(self):
        psi = _gaussian()
        leg, = transaction_project([psi], [Buy(at=0.0)])
        assert leg.side == "buy"
        assert leg.amplitude == pytest.approx(
            float(psi.density().max()) * psi.grid.step, abs=1e-12)
        assert leg.snap_delta == 0.0

    def test_projection_is_idempotent(self):
        psi = _gaussian()
        first, = transaction_project([psi], [Buy(at=0.5)])
        second, = transaction_project([first.post], [Buy(at=0.5)])
        assert second.amplitude == pytest.approx(1.0, abs=1e-12)
        first, = transaction_project([psi], [Sell(at=0.5)])
        second, = transaction_project([first.post], [Sell(at=0.5)])
        assert second.amplitude == pytest.approx(1.0, abs=1e-12)

    def test_off_node_request_snaps_with_reported_delta(self):
        psi = _gaussian()
        leg, = transaction_project([psi], [Buy(at=0.01)])
        assert leg.node_value == pytest.approx(0.0, abs=1e-12)
        assert leg.snap_delta == pytest.approx(-0.01, abs=1e-12)
        assert abs(leg.snap_delta) <= psi.grid.step / 2

    def test_seller_post_is_a_plane_wave(self):
        psi = _gaussian()
        leg, = transaction_project([psi], [Sell(at=0.0)])
        magnitudes = np.abs(leg.post.samples)
        np.testing.assert_allclose(magnitudes, magnitudes[0], atol=1e-12)

    def test_symmetric_pair_amplitudes_match(self):
        n = 256
        half = math.sqrt(2 * math.pi * n) / 2
        psi = make_gaussian_strategy(0.0, 1.0, GridSpec(-half, half, n))
        buy_leg, sell_leg = transaction_project(
            [psi, psi], [Buy(at=0.0), Sell(at=0.0)])
        assert buy_leg.amplitude == pytest.approx(sell_leg.amplitude, abs=1e-10)

    def test_empty_region_is_impossible(self):
        psi = _gaussian(spread=0.05, grid=GridSpec(-8.0, 8.0, 1024))
        with pytest.raises(ImpossibleTransactionError):
            transaction_project([psi], [Buy(at=4.0)])

    def test_division_must_cover_traders(self):
        psi = _gaussian()
        with pytest.raises(ValidationError):
            transaction_project([psi, psi], [Buy(at=0.0)])


class TestSerialization:
    def test_wigner_csv_layout(self):
        w = wigner(make_gaussian_strategy(0.0, 1.0, GridSpec(-8.0, 8.0, 64)))
        lines = wigner_to_csv(w).strip().splitlines()
        assert len(lines) == 65
        head = lines[0].split(",")
        assert head[0] == "p\\q"
        assert len(head) == 65
