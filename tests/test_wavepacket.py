"""Tests for the wave-packet models.

Oracle values were computed with the high-precision routines in
``oracles.py`` before the implementation and are frozen here as literals.
"""

import math
import tracemalloc

import numpy as np
import pytest

from quantracer import wavepacket
from quantracer.errors import DegenerateK, GridTooCoarse
from quantracer.numerics import PANEL_NODES, Tolerances, build_kgrid, integrate_adaptive
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    BarrierSpec,
    Gaussian3DParams,
    GaussianPacketParams,
    SpectralFunction,
    dissipative_gaussian_model,
    free_gaussian_model,
    gaussian3d_model,
    loss_tail_by_quadrature,
    scattering_mode,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

# mpmath oracles, frozen:
NORMAL_TAIL_1SIGMA = 0.15865525393145705        # 0.5*erfc(1/sqrt(2))
TRANSMISSION_FIG2 = 0.02097008819590283         # |T|^2 at k=2, V=10, a=0.3
TRANSMISSION_DEEP = 0.002339435913979639        # |T|^2 at k=1.1, V=3, a=0.8
TRANSMISSION_ABOVE = 0.8912972171417729         # |T|^2 at k=2, V=1, a=0.5


@pytest.fixture(scope="module")
def spectral_models():
    spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
    free = spectral_free_model(spectrum, grid)
    tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
    return spectrum, grid, free, tunnel


def assert_tail_monotone(model, t, n_points=200):
    # Two independent quadratures each carry ~quad_rel*|tail| error, so a
    # difference can read positive by up to twice that; allow 4e-9.
    lo, hi = model.support_hint(t)
    xs = np.linspace(lo, hi, n_points)
    tails = [model.tail(x, t) for x in xs]
    diffs = np.diff(tails)
    assert np.all(diffs <= 4e-9), f"tail increased by {diffs.max()} at t={t}"


class TestGaussianPacketParams:
    def test_momentum_width_from_spatial_width(self):
        p = GaussianPacketParams(x_bar=-10.0, v_bar=2.0, sigma_x0=2.5)
        assert p.sigma_p == pytest.approx(0.2, abs=0)
        assert p.sigma_v == pytest.approx(0.2, abs=0)
        assert p.k_bar == pytest.approx(2.0, abs=0)

    def test_width_growth_at_t5(self):
        # 6.25 * (1 + 0.04*25/6.25) = 7.25 with the canonical parameters
        p = DEFAULT_PACKET
        assert p.sigma_x(5.0) ** 2 == pytest.approx(7.25, rel=1e-12)
        assert p.sigma_x(0.0) == p.sigma_x0

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GaussianPacketParams(x_bar=0.0, v_bar=0.0, sigma_x0=0.0)
        with pytest.raises(ValueError):
            GaussianPacketParams(x_bar=0.0, v_bar=0.0, sigma_x0=1.0, mass=-1.0)


class TestFreeGaussianModel:
    def test_peak_density(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 5.0):
            peak = 1.0 / (math.sqrt(2.0 * math.pi) * DEFAULT_PACKET.sigma_x(t))
            x = DEFAULT_PACKET.center(t)
            assert float(m.rho(x, t)) == pytest.approx(peak, rel=1e-14)

    def test_tail_at_center_is_half(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 3.0, 12.0):
            assert m.tail(DEFAULT_PACKET.center(t), t) == pytest.approx(0.5, abs=1e-14)

    def test_tail_one_sigma(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        t = 4.0
        x = DEFAULT_PACKET.center(t) + DEFAULT_PACKET.sigma_x(t)
        assert m.tail(x, t) == pytest.approx(NORMAL_TAIL_1SIGMA, abs=1e-14)

    def test_tail_limits_and_norm(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        assert m.tail(-math.inf, 2.0) == 1.0
        assert m.tail(math.inf, 2.0) == 0.0
        assert m.norm(7.0) == 1.0

    def test_support_hint_captures_mass(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 10.0):
            lo, hi = m.support_hint(t)
            assert m.tail(lo, t) >= 1.0 - 1e-12
            assert m.tail(hi, t) <= 1e-12

    def test_tail_monotone(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 5.0, 20.0):
            assert_tail_monotone(m, t)

    def test_continuity_residual(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        d = 1e-4
        for t in (1.0, 6.0):
            xs = np.linspace(-20.0, 10.0, 61)
            drho_dt = (m.rho(xs, t + d) - m.rho(xs, t - d)) / (2 * d)
            dj_dx = (m.current(xs + d, t) - m.current(xs - d, t)) / (2 * d)
            scale = np.max(np.abs(dj_dx))
            assert np.max(np.abs(drho_dt + dj_dx)) <= 1e-6 * scale

    def test_vectorized_shapes(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        xs = np.zeros((4, 3))
        assert m.rho(xs, 1.0).shape == (4, 3)
        assert m.current(xs, 1.0).shape == (4, 3)
        assert np.all(m.loss(xs, 1.0) == 0.0)


class TestDissipativeGaussianModel:
    def test_zero_rate_matches_free(self):
        free = free_gaussian_model(DEFAULT_PACKET)
        lossy = dissipative_gaussian_model(DEFAULT_PACKET, 0.0)
        xs = np.linspace(-25.0, 15.0, 101)
        for t in (0.0, 4.0, 9.0):
            assert np.allclose(lossy.rho(xs, t), free.rho(xs, t), rtol=0, atol=0)
            assert np.allclose(lossy.current(xs, t), free.current(xs, t), rtol=0, atol=0)
            assert lossy.tail(-3.0, t) == free.tail(-3.0, t)

    def test_norm_tracks_survival(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        assert m.norm(0.0) == 1.0
        t_half = math.log(2.0) / DEFAULT_LOSS_RATE
        assert m.norm(t_half) == pytest.approx(0.5, rel=1e-14)
        # quadrature agrees with the closed form
        for t in (0.0, 3.0, t_half):
            lo, hi = m.support_hint(t)
            mass = integrate_adaptive(lambda x: m.rho(x, t), lo, hi)
            assert mass == pytest.approx(math.exp(-DEFAULT_LOSS_RATE * t), abs=1e-8)

    def test_loss_density_and_tail(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        xs = np.linspace(-15.0, 0.0, 31)
        t = 2.5
        assert np.allclose(m.loss(xs, t), DEFAULT_LOSS_RATE * m.rho(xs, t),
                           rtol=0, atol=0)
        for x in (-12.0, -8.0, -2.0):
            analytic = m.loss_tail(x, t)
            assert analytic == DEFAULT_LOSS_RATE * m.tail(x, t)
            assert loss_tail_by_quadrature(m, x, t) == pytest.approx(analytic, abs=1e-6)

    def test_lossy_continuity_balance(self):
        # d rho/dt + d j/dx + loss = 0
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        d = 1e-4
        t = 3.0
        xs = np.linspace(-20.0, 5.0, 61)
        drho_dt = (m.rho(xs, t + d) - m.rho(xs, t - d)) / (2 * d)
        dj_dx = (m.current(xs + d, t) - m.current(xs - d, t)) / (2 * d)
        resid = drho_dt + dj_dx + m.loss(xs, t)
        scale = np.max(np.abs(dj_dx)) + np.max(m.loss(xs, t))
        assert np.max(np.abs(resid)) <= 1e-6 * scale

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            dissipative_gaussian_model(DEFAULT_PACKET, -0.1)

    def test_tail_monotone(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        assert_tail_monotone(m, 5.0)


def _region_values(mode, x):
    """Left/inside/right expressions evaluated without region dispatch."""
    k, g = mode.k, mode.gamma
    left = np.exp(1j * k * x) + mode.R * np.exp(-1j * k * x)
    inside = mode.A * np.exp(1j * g * x) + mode.B * np.exp(-1j * g * x)
    right = mode.T * np.exp(1j * k * x)
    d_left = 1j * k * (np.exp(1j * k * x) - mode.R * np.exp(-1j * k * x))
    d_inside = 1j * g * (mode.A * np.exp(1j * g * x) - mode.B * np.exp(-1j * g * x))
    d_right = 1j * k * mode.T * np.exp(1j * k * x)
    return (left, inside, right), (d_left, d_inside, d_right)


class TestScatteringMode:
    def test_free_limit(self):
        m = scattering_mode(2.0, BarrierSpec(height=0.0, half_width=0.3))
        assert m.T == pytest.approx(1.0, abs=1e-15)
        assert m.R == pytest.approx(0.0, abs=1e-15)
        assert m.gamma == pytest.approx(2.0, abs=1e-15)

    def test_transmission_against_textbook_oracle(self):
        cases = [
            ((2.0, 10.0, 0.3), TRANSMISSION_FIG2),
            ((1.1, 3.0, 0.8), TRANSMISSION_DEEP),
            ((2.0, 1.0, 0.5), TRANSMISSION_ABOVE),
        ]
        for (k, height, a), expected in cases:
            m = scattering_mode(k, BarrierSpec(height=height, half_width=a))
            assert abs(m.T) ** 2 == pytest.approx(expected, abs=1e-10)

    def test_evanescent_branch(self):
        m = scattering_mode(2.0, BarrierSpec(height=10.0, half_width=0.3))
        assert m.gamma.real == pytest.approx(0.0, abs=1e-15)
        assert m.gamma.imag == pytest.approx(4.0, rel=1e-15)

    def test_unitarity_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = rng.uniform(0.05, 8.0)
            height = rng.uniform(0.0, 25.0)
            a = rng.uniform(0.05, 2.0)
            m = scattering_mode(k, BarrierSpec(height=height, half_width=a))
            assert abs(m.R) ** 2 + abs(m.T) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_matching_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = rng.uniform(0.05, 8.0)
            height = rng.uniform(0.0, 25.0)
            a = rng.uniform(0.05, 2.0)
            m = scattering_mode(k, BarrierSpec(height=height, half_width=a))
            for x, lhs_idx, rhs_idx in ((-a, 0, 1), (a, 1, 2)):
                vals, ders = _region_values(m, x)
                assert abs(vals[lhs_idx] - vals[rhs_idx]) <= 1e-12
                assert abs(ders[lhs_idx] - ders[rhs_idx]) <= 1e-12 * max(1.0, k)

    def test_high_energy_limit(self):
        # |T| -> 1 and |R| -> 0; the transmitted phase itself decays only
        # like 1/k, so the magnitude is the meaningful limit.
        barrier = BarrierSpec(height=10.0, half_width=0.3)
        k = 50.0 * math.sqrt(2.0 * barrier.height)
        m = scattering_mode(k, barrier)
        assert abs(abs(m.T) - 1.0) <= 1e-3
        assert abs(m.R) <= 1e-3

    def test_piecewise_evaluation_matches_regions(self):
        m = scattering_mode(1.7, BarrierSpec(height=6.0, half_width=0.4))
        for x, idx in ((-2.0, 0), (0.1, 1), (3.0, 2)):
            vals, ders = _region_values(m, x)
            assert m.value(x) == pytest.approx(vals[idx], abs=1e-14)
            assert m.derivative(x) == pytest.approx(ders[idx], abs=1e-14)
        arr = m.value(np.array([-2.0, 0.1, 3.0]))
        assert arr.shape == (3,)

    def test_degenerate_wavenumbers_rejected(self):
        barrier = BarrierSpec(height=10.0, half_width=0.3)
        with pytest.raises(DegenerateK):
            scattering_mode(0.0, barrier)
        with pytest.raises(DegenerateK):
            scattering_mode(-1.0, barrier)
        with pytest.raises(DegenerateK):
            scattering_mode(math.sqrt(2.0 * barrier.height), barrier)


class TestSpectralFunction:
    def test_unit_mass_on_grid(self):
        grid = build_kgrid(2.0, 0.2, n_sigma=6.0, n_nodes=256)
        spec = SpectralFunction.for_packet(DEFAULT_PACKET, grid)
        mass = float(np.sum(grid.weights * spec.amplitude(grid.nodes) ** 2))
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert spec.norm >= 1.0

    def test_zero_outside_support(self):
        grid = build_kgrid(2.0, 0.2)
        spec = SpectralFunction.for_packet(DEFAULT_PACKET, grid)
        assert spec.amplitude(spec.k_lo - 0.01) == 0.0
        assert spec.amplitude(spec.k_hi + 0.01) == 0.0
        assert spec.amplitude(-1.0) == 0.0
        assert spec.amplitude(spec.k_bar) > 0.0

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            SpectralFunction.truncated_gaussian(2.0, 0.2, 0.0, (-3.0, -1.0))


class TestSpectralFreeModel:
    def test_matches_closed_form_gaussian(self, spectral_models):
        # The 6-sigma spectral truncation causes ~1e-5 ringing; anything
        # beyond that indicates a broken superposition chain.
        _, _, free_sp, _ = spectral_models
        closed = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 5.0, 10.0):
            xs = np.linspace(*closed.support_hint(t), 301)
            peak = 1.0 / (math.sqrt(2.0 * math.pi) * DEFAULT_PACKET.sigma_x(t))
            assert np.max(np.abs(free_sp.rho(xs, t) - closed.rho(xs, t))) <= 1e-4 * peak
            assert np.max(np.abs(free_sp.current(xs, t) - closed.current(xs, t))) <= 2e-4 * peak

    def test_norm_conserved(self, spectral_models):
        _, _, free_sp, _ = spectral_models
        for t in (0.0, 5.0, 10.0):
            lo, _ = free_sp.support_hint(t)
            assert free_sp.tail(lo, t) == pytest.approx(1.0, abs=1e-6)

    def test_amplitude_is_complex(self, spectral_models):
        _, _, free_sp, _ = spectral_models
        val = free_sp.amplitude(-10.0, 0.0)
        assert isinstance(val, complex)
        assert abs(val) ** 2 == pytest.approx(free_sp.rho(-10.0, 0.0), rel=1e-12)

    def test_grid_guard_trips_on_coarse_grid(self):
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=64)
        m = spectral_free_model(spectrum, grid)
        assert float(m.rho(-10.0, 0.1)) > 0.0
        with pytest.raises(GridTooCoarse):
            m.rho(30.0, 10.0)


class TestTunnelingPacketModel:
    def test_v_zero_equals_free_spectral(self, spectral_models):
        spectrum, grid, free_sp, _ = spectral_models
        m0 = tunneling_packet_model(spectrum, BarrierSpec(height=0.0, half_width=0.3), grid)
        xs = np.linspace(-30.0, 30.0, 401)
        for t in (0.0, 5.0):
            assert np.max(np.abs(m0.rho(xs, t) - free_sp.rho(xs, t))) <= 1e-8
            assert np.max(np.abs(m0.current(xs, t) - free_sp.current(xs, t))) <= 1e-8

    def test_norm_conserved(self, spectral_models):
        _, _, _, tunnel = spectral_models
        for t in (0.0, 5.0, 10.0):
            lo, _ = tunnel.support_hint(t)
            assert tunnel.tail(lo, t) == pytest.approx(1.0, abs=1e-6)

    def test_continuity_residual(self, spectral_models):
        _, _, _, tunnel = spectral_models
        d = 1e-4
        for t in (1.0, 5.0):
            xs = np.linspace(-15.0, 8.0, 47)
            drho_dt = (tunnel.rho(xs, t + d) - tunnel.rho(xs, t - d)) / (2 * d)
            dj_dx = (tunnel.current(xs + d, t) - tunnel.current(xs - d, t)) / (2 * d)
            scale = np.max(np.abs(dj_dx))
            assert np.max(np.abs(drho_dt + dj_dx)) <= 1e-4 * scale

    def test_tail_monotone(self, spectral_models):
        _, _, free_sp, tunnel = spectral_models
        assert_tail_monotone(tunnel, 5.0)
        assert_tail_monotone(free_sp, 5.0)

    def test_tail_differences_are_interval_masses(self, spectral_models):
        _, _, _, tunnel = spectral_models
        t = 6.0
        for x1, x2 in ((-12.0, -4.0), (-0.3, 0.3), (0.5, 4.0)):
            interval = integrate_adaptive(lambda xs: tunnel.rho(xs, t), x1, x2,
                                          tunnel.tol, initial_panels=32)
            assert tunnel.tail(x1, t) - tunnel.tail(x2, t) == pytest.approx(
                interval, abs=1e-8)

    def test_density_and_current_is_rho_and_current(self, spectral_models):
        # The fused path shares its exponentials but must not change a bit.
        _, _, free_sp, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        xs = np.array([-12.0, -a, -0.1, 0.0, 0.2, a, 3.5])
        for model in (free_sp, tunnel):
            for t in (0.0, 4.0):
                rho, cur = model.density_and_current(xs, t)
                assert np.array_equal(rho, model.rho(xs, t))
                assert np.array_equal(cur, model.current(xs, t))
                for x in xs:
                    r, c = model.density_and_current(float(x), t)
                    assert isinstance(r, float) and isinstance(c, float)
                    assert r == model.rho(float(x), t)
                    assert c == model.current(float(x), t)

    def test_panel_kernel_matches_pointwise(self, spectral_models):
        # Panels left of, right of, across and inside the barrier, with
        # shared and distinct widths.
        _, _, free_sp, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        mids = np.array([-20.0, -5.0, -3.0, -a - 0.1, -a, 0.0, a, a + 0.1,
                         3.0, 3.4, 25.0])
        halves = np.array([1.0, 1.0, 1.0, 0.05, 0.2, 0.25, 0.3, 0.05,
                           1.0, 0.5, 0.5])
        for model in (free_sp, tunnel):
            for t in (0.0, 5.0, 10.0):
                fast = model._panel_rho(t)(mids, halves)
                nodes = mids[:, None] + halves[:, None] * PANEL_NODES
                slow = model.rho(nodes, t)
                assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow)

    def test_tail_panels_cut_at_barrier_edges(self, spectral_models):
        _, _, _, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        for t in (0.0, 10.0):
            panels = tunnel.tail_panels(t)
            assert (panels.los[0], panels.his[-1]) == tunnel.support_hint(t)
            assert np.array_equal(panels.los[1:], panels.his[:-1])
            assert -a in panels.los and a in panels.los

    def test_tails_match_pointwise_tail(self, spectral_models):
        # One table per time with the x values as panel edges: unsorted,
        # duplicated, on the barrier edges, and clamped below and above
        # the support hint.
        _, _, free_sp, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        xs = np.array([3.0, -200.0, a, 1.1, 1.1, -a, -8.558, 200.0])
        for model in (free_sp, tunnel):
            for t in (0.0, 5.0, 10.0):
                tails = model.tails(xs, t)
                assert tails.shape == xs.shape and tails[-1] == 0.0
                for x, tail in zip(xs, tails):
                    assert abs(tail - model.tail(float(x), t)) <= 1e-12
            assert model.tails([], 5.0).shape == (0,)

    def test_tail_splits_at_barrier_edges(self, spectral_models):
        # Linspace panels from x = -8.558 put the curvature jump of rho at
        # +-a inside one panel whose GL15-GL7 gap underestimated its error,
        # 3.6e-9 off at quad_rel 1e-9; with +-a as panel edges it is not.
        spectrum, grid, _, tunnel = spectral_models
        tight = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid,
                                       tol=Tolerances(quad_rel=1e-14))
        assert abs(tunnel.tail(-8.558, 5.0) - tight.tail(-8.558, 5.0)) <= 1e-9

    def test_factored_panels_are_chunked(self, spectral_models, monkeypatch):
        # 40 equal panels in row chunks of 3 give the one-pass values.
        _, grid, _, tunnel = spectral_models
        mids = np.linspace(-30.0, -2.0, 40)
        halves = np.full(mids.size, 0.35)
        one_pass = tunnel._panel_rho(4.0)(mids, halves)
        monkeypatch.setattr(wavepacket, "_FIELD_ENTRIES", 3 * grid.size)
        chunked = tunnel._panel_rho(4.0)(mids, halves)
        assert np.max(np.abs(chunked - one_pass)) <= 1e-14 * np.max(one_pass)

    def test_long_batches_are_chunked(self, spectral_models, monkeypatch):
        # 20 000 points x 386 modes would be ~120 MB per complex matrix in
        # one pass; the chunked pass peaks near a few entry budgets and
        # gives the same bits.
        _, grid, _, tunnel = spectral_models
        xs = np.linspace(-60.0, 60.0, 20_000)
        tunnel.rho(xs[:3], 5.0)               # coefficient cache warm
        tracemalloc.start()
        try:
            chunked = tunnel.rho(xs, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 8 * 16 * wavepacket._FIELD_ENTRIES + 64 * xs.size
        assert grid.size * xs.size > 50 * wavepacket._FIELD_ENTRIES
        assert peak <= budget
        monkeypatch.setattr(wavepacket, "_FIELD_ENTRIES", 1 << 40)
        assert np.array_equal(chunked[:1001], tunnel.rho(xs[:1001], 5.0))

    def test_tail_clamps_outside_hint(self, spectral_models):
        _, _, _, tunnel = spectral_models
        lo, hi = tunnel.support_hint(3.0)
        assert tunnel.tail(hi + 5.0, 3.0) == 0.0
        assert tunnel.tail(lo - 1e6, 3.0) == pytest.approx(1.0, abs=1e-6)


class TestGaussian3DModel:
    def test_density_factorizes(self):
        params = Gaussian3DParams(center=(1.0, -2.0, 0.5),
                                  velocity=(2.0, 0.0, -1.0), sigma_x0=2.5)
        m = gaussian3d_model(params)
        axes = [free_gaussian_model(GaussianPacketParams(params.center[i],
                                                         params.velocity[i],
                                                         params.sigma_x0))
                for i in range(3)]
        rng = np.random.default_rng(3)
        pts = rng.uniform(-6.0, 6.0, size=(50, 3))
        t = 4.0
        product = (axes[0].rho(pts[:, 0], t) * axes[1].rho(pts[:, 1], t)
                   * axes[2].rho(pts[:, 2], t))
        assert np.allclose(m.rho(pts, t), product, rtol=1e-13, atol=0)

    def test_peak_drifts_with_mean(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(2.0, 0.0, 0.0), sigma_x0=2.5)
        m = gaussian3d_model(params)
        t = 3.0
        peak = m.rho(m.center(t), t)
        sig = m.sigma_x(t)
        assert peak == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * sig) ** 3,
                                     rel=1e-14)
        assert m.rho(m.center(t) + np.array([0.5, 0.0, 0.0]), t) < peak

    def test_zero_drift_current_is_radial(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        m = gaussian3d_model(params)
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=3.0, size=(40, 3))
        j = m.current(pts, 2.0)
        cross = np.cross(j, pts)
        assert np.max(np.abs(cross)) <= 1e-14

    def test_velocity_at_t0_is_drift(self):
        params = Gaussian3DParams(center=(1.0, 2.0, 3.0),
                                  velocity=(0.3, -0.2, 0.1), sigma_x0=1.5)
        m = gaussian3d_model(params)
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        v = m.velocity(pts, 0.0)
        assert np.allclose(v, params.velocity, rtol=0, atol=0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Gaussian3DParams(center=(0.0, 0.0), velocity=(0.0, 0.0, 0.0), sigma_x0=1.0)
