"""Tests for the wave-packet models.

Oracle values were computed with the high-precision routines in
``oracles.py`` before the implementation and are frozen here as literals.
"""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantracer import numerics, wavepacket
from quantracer.errors import DegenerateK, GridTooCoarse, InvalidRange
from quantracer.numerics import (
    PANEL_NODES,
    KGrid,
    Tolerances,
    build_kgrid,
    integrate_adaptive,
    nodes_for_phase,
)
from quantracer.quantile import quantile_position
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    HBAR,
    BarrierSpec,
    DissipativeGaussianModel,
    FreeGaussianModel,
    Gaussian3DModel,
    Gaussian3DParams,
    GaussianPacketParams,
    SpectralFunction,
    scattering_mode,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)
from oracles import mode_fields

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


def table_at(model, t):
    """The panel table tail_tables builds for the one time t."""
    (block,) = model.tail_tables([t])
    return block[0]


def panel_rho(model, t, mids, halves):
    """The panel kernel at one time t."""
    return model._panel_rho([t])(np.zeros(mids.size, dtype=int), mids, halves)


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
        m = FreeGaussianModel(DEFAULT_PACKET)
        for t in (0.0, 5.0):
            peak = 1.0 / (math.sqrt(2.0 * math.pi) * DEFAULT_PACKET.sigma_x(t))
            x = DEFAULT_PACKET.center(t)
            assert float(m.rho(x, t)) == pytest.approx(peak, rel=1e-14)

    def test_tail_at_center_is_half(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        for t in (0.0, 3.0, 12.0):
            assert m.tail(DEFAULT_PACKET.center(t), t) == pytest.approx(0.5, abs=1e-14)

    def test_tail_one_sigma(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        t = 4.0
        x = DEFAULT_PACKET.center(t) + DEFAULT_PACKET.sigma_x(t)
        assert m.tail(x, t) == pytest.approx(NORMAL_TAIL_1SIGMA, abs=1e-14)

    def test_tail_limits_and_norm(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        assert m.tail(-math.inf, 2.0) == 1.0
        assert m.tail(math.inf, 2.0) == 0.0
        assert m.norm(7.0) == 1.0

    @pytest.mark.parametrize("call", [
        lambda: FreeGaussianModel(DEFAULT_PACKET).tail(math.nan, 1.0),
        lambda: DissipativeGaussianModel(DEFAULT_PACKET, 0.1).tail(math.nan, 1.0),
        lambda: FreeGaussianModel(DEFAULT_PACKET).interval_mass(0.0, math.nan, 1.0),
    ], ids=["free-tail", "lossy-tail", "free-interval"])
    def test_closed_form_refuses_a_nan_position(self, call):
        # As the spectral models do; +-inf still gives the limits.
        with pytest.raises(InvalidRange, match="tail position is NaN"):
            call()
        for model in (FreeGaussianModel(DEFAULT_PACKET),
                      DissipativeGaussianModel(DEFAULT_PACKET, 0.1)):
            assert model.tail(math.inf, 1.0) == 0.0
            assert model.tail(-math.inf, 1.0) == model.norm(1.0)

    def test_support_hint_captures_mass(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        for t in (0.0, 10.0):
            lo, hi = m.support_hint(t)
            assert m.tail(lo, t) >= 1.0 - 1e-12
            assert m.tail(hi, t) <= 1e-12

    def test_tail_monotone(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        for t in (0.0, 5.0, 20.0):
            assert_tail_monotone(m, t)

    def test_continuity_residual(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        d = 1e-4
        for t in (1.0, 6.0):
            xs = np.linspace(-20.0, 10.0, 61)
            drho_dt = (m.rho(xs, t + d) - m.rho(xs, t - d)) / (2 * d)
            dj_dx = (m.current(xs + d, t) - m.current(xs - d, t)) / (2 * d)
            scale = np.max(np.abs(dj_dx))
            assert np.max(np.abs(drho_dt + dj_dx)) <= 1e-6 * scale

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-60.0, 40.0), t=st.floats(0.0, 20.0), as_array=st.booleans(),
           rate=st.sampled_from([None, 0.0, DEFAULT_LOSS_RATE]))
    def test_density_and_current_has_the_bits_of_rho_and_current(self, x, t, as_array,
                                                                 rate):
        # The fused pair evaluates rho once; it must equal the two methods.
        model = (FreeGaussianModel(DEFAULT_PACKET) if rate is None
                 else DissipativeGaussianModel(DEFAULT_PACKET, rate))
        xs = np.array([x, x + 1.5, -x]) if as_array else x
        rho, cur = model.density_and_current(xs, t)
        for got, expected in ((rho, model.rho(xs, t)), (cur, model.current(xs, t))):
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_vectorized_shapes(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        xs = np.zeros((4, 3))
        assert m.rho(xs, 1.0).shape == (4, 3)
        assert m.current(xs, 1.0).shape == (4, 3)
        assert np.all(m.loss(xs, 1.0) == 0.0)


class TestDissipativeGaussianModel:
    def test_zero_rate_matches_free(self):
        free = FreeGaussianModel(DEFAULT_PACKET)
        lossy = DissipativeGaussianModel(DEFAULT_PACKET, 0.0)
        xs = np.linspace(-25.0, 15.0, 101)
        for t in (0.0, 4.0, 9.0):
            assert np.allclose(lossy.rho(xs, t), free.rho(xs, t), rtol=0, atol=0)
            assert np.allclose(lossy.current(xs, t), free.current(xs, t), rtol=0, atol=0)
            assert lossy.tail(-3.0, t) == free.tail(-3.0, t)

    def test_norm_tracks_survival(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        assert m.norm(0.0) == 1.0
        t_half = math.log(2.0) / DEFAULT_LOSS_RATE
        assert m.norm(t_half) == pytest.approx(0.5, rel=1e-14)
        # quadrature agrees with the closed form
        for t in (0.0, 3.0, t_half):
            lo, hi = m.support_hint(t)
            mass = integrate_adaptive(lambda x: m.rho(x, t), lo, hi)
            assert mass == pytest.approx(math.exp(-DEFAULT_LOSS_RATE * t), abs=1e-8)

    def test_loss_density_and_tail(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        xs = np.linspace(-15.0, 0.0, 31)
        t = 2.5
        assert np.allclose(m.loss(xs, t), DEFAULT_LOSS_RATE * m.rho(xs, t),
                           rtol=0, atol=0)
        for x in (-12.0, -8.0, -2.0):
            analytic = m.loss_tail(x, t)
            assert analytic == DEFAULT_LOSS_RATE * m.tail(x, t)
            by_quadrature = integrate_adaptive(lambda xs: m.loss(xs, t), x,
                                               m.support_hint(t)[1])
            assert by_quadrature == pytest.approx(analytic, abs=1e-6)

    def test_lossy_continuity_balance(self):
        # d rho/dt + d j/dx + loss = 0
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
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
            DissipativeGaussianModel(DEFAULT_PACKET, -0.1)

    def test_tail_monotone(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
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
        grid = build_kgrid(2.0, 0.2, n_nodes=256)
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
        closed = FreeGaussianModel(DEFAULT_PACKET)
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


@pytest.fixture(scope="module")
def reference_modes(spectral_models):
    """Mode weights and (gamma, T, R, A, B) of both spectral models, taken
    mode by mode from scattering_mode for the barrier and written out as
    plane waves (T = A = 1, R = B = 0) for the free reference."""
    spectrum, grid, _, _ = spectral_models
    k = grid.nodes
    weight = (grid.weights * spectrum.amplitude(k) * np.exp(-1j * k * spectrum.x_bar)
              / math.sqrt(2.0 * math.pi))
    modes = [scattering_mode(kj, DEFAULT_BARRIER) for kj in k.tolist()]
    barrier = np.array([[m.gamma, m.T, m.R, m.A, m.B] for m in modes]).T
    one, zero = np.ones(k.size, dtype=complex), np.zeros(k.size, dtype=complex)
    plane = (k.astype(complex), one, zero, one, zero)
    return k, weight, plane, barrier


def _reference_fields(k, weight, coefficients, half_width, x, t):
    """psi and d psi/dx at (x, t) as a per-mode sum with explicit
    e^{+-ikx}, e^{+-i gamma x} and e^{-i hbar k^2 t / 2m} factors (m = 1):
    x < -a left, x > a right, inside otherwise."""
    gamma, T, R, A, B = coefficients
    if x < -half_width:
        incident, reflected = np.exp(1j * k * x), R * np.exp(-1j * k * x)
        value, slope = incident + reflected, 1j * k * (incident - reflected)
    elif x > half_width:
        value = T * np.exp(1j * k * x)
        slope = 1j * k * value
    else:
        up, down = A * np.exp(1j * gamma * x), B * np.exp(-1j * gamma * x)
        value, slope = up + down, 1j * gamma * (up - down)
    c = weight * np.exp(-1j * HBAR * k * k * t / 2.0)
    return complex(np.sum(c * value)), complex(np.sum(c * slope))


class TestIndependentModeSum:
    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(st.floats(-25.0, -DEFAULT_BARRIER.half_width),
                       st.floats(-DEFAULT_BARRIER.half_width, DEFAULT_BARRIER.half_width),
                       st.floats(DEFAULT_BARRIER.half_width, 25.0),
                       st.sampled_from([-DEFAULT_BARRIER.half_width,
                                        DEFAULT_BARRIER.half_width])),
           t=st.floats(0.0, 10.0))
    def test_scalar_fields_match_a_written_out_mode_sum(self, spectral_models,
                                                        reference_modes, x, t):
        # The kernel folds the time phase into its stacked mode waves; this
        # sum shares none of that, only the coefficients.  Bounds are 1e-12 of
        # the peak scale: sqrt(peak) for psi, times k_max for d psi/dx.
        _, grid, free_sp, tunnel = spectral_models
        k, weight, plane, barrier = reference_modes
        for model, coefficients, a in ((free_sp, plane, -math.inf),
                                       (tunnel, barrier, DEFAULT_BARRIER.half_width)):
            psi, dpsi = _reference_fields(k, weight, coefficients, a, x, t)
            scale = math.sqrt(model.peak_density(t))
            amplitude = model.amplitude(x, t)
            assert isinstance(amplitude, complex)
            assert abs(amplitude - psi) <= 1e-12 * scale
            assert abs(model._fields(x, t)[1] - dpsi) <= 1e-12 * grid.k_max * scale
            assert abs(model.rho(x, t) - abs(psi) ** 2) <= 1e-12 * scale ** 2
            flux = (psi.conjugate() * dpsi).imag
            assert abs(model.current(x, t) - flux) <= 1e-12 * grid.k_max * scale ** 2


class TestKernelOracle:
    def test_fields_match_a_per_mode_cmath_loop(self):
        # rho and current against oracles.mode_fields, which sums the
        # model's own coefficients mode by mode with e^{+-ikx}, e^{+-i gamma x}
        # and the time phase written out.  On a 100-node grid the guard picks
        # the 64-node rung at t = 0.5 and the whole grid at t = 3.5 for these
        # x, left of, inside and right of the barrier (x = +-a is inside),
        # scalar and array.  Flipping the sign of the reflected half's
        # exponent in _region_waves (e^{+ikx} for R) fails this test.
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=100)
        a = DEFAULT_BARRIER.half_width
        xs = np.array([-6.0, -0.5, -a, -0.1, a, 0.31, 6.0])
        for model, edge in ((tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid), a),
                            (spectral_free_model(spectrum, grid), -math.inf)):
            assert model._sizes == [64, 100]
            for t, n in ((0.5, 64), (3.5, 100)):
                needed = model._check_resolution(np.abs(xs), t)
                assert np.all(needed <= n) and (n == 64 or np.all(needed > 64))
                nodes, weights = numerics._gauss_rule(grid.k_min, grid.k_max, n)
                _, coefficients, weight = model._rule_waves(nodes, weights)
                fields = [mode_fields(x, t, nodes, *coefficients, weight, edge)
                          for x in xs.tolist()]
                rho = np.array([abs(psi) ** 2 for psi, _ in fields])
                current = np.array([(psi.conjugate() * dpsi).imag for psi, dpsi in fields])
                bound = 1e-13 * model.peak_density(t)
                for got_rho, got_current in (
                        ([model.rho(x, t) for x in xs.tolist()],
                         [model.current(x, t) for x in xs.tolist()]),
                        (model.rho(xs, t), model.current(xs, t))):
                    assert np.max(np.abs(np.subtract(got_rho, rho))) <= bound
                    assert np.max(np.abs(np.subtract(got_current, current))) <= bound


def _full_grid(model, x, t):
    """(rho, current) at x summed over the model's whole grid, whatever
    rung its pointwise fields pick."""
    psi, dpsi = wavepacket._mode_sums(x, t, *model._modes)
    return wavepacket._density(psi), (HBAR / model.mass) * wavepacket._flux(psi, dpsi)


def _guard_reach(model, t):
    """Largest |x| the phase guard admits at time t, to rounding (m = 1)."""
    grid = model.grid
    return (grid.size * 2.0 * math.pi / (8.0 * (grid.k_max - grid.k_min))
            - abs(model.spectrum.x_bar) - HBAR * grid.k_max * t)


class TestRungs:
    """Pointwise fields sum on the smallest Gauss-Legendre rule of 64 * 2^j
    nodes (or the grid) that the phase guard accepts at each point."""

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(-1.0, 1.0), t=st.floats(0.0, 10.0), as_array=st.booleans())
    def test_rung_sums_match_the_whole_grid(self, spectral_models, u, t, as_array):
        # rho and j within 1e-11 of the peak density, and so j / rho within
        # 2e-11 peak (1 + |v|) / rho wherever rho is above 2e-11 peak.
        _, _, free_sp, tunnel = spectral_models
        for model in (free_sp, tunnel):
            x = 0.999 * u * _guard_reach(model, t)
            arg = np.array([x, -x, 0.5 * x]) if as_array else x
            rho, cur = model.density_and_current(arg, t)
            rho_full, cur_full = _full_grid(model, np.atleast_1d(arg), t)
            peak = model.peak_density(t)
            assert np.max(np.abs(rho - rho_full)) <= 1e-11 * peak
            assert np.max(np.abs(cur - cur_full)) <= 1e-11 * peak
            ok = rho_full >= 2e-11 * peak
            v_full = cur_full[ok] / rho_full[ok]
            v = np.atleast_1d(cur)[ok] / np.atleast_1d(rho)[ok]
            assert np.all(np.abs(v - v_full) <= 2e-11 * peak * (1.0 + np.abs(v_full))
                          / rho_full[ok])

    def test_a_point_has_its_own_bits_in_any_batch(self, spectral_models):
        # Points across every rung and region, alone, with far-off points
        # and in one batch, all with the bits of their scalar call.
        _, _, free_sp, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        for model in (free_sp, tunnel):
            rungs = set()
            for t in (0.0, 4.5, 10.0):
                reach = 0.999 * _guard_reach(model, t)
                xs = np.concatenate([np.linspace(-reach, reach, 41), [-a, -0.1, a, 2.0]])
                rungs |= set(np.searchsorted(model._sizes,
                                             model._check_resolution(np.abs(xs), t)).tolist())
                batch = model.density_and_current(xs, t)
                for i, x in enumerate(xs.tolist()):
                    alone = model.density_and_current(x, t)
                    far = model.density_and_current(np.array([x, -reach, reach]), t)
                    for one, many, among in zip(alone, batch, far):
                        assert one.hex() == float(many[i]).hex() == float(among[0]).hex()
            assert rungs == set(range(len(model._sizes)))

    def test_a_hand_made_grid_keeps_the_whole_grid_kernel(self, spectral_models):
        # Midpoint nodes, and the Gauss-Legendre rule of a slightly wider
        # band, are not the rule of their grid's band: no smaller rung, so
        # every point has the bits of the whole-grid sum.
        _, band, _, _ = spectral_models
        cell = (band.k_max - band.k_min) / band.size
        midpoint = (band.k_min + cell * (np.arange(band.size) + 0.5), np.full(band.size, cell))
        wider = numerics._gauss_rule(band.k_min, band.k_max + 0.01, band.size)
        xs = np.array([-12.0, -DEFAULT_BARRIER.half_width, -0.1, 0.2, 3.5, 40.0])
        for nodes, weights in (midpoint, wider):
            grid = KGrid(nodes, weights, band.k_min, band.k_max)
            spectrum = SpectralFunction.for_packet(DEFAULT_PACKET, grid)
            for model, t in itertools.product(
                    (spectral_free_model(spectrum, grid),
                     tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)), (0.0, 3.0)):
                rho, cur = model.density_and_current(xs, t)
                rho_full, cur_full = _full_grid(model, xs, t)
                assert np.array_equal(rho, rho_full) and np.array_equal(cur, cur_full)
                for x in xs.tolist():
                    assert model.density_and_current(x, t) == _full_grid(model, x, t)

    def test_guard_trips_where_the_grid_runs_out(self, spectral_models):
        # The guard still asks nodes_for_phase at the largest |x| of a call,
        # and raises exactly where that exceeds the grid, whatever the rungs.
        spectrum, grid, free_sp, tunnel = spectral_models

        def needed(x, t):
            return nodes_for_phase(abs(x) + abs(spectrum.x_bar) + HBAR * grid.k_max * t,
                                   grid.k_min, grid.k_max, minimum=1)
        for model in (free_sp, tunnel):
            for t in (0.0, 7.0):
                ok, bad = 0.0, 1e6          # bisect to adjacent floats
                while math.nextafter(ok, math.inf) < bad:
                    mid = 0.5 * (ok + bad)
                    try:
                        model.rho(mid, t)
                        ok = mid
                    except GridTooCoarse:
                        bad = mid
                assert needed(ok, t) <= grid.size < needed(bad, t)
                model.rho(np.array([0.5, -ok, 3.0]), t)
                with pytest.raises(GridTooCoarse):
                    model.rho(np.array([0.5, -bad, 3.0]), t)

    def test_a_64_node_grid_is_its_own_only_rung(self):
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=64)
        xs = np.array([-8.0, -0.1, 2.0])
        for model in (spectral_free_model(spectrum, grid),
                      tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)):
            assert model._sizes == [64]
            rho, cur = model.density_and_current(xs, 0.0)
            assert np.array_equal(rho, _full_grid(model, xs, 0.0)[0])
            assert np.array_equal(cur, _full_grid(model, xs, 0.0)[1])
            with pytest.raises(GridTooCoarse):
                model.rho(30.0, 10.0)

    def test_a_degenerate_rung_defers_to_the_next(self, spectral_models):
        # A barrier whose top sits on a 64-node rung's wave number: that rung
        # raises DegenerateK, so its points sum on the 128-node rung.
        spectrum, grid, _, _ = spectral_models
        k = numerics._gauss_rule(grid.k_min, grid.k_max, 64)[0][20]
        barrier = BarrierSpec(height=k * k / 2.0, half_width=0.3)
        model = tunneling_packet_model(spectrum, barrier, grid)
        x, t = -10.0, 0.0
        assert model._check_resolution(abs(x), t) <= 64
        psi, dpsi = wavepacket._mode_sums(x, t, model._rung(1), barrier.half_width)
        assert model.rho(x, t) == wavepacket._density(psi)
        assert model._rungs[0] is model._rungs[1]


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

    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(st.floats(-25.0, -DEFAULT_BARRIER.half_width),
                       st.floats(-DEFAULT_BARRIER.half_width, DEFAULT_BARRIER.half_width),
                       st.floats(DEFAULT_BARRIER.half_width, 25.0),
                       st.sampled_from([-DEFAULT_BARRIER.half_width,
                                        DEFAULT_BARRIER.half_width])),
           t=st.floats(0.0, 10.0))
    def test_scalar_x_has_the_bits_of_a_one_point_array(self, spectral_models, x, t):
        # A scalar x evaluates its one region without masks or chunks; it
        # must give what the array path gives for np.array([x]).
        _, _, free_sp, tunnel = spectral_models
        for model in (free_sp, tunnel):
            rho, cur = model.density_and_current(x, t)
            rhos, curs = model.density_and_current(np.array([x]), t)
            pairs = ((rho, rhos), (cur, curs), (model.rho(x, t), model.rho(np.array([x]), t)),
                     (model.current(x, t), model.current(np.array([x]), t)))
            for one, array in pairs:
                assert isinstance(one, float)
                assert one.hex() == float(array[0]).hex()

    def test_scalar_x_is_guarded_as_an_array(self, spectral_models):
        # NaN raises InvalidRange; the phase guard trips at the same |x| for
        # scalar and array input, on both sides.
        _, _, free_sp, tunnel = spectral_models
        t = 10.0
        for model in (free_sp, tunnel):
            for x in (math.nan, np.array([math.nan])):
                with pytest.raises(InvalidRange):
                    model.density_and_current(x, t)
            ok, bad = 0.0, 1e6          # bisect to adjacent floats
            while math.nextafter(ok, math.inf) < bad:
                mid = 0.5 * (ok + bad)
                try:
                    model.rho(mid, t)
                    ok = mid
                except GridTooCoarse:
                    bad = mid
            for x in (ok, -ok):
                model.density_and_current(x, t)
                model.density_and_current(np.array([x]), t)
            for x in (bad, -bad):
                for arg in (x, np.array([x])):
                    with pytest.raises(GridTooCoarse):
                        model.density_and_current(arg, t)

    def test_panel_kernel_matches_pointwise(self, spectral_models):
        # Panels left of, right of and inside the barrier, with shared and
        # distinct lattice widths: half its side's pitch times 2^-n outside
        # the barrier (the transmitted pitch right of it and on the whole
        # free reference), a / 2 inside.  A width off the lattice, a
        # left-pitch width right of the barrier (and a transmitted one left
        # of it) and a panel across a barrier edge are refused.
        _, _, free_sp, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        mids = np.array([-20.0, -5.0, -3.0, -a - 0.1, 0.0, a + 0.1,
                         3.0, 3.4, 25.0])
        rungs = np.array([0, 0, 0, 5, 1, 5, 0, 1, 1])
        for model in (free_sp, tunnel):
            pitch = np.where(mids > a, model._pitch_right, model._pitch)
            halves = 0.5 * pitch * np.exp2(-rungs)
            if model.barrier is not None:
                halves[4] = a / 2
            for t in (0.0, 5.0, 10.0):
                fast = panel_rho(model, t, mids, halves)
                nodes = mids[:, None] + halves[:, None] * PANEL_NODES
                slow = model.rho(nodes, t)
                assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow)
            with pytest.raises(ValueError, match="off the panel lattice"):
                panel_rho(model, 5.0, np.append(mids, -12.0), np.append(halves, 0.35))
        for mid, half in ((12.0, 0.5 * tunnel._pitch), (-12.0, 0.5 * tunnel._pitch_right)):
            with pytest.raises(ValueError, match="off the panel lattice"):
                panel_rho(tunnel, 5.0, np.append(mids, mid), np.append(halves, half))
        for mid, half in ((-a, 0.2), (a, 0.3)):
            with pytest.raises(ValueError, match="crosses a barrier edge"):
                panel_rho(tunnel, 5.0, np.append(mids, mid), np.append(halves, half))

    @pytest.mark.parametrize("t", [0.0, 5.0, 10.0])
    def test_shift_rows_match_pointwise(self, spectral_models, t):
        # Runs of lattice panels (kept rows of lattice phases, one window
        # per width and region origin) and their bisection children, left
        # of, inside and right of the barrier.
        _, _, free_sp, tunnel = spectral_models
        for model in (free_sp, tunnel):
            edges = model._lattice(t)
            mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            kids = np.concatenate([mids - 0.5 * halves, mids + 0.5 * halves])
            for m, h in ((mids, halves), (kids, np.tile(0.5 * halves, 2))):
                fast = panel_rho(model, t, m, h)
                slow = model.rho(m[:, None] + h[:, None] * PANEL_NODES, t)
                assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(slow)
            rows = [len(kept) for waves in model._waves for entry in waves.kept.values()
                    for _, kept in entry[1].values()]
            assert max(rows) >= mids.size // 2

    def test_table_widths_sit_on_the_lattice(self):
        # Over t = 0, 0.5, ..., 10 every retained panel of a fresh model is
        # a lattice panel or a bisection child of one: width (its side's
        # pitch) * 2^n outside the barrier, 2a * 2^-n inside.  Left of the
        # barrier the pitch is 4 pi / 2 k_max * 2^n; right of it, and on the
        # whole free reference, the transmitted 4 pi / (k_max - k_min),
        # doubled only until it reaches the left one (at t = 300 and 3000
        # it is) and with a barrier halved only while the hint top snaps
        # out past the phase guard's headroom (recommended_node_count's
        # _NODE_HEADROOM); a sigma_x0 = 25 packet to t = 2 halves it.  Each
        # table starts with 8 to 512 panels, anchored at +-a (at 0 for the
        # free reference), and each end of the hint reaches at most its
        # side's pitch past the unsnapped end.
        a = DEFAULT_BARRIER.half_width
        cases = ((DEFAULT_PACKET, 10.0, [*np.arange(0.0, 10.25, 0.5), 300.0, 3000.0]),
                 (replace(DEFAULT_PACKET, sigma_x0=25.0), 2.0, np.arange(0.0, 2.25, 0.5)))

        def rungs(lengths, base):
            rung = np.log2(lengths / base)
            return np.max(np.abs(rung - np.rint(rung)), initial=0.0)
        halved = []
        for packet, t_max, times in cases:
            spectrum, grid = spectral_setup(packet, t_max=t_max)
            transmitted = 4.0 * math.pi / (grid.k_max - grid.k_min)
            for model in (spectral_free_model(spectrum, grid),
                          tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)):
                anchor = 0.0 if model.barrier is None else a
                incident = transmitted if model.barrier is None else 2.0 * math.pi / grid.k_max
                for t in times:
                    edges = model._lattice(t)
                    assert 8 <= edges.size - 1 <= 512
                    left_pitch, right_pitch = edges[1] - edges[0], edges[-1] - edges[-2]
                    assert rungs(left_pitch, incident) <= 1e-9
                    assert rungs(right_pitch, transmitted) <= 1e-9
                    for side, pitch in ((edges <= -anchor, left_pitch),
                                        (edges >= anchor, right_pitch)):
                        outer = np.abs(edges[side]) - anchor
                        assert np.max(np.abs(outer / pitch - np.rint(outer / pitch))) <= 1e-9
                    reach = 8.0 * model.spread(t) + grid.k_max * t
                    if model.barrier is None:
                        raw = (spectrum.x_bar + grid.k_min * t - 8.0 * model.spread(t),
                               spectrum.x_bar + reach)
                    else:
                        raw = (-abs(spectrum.x_bar) - reach, abs(spectrum.x_bar) + reach)
                    lo, hi = model.support_hint(t)
                    assert 0.0 <= raw[0] - lo <= left_pitch
                    assert 0.0 <= hi - raw[1] <= right_pitch
                    if model.barrier is not None:
                        room = (wavepacket._NODE_HEADROOM - 1.0) * (
                            raw[1] + abs(spectrum.x_bar) + grid.k_max * t)
                        assert hi - raw[1] <= room
                        assert right_pitch < 2.0 * left_pitch or right_pitch < 1.01 * transmitted
                        if right_pitch < 0.99 * max(left_pitch, transmitted):
                            coarser = 2.0 * right_pitch
                            snap = a + coarser * math.ceil((raw[1] - a) / coarser) - raw[1]
                            assert snap > room
                            halved.append((packet.sigma_x0, t))
                    if t > t_max:
                        continue
                    panels = table_at(model, t)
                    widths = panels.his - panels.los
                    inside = (panels.los >= -anchor) & (panels.his <= anchor)
                    right = panels.los >= anchor
                    base = np.where(inside, 2.0 * anchor,
                                    np.where(right, transmitted, incident))
                    assert rungs(widths, base) <= 1e-9
        assert halved and all(width == 25.0 for width, _ in halved)

    @pytest.mark.parametrize("a", [20.0, 1e8, 1e300])
    def test_wide_barrier_lattice_stays_bounded(self, a):
        # Only edges near the hint are made, however wide the barrier, and
        # its inner panels (down to half a pitch wide) still start a table
        # with 8 to 512 panels.  At V = 0 the barrier scatters nothing, so
        # the tails are the free reference's (at 1e300 the coefficients
        # overflow; only the lattice is checked).
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
        with np.errstate(all="ignore"):
            model = tunneling_packet_model(spectrum, BarrierSpec(0.0, a), grid)
        free = spectral_free_model(spectrum, grid)
        xs = np.array([-20.0, -3.0, 0.0, 2.5, 11.0])
        for t in (0.0, 5.0, 10.0):
            edges = model._lattice(t)
            assert 8 <= edges.size - 1 <= 512
            assert (edges[0], edges[-1]) == model.support_hint(t)
            if a < 1e300:
                gap = model.tails(xs, t) - free.tails(xs, t)
                assert np.max(np.abs(gap)) <= 1e-9

    def test_tails_with_coefficients_need_the_free_reference(self, spectral_models):
        _, grid, free_sp, tunnel = spectral_models
        coeffs = free_sp._coeffs(2.0)
        assert np.array_equal(free_sp.tails([0.5, 3.0], [2.0], coeffs)[0],
                              free_sp.tails([0.5, 3.0], 2.0))
        with pytest.raises(ValueError):
            tunnel.tails([0.5], [2.0], coeffs)

    def test_tail_tables_with_coefficients_need_the_free_reference(self, spectral_models):
        # Plane-wave coefficients on a barrier model would build a table of
        # no meaning, with or without a lowest read position.
        _, _, free_sp, tunnel = spectral_models
        coeffs = np.ones((1, free_sp.grid.size), dtype=complex)
        assert next(free_sp.tail_tables([2.0], coeffs=coeffs))[0].total > 0.0
        for low in (-math.inf, 0.5):
            with pytest.raises(ValueError, match="free reference"):
                next(tunnel.tail_tables([2.0], low, coeffs))

    def test_kept_waves_are_bounded(self):
        # After a sweep over t = 0, 0.5, ..., 10 and a tails() call read
        # at six x values off the lattice edges, each model keeps at most
        # eight e^{iqh xi} matrices (measured 2 and 5), all of lattice
        # widths, and both hold under 3 MiB (measured 2.4 MiB; 2.2 MiB with
        # shift rows relative to each batch's lowest mid).
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
        models = (spectral_free_model(spectrum, grid),
                  tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid))
        for model in models:
            model._coeffs(0.0)
        xs = np.array([-7.3, -0.1, 0.7, 1.1, 2.9, 4.45])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for model in models:
                for t in np.arange(0.0, 10.25, 0.5):
                    table_at(model, t)
                model.tails(xs, 7.25)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        for model in models:
            kept = [(waves.base, h) for waves in model._waves for h in waves.kept]
            assert len(kept) <= 8
            assert all(math.frexp(abs(h) / base)[0] == 0.5 for base, h in kept)
        assert held <= 3 * 2 ** 20

    def test_tail_panels_cut_at_barrier_edges(self, spectral_models):
        _, _, _, tunnel = spectral_models
        a = DEFAULT_BARRIER.half_width
        for t in (0.0, 10.0):
            panels = table_at(tunnel, t)
            assert (panels.los[0], panels.his[-1]) == tunnel.support_hint(t)
            assert np.array_equal(panels.los[1:], panels.his[:-1])
            assert -a in panels.los and a in panels.los

    def test_tails_match_pointwise_tail(self, spectral_models):
        # One table per time, read at each x: unsorted, duplicated, on the
        # barrier edges, and clamped below and above the support hint.
        # Tunneling reads at seeded x right of the barrier, inside its
        # transmitted-pitch panels, also match tail() at quad_rel 1e-14
        # (measured <= 1.2e-15).
        spectrum, grid, free_sp, tunnel = spectral_models
        tight = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid,
                                       tol=Tolerances(quad_rel=1e-14))
        a = DEFAULT_BARRIER.half_width
        xs = np.array([3.0, -200.0, a, 1.1, 1.1, -a, -8.558, 200.0])
        for model in (free_sp, tunnel):
            for t in (0.0, 5.0, 10.0):
                tails = model.tails(xs, t)
                assert tails.shape == xs.shape and tails[-1] == 0.0
                for x, tail in zip(xs, tails):
                    assert abs(tail - model.tail(float(x), t)) <= 1e-12
                if model is tunnel:
                    seeded = np.random.default_rng(24).uniform(a, tunnel.support_hint(t)[1], 24)
                    for x, tail in zip(seeded.tolist(), tunnel.tails(seeded, t)):
                        assert abs(tail - tight.tail(x, t)) <= 1e-12
            assert model.tails([], 5.0).shape == (0,)

    def test_tails_refuse_a_nan_position(self, spectral_models):
        # A NaN x raises rather than reading as a tail of 0; +-inf clamps
        # to the support hint.
        _, _, free_sp, tunnel = spectral_models
        for model in (free_sp, tunnel):
            with pytest.raises(InvalidRange):
                model.tails([1.0, math.nan], 2.0)
            lo = model.support_hint(2.0)[0]
            assert model.tails([-math.inf, math.inf], 2.0).tolist() == [
                model.tails([lo], 2.0)[0], 0.0]

    def test_tail_refuses_a_nan_position(self, spectral_models):
        _, _, free_sp, tunnel = spectral_models
        for model in (free_sp, tunnel):
            with pytest.raises(InvalidRange):
                model.tail(math.nan, 2.0)
            with pytest.raises(InvalidRange):
                model.interval_mass(0.0, math.nan, 2.0)
            assert model.tail(-math.inf, 2.0) == model.interval_mass(
                *model.support_hint(2.0), 2.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_tables_refuse_a_non_finite_time(self, spectral_models, t):
        # The panel lattice is refused in one line instead of ending in an
        # OverflowError or a NaN-to-int ValueError.
        _, _, free_sp, tunnel = spectral_models
        for call in (lambda m: m.tail(1.0, t), lambda m: m.tails([1.0], t),
                     lambda m: table_at(m, t)):
            for model in (free_sp, tunnel):
                with pytest.raises(InvalidRange, match="finite") as exc:
                    call(model)
                assert "\n" not in str(exc.value)

    def test_tail_splits_at_barrier_edges(self, spectral_models):
        # Linspace panels from x = -8.558 put the curvature jump of rho at
        # +-a inside one panel whose GL15-GL7 gap underestimated its error,
        # 3.6e-9 off at quad_rel 1e-9; with +-a as panel edges it is not.
        spectrum, grid, _, tunnel = spectral_models
        tight = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid,
                                       tol=Tolerances(quad_rel=1e-14))
        assert abs(tunnel.tail(-8.558, 5.0) - tight.tail(-8.558, 5.0)) <= 1e-9

    def test_factored_panels_are_chunked(self, spectral_models, monkeypatch):
        # 40 panels of a lattice width, spaced off the 2h run so each takes
        # its own exponential, in row chunks of 3 give the one-pass values;
        # so do the lattice panels, whose runs restart their exponential
        # every 3 rows (phases q m ~ 100 rad, so a few ulps of them apart:
        # 1e-13).
        _, grid, _, tunnel = spectral_models
        edges = tunnel._lattice(4.0)
        for mids, halves, bound in (
                (np.linspace(-30.0, -2.0, 40), np.full(40, tunnel._pitch / 8), 1e-14),
                (0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges), 1e-13)):
            one_pass = panel_rho(tunnel, 4.0, mids, halves)
            with monkeypatch.context() as patch:
                patch.setattr(wavepacket, "_FIELD_ENTRIES", 3 * grid.size)
                chunked = panel_rho(tunnel, 4.0, mids, halves)
            assert np.max(np.abs(chunked - one_pass)) <= bound * np.max(one_pass)

    def test_long_batches_are_chunked(self, spectral_models, monkeypatch):
        # 20 000 points x 386 modes would be ~120 MB per complex matrix in
        # one pass; the chunked pass peaks near a few entry budgets and
        # gives the same bits.
        _, _, _, tunnel = spectral_models
        xs = np.linspace(-60.0, 60.0, 20_000)
        chunked = _rho_within_budget(tunnel, xs, 5.0)
        monkeypatch.setattr(wavepacket, "_FIELD_ENTRIES", 1 << 40)
        assert np.array_equal(chunked[:1001], tunnel.rho(xs[:1001], 5.0))

    def test_stacked_regions_are_chunked_by_their_width(self, spectral_models,
                                                        monkeypatch):
        # Left of and inside the barrier a point sums 2n stacked waves, so
        # its row chunks hold half the rows of the right region's: every
        # kernel call stays within _FIELD_ENTRIES (x, wave) entries, and the
        # batch within test_long_batches_are_chunked's budget, same bits.
        _, _, _, tunnel = spectral_models
        xs = np.linspace(-60.0, DEFAULT_BARRIER.half_width, 20_000)
        chunked = _rho_within_budget(tunnel, xs, 5.0)
        entries, kernel = {}, wavepacket._region_fields

        def counted(region, x, t, waves):
            entries[region] = max(entries.get(region, 0), np.size(x) * waves[region][0].size)
            return kernel(region, x, t, waves)
        with monkeypatch.context() as patch:
            patch.setattr(wavepacket, "_region_fields", counted)
            assert np.array_equal(tunnel.rho(xs, 5.0), chunked)
        assert sorted(entries) == [0, 1]
        assert max(entries.values()) <= wavepacket._FIELD_ENTRIES
        monkeypatch.setattr(wavepacket, "_FIELD_ENTRIES", 1 << 40)
        assert np.array_equal(chunked[:1001], tunnel.rho(xs[:1001], 5.0))

    def test_tail_clamps_outside_hint(self, spectral_models):
        _, _, _, tunnel = spectral_models
        lo, hi = tunnel.support_hint(3.0)
        assert tunnel.tail(hi + 5.0, 3.0) == 0.0
        assert tunnel.tail(lo - 1e6, 3.0) == pytest.approx(1.0, abs=1e-6)


def _rho_within_budget(model, xs, t):
    """model.rho(xs, t), asserting that its traced peak memory stays within
    a few field-entry budgets plus 64 bytes a point, with the cache warm."""
    assert model.grid.size * xs.size > 50 * wavepacket._FIELD_ENTRIES
    model.rho(xs[:3], t)                  # coefficient cache warm
    tracemalloc.start()
    try:
        values = model.rho(xs, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * wavepacket._FIELD_ENTRIES + 64 * xs.size
    return values


def assert_same_tables(batched, alone):
    """Two sequences of Panels, equal bit for bit."""
    batched, alone = list(batched), list(alone)
    assert len(batched) == len(alone)
    for b, a in zip(batched, alone):
        for name in ("los", "his", "values", "nodes", "upper"):
            assert np.array_equal(getattr(b, name), getattr(a, name)), name
        assert b.total == a.total


# Sorted sets of 1 to 25 distinct times in [0, 10], of every size alike.
TIME_SETS = st.integers(1, 25).flatmap(lambda n: st.lists(
    st.floats(0.0, 10.0), min_size=n, max_size=n, unique=True).map(sorted))


class TestBatchedTables:
    """A lockstep build of many times gives every table the bits of its
    one-time build, whatever times share the batch."""

    @settings(max_examples=12, deadline=None)
    @given(ts=TIME_SETS, which=st.sampled_from([2, 3]))
    def test_batched_tables_equal_one_time_builds(self, spectral_models, ts, which):
        model = spectral_models[which]
        assert_same_tables(itertools.chain(*model.tail_tables(ts)),
                           [table_at(model, t) for t in ts])

    @settings(max_examples=8, deadline=None)
    @given(ts=TIME_SETS)
    def test_batched_plane_wave_tails_equal_one_time_builds(self, spectral_models, ts):
        # The delta-p term3 tables: other coefficients on the free
        # reference's lattice, read at x off the lattice edges.
        _, grid, free_sp, _ = spectral_models
        ts = np.array(ts)
        coeffs = free_sp._coeffs(ts) * np.exp(0.7j * grid.nodes)
        xs = np.array([0.5, 1.7, 4.45])
        batched = free_sp.tails(xs, ts, coeffs)
        for i, t in enumerate(ts.tolist()):
            assert np.array_equal(batched[i], free_sp.tails(xs, [t], coeffs[i:i + 1])[0])

    def test_batched_tables_on_the_largest_grid(self):
        # 4096 wave numbers, the CLI's largest grid: a row chunk holds 4
        # rows and each BLAS product is 10x the stock one's.  Midpoint
        # nodes over the stock band stand in for the slow 4096-node GL rule.
        band = spectral_setup(DEFAULT_PACKET, t_max=10.0)[1]
        cell = (band.k_max - band.k_min) / 4096
        grid = KGrid(band.k_min + cell * (np.arange(4096) + 0.5), np.full(4096, cell),
                     band.k_min, band.k_max)
        spectrum = SpectralFunction.for_packet(DEFAULT_PACKET, grid)
        ts = [0.0, 2.5, 5.5, 10.0]
        for model in (spectral_free_model(spectrum, grid),
                      tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)):
            assert_same_tables(itertools.chain(*model.tail_tables(ts)),
                               [table_at(model, t) for t in ts])

    def test_rows_keep_their_bits_in_any_batch(self, spectral_models):
        # The panel kernel on rows of three times: each row alone, in its
        # time's group and in the whole batch, including a group of one row
        # (the one inner panel of a width) and an off-lattice panel.
        _, _, _, tunnel = spectral_models
        ts = [0.0, 4.5, 10.0]
        values = tunnel._panel_rho(ts)
        table, mids, halves = [], [], []
        for i, t in enumerate(ts):
            edges = tunnel._lattice(t)
            n = edges.size - 1
            table += [i] * (n + 1)
            mids += (0.5 * (edges[1:] + edges[:-1])).tolist() + [-7.0 - 0.37 * i]
            halves += (0.5 * np.diff(edges)).tolist() + [tunnel._pitch / 8]
        table, mids, halves = np.array(table), np.array(mids), np.array(halves)
        table[-1], mids[-1], halves[-1] = 1, 0.15, 0.075      # alone at its width
        batch = values(table, mids, halves)
        for i in range(mids.size):
            alone = values(table[i:i + 1], mids[i:i + 1], halves[i:i + 1])
            assert np.array_equal(alone[0], batch[i])
        for i in range(len(ts)):
            rows = table == i
            assert np.array_equal(values(table[rows], mids[rows], halves[rows]), batch[rows])

    def test_blocks_are_built_as_they_are_read(self, spectral_models, monkeypatch):
        # Blocks of three times: the tables keep their one-time bits across
        # block edges, and reading the first table builds the first block only.
        _, _, _, tunnel = spectral_models
        ts = [0.0, 1.25, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0]
        builds = []
        build = wavepacket.adaptive_panels

        def counted(panel_f, partitions, *args):
            builds.append(len(partitions))
            return build(panel_f, partitions, *args)
        monkeypatch.setattr(wavepacket, "_TABLE_BLOCK", 3)
        monkeypatch.setattr(wavepacket, "adaptive_panels", counted)
        blocks = tunnel.tail_tables(ts)
        first = next(blocks)
        assert builds == [3] and len(first) == 3
        assert_same_tables(itertools.chain(first, *blocks), [table_at(tunnel, t) for t in ts])
        assert builds[:3] == [3, 3, 2]

    def test_batched_build_memory_does_not_grow_with_times(self, monkeypatch):
        # Tables of the fig2 tunneling model read block by block and dropped.
        # Measured here: 2.8 MiB at 101 times (5351 panels, at most 71 a
        # table) and at 1001 times, 2.2 MiB with _FIELD_ENTRIES / 8: the
        # heaps and node values of one block of _TABLE_BLOCK tables (~1.2
        # KiB a panel) and row chunks of a quarter of _FIELD_ENTRIES complex
        # entries.  One pass over all 101 times peaked at 7 MiB.  Inversions
        # solve a block at a time too: quantile_position peaked at 2.95,
        # 5.20 and 17.3 MiB at 101, 401 and 1601 times while it held every
        # table of its call.
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)

        def peak(read, n):
            ts = np.linspace(0.0, 10.0, n)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                read(ts)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        def build(ts):
            for _ in model.tail_tables(ts):
                pass

        for entries in (wavepacket._FIELD_ENTRIES // 8, wavepacket._FIELD_ENTRIES):
            monkeypatch.setattr(wavepacket, "_FIELD_ENTRIES", entries)
            model = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
            build(np.linspace(0.0, 10.0, 33))     # kept waves in place
            small = peak(build, 101)
            assert small <= 4 * 16 * entries + wavepacket._TABLE_BLOCK * 80 * 1536
        assert peak(build, 301) <= small + (1 << 18)
        invert = lambda ts: quantile_position(model, [0.3], ts)
        assert peak(invert, 1601) <= 1.25 * peak(invert, 101)


class TestGaussian3DModel:
    def test_density_factorizes(self):
        params = Gaussian3DParams(center=(1.0, -2.0, 0.5),
                                  velocity=(2.0, 0.0, -1.0), sigma_x0=2.5)
        m = Gaussian3DModel(params)
        axes = [FreeGaussianModel(GaussianPacketParams(params.center[i],
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
        m = Gaussian3DModel(params)
        t = 3.0
        peak = m.rho(m.center(t), t)
        sig = m.sigma_x(t)
        assert peak == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * sig) ** 3,
                                     rel=1e-14)
        assert m.rho(m.center(t) + np.array([0.5, 0.0, 0.0]), t) < peak

    def test_zero_drift_current_is_radial(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        m = Gaussian3DModel(params)
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=3.0, size=(40, 3))
        j = m.current(pts, 2.0)
        cross = np.cross(j, pts)
        assert np.max(np.abs(cross)) <= 1e-14

    def test_velocity_at_t0_is_drift(self):
        params = Gaussian3DParams(center=(1.0, 2.0, 3.0),
                                  velocity=(0.3, -0.2, 0.1), sigma_x0=1.5)
        m = Gaussian3DModel(params)
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        v = m.velocity(pts, 0.0)
        assert np.allclose(v, params.velocity, rtol=0, atol=0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Gaussian3DParams(center=(0.0, 0.0), velocity=(0.0, 0.0, 0.0), sigma_x0=1.0)
