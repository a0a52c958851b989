"""Tests for quantile inversion, trajectory tracing, and 3D flow maps."""

import math

import numpy as np
import pytest
from scipy.special import erfcinv

from quantracer.errors import InvalidRange, NormBelowP, VelocitySingular
from quantracer.numerics import Tolerances, find_root_monotone
from quantracer.quantile import (
    _TailTable,
    probability_in_volume,
    quantile_position,
    quantile_velocity,
    sphere_seeds,
    tail_probability,
    trace_flowmap_3d,
    trace_trajectory_cdf,
    trace_trajectory_ode,
)
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    Gaussian3DParams,
    SpectralPacketModel,
    dissipative_gaussian_model,
    free_gaussian_model,
    gaussian3d_model,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

# mpmath oracle, frozen: sqrt(2/pi) * integral of r^2 exp(-r^2/2) over [0, 3]
BALL_MASS_3SIGMA = 0.970709113465112


def closed_form_position(params, P, t):
    """Reference quantile path: center + (sigma_x(t)/sigma_x0) * offset."""
    x0 = params.x_bar + math.sqrt(2.0) * params.sigma_x0 * erfcinv(2.0 * P)
    return params.center(t) + (params.sigma_x(t) / params.sigma_x0) * (x0 - params.x_bar)


def closed_form_velocity(params, P, t):
    x0 = params.x_bar + math.sqrt(2.0) * params.sigma_x0 * erfcinv(2.0 * P)
    sig = params.sigma_x(t)
    return params.v_bar + params.sigma_v ** 2 * t * (x0 - params.x_bar) / (sig * params.sigma_x0)


@pytest.fixture(scope="module")
def tunnel_models():
    spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
    return (spectral_free_model(spectrum, grid),
            tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid))


class TestTailProbability:
    def test_median_and_limits(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        assert tail_probability(m, DEFAULT_PACKET.center(3.0), 3.0) == pytest.approx(0.5, abs=1e-14)
        assert tail_probability(m, -math.inf, 3.0) == 1.0

    def test_dissipative_tail_limit_is_survival(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        t = 4.0
        assert tail_probability(m, -math.inf, t) == pytest.approx(math.exp(-0.1 * t), rel=1e-14)


class TestQuantilePosition:
    def test_median_positions(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        assert quantile_position(m, 0.5, 0.0) == pytest.approx(-10.0, abs=1e-9)
        assert quantile_position(m, 0.5, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_closed_form_models(self):
        models = [free_gaussian_model(DEFAULT_PACKET),
                  dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)]
        for m in models:
            for t in (0.0, 3.0, 7.0):
                norm = m.norm(t)
                for P in np.arange(0.05, 0.96, 0.1):
                    if P >= norm:
                        continue
                    x = quantile_position(m, float(P), t)
                    assert m.tail(x, t) == pytest.approx(P, abs=1e-8)

    def test_round_trip_spectral_models(self, tunnel_models):
        free_sp, tunnel = tunnel_models
        for m in tunnel_models:
            for t in (0.0, 5.0):
                for P in (0.1, 0.3, 0.5, 0.7, 0.9):
                    x = quantile_position(m, P, t)
                    assert m.tail(x, t) == pytest.approx(P, abs=1e-8)

    def test_guess_matches_fresh_inversion(self, tunnel_models):
        # The table inversion needs no guess; a root of the independent
        # tail() bracketed around the guess is the second path.
        _, tunnel = tunnel_models
        t = 5.0
        fresh = quantile_position(tunnel, 0.4, t)
        seeded = quantile_position(tunnel, 0.4, t, x_guess=fresh + 1.5)
        assert seeded == pytest.approx(fresh, abs=1e-6)
        direct = find_root_monotone(lambda x: tunnel.tail(x, t) - 0.4,
                                    (fresh - 1.5, fresh + 1.5))
        assert direct == pytest.approx(fresh, abs=1e-6)

    def test_inversion_field_budget(self, tunnel_models, monkeypatch):
        # One table (factored panel kernel) plus 15-point partial-panel
        # probes; re-running an adaptive interval mass per probe spent
        # ~1e4 pointwise points on this inversion.
        _, tunnel = tunnel_models
        seen = {"points": 0, "panels": 0}
        rho, panel_rho = tunnel.rho, tunnel._panel_rho

        def counted_rho(x, t):
            seen["points"] += np.size(x)
            return rho(x, t)

        def counted_panel_rho(t):
            values = panel_rho(t)

            def counted(mids, halves):
                seen["panels"] += mids.size
                return values(mids, halves)
            return counted

        monkeypatch.setattr(tunnel, "rho", counted_rho)
        monkeypatch.setattr(tunnel, "_panel_rho", counted_panel_rho)
        x = quantile_position(tunnel, 0.01, 10.0)
        assert x > DEFAULT_BARRIER.half_width
        assert seen["points"] <= 300      # measured 110
        assert seen["panels"] <= 150      # measured 71

    @pytest.mark.parametrize("t", [0.0, 5.0, 10.0])
    def test_table_tail_matches_independent_tail(self, tunnel_models, t):
        # Against the same independent route at a tight tolerance and at
        # the default one; both cut their panels at the barrier edges.
        rng = np.random.default_rng(20261018)
        a = DEFAULT_BARRIER.half_width
        tight = Tolerances(quad_rel=1e-13, quad_abs=1e-15)
        for model in tunnel_models:
            reference = SpectralPacketModel(model.spectrum, model.grid,
                                            model.barrier, tol=tight)
            table = _TailTable(model, t)
            lo, hi = model.support_hint(t)
            xs = np.concatenate([rng.uniform(lo, hi, 6),
                                 rng.normal(model.spectrum.x_bar + 2.0 * t,
                                            model.spread(t), 6),
                                 [-a, a, lo, hi]])
            for x in xs:
                assert abs(table(float(x)) - reference.tail(float(x), t)) <= 1e-9
                assert abs(table(float(x)) - model.tail(float(x), t)) <= 1e-9

    def test_norm_below_p(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        # survival at t=8 is exp(-0.8) ~ 0.449 < 0.5
        with pytest.raises(NormBelowP):
            quantile_position(m, 0.5, 8.0)

    def test_rejects_bad_p(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises((InvalidRange, NormBelowP)):
                quantile_position(m, bad, 1.0)


class TestQuantileVelocity:
    def test_mean_velocity_at_center(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        for t in (0.0, 2.0, 9.0):
            v = quantile_velocity(m, DEFAULT_PACKET.center(t), t)
            assert v == pytest.approx(2.0, abs=1e-12)

    def test_matches_closed_form_field(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        p = DEFAULT_PACKET
        t = 4.0
        for x in np.linspace(-20.0, 5.0, 11):
            expected = p.v_bar + p.sigma_v ** 2 * t * (x - p.center(t)) / p.sigma_x(t) ** 2
            assert quantile_velocity(m, float(x), t) == pytest.approx(expected, rel=1e-10)

    def test_dissipative_integro_differential_form(self):
        # v = j/rho - loss_tail/rho; the survival factor cancels, so it also
        # equals the free velocity minus loss_rate * free_tail / free_rho.
        lossy = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        free = free_gaussian_model(DEFAULT_PACKET)
        t = 3.0
        for x in (-14.0, -9.0, -2.0):
            v = quantile_velocity(lossy, x, t)
            expected = (float(free.current(x, t))
                        - DEFAULT_LOSS_RATE * free.tail(x, t)) / float(free.rho(x, t))
            assert v == pytest.approx(expected, rel=1e-12)

    def test_density_floor_raises(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        with pytest.raises(VelocitySingular):
            quantile_velocity(m, -10.0 + 40.0 * 2.5, 0.0)


class TestTraceTrajectoryCdf:
    def test_median_is_straight_line(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        traj = trace_trajectory_cdf(m, 0.5, grid)
        assert np.max(np.abs(traj.positions - (-10.0 + 2.0 * grid))) <= 1e-8
        assert np.max(np.abs(traj.velocities - 2.0)) <= 1e-8
        assert traj.termination.kind == "completed"

    def test_matches_closed_form_all_p(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        for P in (0.1, 0.3, 0.5, 0.7, 0.9):
            traj = trace_trajectory_cdf(m, P, grid)
            ref = [closed_form_position(DEFAULT_PACKET, P, t) for t in grid]
            vref = [closed_form_velocity(DEFAULT_PACKET, P, t) for t in grid]
            assert np.max(np.abs(traj.positions - ref)) <= 1e-6
            assert np.max(np.abs(traj.velocities - vref)) <= 1e-6

    def test_trajectories_do_not_cross(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        grid = np.linspace(0.0, 12.0, 25)
        trajs = [trace_trajectory_cdf(m, P, grid) for P in (0.2, 0.4, 0.6, 0.8)]
        for lower, upper in zip(trajs[1:], trajs[:-1]):
            # larger P sits further left at every time
            assert np.all(upper.positions - lower.positions > 0.0)

    def test_dissipative_termination_time(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        grid = np.linspace(0.0, 20.0, 81)
        traj = trace_trajectory_cdf(m, 0.3, grid)
        t_end = -math.log(0.3) / DEFAULT_LOSS_RATE
        assert traj.termination.kind == "norm_below_p"
        assert traj.termination.time == pytest.approx(t_end, abs=1e-6)
        assert traj.times[-1] < t_end
        assert np.all(np.diff(traj.times) > 0.0)

    def test_rejects_start_below_norm(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        with pytest.raises(NormBelowP):
            trace_trajectory_cdf(m, 0.9, np.linspace(2.0, 5.0, 4))

    def test_rejects_unsorted_grid(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        with pytest.raises(InvalidRange):
            trace_trajectory_cdf(m, 0.5, np.array([0.0, 2.0, 1.0]))


class TestTraceTrajectoryOde:
    def test_free_matches_closed_form(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        for P in (0.1, 0.5, 0.9):
            traj = trace_trajectory_ode(m, P, 0.0, 20.0, t_eval=grid)
            ref = [closed_form_position(DEFAULT_PACKET, P, t) for t in traj.times]
            assert np.max(np.abs(traj.positions - ref)) <= 1e-5
            assert traj.termination.kind == "completed"

    def test_dissipative_matches_cdf_until_termination(self):
        m = dissipative_gaussian_model(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        grid = np.linspace(0.0, 20.0, 81)
        cdf = trace_trajectory_cdf(m, 0.5, grid)
        ode = trace_trajectory_ode(m, 0.5, 0.0, 20.0, t_eval=grid)
        t_end = -math.log(0.5) / DEFAULT_LOSS_RATE
        for tr in (cdf, ode):
            assert tr.termination.kind == "norm_below_p"
            assert tr.termination.time == pytest.approx(t_end, abs=1e-6)
        by_time = dict(zip(cdf.times, cdf.positions))
        diffs = [abs(x - by_time[t]) for t, x in zip(ode.times, ode.positions)
                 if t in by_time]
        assert len(diffs) >= 25
        assert max(diffs) <= 1e-5

    def test_tunneling_matches_cdf(self, tunnel_models):
        # Bohm-style trajectory from x(0) = x_P(0) equals the CDF-inverted one.
        _, tunnel = tunnel_models
        grid = np.linspace(0.0, 6.0, 13)
        cdf = trace_trajectory_cdf(tunnel, 0.3, grid)
        ode = trace_trajectory_ode(tunnel, 0.3, 0.0, 6.0, t_eval=grid)
        by_time = dict(zip(cdf.times, cdf.positions))
        diffs = [abs(x - by_time[t]) for t, x in zip(ode.times, ode.positions)
                 if t in by_time]
        assert len(diffs) == len(grid)
        assert max(diffs) <= 1e-5

    def test_rejects_empty_span(self):
        m = free_gaussian_model(DEFAULT_PACKET)
        with pytest.raises(InvalidRange):
            trace_trajectory_ode(m, 0.5, 3.0, 3.0)


class TestSphereSeeds:
    def test_geometry(self):
        seeds = sphere_seeds((1.0, -2.0, 0.5), 3.0)
        assert seeds.shape == (26, 3)
        radii = np.linalg.norm(seeds - np.array([1.0, -2.0, 0.5]), axis=1)
        assert np.allclose(radii, 3.0, rtol=0, atol=1e-14)
        # symmetric direction set sums to zero
        assert np.allclose(seeds.mean(axis=0), [1.0, -2.0, 0.5], atol=1e-14)
        assert len({tuple(np.round(s, 12)) for s in seeds}) == 26


class TestFlowMap3D:
    def test_drift_only_translation(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(1.0, -0.5, 0.25), sigma_x0=1e6)
        field = gaussian3d_model(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 2.0)
        fm = trace_flowmap_3d(field, seeds, np.linspace(0.0, 10.0, 6))
        for i, t in enumerate(fm.times):
            expected = seeds + np.array(params.velocity) * t
            assert np.max(np.abs(fm.points_at(i) - expected)) <= 1e-6

    def test_zero_drift_spheres_stay_spheres(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        field = gaussian3d_model(params)
        r0 = 2.5
        fm = trace_flowmap_3d(field, sphere_seeds((0.0, 0.0, 0.0), r0),
                              np.linspace(0.0, 10.0, 11))
        for i, t in enumerate(fm.times):
            pts = fm.points_at(i)
            radii = np.linalg.norm(pts, axis=1)
            assert radii.std() / radii.mean() <= 1e-5
            # affine dilation factor sigma_x(t)/sigma_x0 is the exact flow
            expected = r0 * params.sigma_x(t) / params.sigma_x0
            assert radii.mean() == pytest.approx(expected, rel=1e-6)
            # paths stay radial
            dirs0 = fm.seeds / np.linalg.norm(fm.seeds, axis=1)[:, None]
            dirs = pts / radii[:, None]
            assert np.max(np.abs(dirs - dirs0)) <= 1e-8

    def test_probability_conserved_with_drift(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(2.0, 0.0, 0.0), sigma_x0=2.5)
        field = gaussian3d_model(params)
        fm = trace_flowmap_3d(field, sphere_seeds((0.0, 0.0, 0.0), 7.5),
                              np.linspace(0.0, 10.0, 6))
        assert fm.P == pytest.approx(BALL_MASS_3SIGMA, abs=1e-9)
        for i, t in enumerate(fm.times):
            mass = probability_in_volume(field, fm.points_at(i), t)
            assert mass == pytest.approx(fm.P, abs=1e-4)


class TestProbabilityInVolume:
    def test_three_sigma_ball_oracle(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(2.0, 0.0, 0.0), sigma_x0=2.5)
        field = gaussian3d_model(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 3.0 * 2.5)
        assert probability_in_volume(field, seeds, 0.0) == pytest.approx(
            BALL_MASS_3SIGMA, abs=1e-9)

    def test_whole_space_limit(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        field = gaussian3d_model(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 50.0 * 2.5)
        assert probability_in_volume(field, seeds, 0.0) == pytest.approx(1.0, abs=1e-9)
