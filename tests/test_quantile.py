"""Tests for quantile inversion, trajectory tracing, and 3D flow maps."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.optimize import brentq
from scipy.special import erfcinv

from quantracer import quantile, wavepacket
from quantracer.errors import InvalidRange, NormBelowP, NoSignChange, VelocitySingular
from quantracer.numerics import Tolerances, find_root_monotone, invert_tables, nodes_for_phase
from quantracer.quantile import (
    DENSITY_FLOOR_REL,
    probability_in_volume,
    quantile_position,
    quantile_velocity,
    sphere_seeds,
    trace_flowmap_3d,
    trace_trajectory_cdf,
    trace_trajectory_ode,
)
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    DissipativeGaussianModel,
    FreeGaussianModel,
    Gaussian3DModel,
    Gaussian3DParams,
    SpectralPacketModel,
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


def table_at(model, t):
    """The panel table tail_tables builds for the one time t."""
    (block,) = model.tail_tables([t])
    return block[0]


def bracketing_panel(panels, P):
    """Edges of the last panel whose lower-edge tail is still >= P."""
    i = panels.upper.size - 1 - np.searchsorted(panels.upper[::-1], P)
    return panels.los[i], panels.his[i]


def assert_certified(panels, P, x, root_abs=1e-10):
    """Panels.tail straddles P across x +- (root_abs + 4 eps |x|) / 2,
    Brent's stop rule, with the tail beyond the bracketing panel read as
    that panel's edge tail, as invert_tables reads it (the next panel's
    interpolant can differ from that edge tail in its last bits)."""
    lo, hi = bracketing_panel(panels, P)
    delta = 0.5 * (root_abs + 4.0 * np.finfo(float).eps * abs(x))
    assert lo <= x <= hi
    assert panels.tail(max(x - delta, lo)) >= P >= panels.tail(min(x + delta, hi))


@pytest.fixture(scope="module")
def tunnel_models():
    spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
    return (spectral_free_model(spectrum, grid),
            tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid))


class TestTailProbability:
    def test_median_and_limits(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        assert m.tail(DEFAULT_PACKET.center(3.0), 3.0) == pytest.approx(0.5, abs=1e-14)
        assert m.tail(-math.inf, 3.0) == 1.0

    def test_dissipative_tail_limit_is_survival(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        t = 4.0
        assert m.tail(-math.inf, t) == pytest.approx(math.exp(-0.1 * t), rel=1e-14)


class TestQuantilePosition:
    def test_median_positions(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        assert quantile_position(m, 0.5, 0.0) == pytest.approx(-10.0, abs=1e-9)
        assert quantile_position(m, 0.5, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_closed_form_models(self):
        models = [FreeGaussianModel(DEFAULT_PACKET),
                  DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)]
        for m in models:
            for t in (0.0, 3.0, 7.0):
                norm = m.norm(t)
                for P in np.arange(0.05, 0.96, 0.1):
                    if P >= norm:
                        continue
                    x = quantile_position(m, float(P), t)
                    assert m.tail(x, t) == pytest.approx(P, abs=1e-8)

    def test_round_trip_near_support_hint_ends(self):
        # Closed-form models solve over their whole support hint: a level
        # far out in the right tail and one just under the lossy norm.
        free = FreeGaussianModel(DEFAULT_PACKET)
        lossy = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        for t in (0.0, 3.0, 7.0):
            x = quantile_position(free, 1e-9, t)
            assert x == pytest.approx(closed_form_position(DEFAULT_PACKET, 1e-9, t),
                                      abs=1e-9)
            assert free.tail(x, t) == pytest.approx(1e-9, rel=1e-6)
            P = lossy.norm(t) - 1e-6
            x = quantile_position(lossy, P, t)
            assert lossy.tail(x, t) == pytest.approx(P, abs=1e-12)

    def test_round_trip_spectral_models(self, tunnel_models):
        free_sp, tunnel = tunnel_models
        for m in tunnel_models:
            for t in (0.0, 5.0):
                for P in (0.1, 0.3, 0.5, 0.7, 0.9):
                    x = quantile_position(m, P, t)
                    assert m.tail(x, t) == pytest.approx(P, abs=1e-8)

    @pytest.mark.parametrize("which", ["free", "tunnel", "closed-form"])
    def test_array_of_levels_shares_one_table(self, tunnel_models, which,
                                              monkeypatch):
        # Every level of an array call reads one table and solves as a
        # scalar call does, so the positions are the same bits.
        model = {"free": tunnel_models[0], "tunnel": tunnel_models[1],
                 "closed-form": FreeGaussianModel(DEFAULT_PACKET)}[which]
        levels = np.array([[0.005, 0.02, 0.3], [0.5, 0.7, 0.95]])
        t = 7.5
        scalar = [quantile_position(model, P, t) for P in levels.ravel().tolist()]
        assert all(type(x) is float for x in scalar)
        builds = []
        tail_tables = SpectralPacketModel.tail_tables
        monkeypatch.setattr(SpectralPacketModel, "tail_tables",
                            lambda self, ts: builds.extend(ts) or tail_tables(self, ts))
        xs = quantile_position(model, levels, t)
        assert xs.shape == levels.shape
        assert xs.ravel().tolist() == scalar
        assert builds == ([] if which == "closed-form" else [t])

    @pytest.mark.parametrize("levels", [[0.3, 1.2], [0.3, math.nan], [0.0, 0.5],
                                        [[0.2], [-0.1]]])
    def test_array_with_a_bad_level_raises(self, tunnel_models, levels):
        for model in (tunnel_models[1], FreeGaussianModel(DEFAULT_PACKET)):
            with pytest.raises(InvalidRange):
                quantile_position(model, levels, 1.0)
        with pytest.raises(InvalidRange):
            quantile_position(tunnel_models[1], math.nan, 1.0)

    @pytest.mark.parametrize("levels", [[], np.empty((2, 0))])
    def test_no_level_reads_no_norm_and_builds_no_table(self, tunnel_models, levels,
                                                        monkeypatch):
        def refuse(self, t):
            raise AssertionError("an empty level list read the model")
        for name in ("norm", "tail_tables"):
            monkeypatch.setattr(SpectralPacketModel, name, refuse)
        xs = quantile_position(tunnel_models[1], levels, 1.0)
        assert xs.shape == np.shape(levels)

    @settings(max_examples=40, deadline=None)
    @given(P=st.floats(0.001, 0.999), t=st.sampled_from([0.0, 5.0, 10.0]),
           which=st.sampled_from([0, 1]))
    def test_table_solve_is_certified_near_scipy_brentq(self, tunnel_models, P, t, which):
        # The batched table solve keeps Brent's stop rule as a certificate
        # and lands within root_abs of brentq on the bracketing panel.
        model = tunnel_models[which]
        panels = table_at(model, t)
        x = quantile_position(model, P, t)
        assert_certified(panels, P, x)
        lo, hi = bracketing_panel(panels, P)
        expected = brentq(lambda x: panels.tail(x) - P, lo, hi, xtol=1e-10,
                          rtol=4 * np.finfo(float).eps, maxiter=200)
        assert abs(x - expected) <= 1e-10

    def test_guess_matches_fresh_inversion(self, tunnel_models):
        # A root of the independent tail() bracketed around the table root
        # is the second path.
        _, tunnel = tunnel_models
        t = 5.0
        fresh = quantile_position(tunnel, 0.4, t)
        direct = find_root_monotone(lambda x: tunnel.tail(x, t) - 0.4,
                                    (fresh - 1.5, fresh + 1.5))
        assert direct == pytest.approx(fresh, abs=1e-6)

    def test_inversion_field_budget(self, tunnel_models, monkeypatch):
        # One table (factored panel kernel); each probe integrates its
        # panel's 21-node interpolant, so no pointwise point is evaluated.
        # Re-running an adaptive interval mass per probe spent ~1e4
        # pointwise points on this inversion, a partial panel per probe ~110.
        _, tunnel = tunnel_models
        seen = {"points": 0, "panels": 0}
        rho, panel_rho = tunnel.rho, tunnel._panel_rho

        def counted_rho(x, t):
            seen["points"] += np.size(x)
            return rho(x, t)

        def counted_panel_rho(ts, coeffs=None):
            values = panel_rho(ts, coeffs)

            def counted(table, mids, halves):
                seen["panels"] += mids.size
                return values(table, mids, halves)
            return counted

        monkeypatch.setattr(tunnel, "rho", counted_rho)
        monkeypatch.setattr(tunnel, "_panel_rho", counted_panel_rho)
        x = quantile_position(tunnel, 0.01, 10.0)
        assert x > DEFAULT_BARRIER.half_width
        assert seen["points"] == 0
        assert seen["panels"] <= 150      # measured 71

    @pytest.mark.parametrize("t", [0.0, 5.0, 10.0])
    def test_probe_is_continuous_at_panel_edges(self, tunnel_models, t):
        # At an edge the probe reads the panel below at its top; just above
        # it, the panel above integrates its whole interpolant.
        for model in tunnel_models:
            panels = table_at(model, t)
            bound = 1e-15 * model.norm(t)
            for i, edge in enumerate(np.append(panels.los, panels.his[-1])):
                assert abs(panels.tail(float(edge)) - panels.upper[i]) <= bound
            for i, edge in enumerate(panels.los):
                above = float(np.nextafter(edge, math.inf))
                assert abs(panels.tail(above) - panels.upper[i]) <= bound

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
            panels = table_at(model, t)
            lo, hi = model.support_hint(t)
            xs = np.concatenate([rng.uniform(lo, hi, 6),
                                 rng.normal(model.spectrum.x_bar + 2.0 * t,
                                            model.spread(t), 6),
                                 [-a, a, -8.558, lo, hi]])
            for x in xs:
                assert abs(panels.tail(float(x)) - reference.tail(float(x), t)) <= 1e-12
                assert abs(panels.tail(float(x)) - model.tail(float(x), t)) <= 1e-12

    def test_norm_below_p(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        # survival at t=8 is exp(-0.8) ~ 0.449 < 0.5
        with pytest.raises(NormBelowP):
            quantile_position(m, 0.5, 8.0)

    def test_rejects_bad_p(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises((InvalidRange, NormBelowP)):
                quantile_position(m, bad, 1.0)

    @pytest.mark.parametrize("P, t", [([[0.2], [0.1, 0.3]], 1.0),
                                      (0.3, [[0.0], [1.0, 2.0]])])
    def test_ragged_levels_or_times_are_invalid(self, P, t):
        with pytest.raises(InvalidRange) as exc:
            quantile_position(FreeGaussianModel(DEFAULT_PACKET), P, t)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("t", [math.inf, math.nan, [1.0, -math.inf]])
    def test_refuses_a_non_finite_time(self, tunnel_models, t):
        # Refused up front for every model: a closed form would say "tail
        # position is NaN" and a spectral table would overflow.
        for m in (FreeGaussianModel(DEFAULT_PACKET),
                  DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE),
                  *tunnel_models):
            with pytest.raises(InvalidRange, match="finite"):
                quantile_position(m, 0.3, t)

    @pytest.mark.parametrize("which", ["free", "tunnel", "closed-form"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_array_of_times_equals_one_time_calls(self, tunnel_models, which, data):
        # Random sorted time sets of 1 to 40 times, so that some cross a
        # 32-time table block edge; each time keeps its one-time bits.
        model = {"free": tunnel_models[0], "tunnel": tunnel_models[1],
                 "closed-form": FreeGaussianModel(DEFAULT_PACKET)}[which]
        n = data.draw(st.integers(1, 40))
        ts = sorted(set(data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))))
        levels = np.array(data.draw(st.lists(st.floats(0.005, 0.995), min_size=1, max_size=3)))
        xs = quantile_position(model, levels, ts)
        assert xs.shape == (len(ts), levels.size)
        assert xs.tolist() == [quantile_position(model, levels, t).tolist() for t in ts]
        assert xs[0, 0] == quantile_position(model, float(levels[0]), ts[0])

    def test_array_of_times_keeps_its_shape(self, tunnel_models, monkeypatch):
        # A (3, 12) time array across a table block edge, with a (2,) level
        # array: positions of shape (3, 12, 2) from one tail_tables call.
        _, tunnel = tunnel_models
        ts = np.linspace(0.0, 10.0, 36).reshape(3, 12)
        levels = np.array([0.02, 0.6])
        builds = []
        tail_tables = SpectralPacketModel.tail_tables
        monkeypatch.setattr(SpectralPacketModel, "tail_tables",
                            lambda self, ts: builds.append(len(ts)) or tail_tables(self, ts))
        xs = quantile_position(tunnel, levels, ts)
        assert xs.shape == (3, 12, 2) and builds == [36]
        assert xs[2, 11].tolist() == quantile_position(tunnel, levels, 10.0).tolist()
        assert quantile_position(tunnel, levels, np.empty((2, 0))).shape == (2, 0, 2)

    def test_lossy_array_of_times_stops_at_the_first_time_below_a_level(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        # The norm exp(-0.1 t) falls to 0.5 at t = 6.93; the times need not be sorted.
        with pytest.raises(NormBelowP) as raised:
            quantile_position(m, [0.3, 0.5], [1.0, 6.0, 9.0, 8.0, 2.0])
        assert raised.value.t_end == 9.0


class TestTableSolve:
    """invert_tables: every (table, level) in one batched in-panel solve."""

    @settings(max_examples=25, deadline=None)
    @given(levels=st.lists(st.floats(0.0005, 0.9995), min_size=1, max_size=4),
           times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
           which=st.sampled_from([0, 1]))
    def test_random_pairs_certified_near_brentq_with_their_lone_bits(
            self, tunnel_models, levels, times, which):
        model = tunnel_models[which]
        xs = quantile_position(model, levels, times)
        assert xs.shape == (len(times), len(levels))
        for t, row in zip(times, xs.tolist()):
            panels = table_at(model, t)
            for P, x in zip(levels, row):
                assert_certified(panels, P, x)
                lo, hi = bracketing_panel(panels, P)
                oracle = brentq(lambda x: panels.tail(x) - P, lo, hi, xtol=1e-10,
                                rtol=4 * np.finfo(float).eps, maxiter=200)
                assert abs(x - oracle) <= 1e-10
                assert invert_tables([panels], [P])[0, 0] == x
                assert quantile_position(model, P, t) == x

    @pytest.mark.parametrize("which", [0, 1])
    def test_level_at_an_edge_tail_returns_that_edge(self, tunnel_models, which):
        panels = table_at(tunnel_models[which], 5.0)
        # The first panel's edge, an inner one, and the last panel's.
        picks = [0, panels.los.size // 2, panels.los.size - 1]
        xs = invert_tables([panels], panels.upper[picks])[0]
        for i, P, x in zip(picks, panels.upper[picks], xs):
            assert_certified(panels, P, x)
            assert abs(x - panels.los[i]) <= 1e-10

    @pytest.mark.parametrize("which", [0, 1])
    def test_first_and_last_panels(self, tunnel_models, which):
        panels = table_at(tunnel_models[which], 10.0)
        levels = [0.5 * (panels.upper[0] + panels.upper[1]),
                  0.5 * panels.upper[-2], panels.upper[-2] * 1e-3]
        xs = invert_tables([panels], levels)[0]
        assert panels.los[0] < xs[0] < panels.his[0]
        assert panels.los[-1] < xs[1] < xs[2] < panels.his[-1]
        for P, x in zip(levels, xs):
            assert_certified(panels, P, x)

    @pytest.mark.parametrize("jump", [-1e-9, 1e-9])
    def test_levels_inside_a_jump_of_the_tail_at_a_panel_edge(self, tunnel_models, jump):
        # Just above its lower edge a panel's interpolant tail may differ from
        # the edge tail upper[i] (here by rounding only; a GL15 value is the
        # exact integral of the degree-20 interpolant), so Panels.tail can
        # jump there.  With a planted jump, a level inside it solves where
        # brentq does, certified in its bracketing panel: at the edge when
        # the jump is down, where the panel below crosses it when up.
        panels = table_at(tunnel_models[1], 5.0)
        i = panels.los.size // 2
        panels = replace(panels, upper=np.concatenate([panels.upper[:i + 1] - jump,
                                                       panels.upper[i + 1:]]))
        inside = panels.tail(np.nextafter(panels.los[i], panels.his[i]))
        assert (inside > panels.upper[i]) == (jump > 0)
        P = 0.5 * (inside + panels.upper[i])
        x = invert_tables([panels], [P])[0, 0]
        assert_certified(panels, P, x)
        lo, hi = bracketing_panel(panels, P)
        assert (lo == panels.los[i]) == (jump < 0)
        oracle = brentq(lambda x: panels.tail(x) - P, lo, hi, xtol=1e-10,
                        rtol=4 * np.finfo(float).eps, maxiter=200)
        assert abs(x - oracle) <= 1e-10
        if jump < 0:
            assert abs(x - panels.los[i]) <= 1e-10

    def test_level_above_the_table_raises_no_sign_change(self, tunnel_models):
        _, tunnel = tunnel_models
        panels = table_at(tunnel, 5.0)
        P = float(np.nextafter(panels.upper[0], 1.0))
        with pytest.raises(NoSignChange):
            invert_tables([panels], [0.3, P])
        with pytest.raises(NoSignChange):
            quantile_position(tunnel, P, 5.0)
        with pytest.raises(NoSignChange):
            invert_tables([panels], [0.0])

    def test_no_table_or_no_level_solves_nothing(self, tunnel_models):
        panels = table_at(tunnel_models[0], 1.0)
        assert invert_tables([], [0.3]).shape == (0, 1)
        assert invert_tables([panels] * 2, []).shape == (2, 0)


class TestQuantileVelocity:
    def test_mean_velocity_at_center(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        for t in (0.0, 2.0, 9.0):
            v = quantile_velocity(m, DEFAULT_PACKET.center(t), t)
            assert v == pytest.approx(2.0, abs=1e-12)

    def test_matches_closed_form_field(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        p = DEFAULT_PACKET
        t = 4.0
        for x in np.linspace(-20.0, 5.0, 11):
            expected = p.v_bar + p.sigma_v ** 2 * t * (x - p.center(t)) / p.sigma_x(t) ** 2
            assert quantile_velocity(m, float(x), t) == pytest.approx(expected, rel=1e-10)

    def test_dissipative_integro_differential_form(self):
        # v = j/rho - loss_tail/rho; the survival factor cancels, so it also
        # equals the free velocity minus loss_rate * free_tail / free_rho.
        lossy = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        free = FreeGaussianModel(DEFAULT_PACKET)
        t = 3.0
        for x in (-14.0, -9.0, -2.0):
            v = quantile_velocity(lossy, x, t)
            expected = (float(free.current(x, t))
                        - DEFAULT_LOSS_RATE * free.tail(x, t)) / float(free.rho(x, t))
            assert v == pytest.approx(expected, rel=1e-12)

    def test_density_floor_raises(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        with pytest.raises(VelocitySingular):
            quantile_velocity(m, -10.0 + 40.0 * 2.5, 0.0)


class TestTraceTrajectoryCdf:
    def test_median_is_straight_line(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        traj = trace_trajectory_cdf(m, 0.5, grid)
        assert np.max(np.abs(traj.positions - (-10.0 + 2.0 * grid))) <= 1e-8
        assert np.max(np.abs(traj.velocities - 2.0)) <= 1e-8
        assert traj.termination.kind == "completed"

    def test_matches_closed_form_all_p(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        for P in (0.1, 0.3, 0.5, 0.7, 0.9):
            traj = trace_trajectory_cdf(m, P, grid)
            ref = [closed_form_position(DEFAULT_PACKET, P, t) for t in grid]
            vref = [closed_form_velocity(DEFAULT_PACKET, P, t) for t in grid]
            assert np.max(np.abs(traj.positions - ref)) <= 1e-6
            assert np.max(np.abs(traj.velocities - vref)) <= 1e-6

    def test_trajectories_do_not_cross(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        grid = np.linspace(0.0, 12.0, 25)
        trajs = [trace_trajectory_cdf(m, P, grid) for P in (0.2, 0.4, 0.6, 0.8)]
        for lower, upper in zip(trajs[1:], trajs[:-1]):
            # larger P sits further left at every time
            assert np.all(upper.positions - lower.positions > 0.0)

    def test_dissipative_termination_time(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        grid = np.linspace(0.0, 20.0, 81)
        traj = trace_trajectory_cdf(m, 0.3, grid)
        t_end = -math.log(0.3) / DEFAULT_LOSS_RATE
        assert traj.termination.kind == "norm_below_p"
        assert traj.termination.time == pytest.approx(t_end, abs=1e-6)
        assert traj.times[-1] < t_end
        assert np.all(np.diff(traj.times) > 0.0)

    def test_rejects_start_below_norm(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        with pytest.raises(NormBelowP):
            trace_trajectory_cdf(m, 0.9, np.linspace(2.0, 5.0, 4))

    def test_rejects_unsorted_grid(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        with pytest.raises(InvalidRange):
            trace_trajectory_cdf(m, 0.5, np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("t_grid", [[0.0, math.nan], [math.nan], [0.0, math.inf],
                                        [[0.0], [1.0, 2.0]]])
    def test_rejects_a_non_finite_or_ragged_grid(self, t_grid):
        with pytest.raises(InvalidRange, match="t_grid"):
            trace_trajectory_cdf(FreeGaussianModel(DEFAULT_PACKET), 0.5, t_grid)

    def test_tracers_refuse_ragged_levels(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        with pytest.raises(InvalidRange, match="regular array"):
            trace_trajectory_cdf(m, [[0.2], [0.1, 0.3]], np.linspace(0.0, 10.0, 3))
        with pytest.raises(InvalidRange, match="regular array"):
            trace_trajectory_ode(m, [[0.2], [0.1, 0.3]], 0.0, 10.0)

    @pytest.mark.parametrize("P", [np.array([0.3, 0.5]), [0.3, 0.5], [0.3]])
    def test_tracers_refuse_more_than_one_level(self, P):
        for m in (FreeGaussianModel(DEFAULT_PACKET),
                  DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)):
            with pytest.raises(InvalidRange, match="one level") as cdf:
                trace_trajectory_cdf(m, P, np.linspace(0.0, 10.0, 3))
            with pytest.raises(InvalidRange, match="one level") as ode:
                trace_trajectory_ode(m, P, 0.0, 10.0)
            assert "\n" not in str(cdf.value) + str(ode.value)

    @pytest.mark.parametrize("P", [0.0, -0.1, 1.0, math.nan])
    def test_rejects_a_level_before_building_tables(self, tunnel_models, monkeypatch, P):
        _, tunnel = tunnel_models
        monkeypatch.setattr(type(tunnel), "tail_tables", lambda *args: pytest.fail("built"))
        with pytest.raises(InvalidRange):
            trace_trajectory_cdf(tunnel, P, np.linspace(0.0, 10.0, 41))


class TestTraceTrajectoryOde:
    def test_free_matches_closed_form(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        grid = np.linspace(0.0, 20.0, 41)
        for P in (0.1, 0.5, 0.9):
            traj = trace_trajectory_ode(m, P, 0.0, 20.0, t_eval=grid)
            ref = [closed_form_position(DEFAULT_PACKET, P, t) for t in traj.times]
            assert np.max(np.abs(traj.positions - ref)) <= 1e-5
            assert traj.termination.kind == "completed"

    def test_dissipative_matches_cdf_until_termination(self):
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
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

    def test_tunneling_trace_sums_the_smallest_admissible_rung(self, tunnel_models,
                                                                monkeypatch):
        # Every mode sum of the trace uses the smallest Gauss-Legendre rung
        # (64 * 2^j nodes below the grid's, then the grid) with the nodes
        # the phase guard asks for at its |x| and t: a fall-back to the
        # whole grid at every point fails here, and so does a rung below
        # what the guard asks for.
        _, tunnel = tunnel_models
        grid, x_bar = tunnel.grid, tunnel.spectrum.x_bar
        ladder = [64, 128, 256, grid.size]
        sums = []
        kernel = wavepacket._region_fields

        def counted(region, x, t, waves):
            sums.append((float(np.max(np.abs(x))), t, waves[3].size))
            return kernel(region, x, t, waves)
        monkeypatch.setattr(wavepacket, "_region_fields", counted)
        trace_trajectory_ode(tunnel, 0.3, 0.0, 2.0)
        assert len(sums) > 100
        for x, t, modes in sums:
            needed = nodes_for_phase(x + abs(x_bar) + grid.k_max * t,
                                     grid.k_min, grid.k_max, minimum=1)
            assert modes == min(n for n in ladder if n >= needed)
        assert max(modes for *_, modes in sums) < grid.size

    @pytest.mark.parametrize("t_eval, floor_rel", [
        (None, DENSITY_FLOOR_REL), (np.linspace(0.0, 4.0, 17), DENSITY_FLOOR_REL),
        (None, 0.2)], ids=["steps", "t_eval", "floor"])
    def test_sample_velocities_reuse_the_rhs_fields(self, tunnel_models, monkeypatch,
                                                    t_eval, floor_rel):
        # A sample's velocity takes the (rho, j) of the rhs call made at its
        # exact (t, x) -- a segment's anchor or an accepted step end -- and
        # only samples no rhs call saw (t_eval points, event stops,
        # re-anchors that stall at once) get a field call of their own.
        _, tunnel = tunnel_models
        rhs_points, field_points = [], []
        integrate = quantile.integrate_ode

        def counted_integrate(rhs, *args, **kwargs):
            return integrate(lambda t, y: rhs_points.append((t, float(y[0]))) or rhs(t, y),
                             *args, **kwargs)
        fields = tunnel.density_and_current

        def counted_fields(x, t):
            field_points.append((float(t), float(x)))
            return fields(x, t)
        monkeypatch.setattr(quantile, "integrate_ode", counted_integrate)
        monkeypatch.setattr(tunnel, "density_and_current", counted_fields)
        traj = trace_trajectory_ode(tunnel, 0.35, 0.0, 4.0, t_eval=t_eval,
                                    floor_rel=floor_rel)
        monkeypatch.undo()
        seen = set(rhs_points)
        unseen = [s for s in zip(traj.times.tolist(), traj.positions.tolist())
                  if s not in seen]
        assert len(field_points) == len(rhs_points) + len(unseen)
        assert sorted(set(field_points) - seen) == sorted(unseen)
        if t_eval is None and floor_rel == DENSITY_FLOOR_REL:
            assert traj.floor_episodes == 0 and not unseen
        else:
            assert unseen
        if floor_rel != DENSITY_FLOOR_REL:
            assert traj.floor_episodes >= 1
        for t, x, v in zip(traj.times, traj.positions, traj.velocities):
            try:
                expected = quantile_velocity(tunnel, x, t, floor_rel=floor_rel)
            except VelocitySingular:
                expected = math.nan
            assert float(v).hex() == float(expected).hex()

    @pytest.mark.parametrize("P", [0.23, 0.5, 0.81])
    def test_lossy_trace_stops_at_its_last_sample(self, monkeypatch, P):
        # No rhs call lies past the last sample at or before the norm
        # crossing; the path is the one a trace ending there integrates,
        # and the termination keeps the exact crossing beyond it.
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        grid = np.linspace(0.0, 20.0, 41)
        t_end = -math.log(P) / DEFAULT_LOSS_RATE
        last = float(grid[grid <= t_end][-1])
        rhs_times = []
        integrate = quantile.integrate_ode

        def counted_integrate(rhs, *args, **kwargs):
            return integrate(lambda t, y: rhs_times.append(t) or rhs(t, y),
                             *args, **kwargs)
        monkeypatch.setattr(quantile, "integrate_ode", counted_integrate)
        traj = trace_trajectory_ode(m, P, 0.0, 20.0, t_eval=grid)
        monkeypatch.undo()
        assert rhs_times and max(rhs_times) <= last
        assert traj.times[-1] == last
        assert traj.termination.kind == "norm_below_p"
        assert traj.termination.time == pytest.approx(t_end, abs=1e-9)
        unsampled = trace_trajectory_ode(m, P, 0.0, 20.0)
        assert traj.termination == unsampled.termination
        short = trace_trajectory_ode(m, P, 0.0, last, t_eval=grid)
        assert short.termination.kind == "completed"
        for a, b in ((traj.times, short.times), (traj.positions, short.positions),
                     (traj.velocities, short.velocities)):
            assert a.tobytes() == b.tobytes()

    def test_trace_without_samples_runs_to_the_crossing(self):
        # Without t_eval the path still ends just short of the crossing.
        m = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        traj = trace_trajectory_ode(m, 0.5, 0.0, 20.0)
        t_end = traj.termination.time
        assert t_end == pytest.approx(-math.log(0.5) / DEFAULT_LOSS_RATE, abs=1e-9)
        assert t_end - 1e-8 < traj.times[-1] < t_end

    def test_rejects_empty_span(self):
        m = FreeGaussianModel(DEFAULT_PACKET)
        with pytest.raises(InvalidRange):
            trace_trajectory_ode(m, 0.5, 3.0, 3.0)

    def test_rejects_a_nan_end(self):
        # It used to return the one sample at t0 as a completed trace.
        with pytest.raises(InvalidRange, match="t1 must exceed t0"):
            trace_trajectory_ode(FreeGaussianModel(DEFAULT_PACKET), 0.5, 0.0, math.nan)

    @pytest.mark.parametrize("P, floor_rel", [(0.35, 0.2), (0.017, 0.02)])
    def test_floor_reanchoring_reaches_the_end(self, tunnel_models, P, floor_rel):
        # A high floor makes re-anchored paths stop at their own start; the
        # skip doubles until it escapes, and a skip past t1 re-anchors there.
        _, tunnel = tunnel_models
        traj = trace_trajectory_ode(tunnel, P, 0.0, 10.0, floor_rel=floor_rel)
        assert traj.termination.kind == "completed"
        assert traj.times[-1] == 10.0
        assert 1 <= traj.floor_episodes < 100
        gaps = [abs(tunnel.tails([x], t)[0] - P)
                for t, x in zip(traj.times, traj.positions)]
        assert max(gaps) <= 1e-6


class TestSphereSeeds:
    def test_geometry(self):
        seeds = sphere_seeds((1.0, -2.0, 0.5), 3.0)
        assert seeds.shape == (26, 3)
        radii = np.linalg.norm(seeds - np.array([1.0, -2.0, 0.5]), axis=1)
        assert np.allclose(radii, 3.0, rtol=0, atol=1e-14)
        # symmetric direction set sums to zero
        assert np.allclose(seeds.mean(axis=0), [1.0, -2.0, 0.5], atol=1e-14)
        assert len({tuple(np.round(s, 12)) for s in seeds}) == 26

    @pytest.mark.parametrize("center", [(1.0, -2.0, 0.5), (-0.0, 1.5, -0.0)])
    def test_points_in_order(self, center):
        # The sphere3d CSV's seed_id is this order.  Zeros of the directions
        # are +0.0, so a -0.0 centre component reads +0.0 on every seed.
        signs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
                 (1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0),
                 (0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1),
                 (1, 0, 1), (-1, 0, 1), (1, 0, -1), (-1, 0, -1),
                 (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                 (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)]
        radius = 3.0
        expected = np.array([[c + radius * (s / math.sqrt(sum(map(abs, d))))
                              for c, s in zip(center, d)] for d in signs])
        assert sphere_seeds(center, radius).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("center, radius", [
        ((0.0, 0.0, 0.0), math.nan), ((0.0, 0.0, 0.0), math.inf),
        ((0.0, 0.0, 0.0), 0.0), ((0.0, math.nan, 0.0), 1.0), ((math.inf, 0.0, 0.0), 1.0),
    ])
    def test_refuses_a_non_finite_sphere(self, center, radius):
        with pytest.raises(InvalidRange):
            sphere_seeds(center, radius)


class TestFlowMap3D:
    def test_drift_only_translation(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(1.0, -0.5, 0.25), sigma_x0=1e6)
        field = Gaussian3DModel(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 2.0)
        fm = trace_flowmap_3d(field, seeds, np.linspace(0.0, 10.0, 6))
        for i, t in enumerate(fm.times):
            expected = seeds + np.array(params.velocity) * t
            assert np.max(np.abs(fm.points_at(i) - expected)) <= 1e-6

    def test_zero_drift_spheres_stay_spheres(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        field = Gaussian3DModel(params)
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

    @pytest.mark.parametrize("times", [[0.0, 1.0, math.nan], [math.nan, 1.0],
                                       [0.0, math.inf]])
    def test_refuses_a_non_finite_time_in_one_line(self, times):
        # The refusal names no state vector (26 seeds are 78 numbers).
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        with pytest.raises(InvalidRange) as exc:
            trace_flowmap_3d(field, sphere_seeds((0.0, 0.0, 0.0), 2.5), times)
        assert "\n" not in str(exc.value) and len(str(exc.value)) < 120

    @pytest.mark.parametrize("seeds, times", [
        (sphere_seeds((0.0, 0.0, 0.0), 2.5), [[0.0, 1.0], [2.0]]),
        (sphere_seeds((0.0, 0.0, 0.0), 2.5), [0.0]),
        (sphere_seeds((0.0, 0.0, 0.0), 2.5), [[0.0, 1.0]]),
        (sphere_seeds((0.0, 0.0, 0.0), 2.5), [1.0, 0.5]),
        ([[0.0, 0.0, 1.0], [1.0, 0.0]], [0.0, 1.0]),
    ], ids=["ragged-grid", "one-time", "2-d-grid", "decreasing", "ragged-seeds"])
    def test_refuses_a_bad_grid_or_seed_cloud_in_one_line(self, seeds, times):
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        with pytest.raises(InvalidRange) as exc:
            trace_flowmap_3d(field, seeds, times)
        assert "\n" not in str(exc.value) and len(str(exc.value)) < 120

    def test_probability_conserved_with_drift(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(2.0, 0.0, 0.0), sigma_x0=2.5)
        field = Gaussian3DModel(params)
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
        field = Gaussian3DModel(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 3.0 * 2.5)
        assert probability_in_volume(field, seeds, 0.0) == pytest.approx(
            BALL_MASS_3SIGMA, abs=1e-9)

    def test_whole_space_limit(self):
        params = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                  velocity=(0.0, 0.0, 0.0), sigma_x0=2.5)
        field = Gaussian3DModel(params)
        seeds = sphere_seeds((0.0, 0.0, 0.0), 50.0 * 2.5)
        assert probability_in_volume(field, seeds, 0.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.fixture(scope="class")
    def fig3_flows(self):
        # The sphere3d fig3 preset and verify's 3 sigma sphere.
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        times = np.arange(0.0, 11.0)
        return field, [trace_flowmap_3d(field, sphere_seeds((0.0, 0.0, 0.0), r), times)
                       for r in (2.5, 7.5)]

    @staticmethod
    def _oracle(radius, d, s):
        # The mass in a ball of this radius whose center sits d from the
        # packet center, by dblquad over the radius r and mu = cos(theta)
        # about the offset axis; the radial range is cut at d and d +- 8s.
        def integrand(mu, r):
            r2 = (r - d) ** 2 + 2.0 * r * d * (1.0 - mu)
            return (2.0 * math.pi * r * r * math.exp(-0.5 * r2 / s ** 2)
                    / (2.0 * math.pi * s * s) ** 1.5)
        cuts = sorted({0.0, radius, *(min(radius, max(0.0, d + k * s))
                                      for k in (-8.0, 0.0, 8.0))})
        return sum(dblquad(integrand, a, b, -1.0, 1.0, epsabs=1e-16, epsrel=1e-13)[0]
                   for a, b in zip(cuts, cuts[1:]))

    def test_closed_form_matches_a_quadrature_oracle(self, fig3_flows):
        # The fig3 flows at every time, then off-centre, far (d >> R),
        # enclosing (R >> d), centred (d = 0) and tiny balls.
        field, flows = fig3_flows
        balls = [(flow.points_at(i), float(t)) for flow in flows
                 for i, t in enumerate(flow.times)]
        balls += [(sphere_seeds(center, radius), t) for center, radius, t in [
            ((40.0, 0.0, 0.0), 30.0, 3.0), ((10.0, 5.0, 0.0), 30.0, 0.0),
            ((20.0, 0.0, 0.0), 2.5, 10.0), ((200.0, 0.0, 0.0), 1.0, 0.0),
            ((0.0, 100.0, 0.0), 10.0, 3.0), ((6.0, 0.0, 0.0), 200.0, 3.0),
            ((0.0, 0.0, 0.0), 200.0, 10.0), ((20.0, 0.0, 0.0), 7.5, 10.0),
            ((1.0, 2.0, 3.0), 1e-3, 0.0), ((6.0, 0.0, 0.0), 1e-3, 3.0)]]
        for points, t in balls:
            center = points.mean(axis=0)
            radius = float(np.linalg.norm(points - center, axis=1).mean())
            d = float(np.linalg.norm(center - np.array([2.0 * t, 0.0, 0.0])))
            got = probability_in_volume(field, points, t)
            assert 0.0 <= got <= 1.0
            assert abs(got - self._oracle(radius, d, field.sigma_x(t))) <= 1e-13

    @pytest.mark.parametrize("width", [1e-170, 1e-300])
    def test_a_width_whose_square_underflows_is_refused(self, width):
        # sigma_x(0)^2 = 0: a = R d / s^2 raised ZeroDivisionError.
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=width))
        with pytest.raises(InvalidRange, match="not a positive float"):
            probability_in_volume(field, sphere_seeds((0.0, 0.0, 0.0), 1.0), 0.0)

    @pytest.mark.parametrize("radius", [1e150, 1e100, 1e10])
    def test_a_ball_far_wider_than_the_packet_holds_all_of_it(self, radius):
        # R / s overflows (1e150 / 1e-160) or its square does: the second
        # term is 0 there, not inf * 0 (NaN) or an OverflowError.
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(0.0, 0.0, 0.0), sigma_x0=1e-160))
        assert probability_in_volume(field, sphere_seeds((0.0, 0.0, 0.0), radius), 0.0) == 1.0

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (5.0, -3.0, 1.0)])
    def test_zero_radius_encloses_exactly_nothing(self, center):
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        points = np.tile(center, (26, 1))
        assert probability_in_volume(field, points, 1.0) == 0.0

    def test_shell_memory_is_bounded(self, fig3_flows):
        # The closed form allocates only the point cloud's own arrays.
        field, flows = fig3_flows
        points = flows[0].points_at(10)
        tracemalloc.start()
        try:
            probability_in_volume(field, points, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20

    @pytest.mark.parametrize("value, t", [(math.nan, 1.0), (math.inf, 1.0),
                                          (0.0, math.nan)],
                             ids=["nan-point", "inf-point", "nan-time"])
    def test_refuses_non_finite_input(self, value, t):
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        points = sphere_seeds((0.0, 0.0, 0.0), 2.5)
        points[0, 0] += value
        with pytest.raises(InvalidRange):
            probability_in_volume(field, points, t)
