"""Tests for quantile inversion, trajectory tracing, and 3D flow maps."""

import math
import tracemalloc
import warnings
from unittest import mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.optimize import brentq
from scipy.special import erfcinv

from quantracer import numerics, quantile, wavepacket
from quantracer.errors import InvalidRange, NormBelowP, NoSignChange, VelocitySingular
from quantracer.numerics import Tolerances, find_root_monotone, invert_tables
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
from quantracer.tunneling import retardation_scan
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    DEFAULT_PACKET_3D,
    DissipativeGaussianModel,
    FreeGaussianModel,
    Gaussian3DModel,
    Gaussian3DParams,
    GaussianPacketParams,
    SpectralPacketModel,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

from oracles import gaussian_ball_mass_offset

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

    @settings(max_examples=200, deadline=None)
    @given(log_width=st.floats(-6.0, 6.0), loss_rate=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
           fraction=st.floats(1e-9, 1.0 - 1e-9), t=st.floats(0.0, 20.0),
           x_bar=st.floats(-50.0, 50.0), v_bar=st.floats(-5.0, 5.0))
    def test_closed_form_inversion_is_certified_near_brent(self, log_width, loss_rate,
                                                           fraction, t, x_bar, v_bar):
        # A closed-form position is c + sigma_x Phi^-1(1 - P / norm), kept
        # only if the tail straddles P across x -+ delta, delta = (root_abs
        # + 4 eps |x|) / 2; otherwise it is Brent's root, to the bit.
        model = DissipativeGaussianModel(
            GaussianPacketParams(x_bar, v_bar, 10.0 ** log_width), loss_rate)
        P = fraction * model.norm(t)
        x = quantile_position(model, P, t)
        brent = find_root_monotone(lambda y: model.tail(y, t) - P, model.support_hint(t))
        delta = 0.5 * (1e-10 + 4.0 * np.finfo(float).eps * max(abs(x), abs(brent)))
        assert model.tail(x - delta, t) >= P >= model.tail(x + delta, t) or x == brent
        # A sign change lies within delta of x and within 2 delta of Brent's
        # root; farther apart, the tail rounds to P all across the gap.
        assert (abs(x - brent) <= 3.0 * delta
                or model.tail(x + math.copysign(delta, brent - x), t) == P)

    @pytest.mark.parametrize("guess", [math.nan, 1.0])
    def test_an_uncertified_closed_form_guess_falls_back_to_brent(self, guess):
        # A NaN guess is not read by the tail (which refuses NaN); a wrong
        # one fails the bracket test.  Both solve by Brent on the support hint.
        model = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        P, t = 0.3, 2.0
        with mock.patch.object(quantile, "_upper_normal_quantile", lambda p: guess):
            x = quantile_position(model, P, t)
        assert x == find_root_monotone(lambda y: model.tail(y, t) - P, model.support_hint(t))
        assert x != quantile_position(model, P, t)

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
        lockstep = quantile.lockstep_tables
        monkeypatch.setattr(quantile, "lockstep_tables",
                            lambda sources, ts, **kw: builds.extend(ts)
                            or lockstep(sources, ts, **kw))
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
        monkeypatch.setattr(quantile, "lockstep_tables", lambda *args, **kw: pytest.fail("built"))
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
        rho, kernel = tunnel.rho, wavepacket._panel_values

        def counted_rho(x, t):
            seen["points"] += np.size(x)
            return rho(x, t)

        def counted_kernel(regions, table, mids, halves):
            seen["panels"] += mids.size
            return kernel(regions, table, mids, halves)

        monkeypatch.setattr(tunnel, "rho", counted_rho)
        monkeypatch.setattr(wavepacket, "_panel_values", counted_kernel)
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
        # array: positions of shape (3, 12, 2) from one lockstep_tables call.
        _, tunnel = tunnel_models
        ts = np.linspace(0.0, 10.0, 36).reshape(3, 12)
        levels = np.array([0.02, 0.6])
        builds = []
        lockstep = quantile.lockstep_tables
        monkeypatch.setattr(quantile, "lockstep_tables",
                            lambda sources, ts, **kw: builds.append(len(ts))
                            or lockstep(sources, ts, **kw))
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


class TestTablesBuiltToTheirLevels:
    """An inversion builds each table from the hint top down, only until its
    mass reaches the highest level: the top of the whole table, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 10.0), which=st.sampled_from([0, 1]),
           levels=st.lists(st.floats(0.005, 0.995), min_size=1, max_size=3))
    def test_an_inversions_table_is_the_top_of_the_whole_table(
            self, tunnel_models, t, which, levels):
        model, solved = tunnel_models[which], []
        solve = quantile.invert_tables
        with mock.patch.object(quantile, "invert_tables",
                               lambda block, *args: solved.extend(block) or solve(block, *args)):
            quantile_position(model, levels, t)
        (built,), whole = solved, table_at(model, t)
        n = built.los.size
        assert built.upper[0] >= max(levels)
        for name in ("los", "his", "values", "nodes"):
            assert np.array_equal(getattr(built, name), getattr(whole, name)[-n:]), name
        assert np.array_equal(built.upper, whole.upper[-n - 1:])

    def test_one_level_evaluates_fewer_panels_than_the_whole_tables(self, tunnel_models,
                                                                    monkeypatch):
        # One call over three times takes at least 10 initial panels from
        # each table top first, down to the panel holding its depth (a lone
        # time takes 32, more than the stock t = 0 lattice has: there a round
        # costs more than the panels it would save).
        evaluated = []
        evaluate = numerics._eval_panels
        monkeypatch.setattr(numerics, "_eval_panels", lambda panel_f, table, los, his: (
            evaluated.append(len(los)) or evaluate(panel_f, table, los, his)))
        ts = [0.0, 5.0, 10.0]
        for model in tunnel_models:
            counts = []
            for build in (lambda: list(model.tail_tables(ts)),
                          lambda: quantile_position(model, 0.02, ts)):
                evaluated.clear()
                build()
                counts.append(sum(evaluated))
            assert 0 < counts[1] < counts[0]


    @settings(max_examples=20, deadline=None)
    @given(times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
           which=st.sampled_from([0, 1]),
           levels=st.lists(st.floats(0.005, 0.995), min_size=1, max_size=3), data=st.data())
    def test_a_depth_guess_changes_no_bit(self, tunnel_models, times, which, levels, data):
        # The first round's depth sizes the work only: at the hint top (the
        # floor alone), at the hint bottom (the whole table) or at a random
        # lattice edge per time, every position keeps the bits it has with
        # the derived depth.
        model = tunnel_models[which]
        want = quantile_position(model, levels, times).tolist()
        lattices = {t: model._lattice(t) for t in times}
        picks = {t: data.draw(st.integers(0, edges.size - 1)) for t, edges in lattices.items()}
        for guess in (lambda t: lattices[t][-1], lambda t: lattices[t][0],
                      lambda t: lattices[t][picks[t]]):
            with mock.patch.object(SpectralPacketModel, "_depths",
                                   lambda self, ts, P: [guess(t) for t in ts]):
                assert quantile_position(model, levels, times).tolist() == want

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """(table, lower edge) of every panel evaluated, batch by batch."""
        seen = []
        evaluate = numerics._eval_panels
        monkeypatch.setattr(numerics, "_eval_panels", lambda panel_f, table, los, his: (
            seen.append((np.array(table), np.array(los))) or evaluate(panel_f, table, los, his)))
        return seen

    @pytest.mark.parametrize("P", [0.01, 0.5])
    def test_free_tables_stop_at_most_one_panel_below_their_quantile(self, tunnel_models,
                                                                     evaluated, P):
        # The first round goes down to the panel holding the closed-form
        # quantile (raised by its margin): of the 21 stock tables none
        # evaluates more than one lattice panel below the quantile's.
        free, times = tunnel_models[0], np.linspace(0.0, 10.0, 21)
        xs = quantile_position(free, P, times)
        table, los = (np.concatenate(column) for column in zip(*evaluated))
        for k, t in enumerate(times.tolist()):
            edges = free._lattice(t)
            holding = np.searchsorted(edges, xs[k], "right") - 1
            assert holding - np.searchsorted(edges, los[table == k].min()) <= 1

    @pytest.mark.parametrize(("P", "most", "rounds"),
                             [(0.008, 402, 4), (0.02, 417, 4), (0.4, 614, 5), (0.55, 702, 5)])
    def test_one_level_scans_evaluate_no_more_panels_than_measured(self, tunnel_models,
                                                                   evaluated, P, most, rounds):
        # A level scanned alone over the 21 stock times on both models, as
        # the retardation benchmark does; the counts are this schedule's
        # (chunks from the hint top evaluated 566, 645, 873 and 975).  The
        # rounds (one _eval_panels call each) pin the adaptive work, so a
        # change to the pass's bookkeeping cannot move it.
        retardation_scan(*tunnel_models, [P], np.linspace(0.0, 10.0, 21))
        assert sum(los.size for _, los in evaluated) <= most
        assert len(evaluated) == rounds

    def test_spectral_free_quantiles_sit_within_3e_4_of_the_closed_form(self, tunnel_models):
        # The 6 sigma cut spectrum is another packet than the closed-form
        # Gaussian: its quantiles lie up to 2.706e-4 away (P = 0.002, t =
        # 10), the figure README and spectral_free_model state.
        levels = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.98]
        times = np.linspace(0.0, 10.0, 21)
        xs = quantile_position(tunnel_models[0], levels, times)
        want = [[closed_form_position(DEFAULT_PACKET, P, t) for P in levels] for t in times]
        assert np.max(np.abs(xs - want)) <= 3e-4


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

    def test_a_block_solves_each_pair_with_its_lone_bits(self, tunnel_models):
        # Both models' tables at three times (of different panel counts) in
        # one call, at levels that include an edge tail of one of them: each
        # (table, level) has the bits of its table's lone solve, and the
        # edge level solves at that edge.  A level above one table's mass
        # is refused for the whole block.
        tables = [table_at(model, t) for model in tunnel_models for t in (0.0, 3.5, 9.0)]
        assert len({table.los.size for table in tables}) > 2
        i = tables[4].los.size // 2
        levels = [0.003, 0.2, float(tables[4].upper[i]), 0.5, 0.97]
        block = invert_tables(tables, levels)
        for table, row in zip(tables, block):
            assert row.tobytes() == invert_tables([table], levels)[0].tobytes()
            assert row.tolist() == [invert_tables([table], [P])[0, 0] for P in levels]
            for P, x in zip(levels, row.tolist()):
                assert_certified(table, P, x)      # in bracketing_panel's panel
        assert block[4, 2] == tables[4].los[i]
        cut = next(tunnel_models[1].tail_tables(np.linspace(0.0, 10.0, 21), above=0.005))[-1]
        assert cut.total < 0.5
        with pytest.raises(NoSignChange):
            invert_tables(tables + [cut], [0.005, 0.5])

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
        monkeypatch.setattr(quantile, "lockstep_tables", lambda *args, **kw: pytest.fail("built"))
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

    def test_tunneling_trace_sums_the_whole_grid(self, tunnel_models, monkeypatch):
        # Every mode sum of the trace runs on all the grid's modes, and its
        # phase guard only compares rates: no call evaluates the bound
        # (nodes_for_phase), which thousands of rhs calls would pay for.
        _, tunnel = tunnel_models
        sums, bounds = [], []
        kernel = wavepacket._region_fields

        def counted(region, x, t):
            sums.append(region.q.size)
            return kernel(region, x, t)
        monkeypatch.setattr(wavepacket, "_region_fields", counted)
        monkeypatch.setattr(wavepacket, "nodes_for_phase", lambda *a, **k: bounds.append(a))
        trace_trajectory_ode(tunnel, 0.3, 0.0, 2.0)
        assert len(sums) > 100 and set(sums) == {tunnel.grid.size} and not bounds

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

    @pytest.mark.parametrize("ratio", [4e-4, 1e-6])
    @pytest.mark.parametrize("offset", [0.0, math.sqrt(14.0) / 2.5, 3.0])
    def test_a_small_ball_keeps_its_relative_digits(self, ratio, offset):
        # R / s = 4e-4 is a 1e-3 ball at s = 2.5.  The closed form's terms
        # cancel to O((R/s)^3) there (it read 2.9e-7 relative off at offset
        # sqrt(14) / 2.5); the small-ball series keeps the digits.
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        s = field.sigma_x(1.0)
        got = field._ball_mass(np.array([2.0 + offset * s, 0.0, 0.0]), ratio * s, 1.0)
        want = gaussian_ball_mass_offset(ratio, offset)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("d, mass", [(15.0, 3.88652287310018e-08),
                                         (25.0, 1.0061104899510884e-20)])
    def test_a_far_ball_keeps_its_relative_digits(self, d, mass):
        # R = s = 2.5, d from the packet center.  Both erf terms sit near 1
        # there: their difference read 2e-10 relative off at d = 15 and 0.0
        # at d = 25; the erfc difference keeps the digits.
        field = Gaussian3DModel(Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                                 velocity=(0.0, 0.0, 0.0), sigma_x0=2.5))
        got = field._ball_mass(np.array([0.0, d, 0.0]), 2.5, 0.0)
        assert gaussian_ball_mass_offset(1.0, d / 2.5) == pytest.approx(mass, rel=1e-15)
        assert abs(got - mass) <= 1e-13 * mass

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

    def test_refuses_an_empty_cloud(self):
        # The mean of no points is NaN: its own message, and no RuntimeWarning.
        field = Gaussian3DModel(DEFAULT_PACKET_3D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidRange, match="no points"):
                probability_in_volume(field, np.empty((0, 3)), 1.0)

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
