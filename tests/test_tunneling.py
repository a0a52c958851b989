"""Tests for the tunneling retardation operations."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import square_barrier_transmission
from quantracer import numerics, quantile, tunneling
from quantracer.cli import PRESETS
from quantracer.errors import GridTooCoarse, InvalidRange
from quantracer.numerics import build_kgrid
from quantracer.quantile import quantile_position
from quantracer.tunneling import (
    DeltaPReport,
    _term_weights,
    default_delta_p_grid,
    delta_p_decomposed,
    delta_p_direct,
    delta_p_report,
    packet_transmission_probability,
    retardation_scan,
)
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_PACKET,
    BarrierSpec,
    FreeGaussianModel,
    GaussianPacketParams,
    SpectralPacketModel,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

# sum of grid weights * |T|^2 |psi~|^2 on the default Fig.-2 style setup;
# cross-checked below against a QUADPACK integral of the textbook formula
PACKET_TRANSMISSION_FIG2 = 0.0215820607108841


@pytest.fixture(scope="module")
def fig2():
    spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
    free = spectral_free_model(spectrum, grid)
    tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
    return spectrum, grid, free, tunnel


@pytest.fixture(scope="module")
def zero_barrier(fig2):
    spectrum, grid, free, _ = fig2
    barrier = BarrierSpec(height=0.0, half_width=DEFAULT_BARRIER.half_width)
    return tunneling_packet_model(spectrum, barrier, grid)


class TestDeltaPDirect:
    def test_zero_barrier_vanishes(self, fig2, zero_barrier):
        _, _, free, _ = fig2
        for x, t in [(1.0, 0.0), (1.0, 5.0), (3.0, 8.0)]:
            assert abs(delta_p_direct(free, zero_barrier, x, t)) <= 1e-8

    def test_far_field_zero(self, fig2):
        _, _, free, tunnel = fig2
        assert abs(delta_p_direct(free, tunnel, 30.0, 0.0)) <= 1e-10

    def test_nonnegative_in_transmission_region(self, fig2):
        _, _, free, tunnel = fig2
        for x in (0.5, 1.7, 2.9, 5.0):
            for t in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0):
                assert delta_p_direct(free, tunnel, x, t) >= -1e-6

    def test_rejects_x_inside_barrier(self, fig2):
        _, _, free, tunnel = fig2
        with pytest.raises(InvalidRange):
            delta_p_direct(free, tunnel, 0.2, 1.0)

    def test_rejects_foreign_free_model(self, fig2):
        _, _, _, tunnel = fig2
        with pytest.raises(InvalidRange):
            delta_p_direct(FreeGaussianModel(DEFAULT_PACKET), tunnel, 1.0, 1.0)


class TestDeltaPDecomposed:
    def test_matches_direct_at_example_point(self, fig2):
        spectrum, grid, free, tunnel = fig2
        direct = delta_p_direct(free, tunnel, 1.0, 6.0)
        terms = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, 1.0, 6.0)
        assert abs(terms.total - direct) <= max(1e-2 * abs(direct), 1e-6)

    def test_matches_direct_across_points(self, fig2):
        spectrum, grid, free, tunnel = fig2
        for x, t in [(0.5, 3.0), (0.6, 0.0), (2.0, 8.0), (5.0, 10.0)]:
            direct = delta_p_direct(free, tunnel, x, t)
            terms = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, x, t)
            assert abs(terms.total - direct) <= max(1e-6 * abs(direct), 1e-9)

    def test_matches_direct_for_other_geometry(self, fig2):
        spectrum, grid, free, _ = fig2
        barrier = BarrierSpec(height=5.0, half_width=0.5)
        tunnel = tunneling_packet_model(spectrum, barrier, grid)
        for x, t in [(0.8, 2.0), (1.2, 6.0)]:
            direct = delta_p_direct(free, tunnel, x, t)
            terms = delta_p_decomposed(spectrum, barrier, grid, x, t)
            assert abs(terms.total - direct) <= max(1e-5 * abs(direct), 1e-9)

    def test_terms_nonnegative(self, fig2):
        spectrum, grid, _, _ = fig2
        for x, t in [(0.5, 0.0), (1.0, 6.0), (4.0, 10.0)]:
            terms = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, x, t)
            assert terms.term1 >= 0.0
            assert terms.term2 >= 0.0
            assert terms.term3 >= 0.0
            assert terms.total >= 0.0

    def test_zero_barrier_total_vanishes(self, fig2):
        spectrum, grid, _, _ = fig2
        barrier = BarrierSpec(height=0.0, half_width=0.3)
        terms = delta_p_decomposed(spectrum, barrier, grid, 1.0, 5.0)
        # every weight carries the barrier height, so the total is exactly 0
        assert terms.total == 0.0
        assert np.isfinite([terms.term1, terms.term2, terms.term3]).all()

    def test_lambda_refinement_is_stable(self, fig2):
        spectrum, grid, _, _ = fig2
        coarse = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, 1.0, 6.0,
                                    n_lambda=16)
        fine = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, 1.0, 6.0,
                                  n_lambda=64)
        assert abs(coarse.total - fine.total) <= 1e-9 * abs(fine.total)

    @pytest.mark.parametrize("v_bar, height, half_width", [
        (2.0, 10.0, 0.3), (2.0, 5.0, 0.5), (2.0, 20.0, 1.0), (2.0, 10.0, 2.0),
        (2.0, 40.0, 3.0), (10.0, 10.0, 3.0), (10.0, 1.0, 5.0)])
    def test_default_rule_is_converged(self, fig2, v_bar, height, half_width):
        # Within 1e-10 of a 512-node rule at the default n_lambda, under the
        # barrier top (the stock packet) and above it (v_bar = 10), where
        # the u-integrands oscillate and a fixed 32-node rule misses by up
        # to 8e-8 here.  The v_bar = 10 grid is sized for its barrier, whose
        # resonances sit in its band.
        barrier = BarrierSpec(height=height, half_width=half_width)
        if v_bar == DEFAULT_PACKET.v_bar:
            free = fig2[2]
        else:
            packet = GaussianPacketParams(x_bar=-10.0, v_bar=v_bar, sigma_x0=2.5)
            free = spectral_free_model(*spectral_setup(packet, t_max=10.0, barrier=barrier))
        tunnel = tunneling_packet_model(free.spectrum, barrier, free.grid)
        xs, ts = np.linspace(half_width + 0.2, half_width + 5.0, 12), [0.0, 3.0, 6.0, 10.0]
        default = tunneling._decomposed_terms(free, tunnel, xs, ts, 32)[3]
        reference = tunneling._decomposed_terms(free, tunnel, xs, ts, 512)[3]
        assert np.max(np.abs(default - reference)) <= 1e-10

    @pytest.mark.parametrize("n_lambda", [16, 32, 100])
    def test_one_u_rule_per_call(self, fig2, monkeypatch, n_lambda):
        _, _, free, tunnel = fig2
        rules = []
        gauss_rule = tunneling._gauss_rule
        monkeypatch.setattr(tunneling, "_gauss_rule", lambda *args: rules.append(args)
                            or gauss_rule(*args))
        tunneling._decomposed_terms(free, tunnel, [0.5, 1.0, 4.0], [0.0, 2.0, 6.0], n_lambda)
        assert rules == [(0.0, 1.0, n_lambda)]

    def test_refuses_a_u_rule_beyond_the_entry_limit(self, fig2):
        # gamma depends on the height alone.  At the default height a
        # half-width of 1000 needs 6732 u-nodes on 386 wave numbers:
        # refused before any kernel is built.
        grid = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=386)[1]
        gamma, *_ = tunneling._barrier_coefficients(grid.nodes, DEFAULT_BARRIER)
        assert tunneling._u_nodes(0.3, grid.nodes, gamma, 32) == 32
        with pytest.raises(InvalidRange, match="u-nodes"):
            tunneling._u_nodes(1000.0, grid.nodes, gamma, 32)

    def test_a_point_has_the_bits_of_its_lone_call(self, fig2):
        _, _, free, tunnel = fig2
        xs, ts = np.linspace(0.5, 5.3, 61), [2.0, 6.0]
        batch = tunneling._decomposed_terms(free, tunnel, xs, ts, 32)
        for i in (0, 17, 42, 60):
            alone = tunneling._decomposed_terms(free, tunnel, [xs[i]], ts, 32)
            assert np.array_equal(batch[:, i], alone[:, 0])

    def test_rejects_small_n_lambda(self, fig2):
        spectrum, grid, _, _ = fig2
        with pytest.raises(InvalidRange):
            delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, 1.0, 6.0,
                               n_lambda=8)

    def test_rejects_x_inside_barrier(self, fig2):
        spectrum, grid, _, _ = fig2
        with pytest.raises(InvalidRange):
            delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, 0.25, 6.0)

    def test_coarse_grid_refused(self, fig2):
        spectrum, _, _, _ = fig2
        tiny = build_kgrid(DEFAULT_PACKET.k_bar, DEFAULT_PACKET.sigma_k,
                           n_nodes=64)
        with pytest.raises(GridTooCoarse):
            delta_p_decomposed(spectrum, DEFAULT_BARRIER, tiny, 1.0, 10.0)


class TestDeltaPReport:
    def test_small_grid_invariants(self, fig2):
        _, _, free, tunnel = fig2
        report = delta_p_report(free, tunnel, x_values=[0.5, 1.5, 3.0],
                                t_values=[0.0, 4.0, 8.0])
        assert isinstance(report, DeltaPReport)
        assert len(report.grid) == 9
        assert report.grid[0] == (0.5, 0.0)
        assert report.grid[1] == (0.5, 4.0)     # t varies fastest
        assert np.all(report.dp_term1 >= 0.0)
        assert np.all(report.dp_term2 >= 0.0)
        assert np.all(report.dp_term3 >= 0.0)
        np.testing.assert_allclose(
            report.dp_term1 + report.dp_term2 + report.dp_term3,
            report.dp_total, rtol=1e-12)
        assert report.all_positive
        assert report.agreement_ok().all()

    def test_default_grid(self):
        xs, ts = default_delta_p_grid(DEFAULT_BARRIER)
        assert xs.size == 12 and ts.size == 11
        assert xs[0] == pytest.approx(0.5)
        assert xs[-1] == pytest.approx(5.3)
        assert ts[0] == 0.0 and ts[-1] == 10.0

    def test_rejects_x_inside_barrier(self, fig2):
        _, _, free, tunnel = fig2
        with pytest.raises(InvalidRange):
            delta_p_report(free, tunnel, x_values=[0.1], t_values=[0.0])

    def test_batched_matches_pointwise(self, fig2):
        # Unsorted x, one duplicate, and x = 60 beyond both support hints
        # (deficit exactly 0); rows stay x-major with t varying fastest.
        spectrum, grid, free, tunnel = fig2
        xs, ts = [2.9, 0.45, 60.0, 1.3, 2.9], [7.5, 0.0, 3.0]
        report = delta_p_report(free, tunnel, x_values=xs, t_values=ts)
        assert report.grid == tuple((x, t) for x in xs for t in ts)
        weights = _term_weights(DEFAULT_BARRIER)
        for i, (x, t) in enumerate(report.grid):
            terms = delta_p_decomposed(spectrum, DEFAULT_BARRIER, grid, x, t)
            assert abs(report.dp_direct[i]
                       - delta_p_direct(free, tunnel, x, t)) <= 1e-12
            for column, weight, term in zip(
                    (report.dp_term1, report.dp_term2, report.dp_term3),
                    weights, terms[:3]):
                assert abs(column[i] - weight * term) <= 1e-12
            assert abs(report.dp_total[i] - terms.total) <= 1e-12
        assert np.all(report.dp_direct[6:9] == 0.0)
        assert np.all(report.dp_term3[6:9] == 0.0)
        assert report.all_positive and report.agreement_ok().all()

    def test_refuses_coarse_grid(self):
        spectrum, tiny = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=64)
        free = spectral_free_model(spectrum, tiny)
        tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, tiny)
        with pytest.raises(GridTooCoarse):
            delta_p_report(free, tunnel, x_values=[1.0, 2.0], t_values=[10.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_refuses_a_non_finite_time(self, fig2, t):
        _, _, free, tunnel = fig2
        with pytest.raises(InvalidRange, match="finite"):
            delta_p_report(free, tunnel, x_values=[1.0], t_values=[1.0, t])

    def test_refuses_foreign_free_models(self, fig2):
        _, _, _, tunnel = fig2
        other = GaussianPacketParams(x_bar=-8.0, v_bar=2.0, sigma_x0=2.5)
        shifted = spectral_free_model(*spectral_setup(other, t_max=10.0))
        for free in (FreeGaussianModel(DEFAULT_PACKET), shifted):
            with pytest.raises(InvalidRange):
                delta_p_report(free, tunnel, x_values=[1.0], t_values=[1.0])

    def test_refuses_a_pair_on_two_grids_or_masses(self, fig2):
        # Both routes read one grid; a coarser grid on the same band keeps
        # the spectrum, so only the grid check can refuse it.  The units
        # hbar = m = 1 fix the mass, so no model is built with another.
        spectrum, grid, free, _ = fig2
        same, coarse = spectral_setup(DEFAULT_PACKET, t_max=10.0, n_nodes=64)
        assert same == spectrum
        with pytest.raises(InvalidRange, match="one wave-number grid"):
            delta_p_report(free, tunneling_packet_model(spectrum, DEFAULT_BARRIER, coarse),
                           x_values=[1.0], t_values=[1.0])
        with pytest.raises(TypeError, match="mass"):
            tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid, mass=2.0)

    def test_runs_on_the_pair_it_is_given(self, fig2, monkeypatch):
        # The decomposed route reads the pair's free model: a report builds
        # no model, and a u-order already used solves no Gauss-Legendre
        # eigenproblem again.
        _, _, free, tunnel = fig2
        delta_p_report(free, tunnel, x_values=[0.5, 3.0], t_values=[2.0, 8.0])
        built = []
        init = SpectralPacketModel.__init__
        monkeypatch.setattr(SpectralPacketModel, "__init__",
                            lambda self, *args, **kwargs: built.append(args)
                            or init(self, *args, **kwargs))
        misses = numerics._legendre.cache_info().misses
        delta_p_report(free, tunnel, x_values=[0.5, 3.0], t_values=[2.0, 8.0])
        assert built == [] and numerics._legendre.cache_info().misses == misses
        assert not hasattr(tunneling, "leggauss")
        assert "tol" not in inspect.signature(delta_p_report).parameters

    def test_memory_is_bounded(self):
        # One point at t = 60 on the 356-node auto grid: the u-kernels live
        # for one call at one node count, and term3 and both tails come
        # from row-chunked factored panels.  The per-point route with
        # unchunked quadrature batches peaked at 85.7 MiB here on 1766 nodes.
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=60.0, barrier=DEFAULT_BARRIER)
        assert grid.size == 356
        free = spectral_free_model(spectrum, grid)
        tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
        tracemalloc.start()
        try:
            delta_p_report(free, tunnel, x_values=[0.5], t_values=[60.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2 ** 20

    @settings(max_examples=20, deadline=None)
    @given(height=st.floats(1.0, 20.0), half_width=st.floats(0.1, 0.8),
           beyond=st.floats(0.01, 5.0), t=st.floats(0.0, 10.0))
    def test_routes_agree_on_random_barriers(self, fig2, height, half_width,
                                              beyond, t):
        # On a grid sized for each barrier: a resonance in the stock band
        # (V = 2.5, a = 0.8: rho 1.6) needs more than the stock grid's nodes.
        barrier = BarrierSpec(height=height, half_width=half_width)
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0, barrier=barrier)
        free = spectral_free_model(spectrum, grid)
        tunnel = tunneling_packet_model(spectrum, barrier, grid)
        report = delta_p_report(free, tunnel, x_values=[half_width + beyond],
                                t_values=[t])
        assert report.dp_direct[0] >= -1e-6
        assert min(report.dp_term1[0], report.dp_term2[0],
                   report.dp_term3[0]) >= 0.0
        assert report.agreement_ok(rel=1e-2, abs_floor=1e-6).all()


class TestRetardationScan:
    def test_zero_barrier_equality(self, fig2, zero_barrier):
        _, _, free, _ = fig2
        verdicts = retardation_scan(free, zero_barrier, [0.3, 0.6],
                                    np.arange(0.0, 9.0, 2.0))
        for v in verdicts:
            assert v.ok
            assert v.checked > 0     # quantiles pass the edge at late times
            assert abs(v.worst_margin_all) <= 1e-6

    def test_transmitted_quantiles_lag(self, fig2):
        # P below the packet transmission probability crosses the barrier,
        # so the beyond-the-edge comparison has real content there.
        _, _, free, tunnel = fig2
        verdicts = retardation_scan(free, tunnel, [0.01, 0.02],
                                    np.linspace(0.0, 10.0, 11))
        for v in verdicts:
            assert v.checked > 0
            assert v.ok
            assert v.worst_margin < -0.1    # lags by a visible distance
            # the verdict carries the positions its margins came from
            beyond = v.x_tunnel > DEFAULT_BARRIER.half_width
            assert np.max((v.x_tunnel - v.x_free)[beyond]) == v.worst_margin

    def test_one_table_per_model_and_time(self, fig2, monkeypatch):
        # fig2: 17 levels x 21 times share 2 x 21 tables of one lockstep
        # pass and sample no velocity; the positions are those of one-level
        # inversions.
        _, _, free, tunnel = fig2
        levels = PRESETS["fig2"]["p_list"]
        times = np.linspace(0.0, 10.0, 21)
        calls = {"passes": 0, "tables": 0, "density_and_current": 0}
        lockstep, field = quantile.lockstep_tables, SpectralPacketModel.density_and_current

        def counted_tables(sources, ts, **kw):
            calls["passes"] += 1
            calls["tables"] += len(sources) * len(ts)
            return lockstep(sources, ts, **kw)

        def counted_field(self, *args):
            calls["density_and_current"] += 1
            return field(self, *args)
        monkeypatch.setattr(quantile, "lockstep_tables", counted_tables)
        monkeypatch.setattr(SpectralPacketModel, "density_and_current", counted_field)
        verdicts = retardation_scan(free, tunnel, levels, times)
        assert calls == {"passes": 1, "tables": 42, "density_and_current": 0}
        assert [v.P for v in verdicts] == list(levels)
        v = verdicts[3]
        assert v.times.tolist() == times.tolist()
        assert v.x_tunnel[-1] == quantile_position(tunnel, levels[3], 10.0)
        assert v.x_free[-1] == quantile_position(free, levels[3], 10.0)

    def test_empty_level_list_builds_no_table(self, fig2, monkeypatch):
        _, _, free, tunnel = fig2
        builds = []
        lockstep = quantile.lockstep_tables
        monkeypatch.setattr(quantile, "lockstep_tables",
                            lambda sources, ts, **kw: builds.extend(ts)
                            or lockstep(sources, ts, **kw))
        assert retardation_scan(free, tunnel, [], np.linspace(0.0, 8.0, 5)) == []
        assert builds == []

    @pytest.mark.parametrize("pair, t_grid", [
        ("closed-form free", np.linspace(0.0, 2.0, 3)),
        ("no barrier", np.linspace(0.0, 2.0, 3)),
        ("spectral", []),
        ("spectral", [0.0, 2.0, 1.0]),
        ("spectral", [[0.0, 1.0]]),
        ("spectral", [0.0, math.nan]),
        ("spectral", [[0.0], [1.0, 2.0]]),
    ])
    def test_refuses_a_foreign_pair_or_bad_grid(self, fig2, pair, t_grid):
        _, _, free, tunnel = fig2
        free, tunnel = {"closed-form free": (FreeGaussianModel(DEFAULT_PACKET), tunnel),
                        "no barrier": (free, free),
                        "spectral": (free, tunnel)}[pair]
        with pytest.raises(InvalidRange):
            retardation_scan(free, tunnel, [0.01, 0.3], t_grid)

    def test_reflected_quantile_is_vacuous_beyond_edge(self, fig2):
        _, _, free, tunnel = fig2
        (v,) = retardation_scan(free, tunnel, [0.3], np.linspace(0.0, 10.0, 11))
        assert v.checked == 0
        assert v.skipped == 11
        assert v.ok
        # in front of the barrier the pile-up genuinely pushes the quantile
        # ahead of the free twin; the diagnostic margin records that
        assert v.worst_margin_all > 1e-3

    def test_barrier_strengthening_keeps_verdicts(self, fig2):
        spectrum, grid, free, _ = fig2
        for height in (1.0, 5.0, 10.0):
            barrier = BarrierSpec(height=height, half_width=0.3)
            tunnel = tunneling_packet_model(spectrum, barrier, grid)
            verdicts = retardation_scan(free, tunnel, [0.1, 0.3],
                                        np.arange(0.0, 11.0, 2.0))
            assert all(v.ok for v in verdicts)


# 1 to 5 sorted distinct times in [0, 10].
FEW_TIMES = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5, unique=True).map(sorted)


class TestOnePassPerPair:
    """Both routes of delta_p_report and both models of retardation_scan
    build their tables in one lockstep pass per block of times and read
    them in one batched read: every field and verdict keeps the bits of
    separate one-model passes."""

    @settings(max_examples=10, deadline=None)
    @given(ts=FEW_TIMES, xs=st.lists(st.floats(0.31, 8.0), min_size=1, max_size=5))
    def test_report_fields_equal_separate_passes(self, fig2, ts, xs):
        _, _, free, tunnel = fig2
        report = delta_p_report(free, tunnel, x_values=xs, t_values=ts)
        direct = (free.tails(xs, ts) - tunnel.tails(xs, ts)).T.ravel()
        terms = tunneling._decomposed_terms(free, tunnel, xs, ts, 32).reshape(4, -1)
        c1, c2, c3 = _term_weights(DEFAULT_BARRIER)
        assert np.array_equal(report.dp_direct, direct)
        for got, want in zip((report.dp_term1, report.dp_term2, report.dp_term3, report.dp_total),
                             (c1 * terms[0], c2 * terms[1], c3 * terms[2], terms[3])):
            assert np.array_equal(got, want)
        assert np.array_equal(report.agreement_rel,
                              np.abs(direct - terms[3]) / np.maximum(direct, 1e-9))
        assert np.array_equal(report.positivity_ok, direct >= -1e-6)

    @settings(max_examples=10, deadline=None)
    @given(ts=FEW_TIMES, levels=st.lists(st.floats(0.005, 0.995), min_size=1, max_size=3))
    def test_verdicts_equal_one_model_inversions(self, fig2, ts, levels):
        _, _, free, tunnel = fig2
        verdicts = retardation_scan(free, tunnel, levels, ts)
        x_tun, x_free = quantile_position(tunnel, levels, ts), quantile_position(free, levels, ts)
        for j, v in enumerate(verdicts):
            assert np.array_equal(v.x_tunnel, x_tun[:, j])
            assert np.array_equal(v.x_free, x_free[:, j])
            lead, beyond = x_tun[:, j] - x_free[:, j], x_tun[:, j] > DEFAULT_BARRIER.half_width
            assert v.checked == beyond.sum()
            assert v.worst_margin == np.max(lead[beyond], initial=-math.inf)
            assert v.worst_margin_all == lead.max()

    @pytest.mark.parametrize("xs, ts", [([], [1.0, 2.0]), ([0.5, 1.0], []), ([], [])])
    def test_an_empty_grid_gives_an_empty_report(self, fig2, xs, ts):
        _, _, free, tunnel = fig2
        report = delta_p_report(free, tunnel, x_values=xs, t_values=ts)
        assert report.grid == () and report.dp_direct.shape == report.dp_total.shape == (0,)

    def test_a_pair_of_models_inverts_to_their_own_positions(self, fig2):
        # quantile_position over a tuple stacks its models' positions on a
        # leading axis; closed-form models in it invert one by one.
        _, _, free, tunnel = fig2
        closed = FreeGaussianModel(DEFAULT_PACKET)
        ts, levels = [0.0, 4.5, 10.0], [0.01, 0.4]
        pair = quantile_position((free, tunnel), levels, ts)
        assert pair.shape == (2, 3, 2)
        assert np.array_equal(pair[1], quantile_position(tunnel, levels, ts))
        assert quantile_position((tunnel, free), 0.3, 2.0).tolist() == [
            quantile_position(tunnel, 0.3, 2.0), quantile_position(free, 0.3, 2.0)]
        mixed = quantile_position((closed, tunnel), levels, ts)
        assert np.array_equal(mixed[0], quantile_position(closed, levels, ts))
        assert np.array_equal(mixed[1], pair[1])
        assert quantile_position((free, tunnel), [], ts).shape == (2, 3, 0)

    @pytest.mark.parametrize("n", [101, 401])
    def test_memory_is_bounded_by_one_block(self, fig2, n):
        # A pass holds up to 3 x 32 tables, and the report's coefficient
        # rows and u-sums one block of 32 times.  Measured here on the fig2
        # pair: delta_p_report at 12 x peaked at 2.41 and 2.61 MiB at 101
        # and 401 times, retardation_scan at two levels at 1.67 and 1.77 MiB.
        _, grid, free, tunnel = fig2
        xs, levels = np.linspace(0.5, 5.3, 12), [0.01, 0.3]
        # Kept waves in place before measuring.
        delta_p_report(free, tunnel, xs, np.linspace(0.0, 10.0, 33))
        retardation_scan(free, tunnel, levels, np.linspace(0.0, 10.0, 33))

        def peak(call):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        ts = np.linspace(0.0, 10.0, n)
        report = peak(lambda: delta_p_report(free, tunnel, xs, ts))
        assert report <= 6 * 2 ** 20
        assert report <= 1.25 * peak(lambda: delta_p_report(free, tunnel, xs, ts[::(n - 1) // 100]))
        assert peak(lambda: retardation_scan(free, tunnel, levels, ts)) <= 3 * 2 ** 20


class TestPacketTransmission:
    def test_zero_barrier_is_unity(self, fig2):
        spectrum, grid, _, _ = fig2
        barrier = BarrierSpec(height=0.0, half_width=0.3)
        tp = packet_transmission_probability(spectrum, barrier, grid)
        assert tp == pytest.approx(1.0, abs=1e-9)

    def test_opaque_barrier(self, fig2):
        # 2mV = 100 k_bar^2 puts the whole spectrum deep under the barrier
        spectrum, grid, _, _ = fig2
        barrier = BarrierSpec(height=50.0 * DEFAULT_PACKET.k_bar ** 2,
                              half_width=0.3)
        assert packet_transmission_probability(spectrum, barrier, grid) <= 1e-6

    def test_fig2_value_frozen(self, fig2):
        spectrum, grid, _, _ = fig2
        tp = packet_transmission_probability(spectrum, DEFAULT_BARRIER, grid)
        assert tp == pytest.approx(PACKET_TRANSMISSION_FIG2, abs=1e-10)
        assert 0.0 < tp < 1.0

    def test_matches_quadpack_route(self, fig2):
        spectrum, grid, _, _ = fig2
        tp = packet_transmission_probability(spectrum, DEFAULT_BARRIER, grid)

        def integrand(k):
            return (square_barrier_transmission(k, DEFAULT_BARRIER.height,
                                                DEFAULT_BARRIER.half_width)
                    * abs(spectrum.amplitude(k)) ** 2)

        ref, _ = quad(integrand, spectrum.k_lo, spectrum.k_hi,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        assert tp == pytest.approx(ref, abs=1e-8)
