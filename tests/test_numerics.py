import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import quantracer
from quantracer.errors import InvalidRange, NonConvergence, NoSignChange, StepUnderflow
from quantracer.numerics import (
    DEFAULT_TOL,
    PANEL_NODES,
    KGrid,
    OdePath,
    Tolerances,
    adaptive_panels,
    build_kgrid,
    find_root_monotone,
    initial_edges,
    integrate_adaptive,
    integrate_ode,
    max_phase_rate,
    nodes_for_phase,
)
from quantracer.numerics import _at_panel_nodes, _eval_panels, _gauss_rule
from quantracer.quantile import quantile_position, quantile_velocity, trace_trajectory_ode
from quantracer.wavepacket import (
    DEFAULT_BARRIER,
    DEFAULT_LOSS_RATE,
    DEFAULT_PACKET,
    DissipativeGaussianModel,
    FreeGaussianModel,
    GaussianPacketParams,
    spectral_setup,
    tunneling_packet_model,
)

from oracles import erfc_highprec, normal_tail_quantile, recursive_refine

erfc = math.erfc


class TestErfc:
    """The library's erfc is math.erfc; these pin it against the oracle."""

    def test_symmetry_point(self):
        assert erfc(0.0) == 1.0

    def test_asymptotic_values(self):
        assert erfc(40.0) == pytest.approx(0.0, abs=1e-300)
        assert erfc(-40.0) == pytest.approx(2.0, rel=1e-15)

    def test_against_highprec_oracle(self):
        # frozen from the mpmath oracle
        assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)
        for x in np.linspace(-10.0, 10.0, 81):
            ref = erfc_highprec(x)
            assert erfc(x) == pytest.approx(ref, rel=1e-12)


class TestIntegrateAdaptive:
    def test_constant(self):
        assert integrate_adaptive(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_normal_density_full_line(self):
        f = lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        assert integrate_adaptive(f, -40.0, 40.0) == pytest.approx(1.0, rel=1e-9)

    def test_oscillatory_gaussian(self):
        # closed form sqrt(pi) * exp(-25), frozen from the oracle
        val = integrate_adaptive(
            lambda x: np.exp(-x * x) * np.cos(10 * x), -8.0, 8.0,
            initial_panels=32,
        )
        assert val == pytest.approx(2.4615739584615114e-11, abs=5e-12)

    def test_reversed_bounds_negate(self):
        v = integrate_adaptive(lambda x: x, 1.0, 0.0)
        assert v == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                      (math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_bounds_rejected(self, a, b):
        with pytest.raises(InvalidRange):
            integrate_adaptive(lambda x: np.exp(-x * x), a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        w=st.floats(0.5, 4.0),
    )
    def test_linearity(self, alpha, beta, w):
        f = lambda x: np.exp(-x * x / 2)
        g = lambda x: np.cos(w * x) / (1 + x * x)
        a, b = -4.0, 5.0
        lhs = integrate_adaptive(lambda x: alpha * f(x) + beta * g(x), a, b)
        rhs = alpha * integrate_adaptive(f, a, b) + beta * integrate_adaptive(g, a, b)
        scale = abs(lhs) + abs(rhs) + 1.0
        assert abs(lhs - rhs) <= 2 * max(DEFAULT_TOL.quad_abs, DEFAULT_TOL.quad_rel * scale)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(quantracer.numerics, "_MAX_PANELS", 24)
        with pytest.raises(NonConvergence, match="more than 24 panels"):
            integrate_adaptive(
                lambda x: np.sin(1.0 / x), 1e-12, 1.0,
                tol=Tolerances(quad_rel=1e-12, quad_abs=1e-15),
            )

    def test_retained_panels_tile_and_sum(self):
        f = lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2)
        edges = np.linspace(-5.0, 4.0, 9)

        def panel_f(table, mid, half):
            return f(mid[:, None] + half[:, None] * PANEL_NODES)

        (panels,) = adaptive_panels(panel_f, [edges], DEFAULT_TOL)
        assert panels.los.size > edges.size - 1          # some were bisected
        assert panels.los[0] == -5.0 and panels.his[-1] == 4.0
        assert np.array_equal(panels.los[1:], panels.his[:-1])
        assert panels.values.sum() == pytest.approx(panels.total, rel=1e-13)
        # integrate_adaptive is the same engine on the same partition.
        assert integrate_adaptive(f, -5.0, 4.0, initial_panels=8) == panels.total
        # Masses right of panel edges are the reverse cumulative values.
        upper = panels.upper
        assert upper[-1] == 0.0 and upper[0] == pytest.approx(panels.total, rel=1e-13)
        np.testing.assert_array_equal([panels.tail(x) for x in panels.los[::-1]],
                                      upper[-2::-1])
        assert panels.tail(4.0) == 0.0

    def test_panels_keep_gl15_node_values(self):
        f = lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2)

        def panel_f(table, mid, half):
            return f(mid[:, None] + half[:, None] * PANEL_NODES)

        (panels,) = adaptive_panels(panel_f, [np.linspace(-5.0, 4.0, 9)], DEFAULT_TOL)
        mids = 0.5 * (panels.los + panels.his)
        halves = 0.5 * (panels.his - panels.los)
        # The GL15 columns, then the GL7 ones but the shared middle node.
        distinct = [c for c in range(PANEL_NODES.size) if c != 15 + 3]
        assert panels.nodes.shape == (panels.los.size, 21)
        np.testing.assert_array_equal(panels.nodes,
                                      panel_f(None, mids, halves)[:, distinct])

    def test_tail_integrates_the_node_interpolant(self):
        # A degree-14 integrand is its own interpolant on the GL15 nodes,
        # so inside panel i the tail is upper[i + 1] plus its exact
        # integral over [x, panel top]; at every edge it is upper exactly.
        coeffs = np.random.default_rng(7).normal(size=15)
        f = np.polynomial.Polynomial(coeffs, domain=[-1.0, 2.0])
        F = f.integ()

        def panel_f(table, mid, half):
            return f(mid[:, None] + half[:, None] * PANEL_NODES)

        (panels,) = adaptive_panels(panel_f, [[-1.0, 0.5, 2.0]], DEFAULT_TOL)
        scale = np.max(np.abs(f(np.linspace(-1.0, 2.0, 301))))
        np.testing.assert_array_equal(panels.tail(panels.his), panels.upper[1:])
        np.testing.assert_array_equal(panels.tail(panels.los), panels.upper[:-1])
        for i, (lo, hi) in enumerate(zip(panels.los, panels.his)):
            xs = np.linspace(lo, hi, 7)[1:]
            np.testing.assert_allclose(panels.tail(xs) - panels.upper[i + 1], F(hi) - F(xs),
                                       rtol=0.0, atol=1e-13 * scale)
            assert panels.tail(np.nextafter(lo, hi)) == pytest.approx(
                panels.upper[i + 1] + panels.values[i], abs=1e-14 * scale)

    def test_vector_tail_equals_scalar_reads(self):
        f = lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2)

        def panel_f(table, mid, half):
            return f(mid[:, None] + half[:, None] * PANEL_NODES)

        (panels,) = adaptive_panels(panel_f, [np.linspace(-5.0, 4.0, 9)], DEFAULT_TOL)
        xs = np.concatenate([np.random.default_rng(3).uniform(-6.0, 5.0, 200), panels.los,
                             panels.his, [-np.inf, np.inf]])
        reads = panels.tail(xs)
        assert reads.shape == xs.shape
        assert reads.tolist() == [panels.tail(x) for x in xs.tolist()]
        assert all(type(panels.tail(x)) is float for x in (-6.0, 0.3, 5.0))
        np.testing.assert_array_equal(panels.tail(xs.reshape(2, -1)), reads.reshape(2, -1))
        assert panels.tail(-np.inf) == panels.upper[0] and panels.tail(np.inf) == 0.0

    def test_refinement_keeps_the_recursive_references_bits(self):
        # Each panel is kept or bisected on its own gap, as a reference
        # that judges one panel at a time does: the lockstep rounds and
        # their batches change no bit.  Panels of equal width on one side
        # of 0 tie exactly here.
        def tied(table, mid, half):
            weight = np.where(mid < 0.0, 1.0, 2.0) * (1.0 + table)
            return weight[:, None] * (1.0 + half[:, None] ** 3 * PANEL_NODES ** 20)

        edges = np.linspace(-4.0, 4.0, 9)
        _, errs, _ = _eval_panels(tied, np.zeros(8, dtype=int), edges[:-1], edges[1:])
        assert np.unique(errs).size == 2        # four-way ties on each side of 0

        smooth = _at_panel_nodes(lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2))
        tol = Tolerances(quad_rel=1e-10)
        for panel_f, partitions in ((tied, [edges, np.linspace(-2.0, 6.0, 5)]),
                                    (smooth, [np.linspace(-5.0, 4.0, 9),
                                              np.linspace(-3.0, 3.0, 4), [0.0, 1.0]])):
            def eval_panels(table, los, his):
                vals, errs, ys = _eval_panels(panel_f, table, los, his)
                return vals, errs, ys[:, [c for c in range(22) if c != 15 + 3]]
            expected = recursive_refine(eval_panels, partitions, tol)
            got = adaptive_panels(panel_f, partitions, tol)
            assert len(got) == len(expected)
            for table, edges, (los, his, values, nodes, upper) in zip(got, partitions, expected):
                assert los.size > len(edges) - 1        # refined beyond the partition
                for name, want in (("los", los), ("his", his), ("values", values),
                                   ("nodes", nodes), ("upper", upper)):
                    np.testing.assert_array_equal(getattr(table, name), want, err_msg=name)
                assert table.total == upper[0]

    def test_a_table_built_down_to_a_level_is_the_top_of_the_whole_table(self):
        # Built from the top down in chunks until its mass reaches
        # ``above``, or from the initial panel holding ``low`` up, a table
        # is the top rows of the whole one, bit for bit.
        smooth = _at_panel_nodes(lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2))
        edges = np.linspace(-6.0, 6.0, 49)
        (whole,) = adaptive_panels(smooth, [edges])
        cuts = [adaptive_panels(smooth, [edges], above=above)[0]
                for above in (1e-6, 0.3, 1.2, 2.5, 10.0)]
        cuts += [adaptive_panels(smooth, [edges], low=low)[0] for low in (-7.0, -0.1, 5.9, 7.0)]
        for cut in cuts:
            n = cut.los.size
            for name in ("los", "his", "values", "nodes"):
                np.testing.assert_array_equal(getattr(cut, name), getattr(whole, name)[-n:])
            np.testing.assert_array_equal(cut.upper, whole.upper[-n - 1:])
        shallower = [cut.los.size < whole.los.size for cut in cuts]
        assert shallower == [True] * 4 + [False] * 2 + [True] * 3
        for above, cut in zip((1e-6, 0.3, 1.2, 2.5), cuts):
            assert cut.upper[0] >= above
        assert cuts[-4].los[0] == -6.0 and cuts[-1].los[0] == 5.75
        # A first round down to a depth above, inside or below the panel
        # that holds the level, one per table of one build: each table is
        # the whole one's top, and the depth only moves where it stops.
        for above in (0.3, 1.2, 2.5):
            j = np.searchsorted(edges, whole.los[whole.upper[:-1] >= above][-1], "right") - 1
            depths = [edges[j + 1] + 0.1, edges[j] + 0.1, edges[j] - 2.0]
            built = adaptive_panels(smooth, [edges] * 3, above=above, depths=depths)
            for cut in built:
                n = cut.los.size
                for name in ("los", "his", "values", "nodes"):
                    np.testing.assert_array_equal(getattr(cut, name), getattr(whole, name)[-n:])
                np.testing.assert_array_equal(cut.upper, whole.upper[-n - 1:])
                assert cut.upper[0] >= above
            assert built[2].los[0] <= depths[2] < built[1].los[0]

    def test_a_build_stopped_by_its_running_sum_alone_goes_on(self, monkeypatch):
        # A first chunk of 4 panels whose values, bottom up, sum to 1 +
        # 2^-52 = above; summed from the top, as upper is, they round to 1.
        # The table takes the next chunk (4 panels here), so upper[0] reaches
        # ``above``.
        monkeypatch.setattr(quantracer.numerics, "_FIRST_ROUND", 4)
        monkeypatch.setattr(quantracer.numerics, "_NEXT_CHUNK", 4)
        values = {4.0: 2.0 ** -53, 5.0: 2.0 ** -53, 6.0: 0.0, 7.0: 1.0}

        def fake(panel_f, table, los, his):
            vals = np.array([values.get(lo, 0.25) for lo in los.tolist()])
            return vals, np.zeros_like(vals), np.zeros((vals.size, 22))
        monkeypatch.setattr(quantracer.numerics, "_eval_panels", fake)
        (table,) = adaptive_panels(None, [np.arange(9.0)], above=1.0 + 2.0 ** -52)
        assert table.los.tolist() == list(range(8)) and table.upper[4] == 1.0
        assert table.total == 2.0

    def test_points_become_panel_edges(self):
        # |x - 0.3| has a kink at 0.3: as an edge, one GL15 panel per side
        # is exact.  Points outside (a, b) are ignored.
        f = lambda x: np.abs(x - 0.3)
        exact = 0.5 * 1.3 ** 2 + 0.5 * 1.7 ** 2
        assert integrate_adaptive(f, -1.0, 2.0, initial_panels=1,
                                  points=(0.3, 5.0, -1.0)) == pytest.approx(exact, abs=1e-15)
        assert integrate_adaptive(f, 2.0, -1.0, initial_panels=1,
                                  points=(0.3,)) == pytest.approx(-exact, abs=1e-15)
        edges = initial_edges(-1.0, 2.0, 3, (0.3, 2.0, 7.0))
        np.testing.assert_array_equal(edges, [-1.0, 0.0, 0.3, 1.0, 2.0])


class TestKGrid:
    @pytest.mark.parametrize("nodes, weights, message", [
        ([1.0, math.nan, 3.0], [0.5, math.nan, 0.5], "increasing"),
        ([1.0, math.nan, 3.0], [0.5, 0.5, 0.5], "increasing"),
        ([math.nan], [1.0], "non-negative"),
        ([1.0, 2.0, 3.0], [0.5, math.nan, 0.5], "weights"),
        ([1.0, 2.0, 3.0], [0.5, 0.0, 0.5], "weights"),
        ([-1.0, 2.0, 3.0], [0.5, 0.5, 0.5], "non-negative"),
        ([1.0, 1.0, 3.0], [0.5, 0.5, 0.5], "increasing"),
    ])
    def test_refuses_nan_and_bad_nodes_or_weights(self, nodes, weights, message):
        with pytest.raises(ValueError, match=message):
            KGrid(np.array(nodes), np.array(weights), 0.5, 3.5)

    def test_accepts_a_valid_grid(self):
        grid = KGrid(np.array([0.0, 2.0, 3.0]), np.array([0.5, 1.0, 0.5]), 0.0, 3.5)
        assert grid.size == 3


class TestBuildKGrid:
    def test_fig_bounds(self):
        grid = build_kgrid(2.0, 0.2, n_nodes=256)
        assert grid.size == 256
        assert grid.k_min == pytest.approx(0.8)
        assert grid.k_max == pytest.approx(3.2)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_weights_sum_to_length(self):
        grid = build_kgrid(2.0, 0.2, n_nodes=128)
        assert grid.weights.sum() == pytest.approx(2.4, rel=1e-14)

    def test_truncated_gaussian_mass(self):
        # renormalized truncated Gaussian |psi~|^2 integrates to 1 on the grid,
        # cross-checked against the adaptive quadrature oracle
        grid = build_kgrid(2.0, 0.2, n_nodes=256)
        sig = 0.2
        mass = 0.5 * (erfc(-(grid.k_max - 2.0) / (sig * math.sqrt(2)))
                      - erfc(-(grid.k_min - 2.0) / (sig * math.sqrt(2))))
        dens = lambda k: np.exp(-((k - 2.0) ** 2) / (2 * sig * sig)) / (math.sqrt(2 * math.pi) * sig * mass)
        assert float(grid.weights @ dens(grid.nodes)) == pytest.approx(1.0, abs=1e-10)
        oracle = integrate_adaptive(dens, grid.k_min, grid.k_max)
        assert float(grid.weights @ dens(grid.nodes)) == pytest.approx(oracle, abs=1e-10)

    def test_negative_band_rejected(self):
        with pytest.raises(InvalidRange):
            build_kgrid(-5.0, 0.2, n_nodes=128)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_kgrid(2.0, 0.2, n_nodes=32)

    def test_nodes_for_phase_scales(self):
        # The Gauss-Legendre bound at rate 90 on [0.8, 3.2] (omega = 108)
        # asks for 86 nodes: above omega / 2, where a rule starts to resolve
        # e^{i omega s}, and below the 275 of 8 nodes per phase period.  A
        # pole caps the ellipses: far off (rho 6.4) it costs one node, near
        # the band (rho 1.01) thousands.
        n = nodes_for_phase(max_phase_rate=90.0, k_lo=0.8, k_hi=3.2)
        assert n == 86 and 0.5 * 90.0 * 1.2 < n < 8 * 90.0 * 2.4 / (2 * math.pi)
        assert nodes_for_phase(0.0, 0.8, 3.2) == 64
        assert nodes_for_phase(0.0, 0.8, 3.2, minimum=1) == 23
        assert nodes_for_phase(90.0, 0.8, 3.2, rho_max=6.4) == 87
        assert nodes_for_phase(90.0, 0.8, 3.2, rho_max=1.01) == 2302
        assert nodes_for_phase(180.0, 0.8, 3.2) > nodes_for_phase(90.0, 0.8, 3.2, minimum=1)
        with pytest.raises(InvalidRange):
            nodes_for_phase(math.inf, 0.8, 3.2)
        with pytest.raises(InvalidRange):
            nodes_for_phase(1.0, 0.8, 3.2, rho_max=1.0 + 1e-7)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4096), rho_max=st.just(math.inf) | st.floats(1.001, 10.0),
           band=st.sampled_from([(0.8, 3.2), (1.88, 2.12), (0.0, 32.0)]))
    def test_max_phase_rate_is_the_guard_limit(self, n, rho_max, band):
        # The largest rate n nodes resolve: nodes_for_phase asks for at most
        # n there and for more just above it.
        rate = max_phase_rate(n, *band, rho_max=rho_max)
        if rate < 0.0:      # not even a constant phase
            assert nodes_for_phase(0.0, *band, rho_max=rho_max, minimum=1) > n
            return
        assert nodes_for_phase(rate, *band, rho_max=rho_max, minimum=1) <= n
        assert nodes_for_phase(rate * (1.0 + 1e-9), *band, rho_max=rho_max, minimum=1) > n

    @pytest.mark.parametrize("rate", [20.0, 60.0, 90.0, 150.0])
    def test_the_bound_holds_on_a_gaussian_chirp(self, rate):
        # The stock spectrum times e^{i rate k}: on the bound's n nodes the
        # sum is within 1e-14 of a 4n-node one; at 3/4 of them it is not
        # (above 1e-12) wherever the count is above the 64-node minimum.
        def gauss_sum(n):
            k, w = _gauss_rule(0.8, 3.2, n)
            amplitude = (2.0 * math.pi * 0.04) ** -0.25 * np.exp(-((k - 2.0) / 0.4) ** 2)
            return np.sum(w * amplitude * np.exp(1j * rate * k))
        n = nodes_for_phase(rate, 0.8, 3.2)
        reference = gauss_sum(4 * n)
        assert abs(gauss_sum(n) - reference) <= 1e-14
        if n > 64:
            assert abs(gauss_sum(3 * n // 4) - reference) > 1e-12


class TestFindRootMonotone:
    def test_linear(self):
        r = find_root_monotone(lambda x: x - 3.0, (0.0, 10.0))
        assert r == pytest.approx(3.0, abs=1e-9)

    def test_nan_function_raises_nonconvergence(self):
        # At a bracket end and inside the bracket alike.
        with pytest.raises(NonConvergence):
            find_root_monotone(lambda x: math.nan if x < -1.0 else x, (-2.0, 1.0))
        with pytest.raises(NonConvergence):
            find_root_monotone(lambda x: math.nan if 0.0 < x < 0.9 else x - 0.5,
                               (0.0, 1.0))

    def test_erfc_unit_level(self):
        r = find_root_monotone(lambda x: erfc(x) - 1.0, (-5.0, 5.0))
        assert r == pytest.approx(0.0, abs=1e-9)

    def test_normal_quantile(self):
        # frozen from the oracle: upper-tail 0.25 quantile
        tail = lambda x: 0.5 * erfc(x / math.sqrt(2)) - 0.25
        r = find_root_monotone(tail, (-5.0, 5.0))
        assert r == pytest.approx(0.6744897501960817, abs=1e-9)
        assert r == pytest.approx(normal_tail_quantile(0.25), abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root_monotone(lambda x: x + 10.0, (0.0, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.01, 10.0),
        b=st.floats(0.0, 5.0),
        root=st.floats(-3.0, 3.0),
    )
    def test_round_trip(self, a, b, root):
        g = lambda x: a * (x - root) + b * (x - root) ** 3
        x = find_root_monotone(g, (-8.0, 8.0))
        g_scale = max(abs(g(-8.0)), abs(g(8.0)))
        assert abs(g(x)) <= g_scale * 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.0, 10.0),
        b=st.floats(0.0, 5.0),
        c=st.floats(0.01, 50.0),
        root=st.floats(-3.0, 3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        lo=st.floats(-8.0, -3.5),
        hi=st.floats(3.5, 8.0),
    )
    def test_same_bits_as_scipy_brentq(self, a, b, c, root, sign, lo, hi):
        def g(x):
            return sign * (a * (x - root) + b * (x - root) ** 3 + math.tanh(c * (x - root)))
        expected = brentq(g, lo, hi, xtol=1e-10, rtol=4 * np.finfo(float).eps,
                          maxiter=200)
        assert find_root_monotone(g, (lo, hi)) == expected

    @pytest.mark.parametrize("P", [0.1, 0.5, 0.9])
    def test_a_step_that_divides_by_zero_bisects_as_brentq(self, P):
        # A packet 1e300 wide: the inverse quadratic step divides by a
        # product that underflows to 0.  In brentq's C floats that step is
        # inf and it bisects; the loop must too, with brentq's bits.
        model = FreeGaussianModel(GaussianPacketParams(x_bar=-10.0, v_bar=2.0,
                                                       sigma_x0=1e300))
        lo, hi = model.support_hint(0.0)

        def g(x):
            return model.tail(x, 0.0) - P
        expected = brentq(g, lo, hi, xtol=1e-10, rtol=4 * np.finfo(float).eps, maxiter=200)
        assert find_root_monotone(g, (lo, hi)) == expected

    def test_each_bracket_end_evaluated_once(self):
        seen = []
        x = find_root_monotone(lambda x: seen.append(x) or math.tanh(3.0 * (x - 0.3)),
                               (5.0, -2.0))
        assert x == pytest.approx(0.3, abs=1e-10)
        assert seen[:2] == [-2.0, 5.0]
        assert seen.count(-2.0) == seen.count(5.0) == 1

    def test_iteration_cap_raises_nonconvergence(self):
        # A jump at 0 cannot be bracketed to 1e-300 in 200 iterations.
        with pytest.raises(NonConvergence) as exc:
            find_root_monotone(lambda x: math.copysign(1.0, x), (-1.0, 3.0),
                               Tolerances(root_abs=1e-300))
        assert abs(exc.value.value) <= exc.value.error < 1e-50


class TestIntegrateOde:
    def test_constant_velocity(self):
        path = integrate_ode(lambda t, x: np.full_like(x, 1.5), 0.0, 0.0, 1.0)
        assert path.states[-1, 0] == pytest.approx(1.5, abs=1e-10)
        assert path.stop_reason == "completed"

    def test_exponential_growth(self):
        path = integrate_ode(lambda t, x: x, 1.0, 0.0, 1.0)
        assert path.states[-1, 0] == pytest.approx(math.e, abs=1e-8)

    def test_free_gaussian_velocity_field_matches_closed_form(self):
        # v(x,t) = vbar + sigv^2 t (x - xbar - vbar t)/sigx(t)^2 has the flow
        # x(t) = xbar + vbar t + (sigx(t)/sigx0)(x0 - xbar)
        xbar, vbar, sx0 = -10.0, 2.0, 2.5
        sv = 1.0 / (2 * sx0)
        sx2 = lambda t: sx0 * sx0 + (sv * t) ** 2

        def v(t, x):
            return vbar + sv * sv * t * (x - xbar - vbar * t) / sx2(t)

        x0 = xbar + 1.2 * sx0
        t_eval = np.linspace(0.0, 20.0, 41)
        path = integrate_ode(v, x0, 0.0, 20.0, t_eval=t_eval)
        expected = xbar + vbar * t_eval + np.sqrt(sx2(t_eval)) / sx0 * (x0 - xbar)
        assert np.max(np.abs(path.states[:, 0] - expected)) < 1e-6

    def test_known_flow_long_span(self):
        # dx/dt = x cos(t)  ->  x(t) = x0 exp(sin t)
        path = integrate_ode(lambda t, x: x * math.cos(t), 1.0, 0.0, 50.0,
                             t_eval=np.linspace(0.0, 50.0, 101))
        expected = np.exp(np.sin(path.times))
        assert np.max(np.abs(path.states[:, 0] - expected) / expected) < 1e-6

    def test_stop_predicate_refined(self):
        path = integrate_ode(
            lambda t, x: np.ones_like(x), 0.0, 0.0, 10.0,
            stop=lambda t, x: 2.0 - x[0],
        )
        assert path.stop_reason == "stopped"
        assert path.stop_time == pytest.approx(2.0, abs=1e-9)
        assert path.states[-1, 0] == pytest.approx(2.0, abs=1e-9)

    def test_stop_event_ends_t_eval_samples(self):
        # Samples run up to the event, which is always the last one.
        path = integrate_ode(lambda t, x: np.ones_like(x), 0.0, 0.0, 10.0,
                             stop=lambda t, x: 2.5 - x[0],
                             t_eval=np.linspace(0.0, 10.0, 11))
        np.testing.assert_allclose(path.times, [0.0, 1.0, 2.0, 2.5], atol=1e-9)
        np.testing.assert_allclose(path.states[:, 0], path.times, atol=1e-9)
        assert path.stop_time == pytest.approx(2.5, abs=1e-9)

    def test_stop_event_at_start(self):
        path = integrate_ode(lambda t, x: np.ones_like(x), 3.0, 0.0, 10.0,
                             stop=lambda t, x: 2.0 - x[0])
        assert path.stop_reason == "stopped" and path.stop_time == 0.0
        np.testing.assert_array_equal(path.states, [[3.0]])

    def test_t_eval_sampling(self):
        t_eval = np.linspace(0.0, 6.0, 25)
        path = integrate_ode(lambda t, x: np.full_like(x, math.cos(t)), 0.0, 0.0, 6.0,
                             t_eval=t_eval)
        assert path.times.shape == t_eval.shape
        assert np.max(np.abs(path.states[:, 0] - np.sin(t_eval))) < 1e-7

    def test_step_underflow_on_blowup(self):
        # finite-time blow-up dx/dt = x^2 from x0=1 escapes at t=1
        with pytest.raises(StepUnderflow) as exc:
            integrate_ode(lambda t, x: x * x, 1.0, 0.0, 2.0)
        assert exc.value.t is not None

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_step_underflow_on_a_non_finite_rhs(self, value):
        # A NaN step size once failed every step-size test and looped forever.
        with pytest.raises(StepUnderflow), np.errstate(all="ignore"):
            integrate_ode(lambda t, x: np.full_like(x, value), 1.0, 0.0, 1.0)

    def test_step_underflow_carries_last_sample(self):
        # With t_eval the failure reports the last sample returned before
        # the blow-up at t = 1, where x = 1 / (1 - t).
        with pytest.raises(StepUnderflow) as exc:
            integrate_ode(lambda t, x: x * x, 1.0, 0.0, 2.0, t_eval=[0.0, 0.45, 0.9, 1.5])
        assert exc.value.t == 0.9
        assert exc.value.x[0] == pytest.approx(10.0, rel=1e-6)

    @pytest.mark.parametrize("x0, t1, t_eval", [
        (1.0, -1.0, None), (math.nan, 1.0, None), ([], 1.0, None),
        (1.0, 1.0, [0.0, 0.5, 0.5]), (1.0, 1.0, [0.5, 0.2]),
        (np.linspace(-1.0, 1.0, 78), math.nan, None),
        (np.linspace(-1.0, 1.0, 78), math.inf, None),
        (1.0, 1.0, [0.0, math.nan, 1.0]), (1.0, 1.0, [math.nan]),
    ])
    def test_refuses_what_it_cannot_integrate(self, x0, t1, t_eval):
        # One line: a 78-component state (26 3D seeds) is named by its size.
        with pytest.raises(InvalidRange) as exc:
            integrate_ode(lambda t, x: x, x0, 0.0, t1, t_eval=t_eval)
        assert "\n" not in str(exc.value) and len(str(exc.value)) < 120

    def test_stop_evaluated_once_at_t0(self):
        at_t0 = []

        def stop(t, x):
            if t == 0.5:
                at_t0.append(x[0])
            return 2.0 - x[0]
        path = integrate_ode(lambda t, x: np.ones_like(x), 0.0, 0.5, 10.0, stop=stop)
        assert path.stop_reason == "stopped"
        assert at_t0 == [0.0]

    def test_rhs_calls_equal_solve_ivp_nfev(self):
        calls = []
        rhs = lambda t, x: x * math.cos(t)
        integrate_ode(lambda t, x: calls.append(t) or rhs(t, x), 1.0, 0.0, 50.0)
        sol = solve_ivp(rhs, (0.0, 50.0), [1.0], method="RK45",
                        rtol=DEFAULT_TOL.ode_rel, atol=DEFAULT_TOL.ode_abs)
        assert len(calls) == sol.nfev > 100


def _solve_ivp_path(rhs, x0, t1, tol, stop, t_eval):
    """What integrate_ode returned as one ``solve_ivp`` RK45 run from t = 0,
    and that run's rhs call count."""
    y0 = np.atleast_1d(np.asarray(x0, dtype=float))
    events = None
    if stop is not None:
        def events(t, y):
            return stop(t, y)
        events.terminal, events.direction = True, -1
    sol = solve_ivp(rhs, (0.0, t1), y0, method="RK45", t_eval=t_eval, events=events,
                    rtol=tol.ode_rel, atol=tol.ode_abs)
    times = np.asarray(sol.t, dtype=float)
    states = np.reshape(np.transpose(sol.y), (times.size, y0.size))
    if sol.status == 0:
        return OdePath(times, states, "completed"), sol.nfev
    t_stop = float(sol.t_events[0][0])
    if t_eval is not None:
        # solve_ivp samples t_eval up to the event but not the event.
        times = np.append(times, t_stop)
        states = np.vstack([states, sol.y_events[0][0]])
    return OdePath(times, states, "stopped", t_stop), sol.nfev


def _smooth_problem(kind, rate, x0):
    """(rhs, x0) of a smooth ODE: linear decay or growth, x cos t, or a
    rotation of a 3-vector about the axis (rate, 1, -0.5)."""
    if kind == "linear":
        return (lambda t, x: rate * x), x0
    if kind == "xcos":
        return (lambda t, x: x * math.cos(rate * t)), x0
    axis = np.array([rate, 1.0, -0.5])
    return (lambda t, x: np.cross(axis, x)), np.array([x0, 0.5, -1.0])


class TestSameBitsAsSolveIvp:
    """integrate_ode follows scipy's RK45 step for step; solve_ivp is the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "xcos", "rotation"]),
        rate=st.floats(-2.0, 2.0),
        x0=st.floats(-3.0, 3.0),
        t1=st.floats(0.1, 10.0),
        tol=st.sampled_from([DEFAULT_TOL, Tolerances(ode_rel=1e-4, ode_abs=1e-6),
                             Tolerances(ode_rel=1e-11, ode_abs=1e-13)]),
        fractions=st.none() | st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        margin=st.none() | st.floats(0.01, 3.0),
    )
    def test_same_path_and_rhs_calls(self, kind, rate, x0, t1, tol, fractions, margin):
        rhs, x0 = _smooth_problem(kind, rate, x0)
        t_eval = None if fractions is None else np.unique(t1 * np.array(fractions))
        stop = None
        if margin is not None:
            # Positive at t = 0; falls through zero once |x_0| grows or t passes.
            bound = float(np.atleast_1d(x0)[0]) ** 2 + margin
            stop = lambda t, x: bound - x[0] * x[0] - 0.3 * t
        expected, nfev = _solve_ivp_path(rhs, x0, t1, tol, stop, t_eval)
        calls = []
        path = integrate_ode(lambda t, x: calls.append(t) or rhs(t, x), x0, 0.0, t1, tol,
                             stop=stop, t_eval=t_eval)
        assert path.stop_reason == expected.stop_reason
        assert path.stop_time == expected.stop_time
        np.testing.assert_array_equal(path.times, expected.times)
        np.testing.assert_array_equal(path.states, expected.states)
        assert path.states.shape == expected.states.shape
        assert len(calls) == nfev

    @pytest.mark.parametrize("P", [0.008, 0.35])    # transmitted, reflected
    def test_stock_tunneling_field(self, P):
        # The ODE route's own problem: a float-valued rhs, the quantile
        # velocity of the stock tunneling packet, from a scalar x0 and from
        # a one-element x0 alike.
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=2.0)
        tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
        x0 = quantile_position(tunnel, P, 0.0)
        field = lambda t, x: quantile_velocity(tunnel, float(x[0]), t)
        expected, nfev = _solve_ivp_path(lambda t, x: [field(t, x)], x0, 2.0, DEFAULT_TOL,
                                         None, None)
        for start in (x0, [x0], np.array([x0])):
            calls = []
            path = integrate_ode(lambda t, x: calls.append(t) or field(t, x), start, 0.0, 2.0)
            np.testing.assert_array_equal(path.times, expected.times)
            np.testing.assert_array_equal(path.states, expected.states)
            assert path.states.shape == expected.states.shape
            assert len(calls) == nfev

    @pytest.mark.parametrize("start", ["scalar", "list", "array"])
    def test_lossy_field_with_a_stop_and_samples(self, start):
        # The dissipative fig1 packet (loss rate 0.1), whose velocity takes
        # the loss tail: x_0.5 sampled on the preset's half-unit grid and
        # stopped where it passes -3, near t = 4.5.
        lossy = DissipativeGaussianModel(DEFAULT_PACKET, DEFAULT_LOSS_RATE)
        x0 = quantile_position(lossy, 0.5, 0.0)
        field = lambda t, x: quantile_velocity(lossy, float(x[0]), t)
        stop = lambda t, x: -3.0 - x[0]
        t_eval = np.arange(0.0, 6.51, 0.5)
        expected, nfev = _solve_ivp_path(lambda t, x: [field(t, x)], x0, 6.5, DEFAULT_TOL,
                                         stop, t_eval)
        assert expected.stop_reason == "stopped" and 4.0 < expected.stop_time < 5.0
        calls = []
        path = integrate_ode(lambda t, x: calls.append(t) or field(t, x),
                             {"scalar": x0, "list": [x0], "array": np.array([x0])}[start],
                             0.0, 6.5, stop=stop, t_eval=t_eval)
        assert path.stop_reason == "stopped" and path.stop_time == expected.stop_time
        np.testing.assert_array_equal(path.times, expected.times)
        np.testing.assert_array_equal(path.states, expected.states)
        assert path.states.shape == expected.states.shape
        assert len(calls) == nfev

    @pytest.mark.parametrize("P", [0.008, 0.35])    # transmitted, reflected
    def test_tunneling_trace_replays_solve_ivp(self, P):
        # trace_trajectory_ode with its own rhs, density-floor event and
        # sample velocities, on the stock tunneling packet over [0, 10]: no
        # floor episode, so its path is solve_ivp's on quantile_velocity and
        # each velocity quantile_velocity's at its sample, to the bit.
        spectrum, grid = spectral_setup(DEFAULT_PACKET, t_max=10.0)
        tunnel = tunneling_packet_model(spectrum, DEFAULT_BARRIER, grid)
        x0 = quantile_position(tunnel, P, 0.0)
        expected, _ = _solve_ivp_path(
            lambda t, x: [quantile_velocity(tunnel, float(x[0]), t)], x0, 10.0, DEFAULT_TOL,
            None, None)
        traj = trace_trajectory_ode(tunnel, P, 0.0, 10.0)
        assert traj.termination.kind == "completed" and traj.floor_episodes == 0
        np.testing.assert_array_equal(traj.times, expected.times)
        np.testing.assert_array_equal(traj.positions, expected.states[:, 0])
        np.testing.assert_array_equal(traj.velocities, [
            quantile_velocity(tunnel, x, t)
            for t, x in zip(expected.times.tolist(), expected.states[:, 0].tolist())])


def _run_fresh(code, cwd=None):
    """stdout of ``code`` run in a fresh interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(quantracer.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=cwd,
                          capture_output=True, text=True).stdout


def test_package_import_loads_no_scipy():
    # erfc is math.erfc, and the library's only scipy import is cli's
    # ``import scipy`` for the manifest's version field, so importing the
    # package stays numpy-only.
    code = ("import sys, quantracer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_fresh(code).strip() == "[]"


def test_library_runs_load_no_scipy_submodule(tmp_path):
    # Root solves are the library's own Brent loop, ODE steps its own
    # Dormand-Prince loop and the mass in a 3D ball takes math.erf:
    # inversions, a retardation scan, trajectories on both routes, a 3D
    # flow map and its enclosed probability, and CLI runs of every ODE
    # command leave scipy.integrate, scipy.optimize and scipy.special
    # unloaded.
    code = """if True:
        import sys
        import numpy as np
        from quantracer import cli, quantile, tunneling, wavepacket
        spectrum, grid = wavepacket.spectral_setup(wavepacket.DEFAULT_PACKET, t_max=2.0)
        free = wavepacket.spectral_free_model(spectrum, grid)
        tunnel = wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER, grid)
        quantile.quantile_position(tunnel, [0.3, 0.6], 2.0)
        quantile.quantile_position(wavepacket.FreeGaussianModel(wavepacket.DEFAULT_PACKET),
                                   0.3, 2.0)
        tunneling.retardation_scan(free, tunnel, [0.01, 0.3], np.linspace(0.0, 2.0, 3))
        quantile.trace_trajectory_ode(tunnel, 0.3, 0.0, 1.0)
        field = wavepacket.Gaussian3DModel(wavepacket.Gaussian3DParams(
            center=(0.0, 0.0, 0.0), velocity=(2.0, 0.0, 0.0), sigma_x0=2.5))
        flow = quantile.trace_flowmap_3d(field, quantile.sphere_seeds((0.0, 0.0, 0.0), 2.5),
                                         [0.0, 0.5, 1.0])
        quantile.probability_in_volume(field, flow.points_at(2), 1.0)
        assert cli.main(["tunnel", "--t-max", "1", "--p-list", "0.5"]) == 0
        for command in ("free", "dissipative"):
            assert cli.main([command, "--t-max", "1", "--p-list", "0.5"]) == 0
        assert cli.main(["sphere3d", "--t-max", "2"]) == 0
        assert cli.main(["verify", "--quick"]) == 0
        print(sorted(m for m in sys.modules if m.startswith(
            ("scipy.integrate", "scipy.optimize", "scipy.special"))))
    """
    assert _run_fresh(code, cwd=tmp_path).strip().splitlines()[-1] == "[]"
    for name in ("tunnel_trajectories", "free_trajectories",
                 "dissipative_trajectories", "sphere3d_flowmap", "verify_report"):
        assert (tmp_path / f"{name}.csv").exists()


@pytest.mark.parametrize("module", ["numerics", "quantile", "wavepacket"])
def test_every_exported_name_resolves(module):
    # A name dropped from a module but left in its __all__ breaks
    # ``from quantracer.<module> import *``.
    mod = importlib.import_module(f"quantracer.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
