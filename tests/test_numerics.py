import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantracer.errors import InvalidRange, NonConvergence, NoSignChange, StepUnderflow
from quantracer.numerics import (
    DEFAULT_TOL,
    PANEL_NODES,
    Tolerances,
    adaptive_panels,
    build_kgrid,
    erfc,
    find_root_monotone,
    initial_edges,
    integrate_adaptive,
    integrate_ode,
    nodes_for_phase,
)

from oracles import erfc_highprec, normal_tail_quantile


class TestErfc:
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
        assert integrate_adaptive(f, -math.inf, math.inf) == pytest.approx(1.0, rel=1e-9)

    def test_oscillatory_gaussian(self):
        # closed form sqrt(pi) * exp(-25), frozen from the oracle
        val = integrate_adaptive(
            lambda x: np.exp(-x * x) * np.cos(10 * x), -math.inf, math.inf,
            initial_panels=32,
        )
        assert val == pytest.approx(2.4615739584615114e-11, abs=5e-12)

    def test_reversed_bounds_negate(self):
        v = integrate_adaptive(lambda x: x, 1.0, 0.0)
        assert v == pytest.approx(-0.5, abs=1e-12)

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

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergence):
            integrate_adaptive(
                lambda x: np.sin(1.0 / x), 1e-12, 1.0,
                tol=Tolerances(quad_rel=1e-12, quad_abs=1e-15),
                max_panels=24,
            )

    def test_retained_panels_tile_and_sum(self):
        f = lambda x: np.exp(-x * x / 2) * (1.0 + np.cos(6.0 * x) ** 2)
        edges = np.linspace(-5.0, 4.0, 9)

        def panel_f(mid, half):
            return f(mid[:, None] + half[:, None] * PANEL_NODES)

        panels = adaptive_panels(panel_f, edges, DEFAULT_TOL)
        assert panels.los.size > edges.size - 1          # some were bisected
        assert panels.los[0] == -5.0 and panels.his[-1] == 4.0
        assert np.array_equal(panels.los[1:], panels.his[:-1])
        assert panels.values.sum() == pytest.approx(panels.total, rel=1e-13)
        # integrate_adaptive is the same engine on the same partition.
        assert integrate_adaptive(f, -5.0, 4.0, initial_panels=8) == panels.total
        # Masses right of panel edges are the reverse cumulative values.
        upper = panels.upper
        assert upper[-1] == 0.0 and upper[0] == pytest.approx(panels.total, rel=1e-13)
        np.testing.assert_array_equal(panels.mass_above(panels.los[::-1]), upper[-2::-1])
        assert panels.mass_above([4.0])[0] == 0.0

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


class TestBuildKGrid:
    def test_fig_bounds(self):
        grid = build_kgrid(2.0, 0.2, n_sigma=6.0, n_nodes=256)
        assert grid.size == 256
        assert grid.k_min == pytest.approx(0.8)
        assert grid.k_max == pytest.approx(3.2)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_weights_sum_to_length(self):
        grid = build_kgrid(2.0, 0.2, n_sigma=6.0, n_nodes=128)
        assert grid.weights.sum() == pytest.approx(2.4, rel=1e-14)

    def test_truncated_gaussian_mass(self):
        # renormalized truncated Gaussian |psi~|^2 integrates to 1 on the grid,
        # cross-checked against the adaptive quadrature oracle
        grid = build_kgrid(2.0, 0.2, n_sigma=6.0, n_nodes=256)
        sig = 0.2
        mass = 0.5 * (erfc(-(grid.k_max - 2.0) / (sig * math.sqrt(2)))
                      - erfc(-(grid.k_min - 2.0) / (sig * math.sqrt(2))))
        dens = lambda k: np.exp(-((k - 2.0) ** 2) / (2 * sig * sig)) / (math.sqrt(2 * math.pi) * sig * mass)
        assert float(grid.weights @ dens(grid.nodes)) == pytest.approx(1.0, abs=1e-10)
        oracle = integrate_adaptive(dens, grid.k_min, grid.k_max)
        assert float(grid.weights @ dens(grid.nodes)) == pytest.approx(oracle, abs=1e-10)

    def test_negative_band_rejected(self):
        with pytest.raises(InvalidRange):
            build_kgrid(-5.0, 0.2, n_sigma=6.0, n_nodes=128)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_kgrid(2.0, 0.2, n_nodes=32)

    def test_nodes_for_phase_scales(self):
        n = nodes_for_phase(max_phase_rate=90.0, k_lo=0.8, k_hi=3.2)
        assert n >= 8 * 90.0 * 2.4 / (2 * math.pi) - 1
        assert nodes_for_phase(0.0, 0.8, 3.2) == 64


class TestFindRootMonotone:
    def test_linear(self):
        r = find_root_monotone(lambda x: x - 3.0, (0.0, 10.0))
        assert r == pytest.approx(3.0, abs=1e-9)

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
            stop=lambda t, x: x[0] >= 2.0,
        )
        assert path.stop_reason == "stopped"
        assert path.stop_time == pytest.approx(2.0, abs=1e-9)
        assert path.states[-1, 0] == pytest.approx(2.0, abs=1e-9)

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
