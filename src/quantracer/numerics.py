"""Shared numerical kernels: special functions, quadrature, root finding, ODE stepping.

Everything here is pure and reentrant; internal units are hbar = 1, m = 1
(positions in hbar/sqrt(eV*m), times in hbar/eV).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import RK45

from .errors import InvalidRange, NonConvergence, NoSignChange, StepUnderflow

__all__ = [
    "Tolerances",
    "KGrid",
    "Panels",
    "OdePath",
    "erfc",
    "integrate_adaptive",
    "adaptive_panels",
    "initial_edges",
    "PANEL_NODES",
    "build_kgrid",
    "nodes_for_phase",
    "find_root_monotone",
    "integrate_ode",
    "DEFAULT_TOL",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerance bundle passed through the whole stack.

    quad_rel / quad_abs control adaptive quadrature, root_abs the bracket
    width of root finding, ode_rel / ode_abs the per-step ODE error targets.
    """

    quad_rel: float = 1e-9
    quad_abs: float = 1e-12
    root_abs: float = 1e-10
    ode_rel: float = 1e-8
    ode_abs: float = 1e-10

    def __post_init__(self):
        for name in ("quad_rel", "quad_abs", "root_abs", "ode_rel", "ode_abs"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def erfc(x):
    """Complementary error function, vectorized, relative error <= 1e-12 for |x| <= 10."""
    return special.erfc(x)


# ---------------------------------------------------------------------------
# Adaptive quadrature: nested Gauss-Legendre 7/15 panels.
# ---------------------------------------------------------------------------

_GL7_X, _GL7_W = leggauss(7)
_GL15_X, _GL15_W = leggauss(15)


# The 22 abscissae of one panel on [-1, 1]: the GL15 nodes, then the GL7 ones.
PANEL_NODES = np.concatenate([_GL15_X, _GL7_X])


@dataclass(frozen=True)
class Panels:
    """Retained panels of one adaptive quadrature, in ascending order.

    ``values[i]`` is the GL15 integral over [los[i], his[i]]; consecutive
    panels share their edges exactly.  ``total`` is the running sum the
    refinement kept, which is what integrate_adaptive returns.
    """

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    total: float

    @property
    def upper(self) -> np.ndarray:
        """Mass right of each lower edge, then 0 for the top edge."""
        return np.append(np.cumsum(self.values[::-1])[::-1], 0.0)

    def mass_above(self, edges) -> np.ndarray:
        """Mass right of each x in ``edges``, every one a panel edge."""
        return self.upper[np.searchsorted(self.los, edges)]


def _at_panel_nodes(f):
    """Panel form of a vectorized integrand: (mid, half) -> values (n, 22)."""
    def panel_f(mid, half):
        # One call over the concatenated nodes of both rules.
        x15 = mid[:, None] + half[:, None] * _GL15_X[None, :]
        x7 = mid[:, None] + half[:, None] * _GL7_X[None, :]
        xs = np.concatenate([x15.ravel(), x7.ravel()])
        ys = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
        n = mid.size
        return np.concatenate([ys[: 15 * n].reshape(n, 15),
                               ys[15 * n :].reshape(n, 7)], axis=1)
    return panel_f


def _eval_panels(panel_f, los, his):
    """GL15 values and GL15-GL7 error estimates for a batch of panels."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    ys = panel_f(mid, half)
    # Contiguous copies give the rule sums the pointwise layout's bits.
    v15 = half * (np.ascontiguousarray(ys[:, :15]) @ _GL15_W)
    v7 = half * (np.ascontiguousarray(ys[:, 15:]) @ _GL7_W)
    return v15, np.abs(v15 - v7)


def initial_edges(a: float, b: float, n: int, points=()) -> np.ndarray:
    """n equal panels on [a, b], each of ``points`` inside (a, b) an extra edge."""
    edges = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    return np.union1d(edges, inner) if inner else edges


def adaptive_panels(panel_f, edges, tol: Tolerances = DEFAULT_TOL, *,
                    max_panels: int = 4096) -> Panels:
    """Adaptive GL7/15 quadrature that keeps its panels.

    ``edges`` is the initial partition, finite and strictly increasing.
    ``panel_f(mid, half)`` returns the integrand at mid + half * PANEL_NODES
    for a batch of panels, shape (n, 22).  The panel with the largest
    GL15-GL7 gap is bisected until the summed gaps satisfy
    max(quad_abs, quad_rel * |total|).  Raises NonConvergence after
    ``max_panels`` panels or on a panel narrower than 1e-14 of the range.
    """
    edges = np.asarray(edges, dtype=float)
    n0 = edges.size - 1
    vals, errs = _eval_panels(panel_f, edges[:-1], edges[1:])

    # Heap keyed by largest error estimate; counter keeps ordering deterministic.
    heap = []
    counter = 0
    for lo, hi, v, e in zip(edges[:-1], edges[1:], vals, errs):
        heapq.heappush(heap, (-e, counter, lo, hi, v, e))
        counter += 1

    total = float(np.sum(vals))
    total_err = float(np.sum(errs))
    n_panels = n0
    width_floor = 1e-14 * (edges[-1] - edges[0])

    while total_err > max(tol.quad_abs, tol.quad_rel * abs(total)):
        if n_panels >= max_panels:
            raise NonConvergence(
                f"quadrature needed more than {max_panels} panels",
                value=total,
                error=total_err,
            )
        neg_e, _, lo, hi, v, e = heapq.heappop(heap)
        if hi - lo < width_floor:
            raise NonConvergence(
                "quadrature stalled on an unresolvable feature",
                value=total,
                error=total_err,
            )
        mid = 0.5 * (lo + hi)
        new_vals, new_errs = _eval_panels(panel_f, [lo, mid], [mid, hi])
        total += float(np.sum(new_vals)) - v
        total_err += float(np.sum(new_errs)) - e
        for plo, phi, pv, pe in zip((lo, mid), (mid, hi), new_vals, new_errs):
            heapq.heappush(heap, (-pe, counter, plo, phi, pv, pe))
            counter += 1
        n_panels += 1

    los, his, values = np.array(sorted(entry[2:5] for entry in heap)).T
    return Panels(los, his, values, total)


def _integrate_finite(f, a, b, tol, initial_panels, max_panels, points):
    if b == a:
        return 0.0
    edges = initial_edges(a, b, max(1, int(initial_panels)), points)
    return adaptive_panels(_at_panel_nodes(f), edges, tol, max_panels=max_panels).total


def integrate_adaptive(
    f,
    a,
    b,
    tol: Tolerances = DEFAULT_TOL,
    *,
    decay_length: float = 1.0,
    initial_panels: int = 8,
    max_panels: int = 4096,
    points=(),
):
    """Adaptive panel quadrature of a vectorized integrand on [a, b].

    The estimate satisfies |error| <= max(quad_abs, quad_rel * |value|) and is
    deterministic for fixed inputs.  ``f`` must accept an ndarray of abscissae
    (a scalar-broadcasting return is fine).  Infinite bounds are mapped to the
    unit interval through an algebraic substitution with scale
    ``decay_length``, which the caller should set to the integrand's decay
    scale.  ``points`` inside a finite [a, b] are extra initial panel edges,
    for kinks and curvature jumps of the integrand.  Raises NonConvergence
    after ``max_panels`` subdivisions.
    """
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise InvalidRange("integration bounds must not be NaN")
    if a > b:
        return -integrate_adaptive(
            f, b, a, tol,
            decay_length=decay_length,
            initial_panels=initial_panels,
            max_panels=max_panels,
            points=points,
        )

    inf_a = math.isinf(a)
    inf_b = math.isinf(b)
    if inf_a and inf_b:
        left = integrate_adaptive(
            f, 0.0, math.inf, tol,
            decay_length=decay_length,
            initial_panels=initial_panels,
            max_panels=max_panels,
        )
        right = integrate_adaptive(
            f, -math.inf, 0.0, tol,
            decay_length=decay_length,
            initial_panels=initial_panels,
            max_panels=max_panels,
        )
        return left + right
    if inf_b:
        L = float(decay_length)
        if L <= 0.0:
            raise InvalidRange("decay_length must be positive for infinite bounds")

        def mapped(u):
            u = np.asarray(u)
            x = a + L * u / (1.0 - u)
            jac = L / (1.0 - u) ** 2
            return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape) * jac

        return _integrate_finite(mapped, 0.0, 1.0, tol, initial_panels, max_panels, ())
    if inf_a:
        return integrate_adaptive(
            lambda x: f(-np.asarray(x)), -b, math.inf, tol,
            decay_length=decay_length,
            initial_panels=initial_panels,
            max_panels=max_panels,
        )
    return _integrate_finite(f, a, b, tol, initial_panels, max_panels, points)


# ---------------------------------------------------------------------------
# Wave-number grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KGrid:
    """Fixed Gauss-Legendre grid over a band of non-negative wave numbers."""

    nodes: np.ndarray
    weights: np.ndarray
    k_min: float
    k_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0.0:
            raise ValueError("all nodes must be non-negative")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size


def build_kgrid(k_mean, k_width, n_sigma=6.0, n_nodes=256) -> KGrid:
    """Gauss-Legendre nodes/weights on [max(0, k_mean - n_sigma*k_width), k_mean + n_sigma*k_width]."""
    if n_nodes < 64:
        raise ValueError("n_nodes must be at least 64")
    hi = k_mean + n_sigma * k_width
    if hi <= 0.0:
        raise InvalidRange("upper wave-number bound must be positive")
    lo = max(0.0, k_mean - n_sigma * k_width)
    if hi <= lo:
        raise InvalidRange("empty wave-number interval")
    x, w = leggauss(int(n_nodes))
    half = 0.5 * (hi - lo)
    return KGrid(nodes=lo + half * (x + 1.0), weights=half * w, k_min=lo, k_max=hi)


def nodes_for_phase(max_phase_rate, k_lo, k_hi, nodes_per_period=8, minimum=64):
    """Node count that keeps >= ``nodes_per_period`` quadrature nodes per
    oscillation period of exp(i*phase(k)), given the largest |d phase/dk|
    over the evaluation domain."""
    periods = abs(max_phase_rate) * (k_hi - k_lo) / (2.0 * math.pi)
    return max(int(minimum), int(math.ceil(nodes_per_period * periods)))


# ---------------------------------------------------------------------------
# Monotone root finding.
# ---------------------------------------------------------------------------


def find_root_monotone(g, bracket, tol: Tolerances = DEFAULT_TOL) -> float:
    """Root of a monotone function within ``bracket``.

    Uses Brent's bracketing method (bisection fallback built in), so
    convergence is guaranteed once the bracket straddles a sign change;
    raises NoSignChange otherwise.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi < lo:
        lo, hi = hi, lo
    glo = float(g(lo))
    ghi = float(g(hi))
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise NoSignChange(
            f"g({lo}) = {glo} and g({hi}) = {ghi} have the same sign"
        )
    from scipy.optimize import brentq

    return float(brentq(g, lo, hi, xtol=tol.root_abs, rtol=4 * np.finfo(float).eps,
                        maxiter=200))


# ---------------------------------------------------------------------------
# Adaptive ODE integration (embedded Runge-Kutta 5(4) with dense output).
# ---------------------------------------------------------------------------


@dataclass
class OdePath:
    """Sampled solution of an ODE trace with its stop record."""

    times: np.ndarray        # (n,)
    states: np.ndarray       # (n, d)
    stop_reason: str         # "completed" or "stopped"
    stop_time: float | None = None


def _refine_stop_time(dense, stop, t_lo, t_hi, y_hi):
    """Earliest time in (t_lo, t_hi] at which the stop predicate holds."""
    for _ in range(80):
        if t_hi - t_lo <= 1e-12 * max(1.0, abs(t_hi)):
            break
        mid = 0.5 * (t_lo + t_hi)
        if stop(mid, dense(mid)):
            t_hi = mid
            y_hi = dense(mid)
        else:
            t_lo = mid
    return t_hi, y_hi


def integrate_ode(
    rhs,
    x0,
    t0: float,
    t1: float,
    tol: Tolerances = DEFAULT_TOL,
    stop=None,
    t_eval=None,
    max_step=np.inf,
) -> OdePath:
    """Integrate dx/dt = rhs(t, x) adaptively from t0 to t1.

    ``x0`` may be a scalar or a 1-d state vector.  Dense output is sampled at
    ``t_eval`` when given, otherwise at the accepted step points.  ``stop`` is
    an optional predicate stop(t, x) -> bool checked along the path; the
    crossing time is refined by bisection on the dense output and reported in
    the returned path.  Raises StepUnderflow (with the last accepted state)
    when the controller cannot advance.
    """
    y0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.size and (t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12):
            raise InvalidRange("t_eval must lie within [t0, t1]")

    if stop is not None and stop(t0, y0):
        return OdePath(
            times=np.array([t0]), states=y0[None, :].copy(),
            stop_reason="stopped", stop_time=t0,
        )
    if t1 == t0:
        return OdePath(times=np.array([t0]), states=y0[None, :].copy(),
                       stop_reason="completed")

    solver = RK45(rhs, t0, y0, t_bound=t1, rtol=tol.ode_rel, atol=tol.ode_abs,
                  max_step=max_step)
    times = [t0]
    states = [y0.copy()]
    eval_idx = 0
    if t_eval is not None:
        times = []
        states = []
        while eval_idx < t_eval.size and t_eval[eval_idx] <= t0:
            times.append(t_eval[eval_idx])
            states.append(y0.copy())
            eval_idx += 1

    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(
                f"ODE step failed at t = {solver.t}: {message}",
                t=solver.t, x=solver.y.copy(),
            )
        dense = solver.dense_output()
        t_lo, t_hi = solver.t_old, solver.t

        stopped_at = None
        if stop is not None and stop(t_hi, solver.y):
            stopped_at, y_stop = _refine_stop_time(dense, stop, t_lo, t_hi, solver.y)

        if t_eval is not None:
            limit = stopped_at if stopped_at is not None else t_hi
            while eval_idx < t_eval.size and t_eval[eval_idx] <= limit + 1e-14:
                te = min(t_eval[eval_idx], t_hi)
                times.append(te)
                states.append(np.atleast_1d(dense(te)))
                eval_idx += 1
        elif stopped_at is None:
            times.append(t_hi)
            states.append(solver.y.copy())

        if stopped_at is not None:
            times.append(stopped_at)
            states.append(np.atleast_1d(y_stop))
            return OdePath(
                times=np.asarray(times), states=np.asarray(states),
                stop_reason="stopped", stop_time=stopped_at,
            )

    if t_eval is not None:
        # Cover evaluation points at exactly t1 that the loop's tolerance missed.
        while eval_idx < t_eval.size:
            times.append(t_eval[eval_idx])
            states.append(solver.y.copy())
            eval_idx += 1
    return OdePath(times=np.asarray(times), states=np.asarray(states),
                   stop_reason="completed")
