"""Shared numerical kernels: quadrature, root finding, ODE stepping.

Everything here is pure and reentrant; internal units are hbar = 1, m = 1
(positions in hbar/sqrt(eV*m), times in hbar/eV).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legint, legvander

from .errors import InvalidRange, NonConvergence, NoSignChange, StepUnderflow

__all__ = [
    "Tolerances",
    "KGrid",
    "Panels",
    "OdePath",
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


# ---------------------------------------------------------------------------
# Adaptive quadrature: nested Gauss-Legendre 7/15 panels.
# ---------------------------------------------------------------------------

_GL7_X, _GL7_W = leggauss(7)
_GL15_X, _GL15_W = leggauss(15)

# Panels after which an adaptive quadrature raises NonConvergence.
_MAX_PANELS = 4096

# The 22 abscissae of one panel on [-1, 1]: the GL15 nodes, then the GL7 ones.
PANEL_NODES = np.concatenate([_GL15_X, _GL7_X])

# Columns of the 21 distinct abscissae (both rules share the middle node 0),
# and the Legendre antiderivatives of the 21 Lagrange polynomials on them,
# shape (22, 21): legint of the inverse Legendre Vandermonde.  Their
# constant terms cancel in F(1) - F(xi).
_DISTINCT = np.delete(np.arange(PANEL_NODES.size), 15 + 3)
_ANTIDERIVATIVES = legint(np.linalg.inv(legvander(PANEL_NODES[_DISTINCT], 20)), axis=0)


@dataclass(frozen=True)
class Panels:
    """Retained panels of one adaptive quadrature, in ascending order.

    ``values[i]`` is the GL15 integral over [los[i], his[i]] and
    ``nodes[i]`` the integrand at its 21 distinct PANEL_NODES; consecutive
    panels share their edges exactly.  ``total`` is the running sum the
    refinement kept, which is what integrate_adaptive returns.
    ``upper[i]`` is the mass right of los[i] (the reverse cumulative
    panel values), then 0 for the top edge.
    """

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    nodes: np.ndarray
    total: float
    upper: np.ndarray

    def tail(self, x: float) -> float:
        """Mass right of any x: the mass right of x's panel plus
        partial_mass over [x, panel top], so a probe evaluates no
        integrand and equals ``upper`` at every panel edge."""
        if x <= self.los[0]:
            return float(self.upper[0])
        i = int(np.searchsorted(self.his, x))   # first panel with top >= x
        if i == self.his.size:
            return 0.0
        return float(self.upper[i + 1]) + self.partial_mass(i, x)

    def bracket(self, P: float) -> tuple[float, float]:
        """Edges of the panel whose edge tails straddle P."""
        # Last panel whose lower-edge tail is still >= P (upper[-1] = 0 < P).
        i = max(int(np.searchsorted(-self.upper, -P, side="right")) - 1, 0)
        return float(self.los[i]), float(self.his[i])

    def partial_mass(self, i: int, x: float) -> float:
        """Integral over [x, his[i]] of the degree-20 interpolant of panel
        i's 21 node values, for x in [los[i], his[i]].

        It reads only the stored node values, never the integrand; it is 0
        at x = his[i] exactly and values[i] up to the GL15 error at los[i].
        """
        lo, hi = self.los[i].item(), self.his[i].item()   # numpy scalars are slower
        half = 0.5 * (hi - lo)
        xi = 1.0 - (hi - float(x)) / half
        # sum_n c_n (1 - P_n(xi)), c the interpolant's antiderivative coefficients.
        c = (_ANTIDERIVATIVES @ self.nodes[i]).tolist()
        p0, p1, acc = 1.0, xi, c[1] * (1.0 - xi)
        for n in range(2, 22):
            p0, p1 = p1, (p1 * xi * (2 * n - 1) - p0 * (n - 1)) / n
            acc += c[n] * (1.0 - p1)
        return half * acc


def _at_panel_nodes(f):
    """Panel form of a vectorized integrand: (table, mid, half) -> values (n, 22)."""
    def panel_f(table, mid, half):
        # One call over every panel's GL15 nodes, then every GL7 node.
        nodes = mid[:, None] + half[:, None] * PANEL_NODES
        xs = np.concatenate([nodes[:, :15].ravel(), nodes[:, 15:].ravel()])
        ys = np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)
        n = mid.size
        return np.concatenate([ys[: 15 * n].reshape(n, 15), ys[15 * n :].reshape(n, 7)], axis=1)
    return panel_f


def _eval_panels(panel_f, table, los, his):
    """GL15 values, GL15-GL7 error estimates and the values at the 21
    distinct nodes, (n, 21), for a batch of panels of the given tables."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    ys = panel_f(table, mid, half)
    # einsum, not a BLAS matvec (whose rows round by batch size): a
    # panel's sums do not depend on the panels evaluated with it.
    v15 = half * np.einsum("ij,j->i", ys[:, :15], _GL15_W)
    v7 = half * np.einsum("ij,j->i", ys[:, 15:], _GL7_W)
    return v15, np.abs(v15 - v7), ys[:, _DISTINCT]


def initial_edges(a: float, b: float, n: int, points=()) -> np.ndarray:
    """n equal panels on [a, b], each of ``points`` inside (a, b) an extra edge."""
    edges = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    return np.union1d(edges, inner) if inner else edges


def _refine(panel_f, partitions, tol):
    """Per initial partition, the heap of (-error, order, lo, hi, value,
    error, node values) entries and the running total of an adaptive
    GL7/15 quadrature, all refined in lockstep (see adaptive_panels)."""
    parts = [np.asarray(edges, dtype=float) for edges in partitions]
    # Per table: heap (keyed by largest error estimate, its push counter
    # keeps ordering deterministic), total, summed error, panels, pushes.
    states = [[[], 0.0, 0.0, edges.size - 1, 0] for edges in parts]
    # Panels to evaluate: (table, los, his, value and error they replace).
    batch = [(k, e[:-1].tolist(), e[1:].tolist(), 0.0, 0.0) for k, e in enumerate(parts)]
    while batch:
        sizes = [len(los) for _, los, *_ in batch]
        vals, errs, ys = _eval_panels(
            panel_f, np.array([k for k, los, *_ in batch for _ in los]),
            [lo for _, los, *_ in batch for lo in los],
            [hi for _, _, his, *_ in batch for hi in his])
        start = 0
        for (k, los, his, v, e), n in zip(batch, sizes):
            state, rows, start = states[k], slice(start, start + n), start + n
            state[1] += float(np.sum(vals[rows])) - v
            state[2] += float(np.sum(errs[rows])) - e
            for lo, hi, pv, pe, py in zip(los, his, vals[rows], errs[rows], ys[rows]):
                heapq.heappush(state[0], (-pe, state[4], lo, hi, pv, pe, py))
                state[4] += 1
        batch = []
        for k, (heap, total, total_err, n_panels, _) in enumerate(states):
            if total_err <= max(tol.quad_abs, tol.quad_rel * abs(total)):
                continue
            if n_panels >= _MAX_PANELS:
                raise NonConvergence(f"quadrature needed more than {_MAX_PANELS} panels",
                                     value=total, error=total_err)
            _, _, lo, hi, v, e, _ = heapq.heappop(heap)
            if hi - lo < 1e-14 * (parts[k][-1] - parts[k][0]):
                raise NonConvergence("quadrature stalled on an unresolvable feature",
                                     value=total, error=total_err)
            states[k][3] += 1
            batch.append((k, (lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi), v, e))
    return [(heap, total) for heap, total, *_ in states]


def adaptive_panels(panel_f, partitions, tol: Tolerances = DEFAULT_TOL) -> list:
    """Adaptive GL7/15 quadratures that keep their panels, refined in lockstep.

    Each of ``partitions`` is one table's initial partition, finite and
    strictly increasing; ``panel_f(table, mid, half)`` returns the
    integrand at mid + half * PANEL_NODES for a batch of panels of the
    tables ``table``, shape (n, 22).  Each table keeps its own heap and
    bisects its panel with the largest GL15-GL7 gap until its summed gaps
    satisfy max(quad_abs, quad_rel * |total|).  One panel_f call evaluates
    all initial panels and round r the r-th bisection of every table still
    refining, so each table has its one-table build's panels and bits if
    panel_f gives each row the bits it has alone.  Returns one Panels per
    partition.  Raises NonConvergence once a table needs _MAX_PANELS panels
    or bisects one narrower than 1e-14 of its range.
    """
    tables = []
    for heap, total in _refine(panel_f, partitions, tol):
        heap.sort(key=lambda entry: entry[2])
        los, his, values = np.array([entry[2:5] for entry in heap]).T
        upper = np.append(np.cumsum(values[::-1])[::-1], 0.0)
        tables.append(Panels(los, his, values, np.array([entry[6] for entry in heap]),
                             total, upper))
    return tables


def integrate_adaptive(
    f,
    a,
    b,
    tol: Tolerances = DEFAULT_TOL,
    *,
    initial_panels: int = 8,
    points=(),
):
    """Adaptive panel quadrature of a vectorized integrand on a finite [a, b].

    The estimate satisfies |error| <= max(quad_abs, quad_rel * |value|) and is
    deterministic for fixed inputs.  ``f`` must accept an ndarray of abscissae
    (a scalar-broadcasting return is fine).  ``points`` inside (a, b) are
    extra initial panel edges, for kinks and curvature jumps of the
    integrand.  Reversed bounds give the negated integral.  Raises
    InvalidRange for a non-finite bound and NonConvergence after
    _MAX_PANELS panels.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidRange(f"integration bounds must be finite, got [{a}, {b}]")
    if a > b:
        return -integrate_adaptive(f, b, a, tol, initial_panels=initial_panels,
                                   points=points)
    if b == a:
        return 0.0
    edges = initial_edges(a, b, max(1, int(initial_panels)), points)
    return _refine(_at_panel_nodes(f), [edges], tol)[0][1]


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


# Half-width of every wave-number grid, in spectral standard deviations.
N_SIGMA = 6.0


def build_kgrid(k_mean, k_width, n_nodes=256) -> KGrid:
    """Gauss-Legendre nodes/weights on [max(0, k_mean - N_SIGMA*k_width), k_mean + N_SIGMA*k_width]."""
    if n_nodes < 64:
        raise ValueError("n_nodes must be at least 64")
    hi = k_mean + N_SIGMA * k_width
    if hi <= 0.0:
        raise InvalidRange("upper wave-number bound must be positive")
    lo = max(0.0, k_mean - N_SIGMA * k_width)
    if hi <= lo:
        raise InvalidRange("empty wave-number interval")
    return KGrid(*_gauss_rule(lo, hi, int(n_nodes)), k_min=lo, k_max=hi)


# leggauss(n) solves an n x n eigenproblem (about 18 ms at n = 386): keep it.
_legendre = functools.lru_cache(maxsize=16)(leggauss)


def _gauss_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# Quadrature nodes per oscillation period of a phase factor that the
# phase-resolution guard demands.
_NODES_PER_PERIOD = 8


def nodes_for_phase(max_phase_rate, k_lo, k_hi, minimum=64):
    """Node count that keeps >= _NODES_PER_PERIOD quadrature nodes per
    oscillation period of exp(i*phase(k)), given the largest |d phase/dk|
    over the evaluation domain; an array of rates gives a float array of
    counts, each with the bits of its rate's own count."""
    need = _NODES_PER_PERIOD * (abs(max_phase_rate) * (k_hi - k_lo) / (2.0 * math.pi))
    one = isinstance(need, float)
    if not (math.isfinite(need) if one else np.isfinite(need).all()):
        raise InvalidRange(f"phase rate {np.max(np.abs(max_phase_rate)):g} "
                           f"needs unboundedly many nodes")
    return max(int(minimum), math.ceil(need)) if one else np.maximum(minimum, np.ceil(need))


# ---------------------------------------------------------------------------
# Monotone root finding.
# ---------------------------------------------------------------------------


# Relative bracket tolerance and iteration cap of the Brent loop.
_ROOT_REL = 4.0 * float(np.finfo(float).eps)
_ROOT_MAXITER = 200


def find_root_monotone(g, bracket, tol: Tolerances = DEFAULT_TOL) -> float:
    """Root of a monotone function within ``bracket``.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973), step for step as scipy's ``brentq``: inverse
    quadratic or secant steps, bisection where they would not shrink the
    bracket fast enough, down to a width of root_abs + 4 eps |x|.  It
    returns the bits of ``brentq(g, lo, hi, xtol=root_abs, rtol=4*eps,
    maxiter=200)`` but evaluates each bracket end once.  Raises NoSignChange
    unless the bracket straddles a sign change, NonConvergence where g is
    NaN or after 200 iterations.
    """
    def checked(x):
        value = float(g(x))
        if math.isnan(value):
            raise NonConvergence(f"root function is NaN at x = {x}")
        return value

    lo, hi = float(bracket[0]), float(bracket[1])
    if hi < lo:
        lo, hi = hi, lo
    glo, ghi = checked(lo), checked(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0.0) == (ghi < 0.0):
        raise NoSignChange(
            f"g({lo}) = {glo} and g({hi}) = {ghi} have the same sign"
        )
    # pre: the previous iterate; blk: the bracket end opposite cur;
    # spre, scur: the step before last and the last step.
    xpre, fpre, xcur, fcur = lo, glo, hi, ghi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (tol.root_abs + _ROOT_REL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:    # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:               # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)   # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = checked(xcur)
    raise NonConvergence(f"root not bracketed to {tol.root_abs:g} after "
                         f"{_ROOT_MAXITER} iterations", value=xcur,
                         error=abs(xblk - xcur))


# ---------------------------------------------------------------------------
# Adaptive ODE integration (Dormand-Prince 5(4) with a terminal stop event).
# ---------------------------------------------------------------------------


# Dormand & Prince's 5(4) pair: nodes C, stage coefficients A, fifth-order
# weights B, error weights E (fifth minus fourth order, the FSAL stage
# last), and Shampine's quartic dense-output matrix P.  A keeps scipy's
# (6, 5) layout, so every np.dot sees the operands that scipy's RK45 does.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]])
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# Step control: safety factor, bounds on one step change, and the exponent
# -1 / (4 + 1) of the fourth-order error estimate.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5

# Stop events are located to 4 eps absolute and relative.
_EVENT_TOL = Tolerances(root_abs=_ROOT_REL)


@dataclass
class OdePath:
    """Sampled solution of an ODE trace with its stop record."""

    times: np.ndarray        # (n,)
    states: np.ndarray       # (n, d)
    stop_reason: str         # "completed" or "stopped"
    stop_time: float | None = None


def _rms(v):
    """RMS norm, as np.linalg.norm(v) / sqrt(v.size)."""
    return np.sqrt(v.dot(v)) / v.size ** 0.5


def _first_step(fun, t0, y0, f0, t1, rtol, atol):
    """Initial step of Hairer, Norsett & Wanner, II.4, for error order 4."""
    span = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dense_output(K, t_old, t, y_old):
    """Shampine's interpolant y_old + h (K^T P) [x, x^2, x^3, x^4] on the step
    [t_old, t], x = (s - t_old) / h; an array of s gives one row per s."""
    h, Q = t - t_old, K.T.dot(_DP_P)

    def at(s):
        x = (np.asarray(s) - t_old) / h
        p = np.cumprod(np.repeat(x[None], 4, axis=0), axis=0)
        return (h * np.dot(Q, p)).T + y_old
    return at


def integrate_ode(
    rhs,
    x0,
    t0: float,
    t1: float,
    tol: Tolerances = DEFAULT_TOL,
    stop=None,
    t_eval=None,
) -> OdePath:
    """Integrate dx/dt = rhs(t, x) adaptively from t0 to t1 >= t0.

    Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980) with
    Shampine's quartic dense output (Math. Comp. 46, 1986), and the initial
    step and step control of Hairer, Norsett & Wanner, *Solving ODEs I*,
    II.4, at ode_rel / ode_abs.  It follows scipy's RK45 and ``solve_ivp``
    step for step and returns their bits after their rhs calls: 2, then 6
    per step tried.  ``x0`` may be a scalar or a 1-d state vector.  The
    path is sampled at ``t_eval`` (strictly increasing within [t0, t1])
    when given, otherwise at t0 and each step end.  ``stop`` is an optional
    event g(t, x), evaluated at t0 and at each step end: the path stops
    where g falls through zero (a root solve on the dense output to 4 eps,
    and always its last sample), or at t0 if g(t0, x0) <= 0.  Raises
    InvalidRange (one line, naming the state's size, not its values) for
    t1 < t0, a non-finite t0, t1 or x0, an empty x0 or a t_eval that is
    not strictly increasing within [t0, t1], and StepUnderflow (with the
    last sample returned, or (t0, x0)) once the step falls below 10
    spacings of t.
    """
    t0, t1 = float(t0), float(t1)
    y0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not (-math.inf < t0 <= t1 < math.inf and y0.size and np.isfinite(y0).all()):
        raise InvalidRange(f"need a non-empty finite x0 and t0 <= t1, got "
                           f"{y0.size} components on [{t0}, {t1}]")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if not np.all(np.diff(t_eval) > 0.0) or t_eval.size and not (
                t0 - 1e-12 <= t_eval[0] and t_eval[-1] <= t1 + 1e-12):
            raise InvalidRange("t_eval must increase strictly within [t0, t1]")
        t_eval = np.clip(t_eval, t0, t1)

    if stop is not None:
        g_old = stop(t0, y0)
        if g_old <= 0.0:
            return OdePath(times=np.array([t0]), states=y0[None, :].copy(),
                           stop_reason="stopped", stop_time=t0)
    if t1 == t0:
        return OdePath(times=np.array([t0]), states=y0[None, :].copy(),
                       stop_reason="completed")

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    rtol, atol = max(tol.ode_rel, 100 * np.finfo(float).eps), tol.ode_abs
    f = fun(t0, y0)
    h_abs = _first_step(fun, t0, y0, f, t1, rtol, atol)
    K = np.empty((7, y0.size))
    t, y, i_eval, stopped = t0, y0, 0, False
    times, states = ([t0], [y0]) if t_eval is None else ([], [])
    while not stopped and t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:     # shrink until the step passes, then grow for the next
            if h_abs < min_step:
                t_last, y_last = (times[-1], states[-1]) if times else (t0, y0)
                raise StepUnderflow(f"ODE step below {min_step:g} after t = {t_last}",
                                    t=float(t_last), x=y_last.copy())
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:6].T, _DP_B)
            f_new = K[6] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new

        at = None
        if stop is not None:
            g_new = stop(t, y)
            if g_old >= 0 and g_new <= 0:       # g falls through zero
                at = _dense_output(K, t_old, t, y_old)
                t = find_root_monotone(lambda s: stop(s, at(s)), (t_old, t), _EVENT_TOL)
                y, stopped = at(t), True
            g_old = g_new
        if t_eval is not None:
            j = int(np.searchsorted(t_eval, t, side="right"))
            if j > i_eval:
                at = at or _dense_output(K, t_old, t, y_old)
                times.extend(t_eval[i_eval:j])
                states.extend(at(t_eval[i_eval:j]))
                i_eval = j
        if t_eval is None or stopped:
            times.append(t)
            states.append(y)
    return OdePath(times=np.array(times, dtype=float),
                   states=np.array(states).reshape(len(times), y0.size),
                   stop_reason="stopped" if stopped else "completed",
                   stop_time=float(t) if stopped else None)
