"""Shared numerical kernels: quadrature, root finding, ODE stepping.

Everything here is pure and reentrant; internal units are hbar = 1, m = 1
(positions in hbar/sqrt(eV*m), times in hbar/eV).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander
from numpy.polynomial.legendre import leggauss, legvander

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
    "invert_tables",
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
# and the Chebyshev coefficients of their degree-20 interpolant (_CHEB_RHO)
# and its antiderivative (_CHEB_MASS, 22 x 21): the interpolant at the
# Chebyshev points _Z, then their discrete cosine transform (inverting the
# Chebyshev Vandermonde on the panel nodes left reads 5e-16 off).
_DISTINCT = np.delete(np.arange(PANEL_NODES.size), 15 + 3)
_Z = np.cos(np.pi * (np.arange(21) + 0.5) / 21)
_CHEB_RHO = (chebvander(_Z, 20).T * np.append(1.0, np.full(20, 2.0))[:, None] / 21) @ (
    legvander(_Z, 20) @ np.linalg.inv(legvander(PANEL_NODES[_DISTINCT], 20)))
_CHEB_MASS = chebint(_CHEB_RHO, axis=0)
_SOLVE = np.concatenate([_CHEB_MASS, np.pad(_CHEB_RHO, ((0, 1), (0, 0)))])
# invert_tables reads tails at a grid of _GRID_CELLS cells (T_n there:
# _GRID_T) for first guesses, then takes _NEWTON_ROUNDS Newton steps.
_GRID_CELLS, _NEWTON_ROUNDS = 64, 2
_GRID_T = chebvander(np.linspace(-1.0, 1.0, _GRID_CELLS + 1), 21).T
_ORDERS = np.arange(22.0)


def _chebyshev(xi):
    """T_n(xi) = cos(n arccos xi), n = 0..21, along a new last axis."""
    return np.cos(np.arccos(xi)[..., None] * _ORDERS)


def _in_panel(lo, hi, base, c, x):
    """Mass right of x in x's panel [lo, hi] (x beyond an edge reads that
    edge): base, the mass above hi, plus the mass of the degree-20
    interpolant over [x, hi], c its _CHEB_MASS coefficients."""
    half = 0.5 * (hi - lo)
    T = _chebyshev(np.clip(1.0 - (hi - x) / half, -1.0, 1.0))
    return base + half * np.einsum("ij,...ij->...i", c, 1.0 - T)


@dataclass(frozen=True)
class Panels:
    """Retained panels of one adaptive quadrature, in ascending order.

    ``values[i]`` is the GL15 integral over [los[i], his[i]] and
    ``nodes[i]`` the integrand at its 21 distinct PANEL_NODES; consecutive
    panels share their edges exactly.  ``total`` is the running sum the
    refinement kept, which is what integrate_adaptive returns.
    ``upper[i]`` is the mass right of los[i] (the reverse cumulative
    panel values), then 0 for the top edge.  Inside a panel the tail
    integrates the degree-20 interpolant of its node values.
    """

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    nodes: np.ndarray
    total: float
    upper: np.ndarray

    def tail(self, x):
        """Mass right of x (a float, or an array of x's shape, each x with
        its scalar read's bits), from stored values only: ``upper`` at and
        below every panel edge, 0 above the top."""
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        i = np.minimum(np.searchsorted(self.his, flat), self.his.size - 1)
        c = np.einsum("ij,kj->ki", _CHEB_MASS, self.nodes[i])    # einsum: no batch rounding
        mass = _in_panel(self.los[i], self.his[i], self.upper[i + 1], c, flat)
        mass = np.where(flat <= self.los[0], self.upper[0], mass)
        return float(mass[0]) if xs.ndim == 0 else mass.reshape(xs.shape)


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
    """GL15 values, GL15-GL7 error estimates and the integrand at the
    panel nodes, (n, 22), for a batch of panels of the given tables."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    ys = panel_f(table, mid, half)
    # einsum, not a BLAS matvec (whose rows round by batch size): a
    # panel's sums do not depend on the panels evaluated with it.
    v15 = half * np.einsum("ij,j->i", ys[:, :15], _GL15_W)
    v7 = half * np.einsum("ij,j->i", ys[:, 15:], _GL7_W)
    return v15, np.abs(v15 - v7), ys


def initial_edges(a: float, b: float, n: int, points=()) -> np.ndarray:
    """n equal panels on [a, b], each of ``points`` inside (a, b) an extra edge."""
    edges = np.linspace(a, b, n + 1)
    inner = [p for p in points if a < p < b]
    return np.union1d(edges, inner) if inner else edges


def adaptive_panels(panel_f, partitions, tol: Tolerances = DEFAULT_TOL) -> list:
    """Adaptive GL7/15 quadratures that keep their panels, refined in lockstep.

    Each of ``partitions`` is one table's initial partition, finite and
    strictly increasing; ``panel_f(table, mid, half)`` returns the
    integrand at mid + half * PANEL_NODES for a batch of panels of the
    tables ``table``, shape (n, 22).  Every table keeps its panels in flat
    arrays and, each round, bisects its panel with the largest GL15-GL7
    gap (the earliest made on ties) until its summed gaps satisfy
    max(quad_abs, quad_rel * |total|).  One panel_f call evaluates all
    initial panels and round r the r-th bisection of every table still
    refining, so each table has its one-table build's panels and bits if
    panel_f gives each row the bits it has alone.  Returns one Panels per
    partition, in order.  Raises NonConvergence once a table needs
    _MAX_PANELS panels or bisects one narrower than 1e-14 of its range.
    """
    parts = [np.asarray(edges, dtype=float) for edges in partitions]
    sizes = [edges.size - 1 for edges in parts]
    los, his = np.concatenate([e[:-1] for e in parts]), np.concatenate([e[1:] for e in parts])
    vals, errs, ys = _eval_panels(panel_f, np.repeat(np.arange(len(parts)), sizes), los, his)
    # Panels made, in order: lo, hi, value, error, node values (by chunk).
    # errors and rows [k, j]: table k's j-th panel made (-inf, -1 once split
    # or unused); round r's children take columns n + 2r and n + 2r + 1.
    made, chunks, col = [a.tolist() for a in (los, his, vals, errs)], [ys], max(sizes)
    errors, rows = np.full((len(parts), col + 64), -np.inf), np.full((len(parts), col + 64), -1)
    states = []     # per table: running total, summed error, panel count, range
    for k, (end, size, edges) in enumerate(zip(itertools.accumulate(sizes), sizes, parts)):
        errors[k, :size], rows[k, :size] = errs[end - size:end], np.arange(end - size, end)
        states.append([float(np.sum(vals[end - size:end])), float(np.sum(errs[end - size:end])),
                       size, edges[-1] - edges[0]])
    while ks := [k for k, (total, error, *_) in enumerate(states)
                 if not error <= max(tol.quad_abs, tol.quad_rel * abs(total))]:
        kk = np.array(ks)
        at = np.argmax(errors[kk], axis=1)     # the largest, the earliest made on ties
        picked = rows[kk, at].tolist()
        errors[kk, at], rows[kk, at] = -np.inf, -1
        los, his = [], []
        for k, row in zip(ks, picked):
            total, error, count, span = states[k]
            lo, hi = made[0][row], made[1][row]
            if count >= _MAX_PANELS or hi - lo < 1e-14 * span:
                raise NonConvergence(f"quadrature needed more than {_MAX_PANELS} panels"
                                     if count >= _MAX_PANELS else
                                     "quadrature stalled on an unresolvable feature",
                                     value=total, error=error)
            los += (lo, 0.5 * (lo + hi))
            his += (0.5 * (lo + hi), hi)
        vals, errs, ys = _eval_panels(panel_f, np.repeat(kk, 2), los, his)
        v, e = vals.tolist(), errs.tolist()
        for j, (k, row) in enumerate(zip(ks, picked)):
            state = states[k]
            state[:3] = (state[0] + ((v[2 * j] + v[2 * j + 1]) - made[2][row]),
                         state[1] + ((e[2 * j] + e[2 * j + 1]) - made[3][row]), state[2] + 1)
        if col + 2 > errors.shape[1]:
            errors = np.concatenate([errors, np.full(errors.shape, -np.inf)], axis=1)
            rows = np.concatenate([rows, np.full(rows.shape, -1)], axis=1)
        errors[kk, col:col + 2] = errs.reshape(-1, 2)
        rows[kk, col:col + 2] = np.arange(len(made[0]), len(made[0]) + errs.size).reshape(-1, 2)
        for column, new in zip(made, (los, his, v, e)):
            column += new
        chunks.append(ys)
        col += 2
    # Every table's kept panels, by table and then by lower edge.
    kept = rows >= 0
    data = np.array(made[:3])[:, rows[kept]]
    order = np.lexsort((data[0], np.nonzero(kept)[0]))
    los, his, vals = data[:, order]
    nodes = np.concatenate(chunks)[rows[kept][order, None], _DISTINCT]
    cuts = [0, *itertools.accumulate(kept.sum(axis=1).tolist())]
    return [Panels(los[a:b], his[a:b], vals[a:b], nodes[a:b], state[0],
                   np.append(np.cumsum(vals[a:b][::-1])[::-1], 0.0))
            for a, b, state in zip(cuts, cuts[1:], states)]


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
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidRange(f"integration bounds must be finite, got [{a}, {b}]")
    if a > b:
        return -integrate_adaptive(f, b, a, tol, initial_panels=initial_panels,
                                   points=points)
    if b == a:
        return 0.0
    edges = initial_edges(a, b, max(1, int(initial_panels)), points)
    return adaptive_panels(_at_panel_nodes(f), [edges], tol)[0].total


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
            # A division by zero, where brentq's C floats give an inf or
            # NaN step and so bisect, bisects here too.
            try:
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        spre, scur = (scur, stry) if short else (sbis, sbis)   # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = checked(xcur)
    raise NonConvergence(f"root not bracketed to {tol.root_abs:g} after "
                         f"{_ROOT_MAXITER} iterations", value=xcur,
                         error=abs(xblk - xcur))


def invert_tables(tables, levels, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """x with table.tail(x) = P for every table and level, shape
    (len(tables), levels.size), from one batched solve.

    Each pair solves in its bracketing panel, the last one whose lower edge
    tail is >= P: a chord across the cell of a _GRID_CELLS grid whose tails
    straddle P, then _NEWTON_ROUNDS Newton steps kept in the panel (the
    interpolant of rho is minus the slope).  x is returned once Panels.tail's
    in-panel read (_in_panel) straddles P across x +- delta, delta =
    (root_abs + 4 eps |x|) / 2, an end beyond the panel reading its edge:
    Brent's stop rule, certified.  The arithmetic is elementwise, so a pair
    has the same bits alone or in any batch (quantile_position solves one
    block of tail_tables at a time); a pair that fails the test is solved
    by find_root_monotone on the panel.  Raises NoSignChange for a level
    not in (0, mass of the table].
    """
    levels = np.asarray(levels, dtype=float).ravel()
    if not tables or not levels.size:
        return np.empty((len(tables), levels.size))
    if not levels.min() > 0.0 or levels.max() > min(table.upper[0] for table in tables):
        raise NoSignChange(f"levels {levels.min()} to {levels.max()} are not all in (0, "
                           f"mass of the table]")
    picks = []
    for table in tables:
        # The last panel whose lower-edge tail is >= P (upper[-1] = 0 < P).
        i = table.upper.size - 1 - np.searchsorted(table.upper[::-1], levels)
        picks.append((table.los[i], table.his[i], table.upper[i + 1], table.nodes[i], levels))
    lo, hi, base, nodes, P = (column[0] if len(tables) == 1 else np.concatenate(column)
                              for column in zip(*picks))
    half = 0.5 * (hi - lo)
    coeffs = np.einsum("ij,kj->ki", _SOLVE, nodes)      # einsum: no batch rounding
    # Newton runs on u = (hi - x) / half in [0, 2], where tail - P is
    # base - P + half * sum_n c_n (1 - T_n(1 - u)) and its slope half * rho.
    scaled = (coeffs * half[:, None]).reshape(-1, 2, 22)
    top = np.einsum("ij->i", scaled[:, 0]) + (base - P)
    f = top[:, None] - np.einsum("ij,jk->ik", scaled[:, 0], _GRID_T)    # at u = 2 - j / 32
    cell = (f[:, 1:-1] >= 0.0).sum(axis=1)
    fl, fr = f[np.arange(P.size), cell], f[np.arange(P.size), cell + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.fmin(np.fmax(2.0 - (cell + fl / (fl - fr)) * (2.0 / _GRID_CELLS), 0.0), 2.0)
        for _ in range(_NEWTON_ROUNDS):
            sums = np.einsum("ikj,ij->ik", scaled, _chebyshev(1.0 - u))
            u = np.fmin(np.fmax(u - (top - sums[:, 0]) / sums[:, 1], 0.0), 2.0)
    x = hi - u * half
    ends = x + np.multiply.outer((-1.0, 1.0), 0.5 * tol.root_abs + (0.5 * _ROOT_REL) * np.abs(x))
    f = _in_panel(lo, hi, base, coeffs[:, :22], ends) - P      # Panels.tail's read
    for j in np.flatnonzero(~(((ends[0] <= lo) | (f[0] >= 0.0)) & (f[1] <= 0.0))).tolist():
        x[j] = find_root_monotone(lambda x: tables[j // levels.size].tail(x) - P[j],
                                  (lo[j], hi[j]), tol)
    return x.reshape(len(tables), levels.size)


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
            if not h_abs >= min_step:     # a NaN rhs makes h_abs NaN
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
