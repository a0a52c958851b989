"""Shared numerical kernels: quadrature, root finding, ODE stepping.

Everything here is pure and reentrant; internal units are hbar = 1, m = 1
(positions in hbar/sqrt(eV*m), times in hbar/eV).
"""

from __future__ import annotations

import functools
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
    "kgrid_band",
    "nodes_for_phase",
    "max_phase_rate",
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
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


# ---------------------------------------------------------------------------
# Adaptive quadrature: nested Gauss-Legendre 7/15 panels.
# ---------------------------------------------------------------------------

_GL7_X, _GL7_W = leggauss(7)
_GL15_X, _GL15_W = leggauss(15)

# Panels after which an adaptive quadrature raises NonConvergence.  A build
# down to a level takes at least _FIRST_ROUND initial panels in its first
# round, _FIRST_CHUNK a table (a round costs about as much as 20-30 panels),
# then _NEXT_CHUNK a table and twice as many each later round.
_MAX_PANELS, _FIRST_ROUND, _FIRST_CHUNK, _NEXT_CHUNK = 4096, 32, 4, 2

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
    T = _chebyshev(np.minimum(np.maximum(1.0 - (hi - x) / half, -1.0), 1.0))
    return base + half * np.einsum("ij,...ij->...i", c, 1.0 - T)


@dataclass(frozen=True)
class Panels:
    """Retained panels of one adaptive quadrature, in ascending order.

    ``values[i]`` is the GL15 integral over [los[i], his[i]] and
    ``nodes[i]`` the integrand at its 21 distinct PANEL_NODES; consecutive
    panels share their edges exactly.  ``upper[i]`` is the mass right of
    los[i], the values summed from the top down (so a table built down to
    an edge is the top of one built further, bit for bit), then 0 for the
    top edge; ``total`` is upper[0].  Inside a panel the tail integrates
    the degree-20 interpolant of its node values.
    """

    los: np.ndarray
    his: np.ndarray
    values: np.ndarray
    nodes: np.ndarray
    upper: np.ndarray
    total = property(lambda self: float(self.upper[0]))

    def tail(self, x):
        """Mass right of x (a float, or an array of x's shape, each x with
        its scalar read's bits), from stored values only: ``upper`` at and
        below every panel edge, 0 above the top (read_tails)."""
        xs = np.asarray(x, dtype=float)
        mass = read_tails([self], xs.ravel())[0]
        return float(mass[0]) if xs.ndim == 0 else mass.reshape(xs.shape)


def read_tails(tables, x) -> np.ndarray:
    """Panels.tail of every table at every x of a 1-d x, shape (len(tables),
    x.size): a searchsorted per table, then one _CHEB_MASS einsum and one
    _in_panel call over every (table, x) pair, each with its lone read's bits."""
    rows = [np.minimum(np.searchsorted(p.his, x), p.his.size - 1) for p in tables]
    lo, hi, base, nodes = (np.concatenate(c) for c in zip(*[
        (p.los[i], p.his[i], p.upper[i + 1], p.nodes[i]) for p, i in zip(tables, rows)]))
    c = np.einsum("ij,kj->ki", _CHEB_MASS, nodes)    # einsum: no batch rounding
    mass = _in_panel(lo, hi, base, c, np.tile(x, len(tables))).reshape(len(tables), x.size)
    ends = np.array([(p.los[0], p.total) for p in tables])
    return np.where(x <= ends[:, :1], ends[:, 1:], mass)


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


def adaptive_panels(panel_f, edges, lengths, tol=DEFAULT_TOL,
                    low: float = -math.inf, above: float = math.inf, depths=math.inf) -> list:
    """Adaptive GL7/15 quadratures that keep their panels, refined panel by panel.

    ``edges`` holds each table's initial partition, finite and strictly
    increasing, of span W: table i's are the next lengths[i] entries.
    ``panel_f(table, mid, half)`` returns the integrand at mid + half *
    PANEL_NODES for a batch of panels of the tables ``table``, shape (n,
    22).  A panel of width w is kept when its GL15-GL7 gap is at most
    (quad_abs w / W + quad_rel |value|) / 2 under ``tol`` (one Tolerances,
    or a (quad_abs, quad_rel) row per table), else its halves are judged
    alone (as in Gander & Gautschi, BIT 40, 2000): the gaps sum to at most
    (quad_abs + quad_rel sum |value|) / 2, within max(quad_abs, quad_rel
    |total|) for a nonnegative integrand.  So a table has the same panels
    above any edge however deep it is built, and the same bits in any
    batch if panel_f gives each row the bits it has alone.  A table starts
    at the initial panel holding ``low`` (the last at most); with a finite
    ``above`` it takes initial panels from the top while its mass is below
    ``above``: first down to the panel holding its entry of ``depths``
    (one, or one per table), at least max(_FIRST_CHUNK, _FIRST_ROUND //
    tables), then _NEXT_CHUNK, twice as many each round.  The depths size
    the work, not a bit.  Set-up is array operations over all tables, and
    a round evaluates every table's pending panels in one panel_f call.
    Returns one Panels per table; raises NonConvergence once a table needs
    more than _MAX_PANELS panels or bisects one narrower than 1e-14 of W.
    """
    flat, lengths = np.asarray(edges, dtype=float), np.asarray(lengths)
    n, starts = lengths.size, lengths.cumsum() - lengths
    spans = flat[starts + lengths - 1] - flat[starts]
    qa, qr = np.transpose(tol) if not isinstance(tol, Tolerances) else (
        np.full(n, tol.quad_abs), np.full(n, tol.quad_rel))
    # Per table: initial panels in [bottom, top) not taken yet, the next
    # chunk's size, panels made and the mass of its kept panels.
    tops = lengths - 1
    bottoms = np.minimum(tops - 1, np.maximum(0, np.add.reduceat(flat <= low, starts) - 1))
    sizes = tops - bottoms
    if above < math.inf:    # down to the panel holding each depth, at least a floor
        deep = np.add.reduceat(flat > np.broadcast_to(depths, n).repeat(lengths), starts)
        sizes = np.maximum(max(_FIRST_CHUNK, _FIRST_ROUND // n), deep)
    counts, mass = np.zeros(n, dtype=int), np.zeros(n)

    def take(ks):
        m = np.minimum(sizes[ks], tops[ks] - bottoms[ks])
        tops[ks], sizes[ks], counts[ks] = tops[ks] - m, 2 * sizes[ks], counts[ks] + m
        at = (starts[ks] + tops[ks] - m.cumsum() + m).repeat(m) + np.arange(m.sum())
        return ks.repeat(m), flat[at], flat[at + 1]

    table, los, his = take(np.arange(n))
    sizes[:] = _NEXT_CHUNK
    kept = []       # per round: table, lo, hi, value and node values of its kept panels
    while table.size:
        vals, errs, ys = _eval_panels(panel_f, table, los, his)
        widths = his - los
        ok = errs <= 0.5 * (qa[table] * widths / spans[table] + qr[table] * np.abs(vals))
        kept.append((table[ok], los[ok], his[ok], vals[ok], ys[ok][:, _DISTINCT]))
        split, lo, hi = table[~ok], los[~ok], his[~ok]
        counts += np.bincount(split, minlength=n)
        mass += np.bincount(kept[-1][0], kept[-1][3], n)
        held = mass + np.bincount(split, vals[~ok], n)
        narrow = widths[~ok] < 1e-14 * spans[split]
        if np.count_nonzero(narrow) or np.count_nonzero(counts > _MAX_PANELS):
            k = int(np.argmax((counts > _MAX_PANELS) | (np.bincount(split, narrow, n) > 0)))
            raise NonConvergence(f"quadrature needed more than {_MAX_PANELS} panels" if counts[k]
                                 > _MAX_PANELS else "quadrature stalled on an unresolvable feature",
                                 value=held[k], error=np.bincount(split, errs[~ok], n)[k])
        more = (tops > bottoms) & (held < above)
        if not (split.size or np.count_nonzero(more)):
            # All refined: the tables, by lower edge.  One goes on down where
            # upper[0] is short of ``above`` and the running sum was not.
            ts, l, h, v, nodes = (np.concatenate(c) for c in zip(*kept))
            order = np.lexsort((l, ts))
            cuts = np.searchsorted(ts[order], np.arange(n + 1)).tolist()
            l, h, v, nodes = l[order], h[order], v[order], nodes[order]
            tables = [Panels(l[a:b], h[a:b], v[a:b], nodes[a:b],
                             np.concatenate((np.cumsum(v[a:b][::-1])[::-1], [0.0])))
                      for a, b in zip(cuts, cuts[1:])]
            more = (tops > bottoms) & (np.array([p.total for p in tables]) < above)
        mid = 0.5 * (lo + hi)
        new = [take(more.nonzero()[0])] if np.count_nonzero(more) else []
        table, los, his = (np.concatenate(c) for c in zip((split, lo, mid), (split, mid, hi), *new))
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

    The panel error estimates sum to at most (quad_abs + quad_rel sum
    |panel value|) / 2 <= max(quad_abs, quad_rel |value|) for f of one
    sign; the value is deterministic.  ``f`` must accept an ndarray of
    abscissae (a scalar-broadcasting return is fine).  ``points`` inside
    (a, b) are extra initial panel edges, for kinks and curvature jumps.
    Reversed bounds give the negated integral.  Raises InvalidRange for a
    non-finite bound and NonConvergence after _MAX_PANELS panels.
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
    return adaptive_panels(_at_panel_nodes(f), edges, [edges.size], tol)[0].total


# ---------------------------------------------------------------------------
# Wave-number grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KGrid:
    """Fixed Gauss-Legendre grid over a band of non-negative wave numbers.

    The spectral models' phase guard (nodes_for_phase) bounds the error of
    Gauss-Legendre sums: nodes and weights are the rule's on [k_min, k_max].
    """

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
        if not np.all(np.diff(nodes) > 0.0):     # a NaN node or weight fails
            raise ValueError("nodes must be strictly increasing")
        if not nodes[0] >= 0.0:
            raise ValueError("all nodes must be non-negative")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size


# Half-width of every wave-number grid, in spectral standard deviations.
N_SIGMA = 6.0


def kgrid_band(k_mean, k_width) -> tuple[float, float]:
    """The band k_mean -+ N_SIGMA k_width; an InvalidRange where it is empty
    or reaches k <= 0: every mode is incident from the left, so a cut at 0
    would make another packet than the Gaussian."""
    lo, hi = k_mean - N_SIGMA * k_width, k_mean + N_SIGMA * k_width
    if not 0.0 < lo < hi:   # NaN too
        raise InvalidRange(f"wave-number band [{lo:.4g}, {hi:.4g}] is empty or reaches k <= 0")
    return lo, hi


def build_kgrid(k_mean, k_width, n_nodes=256) -> KGrid:
    """Gauss-Legendre nodes/weights on kgrid_band(k_mean, k_width)."""
    if n_nodes < 64:
        raise ValueError("n_nodes must be at least 64")
    lo, hi = kgrid_band(k_mean, k_width)
    return KGrid(*_gauss_rule(lo, hi, int(n_nodes)), k_min=lo, k_max=hi)


# leggauss(n) solves an n x n eigenproblem (about 3 ms at n = 104, 18 ms at
# 386, 6 s at 4096): keep it.
_legendre = functools.lru_cache(maxsize=16)(leggauss)


def _gauss_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = _legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# The k-sum error target, a fraction of the spectral peak, and the ellipses
# E_rho, rho = e^beta, of its bound (past beta = 2 the Gaussian's growth wins).
_K_TOL = 1e-15
_BETAS = np.geomspace(1e-6, 2.0, 1000)


def _ellipse_terms(rho_max: float):
    """(b, c, 2 beta) per ellipse below rho_max, the n-node bound being
    e^(omega b + c) rho^(-2n): b = sinh(beta) its semi-minor axis; c the log
    of 64/15 / (rho^2 - 1) / _K_TOL, of the Gaussian's growth e^((N_SIGMA
    b/2)^2) and, under a pole's ellipse rho_max, of |T| ~ (rho_max - 1) /
    (rho_max - rho)."""
    beta = _BETAS[_BETAS < math.log(rho_max)]
    rho, b = np.exp(beta), np.sinh(beta)
    c = math.log(64.0 / 15.0 / _K_TOL) - np.log(rho * rho - 1.0) + (0.5 * N_SIGMA * b) ** 2
    if rho_max < math.inf:
        c += np.log((rho_max - 1.0) / (rho_max - rho))
    return b, c, 2.0 * beta


def nodes_for_phase(max_phase_rate, k_lo, k_hi, *, rho_max=math.inf, minimum=64) -> int:
    """Least n (at least ``minimum``) whose n-point Gauss-Legendre error bound
    on a Gaussian spectrum cut at N_SIGMA, times a phase exp(i phi(k)) with
    |phi'| <= max_phase_rate on [k_lo, k_hi], is _K_TOL of the peak: (64/15)
    M rho^(-2n) / (rho^2 - 1) (Trefethen, *Approximation Theory and
    Approximation Practice*, Thm 19.3) at the best ellipse E_rho below
    rho_max, a pole's; on E_rho |exp(i phi)| <= e^(omega b), omega the rate
    times (k_hi - k_lo) / 2.  InvalidRange where no ellipse gives a count."""
    b, c, two_beta = _ellipse_terms(rho_max)
    omega = abs(max_phase_rate) * 0.5 * (k_hi - k_lo)
    need = float(np.min((omega * b + c) / two_beta, initial=math.inf))
    if not math.isfinite(need):
        raise InvalidRange(f"phase rate {max_phase_rate:g} needs unboundedly many nodes")
    return max(int(minimum), math.ceil(need))


def max_phase_rate(n: int, k_lo, k_hi, *, rho_max=math.inf) -> float:
    """Largest rate with nodes_for_phase(rate, minimum=1) <= n (negative if none)."""
    b, c, two_beta = _ellipse_terms(rho_max)
    rate = float(np.max((n * two_beta - c) / b, initial=-math.inf)) / (0.5 * (k_hi - k_lo))
    while rate > 0.0 and nodes_for_phase(rate, k_lo, k_hi, rho_max=rho_max, minimum=1) > n:
        rate *= 1.0 - 1e-12      # rounding at the ceiling
    return rate


# ---------------------------------------------------------------------------
# Monotone root finding.
# ---------------------------------------------------------------------------


# Relative bracket tolerance and iteration cap of the Brent loop.
_ROOT_REL = 4.0 * float(np.finfo(float).eps)
_ROOT_MAXITER = 200


def _upper_normal_quantile(p: float) -> float:
    """Phi^-1(1 - p) for p in (0, 1): four Newton steps on the concave log Q from above,
    from sqrt(2 ln(0.5 / q)) at q = min(p, 1 - p) floored at 1e-300, signed by 0.5 - p."""
    q_min = max(min(p, 1.0 - p), 1e-300)
    z = math.sqrt(2.0 * math.log(0.5 / q_min))
    for _ in range(4):
        q = 0.5 * math.erfc(z / math.sqrt(2.0))
        z += math.log(q / q_min) * q * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return math.copysign(z, 0.5 - p)


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
    tail is >= P (found for all pairs at once, by counting each table's
    upper entries >= P): a chord across the cell of a _GRID_CELLS grid whose tails
    straddle P, then _NEWTON_ROUNDS Newton steps kept in the panel (the
    interpolant of rho is minus the slope).  x is returned once Panels.tail's
    in-panel read (_in_panel) straddles P across x +- delta, delta =
    (root_abs + 4 eps |x|) / 2, an end beyond the panel reading its edge:
    Brent's stop rule, certified.  The arithmetic is elementwise, so a pair
    has the same bits alone or in any batch (quantile_position solves one
    block of lockstep_tables at a time); a pair that fails the test is
    solved by find_root_monotone on the panel.  Raises NoSignChange for a
    level not in (0, mass of the smallest table].
    """
    levels = np.asarray(levels, dtype=float).ravel()
    if not tables or not levels.size:
        return np.empty((len(tables), levels.size))
    los, his, nodes, upper = (np.concatenate(c) for c in zip(*[
        (table.los, table.his, table.nodes, table.upper) for table in tables]))
    first = np.array([0] + [table.upper.size for table in tables[:-1]]).cumsum()  # in upper
    if not levels.min() > 0.0 or levels.max() > upper[first].min():
        raise NoSignChange(f"levels {levels.min()} to {levels.max()} are not all in (0, "
                           f"mass of the table]")
    # The last panel whose lower-edge tail is >= P (each table's upper ends in 0 < P).
    i = (np.add.reduceat(upper[:, None] >= levels, first) + first[:, None] - 1).ravel()
    panel, P = i - np.arange(len(tables)).repeat(levels.size), np.tile(levels, len(tables))
    lo, hi, base, edge, nodes = los[panel], his[panel], upper[i + 1], upper[i], nodes[panel]
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
    # A level equal to its panel's edge tail solves at that edge, exactly.
    x = np.where(P == edge, lo, hi - u * half)
    ends = x + np.multiply.outer((-1.0, 1.0), 0.5 * tol.root_abs + (0.5 * _ROOT_REL) * np.abs(x))
    f = _in_panel(lo, hi, base, coeffs[:, :22], ends) - P      # Panels.tail's read
    for j in (~(((ends[0] <= lo) | (f[0] >= 0.0)) & (f[1] <= 0.0))).nonzero()[0].tolist():
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
    """Initial step of Hairer, Norsett & Wanner, II.4, for error order 4, as a
    float: a numpy scalar would make every later step size and time one."""
    span = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return float(min(100 * h0, h1, span))


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
    per step tried.  The stage, weight and error sums stay ndarray.dot: OpenBLAS
    sums a one-row product as a left-to-right FMA chain, which Python floats
    (no math.fma before 3.13) cannot reproduce.  Times and step sizes are
    floats; so are one component's state, stage inputs and error norm (each
    sum read with .item()), and rhs and stop still get a fresh 1-element
    array.  ``x0`` may be a scalar or a 1-d state vector.  The
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

    rtol, atol = max(tol.ode_rel, 100 * np.finfo(float).eps), tol.ode_abs
    # K[6] is the rhs at each step's start (FSAL); stages read K through views made once.
    K = np.empty((7, y0.size))
    K[6] = rhs(t0, y0)
    h_abs = _first_step(rhs, t0, y0, K[6], t1, rtol, atol)
    stages, KB, KE = [(s, _DP_C[s], K[:s].T, _DP_A[s, :s]) for s in range(1, 6)], K[:6].T, K.T
    # x is the state as the fresh array rhs and stop get; one component's y is a float.
    one = y0.size == 1
    t, y, i_eval, stopped = t0, y0.item() if one else y0, 0, False
    times, states = ([t0], [y0]) if t_eval is None else ([], [])
    while not stopped and t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        K[0] = K[6]
        while True:     # shrink until the step passes, then grow for the next
            if not h_abs >= min_step:     # a NaN rhs makes h_abs NaN
                t_last, y_last = (times[-1], states[-1]) if times else (t0, y0)
                raise StepUnderflow(f"ODE step below {min_step:g} after t = {t_last}",
                                    t=float(t_last), x=y_last.copy())
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            for s, c, k, a in stages:
                z = k.dot(a)    # a fresh array: one component's stage input goes in it
                if one:
                    z[0] = y + z.item() * h
                K[s] = rhs(t + c * h, z if one else y + z * h)
            z = KB.dot(_DP_B)
            y_new = y + h * (z.item() if one else z)
            if one:
                z[0] = y_new
            x_new = z if one else y_new
            K[6] = rhs(t + h, x_new)
            e = KE.dot(_DP_E)       # scipy's error norm, on floats for one component
            if one:     # max puts a NaN y_new first: it returns it, as np.maximum does
                e = e.item() * h / (atol + max(abs(y_new), abs(y)) * rtol)
                error_norm = math.sqrt(e * e)
            else:
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                error_norm = float(_rms(e * h / scale))
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old, t, y, x = t, y, t_new, y_new, x_new

        at = None
        if stop is not None:
            g_new = stop(t, x)
            if g_old >= 0 and g_new <= 0:       # g falls through zero
                at = _dense_output(K, t_old, t, y_old)
                t = find_root_monotone(lambda s: stop(s, at(s)), (t_old, t), _EVENT_TOL)
                x, stopped = at(t), True
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
            states.append(x)
    return OdePath(times=np.array(times, dtype=float),
                   states=np.array(states).reshape(len(times), y0.size),
                   stop_reason="stopped" if stopped else "completed",
                   stop_time=float(t) if stopped else None)
