"""Retardation of tunneled quantiles behind a square barrier.

The headline quantity is the tail-probability deficit
``delta_p(x, t) = tail_free(x, t) - tail_tunnel(x, t)`` for x beyond the
barrier edge.  It is nonnegative, which is exactly the statement that a
tunneled quantile trails its free counterpart at every time.  Two
independent routes compute it: direct spatial integration of the two
densities, and a decomposition into three manifestly nonnegative
integrals; their agreement certifies both.  A scan utility compares
traced quantile trajectories pairwise, and the packet transmission
probability marks the threshold below which quantiles end up
transmitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridTooCoarse, InvalidRange
from .numerics import (
    DEFAULT_TOL,
    KGrid,
    Tolerances,
    adaptive_panels,
    initial_edges,
    nodes_for_phase,
)
from .quantile import QuantileTrajectory, trace_trajectory_cdf
from .wavepacket import (
    HBAR,
    BarrierSpec,
    PacketModel,
    SpectralFunction,
    _barrier_coefficients,
    _factored_rho,
    _PanelWaves,
    spectral_free_model,
)


class DeltaPTerms(NamedTuple):
    """Raw decomposition integrals and their weighted total."""

    term1: float
    term2: float
    term3: float
    total: float


def _term_weights(barrier: BarrierSpec, mass: float) -> tuple[float, float, float]:
    # q = k^2 - gamma^2 = 2mV/hbar^2 is the constant the thickness
    # derivative of the barrier denominator produces; the direct route
    # pins these normalizations numerically (see tests).
    a = barrier.half_width
    q = 2.0 * mass * barrier.height / HBAR ** 2
    c1 = (2.0 * a / math.pi) * q
    return c1, c1 * 4.0 * q, c1 * q / a


def _spectral_pair(free: PacketModel, tunneling: PacketModel) -> BarrierSpec:
    """Barrier of a (free, tunneling) pair of spectral packets over one spectrum."""
    barrier = getattr(tunneling, "barrier", None)
    if barrier is None:
        raise InvalidRange("tunneling model carries no barrier")
    if getattr(free, "spectrum", None) != tunneling.spectrum:
        raise InvalidRange("models must share one spectral function")
    return barrier


def delta_p_direct(free: PacketModel, tunneling: PacketModel,
                   x: float, t: float) -> float:
    """Tail-probability deficit tail_free - tail_tunnel at one point.

    Both models must be spectral packets over the same spectral function,
    and x must lie beyond the barrier edge, where the deficit is the
    retardation statement.
    """
    barrier = _spectral_pair(free, tunneling)
    if x <= barrier.half_width:
        raise InvalidRange(
            f"x = {x:.4g} is not beyond the barrier edge {barrier.half_width:.4g}"
        )
    return free.tail(x, t) - tunneling.tail(x, t)


def _decomposed_terms(spectrum: SpectralFunction, barrier: BarrierSpec,
                      grid: KGrid, xs, ts, n_lambda: int, mass: float,
                      tol: Tolerances) -> np.ndarray:
    """term1, term2, term3 and the weighted total, shape (4, len(xs), len(ts)).

    The barrier coefficients and the term3 kernel are built once per call
    and the two u-kernels once per u-quadrature order reached; each time t
    applies them to the (n_k, len(xs)) matrix of psi_x columns and takes
    term3 at every x from one panel quadrature with the x values as panel
    edges.
    """
    if n_lambda < 16:
        raise InvalidRange("n_lambda must be at least 16")
    a = barrier.half_width
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(xs <= a):
        raise InvalidRange(
            f"x = {xs[xs <= a][0]:.4g} is not beyond the barrier edge {a:.4g}")
    k = grid.nodes
    gamma, T, *_ = _barrier_coefficients(k, barrier, mass)
    denom = 4.0 * k * gamma / T
    c1, c2, c3 = _term_weights(barrier, mass)
    # term3 kernel is the u = 1 value of the term2 kernel
    kernel3 = (np.exp(2j * a * (k + gamma))
               - np.exp(2j * a * (k - gamma))) / (2j * denom)
    hint = spectral_free_model(spectrum, grid, mass=mass, tol=tol).support_hint
    kernels: dict = {}

    def u_terms(n: int, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if n not in kernels:
            nodes, wts = leggauss(n)
            u = 0.5 * (nodes + 1.0)
            ekm = np.outer(u, k - gamma)
            ekp = np.outer(u, k + gamma)
            for e in (ekm, ekp):
                e *= 2j * a
                np.exp(e, out=e)
            # exp(2iauk) sin(2au gamma) written via exponentials so the
            # under-barrier branch is the matching sinh, not a branch cut:
            # it is (ekp - ekm) / 2i exactly.
            kernel2 = ekp - ekm
            kernel2 /= 2j * denom
            # kernel1 = ((k + gamma) ekm - (k - gamma) ekp) / denom, in place
            ekm *= k + gamma
            ekp *= k - gamma
            ekm -= ekp
            ekm /= denom
            kernels[n] = (0.5 * wts, ekm, kernel2)
        wu, kernel1, kernel2 = kernels[n]
        i1 = kernel1 @ psi
        i2 = kernel2 @ psi
        return (wu @ (i1.real ** 2 + i1.imag ** 2),
                wu @ (i2.real ** 2 + i2.imag ** 2))

    x_far = float(np.max(np.abs(xs), initial=0.0))
    out = np.empty((4, xs.size, ts.size))
    for j, t in enumerate(ts.tolist()):
        # Spectral integrand psi~(k) exp(i k (x' - x_bar) - i hbar k^2 t / 2m),
        # split into x'-independent coefficients and the exp(i k x') factor.
        coeff = (grid.weights * spectrum.amplitude(k)
                 * np.exp(-1j * k * spectrum.x_bar
                          - 1j * HBAR * k * k * t / (2.0 * mass)))
        hint_hi = hint(t)[1]
        rate = (max(x_far, abs(hint_hi)) + abs(spectrum.x_bar)
                + HBAR * grid.k_max * abs(t) / mass)
        needed = nodes_for_phase(rate, grid.k_min, grid.k_max, minimum=1)
        if grid.size < needed:
            raise GridTooCoarse(
                f"wave-number grid has {grid.size} nodes but the decomposition "
                f"at x = {x_far:.4g}, t = {t:.4g} needs >= {needed}"
            )
        # term3 integrates the transmitted excess |sum c3 e^{ikx'}|^2 from
        # each x to hint_hi: one quadrature from the smallest x.
        tops = np.minimum(xs, hint_hi)
        start = float(np.min(tops, initial=hint_hi))
        term3 = np.zeros(xs.size)
        if start < hint_hi:
            c3_vec = coeff * kernel3
            waves = _PanelWaves(k)      # widths differ by t: one per quadrature

            def excess_density(mids, halves):
                everywhere = np.ones(mids.size, dtype=bool)
                return _factored_rho(mids, halves,
                                     ((everywhere, waves, c3_vec, None),))

            periods = grid.k_max * (hint_hi - start) / (2.0 * math.pi)
            edges = initial_edges(start, hint_hi,
                                  int(min(512, max(8, math.ceil(periods / 2.0)))),
                                  tops)
            term3 = adaptive_panels(excess_density, edges, tol).mass_above(tops)

        # Per x, the u-quadrature starts at n_lambda Gauss-Legendre nodes
        # and doubles until that x's total moves by less than 0.1%.
        psi = coeff[:, None] * np.exp(1j * np.outer(k, xs))
        n = int(n_lambda)
        t1, t2 = u_terms(n, psi)
        total = c1 * t1 + c2 * t2 + c3 * term3
        todo = np.arange(xs.size)
        while n < 512 and todo.size:
            n *= 2
            r1, r2 = u_terms(n, psi[:, todo])
            refined = c1 * r1 + c2 * r2 + c3 * term3[todo]
            moved = np.abs(refined - total[todo])
            converged = moved <= 1e-3 * np.maximum(np.abs(refined),
                                                   np.abs(total[todo]))
            t1[todo], t2[todo], total[todo] = r1, r2, refined
            todo = todo[~converged]
        out[:, :, j] = t1, t2, term3, total
    return out


def delta_p_decomposed(spectrum: SpectralFunction, barrier: BarrierSpec,
                       grid: KGrid, x: float, t: float, n_lambda: int = 32,
                       *, mass: float = 1.0,
                       tol: Tolerances = DEFAULT_TOL) -> DeltaPTerms:
    """Positive-definite three-term route to the tail deficit at (x, t).

    term1 and term2 are integrals over a thickness fraction u in [0, 1]
    of squared k-sums against a barrier scaled to half-width u*a; term3
    integrates a squared transmitted-excess density over positions beyond
    x.  Each is nonnegative as computed, so the weighted total certifies
    delta_p >= 0.  The u-quadrature starts at n_lambda Gauss-Legendre
    nodes and doubles until the total moves by less than 0.1%.  This is
    the one-point call of the kernel delta_p_report runs per time.
    """
    terms = _decomposed_terms(spectrum, barrier, grid, [x], [t], n_lambda,
                              mass, tol)
    return DeltaPTerms(*(float(v) for v in terms[:, 0, 0]))


@dataclass(frozen=True)
class DeltaPReport:
    """Both delta_p routes over an (x, t) grid, with agreement diagnostics.

    dp_term1..3 hold the weighted contributions, so each is nonnegative
    and they sum to dp_total.  positivity_ok flags points where the
    direct difference stays above -tolerance; agreement_rel is the
    relative gap between the routes with a floor guarding 0/0 where both
    vanish in the far field.
    """

    grid: tuple[tuple[float, float], ...]
    dp_direct: np.ndarray
    dp_term1: np.ndarray
    dp_term2: np.ndarray
    dp_term3: np.ndarray
    dp_total: np.ndarray
    positivity_ok: np.ndarray
    agreement_rel: np.ndarray

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.positivity_ok))

    @property
    def worst_agreement(self) -> float:
        return float(np.max(self.agreement_rel)) if self.agreement_rel.size else 0.0

    def agreement_ok(self, rel: float = 1e-2, abs_floor: float = 1e-6) -> np.ndarray:
        """Per-point route agreement |direct - total| <= max(rel*|direct|, floor)."""
        gap = np.abs(self.dp_direct - self.dp_total)
        return gap <= np.maximum(rel * np.abs(self.dp_direct), abs_floor)


def default_delta_p_grid(barrier: BarrierSpec) -> tuple[np.ndarray, np.ndarray]:
    """12 positions across the transmission region by 11 unit times."""
    a = barrier.half_width
    return np.linspace(a + 0.2, a + 5.0, 12), np.arange(0.0, 11.0)


def delta_p_report(free: PacketModel, tunneling: PacketModel,
                   x_values=None, t_values=None, *, n_lambda: int = 32,
                   positivity_tolerance: float = 1e-6,
                   agreement_floor: float = 1e-9,
                   tol: Tolerances = DEFAULT_TOL) -> DeltaPReport:
    """Evaluate both routes over a grid, row-major with t varying fastest.

    Each time takes all x at once: the direct route reads both tails at
    every x from one panel table per model (SpectralPacketModel.tails),
    and the decomposed route applies u-kernels built once per order for
    the whole call.  delta_p_direct and tail() stay the pointwise checks.
    """
    barrier = _spectral_pair(free, tunneling)
    default_x, default_t = default_delta_p_grid(barrier)
    xs = np.asarray(default_x if x_values is None else x_values, dtype=float)
    ts = np.asarray(default_t if t_values is None else t_values, dtype=float)
    term1, term2, term3, totals = (
        _decomposed_terms(tunneling.spectrum, barrier, tunneling.grid, xs, ts,
                          n_lambda, tunneling.mass, tol)
        .reshape(4, -1))
    direct = np.empty((xs.size, ts.size))
    for j, t in enumerate(ts.tolist()):
        direct[:, j] = free.tails(xs, t) - tunneling.tails(xs, t)
    direct = direct.ravel()
    c1, c2, c3 = _term_weights(barrier, tunneling.mass)
    rel = np.abs(direct - totals) / np.maximum(direct, agreement_floor)
    grid = tuple((x, t) for x in xs.tolist() for t in ts.tolist())
    return DeltaPReport(grid=grid, dp_direct=direct, dp_term1=c1 * term1,
                        dp_term2=c2 * term2, dp_term3=c3 * term3,
                        dp_total=totals,
                        positivity_ok=direct >= -positivity_tolerance,
                        agreement_rel=rel)


@dataclass(frozen=True)
class RetardationVerdict:
    """Outcome of one quantile-lag comparison at fixed P.

    checked counts grid times where both positions exist and the tunneled
    quantile sits beyond the barrier edge; the rest are skipped.
    worst_margin is the largest x_tunnel - x_free over checked times
    (-inf when nothing qualified, which passes vacuously).
    worst_margin_all drops the beyond-the-edge filter and is diagnostic
    only: in front of the barrier the reflected pile-up can push a
    quantile ahead of its free twin, which the certified statement does
    not forbid.  The two traced trajectories come along for reporting.
    """

    P: float
    checked: int
    skipped: int
    worst_margin: float
    worst_margin_all: float
    ok: bool
    tunnel_trajectory: QuantileTrajectory = field(repr=False, compare=False)
    free_trajectory: QuantileTrajectory = field(repr=False, compare=False)


def retardation_scan(free: PacketModel, tunneling: PacketModel,
                     P_list: Sequence[float], t_grid, *,
                     tolerance: float = 1e-5,
                     tol: Tolerances = DEFAULT_TOL) -> list[RetardationVerdict]:
    """Trace both quantile families and compare them time by time.

    For every P the tunneled quantile must not lead the free one at any
    grid time where it has already crossed the barrier edge.
    """
    barrier = getattr(tunneling, "barrier", None)
    edge = barrier.half_width if barrier is not None else 0.0
    t_grid = np.asarray(t_grid, dtype=float)
    verdicts = []
    for P in P_list:
        tun = trace_trajectory_cdf(tunneling, float(P), t_grid, tol)
        ref = trace_trajectory_cdf(free, float(P), t_grid, tol)
        free_at = dict(zip(ref.times.tolist(), ref.positions.tolist()))
        checked = 0
        worst = -math.inf
        worst_all = -math.inf
        for tt, x_tun in zip(tun.times.tolist(), tun.positions.tolist()):
            x_free = free_at.get(tt)
            if (x_free is None or not math.isfinite(x_tun)
                    or not math.isfinite(x_free)):
                continue
            worst_all = max(worst_all, x_tun - x_free)
            if x_tun <= edge:
                continue
            checked += 1
            worst = max(worst, x_tun - x_free)
        verdicts.append(RetardationVerdict(
            P=float(P), checked=checked, skipped=t_grid.size - checked,
            worst_margin=worst, worst_margin_all=worst_all,
            ok=(checked == 0 or worst <= tolerance),
            tunnel_trajectory=tun, free_trajectory=ref))
    return verdicts


def packet_transmission_probability(spectrum: SpectralFunction,
                                    barrier: BarrierSpec, grid: KGrid, *,
                                    mass: float = 1.0) -> float:
    """Asymptotic transmitted probability sum w |T(k)|^2 |psi~(k)|^2.

    Quantile trajectories with P below this value end up transmitted;
    above it they reverse in front of the barrier.
    """
    _, T, *_ = _barrier_coefficients(grid.nodes, barrier, mass)
    amp = spectrum.amplitude(grid.nodes)
    return float(np.sum(grid.weights * (T.real ** 2 + T.imag ** 2)
                        * (amp.real ** 2 + amp.imag ** 2)))
