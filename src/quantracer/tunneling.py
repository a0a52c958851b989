"""Retardation of tunneled quantiles behind a square barrier.

The headline quantity is the tail-probability deficit
``delta_p(x, t) = tail_free(x, t) - tail_tunnel(x, t)`` for x beyond the
barrier edge.  It is nonnegative, which is exactly the statement that a
tunneled quantile trails its free counterpart at every time.  Two
independent routes compute it: direct spatial integration of the two
densities, and a decomposition into three manifestly nonnegative
integrals; their agreement certifies both.  A scan utility compares
tunneled and free quantile positions pairwise, and the packet transmission
probability marks the threshold below which quantiles end up
transmitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidRange
from .numerics import DEFAULT_TOL, KGrid, Tolerances, _gauss_rule
from .quantile import _levels, _time_grid, quantile_position
from .wavepacket import (
    HBAR,
    BarrierSpec,
    PacketModel,
    SpectralFunction,
    _barrier_coefficients,
    spectral_free_model,
)


class DeltaPTerms(NamedTuple):
    """Raw decomposition integrals and their weighted total."""

    term1: float
    term2: float
    term3: float
    total: float


def _term_weights(barrier: BarrierSpec, mass: float) -> tuple[float, float, float]:
    """Weights (c1, c2, c3) of term1, term2 and term3 in the tail deficit.

    Beyond the barrier the packets are sum_k c_k e^{ikx'} and
    sum_k c_k T_k e^{ikx'}, c_k the coefficients at t over sqrt(2 pi), so
    integrating e^{i(k'-k)x'} over x' > x makes the deficit at x the form
    sum conj(c_k) c_k' e^{i(k'-k)x} K, K = i (1 - conj(T_k) T_k') / (k' - k).
    With q = k^2 - gamma^2 = 2mV/hbar^2, D = 4 k gamma / T and 0 <= y <= 2a,
        K1(y) = e^{iky} ((k + gamma) e^{-i gamma y} - (k - gamma) e^{i gamma y}) / D,
        K2(y) = e^{iky} sin(gamma y) / D,    K3 = K2(2a)   (|2q K3| = |R|),
    K splits into Gram kernels (an identity in k, k'; the y-integrals are
    elementary): K = 2q int_0^2a conj(K1) K1' dy + 8q^2 int_0^2a conj(K2) K2' dy
    + 4q^2 i conj(K3) K3' / (k' - k).  So the deficit is
    2q int_0^2a |sum c K1(y) e^{ikx}|^2 dy + 8q^2 int_0^2a |sum c K2(y) e^{ikx}|^2 dy
    + 4q^2 int_x^inf |sum c K3 e^{ikx'}|^2 dx', nonnegative term by term.
    _decomposed_terms drops the 1/sqrt(2 pi) (2 pi per term) and integrates
    over u = y / 2a: c1 = 2q 2a / 2 pi, c2 = 8q^2 2a / 2 pi = 4q c1 and
    c3 = 4q^2 / 2 pi = c1 q / a.  The direct route checks the sum (tests).
    """
    a = barrier.half_width
    q = 2.0 * mass * barrier.height / HBAR ** 2
    c1 = (2.0 * a / math.pi) * q
    return c1, c1 * 4.0 * q, c1 * q / a


def _pair_barrier(free: PacketModel, tunneling: PacketModel) -> BarrierSpec:
    """Barrier of a (free, tunneling) pair of spectral packets, after checking
    that both share one spectrum, mass and grid (both delta-p routes read one)."""
    barrier = getattr(tunneling, "barrier", None)
    if barrier is None:
        raise InvalidRange("tunneling model carries no barrier")
    if getattr(free, "spectrum", None) != tunneling.spectrum:
        raise InvalidRange("models must share one spectral function")
    if (free.mass != tunneling.mass or not np.array_equal(free.grid.nodes, tunneling.grid.nodes)
            or not np.array_equal(free.grid.weights, tunneling.grid.weights)):
        raise InvalidRange("models must share one mass and one wave-number grid")
    return barrier


def delta_p_direct(free: PacketModel, tunneling: PacketModel,
                   x: float, t: float) -> float:
    """Tail-probability deficit tail_free - tail_tunnel at one point.

    Both models must be spectral packets over the same spectral function,
    and x must lie beyond the barrier edge, where the deficit is the
    retardation statement.
    """
    barrier = _pair_barrier(free, tunneling)
    if x <= barrier.half_width:
        raise InvalidRange(
            f"x = {x:.4g} is not beyond the barrier edge {barrier.half_width:.4g}"
        )
    return free.tail(x, t) - tunneling.tail(x, t)


# Most (u, k) entries a u-kernel may hold: 512 u-nodes on 4096 k-nodes, the
# largest n_lambda on the largest grid that the command line accepts.
_MAX_U_ENTRIES = 512 * 4096


def _u_nodes(a: float, k: np.ndarray, gamma: np.ndarray, n_lambda: int) -> int:
    """Node count of the u-rule: n_lambda, or more where the barrier needs it.

    The u-integrands are sums of exp(2iau (kappa' - conj kappa)), kappa =
    k +- gamma: in s = 2u - 1 each is exp(i z s), |z| <= omega = a (spread
    of Re kappa + 2 max |Im kappa|).  Gauss-Legendre integrates those to
    rounding once its degree 2n - 1 passes |z| by a few |z|^(1/3), which
    0.6 omega + 12 nodes does with room.  Above the barrier top they
    oscillate: at v_bar = 10, V = 10, a = 3 (omega = 62) 32 nodes miss the
    report's totals by 2e-5; the 49 given here match 196 to 5e-15 relative.
    """
    kappa = np.concatenate([k - gamma, k + gamma])
    omega = a * (np.ptp(kappa.real) + 2.0 * np.max(np.abs(kappa.imag)))
    n = max(int(n_lambda), math.ceil(0.6 * omega + 12.0))
    if n * k.size > _MAX_U_ENTRIES:
        raise InvalidRange(f"the barrier needs {n} u-nodes on {k.size} wave numbers, "
                           f"above {_MAX_U_ENTRIES} kernel entries")
    return n


def _decomposed_terms(free: PacketModel, barrier: BarrierSpec,
                      xs, ts, n_lambda: int) -> np.ndarray:
    """term1, term2, term3 and the weighted total, shape (4, len(xs), len(ts)).

    The route reads spectrum, grid, mass and tolerances from ``free``, the
    pair's spectral free model.  The barrier coefficients, the term3 kernel
    and the two u-kernels are built once per call, the latter on one
    Gauss-Legendre rule of at least n_lambda nodes (_u_nodes).  Each time
    t applies both u-kernels to each x's psi row, one matrix-vector
    product per x, so a point has the bits of its lone call, and reads
    term3 at every x from free's panel tables, on its lattice, all from
    one tails call.
    """
    if n_lambda < 16:
        raise InvalidRange("n_lambda must be at least 16")
    a = barrier.half_width
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(xs <= a):
        raise InvalidRange(
            f"x = {xs[xs <= a][0]:.4g} is not beyond the barrier edge {a:.4g}")
    spectrum, grid, mass = free.spectrum, free.grid, free.mass
    k = grid.nodes
    gamma, T, *_ = _barrier_coefficients(k, barrier, mass)
    denom = 4.0 * k * gamma / T
    c1, c2, c3 = _term_weights(barrier, mass)
    # term3 kernel is the u = 1 value of the term2 kernel
    kernel3 = (np.exp(2j * a * (k + gamma))
               - np.exp(2j * a * (k - gamma))) / (2j * denom)
    u, wu = _gauss_rule(0.0, 1.0, _u_nodes(a, k, gamma, n_lambda))
    # (kernel1, kernel2) by (u, k), built in place from ekm and ekp =
    # exp(2iau (k -+ gamma)): kernel1 = ((k + gamma) ekm - (k - gamma) ekp) / D
    # and kernel2 = exp(2iauk) sin(2au gamma) / D, written via exponentials
    # so the under-barrier branch is the matching sinh, not a branch cut.
    kernels = np.stack([k - gamma, k + gamma])[:, None] * u[:, None]
    kernels *= 2j * a
    np.exp(kernels, out=kernels)
    ekm, ekp = kernels
    kernel2 = ekp - ekm
    kernel2 /= 2j * denom
    ekm *= k + gamma
    ekp *= k - gamma
    ekm -= ekp
    ekm /= denom
    ekp[...] = kernel2
    x_far = float(np.max(np.abs(xs), initial=0.0))
    for t in ts.tolist():
        # The psi_x rows reach x_far and term3 the top of the hint.
        free._check_resolution(max(x_far, abs(free.support_hint(t)[1])), t)
    # Spectral integrand psi~(k) exp(i k (x' - x_bar) - i hbar k^2 t / 2m),
    # split into x'-independent coefficients (a row per t) and exp(i k x').
    phases = np.exp(-1j * k * spectrum.x_bar - 1j * HBAR * k * k * ts[:, None] / (2.0 * mass))
    coeffs = grid.weights * spectrum.amplitude(k) * phases
    # term3 integrates the transmitted excess |sum c3 e^{ikx'}|^2 from each
    # x to hint_hi: a table per t on the free reference's lattice.
    term3s = free.tails(xs, ts, coeffs * kernel3)
    waves = np.exp(1j * np.outer(xs, k))     # the e^{ikx} rows, for every t
    out = np.empty((4, xs.size, ts.size))
    for j, (coeff, term3) in enumerate(zip(coeffs, term3s)):
        sums = (kernels[:, None] @ (waves * coeff)[:, :, None])[..., 0]
        t1, t2 = np.einsum("u,cxu->cx", wu, sums.real ** 2 + sums.imag ** 2)
        out[:, :, j] = t1, t2, term3, c1 * t1 + c2 * t2 + c3 * term3
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
    delta_p >= 0; the u-rule has at least n_lambda nodes (_u_nodes).
    This is the one-point call of the kernel delta_p_report runs per
    time, on a free model built here from spectrum, grid, mass and tol.
    """
    free = spectral_free_model(spectrum, grid, mass=mass, tol=tol)
    terms = _decomposed_terms(free, barrier, [x], [t], n_lambda)
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

    def agreement_share(self, rel: float = 1e-2, abs_floor: float = 1e-6) -> np.ndarray:
        """Per-point |direct - total| as a share of max(rel*|direct|, floor)."""
        gap = np.abs(self.dp_direct - self.dp_total)
        return gap / np.maximum(rel * np.abs(self.dp_direct), abs_floor)

    def agreement_ok(self, rel: float = 1e-2, abs_floor: float = 1e-6) -> np.ndarray:
        """Per-point route agreement: a share of at most 1."""
        return self.agreement_share(rel, abs_floor) <= 1.0


def default_delta_p_grid(barrier: BarrierSpec) -> tuple[np.ndarray, np.ndarray]:
    """12 positions across the transmission region by 11 unit times."""
    a = barrier.half_width
    return np.linspace(a + 0.2, a + 5.0, 12), np.arange(0.0, 11.0)


# Most negative direct deficit delta_p_report still counts as positive,
# and the floor of agreement_rel's denominator where both routes vanish.
_POSITIVITY_TOLERANCE = 1e-6
_AGREEMENT_FLOOR = 1e-9


def delta_p_report(free: PacketModel, tunneling: PacketModel,
                   x_values=None, t_values=None, *,
                   n_lambda: int = 32) -> DeltaPReport:
    """Evaluate both routes over a grid, row-major with t varying fastest.

    Both routes run on the given pair under its tolerances, all x of a time
    at once: the direct route reads both tails from one tails call per
    model, and the decomposed route runs on ``free`` with u-kernels built
    once, on a rule of at least n_lambda nodes, for the whole call.
    delta_p_direct and tail() stay the pointwise checks.
    """
    barrier = _pair_barrier(free, tunneling)
    default_x, default_t = default_delta_p_grid(barrier)
    xs = np.asarray(default_x if x_values is None else x_values, dtype=float)
    ts = np.asarray(default_t if t_values is None else t_values, dtype=float)
    term1, term2, term3, totals = _decomposed_terms(free, barrier, xs, ts, n_lambda).reshape(4, -1)
    direct = (free.tails(xs, ts) - tunneling.tails(xs, ts)).T.ravel()
    c1, c2, c3 = _term_weights(barrier, tunneling.mass)
    rel = np.abs(direct - totals) / np.maximum(direct, _AGREEMENT_FLOOR)
    grid = tuple((x, t) for x in xs.tolist() for t in ts.tolist())
    return DeltaPReport(grid=grid, dp_direct=direct, dp_term1=c1 * term1,
                        dp_term2=c2 * term2, dp_term3=c3 * term3,
                        dp_total=totals,
                        positivity_ok=direct >= -_POSITIVITY_TOLERANCE,
                        agreement_rel=rel)


@dataclass(frozen=True)
class RetardationVerdict:
    """Outcome of one quantile-lag comparison at fixed P.

    checked counts grid times where the tunneled quantile sits beyond the
    barrier edge; the rest are skipped.  worst_margin is the largest
    x_tunnel - x_free over checked times (-inf when nothing qualified,
    which passes vacuously).  worst_margin_all drops the beyond-the-edge
    filter and is diagnostic only: in front of the barrier the reflected
    pile-up can push a quantile ahead of its free twin, which the certified
    statement does not forbid.  ``times``, ``x_tunnel`` and ``x_free`` are
    the compared positions at every grid time, for reporting.
    """

    P: float
    checked: int
    skipped: int
    worst_margin: float
    worst_margin_all: float
    ok: bool
    times: np.ndarray = field(repr=False, compare=False)
    x_tunnel: np.ndarray = field(repr=False, compare=False)
    x_free: np.ndarray = field(repr=False, compare=False)


def retardation_scan(free: PacketModel, tunneling: PacketModel,
                     P_list: Sequence[float], t_grid, *,
                     tolerance: float = 1e-5,
                     tol: Tolerances = DEFAULT_TOL) -> list[RetardationVerdict]:
    """Compare the tunneled and free quantile positions time by time.

    For every P the tunneled quantile must not lead the free one at any
    grid time where it has already crossed the barrier edge.  The pair must
    be spectral (as for delta_p_report), so no norm decays below a level.
    One quantile_position call per model inverts every level at every
    grid time, on one table per time.
    """
    edge = _pair_barrier(free, tunneling).half_width
    ts = _time_grid(t_grid)
    levels = _levels(P_list).ravel()
    # Positions by (t, P).
    x_tun = quantile_position(tunneling, levels, ts, tol)
    x_free = quantile_position(free, levels, ts, tol)
    verdicts = []
    for j, P in enumerate(levels.tolist()):
        lead = x_tun[:, j] - x_free[:, j]
        beyond = x_tun[:, j] > edge
        checked = int(np.count_nonzero(beyond))
        worst = float(np.max(lead[beyond], initial=-math.inf))
        verdicts.append(RetardationVerdict(
            P=P, checked=checked, skipped=ts.size - checked,
            worst_margin=worst, worst_margin_all=float(np.max(lead)),
            ok=(checked == 0 or worst <= tolerance),
            times=ts, x_tunnel=x_tun[:, j], x_free=x_free[:, j]))
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
