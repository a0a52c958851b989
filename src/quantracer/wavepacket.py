"""Wave-packet models behind a single PacketModel interface.

Closed-form Gaussian packets (norm-conserving and globally lossy),
square-barrier scattering modes, spectral superpositions of those modes,
and the isotropic 3D Gaussian packet.  Internal units are hbar = 1, m = 1:
positions in hbar/sqrt(eV*m), times in hbar/eV, energies in eV.
"""

from __future__ import annotations

import abc
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateK, GridTooCoarse, InvalidRange, QuantracerError
from .numerics import (
    DEFAULT_TOL,
    PANEL_NODES,
    KGrid,
    Panels,
    Tolerances,
    _upper_normal_quantile,
    adaptive_panels,
    build_kgrid,
    integrate_adaptive,
    kgrid_band,
    max_phase_rate,
    nodes_for_phase,
    read_tails,
)

__all__ = [
    "HBAR",
    "GaussianPacketParams",
    "BarrierSpec",
    "SpectralFunction",
    "PacketModel",
    "FreeGaussianModel",
    "DissipativeGaussianModel",
    "ScatteringMode",
    "SpectralPacketModel",
    "Gaussian3DParams",
    "Gaussian3DModel",
    "scattering_mode",
    "spectral_free_model",
    "tunneling_packet_model",
    "recommended_node_count",
    "spectral_setup",
    "DEFAULT_PACKET",
    "DEFAULT_LOSS_RATE",
    "DEFAULT_BARRIER",
    "DEFAULT_PACKET_3D",
]

HBAR = 1.0


def _width_at(sigma_x0: float, sigma_v: float, t) -> float:
    """Spreading width sigma_x0 * sqrt(1 + (sigma_v t / sigma_x0)^2); a
    scalar t takes math.sqrt, which rounds as np.sqrt does."""
    ratio = sigma_v * t / sigma_x0
    root = math.sqrt if isinstance(ratio, float) else np.sqrt
    return sigma_x0 * root(1.0 + ratio * ratio)


# ---------------------------------------------------------------------------
# Parameter bundles.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPacketParams:
    """Minimum-uncertainty Gaussian packet parameters.

    The initial width fixes the momentum spread through
    sigma_p = hbar / (2 sigma_x0), so a width of 2.5 gives sigma_p = 0.2.
    """

    x_bar: float          # mean position at t = 0
    v_bar: float          # mean drift velocity
    sigma_x0: float       # initial spatial width, > 0

    def __post_init__(self):
        if not self.sigma_x0 > 0.0:
            raise ValueError("sigma_x0 must be positive")

    @property
    def sigma_p(self) -> float:
        return HBAR / (2.0 * self.sigma_x0)

    @functools.cached_property
    def sigma_v(self) -> float:
        return self.sigma_p

    @property
    def k_bar(self) -> float:
        """Mean wave number of the matching spectral function."""
        return self.v_bar / HBAR

    @property
    def sigma_k(self) -> float:
        return self.sigma_p / HBAR

    def sigma_x(self, t) -> float:
        return _width_at(self.sigma_x0, self.sigma_v, t)

    def center(self, t) -> float:
        return self.x_bar + self.v_bar * t


@dataclass(frozen=True)
class BarrierSpec:
    """Repulsive square barrier: the given height on |x| < half_width, zero outside."""

    height: float      # eV, >= 0
    half_width: float  # > 0

    def __post_init__(self):
        if not self.height >= 0.0:
            raise ValueError("barrier height must be non-negative")
        if not self.half_width > 0.0:
            raise ValueError("barrier half_width must be positive")


@dataclass(frozen=True)
class SpectralFunction:
    """Truncated, renormalized Gaussian spectral amplitude.

    The amplitude is (2 pi sigma_k^2)^(-1/4) exp(-(k - k_bar)^2 / (4 sigma_k^2))
    restricted to [k_lo, k_hi] and scaled by ``norm`` so the retained
    |amplitude|^2 mass is exactly one.  The support must lie in k >= 0
    (a ValueError otherwise, not a cut at 0 that would make another
    packet), so every superposition built from it moves with a positive
    spectrum.
    """

    k_bar: float
    sigma_k: float
    x_bar: float       # phase-reference position (packet center at t = 0)
    k_lo: float
    k_hi: float
    norm: float

    @classmethod
    def truncated_gaussian(cls, k_bar, sigma_k, x_bar, support) -> "SpectralFunction":
        if not sigma_k > 0.0:
            raise ValueError("sigma_k must be positive")
        lo, hi = float(support[0]), float(support[1])
        if not 0.0 <= lo < hi:     # NaN too
            raise ValueError(f"spectral support [{lo:g}, {hi:g}] is empty or reaches k < 0")
        # Retained |amplitude|^2 mass of the unit Gaussian on [lo, hi].
        scale = math.sqrt(2.0) * sigma_k
        mass = 0.5 * (math.erfc((lo - k_bar) / scale) - math.erfc((hi - k_bar) / scale))
        if mass <= 0.0:
            raise ValueError("spectral support carries no probability")
        return cls(k_bar=float(k_bar), sigma_k=float(sigma_k), x_bar=float(x_bar),
                   k_lo=lo, k_hi=hi, norm=1.0 / math.sqrt(mass))

    @classmethod
    def for_packet(cls, params: GaussianPacketParams, grid: KGrid) -> "SpectralFunction":
        """Spectral function of a Gaussian packet, truncated to the grid band."""
        return cls.truncated_gaussian(params.k_bar, params.sigma_k, params.x_bar,
                                      (grid.k_min, grid.k_max))

    def amplitude(self, k):
        k = np.asarray(k, dtype=float)
        z = (k - self.k_bar) / (2.0 * self.sigma_k)
        base = (2.0 * math.pi * self.sigma_k ** 2) ** -0.25 * np.exp(-z * z)
        inside = (k >= self.k_lo) & (k <= self.k_hi)
        return np.where(inside, self.norm * base, 0.0)


# ---------------------------------------------------------------------------
# The packet interface.
# ---------------------------------------------------------------------------


class PacketModel(abc.ABC):
    """Time-dependent 1D probability model: density, current, loss, tails.

    ``x`` arguments of rho/current/loss may be scalars or arrays and are
    evaluated vectorized at a single time; ``tail`` and ``loss_tail`` take a
    scalar position.  Tails use the upper convention
    tail(x, t) = integral of rho over [x, +infinity).
    """

    @abc.abstractmethod
    def rho(self, x, t):
        """Probability density, >= 0."""

    @abc.abstractmethod
    def current(self, x, t):
        """Probability current density."""

    def loss(self, x, t):
        """Local probability-loss density; zero for norm-conserving models."""
        return np.zeros_like(np.asarray(x, dtype=float))

    def loss_tail(self, x, t) -> float:
        """Integral of the loss density over [x, +infinity)."""
        return 0.0

    def density_and_current(self, x, t):
        """(rho, current) in one call, with the bits of rho and current.

        Models may fuse the evaluation: the closed-form Gaussians evaluate
        rho once, and a spectral model runs its mode kernel once and calls
        neither method; a scalar x gives two floats.
        """
        return self.rho(x, t), self.current(x, t)

    @abc.abstractmethod
    def tail(self, x, t) -> float:
        """Upper-tail probability at position x, in [0, norm(t)]."""

    def interval_mass(self, x1, x2, t) -> float:
        """Probability between x1 and x2, signed: integral of rho from x1 to x2."""
        return self.tail(x1, t) - self.tail(x2, t)

    @abc.abstractmethod
    def norm(self, t) -> float:
        """Total probability content; 1 for conserved models."""

    @abc.abstractmethod
    def support_hint(self, t) -> tuple[float, float]:
        """Interval holding all but a far-field trace of the probability at
        time t: below 1e-15 beyond each end for the closed-form packets,
        up to 4.2e-10 for the stock spectral ones (SpectralPacketModel)."""

    @abc.abstractmethod
    def spread(self, t) -> float:
        """Characteristic packet width, used for density floors."""

    def peak_density(self, t) -> float:
        """Order-of-magnitude density scale (Gaussian envelope estimate)."""
        return self.norm(t) / (math.sqrt(2.0 * math.pi) * self.spread(t))


# ---------------------------------------------------------------------------
# Closed-form Gaussian packets.
# ---------------------------------------------------------------------------


class DissipativeGaussianModel(PacketModel):
    """Closed-form spreading Gaussian packet with a global exponential loss.

    Density, current and tail are the free-packet expressions scaled by
    exp(-loss_rate * t); the loss density is loss_rate * rho.  That keeps
    the lossy continuity balance d rho/dt + d j/dx + loss = 0 exact.  At
    loss_rate 0 (FreeGaussianModel) the scale is 1.0 and the loss tail
    0.0, without an exponential or erfc.
    """

    def __init__(self, params: GaussianPacketParams, loss_rate: float = 0.0):
        if not loss_rate >= 0.0:
            raise ValueError("loss_rate must be non-negative")
        self.params = params
        self.loss_rate = float(loss_rate)
        self._at = (math.nan,)

    def _moments(self, t) -> tuple:
        """(t, sigma_x, center, norm) at a scalar t, kept for the last t: an
        ODE trace's rhs reads them for its field, its floor and its loss tail."""
        t, at = float(t), self._at     # one read: another thread may replace it
        if t != at[0]:
            p = self.params
            at = self._at = (t, p.sigma_x(t), p.center(t),
                             math.exp(-self.loss_rate * t) if self.loss_rate else 1.0)
        return at

    def norm(self, t) -> float:
        return self._moments(t)[3]

    def rho(self, x, t):
        return self.density_and_current(x, t)[0]

    def current(self, x, t):
        return self.density_and_current(x, t)[1]

    def density_and_current(self, x, t):
        _, sig, c, survival = self._moments(t)
        scalar = isinstance(x, float)   # floats but for one np.exp, as math.exp rounds otherwise
        offset = (float(x) if scalar else np.asarray(x, dtype=float)) - c
        z = offset / sig
        gauss = np.exp(-0.5 * z * z)
        rho = (float(gauss) if scalar else gauss) / (math.sqrt(2.0 * math.pi) * sig)
        # Velocity: v_bar plus the dilation term of the spreading width.
        velocity = self.params.v_bar + self.params.sigma_v ** 2 * t * offset / sig ** 2
        return survival * rho, survival * (rho * velocity)

    def loss(self, x, t):
        return self.loss_rate * self.rho(x, t)

    def loss_tail(self, x, t) -> float:
        # Analytic identity for global loss: integral of loss_rate * rho.
        return self.loss_rate * self.tail(x, t) if self.loss_rate else 0.0

    def tail(self, x, t) -> float:
        if math.isnan(x):
            raise InvalidRange("tail position is NaN")
        _, sig, c, survival = self._moments(t)
        return survival * (0.5 * math.erfc((float(x) - c) / (math.sqrt(2.0) * sig)))

    def support_hint(self, t) -> tuple[float, float]:
        _, sig, c, _ = self._moments(t)
        return (c - 8.0 * sig, c + 8.0 * sig)

    def spread(self, t) -> float:
        return float(self._moments(t)[1])


# The norm-conserving closed-form packet: DissipativeGaussianModel(params).
FreeGaussianModel = DissipativeGaussianModel


# ---------------------------------------------------------------------------
# Square-barrier scattering modes.
# ---------------------------------------------------------------------------


def _barrier_coefficients(k, barrier: BarrierSpec):
    """Vectorized matching coefficients (gamma, T, R, A, B) at wave numbers k.

    gamma is the principal square root of k^2 - 2 V / hbar^2.  Under the
    barrier that puts gamma on the positive imaginary axis, so the interior
    component decays and T -> 1 stays continuous as V -> 0.  T comes from
    the closed-form denominator; A, B, R then follow from continuity of
    value and first derivative at x = +-a (the derivative condition at -a is
    automatic once the other three hold).
    """
    k = np.asarray(k, dtype=float)
    a = barrier.half_width
    two_v = 2.0 * barrier.height / HBAR ** 2
    gamma = np.sqrt(np.asarray(k * k - two_v, dtype=complex))
    # Below ~1e-5 relative the 1/gamma cancellation in A, B costs more than
    # six digits; the degeneracy is measure zero, so refuse rather than drift.
    if np.any(np.abs(gamma) <= 1e-5 * np.sqrt(k * k + two_v)):
        raise DegenerateK(
            "a wave number sits at the barrier-top degeneracy gamma = 0; "
            "shift the grid or node count"
        )
    denom = ((k + gamma) ** 2 * np.exp(2j * a * (k - gamma))
             - (k - gamma) ** 2 * np.exp(2j * a * (k + gamma)))
    T = 4.0 * k * gamma / denom
    half_t = 0.5 * T * np.exp(1j * k * a)
    A = half_t * (1.0 + k / gamma) * np.exp(-1j * gamma * a)
    B = half_t * (1.0 - k / gamma) * np.exp(1j * gamma * a)
    R = (A * np.exp(-1j * gamma * a) + B * np.exp(1j * gamma * a)
         - np.exp(-1j * k * a)) * np.exp(-1j * k * a)
    if not all(np.all(np.isfinite(c)) for c in (gamma, T, R, A, B)):
        raise QuantracerError(
            f"barrier coefficients overflow: height {barrier.height:g} and "
            f"half-width {a:g} make gamma, T, R, A or B non-finite")
    return gamma, T, R, A, B


def _barrier_poles(barrier: BarrierSpec, k_lo: float, k_hi: float) -> np.ndarray:
    """The poles k (Re k > 0; none at V = 0) of T near the band [k_lo, k_hi],
    which R, A and B share (all divide by D), by Newton on D's factors
    (k + gamma) -+ (k - gamma) e^{2ia gamma}, k = sqrt(gamma^2 + 2V/hbar^2):
    from gamma_n = n pi / 2a, sign (-1)^n, and Im k ~ -gamma_n^2 / (a
    k_n^2), for the n (at least 1, at most 4096 about the centre) whose k_n
    lies within 8 half-bands of the band's centre.  Seeds that do not
    converge, or reach the removable root gamma = 0, are dropped."""
    q, a = 2.0 * barrier.height / HBAR ** 2, barrier.half_width
    if q == 0.0:
        return np.empty(0, dtype=complex)
    c, h = 0.5 * (k_hi + k_lo), 0.5 * (k_hi - k_lo)
    lo, mid, hi = (min(2.0 / math.pi * a * math.sqrt(max(0.0, k * abs(k) - q)), 1e15)
                   for k in (c - 8.0 * h, c, c + 8.0 * h))
    n = np.arange(max(1, math.floor(max(lo, mid - 2048))), math.ceil(min(hi, mid + 2048)) + 2)
    gamma = n * (math.pi / (2.0 * a))
    gamma = gamma * (1.0 - 1j / (a * np.sqrt(gamma * gamma + q)))
    sign = np.where(n % 2 == 1, -1.0, 1.0)
    with np.errstate(all="ignore"):
        for _ in range(40):
            k = np.sqrt(gamma * gamma + q)
            wave = sign * np.exp(2j * a * gamma)
            f = (k + gamma) - (k - gamma) * wave
            slope = (gamma / k + 1.0) - (gamma / k - 1.0 + 2j * a * (k - gamma)) * wave
            gamma = gamma - f / slope
        found = (np.abs(f) <= 1e-9 * np.abs(k)) & (np.abs(gamma) > 1e-6 * math.sqrt(q))
        return np.sqrt(gamma * gamma + q)[found]


@functools.lru_cache(maxsize=64)
def _pole_rho(barrier: BarrierSpec | None, k_lo: float, k_hi: float) -> float:
    """rho of the Bernstein ellipse E_rho of [k_lo, k_hi] through T's nearest
    pole (its mirror -conj k lies further out), inf without a barrier."""
    if barrier is None:
        return math.inf
    z = (_barrier_poles(barrier, k_lo, k_hi) - 0.5 * (k_hi + k_lo)) / (0.5 * (k_hi - k_lo))
    return float(np.min(np.abs(z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0)), initial=math.inf))


# Most (x, wave) entries one pointwise field evaluation holds at once (two
# waves a mode left of or inside the barrier); longer x batches are summed
# in row chunks, so memory stays bounded for any batch.
_FIELD_ENTRIES = 1 << 16


def _region_fields(region: _Region, x, t: float):
    """(psi, d psi/dx) in the last axis at x in one region: shape (2,) for
    a float x, (n, 2) for an (n, 1) column.  The time phase rides in the
    exponent, so it is one complex exponential over the region's stacked
    waves, e^{iqx + rate t}, and one product with its matrix (_Region); a
    column's rows go as one stacked product of (1, K) rows, since a BLAS
    matrix product's rows change their bits with its row count (OpenBLAS
    0.3.31, 2 threads), a vector product's not."""
    waves = np.exp(region.exponents * x + region.rates * t)
    return waves @ region.matrix if waves.ndim == 1 else (waves[:, None] @ region.matrix)[:, 0]


def _mode_sums(x, t: float, regions):
    """(psi, d psi/dx) at x over ``regions`` (right of, left of and under a
    barrier; the free reference's one): two complex numbers for a scalar
    x, whose region two float compares pick and whose kernel alone runs;
    for an array, two arrays over its flattened values, a _region_fields
    call per row chunk of a region's points, each chunk at most
    _FIELD_ENTRIES (x, stacked wave) entries and each row with the bits of
    its scalar call.  A point lies right above the right region's lower
    bound (-inf on the free reference: every point), else left below the
    left region's upper bound, else under the barrier, x = +-a included.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        region = (regions[0] if x > regions[0].bounds[0]
                  else regions[1] if x < regions[1].bounds[1] else regions[2])
        return _region_fields(region, x, t).tolist()
    flat = np.ravel(np.asarray(x, dtype=float))
    out = np.empty((flat.size, 2), dtype=complex)
    right = flat > regions[0].bounds[0]
    left = ~right & (flat < regions[1].bounds[1]) if len(regions) > 1 else ~right
    for region, mask in zip(regions, (right, left, ~(left | right))):
        points = np.flatnonzero(mask)
        rows = max(1, _FIELD_ENTRIES // region.exponents.size)
        for i in range(0, points.size, rows):
            chunk = points[i:i + rows]
            out[chunk] = _region_fields(region, flat[chunk, None], t)
    return out[:, 0], out[:, 1]


def _density(psi):
    """|psi|^2 in real operations: a complex and an array entry agree."""
    return psi.real * psi.real + psi.imag * psi.imag


def _flux(psi, dpsi):
    """Im(conj(psi) d psi/dx) in real operations, as _density."""
    return psi.real * dpsi.imag - psi.imag * dpsi.real


def _shaped(x, values):
    """Values over the flattened x, in x's shape; a scalar x's as they are."""
    return values.reshape(np.shape(x)) if isinstance(values, np.ndarray) else values


@dataclass(frozen=True)
class ScatteringMode:
    """Stationary square-barrier mode at one wave number.

    Piecewise form: e^{ikx} + R e^{-ikx} left of the barrier,
    A e^{i gamma x} + B e^{-i gamma x} inside, T e^{ikx} to the right.
    value and derivative run the spectral packets' point kernel (_mode_sums)
    on three one-mode regions (_barrier_regions, unit weight, t = 0): x =
    +-a lies under the barrier, and a scalar x gives a complex number.
    """

    k: float
    barrier: BarrierSpec
    gamma: complex
    T: complex
    R: complex
    A: complex
    B: complex

    def __post_init__(self):
        k, *coefficients = (np.array([c]) for c in (self.k, self.gamma, self.T, self.R,
                                                     self.A, self.B))
        object.__setattr__(self, "_regions", _barrier_regions(
            k, coefficients, self.barrier.half_width, np.ones(1), np.zeros(1)))

    def value(self, x):
        return _shaped(x, _mode_sums(x, 0.0, self._regions)[0])

    def derivative(self, x):
        return _shaped(x, _mode_sums(x, 0.0, self._regions)[1])


def scattering_mode(k: float, barrier: BarrierSpec) -> ScatteringMode:
    """Matched scattering state for a unit wave incident from the left."""
    if not k > 0.0:     # NaN too
        raise DegenerateK("wave number must be positive")
    gamma, T, R, A, B = _barrier_coefficients(np.array([float(k)]), barrier)
    return ScatteringMode(k=float(k), barrier=barrier, gamma=complex(gamma[0]),
                          T=complex(T[0]), R=complex(R[0]),
                          A=complex(A[0]), B=complex(B[0]))


# ---------------------------------------------------------------------------
# Spectral superpositions.
# ---------------------------------------------------------------------------

# Most half-widths one wave-number set keeps matrices for across tables;
# further ones are built for one batch and dropped after it.
_KEPT_WIDTHS = 16

# Slack, in units of eps * |x|, within which panel widths and spacings
# count as lattice ones: rounding of the panel edges, nothing more.
_ULPS = 16.0 * np.finfo(float).eps

# Most times one lockstep pass builds tables for, a table per time and
# source (a pass holds all their panels).
_TABLE_BLOCK = 32

# Most rows of one BLAS product: with OpenBLAS 0.3.31 on 2 threads a row's
# bits changed beyond 16 rows (at 386 modes; see README), one row runs gemv.
_PRODUCT_ROWS = 16


def _rowwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in products of 2 to _PRODUCT_ROWS rows, where each row has the
    bits it has alone (a lone row is doubled)."""
    if a.shape[0] <= _PRODUCT_ROWS:
        return a @ b if a.shape[0] > 1 else (np.repeat(a, 2, axis=0) @ b)[:1]
    return np.concatenate([part @ b for part in np.array_split(a, -(-a.shape[0] // _PRODUCT_ROWS))])


class _Region:
    """One region of a mode set, built once and read by both kernels: the
    waves u e^{iqx} + d e^{-iqx} over wave numbers q with mode factors
    ``up`` and ``down`` (no e^{-iqx} wave for down None), T right of a
    barrier, 1 and R left of it (q = k), A and B under it (q = gamma), or
    T = 1 on all of the free reference; and its open ``bounds``.

    The point kernel (_region_fields) reads the stack: ``exponents`` [iq,
    -iq], their time ``rates`` and the ``matrix`` of rows [w up, iq w up]
    over [w down, -iq w down], w the mode weights.  The panel kernel (rho)
    sums |u e^{iqx} + d e^{-iqx}|^2 over q, u and d a source's coefficient
    rows times up and down, on panels whose nodes lie in the bounds.  On a
    panel with midpoint m and half-width h, e^{iq(m + h xi)} = e^{iqm}
    e^{iqh xi}: equal-width panels of any times share a product with the
    (n_q, 22) matrix e^{iqh xi}.  A lattice panel (m = origin + h + j 2h;
    the origin is the region's barrier edge outside the barrier, else 0)
    takes the row exp(iq (origin + h + j 2h)) from a kept window of at most
    one chunk's rows, or computes it; a panel off its lattice takes
    exp(iqm).  Half-widths are base * 2^m (others raise ValueError), each
    with its matrix and window kept in ``kept``, up to _KEPT_WIDTHS of
    them.  e^{-iqm} is the conjugate of e^{iqm} for real q, its inverse for
    complex q.  Rows are summed in chunks of at most _FIELD_ENTRIES (panel,
    q) entries and keep the bits they have alone: own phase rows, _rowwise
    products, and numpy's elidable temporary on the left of every complex
    product (past 256 KiB numpy computes x * temporary in the temporary's
    buffer, and complex products do not commute bit for bit).
    """

    def __init__(self, q: np.ndarray, up, down, bounds: tuple, weights: np.ndarray,
                 rate: np.ndarray, base: float, origin: float):
        self.q, self.iq, self.base = q, 1j * q, base
        self.origin, self.bounds, self.up, self.down = origin, bounds, up, down
        self.kept: dict = {}
        waves = [(self.iq, up)] + ([] if down is None else [(-self.iq, down)])
        self.exponents = np.concatenate([iq for iq, _ in waves])
        self.rates = np.tile(rate, len(waves))
        self.matrix = np.concatenate([np.stack([weights * c, iq * weights * c], axis=1)
                                      for iq, c in waves])

    def _entry(self, h: float) -> list:
        # [e^{iqh xi}, lowest j, kept rows]; -h gives e^{-iqx}.
        if h in self.kept:
            return self.kept[h]
        entry = [np.exp(np.outer(self.iq, h * PANEL_NODES)), 0.0,
                 np.empty((0, self.q.size), dtype=complex)]
        if len(self.kept) < _KEPT_WIDTHS:
            self.kept[h] = entry
        return entry

    def _phases(self, mids, h: float, entry: list) -> np.ndarray:
        """e^{iqm} at each mid, (len(mids), n_q), row by row."""
        step, start = 2.0 * h, self.origin + h
        j = np.rint((mids - start) / step)
        spot = start + j * step
        on = np.abs(mids - spot) <= _ULPS * np.maximum(abs(start), np.abs(mids))
        _, low, kept = entry
        if np.count_nonzero(on):
            lo, hi = j[on].min(), j[on].max()
            if kept.size:
                lo, hi = min(lo, low), max(hi, low + len(kept) - 1)
            if hi - lo < max(1, _FIELD_ENTRIES // self.q.size) and hi - lo + 1 > len(kept):
                low, kept = lo, np.exp(np.outer(start + np.arange(lo, hi + 1) * step, self.iq))
                entry[1:] = low, kept
        i = j - low
        fresh = ~on | (i < 0) | (i >= len(kept))
        phases = kept[np.where(fresh, 0, i).astype(int)] if kept.size else np.empty(
            (mids.size, self.q.size), dtype=complex)
        if np.count_nonzero(fresh):
            phases[fresh] = np.exp(np.outer(np.where(on, spot, mids)[fresh], self.iq))
        return phases

    def rho(self, table, mids, halves, up, down) -> np.ndarray:
        """The region's density on the panels' nodes, u = up[table] and d =
        down[table] the rows of each panel's time (down None: no e^{-iqx})."""
        # Lattice half-widths snap to their exact value.
        widths = self.base * np.exp2(np.rint(np.log2(halves / self.base)))
        if np.count_nonzero(np.abs(halves - widths) > _ULPS * (np.abs(mids) + halves)):
            raise ValueError("a panel half-width is off the panel lattice")
        # A chunk holds about four (rows, n_q) arrays at once.
        rows = max(1, _FIELD_ENTRIES // (4 * self.q.size))
        out = np.empty((mids.size, PANEL_NODES.size))
        if down is not None and np.isrealobj(self.q):
            down = down.conj()    # conj(e) d = conj(e conj(d)): one phase serves both
        for h in np.unique(widths).tolist():
            entry = self._entry(h)
            back = None if down is None or np.isrealobj(self.q) else self._entry(-h)
            sel = (widths == h).nonzero()[0]
            for i in range(0, sel.size, rows):
                chunk = sel[i:i + rows]
                phases = self._phases(mids[chunk], h, entry)
                c = table[chunk]
                psi = _rowwise(up[c] * phases, entry[0])
                if down is not None and back is None:
                    psi += _rowwise(down[c] * phases, entry[0]).conj()
                elif down is not None:
                    # e^{-iqm} = 1 / e^{iqm}; the e^{-iqh xi} matrix is the entry of -h.
                    psi += _rowwise(down[c] / phases, back[0])
                out[chunk] = psi.real ** 2 + psi.imag ** 2
        return out


def _barrier_regions(k, coefficients, a: float, weights, rate,
                     pitches=(math.nan, math.nan)) -> list:
    """The regions right of, left of and under a barrier of half-width a
    (_mode_sums' order) for modes k with coefficients (gamma, T, R, A, B),
    on the side lattices of ``pitches`` (right, left): NaN for a
    ScatteringMode, which builds no panels."""
    gamma, T, R, A, B = coefficients
    return [_Region(k, T, None, (a, math.inf), weights, rate, 0.5 * pitches[0], a),
            _Region(k, 1.0, R, (-math.inf, -a), weights, rate, 0.5 * pitches[1], -a),
            _Region(gamma, A, B, (-a, a), weights, rate, a, 0.0)]


def _panel_values(regions, table, mids, halves) -> np.ndarray:
    """Density on the nodes mid + half * PANEL_NODES of panels of many
    sources, panel i at table table[i]: the panel kernel of lockstep_tables.

    ``regions`` holds per (source, region) the source's first table, the
    _Region and the source's coefficient rows (a row per
    table) times the region's factors up and down.  Each panel goes, in
    one pass, to the one region of its source whose open bounds hold its
    outermost nodes, not its edges: a panel ending on a barrier edge still
    has all its nodes on one side.  A panel across one raises ValueError.
    """
    reach = float(np.max(PANEL_NODES))
    lo, hi = mids - reach * halves, mids + reach * halves
    picks = [((table >= first) & (table < first + len(up))
              & (lo > region.bounds[0]) & (hi < region.bounds[1])).nonzero()[0]
             for first, region, up, _ in regions]
    if sum(pick.size for pick in picks) < mids.size:    # the bounds are disjoint
        raise ValueError("a panel crosses a barrier edge")
    out = np.empty((mids.size, PANEL_NODES.size))
    for pick, (first, region, up, down) in zip(picks, regions):
        if pick.size:
            out[pick] = region.rho(table[pick] - first, mids[pick], halves[pick], up, down)
    return out


class SpectralPacketModel(PacketModel):
    """Packet built as a weighted sum of modes over a wave-number grid.

    The amplitude is sum_j w_j psi~(k_j) phi_{k_j}(x) exp(-i k_j x_bar
    - i hbar k_j^2 t / 2), with phi the matched modes of ``barrier``; with
    ``barrier=None`` they are the V = 0 modes, plane waves, and the model is
    the free reference.  The spatial derivative is taken analytically
    per mode, never by finite differences, so the current stays clean near
    density minima.  A phase-resolution guard raises GridTooCoarse instead
    of silently aliasing when an evaluation needs more nodes than the grid
    has: the Gauss-Legendre bound of nodes_for_phase, under the barrier's
    nearest pole (_pole_rho), gives once the largest phase rate the grid
    resolves, and each call compares its own rate with it.  Every sum runs
    on the whole grid, in regions built once here that both kernels read
    (_Region: right of, left of and under the barrier; the free
    reference's one).  A point's (psi, d psi/dx) (_mode_sums) is one
    complex exponential over its region's stacked waves, the time phase in
    the exponent, and one product with their (waves, 2) matrix: the modes
    right of the barrier (every point of the free reference), twice them,
    e^{+-iqx}, left of or inside it.  Panel tables sum over a lattice with
    its own pitch on each side of the barrier (_lattice).
    """

    def __init__(self, spectrum: SpectralFunction, grid: KGrid,
                 barrier: BarrierSpec | None, *, tol: Tolerances = DEFAULT_TOL):
        self.spectrum = spectrum
        self.grid = grid
        self.barrier = barrier
        self.tol = tol
        k = grid.nodes
        self._base_coeffs = (grid.weights * spectrum.amplitude(k)
                             * np.exp(-1j * k * spectrum.x_bar) / math.sqrt(2.0 * math.pi))
        # Time-independent factor of the mode phases, -i hbar k^2.
        self._phase_rate = -1j * HBAR * k ** 2
        rate = self._phase_rate / 2.0
        # Lattice pitches, two periods of rho's fastest beat: k + k' <= 2
        # k_max left of the barrier, |k - k'| <= k_max - k_min right of it
        # (the transmitted wave alone) and on all of the free reference.
        self._pitch_right = 4.0 * math.pi / (grid.k_max - grid.k_min)
        self._pitch = 4.0 * math.pi / (2.0 * grid.k_max) if barrier else self._pitch_right
        # The regions in _mode_sums order, their panel matrices kept across times.
        self._regions = _barrier_regions(
            k, _barrier_coefficients(k, barrier), barrier.half_width,
            self._base_coeffs, rate, (self._pitch_right, self._pitch)) if barrier else [
            _Region(k, 1.0, None, (-math.inf, math.inf), self._base_coeffs, rate,
                    0.5 * self._pitch_right, 0.0)]
        # Curvature jumps of rho, kept as panel edges by every quadrature.
        self._cuts = () if barrier is None else (-barrier.half_width, barrier.half_width)
        self._sigma_x0 = 1.0 / (2.0 * spectrum.sigma_k)
        self._sigma_v = HBAR * spectrum.sigma_k
        # The phase guard's limit: the pole's ellipse, the largest rate the grid resolves.
        self._rho_max = _pole_rho(barrier, grid.k_min, grid.k_max)
        self._max_rate = max_phase_rate(grid.size, grid.k_min, grid.k_max, rho_max=self._rho_max)

    def _coeffs(self, ts) -> np.ndarray:
        """Mode coefficients at each time of ts (or at one t), (n_t, n_k)."""
        phases = np.exp(np.outer(ts, self._phase_rate) / 2.0)
        return self._base_coeffs * phases

    def _check_resolution(self, x_abs: float, t: float) -> None:
        """GridTooCoarse (InvalidRange for a NaN) where the phase rate at
        |x| = x_abs and time t, |x| + |x_bar| + hbar k_max |t| (a bound
        on |d phase/dk| over every mode branch), exceeds the largest the
        grid resolves under the model's barrier poles."""
        rate = x_abs + abs(self.spectrum.x_bar) + HBAR * self.grid.k_max * abs(t)
        if not rate <= self._max_rate:
            if math.isnan(rate):    # not the bound's "phase rate nan" message
                raise InvalidRange(f"field {'time' if math.isnan(t) else 'position'} is NaN")
            g, rho = self.grid, self._rho_max
            raise GridTooCoarse(
                f"wave-number grid has {g.size} nodes but evaluating out to |x| = {x_abs:.4g} "
                f"at t = {t:.4g} needs >= "
                f"{nodes_for_phase(rate, g.k_min, g.k_max, rho_max=rho, minimum=g.size + 1)}")

    def _fields(self, x, t: float):
        """(psi, d psi/dx) at x through _mode_sums on the whole grid, after
        the phase guard at the largest |x|: two complex numbers for a scalar
        x, two rows over the flattened x of an array."""
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            self._check_resolution(abs(x), t)
        else:
            x = np.ravel(np.asarray(x, dtype=float))
            self._check_resolution(float(np.max(np.abs(x), initial=0.0)), t)
        return _mode_sums(x, t, self._regions)

    def amplitude(self, x, t):
        """Summed complex amplitude psi(x, t)."""
        psi, _ = self._fields(x, float(t))
        return _shaped(x, psi)

    def rho(self, x, t):
        psi, _ = self._fields(x, float(t))
        return _shaped(x, _density(psi))

    def current(self, x, t):
        psi, dpsi = self._fields(x, float(t))
        return _shaped(x, HBAR * _flux(psi, dpsi))

    def density_and_current(self, x, t):
        if isinstance(x, float):    # the ODE route's one point: the guard, then its region's kernel
            t, r = float(t), self._regions
            self._check_resolution(abs(x), t)
            psi, dpsi = _region_fields(r[0] if x > r[0].bounds[0] else r[1] if x < r[1].bounds[1]
                                       else r[2], x, t).tolist()
            return _density(psi), HBAR * _flux(psi, dpsi)
        psi, dpsi = self._fields(x, float(t))
        return _shaped(x, _density(psi)), _shaped(x, HBAR * _flux(psi, dpsi))

    def tail(self, x, t) -> float:
        """Mass right of x by an adaptive quadrature of rho over [x, hint top] (x
        clamped to the hint), the pointwise check independent of the tables."""
        t, x = float(t), float(x)
        if math.isnan(x):
            raise InvalidRange("tail position is NaN")
        lo, hi = self.support_hint(t)
        a = min(max(x, lo), hi)
        # rho has a curvature jump at +-a that a GL15-GL7 gap across it
        # underestimates, so the barrier edges are panel edges; one panel
        # per (left) pitch, as the tables start left of the barrier.
        n = min(512, max(8, math.ceil((hi - a) / self._pitch)))
        return integrate_adaptive(lambda xs: self.rho(xs, t), a, hi, self.tol,
                                  initial_panels=n, points=self._cuts)

    def _reach(self, t):
        """The support hint before it snaps to the lattice, at a time or an
        array of them: 8 spreads beyond the fastest and slowest branches,
        both ways with a barrier.  A non-finite time is an InvalidRange."""
        if np.count_nonzero(bad := ~np.isfinite(t)):
            raise InvalidRange(f"time must be finite, got t = {np.ravel(t)[np.ravel(bad)][0]}")
        pad, c = 8.0 * _width_at(self._sigma_x0, self._sigma_v, t), self.spectrum.x_bar
        if self.barrier is not None:    # the reflected branch goes as far as the transmitted
            hi = abs(c) + HBAR * self.grid.k_max * abs(t) + pad
            return -hi, hi
        return c + HBAR * self.grid.k_min * t - pad, c + HBAR * self.grid.k_max * t + pad

    def _lattices(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Initial panel edges and counts of the tables at times ts (_lattice_edges, _reach)."""
        return _lattice_edges(*self._reach(np.asarray(ts, dtype=float)), self._pitch,
                              self._pitch_right, self.barrier)

    def _lattice(self, t: float) -> np.ndarray:
        """The edges of _lattices at the one time t."""
        return self._lattices([t])[0]

    def _depths(self, ts, P: float) -> np.ndarray:
        """Where tables at times ts for levels up to P must reach anyway: the uncut Gaussian's
        quantile Phi^-1(1 - P), raised by 1e-3 spread(t) over the cut's 2.706e-4 (stock packet),
        and at least a barrier's edge a: beyond a, no tunneled quantile leads its free twin."""
        z, v = _upper_normal_quantile(P) + 1e-3, HBAR * self.spectrum.k_bar
        spread, edge = _width_at(self._sigma_x0, self._sigma_v, ts), self._regions[0].bounds[0]
        return np.maximum(self.spectrum.x_bar + v * ts + spread * z, edge)    # edge a, or -inf

    def tail_tables(self, ts, low=-math.inf, coeffs=None, above=math.inf) -> Iterator[list[Panels]]:
        """lockstep_tables with this model (and ``coeffs``) the one source."""
        return lockstep_tables([(self, coeffs)], ts, low, above)

    def tails(self, x, t, coeffs=None) -> np.ndarray:
        """lockstep_tails with this model (and ``coeffs``) the one source."""
        return lockstep_tails([(self, coeffs)], x, t)[0]

    def norm(self, t) -> float:
        # Modes are orthonormal and the spectrum has unit mass on the grid.
        return 1.0

    def support_hint(self, t) -> tuple[float, float]:
        """_reach(t) snapped outward to the panel lattice (_lattice), each
        end by at most its side's pitch, so tail() and tables agree.  The 6
        sigma spectral cut leaves a far field: out to the phase guard's
        reach, the stock pair holds up to 3.2e-10 (free) and 4.2e-10
        (tunneling) beyond one end over t in [0, 10]."""
        edges = self._lattice(float(t))
        return float(edges[0]), float(edges[-1])

    def spread(self, t) -> float:
        return float(_width_at(self._sigma_x0, self._sigma_v, float(t)))


def _lattice_edges(lo, hi, pitch: float, pitch_r: float,
                   barrier: BarrierSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """Initial panel edges of tables over the unsnapped hints [lo, hi] (a
    hint per table), all tables' edges in one array, and each one's count.

    The pitch is ``pitch`` (the model's base pitch, left of a barrier)
    times 2^n, the least n that gives [lo, hi] 8 to 509 panels (doubled
    again while the barrier's narrower inner panels would make it over
    512).  Edges sit at j * pitch on the free reference; with a barrier at
    -a - j * pitch, at a + j * pitch_r (the transmitted pitch, doubled to
    reach the pitch), and 2^m equal panels no wider than the pitch fill
    [-a, a], so the panel widths are time-independent.  The ends snap
    outward to the nearest edges, each by at most its side's pitch; only
    edges near the hint are made, so a barrier much wider than the hint
    costs nothing.  No pitch shrinks as [lo, hi] widens.  An edge depends on
    its table's pitch and place alone: one pass builds every table.
    """
    span, pitch = hi - lo, np.full(lo.shape, pitch)
    while np.count_nonzero(wide := span > 509.0 * pitch):
        pitch[wide] *= 2.0
    while np.count_nonzero(narrow := span < 8.0 * pitch):
        pitch[narrow] *= 0.5
    if barrier is None:
        counts = (np.ceil(hi / pitch) - (first := np.floor(lo / pitch))).astype(int) + 1
        j = (first - counts.cumsum() + counts).repeat(counts)     # first - the table's offset
        return pitch.repeat(counts) * (j + np.arange(j.size)), counts
    a, pitch_r = barrier.half_width, np.full(lo.shape, pitch_r)
    frac, exp = math.frexp(2.0 * a)
    while True:
        # Per side the edges in (0, hi] and one beyond: j * w inside (w = 2a / 2^m for
        # the least m >= 0 with w <= pitch; 0 is an edge too when m > 0, a alone when
        # m = 0), a + j * (the side's pitch) outside.
        f, e = np.frexp(pitch)
        m = exp - e + (frac > f)
        w, inner = np.ldexp(a, 1 - np.maximum(m, 1)), np.ldexp(0.5, np.maximum(m, 1))
        inner = np.minimum(inner, np.ceil(hi / w))
        while np.count_nonzero(short := pitch_r < pitch):
            pitch_r[short] *= 2.0
        left, right = (np.ceil(np.maximum(0.0, hi - a) / p) for p in (pitch, pitch_r))
        counts = (left + right + 2.0 * inner + (m > 0)).astype(int)
        if not np.count_nonzero(big := counts > 513):
            break
        pitch[big] *= 2.0
    # Signed places: 0 the middle edge (a when m = 0), +-inner the outermost inner ones.
    table = np.arange(counts.size).repeat(counts)
    j = np.arange(table.size) - (counts.cumsum() - counts + inner + left)[table]
    j += (j >= 0) & (m <= 0)[table]
    k = np.abs(j) - inner[table]
    return np.where(k <= 0, w[table] * j, np.sign(j) * (
        a + np.where(j > 0, pitch_r[table], pitch[table]) * k)), counts


def lockstep_tables(sources, ts, low=-math.inf, above=math.inf) -> Iterator[list[Panels]]:
    """Panel tables of each source at every t of ts, yielded per block of up
    to _TABLE_BLOCK times as one list, source by source, from one
    adaptive_panels pass run when the block is read.  A source is (model,
    coeffs): a spectral model's rho or, with ``coeffs`` (a row per time),
    |sum_j coeffs_j e^{ik_j x}|^2 on a free reference's lattice (on a barrier
    model the first read raises ValueError).  Per block each source's
    lattices (_lattices), coefficient rows and depths are array operations
    over its tables, handed on as one edge array with counts, and one
    kernel (_panel_values) sends every panel to its (source, region).  A
    table lies on _lattice(t), after the phase guard at its ends, under its
    model's tolerances, each panel with the bits of its lone build.  It starts at
    the lattice edge at or below ``low`` (the last panel at most), or where
    its mass from the top reaches ``above``: the top of the whole table,
    bit for bit; its first round goes down to _depths(ts, above), a guess
    that sizes the work only."""
    if any(coeffs is not None and model.barrier is not None for model, coeffs in sources):
        raise ValueError("plane-wave coefficients need the free reference")
    ts = np.asarray(ts, dtype=float).ravel()
    for i in range(0, ts.size, _TABLE_BLOCK):
        block = ts[i:i + _TABLE_BLOCK]
        n, parts, regions, depths = block.size, [], [], []
        for s, (model, coeffs) in enumerate(sources):
            edges, counts = model._lattices(block)
            ends = counts.cumsum()      # the phase guard, at each table's farther end
            far = np.maximum(-edges[ends - counts], edges[ends - 1])
            for x, t in zip(far.tolist(), block.tolist()):
                model._check_resolution(x, t)
            parts.append((edges, counts))
            rows = model._coeffs(block) if coeffs is None else coeffs[i:i + n]
            regions += [(s * n, region, rows * region.up, None if region.down is None
                         else rows * region.down) for region in model._regions]
            depths.append(model._depths(block, above) if above < math.inf else np.full(n, math.inf))
        tols = np.array([(m.tol.quad_abs, m.tol.quad_rel) for m, _ in sources]).repeat(n, axis=0)
        yield adaptive_panels(functools.partial(_panel_values, regions),
                              *(np.concatenate(c) for c in zip(*parts)), tols, low, above,
                              np.concatenate(depths))


def lockstep_tails(sources, x, t) -> np.ndarray:
    """Tails of each source (see lockstep_tables) at every x and time of t,
    shape (len(sources),) + t.shape + x.shape: per block of times one pass,
    from the lattice edge at or below min x, and one read_tails call, each
    (table, x) with its lone Panels.tail bits.  A NaN x is an InvalidRange."""
    x = np.asarray(x, dtype=float)
    low = np.min(x, initial=math.inf)     # NaN if any x is NaN
    if math.isnan(low):
        raise InvalidRange("tail position is NaN")
    times = np.asarray(t, dtype=float)
    reads = [np.empty((len(sources), 0, x.size))] + [
        read_tails(block, x.ravel()).reshape(len(sources), len(block) // len(sources), x.size)
        for block in lockstep_tables(sources, times, low)]
    return np.concatenate(reads, axis=1).reshape((len(sources),) + times.shape + x.shape)


def spectral_free_model(spectrum: SpectralFunction, grid: KGrid, *,
                        tol: Tolerances = DEFAULT_TOL) -> SpectralPacketModel:
    """Free packet on the same grid and 6 sigma cut spectrum: the reference for
    barrier comparisons (``tunnel``'s x_free), not the closed-form Gaussian,
    whose stock-packet quantiles lie up to 2.706e-4 away (P = 0.002, t = 10)."""
    return SpectralPacketModel(spectrum, grid, None, tol=tol)


def tunneling_packet_model(spectrum: SpectralFunction, barrier: BarrierSpec,
                           grid: KGrid, *, tol: Tolerances = DEFAULT_TOL) -> SpectralPacketModel:
    """Packet scattering off the square barrier, mode by mode."""
    return SpectralPacketModel(spectrum, grid, barrier, tol=tol)


def recommended_node_count(k_bar: float, sigma_k: float, x_bar: float, t_max: float, *,
                           barrier: BarrierSpec | None = None) -> int:
    """Least even wave-number node count whose phase guard admits every
    table and field of the support hint at times in [0, t_max].

    The rate (nodes_for_phase) is the guard's at the hint's end as it snaps
    at t_max: the reach |x_bar| + hbar k_max t_max + 8 spread(t_max),
    both ways as with a barrier, plus the lattice's coarsest pitch there
    (no snap goes further, and no pitch shrinks with time).  ``barrier``
    (None for the free reference) caps the ellipses at T's nearest pole
    (_pole_rho).  A band build_kgrid refuses is an InvalidRange here too.
    """
    k_lo, k_hi = kgrid_band(k_bar, sigma_k)
    v_hi = HBAR * k_hi
    reach = abs(x_bar) + v_hi * t_max + 8.0 * _width_at(1.0 / (2.0 * sigma_k),
                                                        HBAR * sigma_k, t_max)
    pitch_r = 4.0 * math.pi / (k_hi - k_lo)      # as SpectralPacketModel's
    pitch = 4.0 * math.pi / (2.0 * k_hi) if barrier else pitch_r
    snap = (float(np.max(np.diff(_lattice_edges(np.array([-reach]), np.array([reach]), pitch,
                                                pitch_r, barrier)[0])))
            if reach < math.inf else reach)      # an infinite rate is an InvalidRange below
    n = nodes_for_phase(reach + snap + abs(x_bar) + v_hi * t_max, k_lo, k_hi,
                        rho_max=_pole_rho(barrier, k_lo, k_hi))
    return n + n % 2    # even, so k_bar (gamma = 0 where V = hbar^2 k_bar^2 / 2) is no node


def spectral_setup(params: GaussianPacketParams, t_max: float, *, n_nodes: int | None = None,
                   barrier: BarrierSpec | None = None) -> tuple[SpectralFunction, KGrid]:
    """Build a grid and truncated spectrum sized for evaluations out to t_max
    (recommended_node_count under ``barrier``, unless n_nodes is given)."""
    if n_nodes is None:
        n_nodes = recommended_node_count(params.k_bar, params.sigma_k, params.x_bar,
                                         t_max, barrier=barrier)
    grid = build_kgrid(params.k_bar, params.sigma_k, n_nodes=n_nodes)
    return SpectralFunction.for_packet(params, grid), grid


# ---------------------------------------------------------------------------
# Isotropic 3D Gaussian packet.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian3DParams:
    """Isotropic 3D Gaussian packet: one shared width, per-axis drift."""

    center: tuple[float, float, float]
    velocity: tuple[float, float, float]
    sigma_x0: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "velocity", tuple(float(v) for v in self.velocity))
        if len(self.center) != 3 or len(self.velocity) != 3:
            raise ValueError("center and velocity must have three components")
        if not self.sigma_x0 > 0.0:
            raise ValueError("sigma_x0 must be positive")

    @functools.cached_property
    def sigma_v(self) -> float:
        return HBAR / (2.0 * self.sigma_x0)

    def sigma_x(self, t) -> float:
        return _width_at(self.sigma_x0, self.sigma_v, t)


class Gaussian3DModel:
    """Product of three 1D Gaussian packets sharing one isotropic width.

    Exposes the density and vector velocity field the 3D tracer needs, and
    the closed-form mass in a ball (_ball_mass) that probability_in_volume
    reads; the 1D PacketModel tail interface does not apply here.
    """

    def __init__(self, params: Gaussian3DParams):
        self.params = params

    def center(self, t) -> np.ndarray:
        p = self.params
        return np.asarray(p.center) + np.asarray(p.velocity) * t

    def sigma_x(self, t) -> float:
        return float(self.params.sigma_x(t))

    def rho(self, points, t):
        d = np.asarray(points, dtype=float) - self.center(t)
        sig = self.sigma_x(t)
        return (np.exp(-0.5 * np.sum(d * d, axis=-1) / sig ** 2)
                / (math.sqrt(2.0 * math.pi) * sig) ** 3)

    def _ball_mass(self, center, radius: float, t) -> float:
        """Probability in the ball of this radius about center, in closed
        form: with s = sigma_x(t), d the ball's offset from the packet
        center and a = R d / s^2 it is (erf((R - d)/(sqrt2 s)) +
        erf((R + d)/(sqrt2 s)))/2 - sqrt(2/pi) (R/s) exp(-(R - d)^2/(2 s^2))
        (1 - e^(-2a))/(2a), the last factor 1 at a = 0, the erf sum written
        erfc((d - R)/(sqrt2 s)) - erfc((d + R)/(sqrt2 s)) where d > R: a far ball
        keeps relative digits (1e-20 at R = s, d = 10 s), one below 0 reads 0,
        and a NaN stays NaN.  The second
        term is 0 (not inf * 0) where |R - d| >= 40 s or R/s overflows.  Where
        that cancels to O(r^3), r = R/s < 1/4 and a < 1, the sum over j + k < 10 of
        sqrt(2/pi) e^(-d^2/2s^2) r^3 (-r^2/2)^j a^2k / (j! (2k+1)! (2j+2k+3)) keeps
        relative digits.  InvalidRange where s^2 underflows to 0 or overflows."""
        s = self.sigma_x(t)
        if not 0.0 < s * s < math.inf:
            raise InvalidRange(f"sigma_x(t)^2 = {s:.3g}^2 at t = {t:.3g} is not a positive float")
        d = float(np.linalg.norm(center - self.center(t)))
        r, a = radius / s, radius * d / s ** 2
        if r < 0.25 and a < 1.0:
            return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * (d / s) * (d / s)) * r ** 3 * sum(
                (-0.5 * r * r) ** j * a ** (2 * k) / math.factorial(j) / math.factorial(2 * k + 1)
                / (2 * (j + k) + 3) for j in range(10) for k in range(10 - j))
        shape = -math.expm1(-2.0 * a) / (2.0 * a) if a > 0.0 else 1.0
        z = (radius - d) / s
        spill = (math.sqrt(2.0 / math.pi) * r * math.exp(-0.5 * z ** 2) * shape
                 if abs(z) < 40.0 and r < math.inf else 0.0)
        near, far = (radius - d) / (math.sqrt(2.0) * s), (radius + d) / (math.sqrt(2.0) * s)
        inner = math.erf(near) + math.erf(far) if d <= radius else math.erfc(-near) - math.erfc(far)
        return max(0.5 * inner - spill, 0.0)

    def velocity(self, points, t):
        """Component-wise free-Gaussian velocity field."""
        pts = np.asarray(points, dtype=float)
        sig = self.sigma_x(t)
        factor = self.params.sigma_v ** 2 * t / sig ** 2
        return np.asarray(self.params.velocity) + factor * (pts - self.center(t))

    def current(self, points, t):
        return self.rho(points, t)[..., None] * self.velocity(points, t)


# ---------------------------------------------------------------------------
# Canonical demonstration parameters: a packet of mean momentum 2 and
# momentum width 0.2 launched from x = -10, a loss rate of 0.1, and a
# 10 eV barrier of half-width 0.3.
# ---------------------------------------------------------------------------

DEFAULT_PACKET = GaussianPacketParams(x_bar=-10.0, v_bar=2.0, sigma_x0=2.5)
DEFAULT_LOSS_RATE = 0.1
DEFAULT_BARRIER = BarrierSpec(height=10.0, half_width=0.3)
DEFAULT_PACKET_3D = Gaussian3DParams(center=(0.0, 0.0, 0.0),
                                     velocity=(2.0, 0.0, 0.0), sigma_x0=2.5)
