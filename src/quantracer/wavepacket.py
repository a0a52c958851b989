"""Wave-packet models behind a single PacketModel interface.

Closed-form Gaussian packets (norm-conserving and globally lossy),
square-barrier scattering modes, spectral superpositions of those modes,
and the isotropic 3D Gaussian packet.  Internal units are hbar = 1, m = 1:
positions in hbar/sqrt(eV*m), times in hbar/eV, energies in eV.
"""

from __future__ import annotations

import abc
import bisect
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateK, GridTooCoarse, InvalidRange, QuantracerError
from .numerics import (
    DEFAULT_TOL,
    N_SIGMA,
    PANEL_NODES,
    KGrid,
    Panels,
    Tolerances,
    _gauss_rule,
    adaptive_panels,
    build_kgrid,
    integrate_adaptive,
    nodes_for_phase,
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
    mass: float = 1.0

    def __post_init__(self):
        if self.sigma_x0 <= 0.0:
            raise ValueError("sigma_x0 must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")

    @property
    def sigma_p(self) -> float:
        return HBAR / (2.0 * self.sigma_x0)

    @functools.cached_property
    def sigma_v(self) -> float:
        return self.sigma_p / self.mass

    @property
    def k_bar(self) -> float:
        """Mean wave number of the matching spectral function."""
        return self.mass * self.v_bar / HBAR

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
        if self.height < 0.0:
            raise ValueError("barrier height must be non-negative")
        if self.half_width <= 0.0:
            raise ValueError("barrier half_width must be positive")


@dataclass(frozen=True)
class SpectralFunction:
    """Truncated, renormalized Gaussian spectral amplitude.

    The amplitude is (2 pi sigma_k^2)^(-1/4) exp(-(k - k_bar)^2 / (4 sigma_k^2))
    restricted to [k_lo, k_hi] and scaled by ``norm`` so the retained
    |amplitude|^2 mass is exactly one.  Negative wave numbers never
    contribute (k_lo >= 0), so every superposition built from it moves with
    a positive spectrum.
    """

    k_bar: float
    sigma_k: float
    x_bar: float       # phase-reference position (packet center at t = 0)
    k_lo: float
    k_hi: float
    norm: float

    @classmethod
    def truncated_gaussian(cls, k_bar, sigma_k, x_bar, support) -> "SpectralFunction":
        if sigma_k <= 0.0:
            raise ValueError("sigma_k must be positive")
        lo = max(float(support[0]), 0.0)
        hi = float(support[1])
        if hi <= lo:
            raise ValueError("empty spectral support")
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
        """Interval holding all but ~1e-12 of the probability at time t."""

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
        if loss_rate < 0.0:
            raise ValueError("loss_rate must be non-negative")
        self.params = params
        self.loss_rate = float(loss_rate)

    def norm(self, t) -> float:
        return math.exp(-self.loss_rate * float(t)) if self.loss_rate else 1.0

    def rho(self, x, t):
        return self.density_and_current(x, t)[0]

    def current(self, x, t):
        return self.density_and_current(x, t)[1]

    def density_and_current(self, x, t):
        p = self.params
        sig = p.sigma_x(t)
        offset = np.asarray(x, dtype=float) - p.center(t)
        z = offset / sig
        rho = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sig)
        # Velocity: v_bar plus the dilation term of the spreading width.
        velocity = p.v_bar + p.sigma_v ** 2 * t * offset / sig ** 2
        survival = self.norm(t)
        return survival * rho, survival * (rho * velocity)

    def loss(self, x, t):
        return self.loss_rate * self.rho(x, t)

    def loss_tail(self, x, t) -> float:
        # Analytic identity for global loss: integral of loss_rate * rho.
        return self.loss_rate * self.tail(x, t) if self.loss_rate else 0.0

    def tail(self, x, t) -> float:
        if math.isnan(x):
            raise InvalidRange("tail position is NaN")
        z = (float(x) - self.params.center(t)) / (math.sqrt(2.0) * self.params.sigma_x(t))
        return self.norm(t) * (0.5 * math.erfc(z))

    def support_hint(self, t) -> tuple[float, float]:
        c = self.params.center(t)
        pad = 8.0 * self.params.sigma_x(t)
        return (c - pad, c + pad)

    def spread(self, t) -> float:
        return float(self.params.sigma_x(t))


# The norm-conserving closed-form packet: DissipativeGaussianModel(params).
FreeGaussianModel = DissipativeGaussianModel


# ---------------------------------------------------------------------------
# Square-barrier scattering modes.
# ---------------------------------------------------------------------------


def _barrier_coefficients(k, barrier: BarrierSpec, mass: float = 1.0):
    """Vectorized matching coefficients (gamma, T, R, A, B) at wave numbers k.

    gamma is the principal square root of k^2 - 2 m V / hbar^2.  Under the
    barrier that puts gamma on the positive imaginary axis, so the interior
    component decays and T -> 1 stays continuous as V -> 0.  T comes from
    the closed-form denominator; A, B, R then follow from continuity of
    value and first derivative at x = +-a (the derivative condition at -a is
    automatic once the other three hold).
    """
    k = np.asarray(k, dtype=float)
    a = barrier.half_width
    two_m_v = 2.0 * mass * barrier.height / HBAR ** 2
    gamma = np.sqrt(np.asarray(k * k - two_m_v, dtype=complex))
    # Below ~1e-5 relative the 1/gamma cancellation in A, B costs more than
    # six digits; the degeneracy is measure zero, so refuse rather than drift.
    if np.any(np.abs(gamma) <= 1e-5 * np.sqrt(k * k + two_m_v)):
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


def _free_coefficients(k):
    """Exact V = 0 coefficients (gamma, T, R, A, B) = (k, 1, 0, 1, 0)."""
    one = np.ones(k.shape, dtype=complex)
    zero = np.zeros(k.shape, dtype=complex)
    return k.astype(complex), one, zero, one, zero


# Most (x, wave) entries one pointwise field evaluation holds at once (two
# waves a mode left of or inside the barrier); longer x batches are summed
# in row chunks, so memory stays bounded for any batch.
_FIELD_ENTRIES = 1 << 16


def _region_waves(k, gamma, T, R, A, B, weights, rate):
    """Per region (left, inside, right) its stacked exponents iq, their time
    rates and one [value, derivative] matrix with weights w: left [ik, -ik]
    on [w, ik w] over [w R, -ik w R], inside [i gamma, -i gamma] on
    [w A, i gamma w A] over [w B, -i gamma w B], right ik on [w T, ik w T];
    then the per-mode time phase rate, -i hbar k^2 / 2m, of shape (len(k),).
    Built once, not per call."""
    ik, igamma = 1j * k, 1j * gamma

    def region(*waves):
        # (q, c) per wave e^{qx}: exponents, rates, rows [w c, q w c].
        return (np.concatenate([q for q, _ in waves]), np.tile(rate, len(waves)),
                np.concatenate([np.stack([weights * c, q * weights * c], axis=1)
                                for q, c in waves]))
    return (region((ik, 1.0), (-ik, R)), region((igamma, A), (-igamma, B)),
            region((ik, T)), rate)


def _region_fields(region: int, x, t: float, waves):
    """(psi, d psi/dx) in the last axis at x in one region (0 left, 1
    inside, 2 right): shape (2,) for a float x, (n, 2) for an (n, 1) column.

    The time phase rides in the exponent, so every region is one complex
    exponential over its stacked waves, e^{iqx + rate t}, and one product
    with its [value, derivative] matrix (_region_waves).
    """
    iq, rate, matrix = waves[region]
    return _rows(np.exp(iq * x + rate * t), matrix)


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, a 2-d ``a`` row by row, as one stacked product of (1, K) rows:
    a BLAS matrix product's rows change their bits with its row count
    (OpenBLAS 0.3.31, 2 threads), a vector product's not."""
    return a @ b if a.ndim == 1 else (a[:, None] @ b)[:, 0]


def _mode_sums(x, t: float, waves, half_width):
    """(psi, d psi/dx) at x (see _region_fields): two complex numbers for
    a scalar x, whose region two comparisons pick and whose kernel alone
    runs, on the float; for an array, two arrays over its flattened
    values, a _region_fields call per row chunk of a region's points, each
    chunk at most _FIELD_ENTRIES (x, stacked wave) entries and each row
    with the bits of its scalar call.  The free reference
    passes half_width = -inf: at V = 0 every region has the same plane
    waves, and every point goes to the right region, the cheapest one.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        region = 2 if x > half_width else 0 if x < -half_width else 1
        return _region_fields(region, x, t, waves).tolist()
    flat = np.ravel(np.asarray(x, dtype=float))
    out = np.empty((flat.size, 2), dtype=complex)
    right = flat > half_width
    left = (flat < -half_width) & ~right
    for region, mask in enumerate((left, ~(left | right), right)):
        points = np.flatnonzero(mask)
        rows = max(1, _FIELD_ENTRIES // waves[region][0].size)
        for i in range(0, points.size, rows):
            chunk = points[i:i + rows]
            out[chunk] = _region_fields(region, flat[chunk, None], t, waves)
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
    value and derivative run the spectral packets' kernel (_mode_sums) on
    this one mode at t = 0, so a scalar x gives a complex number.
    """

    k: float
    barrier: BarrierSpec
    gamma: complex
    T: complex
    R: complex
    A: complex
    B: complex

    def __post_init__(self):
        # One-mode waves, at t = 0 with unit weight, and the region edge.
        k, gamma, *coefficients = [np.array([c]) for c in
                                   (self.k, self.gamma, self.T, self.R, self.A, self.B)]
        object.__setattr__(self, "_modes", (
            _region_waves(k, gamma, *coefficients, np.ones(1), np.zeros(1)),
            self.barrier.half_width))

    def value(self, x):
        return _shaped(x, _mode_sums(x, 0.0, *self._modes)[0])

    def derivative(self, x):
        return _shaped(x, _mode_sums(x, 0.0, *self._modes)[1])


def scattering_mode(k: float, barrier: BarrierSpec, mass: float = 1.0) -> ScatteringMode:
    """Matched scattering state for a unit wave incident from the left."""
    if k <= 0.0:
        raise DegenerateK("wave number must be positive")
    gamma, T, R, A, B = _barrier_coefficients(np.array([float(k)]), barrier, mass)
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

# Most tables one lockstep pass builds (a pass holds all their panels).
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


class _PanelWaves:
    """Factored sums of the waves e^{+-iqx} over one wave-number set, on panels.

    On a panel with midpoint m and half-width h, e^{iq(m + h xi)} =
    e^{iqm} e^{iqh xi}: equal-width panels of any times share a product
    with the (n_q, 22) matrix e^{iqh xi}.  A lattice panel (m = o + h + j 2h,
    o a barrier edge outside the barrier, else 0) takes the row
    exp(iq (o + h + j 2h)) from a kept window of at most one chunk's rows
    per origin, or computes it; a panel off its lattice takes exp(iqm).
    Half-widths are base * 2^m (others raise ValueError), each with its
    matrix and rows kept in ``kept``, up to _KEPT_WIDTHS of them.  e^{-iqm}
    is the conjugate of e^{iqm} for real q, its inverse for complex q.
    Rows are summed in chunks of at most _FIELD_ENTRIES (panel, q) entries
    and keep the bits they have alone: own phase rows, _rowwise products,
    and numpy's elidable temporary on the left of every complex product
    (past 256 KiB numpy computes x * temporary in the temporary's buffer,
    and complex products do not commute bit for bit).
    """

    def __init__(self, q: np.ndarray, base: float):
        self.q = q
        self.iq = 1j * q
        self.base = base
        self.kept: dict = {}

    def _entry(self, h: float) -> list:
        # [e^{iqh xi}, {origin: (lowest j, kept rows)}]; -h gives e^{-iqx}.
        if h in self.kept:
            return self.kept[h]
        entry = [np.exp(np.outer(self.iq, h * PANEL_NODES)), {}]
        if len(self.kept) < _KEPT_WIDTHS:
            self.kept[h] = entry
        return entry

    def _phases(self, mids, h: float, origin: float, entry: list) -> np.ndarray:
        """e^{iqm} at each mid, (len(mids), n_q), row by row."""
        step = 2.0 * h
        j = np.rint((mids - (origin + h)) / step)
        spot = origin + h + j * step
        on = np.abs(mids - spot) <= _ULPS * np.maximum(abs(origin + h), np.abs(mids))
        low, kept = entry[1].get(origin, (0.0, np.empty((0, self.q.size), dtype=complex)))
        if on.any():
            lo, hi = j[on].min(), j[on].max()
            if kept.size:
                lo, hi = min(lo, low), max(hi, low + len(kept) - 1)
            if hi - lo < max(1, _FIELD_ENTRIES // self.q.size) and hi - lo + 1 > len(kept):
                low, kept = lo, np.exp(np.outer(origin + h + np.arange(lo, hi + 1) * step, self.iq))
                entry[1][origin] = (low, kept)
        i = j - low
        fresh = ~on | (i < 0) | (i >= len(kept))
        phases = kept[np.where(fresh, 0, i).astype(int)] if kept.size else np.empty(
            (mids.size, self.q.size), dtype=complex)
        if fresh.any():
            phases[fresh] = np.exp(np.outer(np.where(on, spot, mids)[fresh], self.iq))
        return phases

    def rho(self, table, mids, halves, origin: float, up, down=None) -> np.ndarray:
        """|u e^{iqx} + d e^{-iqx}|^2 summed over q on the panels' nodes, with
        u = up[table] and d = down[table] (no e^{-iqx} wave for down None)
        the coefficients of each panel's time."""
        # Lattice half-widths snap to their exact value.
        widths = self.base * np.exp2(np.rint(np.log2(halves / self.base)))
        if (np.abs(halves - widths) > _ULPS * (np.abs(mids) + halves)).any():
            raise ValueError("a panel half-width is off the panel lattice")
        # A chunk holds about four (rows, n_q) arrays at once.
        rows = max(1, _FIELD_ENTRIES // (4 * self.q.size))
        out = np.empty((mids.size, PANEL_NODES.size))
        if down is not None and np.isrealobj(self.q):
            down = down.conj()    # conj(e) d = conj(e conj(d)): one phase serves both
        for h in np.unique(widths).tolist():
            entry = self._entry(h)
            back = None if down is None or np.isrealobj(self.q) else self._entry(-h)
            sel = np.flatnonzero(widths == h)
            for i in range(0, sel.size, rows):
                chunk = sel[i:i + rows]
                phases = self._phases(mids[chunk], h, origin, entry)
                c = table[chunk]
                psi = _rowwise(up[c] * phases, entry[0])
                if down is not None and back is None:
                    psi += _rowwise(down[c] * phases, entry[0]).conj()
                elif down is not None:
                    # e^{-iqm} = 1 / e^{iqm}; the e^{-iqh xi} matrix is the entry of -h.
                    psi += _rowwise(down[c] / phases, back[0])
                out[chunk] = psi.real ** 2 + psi.imag ** 2
        return out


class SpectralPacketModel(PacketModel):
    """Packet built as a weighted sum of modes over a wave-number grid.

    The amplitude is sum_j w_j psi~(k_j) phi_{k_j}(x) exp(-i k_j x_bar
    - i hbar k_j^2 t / 2m), with phi the matched modes of ``barrier``; with
    ``barrier=None`` they are the V = 0 modes, plane waves, and the model is
    the free reference.  The spatial derivative is taken analytically
    per mode, never by finite differences, so the current stays clean near
    density minima.  A phase-resolution guard raises GridTooCoarse instead
    of silently aliasing when an evaluation needs more nodes than the grid
    has.  Pointwise fields run _mode_sums with the time phase in the mode
    exponent: in every region one complex exponential over its stacked
    waves and one product with their (waves, 2) matrix give (psi,
    d psi/dx), over the modes right of the barrier (every point of the free
    reference) and over twice them, e^{+-iqx}, left of or inside it.
    Each point sums on the smallest rung (_rung) the guard accepts at its
    |x| and t; converged at 8 nodes per phase period, a rung moves rho and
    j by about 1e-13 of the peak density.  Panel tables sum with
    _PanelWaves and the coefficients of _coeffs(t), on the whole grid, over
    a lattice with its own pitch on each side of the barrier (_lattice).
    """

    def __init__(self, spectrum: SpectralFunction, grid: KGrid,
                 barrier: BarrierSpec | None, *, mass: float = 1.0,
                 tol: Tolerances = DEFAULT_TOL):
        self.spectrum = spectrum
        self.grid = grid
        self.barrier = barrier
        self.mass = float(mass)
        self.tol = tol
        edge = -math.inf if barrier is None else barrier.half_width
        waves, (gamma, *self._coefficients), self._base_coeffs = self._rule_waves(
            grid.nodes, grid.weights)                   # T, R, A, B
        # Curvature jumps of rho, kept as panel edges by every quadrature.
        self._cuts = () if barrier is None else (-edge, edge)
        # Lattice pitches, two periods of rho's fastest beat: k + k' <= 2
        # k_max left of the barrier, |k - k'| <= k_max - k_min right of it
        # (the transmitted wave alone) and on all of the free reference.
        self._pitch_right = 4.0 * math.pi / (grid.k_max - grid.k_min)
        self._pitch = 4.0 * math.pi / (2.0 * grid.k_max) if barrier else self._pitch_right
        # Panel waves right of, left of (q = k) and under the barrier (q =
        # gamma), kept across times; empty until the first table.
        self._waves = (_PanelWaves(grid.nodes, 0.5 * self._pitch_right),
                       _PanelWaves(grid.nodes, 0.5 * self._pitch),
                       _PanelWaves(gamma, edge if barrier else 1.0))
        self._sigma_x0 = 1.0 / (2.0 * spectrum.sigma_k)
        self._sigma_v = HBAR * spectrum.sigma_k / self.mass
        # Time-independent factor of the mode phases, -i hbar k^2.
        self._phase_rate = -1j * HBAR * grid.nodes ** 2
        # Region waves and edge, in _mode_sums order.
        self._modes = (waves, edge)
        # Pointwise rungs (_rung): node counts 64 * 2^j below the grid's, then the grid's.
        self._sizes = [64 << j for j in range(grid.size.bit_length()) if 64 << j < grid.size]
        self._sizes.append(grid.size)
        self._rungs = [None] * (len(self._sizes) - 1) + [waves]

    def _rule_waves(self, nodes, weights):
        """Region waves of the modes at these wave numbers and weights, their
        (gamma, T, R, A, B) and their coefficients at t = 0."""
        coefficients = (_free_coefficients(nodes) if self.barrier is None
                        else _barrier_coefficients(nodes, self.barrier, self.mass))
        base = (weights * self.spectrum.amplitude(nodes)
                * np.exp(-1j * nodes * self.spectrum.x_bar) / math.sqrt(2.0 * math.pi))
        rate = -1j * HBAR * nodes ** 2 / (2.0 * self.mass)
        return _region_waves(nodes, *coefficients, base, rate), coefficients, base

    def _rung(self, j: int):
        """Region waves of the Gauss-Legendre rule of _sizes[j] nodes on the
        grid's band, built on first use; the grid itself if that is not such
        a rule, and the next rung if the rule's nodes raise DegenerateK."""
        waves = self._rungs[j]
        if waves is None:
            g = self.grid
            # A rule's end weights are below its middle one: a midpoint grid
            # is refused before leggauss(g.size) runs (4 s at 4096 nodes).
            gauss = (g.weights[0] < g.weights[g.size // 2] and np.array_equal(
                _gauss_rule(g.k_min, g.k_max, g.size), (g.nodes, g.weights)))
            try:
                waves = (self._rule_waves(*_gauss_rule(g.k_min, g.k_max, self._sizes[j]))[0]
                         if gauss else self._rungs[-1])
            except DegenerateK:
                waves = self._rung(j + 1)
            self._rungs[j] = waves
        return waves

    def _coeffs(self, ts) -> np.ndarray:
        """Mode coefficients at each time of ts (or at one t), (n_t, n_k)."""
        phases = np.exp(np.outer(ts, self._phase_rate) / (2.0 * self.mass))
        return self._base_coeffs * phases

    def _check_resolution(self, x_abs, t: float):
        """Nodes the phase guard asks for at each |x| of x_abs (a float or an
        array) at time t; GridTooCoarse where the most exceeds the grid."""
        # Upper bound on |d phase/dk| across all mode branches at this |x|.
        rate = x_abs + abs(self.spectrum.x_bar) + HBAR * self.grid.k_max * abs(t) / self.mass
        needed = nodes_for_phase(rate, self.grid.k_min, self.grid.k_max, minimum=1)
        most = needed if isinstance(needed, int) else np.max(needed, initial=1.0)
        if self.grid.size < most:
            raise GridTooCoarse(
                f"wave-number grid has {self.grid.size} nodes but evaluating "
                f"out to |x| = {np.max(x_abs):.4g} at t = {t:.4g} needs >= {most:.0f}"
            )
        return needed

    def _fields(self, x, t: float):
        """(psi, d psi/dx) at x through _mode_sums, after the phase guard, on
        the smallest rung (_rung) with the nodes it asks for at each point's
        own |x|: two complex numbers for a scalar x, two rows over the
        flattened x of an array, a _mode_sums call per rung."""
        edge = self._modes[1]
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            j = bisect.bisect_left(self._sizes, self._check_resolution(abs(x), t))
            return _mode_sums(x, t, self._rung(j), edge)
        x = np.ravel(np.asarray(x, dtype=float))
        rungs = np.searchsorted(self._sizes, self._check_resolution(np.abs(x), t))
        fields = np.empty((2, x.size), dtype=complex)
        for j in np.unique(rungs).tolist():
            fields[:, rungs == j] = _mode_sums(x[rungs == j], t, self._rung(j), edge)
        return fields

    def _panel_rho(self, ts, coeffs=None):
        """Density on the nodes mid + half * PANEL_NODES of batches of panels,
        each at its own time: values(table, mids, halves) takes panel i at
        time ts[table[i]].

        Each panel lies wholly inside one region, as every table's panels
        do (the lattice makes +-a panel edges), and there the mode sum
        factors (see _PanelWaves; q = k outside the barrier, gamma inside),
        with the kept waves of the region's lattice (_lattice).  A panel
        across a barrier edge or with a half-width off that lattice raises
        ValueError.  ``coeffs`` (a row per time) replaces the mode
        coefficients, for other plane-wave sums on the free lattice.
        """
        T, R, A, B = self._coefficients
        edge = self._modes[1]
        ts = np.asarray(ts, dtype=float).ravel().tolist()
        if coeffs is None:
            coeffs = self._coeffs(ts)
        reach = float(np.max(PANEL_NODES))
        right_waves, left_waves, under = self._waves
        # Per region: waves, lattice origin, coefficients (a row per time)
        # of e^{iqx} and of e^{-iqx}.
        origin = edge if self.barrier is not None else 0.0
        regions = ((right_waves, origin, coeffs * T, None),
                   (left_waves, -origin, coeffs, coeffs * R),
                   (under, 0.0, coeffs * A, coeffs * B))

        def values(table, mids, halves):
            # Regions by the outermost nodes, not the panel edges: a panel
            # ending on a barrier edge still has all its nodes on one side.
            lo, hi = mids - reach * halves, mids + reach * halves
            right = lo > edge
            left = ~right & (hi < -edge)
            inside = (lo > -edge) & (hi < edge)
            if not (right | left | inside).all():
                raise ValueError("a panel crosses a barrier edge")
            out = np.empty((mids.size, PANEL_NODES.size))
            for mask, (waves, start, up, down) in zip((right, left, inside), regions):
                if mask.any():
                    out[mask] = waves.rho(table[mask], mids[mask], halves[mask],
                                          start, up, down)
            return out

        return values

    def amplitude(self, x, t):
        """Summed complex amplitude psi(x, t)."""
        psi, _ = self._fields(x, float(t))
        return _shaped(x, psi)

    def rho(self, x, t):
        psi, _ = self._fields(x, float(t))
        return _shaped(x, _density(psi))

    def current(self, x, t):
        psi, dpsi = self._fields(x, float(t))
        return _shaped(x, (HBAR / self.mass) * _flux(psi, dpsi))

    def density_and_current(self, x, t):
        psi, dpsi = self._fields(x, float(t))
        return _shaped(x, _density(psi)), _shaped(x, (HBAR / self.mass) * _flux(psi, dpsi))

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

    def _lattice(self, t: float) -> np.ndarray:
        """Initial panel edges of the tables at time t, over the support hint.

        The pitch is the model's pitch times 2^n, the rung that gives the
        unsnapped hint 8 to 509 panels (doubled again while the barrier's
        narrower inner panels would make it over 512).  Edges sit at j *
        pitch on the free reference; with a barrier at -a - j * pitch, at
        a + j * pitch_R (the transmitted pitch doubled to reach the pitch,
        halved while the top snaps out past the phase guard's headroom),
        and 2^m equal panels no wider than the pitch fill [-a, a], so the
        panel widths are time-independent.  The hint's ends snap
        outward to the nearest edges, each by at most its side's pitch;
        only edges near the hint are made, so a barrier much wider than the
        hint costs nothing.  A non-finite t is an InvalidRange.
        """
        if not math.isfinite(t):
            raise InvalidRange(f"time must be finite, got t = {t}")
        pad = 8.0 * self.spread(t)
        v_hi = HBAR * self.grid.k_max / self.mass
        if self.barrier is not None:
            # Reflected branch can travel as far left as the transmitted
            # branch travels right, so take a symmetric bound.
            hi = abs(self.spectrum.x_bar) + v_hi * abs(t) + pad
            lo = -hi
        else:
            c = self.spectrum.x_bar
            lo = c + HBAR * self.grid.k_min / self.mass * t - pad
            hi = c + v_hi * t + pad
        pitch = self._pitch
        while hi - lo > 509.0 * pitch:
            pitch *= 2.0
        while hi - lo < 8.0 * pitch:
            pitch *= 0.5
        if self.barrier is None:
            return pitch * np.arange(math.floor(lo / pitch), math.ceil(hi / pitch) + 1)
        a = self.barrier.half_width
        room = (_NODE_HEADROOM - 1.0) * (hi + abs(self.spectrum.x_bar) + v_hi * abs(t))
        while True:
            # Per side the edges in (0, hi] and one beyond: j * w inside (w =
            # 2a / 2^m exactly, so 0 is an edge too when m > 0), a + j * (the
            # side's pitch) outside.
            m = max(0, math.ceil(math.log2(a) + 1.0 - math.log2(pitch)))
            if m == 0:
                inner = np.array([a])
            else:
                w = math.ldexp(a, 1 - m)
                inner = w * np.arange(1, min(2 ** (m - 1), math.ceil(hi / w)) + 1)
            pitch_r = self._pitch_right
            while pitch_r < pitch:
                pitch_r *= 2.0
            # recommended_node_count leaves the guard's headroom for the snap.
            while hi > a and a + pitch_r * math.ceil((hi - a) / pitch_r) - hi > room:
                pitch_r *= 0.5
            left, right = [a + p * np.arange(1, math.ceil(max(0.0, hi - a) / p) + 1)
                           for p in (pitch, pitch_r)]
            edges = np.concatenate([-left[::-1], -inner[::-1], [0.0] * (m > 0), inner, right])
            if edges.size <= 513:
                return edges
            pitch *= 2.0

    def tail_tables(self, ts, low=-math.inf, coeffs=None) -> Iterator[list[Panels]]:
        """Panel tables of rho over the support hint, one per t of ts, on
        the lattice of _lattice(t), yielded in blocks: lists of up to
        _TABLE_BLOCK tables from one lockstep pass (adaptive_panels), each
        built when it is read, after the phase guard, and each table with
        its one-time build's bits.  With ``low`` a table starts at the
        lattice edge at or below it (the last panel at most); ``coeffs`` (a
        row per time) replaces the mode coefficients, on the free reference
        only (see tails): on a barrier model the first read raises ValueError."""
        if coeffs is not None and self.barrier is not None:
            raise ValueError("plane-wave coefficients need the free reference")
        ts = np.asarray(ts, dtype=float).ravel()
        for i in range(0, ts.size, _TABLE_BLOCK):
            block = ts[i:i + _TABLE_BLOCK].tolist()
            parts = [self._lattice(t) for t in block]
            if low > -math.inf:
                parts = [e[min(e.size - 2, max(0, int(np.searchsorted(e, low, "right")) - 1)):]
                         for e in parts]
            for t, edges in zip(block, parts):
                self._check_resolution(max(-float(edges[0]), float(edges[-1])), t)
            rho = self._panel_rho(block, None if coeffs is None else coeffs[i:i + _TABLE_BLOCK])
            yield adaptive_panels(rho, parts, self.tol)

    def tails(self, x, t, coeffs=None) -> np.ndarray:
        """Tails at every x and time of t, shape t.shape + x.shape: a table
        per time from tail_tables(t, min x), read at all x in one
        Panels.tail call, with the widest tail's error control (tail() is
        the independent check).  With ``coeffs`` (a row per time) the same
        integrals of |sum_j coeffs_j e^{ik_j x}|^2 on the free reference's
        lattice (the delta-p transmitted excess).  A NaN x is an InvalidRange."""
        x = np.asarray(x, dtype=float)
        low = np.min(x, initial=math.inf)     # NaN if any x is NaN
        if math.isnan(low):
            raise InvalidRange("tail position is NaN")
        times = np.asarray(t, dtype=float)
        reads = [table.tail(x) for block in self.tail_tables(times, low, coeffs) for table in block]
        return np.reshape(reads, times.shape + x.shape)

    def norm(self, t) -> float:
        # Modes are orthonormal and the spectrum has unit mass on the grid.
        return 1.0

    def support_hint(self, t) -> tuple[float, float]:
        """8 spreads beyond the fastest and slowest branches (both ways
        with a barrier), snapped outward to the panel lattice (_lattice),
        each end by at most its side's pitch, so tail() and tables agree."""
        edges = self._lattice(float(t))
        return float(edges[0]), float(edges[-1])

    def spread(self, t) -> float:
        return float(_width_at(self._sigma_x0, self._sigma_v, float(t)))


def spectral_free_model(spectrum: SpectralFunction, grid: KGrid, *,
                        mass: float = 1.0, tol: Tolerances = DEFAULT_TOL) -> SpectralPacketModel:
    """Free packet built from the same truncated spectral function.

    This is the reference for barrier comparisons; it uses the identical
    grid and spectrum, not the closed-form Gaussian.
    """
    return SpectralPacketModel(spectrum, grid, None, mass=mass, tol=tol)


def tunneling_packet_model(spectrum: SpectralFunction, barrier: BarrierSpec,
                           grid: KGrid, *, mass: float = 1.0,
                           tol: Tolerances = DEFAULT_TOL) -> SpectralPacketModel:
    """Packet scattering off the square barrier, mode by mode."""
    return SpectralPacketModel(spectrum, grid, barrier, mass=mass, tol=tol)


# Factor recommended_node_count puts on the guard's node count.
_NODE_HEADROOM = 1.15


def recommended_node_count(k_bar: float, sigma_k: float, x_bar: float,
                           t_max: float, *, mass: float = 1.0) -> int:
    """Wave-number node count that keeps the phase guard satisfied.

    Sized for evaluations anywhere inside the tunneling-packet support out
    to t_max, with a little headroom so tail quadrature never trips the
    guard mid-run.
    """
    k_hi = k_bar + N_SIGMA * sigma_k
    k_lo = max(0.0, k_bar - N_SIGMA * sigma_k)
    sigma_x0 = 1.0 / (2.0 * sigma_k)
    sigma_v = HBAR * sigma_k / mass
    v_hi = HBAR * k_hi / mass
    half = abs(x_bar) + v_hi * t_max + 8.0 * _width_at(sigma_x0, sigma_v, t_max)
    rate = half + abs(x_bar) + v_hi * t_max
    n = nodes_for_phase(rate, k_lo, k_hi)
    return int(math.ceil(_NODE_HEADROOM * n))


def spectral_setup(params: GaussianPacketParams, t_max: float, *,
                   n_nodes: int | None = None) -> tuple[SpectralFunction, KGrid]:
    """Build a grid and truncated spectrum sized for evaluations out to t_max."""
    if n_nodes is None:
        n_nodes = recommended_node_count(params.k_bar, params.sigma_k,
                                         params.x_bar, t_max, mass=params.mass)
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
    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "velocity", tuple(float(v) for v in self.velocity))
        if len(self.center) != 3 or len(self.velocity) != 3:
            raise ValueError("center and velocity must have three components")
        if self.sigma_x0 <= 0.0:
            raise ValueError("sigma_x0 must be positive")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")

    @functools.cached_property
    def sigma_v(self) -> float:
        return HBAR / (2.0 * self.sigma_x0) / self.mass

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
        (1 - e^(-2a))/(2a), the last factor 1 at a = 0.  Its error is
        rounding's, absolute (~1e-16); a ball far from the packet, which
        rounding can leave at -1e-33, reads 0, and a NaN stays NaN.  The second
        term is 0 (not inf * 0) where |R - d| >= 40 s or R/s overflows.
        InvalidRange where s^2 underflows to 0 or overflows."""
        s = self.sigma_x(t)
        if not 0.0 < s * s < math.inf:
            raise InvalidRange(f"sigma_x(t)^2 = {s:.3g}^2 at t = {t:.3g} is not a positive float")
        d = float(np.linalg.norm(center - self.center(t)))
        a = radius * d / s ** 2
        shape = -math.expm1(-2.0 * a) / (2.0 * a) if a > 0.0 else 1.0
        z = (radius - d) / s
        spill = (math.sqrt(2.0 / math.pi) * (radius / s) * math.exp(-0.5 * z ** 2) * shape
                 if abs(z) < 40.0 and radius / s < math.inf else 0.0)
        return max(0.5 * (math.erf((radius - d) / (math.sqrt(2.0) * s))
                          + math.erf((radius + d) / (math.sqrt(2.0) * s))) - spill, 0.0)

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
