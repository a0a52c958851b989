"""Wave-packet models behind a single PacketModel interface.

Closed-form Gaussian packets (norm-conserving and globally lossy),
square-barrier scattering modes, spectral superpositions of those modes,
and the isotropic 3D Gaussian packet.  Internal units are hbar = 1, m = 1:
positions in hbar/sqrt(eV*m), times in hbar/eV, energies in eV.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateK, GridTooCoarse
from .numerics import (
    DEFAULT_TOL,
    PANEL_NODES,
    KGrid,
    Panels,
    Tolerances,
    adaptive_panels,
    build_kgrid,
    erfc,
    initial_edges,
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
    "free_gaussian_model",
    "dissipative_gaussian_model",
    "scattering_mode",
    "spectral_free_model",
    "tunneling_packet_model",
    "gaussian3d_model",
    "loss_tail_by_quadrature",
    "recommended_node_count",
    "spectral_setup",
    "DEFAULT_PACKET",
    "DEFAULT_LOSS_RATE",
    "DEFAULT_BARRIER",
    "DEFAULT_PACKET_3D",
]

HBAR = 1.0


def _width_at(sigma_x0: float, sigma_v: float, t) -> float:
    """Spreading width sigma_x0 * sqrt(1 + (sigma_v t / sigma_x0)^2)."""
    ratio = sigma_v * t / sigma_x0
    return sigma_x0 * np.sqrt(1.0 + ratio * ratio)


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

    @property
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
        mass = 0.5 * (float(erfc((lo - k_bar) / scale)) - float(erfc((hi - k_bar) / scale)))
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
        """(rho, current) in one call; models may fuse the evaluation."""
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
        """Characteristic packet width, used for brackets and density floors."""

    def peak_density(self, t) -> float:
        """Order-of-magnitude density scale (Gaussian envelope estimate)."""
        return self.norm(t) / (math.sqrt(2.0 * math.pi) * self.spread(t))


def loss_tail_by_quadrature(model: PacketModel, x, t, tol: Tolerances = DEFAULT_TOL) -> float:
    """Quadrature fallback for the loss tail, for models without a closed form."""
    lo, hi = model.support_hint(t)
    start = min(max(float(x), lo), hi)
    if start >= hi:
        return 0.0
    return integrate_adaptive(lambda xs: model.loss(xs, t), start, hi, tol)


# ---------------------------------------------------------------------------
# Closed-form Gaussian packets.
# ---------------------------------------------------------------------------


def _gaussian_velocity(params: GaussianPacketParams, x, t):
    """Velocity field of the spreading Gaussian: v_bar plus the dilation term."""
    sig2 = params.sigma_x(t) ** 2
    return params.v_bar + params.sigma_v ** 2 * t * (x - params.center(t)) / sig2


class FreeGaussianModel(PacketModel):
    """Closed-form spreading Gaussian packet with conserved norm."""

    def __init__(self, params: GaussianPacketParams):
        self.params = params

    def rho(self, x, t):
        x = np.asarray(x, dtype=float)
        sig = self.params.sigma_x(t)
        z = (x - self.params.center(t)) / sig
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sig)

    def current(self, x, t):
        x = np.asarray(x, dtype=float)
        return self.rho(x, t) * _gaussian_velocity(self.params, x, t)

    def tail(self, x, t) -> float:
        sig = self.params.sigma_x(t)
        z = (float(x) - self.params.center(t)) / (math.sqrt(2.0) * sig)
        return 0.5 * float(erfc(z))

    def norm(self, t) -> float:
        return 1.0

    def support_hint(self, t) -> tuple[float, float]:
        c = self.params.center(t)
        pad = 8.0 * self.params.sigma_x(t)
        return (c - pad, c + pad)

    def spread(self, t) -> float:
        return float(self.params.sigma_x(t))


class DissipativeGaussianModel(PacketModel):
    """Spreading Gaussian with a global exponential probability loss.

    Density, current, and tail are the free-packet expressions scaled by
    exp(-loss_rate * t); the loss density is loss_rate * rho.  That keeps
    the lossy continuity balance d rho/dt + d j/dx + loss = 0 exact.
    """

    def __init__(self, params: GaussianPacketParams, loss_rate: float):
        if loss_rate < 0.0:
            raise ValueError("loss_rate must be non-negative")
        self.params = params
        self.loss_rate = float(loss_rate)
        self._free = FreeGaussianModel(params)

    def _survival(self, t) -> float:
        return math.exp(-self.loss_rate * float(t))

    def rho(self, x, t):
        return self._survival(t) * self._free.rho(x, t)

    def current(self, x, t):
        return self._survival(t) * self._free.current(x, t)

    def loss(self, x, t):
        return self.loss_rate * self.rho(x, t)

    def loss_tail(self, x, t) -> float:
        # Analytic identity for global loss: integral of loss_rate * rho.
        return self.loss_rate * self.tail(x, t)

    def tail(self, x, t) -> float:
        return self._survival(t) * self._free.tail(x, t)

    def norm(self, t) -> float:
        return self._survival(t)

    def support_hint(self, t) -> tuple[float, float]:
        return self._free.support_hint(t)

    def spread(self, t) -> float:
        return self._free.spread(t)


def free_gaussian_model(params: GaussianPacketParams) -> FreeGaussianModel:
    return FreeGaussianModel(params)


def dissipative_gaussian_model(params: GaussianPacketParams, loss_rate: float) -> DissipativeGaussianModel:
    return DissipativeGaussianModel(params, loss_rate)


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
    return gamma, T, R, A, B


def _free_coefficients(k):
    """Exact V = 0 coefficients (gamma, T, R, A, B) = (k, 1, 0, 1, 0)."""
    one = np.ones(k.shape, dtype=complex)
    zero = np.zeros(k.shape, dtype=complex)
    return k.astype(complex), one, zero, one, zero


def _mode_fields(x, k, gamma, T, R, A, B, half_width, with_derivative):
    """Region-wise mode values and, if asked, x-derivatives, each (len(x), len(k)).

    Values and derivatives share their exponentials; left of the barrier
    e^{-ikx} is the conjugate of e^{ikx}.  At V = 0 every region gives the
    same plane wave, so the free reference passes half_width = -inf and
    evaluates every point in the transmitted region, the cheapest one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = np.empty((x.size, k.size), dtype=complex)
    der = np.empty_like(val) if with_derivative else None
    right = x > half_width
    left = (x < -half_width) & ~right
    mid = ~(left | right)
    if np.any(left):
        e = np.exp(1j * k * x[left, None])
        r = R * e.conj()
        val[left] = e + r
        if with_derivative:
            der[left] = 1j * k * (e - r)
    if np.any(mid):
        xs = x[mid, None]
        up = A * np.exp(1j * gamma * xs)
        down = B * np.exp(-1j * gamma * xs)
        val[mid] = up + down
        if with_derivative:
            der[mid] = 1j * gamma * (up - down)
    if np.any(right):
        e = np.exp(1j * k * x[right, None])
        val[right] = T * e
        if with_derivative:
            der[right] = 1j * k * T * e
    return val, der


@dataclass(frozen=True)
class ScatteringMode:
    """Stationary square-barrier mode at one wave number.

    Piecewise form: e^{ikx} + R e^{-ikx} left of the barrier,
    A e^{i gamma x} + B e^{-i gamma x} inside, T e^{ikx} to the right.
    """

    k: float
    barrier: BarrierSpec
    gamma: complex
    T: complex
    R: complex
    A: complex
    B: complex

    def _arrays(self):
        return (np.array([self.k]), np.array([self.gamma]), np.array([self.T]),
                np.array([self.R]), np.array([self.A]), np.array([self.B]))

    def _field(self, x, derivative: bool):
        val, der = _mode_fields(x, *self._arrays(), self.barrier.half_width,
                                derivative)
        vals = (der if derivative else val)[:, 0]
        return complex(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))

    def value(self, x):
        return self._field(x, derivative=False)

    def derivative(self, x):
        return self._field(x, derivative=True)


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

# Most (x, k) entries one pointwise field evaluation holds at once; longer
# x batches are summed in row chunks, so memory stays bounded for any batch.
_FIELD_ENTRIES = 1 << 16


class _PanelWaves:
    """Factored sums of the waves e^{+-iqx} over one wave-number set, on panels.

    On a panel with midpoint m and half-width h,
    e^{iq(m + h xi)} = e^{iqm} e^{iqh xi}, so equal-width panels cost one
    exponential per (panel, wave number) and a matmul against the
    (n_q, 22) matrix e^{iqh xi}, kept per width.  Real q (outside the
    barrier) takes e^{-iqx} as the conjugate.  Panels are summed in row
    chunks of at most _FIELD_ENTRIES (panel, wave number) entries.
    """

    def __init__(self, q: np.ndarray):
        self.q = q
        self._waves: dict = {}

    def _wave(self, h: float) -> np.ndarray:
        # e^{iqh xi}; a negative h gives the e^{-iqh xi} of the down wave.
        if h not in self._waves:
            self._waves[h] = np.exp(1j * np.outer(self.q, h * PANEL_NODES))
        return self._waves[h]

    def sums(self, mids, h: float, up, down=None) -> np.ndarray:
        """sum_j up_j e^{iq_j x} + down_j e^{-iq_j x} at x = mids + h * PANEL_NODES."""
        rows = max(1, _FIELD_ENTRIES // self.q.size)
        if mids.size > rows:
            return np.concatenate([self.sums(mids[i:i + rows], h, up, down)
                                   for i in range(0, mids.size, rows)])
        e = np.exp(1j * np.outer(mids, self.q))
        psi = (e * up) @ self._wave(h)
        if down is None:
            return psi
        if np.isrealobj(self.q):
            return psi + (e.conj() * down) @ self._wave(h).conj()
        e_down = np.exp(-1j * np.outer(mids, self.q))
        return psi + (e_down * down) @ self._wave(-h)


def _factored_rho(mids, halves, regions) -> np.ndarray:
    """|psi|^2 on the nodes of panels, region by region.

    ``regions`` holds (mask, waves, up, down): the panels of ``mask`` lie
    wholly in a region where psi = waves.sums(..., up, down).  Rows no
    mask selects are left unset.  Half-widths are rounded to 40
    significant bits (node shifts far below any quadrature tolerance) so
    that bisection siblings share one e^{iqh xi} matrix.
    """
    mant, expo = np.frexp(halves)
    widths = np.ldexp(np.round(mant * 2.0 ** 40), expo - 40)
    out = np.empty((mids.size, PANEL_NODES.size))
    for mask, waves, up, down in regions:
        for h in np.unique(widths[mask]):
            sel = mask & (widths == h)
            psi = waves.sums(mids[sel], h, up, down)
            out[sel] = psi.real ** 2 + psi.imag ** 2
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
    has.
    """

    def __init__(self, spectrum: SpectralFunction, grid: KGrid,
                 barrier: BarrierSpec | None, *, mass: float = 1.0,
                 tol: Tolerances = DEFAULT_TOL, nodes_per_period: float = 8.0):
        self.spectrum = spectrum
        self.grid = grid
        self.barrier = barrier
        self.mass = float(mass)
        self.tol = tol
        if barrier is None:
            coefficients, edge = _free_coefficients(grid.nodes), -math.inf
        else:
            coefficients = _barrier_coefficients(grid.nodes, barrier, self.mass)
            edge = barrier.half_width
        # Wave numbers, coefficients and region edge, in _mode_fields order.
        self._modes = (grid.nodes, *coefficients, edge)
        # Curvature jumps of rho, kept as panel edges by every quadrature.
        self._cuts = () if barrier is None else (-edge, edge)
        self._nodes_per_period = float(nodes_per_period)
        amp = spectrum.amplitude(grid.nodes)
        self._base_coeffs = (grid.weights * amp
                             * np.exp(-1j * grid.nodes * spectrum.x_bar)
                             / math.sqrt(2.0 * math.pi))
        self._sigma_x0 = 1.0 / (2.0 * spectrum.sigma_k)
        self._sigma_v = HBAR * spectrum.sigma_k / self.mass
        self._coeff_cache: tuple[float, np.ndarray | None] = (math.nan, None)

    def _coeffs(self, t: float) -> np.ndarray:
        if self._coeff_cache[0] == t:
            return self._coeff_cache[1]
        phase = np.exp(-1j * HBAR * self.grid.nodes ** 2 * t / (2.0 * self.mass))
        coeffs = self._base_coeffs * phase
        self._coeff_cache = (t, coeffs)
        return coeffs

    def _check_resolution(self, x_absmax: float, t: float):
        # Upper bound on |d phase/dk| across all mode branches at this x span.
        rate = (x_absmax + abs(self.spectrum.x_bar)
                + HBAR * self.grid.k_max * abs(t) / self.mass)
        needed = nodes_for_phase(rate, self.grid.k_min, self.grid.k_max,
                                 nodes_per_period=self._nodes_per_period, minimum=1)
        if self.grid.size < needed:
            raise GridTooCoarse(
                f"wave-number grid has {self.grid.size} nodes but evaluating "
                f"out to |x| = {x_absmax:.4g} at t = {t:.4g} needs >= {needed}"
            )

    def _fields(self, x, t: float, with_derivative: bool):
        flat = np.ravel(np.asarray(x, dtype=float))
        self._check_resolution(float(np.max(np.abs(flat))) if flat.size else 0.0, t)
        coeffs = self._coeffs(float(t))
        rows = max(1, _FIELD_ENTRIES // self.grid.size)
        if flat.size <= rows:
            return self._mode_sums(flat, coeffs, with_derivative)
        chunks = [self._mode_sums(flat[i:i + rows], coeffs, with_derivative)
                  for i in range(0, flat.size, rows)]
        psi = np.concatenate([c[0] for c in chunks])
        return psi, np.concatenate([c[1] for c in chunks]) if with_derivative else None

    def _mode_sums(self, xs, coeffs, with_derivative: bool):
        val, der = _mode_fields(xs, *self._modes, with_derivative)
        return val @ coeffs, der @ coeffs if with_derivative else None

    def _panel_rho(self, t: float):
        """Density on the nodes mid + half * PANEL_NODES of batches of panels.

        On a panel wholly inside one region the mode sum factors (see
        _PanelWaves; q = k outside the barrier, gamma inside).  Panels
        across a barrier edge take the pointwise kernel.
        """
        k, gamma, T, R, A, B, edge = self._modes
        coeffs = self._coeffs(t)
        reach = float(np.max(PANEL_NODES))
        outside, under = _PanelWaves(k), _PanelWaves(gamma)

        def values(mids, halves):
            # Regions by the outermost nodes, not the panel edges: a panel
            # ending on a barrier edge still has all its nodes on one side.
            lo, hi = mids - reach * halves, mids + reach * halves
            self._check_resolution(float(np.max(np.maximum(-lo, hi))), t)
            right = lo > edge
            left = ~right & (hi < -edge)
            inside = (lo > -edge) & (hi < edge)
            across = ~(right | left | inside)
            # Per region: waves, coefficients of e^{iqx} and of e^{-iqx}.
            out = _factored_rho(mids, halves, (
                (right, outside, coeffs * T, None),
                (left, outside, coeffs, coeffs * R),
                (inside, under, coeffs * A, coeffs * B)))
            if np.any(across):
                xs = mids[across, None] + halves[across, None] * PANEL_NODES
                out[across] = self.rho(xs.ravel(), t).reshape(xs.shape)
            return out

        return values

    def amplitude(self, x, t):
        """Summed complex amplitude psi(x, t)."""
        psi, _ = self._fields(x, float(t), with_derivative=False)
        return complex(psi[0]) if np.ndim(x) == 0 else psi.reshape(np.shape(x))

    def rho(self, x, t):
        psi, _ = self._fields(x, float(t), with_derivative=False)
        out = psi.real ** 2 + psi.imag ** 2
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def current(self, x, t):
        psi, dpsi = self._fields(x, float(t), with_derivative=True)
        out = (HBAR / self.mass) * np.imag(np.conj(psi) * dpsi)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def density_and_current(self, x, t):
        psi, dpsi = self._fields(x, float(t), with_derivative=True)
        rho = psi.real ** 2 + psi.imag ** 2
        cur = (HBAR / self.mass) * np.imag(np.conj(psi) * dpsi)
        if np.ndim(x) == 0:
            return float(rho[0]), float(cur[0])
        return rho.reshape(np.shape(x)), cur.reshape(np.shape(x))

    def _initial_panels(self, span: float) -> int:
        # Sized to the fastest spatial beat of the density, two periods per
        # panel, so the first refinement pass already sees the oscillation.
        osc_k = 2.0 * self.grid.k_max if self.barrier is not None else \
            self.grid.k_max - self.grid.k_min
        periods = span * osc_k / (2.0 * math.pi)
        return int(min(512, max(8, math.ceil(periods / 2.0))))

    def interval_mass(self, x1, x2, t) -> float:
        t = float(t)
        lo, hi = self.support_hint(t)
        a = min(max(float(x1), lo), hi)   # outside the hint rho is ~1e-12 small
        b = min(max(float(x2), lo), hi)
        if a == b:
            return 0.0
        # rho has a curvature jump at +-a that a GL15-GL7 gap across it
        # underestimates, so the barrier edges are panel edges.
        return integrate_adaptive(lambda xs: self.rho(xs, t), a, b, self.tol,
                                  initial_panels=self._initial_panels(abs(b - a)),
                                  points=self._cuts)

    def tail(self, x, t) -> float:
        t = float(t)
        return self.interval_mass(x, self.support_hint(t)[1], t)

    def _table(self, lo: float, hi: float, t: float, points=()) -> Panels:
        edges = initial_edges(lo, hi, self._initial_panels(hi - lo),
                              (*self._cuts, *points))
        return adaptive_panels(self._panel_rho(t), edges, self.tol)

    def tail_panels(self, t) -> Panels:
        """Retained GL7/15 panels of rho over the support hint at time t.

        Same error control, initial panel count and barrier-edge cuts as
        tail(); with the cuts no panel crosses a region boundary, so every
        panel takes the factored kernel.  tail() keeps the pointwise kernel
        and starts at its own x, so it stays an independent check of these
        panels.
        """
        t = float(t)
        return self._table(*self.support_hint(t), t)

    def tails(self, x, t) -> np.ndarray:
        """tail(x_i, t) at every x from one retained panel table.

        The table spans [min x, top of the support hint] with every x
        (clamped to the hint, as in tail()) as a panel edge, so each tail
        is the reverse cumulative panel mass at its edge.  Its error
        control is that of the widest tail; tail() stays the pointwise
        independent check.
        """
        t = float(t)
        lo, hi = self.support_hint(t)
        xs = np.clip(np.asarray(x, dtype=float), lo, hi)
        start = float(np.min(xs, initial=hi))
        if start == hi:
            return np.zeros(xs.shape)
        return self._table(start, hi, t, xs.ravel()).mass_above(xs)

    def norm(self, t) -> float:
        # Modes are orthonormal and the spectrum has unit mass on the grid.
        return 1.0

    def support_hint(self, t) -> tuple[float, float]:
        t = float(t)
        pad = 8.0 * self.spread(t)
        v_hi = HBAR * self.grid.k_max / self.mass
        if self.barrier is not None:
            # Reflected branch can travel as far left as the transmitted
            # branch travels right, so take a symmetric bound.
            half = abs(self.spectrum.x_bar) + v_hi * abs(t) + pad
            return (-half, half)
        v_lo = HBAR * self.grid.k_min / self.mass
        c = self.spectrum.x_bar
        return (c + v_lo * t - pad, c + v_hi * t + pad)

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


def recommended_node_count(k_bar: float, sigma_k: float, x_bar: float,
                           t_max: float, *, n_sigma: float = 6.0,
                           mass: float = 1.0, nodes_per_period: float = 8.0,
                           headroom: float = 1.15) -> int:
    """Wave-number node count that keeps the phase guard satisfied.

    Sized for evaluations anywhere inside the tunneling-packet support out
    to t_max, with a little headroom so tail quadrature never trips the
    guard mid-run.
    """
    k_hi = k_bar + n_sigma * sigma_k
    k_lo = max(0.0, k_bar - n_sigma * sigma_k)
    sigma_x0 = 1.0 / (2.0 * sigma_k)
    sigma_v = HBAR * sigma_k / mass
    v_hi = HBAR * k_hi / mass
    half = abs(x_bar) + v_hi * t_max + 8.0 * _width_at(sigma_x0, sigma_v, t_max)
    rate = half + abs(x_bar) + v_hi * t_max
    n = nodes_for_phase(rate, k_lo, k_hi, nodes_per_period=nodes_per_period)
    return int(math.ceil(headroom * n))


def spectral_setup(params: GaussianPacketParams, t_max: float, *,
                   n_sigma: float = 6.0, n_nodes: int | None = None) -> tuple[SpectralFunction, KGrid]:
    """Build a grid and truncated spectrum sized for evaluations out to t_max."""
    if n_nodes is None:
        n_nodes = recommended_node_count(params.k_bar, params.sigma_k,
                                         params.x_bar, t_max,
                                         n_sigma=n_sigma, mass=params.mass)
    grid = build_kgrid(params.k_bar, params.sigma_k, n_sigma=n_sigma,
                       n_nodes=n_nodes)
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

    @property
    def sigma_v(self) -> float:
        return HBAR / (2.0 * self.sigma_x0) / self.mass

    def sigma_x(self, t) -> float:
        return _width_at(self.sigma_x0, self.sigma_v, t)


class Gaussian3DModel:
    """Product of three 1D Gaussian packets sharing one isotropic width.

    Exposes the density and vector velocity field the 3D tracer needs; the
    1D PacketModel tail interface does not apply here.
    """

    def __init__(self, params: Gaussian3DParams):
        self.params = params

    def center(self, t) -> np.ndarray:
        p = self.params
        return np.asarray(p.center) + np.asarray(p.velocity) * t

    def sigma_x(self, t) -> float:
        return float(self.params.sigma_x(t))

    def rho(self, points, t):
        pts = np.asarray(points, dtype=float)
        sig = self.sigma_x(t)
        d = pts - self.center(t)
        r2 = np.sum(d * d, axis=-1)
        return np.exp(-0.5 * r2 / sig ** 2) / (math.sqrt(2.0 * math.pi) * sig) ** 3

    def velocity(self, points, t):
        """Component-wise free-Gaussian velocity field."""
        pts = np.asarray(points, dtype=float)
        sig = self.sigma_x(t)
        factor = self.params.sigma_v ** 2 * t / sig ** 2
        return np.asarray(self.params.velocity) + factor * (pts - self.center(t))

    def current(self, points, t):
        return self.rho(points, t)[..., None] * self.velocity(points, t)


def gaussian3d_model(params: Gaussian3DParams) -> Gaussian3DModel:
    return Gaussian3DModel(params)


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
