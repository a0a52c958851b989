"""Quantile kinematics over packet models.

Tail-probability evaluation, quantile inversion by monotone root finding,
trajectory tracing by repeated CDF inversion and by velocity-field ODE
(conserved, lossy, and 3D), and probability transport through spherical
flow maps.  The two 1D tracing routes are independent on purpose: their
agreement is the main internal consistency check of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidRange, NormBelowP, StepUnderflow, VelocitySingular
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    find_root_monotone,
    integrate_adaptive,
    integrate_ode,
)
from .wavepacket import Gaussian3DModel, PacketModel, SpectralPacketModel

__all__ = [
    "Termination",
    "QuantileTrajectory",
    "FlowMap3D",
    "tail_probability",
    "quantile_position",
    "quantile_velocity",
    "trace_trajectory_cdf",
    "trace_trajectory_ode",
    "sphere_seeds",
    "trace_flowmap_3d",
    "probability_in_volume",
    "DENSITY_FLOOR_REL",
]

# Relative density floor: below this fraction of the packet's peak density
# the velocity j/rho is treated as numerically singular.
DENSITY_FLOOR_REL = 1e-14


@dataclass(frozen=True)
class Termination:
    """How a traced trajectory ended.

    kind is one of "completed", "norm_below_p" (time holds the exact t_end
    where the total norm reaches P), or "velocity_singular" (time/position
    hold the point where the density floor could not be escaped).
    """

    kind: str
    time: float | None = None
    position: float | None = None

    @classmethod
    def completed(cls) -> "Termination":
        return cls("completed")

    @classmethod
    def norm_below_p(cls, t_end: float) -> "Termination":
        return cls("norm_below_p", time=t_end)

    @classmethod
    def velocity_singular(cls, t: float, x: float) -> "Termination":
        return cls("velocity_singular", time=t, position=x)


@dataclass
class QuantileTrajectory:
    """A P-value with its sampled (t, x, v) path and termination record.

    ``floor_episodes`` counts samples or steps where the density floor
    forced a CDF-inversion fallback; velocities at such samples are NaN.
    """

    P: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    termination: Termination
    floor_episodes: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if not (self.times.shape == self.positions.shape == self.velocities.shape):
            raise ValueError("times, positions, velocities must share one shape")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def samples(self):
        """Ordered (t, x, v) triples."""
        return list(zip(self.times, self.positions, self.velocities))


@dataclass
class FlowMap3D:
    """Transported seed points with their common probability content."""

    seeds: np.ndarray      # (m, 3)
    times: np.ndarray      # (n,)
    paths: np.ndarray      # (m, n, 3)
    P: float

    def points_at(self, index: int) -> np.ndarray:
        """Transported seed cloud at times[index], shape (m, 3)."""
        return self.paths[:, index, :]


# ---------------------------------------------------------------------------
# Point evaluations.
# ---------------------------------------------------------------------------


def tail_probability(model: PacketModel, x: float, t: float) -> float:
    """Probability to the right of x at time t."""
    return model.tail(x, t)


def quantile_velocity(model: PacketModel, x: float, t: float, *,
                      floor_rel: float = DENSITY_FLOOR_REL) -> float:
    """Quantile velocity at (x, t): current over density, minus the loss
    tail over density for lossy models (the integro-differential form)."""
    rho, cur = model.density_and_current(x, t)
    rho = float(rho)
    if rho <= floor_rel * model.peak_density(t):
        raise VelocitySingular(
            f"density {rho:.3e} at x = {x:.6g}, t = {t:.6g} is below the floor",
            t=t, x=x,
        )
    loss_tail = model.loss_tail(x, t)
    return (float(cur) - loss_tail) / rho


class _TailTable:
    """Upper tail of a spectral packet at one time, from one retained
    adaptive panel quadrature over the support hint.

    ``upper[i]`` is the mass right of panel i's lower edge (the reverse
    cumulative panel masses, ``upper[-1] = 0``); a probe at x adds the
    mass of the partial panel [x, panel top], one GL7/15 panel under the
    same error control, to the mass right of its panel.
    """

    def __init__(self, model: SpectralPacketModel, t: float):
        self.model = model
        self.t = t
        panels = model.tail_panels(t)
        self.los, self.his = panels.los, panels.his
        self.upper = panels.upper

    def __call__(self, x: float) -> float:
        if x <= self.los[0]:
            return float(self.upper[0])
        i = int(np.searchsorted(self.his, x))   # first panel with top >= x
        if i == self.his.size:
            return 0.0
        return float(self.upper[i + 1]) + integrate_adaptive(
            lambda xs: self.model.rho(xs, self.t), x, self.his[i],
            self.model.tol, initial_panels=1)

    def bracket(self, P: float) -> tuple[float, float]:
        """Edges of the panel whose edge tails straddle P."""
        # Last panel whose lower-edge tail is still >= P (upper[-1] = 0 < P).
        i = max(int(np.searchsorted(-self.upper, -P, side="right")) - 1, 0)
        return float(self.los[i]), float(self.his[i])


def quantile_position(model: PacketModel, P: float, t: float,
                      tol: Tolerances = DEFAULT_TOL, *,
                      x_guess: float | None = None) -> float:
    """Unique x with tail_probability(model, x, t) = P.

    A spectral model builds one tail table at t (``_TailTable``) and finds
    the root inside the one panel that brackets P; ``x_guess`` is not
    needed there.  Other models answer through their own ``tail``: the
    bracket is seeded at ``x_guess`` (typically the previous time step's
    quantile) with width four spreads and grown geometrically, falling back
    to the full support hint.  Raises NormBelowP when no quantile exists
    because the total norm has decayed to or below P.
    """
    if not 0.0 < P < 1.0:
        raise InvalidRange(f"P must lie in (0, 1), got {P}")
    norm = model.norm(t)
    if P >= norm:
        raise NormBelowP(
            f"requested P = {P} but total norm at t = {t:.6g} is {norm:.12g}",
            t_end=t,
        )
    t = float(t)
    if isinstance(model, SpectralPacketModel):
        table = _TailTable(model, t)
        return find_root_monotone(lambda x: table(x) - P, table.bracket(P), tol)

    def tail(x):
        return model.tail(x, t)

    hint_lo, hint_hi = model.support_hint(t)
    if x_guess is None:
        lo, hi = hint_lo, hint_hi
    else:
        width = 2.0 * model.spread(t)
        lo = max(float(x_guess) - width, hint_lo)
        hi = min(float(x_guess) + width, hint_hi)
        # Grow each side until the bracket straddles P or hits the hint.
        while tail(lo) - P <= 0.0 and lo > hint_lo:
            lo = max(float(x_guess) - 2.0 * (float(x_guess) - lo), hint_lo)
        while tail(hi) - P >= 0.0 and hi < hint_hi:
            hi = min(float(x_guess) + 2.0 * (hi - float(x_guess)), hint_hi)

    return find_root_monotone(lambda x: tail(x) - P, (lo, hi), tol)


# ---------------------------------------------------------------------------
# Trajectory tracing.
# ---------------------------------------------------------------------------


def _norm_crossing_time(model: PacketModel, P: float, t_lo: float, t_hi: float,
                        tol: Tolerances) -> float:
    """Exact time in [t_lo, t_hi] at which the total norm decays to P."""
    return find_root_monotone(lambda t: model.norm(t) - P, (t_lo, t_hi), tol)


def trace_trajectory_cdf(model: PacketModel, P: float, t_grid,
                         tol: Tolerances = DEFAULT_TOL) -> QuantileTrajectory:
    """Trace x_P(t) by inverting the tail probability at each grid time.

    Stops with a norm_below_p termination at the exact crossing time once
    the total norm falls to P; velocities come from quantile_velocity and
    are NaN (with a floor_episodes count) where the density floor is hit.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidRange("t_grid must be a non-empty 1-d array")
    if np.any(np.diff(ts) <= 0.0):
        raise InvalidRange("t_grid must be strictly increasing")
    if model.norm(ts[0]) <= P:
        raise NormBelowP(
            f"norm at the first grid time is already <= P = {P}", t_end=ts[0])

    times, xs, vs = [], [], []
    floor_episodes = 0
    termination = Termination.completed()
    prev_x = None
    for i, t in enumerate(ts):
        if model.norm(t) <= P:
            t_end = _norm_crossing_time(model, P, ts[i - 1], t, tol)
            termination = Termination.norm_below_p(t_end)
            break
        x = quantile_position(model, P, t, tol, x_guess=prev_x)
        try:
            v = quantile_velocity(model, x, t)
        except VelocitySingular:
            v = math.nan
            floor_episodes += 1
        times.append(t)
        xs.append(x)
        vs.append(v)
        prev_x = x
    return QuantileTrajectory(P=P, times=np.array(times), positions=np.array(xs),
                              velocities=np.array(vs), termination=termination,
                              floor_episodes=floor_episodes)


def trace_trajectory_ode(model: PacketModel, P: float, t0: float, t1: float,
                         tol: Tolerances = DEFAULT_TOL, *, t_eval=None,
                         floor_rel: float = DENSITY_FLOOR_REL,
                         max_floor_episodes: int = 100) -> QuantileTrajectory:
    """Trace x_P(t) by integrating the quantile-velocity field.

    The initial position comes from one CDF inversion at t0.  For lossy
    models the integration horizon is clamped just short of the exact norm
    crossing, which is recorded as the termination time.  When the density
    under the quantile falls below the floor (interference nodes), the
    tracer re-anchors by CDF inversion slightly later and resumes, counting
    the episode.
    """
    t0 = float(t0)
    t1 = float(t1)
    if t1 <= t0:
        raise InvalidRange("t1 must exceed t0")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)

    termination = Termination.completed()
    t_stop = t1
    if model.norm(t1) <= P:
        if model.norm(t0) <= P:
            raise NormBelowP(f"norm at t0 is already <= P = {P}", t_end=t0)
        t_end = _norm_crossing_time(model, P, t0, t1, tol)
        termination = Termination.norm_below_p(t_end)
        # Stop just short of the crossing; the quantile dives to -inf there.
        t_stop = t_end - max(1e-9, 8.0 * np.finfo(float).eps * abs(t_end))

    def rhs(t, y):
        rho, cur = model.density_and_current(float(y[0]), t)
        rho = max(float(rho), floor_rel * model.peak_density(t))
        return np.array([(float(cur) - model.loss_tail(float(y[0]), t)) / rho])

    def below_floor(t, y):
        return float(model.rho(float(y[0]), t)) <= floor_rel * model.peak_density(t)

    x_cur = quantile_position(model, P, t0, tol)
    t_cur = t0
    times = [t0]
    xs = [x_cur]
    floor_episodes = 0
    skip = max(1e-6, 1e-6 * (t1 - t0))

    while t_cur < t_stop:
        seg_eval = None
        if t_eval is not None:
            mask = (t_eval > t_cur) & (t_eval <= t_stop)
            seg_eval = np.concatenate(([t_cur], t_eval[mask]))
        try:
            path = integrate_ode(rhs, x_cur, t_cur, t_stop, tol,
                                 stop=below_floor, t_eval=seg_eval)
        except StepUnderflow as err:
            termination = Termination.velocity_singular(err.t, float(np.atleast_1d(err.x)[0]))
            break
        for tt, state in zip(path.times, path.states):
            if tt > times[-1] + 1e-13 * max(1.0, abs(tt)):
                times.append(float(tt))
                xs.append(float(state[0]))
        if path.stop_reason == "completed":
            break
        # Density floor hit: re-anchor by CDF inversion a little later.
        floor_episodes += 1
        if floor_episodes >= max_floor_episodes:
            termination = Termination.velocity_singular(path.stop_time,
                                                        float(path.states[-1, 0]))
            break
        t_next = min(path.stop_time + skip, t_stop)
        if t_next <= t_cur + skip * 0.5:
            skip *= 2.0
        if t_next >= t_stop:
            break
        x_cur = quantile_position(model, P, t_next, tol, x_guess=float(path.states[-1, 0]))
        t_cur = t_next

    times = np.array(times)
    xs = np.array(xs)
    vs = np.empty_like(xs)
    for i, (tt, xx) in enumerate(zip(times, xs)):
        try:
            vs[i] = quantile_velocity(model, xx, tt, floor_rel=floor_rel)
        except VelocitySingular:
            vs[i] = math.nan
    return QuantileTrajectory(P=P, times=times, positions=xs, velocities=vs,
                              termination=termination,
                              floor_episodes=floor_episodes)


# ---------------------------------------------------------------------------
# 3D flow maps.
# ---------------------------------------------------------------------------


def sphere_seeds(center, radius: float) -> np.ndarray:
    """26 deterministic points on a sphere: 6 axial, 12 edge, 8 corner."""
    if radius <= 0.0:
        raise InvalidRange("radius must be positive")
    dirs = []
    for i in range(3):
        for s in (1.0, -1.0):
            d = np.zeros(3)
            d[i] = s
            dirs.append(d)
    for i in range(3):
        j = (i + 1) % 3
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                d = np.zeros(3)
                d[i] = si
                d[j] = sj
                dirs.append(d / math.sqrt(2.0))
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                dirs.append(np.array([sx, sy, sz]) / math.sqrt(3.0))
    return np.asarray(center, dtype=float) + radius * np.array(dirs)


def trace_flowmap_3d(field: Gaussian3DModel, seeds, t_grid,
                     tol: Tolerances = DEFAULT_TOL) -> FlowMap3D:
    """Advect seed points along the vector velocity field j/rho.

    All seeds travel in one stacked ODE state so they share step control;
    the field is smooth everywhere for Gaussian packets, so no floor logic
    is needed.  P is the probability enclosed by the seed sphere at the
    first grid time.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise InvalidRange("seeds must have shape (m, 3)")
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0.0):
        raise InvalidRange("t_grid must be strictly increasing with >= 2 points")

    def rhs(t, y):
        return field.velocity(y.reshape(-1, 3), t).ravel()

    path = integrate_ode(rhs, seeds.ravel(), ts[0], ts[-1], tol, t_eval=ts)
    paths = path.states.reshape(len(path.times), -1, 3).transpose(1, 0, 2)
    content = probability_in_volume(field, seeds, ts[0], tol)
    return FlowMap3D(seeds=seeds, times=np.asarray(path.times),
                     paths=paths, P=content)


def probability_in_volume(field: Gaussian3DModel, surface_points, t: float,
                          tol: Tolerances = DEFAULT_TOL) -> float:
    """Probability inside the sphere spanned by transported seed points.

    The enclosing ball is reconstructed from the point cloud (center of
    mass, mean radius) and integrated in spherical coordinates: adaptive
    Gauss-Legendre radially, a product angular rule that is spectrally
    accurate for the smooth densities at hand.
    """
    pts = np.asarray(surface_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidRange("surface_points must have shape (m, 3)")
    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).mean())
    if radius == 0.0:
        return 0.0

    n_mu, n_phi = 24, 24
    mu, w_mu = leggauss(n_mu)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    sin_theta = np.sqrt(1.0 - mu ** 2)
    dirs = np.stack([
        np.outer(sin_theta, np.cos(phi)).ravel(),
        np.outer(sin_theta, np.sin(phi)).ravel(),
        np.repeat(mu, n_phi),
    ], axis=-1)                                  # (n_mu*n_phi, 3)
    w_ang = np.repeat(w_mu, n_phi) * (2.0 * math.pi / n_phi)

    def shell(rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        points = center + rs[:, None, None] * dirs[None, :, :]
        rho = field.rho(points, t)
        return rs * rs * (rho @ w_ang)

    sigma = field.sigma_x(t)
    n0 = int(min(64, max(8, math.ceil(radius / (2.0 * sigma)))))
    return integrate_adaptive(shell, 0.0, radius, tol, initial_panels=n0)
