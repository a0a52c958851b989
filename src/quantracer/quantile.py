"""Quantile kinematics over packet models.

Tail-probability evaluation, quantile inversion (one batched table solve
for a spectral model, a certified closed form for a closed-form one),
trajectory tracing by repeated CDF inversion and by velocity-field ODE
(conserved, lossy, and 3D), and probability transport through spherical
flow maps.  The two 1D tracing routes are independent on purpose: their
agreement is the main internal consistency check of the library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, NormBelowP, StepUnderflow, VelocitySingular
from .numerics import (
    _ROOT_REL,
    DEFAULT_TOL,
    Tolerances,
    _upper_normal_quantile,
    find_root_monotone,
    integrate_ode,
    invert_tables,
)
from .wavepacket import (DissipativeGaussianModel, Gaussian3DModel, PacketModel,
                         SpectralPacketModel, lockstep_tables)

__all__ = [
    "Termination",
    "QuantileTrajectory",
    "FlowMap3D",
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

# Floor episodes after which an ODE trace ends velocity_singular.
_MAX_FLOOR_EPISODES = 100


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
    return (float(cur) - model.loss_tail(x, t)) / rho


def _floats(values, name: str) -> np.ndarray:
    """values as a new float array; a ragged nesting is an InvalidRange."""
    try:
        return np.array(values, dtype=float)
    except ValueError:
        raise InvalidRange(f"{name} must be a number or a regular array of numbers") from None


def _levels(P) -> np.ndarray:
    """P as a float array, each level checked to lie in (0, 1)."""
    levels = _floats(P, "P")
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise InvalidRange(f"P must lie in (0, 1), got {P}")
    return levels


def quantile_position(model: PacketModel, P, t, tol: Tolerances = DEFAULT_TOL):
    """Unique x with model.tail(x, t) = P: a float for a scalar P and t, else
    an array of shape t.shape + P.shape; for a tuple of models, their
    positions on a leading axis.

    Spectral models build one panel table per time and model in one
    lockstep pass per block of times (lockstep_tables), from the top only
    as deep as the highest level's quantile, and solve each block in one
    invert_tables call, holding one block at a time; other models solve each
    (time, level) alone (_position), a closed-form Gaussian certified in closed
    form.  Each position has the bits it has alone.  An empty P or t
    reads nothing and returns an empty array.  Raises InvalidRange for a
    level outside (0, 1) or NaN, and NormBelowP (t_end the first such time)
    where the total norm has decayed to or below a level, before any table
    is built.  A ragged P or t and a non-finite time are an InvalidRange too.
    """
    if isinstance(model, tuple) and not all(isinstance(m, SpectralPacketModel) for m in model):
        return np.stack([quantile_position(m, P, t, tol) for m in model])
    models = model if isinstance(model, tuple) else (model,)
    levels = _levels(P)
    times = _floats(t, "t")
    if not np.isfinite(times).all():
        raise InvalidRange("every time must be finite")
    shape = (len(models),) * isinstance(model, tuple) + times.shape + levels.shape
    if levels.size == 0 or times.size == 0:
        return np.empty(shape)
    ts, top = times.ravel().tolist(), float(levels.max())
    for s, m in itertools.product(ts, models):
        norm = m.norm(s)
        if top >= norm:
            raise NormBelowP(f"requested P = {top} but total norm at "
                             f"t = {s:.6g} is {norm:.12g}", t_end=s)
    if isinstance(models[0], SpectralPacketModel):
        xs = np.concatenate([invert_tables(block, levels, tol).reshape(len(models), -1, levels.size)
                             for block in lockstep_tables([(m, None) for m in models], ts,
                                                          above=top)], axis=1)
    else:
        xs = [[_position(model, p, s, tol) for p in levels.ravel().tolist()] for s in ts]
    return float(np.ravel(xs)[0]) if shape == () else np.reshape(xs, shape)


def _position(model: PacketModel, P: float, t: float, tol: Tolerances) -> float:
    """x with model.tail(x, t) = P: a closed-form Gaussian's c + sigma_x Phi^-1(1 - P / norm) where
    tail straddles P across x -+ (root_abs + 4 eps |x|) / 2, else (or if NaN) Brent's root."""
    if isinstance(model, DissipativeGaussianModel):
        p = model.params
        x = p.center(t) + p.sigma_x(t) * _upper_normal_quantile(P / model.norm(t))
        delta = 0.5 * tol.root_abs + (0.5 * _ROOT_REL) * abs(x)
        if math.isfinite(x) and model.tail(x - delta, t) >= P >= model.tail(x + delta, t):
            return x
    return find_root_monotone(lambda x: model.tail(x, t) - P, model.support_hint(t), tol)


# ---------------------------------------------------------------------------
# Trajectory tracing.
# ---------------------------------------------------------------------------


def _norm_crossing_time(model: PacketModel, P: float, t_lo: float, t_hi: float,
                        tol: Tolerances) -> float:
    """Exact time in [t_lo, t_hi] at which the total norm decays to P."""
    return find_root_monotone(lambda t: model.norm(t) - P, (t_lo, t_hi), tol)


def _one_level(P) -> None:
    """Refuse a P that is not one level in (0, 1): a trajectory follows one."""
    levels = _levels(P)
    if levels.ndim != 0:
        raise InvalidRange(f"a trajectory follows one level P, got shape {levels.shape}")


def _time_grid(t_grid) -> np.ndarray:
    """t_grid as a float array, refused unless 1-d, non-empty, finite and
    strictly increasing."""
    ts = _floats(t_grid, "t_grid")
    if not (ts.ndim == 1 and ts.size and np.isfinite(ts).all() and np.all(np.diff(ts) > 0)):
        raise InvalidRange("t_grid must be a non-empty, finite, strictly increasing 1-d array")
    return ts


def trace_trajectory_cdf(model: PacketModel, P: float, t_grid,
                         tol: Tolerances = DEFAULT_TOL) -> QuantileTrajectory:
    """Trace x_P(t) by inverting the tail probability at each grid time.

    Stops with a norm_below_p termination at the exact crossing time once
    the total norm falls to P; velocities come from quantile_velocity and
    are NaN (with a floor_episodes count) where the density floor is hit.
    Every grid time before the first one whose norm is at or below P is
    inverted in one quantile_position call.
    """
    ts = _time_grid(t_grid)
    _one_level(P)
    n = next((i for i, t in enumerate(ts.tolist()) if model.norm(t) <= P), ts.size)
    if n == 0:
        raise NormBelowP(
            f"norm at the first grid time is already <= P = {P}", t_end=ts[0])
    termination = Termination.completed()
    if n < ts.size:
        termination = Termination.norm_below_p(
            _norm_crossing_time(model, P, ts[n - 1], ts[n], tol))
    xs = quantile_position(model, P, ts[:n], tol)
    vs = []
    floor_episodes = 0
    for t, x in zip(ts[:n], xs.tolist()):
        try:
            vs.append(quantile_velocity(model, x, t))
        except VelocitySingular:
            vs.append(math.nan)
            floor_episodes += 1
    return QuantileTrajectory(P=P, times=ts[:n], positions=xs, velocities=vs,
                              termination=termination, floor_episodes=floor_episodes)


def trace_trajectory_ode(model: PacketModel, P: float, t0: float, t1: float,
                         tol: Tolerances = DEFAULT_TOL, *, t_eval=None,
                         floor_rel: float = DENSITY_FLOOR_REL) -> QuantileTrajectory:
    """Trace x_P(t) by integrating the quantile-velocity field.

    The initial position comes from one CDF inversion at t0.  For lossy
    models the integration horizon is clamped just short of the exact norm
    crossing, which is recorded as the termination time.  With ``t_eval``
    the integration ends at the last sample time at or before that horizon
    (t1 or the clamp), so the path covers [t0, last sample]; a lossy
    trace's termination record still holds the exact crossing beyond it.
    When the density under the quantile falls below the floor
    (interference nodes), a terminal event stops the integration and the
    tracer re-anchors by CDF inversion one skip later, counting the
    episode.  The skip starts at 1e-6 of the span and doubles whenever a
    path stops within one skip of its anchor; a skip that would pass the
    end re-anchors at the end.
    """
    _one_level(P)
    t0 = float(t0)
    t1 = float(t1)
    if not t1 > t0:     # a NaN end would trace nothing
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
    if t_eval is not None:
        # No sample lies past the last one: the path needs no steps there.
        sampled = t_eval[(t_eval > t0) & (t_eval <= t_stop)]
        if sampled.size:
            t_stop = float(sampled.max())

    # The latest rhs call's (t, x, rho - floor), which floor_margin reads at
    # each step end, and the velocity of every segment anchor and step end
    # above the floor, which its sample reuses.
    last, velocities = (), {}

    def rhs(t, y):
        nonlocal last
        x = y.item()
        rho, cur = model.density_and_current(x, t)
        floor = floor_rel * model.peak_density(t)
        v = (cur - model.loss_tail(x, t)) / max(rho, floor)
        last = t, x, rho - floor, v
        if t == t_cur and rho > floor:      # a segment's anchor
            velocities[t, x] = v
        return v

    def floor_margin(t, y):
        x = y.item()
        if last[:2] == (t, x):      # a step end
            if last[2] > 0.0:
                velocities[t, x] = last[3]
            return last[2]
        return model.rho(x, t) - floor_rel * model.peak_density(t)

    x_cur = quantile_position(model, P, t0, tol)
    t_cur = t0
    times = [t0]
    xs = [x_cur]
    floor_episodes = 0
    skip = max(1e-6, 1e-6 * (t1 - t0))

    def record(t, x):
        if t > times[-1] + 1e-13 * max(1.0, abs(t)):
            times.append(float(t))
            xs.append(float(x))

    while t_cur < t_stop:
        anchor = (t_cur, x_cur)
        seg_eval = None
        if t_eval is not None:
            mask = (t_eval > t_cur) & (t_eval <= t_stop)
            seg_eval = np.concatenate(([t_cur], t_eval[mask]))
        try:
            path = integrate_ode(rhs, x_cur, t_cur, t_stop, tol,
                                 stop=floor_margin, t_eval=seg_eval)
        except StepUnderflow as err:
            termination = Termination.velocity_singular(err.t, float(np.atleast_1d(err.x)[0]))
            break
        for tt, state in zip(path.times, path.states):
            record(tt, state[0])
        if path.stop_reason == "completed":
            break
        # Density floor hit: re-anchor by CDF inversion a little later.
        floor_episodes += 1
        if floor_episodes >= _MAX_FLOOR_EPISODES:
            termination = Termination.velocity_singular(path.stop_time,
                                                        float(path.states[-1, 0]))
            break
        if path.stop_time < t_cur + skip:
            skip *= 2.0     # stalled inside the low-density region
        t_cur = min(path.stop_time + skip, t_stop)
        x_cur = quantile_position(model, P, t_cur, tol)
        record(t_cur, x_cur)

    vs = []
    for tt, xx in zip(times, xs):
        v = velocities.get((tt, xx))
        if v is None:
            try:
                v = quantile_velocity(model, xx, tt, floor_rel=floor_rel)
            except VelocitySingular:
                v = math.nan
        vs.append(v)
    return QuantileTrajectory(P=P, times=times, positions=xs, velocities=vs,
                              termination=termination,
                              floor_episodes=floor_episodes)


# ---------------------------------------------------------------------------
# 3D flow maps.
# ---------------------------------------------------------------------------


def sphere_seeds(center, radius: float) -> np.ndarray:
    """26 deterministic points on a sphere: 6 axial, 12 edge, 8 corner."""
    center = np.asarray(center, dtype=float)
    if not (0.0 < radius < math.inf and np.isfinite(center).all()):
        raise InvalidRange(f"need a finite center and a finite positive radius, "
                           f"got radius {radius}")
    # Integer signs and axes: no direction has a -0.0 component.
    signs, eye = (1, -1), np.eye(3, dtype=int)
    axial = [s * eye[i] for i in range(3) for s in signs]
    edge = [(si * eye[i] + sj * eye[(i + 1) % 3]) / math.sqrt(2.0)
            for i in range(3) for si, sj in itertools.product(signs, repeat=2)]
    corner = [np.array(s) / math.sqrt(3.0) for s in itertools.product(signs, repeat=3)]
    return center + radius * np.array(axial + edge + corner)


def trace_flowmap_3d(field: Gaussian3DModel, seeds, t_grid,
                     tol: Tolerances = DEFAULT_TOL) -> FlowMap3D:
    """Advect seed points along the vector velocity field j/rho.

    All seeds travel in one stacked ODE state so they share step control;
    the field is smooth everywhere for Gaussian packets, so no floor logic
    is needed.  P is the probability enclosed by the seed sphere at the
    first grid time (probability_in_volume, in closed form).  The paths are
    integrated, not mapped by the field's known affine flow: that the
    ball they span keeps P is what the 3D conservation check tests.
    """
    seeds = _floats(seeds, "seeds")
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise InvalidRange("seeds must have shape (m, 3)")
    ts = _time_grid(t_grid)
    if ts.size < 2:
        raise InvalidRange("t_grid must have at least two points")

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
    mass, mean radius), and the packet's mass in it is the closed form of
    Gaussian3DModel._ball_mass: exact to rounding for any radius and
    offset, so ``tol`` is not read, and exactly 0 for a zero radius.
    Raises InvalidRange for no points, a non-finite point, radius or time,
    or a 0 or inf sigma_x(t)^2.
    """
    pts = np.asarray(surface_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidRange("surface_points must have shape (m, 3)")
    if not pts.shape[0]:
        raise InvalidRange("surface_points holds no points: an empty cloud spans no ball")
    if not (np.isfinite(pts).all() and math.isfinite(t)):
        raise InvalidRange(f"surface points and time must be finite, got t = {t}")
    center = pts.mean(axis=0)
    radius = float(np.linalg.norm(pts - center, axis=1).mean())
    if not math.isfinite(radius):
        raise InvalidRange("surface points too far apart: their radius overflows")
    return field._ball_mass(center, radius, t)
