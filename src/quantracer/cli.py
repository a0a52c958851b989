"""Command-line front end: presets, scenario config, CSV artifacts, verify.

Subcommands mirror the library surface: ``free``, ``dissipative`` and
``tunnel`` emit trajectory tables, ``delta-p`` emits the two-route tail
deficit report, ``sphere3d`` emits a transported-sphere flow map, and
``verify`` runs the invariant suite.  Each returns its tables and checks;
``main`` writes every table with a JSON run manifest next to it, and
identical configs reproduce output files byte for byte.  Exit codes: 0
success, 1 verification failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import InvalidRange, QuantracerError
from .numerics import Tolerances
from .quantile import (
    probability_in_volume,
    sphere_seeds,
    trace_flowmap_3d,
    trace_trajectory_cdf,
    trace_trajectory_ode,
)
from .tunneling import (
    default_delta_p_grid,
    delta_p_report,
    packet_transmission_probability,
    retardation_scan,
)
from .wavepacket import (
    BarrierSpec,
    DissipativeGaussianModel,
    FreeGaussianModel,
    Gaussian3DModel,
    Gaussian3DParams,
    GaussianPacketParams,
    recommended_node_count,
    scattering_mode,
    spectral_free_model,
    spectral_setup,
    tunneling_packet_model,
)

UNIT_COMMENT = ("# units: hbar = m = 1; positions in hbar/sqrt(eV*m), "
                "times in hbar/eV, energies in eV")

# Size limits checked before anything is allocated: the time grid, the
# Gauss-Legendre k-grid (leggauss builds an n x n companion matrix; 4096
# nodes take about 6 s and 0.3 GB, the auto count reaches it near t_max =
# 825 for the stock packet, sooner where a barrier resonance sits near the
# band) and the least node count of the thickness
# quadrature (its kernels peak at three n x k-node arrays, 97 MiB at
# 512 x 4096, the most the library builds for any barrier).
MAX_TIME_POINTS = 100_000
MAX_K_NODES = 4096
MAX_LAMBDA_NODES = 512

# Smallest P that tunnel and verify's retardation check invert: below it a
# quantile sits where the tail tables carry ~1e-12 absolute error.
MIN_CROSSING_LEVEL = 1e-6

# Packet widths sigma_x0 the CLI accepts.  Outside them sigma_v^2 or
# sigma_x(t)^2 overflows or underflows (1e-160, 1e300), or the support
# hint x_bar +- 10 sigma_x0 collapses to one float (1e-20 at x_bar = -10).
PACKET_WIDTHS = (1e-6, 1e6)

# Velocity widths sigma_v = hbar / (2 mass sigma_x0) the CLI accepts: the 3D
# velocity field squares sigma_v, which overflows above 1.3e154 (mass < 1.5e-155).
VELOCITY_WIDTHS = (1e-150, 1e150)

TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))

# Relative tolerances (quad_rel, ode_rel) the CLI accepts.  Below 100 eps
# tail tables refine to their panel limit (delta-p exits 3 at quad_rel
# 1e-15), and integrate_ode floors its rtol there anyway; above 1 a step
# or panel may keep no correct digit.
RELATIVE_TOLERANCES = (100.0 * sys.float_info.epsilon, 1.0)


class ConfigError(Exception):
    """Scenario configuration rejected before any numerics ran."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors (a bad value, subcommand or preset) raise ConfigError."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat scenario description; precedence preset < config file < flags."""

    x_bar: float = -10.0
    v_bar: float = 2.0
    sigma_x0: float = 2.5
    mass: float = 1.0
    loss_rate: float = 0.1
    barrier_height: float = 10.0
    barrier_halfwidth: float = 0.3
    p_list: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)
    t_max: float = 20.0
    t_step: float = 0.5
    delta_x: tuple = ()
    delta_t: tuple = ()
    n_lambda: int = 32
    k_nodes: int = 0
    snapshot_times: tuple = ()
    center: tuple = (0.0, 0.0, 0.0)
    velocity: tuple = (2.0, 0.0, 0.0)
    radius: float = 2.5
    quad_rel: float = 1e-9
    quad_abs: float = 1e-12
    root_abs: float = 1e-10
    ode_rel: float = 1e-8
    ode_abs: float = 1e-10
    quick: bool = False
    out: str = ""


PRESETS = {
    "fig1": {
        "x_bar": -10.0, "v_bar": 2.0, "sigma_x0": 2.5, "loss_rate": 0.1,
        "p_list": (0.1, 0.3, 0.5, 0.7, 0.9), "t_max": 20.0, "t_step": 0.5,
    },
    "fig2": {
        "x_bar": -10.0, "v_bar": 2.0, "sigma_x0": 2.5,
        "barrier_height": 10.0, "barrier_halfwidth": 0.3,
        # Four levels below the transmitted fraction (0.0216) cross the
        # barrier and give the retardation check something to compare.
        "p_list": (0.005, 0.01, 0.015, 0.02)
                  + tuple(float(f"{0.1 + 0.05 * i:.2f}") for i in range(13)),
        "t_max": 10.0, "t_step": 0.5,
    },
    "fig3": {
        "sigma_x0": 2.5, "center": (0.0, 0.0, 0.0), "velocity": (2.0, 0.0, 0.0),
        "radius": 2.5, "t_max": 10.0, "t_step": 1.0,
    },
}

DEFAULT_OUT = {
    "free": "free_trajectories.csv",
    "dissipative": "dissipative_trajectories.csv",
    "tunnel": "tunnel_trajectories.csv",
    "delta-p": "delta_p_report.csv",
    "sphere3d": "sphere3d_flowmap.csv",
    "verify": "verify_report.csv",
}


def _parse_float_tuple(text: str) -> tuple:
    parts = [p for chunk in str(text).split(",") for p in chunk.split()]
    try:
        return tuple(float(p) for p in parts if p)
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


def _coerce(name: str, default, raw: str):
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a number, got {raw!r}") from exc
    if isinstance(default, tuple):
        return _parse_float_tuple(raw)
    return raw


def load_config_file(path: str) -> dict:
    """Flat key = value text; '#' comments and blank lines are ignored."""
    known = {f.name: f.default for f in fields(ScenarioConfig)}
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, known[key], raw.strip())
    return values


def validate_config(cfg: ScenarioConfig) -> None:
    lo, hi = RELATIVE_TOLERANCES
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if f.name in TOLERANCE_KEYS and not value > 0.0:
            raise ConfigError(f"{f.name} must be positive, got {value!r}")
        if f.name in ("quad_rel", "ode_rel") and not lo <= value <= hi:
            raise ConfigError(f"{f.name} = {value:g} is outside the relative-tolerance "
                              f"range [{lo:.3g}, {hi:g}]")
    if cfg.t_step <= 0.0:
        raise ConfigError("t_step must be positive")
    if cfg.t_max < cfg.t_step:
        raise ConfigError("t_max must be at least one t_step")
    if cfg.sigma_x0 <= 0.0 or cfg.mass <= 0.0:
        raise ConfigError("sigma_x0 and mass must be positive")
    if not PACKET_WIDTHS[0] <= cfg.sigma_x0 <= PACKET_WIDTHS[1]:
        raise ConfigError(f"sigma_x0 = {cfg.sigma_x0:g} is outside the packet-width range "
                          f"[{PACKET_WIDTHS[0]:g}, {PACKET_WIDTHS[1]:g}]")
    sigma_v = _packet(cfg).sigma_v
    if not VELOCITY_WIDTHS[0] <= sigma_v <= VELOCITY_WIDTHS[1]:
        raise ConfigError(f"mass = {cfg.mass:g} gives the velocity width sigma_v = {sigma_v:.3g}, "
                          f"outside [{VELOCITY_WIDTHS[0]:g}, {VELOCITY_WIDTHS[1]:g}]")
    if cfg.loss_rate < 0.0:
        raise ConfigError("lambda (loss rate) must be nonnegative")
    if cfg.barrier_height < 0.0 or cfg.barrier_halfwidth <= 0.0:
        raise ConfigError("barrier height must be >= 0 and half-width > 0")
    if cfg.p_list:
        if any(not (0.0 < p < 1.0) for p in cfg.p_list):
            raise ConfigError("P values must lie strictly between 0 and 1")
        if any(b <= a for a, b in zip(cfg.p_list, cfg.p_list[1:])):
            raise ConfigError("P list must be strictly increasing")
    if len(cfg.center) != 3 or len(cfg.velocity) != 3:
        raise ConfigError("center and velocity must have three components")
    if cfg.radius <= 0.0:
        raise ConfigError("radius must be positive")
    if not 16 <= cfg.n_lambda <= MAX_LAMBDA_NODES:
        raise ConfigError(f"n_lambda must be in [16, {MAX_LAMBDA_NODES}]")
    if cfg.k_nodes and not 64 <= cfg.k_nodes <= MAX_K_NODES:
        raise ConfigError(f"k_nodes must be 0 (auto) or in [64, {MAX_K_NODES}]")
    if any(t < 0.0 for t in cfg.snapshot_times):
        raise ConfigError("snapshot times must be nonnegative")


def _tolerances(cfg: ScenarioConfig) -> Tolerances:
    return Tolerances(**{key: getattr(cfg, key) for key in TOLERANCE_KEYS})


def _packet(cfg: ScenarioConfig) -> GaussianPacketParams:
    return GaussianPacketParams(x_bar=cfg.x_bar, v_bar=cfg.v_bar,
                                sigma_x0=cfg.sigma_x0, mass=cfg.mass)


def _time_grid(cfg: ScenarioConfig) -> np.ndarray:
    steps = cfg.t_max / cfg.t_step + 1e-9     # may overflow to inf
    if not steps < MAX_TIME_POINTS:
        raise ConfigError(f"t_max / t_step gives {steps + 1.0:.6g} "
                          f"grid times, above the limit {MAX_TIME_POINTS}")
    count = int(math.floor(steps))
    return np.linspace(0.0, count * cfg.t_step, count + 1)


def _spectral_pair(cfg: ScenarioConfig, tol: Tolerances):
    """(free, tunneling) models on one k-grid, sized once for times up to
    cfg.t_max and for the barrier's resonances."""
    packet = _packet(cfg)
    barrier = BarrierSpec(cfg.barrier_height, cfg.barrier_halfwidth)
    n_nodes = cfg.k_nodes
    if not n_nodes:
        try:
            n_nodes = recommended_node_count(packet.k_bar, packet.sigma_k, packet.x_bar,
                                             cfg.t_max, mass=packet.mass, barrier=barrier)
        except InvalidRange:        # more nodes than a float can count
            n_nodes = math.inf
        if n_nodes > MAX_K_NODES:
            raise ConfigError(f"times up to {cfg.t_max:g} need {n_nodes:.3g} wave-number nodes "
                              f"for this packet and barrier, above the limit {MAX_K_NODES}")
    spectrum, grid = spectral_setup(packet, cfg.t_max, n_nodes=n_nodes)
    return (spectral_free_model(spectrum, grid, mass=cfg.mass, tol=tol),
            tunneling_packet_model(spectrum, barrier, grid, mass=cfg.mass, tol=tol))


# ---------------------------------------------------------------------------
# CSV and manifest emission

def _fmt(value) -> str:
    if isinstance(value, float):    # most cells, np.float64 among them
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        # Keep the files naive-split parseable.
        return value.replace(",", ";")
    return format(float(value), ".17g")


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(UNIT_COMMENT + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _manifest_path(data_path: Path) -> Path:
    return Path(str(data_path) + ".manifest.json")


def write_manifest(data_path: Path, command: str, cfg: ScenarioConfig,
                   checks: list, wall_clock: float) -> Path:
    config_echo = {}
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        config_echo[f.name] = list(value) if isinstance(value, tuple) else value
    manifest = {
        "command": command,
        "config": config_echo,
        "units": UNIT_COMMENT.lstrip("# "),
        "tolerances": {key: getattr(cfg, key) for key in TOLERANCE_KEYS},
        "wall_clock_s": round(wall_clock, 3),
        "versions": {
            "quantracer": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
        },
        "checks": [{"name": n, "passed": bool(p), "detail": d}
                   for n, p, d in checks],
    }
    path = _manifest_path(data_path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# trajectory table shared by free / dissipative

def _trace_table(model, p_list, times, tol):
    """Rows (P, t, x_cdf, v_cdf, x_ode, v_ode, discrepancy, status).

    A trajectory that ends before the last grid time gets one trailing
    sentinel row carrying the exact termination time and kind; positions
    have no finite value there.  The worst gap is NaN when any gap is.
    """
    rows, gaps = [], []
    for P in p_list:
        cdf = trace_trajectory_cdf(model, P, times, tol)
        ode = trace_trajectory_ode(model, P, float(times[0]), float(times[-1]),
                                   tol, t_eval=times)
        ode_at = {t: (x, v) for t, x, v in
                  zip(ode.times.tolist(), ode.positions.tolist(),
                      ode.velocities.tolist())}
        for t, x, v in zip(cdf.times.tolist(), cdf.positions.tolist(),
                           cdf.velocities.tolist()):
            status = "density_floor" if math.isnan(v) else "ok"
            if t in ode_at:
                xo, vo = ode_at[t]
                gap = abs(x - xo)
                gaps.append(gap)
                rows.append((P, t, x, v, xo, vo, gap, status))
            else:
                rows.append((P, t, x, v, "", "", "", status))
        if cdf.termination.kind != "completed":
            rows.append((P, cdf.termination.time, "", "", "", "", "",
                         cdf.termination.kind))
    return rows, float(np.max(gaps, initial=0.0))


TRAJECTORY_HEADER = ["P", "t", "x_cdf", "v_cdf", "x_ode", "v_ode",
                     "discrepancy", "status"]


def cmd_trajectories(cfg: ScenarioConfig, command: str) -> tuple[list, list]:
    """``free`` or ``dissipative``: CDF and ODE trajectories side by side."""
    if not cfg.p_list:
        raise ConfigError("P list must not be empty")
    packet = _packet(cfg)
    lossy = command == "dissipative"
    model = (DissipativeGaussianModel(packet, cfg.loss_rate) if lossy
             else FreeGaussianModel(packet))
    rows, worst_gap = _trace_table(model, cfg.p_list, _time_grid(cfg),
                                   _tolerances(cfg))
    checks = [("method_equivalence", worst_gap <= 1e-5,
               f"max |x_cdf - x_ode| = {worst_gap:.3e}")]
    if lossy and cfg.loss_rate > 0.0:
        expected = {P: -math.log(P) / cfg.loss_rate for P in cfg.p_list}
        seen = {row[0]: row[1] for row in rows if row[-1] == "norm_below_p"}
        worst = float(np.max([abs(seen[P] - expected[P]) for P in seen],
                             initial=0.0))
        detail = f"{len(seen)}/{len(cfg.p_list)} terminated, worst |dt_end| = {worst:.3e}"
        ok = worst <= 1e-6 and all(
            P in seen for P in cfg.p_list if expected[P] <= cfg.t_max)
        checks.append(("termination_time", ok, detail))
    return [("", TRAJECTORY_HEADER, rows)], checks


def cmd_tunnel(cfg: ScenarioConfig) -> tuple[list, list]:
    if not cfg.p_list:
        raise ConfigError("P list must not be empty")
    if min(cfg.p_list) < MIN_CROSSING_LEVEL:
        raise ConfigError(f"tunnel P values must be at least MIN_CROSSING_LEVEL = "
                          f"{MIN_CROSSING_LEVEL:g}, got {min(cfg.p_list):g}")
    tol = _tolerances(cfg)
    # The wave-number grid must resolve the latest snapshot, not only t_max.
    free, tunnel = _spectral_pair(replace(cfg, t_max=max((cfg.t_max, *cfg.snapshot_times))), tol)
    verdicts = retardation_scan(free, tunnel, cfg.p_list, _time_grid(cfg),
                                tol=tol)
    rows = [(v.P, *row) for v in verdicts for row in
            zip(v.times.tolist(), v.x_tunnel.tolist(), v.x_free.tolist(),
                (v.x_free - v.x_tunnel).tolist())]
    checked = sum(v.checked for v in verdicts)
    min_lag_beyond = -max(v.worst_margin for v in verdicts)
    min_lag_all = -max(v.worst_margin_all for v in verdicts)
    transmitted = packet_transmission_probability(tunnel.spectrum, tunnel.barrier,
                                                  tunnel.grid, mass=cfg.mass)
    checks = [
        ("retardation_beyond_edge", all(v.ok for v in verdicts),
         f"{checked} beyond-edge comparisons, min lag beyond barrier edge = "
         f"{min_lag_beyond:.3e}"),
        ("min_lag_all", True,
         f"min lag over all rows = {min_lag_all:.3e} (diagnostic: pile-up in "
         "front of the barrier may lead transiently)"),
        ("packet_transmission", True,
         f"transmitted fraction = {transmitted:.9f}; quantiles with P below "
         "this cross the barrier"),
    ]
    tables = []
    if cfg.snapshot_times:
        density_rows = []
        for t in cfg.snapshot_times:
            lo, hi = tunnel._reach(t)     # fixed by the packet, not by the panel lattice
            xs = np.linspace(lo, hi, 1001)
            dens = tunnel.rho(xs, t)
            density_rows.extend((t, x, r) for x, r in zip(xs, dens))
            mass = tunnel.interval_mass(lo, hi, t)
            checks.append((f"snapshot_mass_t{t:g}", abs(mass - 1.0) <= 1e-6,
                           f"density block integrates to {mass:.12f}"))
        tables.append(("_density", ["t", "x", "rho"], density_rows))
    tables.append(("", ["P", "t", "x_tunnel", "x_free", "lag"], rows))
    return tables, checks


def cmd_delta_p(cfg: ScenarioConfig) -> tuple[list, list]:
    if any(x <= cfg.barrier_halfwidth for x in cfg.delta_x):
        raise ConfigError("delta_x values must lie beyond the barrier edge")
    times = list(cfg.delta_t) or default_delta_p_grid(
        BarrierSpec(cfg.barrier_height, cfg.barrier_halfwidth))[1].tolist()
    # The wave-number grid must resolve the latest report time, not only t_max.
    free, tunnel = _spectral_pair(replace(cfg, t_max=max(cfg.t_max, *times)),
                                  _tolerances(cfg))
    report = delta_p_report(free, tunnel, list(cfg.delta_x) or None, times,
                            n_lambda=cfg.n_lambda)
    rows = [(x, t, d, t1, t2, t3, tot, rel, ok)
            for (x, t), d, t1, t2, t3, tot, rel, ok in
            zip(report.grid, report.dp_direct, report.dp_term1,
                report.dp_term2, report.dp_term3, report.dp_total,
                report.agreement_rel, report.positivity_ok)]
    agree = report.agreement_ok()
    checks = [
        ("positivity", report.all_positive,
         f"min dp_direct = {float(np.min(report.dp_direct)):.3e}"),
        ("route_agreement", bool(agree.all()),
         f"{int(agree.sum())}/{agree.size} points within 1% or 1e-6"),
    ]
    return [("", ["x", "t", "dp_direct", "term1", "term2", "term3",
                  "dp_total", "agreement_rel", "positivity_ok"], rows)], checks


def cmd_sphere3d(cfg: ScenarioConfig) -> tuple[list, list]:
    tol = _tolerances(cfg)
    params = Gaussian3DParams(center=cfg.center, velocity=cfg.velocity,
                              sigma_x0=cfg.sigma_x0, mass=cfg.mass)
    field = Gaussian3DModel(params)
    seeds = sphere_seeds(cfg.center, cfg.radius)
    times = _time_grid(cfg)
    width = field.sigma_x(times[-1])   # rho cubes it and the velocity field squares it
    if not width <= 1e100:
        raise ConfigError(f"t_max = {cfg.t_max:g} spreads the 3D packet to {width:.3g} > 1e100")
    flow = trace_flowmap_3d(field, seeds, times, tol)
    enclosed = [probability_in_volume(field, flow.points_at(i), float(t), tol)
                for i, t in enumerate(flow.times)]
    rows = [(s, t, *flow.paths[s, i], enclosed[i])
            for s in range(flow.paths.shape[0]) for i, t in enumerate(flow.times)]
    spread = float(np.max(enclosed) - np.min(enclosed))
    checks = [("conservation_3d", spread <= 1e-4,
               f"enclosed probability spread = {spread:.3e} "
               f"(P = {flow.P:.6f})")]
    return [("", ["seed_id", "t", "x", "y", "z", "enclosed_p"], rows)], checks


# ---------------------------------------------------------------------------
# verification suite

class _CurrentFlipped:
    """Harness fault for verify: reports the probability current negated."""

    def __init__(self, model):
        self._model = model

    def rho(self, x, t):
        return self._model.rho(x, t)

    def current(self, x, t):
        return -np.asarray(self._model.current(x, t))


def _verify_pair(cfg: ScenarioConfig, tol: Tolerances):
    """(free, tunneling, transmitted fraction) that verify's spectral checks
    share, sized for t = 8, the latest time they read."""
    free, tunnel = _spectral_pair(replace(cfg, t_max=8.0), tol)
    return free, tunnel, packet_transmission_probability(
        tunnel.spectrum, tunnel.barrier, tunnel.grid, mass=cfg.mass)


def _check_method_equivalence(cfg: ScenarioConfig, tol: Tolerances, pair):
    quick = cfg.quick
    packet = _packet(cfg)
    analytic = np.linspace(0.0, 5.0 if quick else 10.0, 6 if quick else 21)
    cases = [(FreeGaussianModel(packet), (0.5,) if quick else (0.3, 0.7), analytic),
             (DissipativeGaussianModel(packet, cfg.loss_rate or 0.1), (0.5,), analytic),
             (pair[1], (0.3,),
              np.linspace(0.0, 3.0 if quick else 6.0, 7 if quick else 13))]
    worst = float(np.max([_trace_table(model, p_values, times, tol)[1]
                          for model, p_values, times in cases]))
    return worst <= 1e-5, f"max |x_cdf - x_ode| = {worst:.3e}"


def _check_unitarity(cfg: ScenarioConfig, tol: Tolerances):
    rng = np.random.default_rng(20260814)
    count = 25 if cfg.quick else 100
    defects = []
    for _ in range(count):
        mode = scattering_mode(rng.uniform(0.2, 6.0), BarrierSpec(
            height=rng.uniform(0.0, 20.0), half_width=rng.uniform(0.05, 1.0)))
        defects.append(abs(abs(mode.T) ** 2 + abs(mode.R) ** 2 - 1.0))
    worst = float(np.max(defects))
    return worst <= 1e-12, f"max ||T|^2 + |R|^2 - 1| = {worst:.3e} ({count} modes)"


def _check_continuity(cfg: ScenarioConfig, pair, inject_fault: str):
    tunnel = pair[1]
    model = _CurrentFlipped(tunnel) if inject_fault == "flip-current" else tunnel
    d = 1e-4
    t_values = (4.0,) if cfg.quick else (2.0, 5.0)
    residuals = []
    for t in t_values:
        xs = np.linspace(-12.0, 6.0, 21 if cfg.quick else 41)
        drho_dt = (model.rho(xs, t + d) - model.rho(xs, t - d)) / (2 * d)
        dj_dx = (model.current(xs + d, t) - model.current(xs - d, t)) / (2 * d)
        scale = float(np.max(np.abs(dj_dx)))
        residuals.append(float(np.max(np.abs(drho_dt + dj_dx))) / scale)
    worst = float(np.max(residuals))
    return worst <= 1e-4, f"max residual = {worst:.3e} of local scale"


def _check_retardation(cfg: ScenarioConfig, tol: Tolerances, pair):
    # Quantiles below the transmitted fraction T cross the edge late, around
    # t = 7.5 for the default packet, so the scan must reach past that.  A
    # barrier with T below MIN_CROSSING_LEVEL lets no invertible level
    # through and passes vacuously, with 0 comparisons in its detail.
    free, tunnel, transmitted = pair
    fractions = (0.9,) if cfg.quick else (0.45, 0.9)
    crossing = [f * transmitted for f in fractions
                if f * transmitted >= MIN_CROSSING_LEVEL]
    p_values = [*crossing, *(() if cfg.quick else (0.3,))]
    times = np.linspace(0.0, 8.0, 5 if cfg.quick else 9)
    verdicts = retardation_scan(free, tunnel, p_values, times, tol=tol)
    ok = all(v.ok for v in verdicts)
    checked = sum(v.checked for v in verdicts)
    worst = max((v.worst_margin for v in verdicts if v.checked), default=-math.inf)
    return ok and (checked > 0 or not crossing), (
        f"{checked} beyond-edge comparisons at P = "
        f"{', '.join(f'{P:.4g}' for P in p_values) or 'none'}, transmitted fraction "
        f"T = {transmitted:.3e}, worst margin = {worst:.3e}")


def _check_delta_p(cfg: ScenarioConfig, pair):
    free, tunnel, _ = pair
    a = cfg.barrier_halfwidth
    xs = [a + 0.7] if cfg.quick else [a + 0.2, a + 2.6]
    ts = [6.0] if cfg.quick else [3.0, 8.0]
    report = delta_p_report(free, tunnel, xs, ts, n_lambda=cfg.n_lambda)
    ok = report.all_positive and bool(report.agreement_ok().all())
    return ok, (f"{len(report.grid)} points, worst |direct - total| = "
                f"{np.max(report.agreement_share()):.3e} of max(1% |direct|, 1e-6)")


def _check_conservation_3d(cfg: ScenarioConfig):
    sphere = replace(cfg, center=(0.0, 0.0, 0.0), velocity=(2.0, 0.0, 0.0),
                     radius=3.0 * cfg.sigma_x0, t_max=4.0 if cfg.quick else 10.0,
                     t_step=4.0 if cfg.quick else 5.0)
    _, [(_, passed, detail)] = cmd_sphere3d(sphere)
    return passed, detail


def _check_trajectory_roundtrip(cfg: ScenarioConfig, tol: Tolerances, pair):
    packet = _packet(cfg)
    t_max = 4.0 if cfg.quick else 8.0
    _, tunnel, transmitted = pair
    # One spectral level that crosses the barrier and one that reflects,
    # kept inside (0, 1) for a barrier that passes or stops everything.
    levels = np.clip([0.5 * transmitted, 0.5 * (1.0 + transmitted)], 0.01, 0.99)
    cases = [(FreeGaussianModel(packet), (0.3, 0.7)),
             (DissipativeGaussianModel(packet, cfg.loss_rate or 0.1), (0.3, 0.7)),
             (tunnel, levels.tolist())]
    times = np.linspace(0.0, t_max, 5 if cfg.quick else 17)
    rows = []
    for model, levels in cases:
        for P in levels:
            traj = trace_trajectory_cdf(model, P, times, tol)
            rows.extend((model, P, t, x) for t, x in
                        zip(traj.times.tolist(), traj.positions.tolist()))
    stride = max(1, len(rows) // 100)
    worst = float(np.max([abs(model.tail(x, t) - P)
                          for model, P, t, x in rows[::stride]], initial=0.0))
    return worst <= 1e-6, (f"{len(rows[::stride])}/{len(rows)} rows "
                           f"re-inverted, worst |tail - P| = {worst:.3e}")


def cmd_verify(cfg: ScenarioConfig, inject_fault: str) -> tuple[list, list]:
    tol = _tolerances(cfg)
    # The spectral checks share one pair, built on first use; a failed
    # build fails each check that needs it, and a ConfigError ends the run.
    pair = functools.cache(lambda: _verify_pair(cfg, tol))
    suite = [
        ("method_equivalence", lambda: _check_method_equivalence(cfg, tol, pair())),
        ("unitarity", lambda: _check_unitarity(cfg, tol)),
        ("continuity", lambda: _check_continuity(cfg, pair(), inject_fault)),
        ("retardation", lambda: _check_retardation(cfg, tol, pair())),
        ("delta_p_agreement", lambda: _check_delta_p(cfg, pair())),
        ("conservation_3d", lambda: _check_conservation_3d(cfg)),
        ("trajectory_roundtrip", lambda: _check_trajectory_roundtrip(cfg, tol, pair())),
    ]
    checks = []
    for name, fn in suite:
        try:
            passed, detail = fn()
        except ConfigError:        # an oversized grid ends the run (exit 2)
            raise
        except Exception as exc:   # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append((name, passed, detail))
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return [("", ["check", "passed", "detail"], checks)], checks


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quantracer",
        description="Quantile trajectories for time-dependent densities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("free", "free Gaussian packet trajectories"),
        ("dissipative", "trajectories with uniform probability loss"),
        ("tunnel", "tunneling vs free quantile trajectories"),
        ("delta-p", "two-route tail-deficit report beyond the barrier"),
        ("sphere3d", "transported-sphere flow map for the 3D packet"),
        ("verify", "run the invariant suite"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--p-list", help="comma-separated quantile levels")
        p.add_argument("--t-max", type=float)
        p.add_argument("--t-step", type=float)
        p.add_argument("--lambda", dest="loss_rate", type=float,
                       help="uniform loss rate")
        p.add_argument("--barrier-height", type=float)
        p.add_argument("--barrier-halfwidth", type=float)
        p.add_argument("--k-nodes", type=int,
                       help="wave-number nodes (0 = auto)")
        p.add_argument("--quick", action="store_true",
                       help="reduced grids for verify")
        if name == "tunnel":
            p.add_argument("--snapshot-times",
                           help="comma-separated density snapshot times")
        if name == "delta-p":
            p.add_argument("--n-lambda", type=int,
                           help="least thickness-quadrature node count (>= 16)")
        if name == "verify":
            p.add_argument("--inject-fault", choices=["flip-current"],
                           default="", help="harness sanity fault")
    return parser


# main's parser, built once per process; build_parser gives a fresh one.
_parser = functools.cache(build_parser)


_FLAG_FIELDS = ("out", "p_list", "t_max", "t_step", "loss_rate",
                "barrier_height", "barrier_halfwidth", "k_nodes",
                "snapshot_times", "n_lambda")


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    values = {}
    if args.preset:
        values.update(PRESETS[args.preset])
    if args.config:
        values.update(load_config_file(args.config))
    for name in _FLAG_FIELDS:
        raw = getattr(args, name, None)
        if raw is None:
            continue
        if name in ("p_list", "snapshot_times"):
            values[name] = _parse_float_tuple(raw)
        else:
            values[name] = raw
    if getattr(args, "quick", False):
        values["quick"] = True
    cfg = ScenarioConfig(**values)
    validate_config(cfg)
    return cfg


def _fail(message: str, code: int) -> int:
    """Print message as one stderr line (a newline in a path or value is
    escaped) and return the exit code."""
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = resolve_config(args)
    except ConfigError as exc:
        return _fail(f"configuration error: {exc}", 2)
    command = {
        "free": lambda: cmd_trajectories(cfg, "free"),
        "dissipative": lambda: cmd_trajectories(cfg, "dissipative"),
        "tunnel": lambda: cmd_tunnel(cfg),
        "delta-p": lambda: cmd_delta_p(cfg),
        "sphere3d": lambda: cmd_sphere3d(cfg),
        "verify": lambda: cmd_verify(cfg, args.inject_fault),
    }[args.command]
    started = time.perf_counter()
    # Overflow and NaN surface as the one-line failures below (a NaN root
    # function raises NonConvergence), not as floating-point warnings.
    try:
        with np.errstate(all="ignore"):
            tables, checks = command()
    except ConfigError as exc:
        return _fail(f"configuration error: {exc}", 2)
    except QuantracerError as exc:
        return _fail(f"numerical failure: {type(exc).__name__}: {exc}", 3)
    # A run that ends in exit 2 or 3 writes nothing: every output path is
    # checked before the first write.
    out = Path(cfg.out or DEFAULT_OUT[args.command])
    paths = [out.parent / (out.stem + suffix + out.suffix) for suffix, _, _ in tables]
    for path in paths + [_manifest_path(path) for path in paths]:
        if path.is_dir() or not path.parent.is_dir():
            return _fail(f"configuration error: cannot write {path}: it is a "
                         "directory or its directory is missing", 2)
    for path, (suffix, header, rows) in zip(paths, tables):
        try:
            write_csv(path, header, rows)
            write_manifest(path, args.command, cfg, checks,
                           time.perf_counter() - started)
        except OSError as exc:   # a read-only file or directory, a full disk, ...
            return _fail(f"configuration error: cannot write {path}: "
                         f"{exc.strerror or exc}", 2)
        if args.command != "verify":
            print(f"wrote {len(rows)} {(suffix[1:] + ' rows').lstrip()} to {path}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    if args.command == "verify":
        print(f"all {len(checks)} checks passed ({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
