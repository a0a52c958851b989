"""The benchmark's three seeded workloads and the checks on their outputs.

Each workload draws its inputs from the seed alone; the stock packet
(x_bar = -10, v_bar = 2, sigma_x = 2.5) and barrier (10 eV, half-width
0.3) stay fixed.  ``parts`` split the fixed work (a rep) into pieces of a
few seconds at most, each called through the public API the way a user
calls it and timed on its own; ``check(i, result)`` runs outside the timed
region and returns how many operations of part ``i`` failed and the
largest measured error over acceptance tolerance (``tol_used``).  The
tolerances are the acceptance ones from the test suite and the CLI checks,
not new ones.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

T_MAX = 10.0

# Acceptance tolerances (tests/test_acceptance.py, cli verify checks).
LAG_TOL = 1e-5            # criterion 4: tunneled quantile may not lead by more
ROUNDTRIP_TOL = 1e-6      # verify trajectory_roundtrip: |tail(x_P, t) - P|
POSITIVITY_TOL = 1e-6     # delta_p_report positivity_tolerance
AGREE_REL, AGREE_ABS = 1e-2, 1e-6   # criterion 5: route agreement
EQUIV_TOL = 1e-5          # criterion 2: |x_cdf - x_ode|
TERMINATION_TOL = 1e-6    # criterion 3: |t_end - (-ln P / lambda)|
CONSERVATION_TOL = 1e-4   # criterion 9: enclosed probability spread
ODE_TAIL_TOL = 1e-5       # tunneling ODE end point: |tail(x_end, t_end) - P|


@dataclass
class Models:
    free: object
    tunnel: object
    transmitted: float


def build_models(q) -> Models:
    """The stock spectral pair on the auto grid for t in [0, 10]."""
    spectrum, grid = q.spectral_setup(q.DEFAULT_PACKET, t_max=T_MAX)
    return Models(
        free=q.spectral_free_model(spectrum, grid),
        tunnel=q.tunneling_packet_model(spectrum, q.DEFAULT_BARRIER, grid),
        transmitted=q.packet_transmission_probability(spectrum, q.DEFAULT_BARRIER, grid))


@dataclass
class Part:
    """One timed piece of a rep: ``call()`` does ``ops`` operations."""

    call: object
    ops: int


@dataclass
class Outcome:
    """Checked result of one rep: ``failed`` of ``attempted`` operations."""

    attempted: int
    failed: int = 0
    tol_used: float = 0.0
    problems: list = field(default_factory=list)

    def ratio(self, error: float, tolerance: float) -> None:
        self.tol_used = max(self.tol_used, max(0.0, float(error)) / tolerance)


def _strata(rng, lo: float, hi: float, count: int) -> list:
    """One uniform draw in each of ``count`` equal slices of [lo, hi), so
    every seed spreads its levels over the range the same way and the
    work per rep moves less between seeds."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges, edges[1:])]


class Retardation:
    """retardation_scan over four seeded P levels: two below the transmitted
    fraction (their quantiles cross the barrier, so the certificate compares
    something) and two that reflect.  Operation and part: one P level, one
    retardation_scan call each (the scan treats its levels independently,
    so four one-level calls do the work of one four-level call)."""

    name = "retardation"

    def __init__(self, q, models: Models, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.q, self.m = q, models
        self.p_levels = _strata(rng, 0.005, 0.02, 2) + _strata(rng, 0.2, 0.8, 2)
        self.times = np.linspace(0.0, T_MAX, 21)   # t = 0..10 step 0.5
        self.parts = [Part(functools.partial(self._scan, P), 1) for P in self.p_levels]
        # Re-inversion sample: two grid times per level, on both models.
        self.sample = [(i, float(t)) for i in range(len(self.p_levels))
                       for t in rng.choice(self.times, 2, replace=False)]
        self._sample_failed: set = set()
        self._sample_ratio = 0.0

    def prepare(self) -> None:
        """Re-invert the seeded sample once; it also loads brentq before timing."""
        for i, t in self.sample:
            P = self.p_levels[i]
            for model in (self.m.free, self.m.tunnel):
                try:
                    x = self.q.quantile_position(model, P, t)
                    err = abs(model.tail(x, t) - P)
                except Exception:   # a raise fails the level's check
                    self._sample_failed.add(i)
                    continue
                self._sample_ratio = max(self._sample_ratio, err / ROUNDTRIP_TOL)
                if not err <= ROUNDTRIP_TOL:
                    self._sample_failed.add(i)

    def _scan(self, P: float):
        return self.q.retardation_scan(self.m.free, self.m.tunnel, [P], self.times)

    def check(self, i: int, verdicts) -> Outcome:
        P = self.p_levels[i]
        out = Outcome(1)
        out.tol_used = self._sample_ratio
        if len(verdicts) != 1:
            out.failed = 1
            out.problems.append(f"P={P:.6g}: {len(verdicts)} verdicts for one level")
            return out
        v = verdicts[0]
        bad = []
        if not v.ok:
            bad.append(f"worst margin {v.worst_margin:.3e}")
        if P < self.m.transmitted and v.checked == 0:
            bad.append("no beyond-edge comparison below the transmitted fraction")
        if i in self._sample_failed:
            bad.append(f"re-inversion above {ROUNDTRIP_TOL}")
        if v.checked:
            out.ratio(v.worst_margin, LAG_TOL)
        if bad:
            out.failed = 1
            out.problems.append(f"P={P:.6g}: " + "; ".join(bad))
        return out


class DeltaP:
    """delta_p_report on a seeded 12 x 11 (x, t) grid beyond the barrier,
    in three parts of four x values each (the report treats its points
    independently).  Operation: one grid point."""

    name = "delta-p"

    def __init__(self, q, models: Models, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        a = q.DEFAULT_BARRIER.half_width
        # x in (a + 0.2, a + 5], t in [0, 10), one draw in each of 12 (x) and
        # 11 (t) equal slices: with plain uniform draws the field work of a
        # rep moved by +-13 % between seeds.
        self.xs = a + 5.0 - np.array(_strata(rng, 0.0, 4.8, 12))[::-1]
        self.ts = np.array(_strata(rng, 0.0, T_MAX, 11))
        self.q, self.m = q, models
        self.parts = [Part(functools.partial(self._report, xs), xs.size * self.ts.size)
                      for xs in np.split(self.xs, 3)]

    def prepare(self) -> None:
        pass

    def _report(self, xs):
        return self.q.delta_p_report(self.m.free, self.m.tunnel,
                                     x_values=xs, t_values=self.ts)

    def check(self, i: int, report) -> Outcome:
        ops = self.parts[i].ops
        out = Outcome(ops)
        if len(report.grid) != ops:
            out.failed = ops
            out.problems.append(f"{len(report.grid)} points for {ops}")
            return out
        agree = report.agreement_ok(rel=AGREE_REL, abs_floor=AGREE_ABS)
        terms_ok = ((report.dp_term1 >= 0.0) & (report.dp_term2 >= 0.0)
                    & (report.dp_term3 >= 0.0))
        good = agree & report.positivity_ok & terms_ok
        out.failed = int(np.count_nonzero(~good))
        gap = np.abs(report.dp_direct - report.dp_total)
        allowed = np.maximum(AGREE_REL * np.abs(report.dp_direct), AGREE_ABS)
        out.ratio(float(np.max(gap / allowed)), 1.0)
        out.ratio(float(np.max(-report.dp_direct)), POSITIVITY_TOL)
        for (x, t), ok in zip(report.grid, good):
            if not ok:
                out.problems.append(f"point x={x:.6g}, t={t:.6g} failed")
        return out


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


class OdeTrace:
    """In-process CLI runs (free fig1, dissipative fig1 with a seeded P list,
    sphere3d fig3) plus trace_trajectory_ode on the stock tunneling packet
    at two seeded P below the transmitted fraction and two above.
    Operation and part: one CLI command or one ODE trajectory."""

    name = "ode-trace"
    LOSS_RATE = 0.1   # fig1 preset

    def __init__(self, q, models: Models, seed: int, workdir: Path):
        from quantracer import cli
        rng = np.random.default_rng([seed, 3])
        # A level whose termination time -ln(P)/lambda falls just after a
        # grid time (fig1: step 0.5) is skipped: there x_P dives at up to
        # 200 length units per time unit and the CLI's 1e-5 CDF/ODE
        # position check fails (P = 0.67: t_end = 4.005, gap 2.1e-5).
        # BASELINE.md records this defect.
        levels = [p for p in np.arange(10, 91) / 100.0
                  if (-math.log(p) / self.LOSS_RATE) % 0.5 >= 0.05]
        self.dissipative_p = [float(rng.choice(third))
                              for third in np.array_split(levels, 3)]
        # Two levels on each side of the transmitted fraction: above it the
        # cost of one trajectory moves by up to 1.5x with P, and two draws
        # narrow the spread this adds between seeds.
        self.ode_p = _strata(rng, 0.005, 0.02, 2) + _strata(rng, 0.2, 0.8, 2)
        self.q, self.m, self.cli = q, models, cli
        p_list = ",".join(f"{p:g}" for p in self.dissipative_p)
        self.commands = [
            ["free", "--preset", "fig1"],
            ["dissipative", "--preset", "fig1", "--p-list", p_list],
            ["sphere3d", "--preset", "fig3"],
        ]
        self.outputs = [workdir / f"{argv[0]}.csv" for argv in self.commands]
        self.parts = ([Part(functools.partial(self._command, j), 1)
                       for j in range(len(self.commands))]
                      + [Part(functools.partial(self._trajectory, P), 1)
                         for P in self.ode_p])
        self._first_bytes: dict = {}

    def prepare(self) -> None:
        pass

    def _command(self, j: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.commands[j] + ["--out", str(self.outputs[j])])

    def _trajectory(self, P: float):
        return self.q.trace_trajectory_ode(self.m.tunnel, P, 0.0, T_MAX)

    def check(self, i: int, result) -> Outcome:
        out = Outcome(1)
        if i < len(self.commands):
            self._check_command(i, result, out)
        else:
            self._check_trajectory(self.ode_p[i - len(self.commands)], result, out)
        return out

    def _check_command(self, j: int, code: int, out: Outcome) -> None:
        argv, out_path = self.commands[j], self.outputs[j]
        now = out_path.read_bytes() if out_path.exists() else b""
        first = self._first_bytes.setdefault(j, now)
        bad = []
        if code != 0:
            bad.append(f"exit {code}")
        else:
            manifest = json.loads(Path(str(out_path) + ".manifest.json")
                                  .read_text(encoding="utf-8"))
            bad += [c["name"] for c in manifest["checks"] if not c["passed"]]
            self._csv_ratios(argv[0], out_path, out)
        if now != first:
            bad.append("CSV differs from the first pass")
        if bad:
            out.failed = 1
            out.problems.append(f"{argv[0]}: " + "; ".join(bad))

    def _check_trajectory(self, P: float, traj, out: Outcome) -> None:
        t_end = float(traj.times[-1])
        err = abs(self.m.tunnel.tail(float(traj.positions[-1]), t_end) - P)
        out.ratio(err, ODE_TAIL_TOL)
        if traj.termination.kind != "completed" or t_end != T_MAX \
                or not err <= ODE_TAIL_TOL:
            out.failed = 1
            out.problems.append(
                f"ODE P={P:.6g}: {traj.termination.kind} at t={t_end:.6g}, "
                f"|tail - P| = {err:.3e}")

    def _csv_ratios(self, command: str, path: Path, out: Outcome) -> None:
        rows = _read_csv(path)
        if command == "sphere3d":
            enclosed = [float(r["enclosed_p"]) for r in rows]
            out.ratio(max(enclosed) - min(enclosed), CONSERVATION_TOL)
            return
        for r in rows:
            if r["discrepancy"]:
                out.ratio(float(r["discrepancy"]), EQUIV_TOL)
            if r["status"] == "norm_below_p":
                expected = -math.log(float(r["P"])) / self.LOSS_RATE
                out.ratio(abs(float(r["t"]) - expected), TERMINATION_TOL)


WORKLOADS = {cls.name: cls for cls in (Retardation, DeltaP, OdeTrace)}
