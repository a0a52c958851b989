"""Run one benchmark workload against the quantracer source in this checkout.

    python3 perfbench/run.py --workload retardation --seed 1 --seconds 25 --trace 0

Workloads: retardation, delta-p, ode-trace (see workloads.py and
BASELINE.md for why each exists).  The process is single-threaded: the
BLAS and OpenMP thread counts are pinned to 1 before numpy loads.  The
workload's fixed work (a rep) is split into parts of a few seconds at
most.  After one warm-up rep the parts run in turn, rep after rep, until
``--seconds`` have passed and each part has been timed at least once.
Every part's outputs are checked outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the sum over
parts of each part's median time), ``setup_s`` (median of
fresh-interpreter set-ups), ``peak_rss_mb`` and ``success_rate`` (1 -
failed / attempted operations).  ``wall_s`` and ``setup_s`` are scaled to
a fixed host speed (see ``HostProbe``); the summary line also gives the
raw times.  ``--trace 1`` alternates untraced and traced reps and reports
the per-layer metrics of spans.py and the tracing overhead; the spans go
to ``.perfbench-out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
quantracer source next to it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5

# End-to-end metrics: name -> (unit, better).
END_TO_END = {"wall_s": ("s", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower"), "success_rate": ("ratio", "higher")}

# The host's speed drifts by up to 1.7x within seconds to minutes (cores
# and memory bandwidth are shared), and the library slows with it.
# HostProbe times a fixed numpy kernel shaped like the library's hot loop:
# complex exponentials of a 2048 x 386 outer product, then a matvec.  It
# runs before the first timed part and after every part; each part's time
# is scaled by PROBE_REF_S over the mean of the two probes around it, i.e.
# reported in seconds at probe speed PROBE_REF_S.  On the 2-vCPU reference
# VM the probe takes 0.025 s to 0.046 s.  Run in this process, it tracked
# the library's speed better than in a child process or with half the rows
# in one reused buffer.
PROBE_REF_S = 0.030


class HostProbe:
    def __init__(self):
        import numpy as np
        self._np = np
        self.x = np.random.default_rng(0).uniform(-20.0, 20.0, 2048)
        self.k = np.linspace(1.4, 2.6, 386)
        self.c = np.exp(1j * self.k)

    def __call__(self) -> float:
        """Best of three timings of the kernel, in seconds."""
        np = self._np
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            np.exp(1j * np.outer(self.x, self.k)) @ self.c
            best = min(best, time.perf_counter() - started)
        return best


def import_library():
    """Import quantracer from this checkout's src/, never from elsewhere."""
    if not (SRC / "quantracer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quantracer source under {SRC}")
    sys.path.insert(0, str(SRC))
    import quantracer
    if Path(quantracer.__file__).resolve().parent != SRC / "quantracer":
        raise SystemExit(f"perfbench: quantracer imported from {quantracer.__file__}")
    return quantracer


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure_setup() -> float:
    """Seconds from a fresh interpreter to the models being ready."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def call_part(part) -> tuple:
    """Time one part: (seconds, result, problem or None)."""
    started = time.perf_counter()
    try:
        result = part.call()
    except Exception as exc:   # a crashed part is a failed part
        return time.perf_counter() - started, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - started, result, None


def check_part(workload, i: int, result, problem):
    """The Outcome of part ``i``; a raise fails every operation of the part."""
    from workloads import Outcome
    if problem is None:
        try:
            return workload.check(i, result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    ops = workload.parts[i].ops
    return Outcome(ops, ops, problems=[problem])


def run_part(workload, i: int, outcomes: list) -> float:
    """Part ``i`` of a rep: the call is timed, the check is not."""
    elapsed, result, problem = call_part(workload.parts[i])
    outcomes.append(check_part(workload, i, result, problem))
    return elapsed


def traced_rep(q, workload, trace_id: int, outcomes: list):
    """One rep under the Tracer; the checks run after it, untraced."""
    from spans import Recorder, Tracer
    rec = Recorder(trace=trace_id)
    with Tracer(q, rec):
        root = rec.open("bench.rep")
        try:
            called = [call_part(part) for part in workload.parts]
        finally:
            rec.close(root)
    for i, (_, result, problem) in enumerate(called):
        outcomes.append(check_part(workload, i, result, problem))
    return rec


class Run:
    """The samples one run collects."""

    def __init__(self, parts: int):
        self.outcomes: list = []
        self.raw: list = [[] for _ in range(parts)]      # raw times of each part
        self.scaled: list = [[] for _ in range(parts)]   # the same at probe speed
        self.speeds: list = []      # host probes, one before the first part and after each
        self.setup: list = []       # set-up times at probe speed
        self.untraced: list = []    # raw times of whole untraced reps (traced runs)
        self.traced: list = []      # Recorders of traced reps
        self.peak_rss_mb = 0.0

    def wall(self, samples) -> float:
        """One rep's time: the sum over parts of the part's median time."""
        return sum(statistics.median(times) for times in samples)


def measure(q, workload, seconds: float, trace: bool) -> Run:
    """Traced: an untraced and a traced rep in turn, raw times only, until
    ``seconds`` have passed.  Untraced: one warm-up rep, then parts in turn,
    rep after rep, with a host probe after every part, until ``seconds``
    have passed and every part has been timed at least once; a set-up probe
    runs before each of the first timed reps, so a slow spell of the host
    does not land on all of them."""
    parts = len(workload.parts)
    run = Run(parts)
    if trace:
        started = time.perf_counter()
        while not run.traced or time.perf_counter() - started < seconds:
            run.untraced.append(sum(run_part(workload, i, run.outcomes)
                                    for i in range(parts)))
            run.traced.append(traced_rep(q, workload, len(run.traced), run.outcomes))
        return run
    # The warm-up rep is checked but not timed.  It runs before the host
    # probe first allocates (the probe's temporaries reach past the
    # workloads' own peak memory), so the peak RSS read after it is the
    # workload's own.
    for i in range(parts):
        run_part(workload, i, run.outcomes)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = HostProbe()
    run.speeds.append(host())
    started = time.perf_counter()
    done = 0
    while done < parts or time.perf_counter() - started < seconds:
        i = done % parts
        if i == 0 and len(run.setup) < SETUP_PROBES:
            run.setup.append(measure_setup() * PROBE_REF_S / run.speeds[-1])
        raw = run_part(workload, i, run.outcomes)
        run.speeds.append(host())
        run.raw[i].append(raw)
        run.scaled[i].append(raw * 2.0 * PROBE_REF_S / (run.speeds[-2] + run.speeds[-1]))
        done += 1
    while len(run.setup) < SETUP_PROBES:
        run.speeds.append(host())
        run.setup.append(measure_setup() * PROBE_REF_S / run.speeds[-1])
    return run


def end_to_end(run: Run, workload_name: str, failed: int, attempted: int,
               tol_used: float) -> dict:
    values = {
        "wall_s": run.wall(run.scaled),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": run.peak_rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }
    print(f"# {workload_name}: {min(map(len, run.raw))} to {max(map(len, run.raw))} "
          f"samples of each of {len(run.raw)} parts; wall_s {values['wall_s']:.4f} s "
          f"at probe speed, raw {run.wall(run.raw):.4f} s; part medians at probe speed "
          f"{[round(statistics.median(t), 3) for t in run.scaled]}; raw part times "
          f"{[[round(x, 3) for x in t] for t in run.raw]}; host probe quartiles "
          f"{[round(x, 4) for x in quartiles(run.speeds)]} s; setup_s "
          f"{sorted(round(x, 3) for x in run.setup)}; error_rate "
          f"{failed / attempted:.4g}; tol_used {tol_used:.4g}")
    return values


def per_layer(run: Run, setup_rec, tol_used: float) -> dict:
    from spans import LAYERS, layer_metrics
    per_rep = []
    for rec in run.traced:
        m = layer_metrics(rec)
        root = rec.spans[0]
        m["trace.wall_s"] = root.end - root.start
        m["trace.unattributed_s"] = m["trace.wall_s"] - sum(
            m[f"{layer}.self_s"] for layer in LAYERS)
        per_rep.append(m)
    values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced = statistics.median(run.untraced)
    values.update({
        "wavepacket.setup_s": layer_metrics(setup_rec)["wavepacket.self_s"],
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": values["trace.wall_s"] - untraced,
        "checks.tol_used": tol_used,
    })
    return values


def write_spans(path: Path, env: dict, recorders) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for rec in recorders:
            for s in rec.spans:
                fh.write(json.dumps({"trace": s.trace, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end}) + "\n")


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("retardation", "delta-p", "ode-trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    q = import_library()
    from spans import PER_LAYER, Recorder, Tracer
    from workloads import WORKLOADS, build_models

    env = environment(args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        setup_rec = Recorder()
        if args.trace:
            with Tracer(q, setup_rec):
                models = build_models(q)
        else:
            models = build_models(q)
        workload = WORKLOADS[args.workload](q, models, args.seed, Path(tmp))
        workload.prepare()
        run = measure(q, workload, args.seconds, bool(args.trace))

    attempted = sum(o.attempted for o in run.outcomes)
    failed = sum(o.failed for o in run.outcomes)
    tol_used = max(o.tol_used for o in run.outcomes)
    for o in run.outcomes:
        for problem in o.problems:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(run, setup_rec, tol_used)
        write_spans(OUT / f"{args.workload}.spans.jsonl",
                    {**env, "workload": args.workload}, [setup_rec, *run.traced])
        table = PER_LAYER
    else:
        values = end_to_end(run, args.workload, failed, attempted, tol_used)
        table = END_TO_END
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
