"""Spans and work counts recorded around quantracer's layers, from outside.

The library is not instrumented.  ``Tracer`` rebinds the public functions
of ``numerics``, ``wavepacket``, ``quantile``, ``tunneling`` and ``cli``
wherever a consumer module looks them up (``from .numerics import
integrate_adaptive`` makes a second binding in ``wavepacket``, which is
the one the tail quadrature calls), plus three methods of
``SpectralPacketModel``.  Each wrapper opens a span named
``<layer>.<what>`` and adds to work counters; callables handed to the
numerics kernels are wrapped to count integrand abscissae, root-function
evaluations and ODE right-hand-side evaluations.  Leaving the ``with``
block puts every original binding back.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans, so the self times of all spans in a rep
add up to the rep's root span.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("wavepacket", "numerics", "quantile", "tunneling", "cli")

# Per-layer metrics of a traced rep: name -> (unit, better).
PER_LAYER = {
    "wavepacket.field.calls": ("count", "lower"),
    "wavepacket.field.entries": ("count", "lower"),
    "wavepacket.field.self_s": ("s", "lower"),
    "wavepacket.field.ns_per_entry": ("ns", "lower"),
    "wavepacket.field.points_per_call": ("points/call", "higher"),
    "wavepacket.setup_s": ("s", "lower"),
    "wavepacket.self_s": ("s", "lower"),
    "numerics.quad.calls": ("count", "lower"),
    "numerics.quad.points": ("count", "lower"),
    "numerics.quad.self_s": ("s", "lower"),
    "numerics.root.calls": ("count", "lower"),
    "numerics.root.evals": ("count", "lower"),
    "numerics.root.self_s": ("s", "lower"),
    "numerics.ode.calls": ("count", "lower"),
    "numerics.ode.rhs_evals": ("count", "lower"),
    "numerics.ode.self_s": ("s", "lower"),
    "numerics.self_s": ("s", "lower"),
    "quantile.inversions": ("count", "lower"),
    "quantile.inversion_ms": ("ms", "lower"),
    "quantile.quads_per_inversion": ("count", "lower"),
    "quantile.floor_episodes": ("count", "lower"),
    "quantile.self_s": ("s", "lower"),
    "tunneling.dp_direct.self_s": ("s", "lower"),
    "tunneling.dp_decomposed.calls": ("count", "lower"),
    "tunneling.dp_decomposed.self_s": ("s", "lower"),
    "tunneling.retardation.checked": ("count", "higher"),
    "tunneling.self_s": ("s", "lower"),
    "cli.commands": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "checks.tol_used": ("ratio", "lower"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    trace: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Recorder:
    """Spans and counters of one traced rep, kept in memory."""

    trace: int = 0
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    stack: list = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.clock(), trace=self.trace)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1].name == name


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children's
    intervals, each clipped to the parent."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer figures of one traced rep (see BENCHMARK.json per_layer)."""
    spans = rec.spans
    own = self_times(spans)
    by_name: dict = {}
    by_layer = Counter()
    for s in spans:
        agg = by_name.setdefault(s.name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += own[s.id]
        agg[2] += s.end - s.start
        by_layer[s.layer] += own[s.id]

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    # Quadratures issued while a quantile inversion is open.
    in_inversion: dict = {}
    quads_in_inversion = 0
    for s in spans:
        inherited = s.parent is not None and in_inversion[s.parent]
        in_inversion[s.id] = inherited or s.name == "quantile.inversion"
        if inherited and s.name == "numerics.quad":
            quads_in_inversion += 1

    c = rec.counts
    field_calls = c["wavepacket.field.calls"]
    entries = c["wavepacket.field.entries"]
    inversions = calls("quantile.inversion")
    inversion_total = by_name.get("quantile.inversion", (0, 0.0, 0.0))[2]
    return {
        "wavepacket.field.calls": field_calls,
        "wavepacket.field.entries": entries,
        "wavepacket.field.self_s": self_s("wavepacket.field"),
        "wavepacket.field.ns_per_entry":
            1e9 * self_s("wavepacket.field") / entries if entries else 0.0,
        "wavepacket.field.points_per_call":
            c["wavepacket.field.points"] / field_calls if field_calls else 0.0,
        "numerics.quad.calls": calls("numerics.quad"),
        "numerics.quad.points": c["numerics.quad.points"],
        "numerics.quad.self_s": self_s("numerics.quad"),
        "numerics.root.calls": calls("numerics.root"),
        "numerics.root.evals": c["numerics.root.evals"],
        "numerics.root.self_s": self_s("numerics.root"),
        "numerics.ode.calls": calls("numerics.ode"),
        "numerics.ode.rhs_evals": c["numerics.ode.rhs_evals"],
        "numerics.ode.self_s": self_s("numerics.ode"),
        "quantile.inversions": inversions,
        "quantile.inversion_ms":
            1e3 * inversion_total / inversions if inversions else 0.0,
        "quantile.quads_per_inversion":
            quads_in_inversion / inversions if inversions else 0.0,
        "quantile.floor_episodes": c["quantile.floor_episodes"],
        "tunneling.dp_direct.self_s": self_s("tunneling.dp_direct"),
        "tunneling.dp_decomposed.calls": calls("tunneling.dp_decomposed"),
        "tunneling.dp_decomposed.self_s": self_s("tunneling.dp_decomposed"),
        "tunneling.retardation.checked": c["tunneling.retardation.checked"],
        "cli.commands": calls("cli.main"),
        "cli.self_s": by_layer["cli"],
        "cli.bytes_written": c["cli.bytes_written"],
        **{f"{layer}.self_s": by_layer[layer] for layer in LAYERS if layer != "cli"},
        "trace.spans": len(spans),
    }


# ---------------------------------------------------------------------------
# Wrappers.


def _span_wrapper(tracer, func, name, after=None):
    def wrapper(*args, **kwargs):
        rec = tracer.recorder
        span = rec.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            rec.close(span)
        if after is not None:
            after(rec.counts, args, result)
        return result
    wrapper.__wrapped__ = func
    return wrapper


def _kernel_wrapper(tracer, func, name, counter, measure):
    """Span around a numerics kernel whose first argument is a callable;
    the callable is wrapped to add ``measure(args)`` to ``counter``.
    A kernel re-entered from itself (infinite quadrature bounds recurse)
    is folded into the outer span so nothing is counted twice."""
    def wrapper(fn, *args, **kwargs):
        rec = tracer.recorder
        if rec.inside(name):
            return func(fn, *args, **kwargs)
        counts = rec.counts

        def counted(*a):
            counts[counter] += measure(a)
            return fn(*a)

        span = rec.open(name)
        try:
            return func(counted, *args, **kwargs)
        finally:
            rec.close(span)
    wrapper.__wrapped__ = func
    return wrapper


def _field_wrapper(tracer, func):
    def wrapper(self, x, t):
        rec = tracer.recorder
        rec.counts["wavepacket.field.calls"] += 1
        rec.counts["wavepacket.field.points"] += np.size(x)
        rec.counts["wavepacket.field.entries"] += np.size(x) * self.grid.size
        span = rec.open("wavepacket.field")
        try:
            return func(self, x, t)
        finally:
            rec.close(span)
    wrapper.__wrapped__ = func
    return wrapper


def _count_floor(counts, args, traj):
    counts["quantile.floor_episodes"] += traj.floor_episodes


def _count_checked(counts, args, verdicts):
    counts["tunneling.retardation.checked"] += sum(v.checked for v in verdicts)


def _count_csv_bytes(counts, args, result):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


def _count_manifest_bytes(counts, args, path):
    counts["cli.bytes_written"] += os.path.getsize(path)


def _one(a):
    return 1


def _abscissae(a):
    return np.size(a[0])


class Tracer:
    """Context manager that traces one rep into ``recorder``.

    Every binding it replaces is listed in ``self.patched`` while active
    and restored, by identity, on exit.
    """

    def __init__(self, quantracer, recorder: Recorder):
        self.recorder = recorder
        self.patched: list = []
        from quantracer import cli, numerics, quantile, tunneling, wavepacket
        self._modules = (quantracer, numerics, wavepacket, quantile, tunneling, cli)
        self._model_class = wavepacket.SpectralPacketModel

    def _wrappers(self):
        """(original, wrapper) for every traced function."""
        _, numerics, wavepacket, quantile, tunneling, cli = self._modules
        kernels = [
            (numerics.integrate_adaptive, "numerics.quad", "numerics.quad.points", _abscissae),
            (numerics.find_root_monotone, "numerics.root", "numerics.root.evals", _one),
            (numerics.integrate_ode, "numerics.ode", "numerics.ode.rhs_evals", _one),
        ]
        spans = [
            (wavepacket.spectral_setup, "wavepacket.setup", None),
            (wavepacket.spectral_free_model, "wavepacket.setup", None),
            (wavepacket.tunneling_packet_model, "wavepacket.setup", None),
            (quantile.quantile_position, "quantile.inversion", None),
            (quantile.trace_trajectory_cdf, "quantile.trajectory_cdf", _count_floor),
            (quantile.trace_trajectory_ode, "quantile.trajectory_ode", _count_floor),
            (quantile.trace_flowmap_3d, "quantile.flowmap_3d", None),
            (quantile.probability_in_volume, "quantile.volume", None),
            (tunneling.retardation_scan, "tunneling.retardation", _count_checked),
            (tunneling.delta_p_report, "tunneling.dp_report", None),
            (tunneling.delta_p_direct, "tunneling.dp_direct", None),
            (tunneling.delta_p_decomposed, "tunneling.dp_decomposed", None),
            (tunneling.packet_transmission_probability, "tunneling.transmission", None),
            (cli.main, "cli.main", None),
            (cli.write_csv, "cli.write", _count_csv_bytes),
            (cli.write_manifest, "cli.write", _count_manifest_bytes),
        ]
        for func, name, counter, measure in kernels:
            yield func, _kernel_wrapper(self, func, name, counter, measure)
        for func, name, after in spans:
            yield func, _span_wrapper(self, func, name, after)

    def __enter__(self):
        try:
            for original, wrapper in self._wrappers():
                for module in self._modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
            for attr in ("rho", "current", "density_and_current"):
                original = self._model_class.__dict__[attr]
                self.patched.append((self._model_class, attr, original))
                setattr(self._model_class, attr, _field_wrapper(self, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False
