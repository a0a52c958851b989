"""Tests of the benchmark itself: span arithmetic, patch hygiene, output shape.

    python3 -m pytest perfbench -q

The last test runs every workload once in both modes (about two minutes).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import quantracer  # noqa: E402
from quantracer import cli, numerics, quantile, tunneling, wavepacket  # noqa: E402

from run import END_TO_END, traced_rep  # noqa: E402
from spans import PER_LAYER, Recorder, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Outcome, Part  # noqa: E402

MODULES = (quantracer, numerics, wavepacket, quantile, tunneling, cli)


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    rec = Recorder(clock=_ticks(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0))
    root = rec.open("bench.rep")
    a = rec.open("quantile.inversion")
    a1 = rec.open("numerics.quad")
    rec.close(a1)
    rec.close(a)
    b = rec.open("tunneling.dp_direct")
    rec.close(b)
    rec.close(root)
    own = self_times(rec.spans)
    assert own == {root.id: 3.0, a.id: 2.0, a1.id: 1.0, b.id: 4.0}
    assert sum(own.values()) == root.end - root.start
    assert [s.parent for s in rec.spans] == [None, root.id, a.id, root.id]


def test_self_time_clips_overlapping_children_to_parent():
    spans = [Span(0, "p.x", None, 0.0, 10.0),
             Span(1, "c.x", 0, -2.0, 3.0),     # starts before the parent
             Span(2, "c.y", 0, 2.0, 6.0),      # overlaps its sibling
             Span(3, "c.z", 0, 8.0, 12.0)]     # ends after the parent
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (6.0 + 2.0))
    assert own[1] == 5.0 and own[2] == 4.0 and own[3] == 4.0


def test_closing_out_of_order_is_refused():
    rec = Recorder()
    outer = rec.open("a.x")
    rec.open("b.x")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def _bindings():
    snap = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    cls = wavepacket.SpectralPacketModel
    snap.update({("SpectralPacketModel", k): v for k, v in vars(cls).items()})
    return snap


def _small_models():
    spectrum, grid = quantracer.spectral_setup(quantracer.DEFAULT_PACKET, t_max=2.0)
    return (quantracer.spectral_free_model(spectrum, grid),
            quantracer.tunneling_packet_model(spectrum, quantracer.DEFAULT_BARRIER, grid))


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer(quantracer, Recorder())
    with tracer:
        patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in tracer.patched}
        # Consumer bindings, not only the defining module, are replaced.
        for key in [("quantracer.wavepacket", "integrate_adaptive"),
                    ("quantracer.tunneling", "integrate_adaptive"),
                    ("quantracer.quantile", "find_root_monotone"),
                    ("quantracer.quantile", "integrate_ode"),
                    ("quantracer.tunneling", "trace_trajectory_cdf"),
                    ("quantracer", "retardation_scan"),
                    ("quantracer.cli", "main"),
                    ("SpectralPacketModel", "rho"),
                    ("SpectralPacketModel", "current"),
                    ("SpectralPacketModel", "density_and_current")]:
            assert key in patched
        assert wavepacket.integrate_adaptive is not before[("quantracer.wavepacket",
                                                            "integrate_adaptive")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.patched


def test_tracer_restores_after_a_raise():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer(quantracer, Recorder()):
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_inversion_nests_and_counts():
    free, tunnel = _small_models()
    rec = Recorder()
    with Tracer(quantracer, rec):
        root = rec.open("bench.rep")
        x = quantracer.quantile_position(tunnel, 0.3, 1.0)
        rec.close(root)
    assert abs(tunnel.tail(x, 1.0) - 0.3) <= 1e-6
    m = layer_metrics(rec)
    assert m["quantile.inversions"] == 1
    assert m["numerics.root.calls"] == 1 and m["numerics.root.evals"] > 2
    assert m["numerics.quad.calls"] >= 1
    assert m["quantile.quads_per_inversion"] == m["numerics.quad.calls"]
    assert m["numerics.quad.points"] == rec.counts["wavepacket.field.points"]
    assert m["wavepacket.field.entries"] == \
        rec.counts["wavepacket.field.points"] * tunnel.grid.size
    layer_sum = sum(m[f"{layer}.self_s"]
                    for layer in ("wavepacket", "numerics", "quantile", "tunneling"))
    assert layer_sum <= root.end - root.start
    assert layer_sum == pytest.approx(root.end - root.start, rel=0.05)


def test_traced_rep_checks_outside_the_trace():
    _, tunnel = _small_models()

    class OnePart:
        parts = [Part(lambda: 0.3, 1)]

        def check(self, i, P):   # a check that calls the library, as ode-trace's does
            x = quantracer.quantile_position(tunnel, P, 1.0)
            return Outcome(1, failed=int(abs(tunnel.tail(x, 1.0) - P) > 1e-6))

    outcomes = []
    rec = traced_rep(quantracer, OnePart(), 0, outcomes)
    assert [s.name for s in rec.spans] == ["bench.rep"]
    assert [(o.attempted, o.failed) for o in outcomes] == [(1, 0)]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "delta-p", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", ["retardation", "delta-p", "ode-trace"])
def test_one_rep_prints_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run(ROOT, "--workload", workload, "--seed", "7",
                    "--seconds", "0", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[table]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
