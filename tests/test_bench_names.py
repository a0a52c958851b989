"""Names the benchmark tracer (perfbench/spans.py) rebinds by identity,
and the result fields its counters read.

Tier-1 does not run the benchmark, so a rename or a return-type change
that would break one of its spans or counters fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import quantracer
from quantracer import cli, numerics, quantile, tunneling, wavepacket

TRACED = {
    numerics: ("integrate_adaptive", "find_root_monotone", "integrate_ode"),
    wavepacket: ("spectral_setup", "spectral_free_model", "tunneling_packet_model"),
    quantile: ("quantile_position", "trace_trajectory_cdf", "trace_trajectory_ode",
               "trace_flowmap_3d", "probability_in_volume"),
    tunneling: ("retardation_scan", "delta_p_report", "delta_p_direct",
                "delta_p_decomposed", "packet_transmission_probability"),
    cli: ("main", "write_csv", "write_manifest"),
}


def test_traced_functions_resolve():
    missing = [f"{module.__name__}.{name}" for module, names in TRACED.items()
               for name in names if not callable(getattr(module, name, None))]
    assert not missing


def test_traced_field_methods_are_defined_on_the_class():
    # The tracer replaces them in SpectralPacketModel.__dict__ itself.
    fields = wavepacket.SpectralPacketModel.__dict__
    assert all(callable(fields.get(name))
               for name in ("rho", "current", "density_and_current"))


def test_counted_results_keep_their_fields():
    # The tracer adds traj.floor_episodes of both tracers and v.checked of
    # every retardation verdict; the retardation workload also inverts one
    # scalar level at a time.
    packet = wavepacket.DEFAULT_PACKET
    model = wavepacket.FreeGaussianModel(packet)
    for traj in (quantile.trace_trajectory_cdf(model, 0.5, [0.0, 1.0]),
                 quantile.trace_trajectory_ode(model, 0.5, 0.0, 1.0)):
        assert type(traj.floor_episodes) is int
    spectrum, grid = wavepacket.spectral_setup(packet, t_max=1.0)
    free = wavepacket.spectral_free_model(spectrum, grid)
    tunnel = wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER, grid)
    verdicts = tunneling.retardation_scan(free, tunnel, [0.3], np.linspace(0.0, 1.0, 3))
    assert [type(v.checked) for v in verdicts] == [int]
    assert type(quantile.quantile_position(tunnel, 0.3, 1.0)) is float


def test_inversion_solves_through_the_traced_root_binding(monkeypatch):
    # The tracer counts numerics.root.evals by rebinding
    # quantile.find_root_monotone and wrapping its argument 0.  A closed-form
    # model's certified guess makes no root call; an uncertified one falls
    # back through that binding.  A spectral model solves all its (time,
    # level) pairs in one quantile.invert_tables call, which the tracer does
    # not wrap, so its root counters read 0 for spectral inversions.
    evals, solves = [], []
    solve, invert = quantile.find_root_monotone, quantile.invert_tables
    assert invert is numerics.invert_tables

    def counted_solve(g, *args, **kwargs):
        return solve(lambda x: evals.append(x) or g(x), *args, **kwargs)

    def counted_invert(tables, *args):
        solves.append(len(tables))
        return invert(tables, *args)
    monkeypatch.setattr(quantile, "find_root_monotone", counted_solve)
    monkeypatch.setattr(quantile, "invert_tables", counted_invert)
    free = wavepacket.FreeGaussianModel(wavepacket.DEFAULT_PACKET)
    quantile.quantile_position(free, 0.3, 1.0)
    assert evals == [] and solves == []
    with monkeypatch.context() as patch:
        patch.setattr(quantile, "_upper_normal_quantile", lambda p: 1.0)
        quantile.quantile_position(free, 0.3, 1.0)
    assert len(evals) >= 3 and solves == []
    evals.clear()
    spectrum, grid = wavepacket.spectral_setup(wavepacket.DEFAULT_PACKET, t_max=1.0)
    tunnel = wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER, grid)
    quantile.quantile_position(tunnel, [0.3, 0.6], [0.0, 1.0])
    assert evals == [] and solves == [2]


def test_scan_and_report_go_through_the_traced_bindings(monkeypatch):
    # The tracer opens a quantile.inversion span per call of the
    # quantile_position binding of tunneling.  A scan makes one such call
    # for the (free, tunneling) pair with the whole time grid, which builds
    # both models' tables of up to 32 times in one wavepacket.adaptive_panels
    # call (not wrapped by the tracer) and solves every (model, t, P) of the
    # block in one quantile.invert_tables call, not through the root binding
    # the tracer counts; delta_p_report builds its direct and term3 tables
    # in one pass the same way and solves nothing.  A path round these
    # bindings would read 0 inversions.
    counts = {"evals": 0, "solves": 0, "inversions": 0, "builds": 0, "tables": 0}
    grids = []
    solve, invert = quantile.find_root_monotone, tunneling.quantile_position
    build, table_solve = wavepacket.adaptive_panels, quantile.invert_tables

    def counted_solve(g, *args, **kwargs):
        def counted_g(x):
            counts["evals"] += 1
            return g(x)
        return solve(counted_g, *args, **kwargs)

    def counted_table_solve(tables, *args):
        counts["solves"] += 1
        return table_solve(tables, *args)

    def counted_invert(model, P, t, *args):
        counts["inversions"] += 1
        grids.append(np.array(t))
        return invert(model, P, t, *args)

    def counted_build(panel_f, partitions, *args):
        counts["builds"] += 1
        counts["tables"] += len(partitions)
        return build(panel_f, partitions, *args)
    monkeypatch.setattr(quantile, "find_root_monotone", counted_solve)
    monkeypatch.setattr(quantile, "invert_tables", counted_table_solve)
    monkeypatch.setattr(tunneling, "quantile_position", counted_invert)
    monkeypatch.setattr(wavepacket, "adaptive_panels", counted_build)
    spectrum, grid = wavepacket.spectral_setup(wavepacket.DEFAULT_PACKET, t_max=2.0)
    free = wavepacket.spectral_free_model(spectrum, grid)
    tunnel = wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER, grid)
    times = np.linspace(0.0, 2.0, 3)
    tunneling.retardation_scan(free, tunnel, [0.01, 0.3], times)
    assert counts["inversions"] == 1 and (counts["evals"], counts["solves"]) == (0, 1)
    assert [grid.tolist() for grid in grids] == [times.tolist()]
    assert (counts["builds"], counts["tables"]) == (1, 6)
    counts.update(evals=0, solves=0, inversions=0, builds=0, tables=0)
    tunneling.delta_p_report(free, tunnel, [0.5, 1.5], [0.0, 1.0, 2.0])
    assert counts == {"evals": 0, "solves": 0, "inversions": 0, "builds": 1, "tables": 9}
    # Blocks of two times: still one inversion for the pair, and one pass
    # and one invert_tables call per block.
    counts.update(evals=0, solves=0, inversions=0, builds=0, tables=0)
    monkeypatch.setattr(wavepacket, "_TABLE_BLOCK", 2)
    tunneling.retardation_scan(free, tunnel, [0.01, 0.3], times)
    assert counts == {"evals": 0, "solves": 2, "inversions": 1, "builds": 2, "tables": 6}


def test_ode_trace_steps_through_the_traced_ode_binding(monkeypatch):
    # The tracer counts numerics.ode.rhs_evals by rebinding
    # quantile.integrate_ode and wrapping its argument 0; a driver that
    # went round that binding would read 0 rhs calls.
    calls = []
    integrate = quantile.integrate_ode

    def counted_integrate(rhs, *args, **kwargs):
        return integrate(lambda t, x: calls.append(t) or rhs(t, x), *args, **kwargs)
    monkeypatch.setattr(quantile, "integrate_ode", counted_integrate)
    model = wavepacket.FreeGaussianModel(wavepacket.DEFAULT_PACKET)
    quantile.trace_trajectory_ode(model, 0.5, 0.0, 1.0)
    assert len(calls) > 6


def test_scalar_fields_do_not_go_through_rho_or_current(monkeypatch):
    # The tracer wraps rho, current and density_and_current on the class
    # and counts each call as one field evaluation; a scalar
    # density_and_current that went through rho or current would count twice.
    def refuse(self, x, t):
        raise AssertionError("density_and_current called rho or current")
    spectrum, grid = wavepacket.spectral_setup(wavepacket.DEFAULT_PACKET, t_max=1.0)
    for model in (wavepacket.spectral_free_model(spectrum, grid),
                  wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER,
                                                    grid)):
        with monkeypatch.context() as patch:
            for name in ("rho", "current"):
                patch.setattr(wavepacket.SpectralPacketModel, name, refuse)
            for x in (-5.0, 0.1, 4.0):
                rho, cur = model.density_and_current(x, 0.5)
                assert type(rho) is float and type(cur) is float


def test_each_field_call_reaches_the_mode_kernel_once(monkeypatch):
    # The tracer counts each rho, current or density_and_current call as one
    # field evaluation of np.size(x) points.  That holds if each call, for
    # a scalar and for a one-point array, runs the mode kernel (one
    # region's sum) once and none of the other two methods.
    names = ("rho", "current", "density_and_current")
    kernel = wavepacket._region_fields
    calls = []

    def counted_kernel(region, x, t):
        calls.append(x)
        return kernel(region, x, t)

    def refuse(self, x, t):
        raise AssertionError("a field method called another one")
    monkeypatch.setattr(wavepacket, "_region_fields", counted_kernel)
    spectrum, grid = wavepacket.spectral_setup(wavepacket.DEFAULT_PACKET, t_max=1.0)
    for model in (wavepacket.spectral_free_model(spectrum, grid),
                  wavepacket.tunneling_packet_model(spectrum, wavepacket.DEFAULT_BARRIER,
                                                    grid)):
        for name in names:
            with monkeypatch.context() as patch:
                for other in set(names) - {name}:
                    patch.setattr(wavepacket.SpectralPacketModel, other, refuse)
                for x in (-5.0, 0.1, 4.0):
                    for arg in (x, np.array([x])):
                        calls.clear()
                        getattr(model, name)(arg, 0.5)
                        assert len(calls) == 1 and np.size(calls[0]) == 1


def test_each_workload_runs_a_part_and_passes_its_check(monkeypatch, tmp_path):
    # perfbench/workloads.py, loaded as it is (no bytecode written next to
    # it): the stock models, then one part of each workload, checked by
    # that workload's own check.  A change to a call the workloads make
    # fails here, not only in a benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    models = workloads.build_models(quantracer)
    assert set(workloads.WORKLOADS) == {"retardation", "delta-p", "ode-trace"}
    for name, part in (("retardation", 0), ("delta-p", 0), ("ode-trace", -1)):
        workload = workloads.WORKLOADS[name](quantracer, models, 2601, tmp_path)
        workload.prepare()
        i = part % len(workload.parts)
        outcome = workload.check(i, workload.parts[i].call())
        assert outcome.attempted == workload.parts[i].ops
        assert outcome.failed == 0, outcome.problems
