"""Names the benchmark tracer (perfbench/spans.py) rebinds by identity.

Tier-1 does not run the benchmark, so a rename that would leave one of
its spans unbound fails here instead.
"""

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
