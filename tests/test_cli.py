"""End-to-end checks of the command-line interface.

Each test drives main() with argv lists and inspects the CSV and manifest
artifacts it leaves in a tmp directory: exit codes, column layout, float
round-trips, determinism, and the verify suite's fault response.
"""

import json
import math
import os
import platform
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import quantracer
from quantracer import cli, wavepacket
from quantracer.cli import (
    DEFAULT_OUT,
    MAX_K_NODES,
    PRESETS,
    ScenarioConfig,
    MIN_CROSSING_LEVEL,
    _check_retardation,
    _check_trajectory_roundtrip,
    _verify_pair,
    build_parser,
    load_config_file,
    main,
    resolve_config,
    validate_config,
    write_csv,
)
from quantracer.numerics import Tolerances
from quantracer.tunneling import packet_transmission_probability
from quantracer.wavepacket import (
    BarrierSpec,
    GaussianPacketParams,
    SpectralPacketModel,
    spectral_setup,
)


def run_cli(tmp_path, *argv):
    """Run main() with cwd switched to tmp_path; return the exit code."""
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def read_csv(path):
    """Parse our CSV dialect: comment line, header, then value rows."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# units:")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


def read_manifest(path):
    return json.loads(path.with_name(path.name + ".manifest.json")
                      .read_text(encoding="utf-8"))


def checks_by_name(manifest):
    return {c["name"]: c for c in manifest["checks"]}


# Per flag: a cheap valid value, then nan, inf, negative, zero, oversized
# and unparsable values.  Every oversized size (grid times, k-nodes,
# u-order) is refused before allocating, and a run on the valid values
# spans t <= 1, so no draw can launch a long run.
CONTRACT_FLAGS = {
    "--t-max": ("1", "nan", "inf", "-inf", "-1", "0", "1e6", "1e300", "abc"),
    "--t-step": ("0.5", "nan", "inf", "-0.5", "0", "1e-300", "abc"),
    "--p-list": ("0.3", "nan", "inf", "-0.5", "0", "1", "1e300", "0.5,0.3", "", "abc"),
    "--lambda": ("0.1", "nan", "inf", "-0.1", "0", "1e300", "abc"),
    "--barrier-height": ("10", "nan", "inf", "-10", "0", "1e300", "abc"),
    "--barrier-halfwidth": ("0.3", "nan", "inf", "-0.3", "0", "1e300", "abc"),
    "--k-nodes": ("0", "-1", "63", str(MAX_K_NODES + 1), "1000000000", "1.5"),
}
CONTRACT_EXTRA = {
    "tunnel": {"--snapshot-times": ("0", "nan", "inf", "-1", "abc")},
    "delta-p": {"--n-lambda": ("32", "-5", "0", "15", "513", "1000000000", "1.5")},
}


@st.composite
def contract_argv(draw):
    """A command with every flag set: up to three flags drawn from their
    hostile values, the others at their valid one."""
    command = draw(st.sampled_from(sorted(DEFAULT_OUT)))
    flags = {**CONTRACT_FLAGS, **CONTRACT_EXTRA.get(command, {})}
    hostile = draw(st.sets(st.sampled_from(sorted(flags)), max_size=3))
    argv = [command] + ["--quick"] * (command == "verify")
    for flag, (valid, *bad) in flags.items():
        value = draw(st.sampled_from(bad)) if flag in hostile else valid
        argv.append(f"{flag}={value}")
    return argv


# Keys only a config file can set, with their preset or default values, and
# the ones each fuzzed command reads.  Every float is drawn as that value, an
# edge float or a random magnitude.
CONFIG_ONLY = {
    "sigma_x0": 2.5, "x_bar": -10.0, "v_bar": 2.0, "mass": 1.0, "radius": 2.5,
    "center": (0.0, 0.0, 0.0), "velocity": (2.0, 0.0, 0.0), "quad_rel": 1e-9,
    "quad_abs": 1e-12, "root_abs": 1e-10, "ode_rel": 1e-8, "ode_abs": 1e-10,
    "delta_x": (0.5, 1.0), "delta_t": (0.5, 1.0),
}
PACKET_KEYS = ("sigma_x0", "mass", *cli.TOLERANCE_KEYS)
COMMAND_KEYS = {
    "free": PACKET_KEYS + ("x_bar", "v_bar"),
    "dissipative": PACKET_KEYS + ("x_bar", "v_bar"),
    "tunnel": PACKET_KEYS + ("x_bar", "v_bar"),
    "delta-p": PACKET_KEYS + ("x_bar", "v_bar", "delta_x", "delta_t"),
    "sphere3d": PACKET_KEYS + ("radius", "center", "velocity"),
    "verify": PACKET_KEYS + ("x_bar", "v_bar"),
}
EDGE_FLOATS = (0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e160, 1e200,
               1e300, math.inf, -math.inf, math.nan)


def config_float(preset):
    magnitude = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                          st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0))
    return st.one_of(st.just(preset), st.sampled_from(EDGE_FLOATS), magnitude)


@st.composite
def config_file_case(draw):
    """A command (verify runs --quick) and one to three of the config-only
    keys it reads, each with its preset or drawn values (one to three for a
    tuple key)."""
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    keys = draw(st.sets(st.sampled_from(COMMAND_KEYS[command]), min_size=1, max_size=3))
    values = {}
    for key in sorted(keys):
        preset = CONFIG_ONLY[key]
        values[key] = (draw(st.one_of(st.just(preset), st.lists(
            config_float(preset[0]), min_size=1, max_size=3).map(tuple)))
            if isinstance(preset, tuple) else (draw(config_float(preset)),))
    return command, values


class TestConfigResolution:
    def test_preset_below_config_file_below_flags(self, tmp_path):
        conf = tmp_path / "scenario.conf"
        conf.write_text("t_max = 6\nloss_rate = 0.2\n# comment\n\n",
                        encoding="utf-8")
        parser_args = ["dissipative", "--preset", "fig1",
                       "--config", str(conf), "--lambda", "0.05"]
        import quantracer.cli as cli
        args = cli.build_parser().parse_args(parser_args)
        cfg = resolve_config(args)
        assert cfg.t_max == 6.0            # file overrides preset's 20
        assert cfg.loss_rate == 0.05       # flag overrides file's 0.2
        assert cfg.p_list == PRESETS["fig1"]["p_list"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("barrier_heigth = 4\n", encoding="utf-8")
        assert run_cli(tmp_path, "free", "--config", str(conf)) == 2

    def test_malformed_config_line_exits_2(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("just some words\n", encoding="utf-8")
        assert run_cli(tmp_path, "free", "--config", str(conf)) == 2

    @pytest.mark.parametrize("command, width", [
        # sigma_v ** 2 * t / sig ** 2 overflowed (an OverflowError traceback).
        ("sphere3d", "1e-160"), ("sphere3d", "1e300"),
        # The closed-form ball mass divided by sigma_x(t) ** 2 = 0.
        ("sphere3d", "1e-170"),
        # A zero-width support hint: exit 3, "g(-10.0) = 0.4 and g(-10.0) = 0.4".
        ("free", "1e-100"), ("free", "1e-20"),
        # A step of Brent's loop divided by zero (a ZeroDivisionError traceback).
        ("free", "1e300")])
    def test_packet_width_outside_its_range_exits_2(self, tmp_path, capsys, command, width):
        conf = tmp_path / "width.conf"
        conf.write_text(f"sigma_x0 = {width}\n", encoding="utf-8")
        assert run_cli(tmp_path, command, "--preset", "fig3" if command == "sphere3d" else "fig1",
                       "--config", str(conf)) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and f"sigma_x0 = {float(width):g}" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, line", [
        ("free", "quad_rel = 0"), ("tunnel", "quad_abs = -1e-12"),
        ("sphere3d", "root_abs = -1"), ("free", "ode_rel = 0"), ("sphere3d", "ode_abs = 0")])
    def test_nonpositive_tolerance_exits_2(self, tmp_path, capsys, command, line):
        # Tolerances() raised a ValueError traceback in the middle of the run.
        conf = tmp_path / "tol.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        assert run_cli(tmp_path, command, "--t-max", "1", "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{line.split()[0]} must be positive" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tol.conf"]

    @pytest.mark.parametrize("command, lines", [
        # Refined to the 4096-panel limit for about 5 s, then exited 3.
        ("delta-p", ["quad_rel = 1e-300", "quad_abs = 5e-324"]),
        # Exited 1 on method_equivalence.
        ("dissipative", ["ode_rel = 1e300"])])
    def test_relative_tolerance_outside_its_range_exits_2(self, tmp_path, capsys,
                                                          command, lines):
        conf = tmp_path / "tol.conf"
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli(tmp_path, command, "--t-max", "1", "--config", str(conf)) == 2
        err = capsys.readouterr().err
        key = lines[0].split()[0]
        assert err.count("\n") == 1 and f"{key} = " in err and "range [2.22e-14, 1]" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tol.conf"]

    @pytest.mark.parametrize("key", ["quad_rel", "ode_rel"])
    def test_relative_tolerance_range_ends(self, key):
        # [100 eps, 1]: both ends are accepted, the next float out of either is not.
        lo, hi = cli.RELATIVE_TOLERANCES
        assert lo == 100.0 * np.finfo(float).eps and hi == 1.0
        for value in (lo, hi):
            validate_config(ScenarioConfig(**{key: value}))
        for value in (math.nextafter(lo, 0.0), math.nextafter(hi, 2.0)):
            with pytest.raises(cli.ConfigError, match=rf"^{key} = .* range \[2.22e-14, 1\]$"):
                validate_config(ScenarioConfig(**{key: value}))

    @pytest.mark.parametrize("command, mass", [
        # sigma_v ** 2 overflowed in the 3D velocity field (an OverflowError
        # traceback), and an infinite sigma_v made the flow-map ODE loop.
        ("sphere3d", "1e-300"), ("sphere3d", "5e-324"),
        # sigma_v = 2e-301 is below the range's floor.
        ("free", "1e300")])
    def test_mass_outside_the_velocity_width_range_exits_2(self, tmp_path, capsys,
                                                           command, mass):
        conf = tmp_path / "mass.conf"
        conf.write_text(f"mass = {mass}\n", encoding="utf-8")
        assert run_cli(tmp_path, command, "--t-max", "1", "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"mass = {float(mass):g} gives" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mass.conf"]

    def test_masses_inside_the_velocity_width_range_are_accepted(self):
        for mass in (1e-140, 1e140):
            validate_config(ScenarioConfig(mass=mass))

    def test_sphere3d_spread_past_its_cap_exits_2(self, tmp_path, capsys):
        # sigma_x(t) ** 2 overflowed in the velocity field at t = 1e200.
        assert run_cli(tmp_path, "sphere3d", "--t-max", "1e200", "--t-step", "5e199") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "spreads the 3D packet" in err
        assert not any(tmp_path.iterdir())

    def test_packet_width_range_edges_are_accepted(self):
        for width in cli.PACKET_WIDTHS:
            validate_config(ScenarioConfig(sigma_x0=width))

    def test_empty_p_list_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "free", "--p-list", "", "--t-max", "2") == 2

    def test_p_out_of_range_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "free", "--p-list", "0.5,1.5") == 2

    def test_unsorted_p_list_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "free", "--p-list", "0.5,0.3") == 2

    def test_nonpositive_step_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "free", "--t-step", "0") == 2

    @pytest.mark.parametrize("argv", [
        ("free", "--t-max", "nan"),
        ("free", "--t-step", "nan"),
        ("free", "--t-max", "inf"),
        ("dissipative", "--lambda", "nan"),
        ("tunnel", "--barrier-height", "nan"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be finite" in err

    @pytest.mark.parametrize("argv, words", [
        (("free", "--t-max", "abc"), "argument --t-max: invalid float value: 'abc'"),
        (("free", "--preset", "nope"), "argument --preset: invalid choice: 'nope'"),
        (("free", "--k-nodes", "1.5"), "argument --k-nodes: invalid int value: '1.5'"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        ((), "the following arguments are required: command"),
        (("free", "--bogus", "x\ny"), "unrecognized arguments: --bogus x\\ny"),
    ])
    def test_unparsable_flags_exit_2_in_one_line(self, tmp_path, capsys, argv, words):
        # argparse printed its usage and an error line, then raised SystemExit.
        assert run_cli(tmp_path, *argv) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1
        assert err.startswith(f"configuration error: {words}")
        assert not any(tmp_path.iterdir())

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["free", "--help"])
        assert exc.value.code == 0 and "--t-max" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, words", [
        (("sphere3d", "--preset", "fig3", "--t-max", "1e9"), "grid times"),
        (("free", "--t-max", "1e6", "--t-step", "1"), "grid times"),
        (("tunnel", "--t-max", "1e5"), "wave-number nodes"),
        (("delta-p", "--t-max", "1000"), "wave-number nodes"),
        (("tunnel", "--k-nodes", str(MAX_K_NODES + 1)), "k_nodes"),
        (("tunnel", "--t-max", "1e300"), "wave-number nodes"),
        (("free", "--t-max", "1", "--t-step", "1e-310"), "grid times"),
        (("delta-p", "--n-lambda", "513"), "n_lambda"),
    ])
    def test_oversized_run_refused_up_front(self, tmp_path, capsys, argv, words):
        # Each is refused from its size estimate before anything is
        # allocated; none of these runs may be launched for real.
        assert run_cli(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and words in err
        assert not any(tmp_path.iterdir())

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=contract_argv())
    @example(argv=["bogus", "--t-max=1"])
    @example(argv=["free", "--preset=nope", "--t-max=1"])
    def test_any_flag_config_ends_in_a_contract_exit(self, tmp_path, capsys, argv):
        code = run_cli(tmp_path, *argv, "--out=run.csv")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in out + err
        assert err.count("\n") == (1 if code in (2, 3) else 0), err

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=config_file_case())
    # Two inputs that escaped as tracebacks, from Tolerances() and from
    # sigma_v ** 2 in the 3D velocity field; both are now refused.
    @example(case=("free", {"ode_abs": (0.0,)}))
    @example(case=("sphere3d", {"mass": (1e-300,)}))
    def test_any_config_file_ends_in_a_contract_exit(self, tmp_path, capsys, case):
        # The config-only keys, which the flag fuzzer above cannot reach;
        # delta-p gets one report time unless delta_t is drawn.
        command, values = case
        if command == "delta-p":
            values = {"delta_t": (0.5,), **values}
        conf = tmp_path / "fuzz.conf"
        conf.write_text("".join(f"{key} = {' '.join(map(repr, v))}\n"
                                for key, v in values.items()), encoding="utf-8")
        code = run_cli(tmp_path, command, "--config", str(conf), "--t-max", "1",
                       "--t-step", "0.5", "--p-list", "0.5", "--out=run.csv",
                       *["--quick"] * (command == "verify"))
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in out + err
        assert err.count("\n") == (1 if code in (2, 3) else 0), err

    @pytest.mark.parametrize("argv", [
        ("free", "--t-max", "1e300", "--t-step", "1e299"),
        ("tunnel", "--t-max", "1", "--barrier-height", "1e300"),
        # A barrier far wider than the packet's range: the panel lattice
        # makes only the edges near the support hint, not 2^1000 of them.
        ("tunnel", "--t-max", "1", "--barrier-halfwidth", "1e300"),
    ])
    def test_nan_root_function_exits_3(self, tmp_path, capsys, argv):
        # Overflow makes the tail NaN; brentq used to raise a ValueError.
        # An overflowing barrier is refused where its coefficients are made.
        expected = ("NonConvergence" if argv[0] == "free"
                    else "QuantracerError: barrier coefficients overflow")
        assert run_cli(tmp_path, *argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and expected in err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        # A missing directory and an existing directory as --out.
        code = run_cli(tmp_path, "free", "--p-list", "0.5", "--t-max", "1",
                       "--out", str(tmp_path / target))
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and "cannot write" in err
        assert "Traceback" not in out + err

    def test_unwritable_main_table_writes_no_density_file(self, tmp_path, capsys):
        # The _density table comes first; its own path is writable, but the
        # main table's is a directory, so the run must not start writing.
        (tmp_path / "d").mkdir()
        code = run_cli(tmp_path, "tunnel", "--t-max", "1", "--p-list", "0.5",
                       "--snapshot-times", "0", "--out", str(tmp_path / "d"))
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and "cannot write" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert not any((tmp_path / "d").iterdir())

    @pytest.mark.parametrize("flag, name", [("--config", "no\nfile"),
                                            ("--out", "a\nb/x.csv")])
    def test_a_path_with_a_newline_fails_in_one_line(self, tmp_path, capsys,
                                                     flag, name):
        # A missing config file and an --out in a missing directory.
        code = run_cli(tmp_path, "free", "--p-list", "0.5", "--t-max", "1",
                       flag, str(tmp_path / name))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("configuration error: ")

    def test_small_n_lambda_rejected(self):
        with pytest.raises(Exception):
            validate_config(ScenarioConfig(n_lambda=8))

    def test_config_file_types_coerced(self, tmp_path):
        conf = tmp_path / "types.conf"
        conf.write_text(
            "p_list = 0.2, 0.4\nk_nodes = 128\nquick = true\nout = xy.csv\n",
            encoding="utf-8")
        values = load_config_file(str(conf))
        assert values == {"p_list": (0.2, 0.4), "k_nodes": 128,
                          "quick": True, "out": "xy.csv"}


class TestWriteCsv:
    def test_each_cell_type_has_its_exact_text(self, tmp_path):
        # Floats (np.float64 among them) take 17 significant digits, signs
        # of zero and infinity kept; bools are words, integers digits, and a
        # comma inside a string becomes a semicolon.
        row = [True, np.bool_(False), 7, np.int64(-3), "a,b", 0.1, np.float64(1 / 3),
               math.nan, math.inf, -math.inf, -0.0, 5e-324]
        path = tmp_path / "cells.csv"
        write_csv(path, ["c"] * len(row), [row])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == cli.UNIT_COMMENT and lines[1] == ",".join(["c"] * len(row))
        assert lines[2].split(",") == [
            "true", "false", "7", "-3", "a;b", "0.10000000000000001", "0.33333333333333331",
            "nan", "inf", "-inf", "-0", "4.9406564584124654e-324"]
        assert lines[3:] == [""]


class TestFreeCommand:
    def test_median_rides_the_center(self, tmp_path):
        code = run_cli(tmp_path, "free", "--p-list", "0.5",
                       "--t-max", "5", "--t-step", "1")
        assert code == 0
        header, rows = read_csv(tmp_path / "free_trajectories.csv")
        assert header == ["P", "t", "x_cdf", "v_cdf", "x_ode", "v_ode",
                          "discrepancy", "status"]
        assert len(rows) == 6
        for row in rows:
            t = float(row["t"])
            assert float(row["x_cdf"]) == pytest.approx(-10.0 + 2.0 * t,
                                                        abs=1e-9)
            assert float(row["v_cdf"]) == pytest.approx(2.0, abs=1e-9)
            assert row["status"] == "ok"

    def test_csv_bytes_are_stable_across_reruns(self, tmp_path):
        # Every CSV of a run, the spectral commands' included.
        for argv in (("free", "--p-list", "0.3,0.7", "--t-max", "3"),
                     ("tunnel", "--preset", "fig2", "--snapshot-times", "0,5"),
                     ("delta-p", "--preset", "fig2")):
            assert run_cli(tmp_path, *argv) == 0
            first = {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}
            assert run_cli(tmp_path, *argv) == 0
            assert {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")} == first

    def test_csv_uses_lf_endings_and_17_digits(self, tmp_path):
        assert run_cli(tmp_path, "free", "--p-list", "0.5",
                       "--t-max", "2") == 0
        raw = (tmp_path / "free_trajectories.csv").read_bytes()
        assert b"\r" not in raw
        _, rows = read_csv(tmp_path / "free_trajectories.csv")
        # Shortest-repr at 17 significant digits round-trips exactly.
        x = float(rows[1]["x_cdf"])
        assert format(x, ".17g") == rows[1]["x_cdf"]

    def test_manifest_written_next_to_csv(self, tmp_path):
        assert run_cli(tmp_path, "free", "--p-list", "0.5",
                       "--t-max", "2", "--out", "mine.csv") == 0
        manifest = read_manifest(tmp_path / "mine.csv")
        assert manifest["command"] == "free"
        assert manifest["config"]["p_list"] == [0.5]
        assert "wall_clock_s" in manifest
        assert checks_by_name(manifest)["method_equivalence"]["passed"]

    def test_manifest_names_versions(self, tmp_path):
        assert run_cli(tmp_path, "free", "--preset", "fig1") == 0
        versions = read_manifest(tmp_path / "free_trajectories.csv")["versions"]
        assert versions == {"quantracer": quantracer.__version__,
                            "python": platform.python_version(),
                            "numpy": np.__version__, "scipy": scipy.__version__}


class TestDissipativeCommand:
    def test_termination_row_has_exact_time(self, tmp_path):
        assert run_cli(tmp_path, "dissipative", "--p-list", "0.5",
                       "--t-max", "10", "--lambda", "0.1") == 0
        _, rows = read_csv(tmp_path / "dissipative_trajectories.csv")
        final = rows[-1]
        assert final["status"] == "norm_below_p"
        assert float(final["t"]) == pytest.approx(-math.log(0.5) / 0.1,
                                                  abs=1e-6)
        assert final["x_cdf"] == ""
        manifest = read_manifest(tmp_path / "dissipative_trajectories.csv")
        assert checks_by_name(manifest)["termination_time"]["passed"]

    def test_failed_check_exits_1(self, tmp_path):
        # The CDF and ODE routes part by more than 1e-5 at P = 0.67, whose
        # trajectory ends just after a grid time; the CSV is still written.
        assert run_cli(tmp_path, "dissipative", "--preset", "fig1",
                       "--p-list", "0.67") == 1
        manifest = read_manifest(tmp_path / "dissipative_trajectories.csv")
        assert not checks_by_name(manifest)["method_equivalence"]["passed"]

    def test_discrepancy_column_small(self, tmp_path):
        assert run_cli(tmp_path, "dissipative", "--p-list", "0.3",
                       "--t-max", "8", "--lambda", "0.1") == 0
        _, rows = read_csv(tmp_path / "dissipative_trajectories.csv")
        gaps = [float(r["discrepancy"]) for r in rows if r["discrepancy"]]
        assert gaps and max(gaps) <= 1e-5


class TestTunnelCommand:
    def test_zero_barrier_lag_vanishes(self, tmp_path):
        assert run_cli(tmp_path, "tunnel", "--p-list", "0.3,0.5",
                       "--t-max", "4", "--barrier-height", "0") == 0
        _, rows = read_csv(tmp_path / "tunnel_trajectories.csv")
        assert {float(r["P"]) for r in rows} == {0.3, 0.5}
        worst = max(abs(float(r["lag"])) for r in rows)
        assert worst <= 1e-6

    def test_snapshot_rows_do_not_follow_the_panel_lattice(self, tmp_path, monkeypatch):
        # The 1001 x per time span the packet's reach, not the support hint
        # snapped to the panel lattice: halving the lattice pitches moves
        # the hint but no row.
        argv = ("tunnel", "--p-list", "0.5", "--t-max", "4", "--snapshot-times", "0,2.5")
        dens = tmp_path / "tunnel_trajectories_density.csv"
        assert run_cli(tmp_path, *argv) == 0
        rows = dens.read_bytes()
        init = SpectralPacketModel.__init__

        def finer(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._pitch, self._pitch_right = 0.5 * self._pitch, 0.5 * self._pitch_right
        monkeypatch.setattr(SpectralPacketModel, "__init__", finer)
        assert run_cli(tmp_path, *argv) == 0
        assert dens.read_bytes() == rows

    def test_snapshot_blocks_normalized(self, tmp_path):
        assert run_cli(tmp_path, "tunnel", "--p-list", "0.5", "--t-max", "4",
                       "--snapshot-times", "0,2") == 0
        dens = tmp_path / "tunnel_trajectories_density.csv"
        header, rows = read_csv(dens)
        assert header == ["t", "x", "rho"]
        manifest = read_manifest(dens)
        names = checks_by_name(manifest)
        assert names["snapshot_mass_t0"]["passed"]
        assert names["snapshot_mass_t2"]["passed"]
        assert names["retardation_beyond_edge"]["detail"].startswith(
            "0 beyond-edge comparisons")
        # Trapezoid over the emitted block should also come out near 1.
        block = [(float(r["x"]), float(r["rho"])) for r in rows
                 if float(r["t"]) == 0.0]
        xs, ys = zip(*block)
        assert np.trapezoid(ys, xs) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("times", ["12", "1e300", "0,5,10"])
    def test_snapshots_size_the_grid(self, tmp_path, capsys, times):
        # The grid is sized for the latest snapshot as well as for t_max
        # (10): a snapshot at 12 runs (it exited 3, GridTooCoarse), one at
        # 1e300 needs more nodes than a float counts and exits 2 with one
        # line, and snapshots up to t_max leave the trajectory rows as they
        # are without snapshots.
        argv = ("tunnel", "--preset", "fig2")
        code = run_cli(tmp_path, *argv, "--snapshot-times", times)
        if times == "1e300":
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1
            assert "times up to 1e+300 need inf wave-number nodes" in err
            return
        assert code == 0
        names = checks_by_name(read_manifest(tmp_path / "tunnel_trajectories_density.csv"))
        assert all(names[f"snapshot_mass_t{t}"]["passed"] for t in times.split(","))
        if times == "0,5,10":
            rows = (tmp_path / "tunnel_trajectories.csv").read_bytes()
            assert run_cli(tmp_path, *argv) == 0
            assert (tmp_path / "tunnel_trajectories.csv").read_bytes() == rows

    @pytest.mark.parametrize("level", ["1e-12", "1e-13", "9.9e-7"])
    def test_level_below_the_crossing_floor_exits_2(self, tmp_path, capsys, level):
        # Below MIN_CROSSING_LEVEL the free quantile clamps at its support
        # hint's top while the tunneling hint runs on, which read as a lead
        # of 21.56 (FAILED: retardation_beyond_edge) at 1e-12; it is refused.
        assert run_cli(tmp_path, "tunnel", "--preset", "fig2", "--p-list", level) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "MIN_CROSSING_LEVEL = 1e-06" in err
        assert not any(tmp_path.iterdir())

    def test_fig2_preset_checks_transmitted_levels(self):
        # Levels below the transmitted fraction cross the barrier, so the
        # preset's retardation check compares something.
        cfg = resolve_config(build_parser().parse_args(["tunnel", "--preset", "fig2"]))
        packet = GaussianPacketParams(x_bar=cfg.x_bar, v_bar=cfg.v_bar,
                                      sigma_x0=cfg.sigma_x0, mass=cfg.mass)
        spectrum, grid = spectral_setup(packet, cfg.t_max)
        barrier = BarrierSpec(height=cfg.barrier_height,
                              half_width=cfg.barrier_halfwidth)
        transmitted = packet_transmission_probability(spectrum, barrier, grid,
                                                      mass=cfg.mass)
        assert min(cfg.p_list) < transmitted

    def test_wide_packet_runs_the_preset(self, tmp_path):
        # The transmitted pitch (about 2.09 sigma_x0) snaps this packet's
        # hint top at t = 0 out to 262.1; recommended_node_count sizes the
        # guard's rate at the reach plus that pitch, so the run passes.
        conf = tmp_path / "wide.conf"
        conf.write_text("sigma_x0 = 25\nt_max = 2\n", encoding="utf-8")
        assert run_cli(tmp_path, "tunnel", "--preset", "fig2", "--config", str(conf)) == 0

    def test_coarse_k_grid_exits_3(self, tmp_path):
        assert run_cli(tmp_path, "tunnel", "--p-list", "0.5",
                       "--t-max", "8", "--k-nodes", "64") == 3
        # Commands compute before main writes: a failed run leaves no file.
        assert not any(tmp_path.iterdir())


class TestDeltaPCommand:
    def test_small_grid_via_config(self, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text("delta_x = 0.5 1.0\ndelta_t = 3 6\nt_max = 6\n",
                        encoding="utf-8")
        assert run_cli(tmp_path, "delta-p", "--preset", "fig2",
                       "--config", str(conf)) == 0
        header, rows = read_csv(tmp_path / "delta_p_report.csv")
        assert header == ["x", "t", "dp_direct", "term1", "term2", "term3",
                          "dp_total", "agreement_rel", "positivity_ok"]
        assert len(rows) == 4
        for row in rows:
            direct = float(row["dp_direct"])
            total = float(row["dp_total"])
            parts = sum(float(row[k]) for k in ("term1", "term2", "term3"))
            assert parts == pytest.approx(total, rel=1e-12, abs=1e-15)
            assert abs(direct - total) <= max(1e-2 * abs(direct), 1e-6)
            assert row["positivity_ok"] == "true"
        manifest = read_manifest(tmp_path / "delta_p_report.csv")
        names = checks_by_name(manifest)
        assert names["positivity"]["passed"]
        assert names["route_agreement"]["passed"]

    @pytest.mark.parametrize("t_max", ["2", "5"])
    def test_short_t_max_runs_the_default_grid(self, tmp_path, t_max):
        # The default report runs to t = 10 whatever t_max is, so the
        # wave-number grid is sized for the later of the two.
        assert run_cli(tmp_path, "delta-p", "--t-max", t_max) == 0
        _, rows = read_csv(tmp_path / "delta_p_report.csv")
        assert len(rows) == 132 and max(float(r["t"]) for r in rows) == 10.0

    def test_report_time_beyond_the_node_limit_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "dp.conf"
        conf.write_text("delta_t = 3 1000\n", encoding="utf-8")
        assert run_cli(tmp_path, "delta-p", "--t-max", "2", "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "wave-number nodes" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dp.conf"]

    def test_node_count_is_printed_in_three_digits(self, tmp_path, capsys):
        # x_bar = 1e300 needs a 300-digit node count, printed to 3 digits.
        conf = tmp_path / "far.conf"
        conf.write_text("x_bar = 1e300\n", encoding="utf-8")
        assert run_cli(tmp_path, "tunnel", "--t-max", "2", "--config", str(conf)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "need 1.2e+300 wave-number nodes" in err

    @pytest.mark.parametrize("width", ["1000", "1e6"])
    def test_wide_packet_runs_the_preset(self, tmp_path, width):
        # A wide packet's hint doubles the left panel pitch many times.  The
        # transmitted pitch must not scale with it: scaled by the same
        # factor it puts the hint top at |x| = 3.35e4 for sigma_x0 = 1000,
        # beyond the reach of the wave-number grid (GridTooCoarse, exit 3).
        conf = tmp_path / "wide.conf"
        conf.write_text(f"sigma_x0 = {width}\n", encoding="utf-8")
        assert run_cli(tmp_path, "delta-p", "--preset", "fig2", "--config", str(conf)) == 0

    def test_x_inside_barrier_exits_2(self, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text("delta_x = 0.1\ndelta_t = 3\n", encoding="utf-8")
        assert run_cli(tmp_path, "delta-p", "--preset", "fig2",
                       "--config", str(conf)) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dp.conf"]


class TestSphere3DCommand:
    def test_rows_and_conservation(self, tmp_path):
        assert run_cli(tmp_path, "sphere3d", "--preset", "fig3") == 0
        header, rows = read_csv(tmp_path / "sphere3d_flowmap.csv")
        assert header == ["seed_id", "t", "x", "y", "z", "enclosed_p"]
        assert len(rows) == 26 * 11
        enclosed = {float(r["enclosed_p"]) for r in rows}
        assert max(enclosed) - min(enclosed) <= 1e-4
        manifest = read_manifest(tmp_path / "sphere3d_flowmap.csv")
        assert checks_by_name(manifest)["conservation_3d"]["passed"]

    def test_zero_velocity_keeps_sphere_centered(self, tmp_path):
        conf = tmp_path / "s.conf"
        conf.write_text("velocity = 0 0 0\nt_max = 4\nt_step = 2\n"
                        "radius = 2.5\n", encoding="utf-8")
        assert run_cli(tmp_path, "sphere3d", "--config", str(conf)) == 0
        _, rows = read_csv(tmp_path / "sphere3d_flowmap.csv")
        by_time = {}
        for r in rows:
            xyz = np.array([float(r["x"]), float(r["y"]), float(r["z"])])
            by_time.setdefault(float(r["t"]), []).append(np.linalg.norm(xyz))
        for t, radii in by_time.items():
            assert max(radii) - min(radii) <= 1e-5


class TestVerifyCommand:
    def test_quick_passes_fast(self, tmp_path):
        import time
        start = time.perf_counter()
        assert run_cli(tmp_path, "verify", "--quick") == 0
        assert time.perf_counter() - start < 60.0
        header, rows = read_csv(tmp_path / "verify_report.csv")
        assert header == ["check", "passed", "detail"]
        assert {r["check"] for r in rows} >= {
            "method_equivalence", "unitarity", "continuity", "retardation",
            "delta_p_agreement", "conservation_3d", "trajectory_roundtrip"}
        assert all(r["passed"] == "true" for r in rows)

    def test_roundtrip_reinverts_spectral_quantiles(self, monkeypatch):
        # A spectral table whose edge tails (what the table solve reads, with
        # the node values) are off by 1e-5 fails only the check that
        # compares its inversions with the independent tail().
        build = wavepacket.adaptive_panels
        monkeypatch.setattr(wavepacket, "adaptive_panels", lambda *args: [
            replace(table, upper=table.upper + 1e-5) for table in build(*args)])
        cfg = ScenarioConfig(quick=True)
        passed, detail = _check_trajectory_roundtrip(cfg, Tolerances(),
                                                     _verify_pair(cfg, Tolerances()))
        assert not passed and "worst |tail - P| = 1.0" in detail

    @pytest.mark.parametrize("height", [0.0, 1e3])
    def test_roundtrip_levels_exist_for_any_barrier(self, height):
        # Transmitted fraction 1 (no barrier) or ~0 (opaque) still gives
        # two spectral levels inside (0, 1).
        cfg = ScenarioConfig(quick=True, barrier_height=height)
        passed, detail = _check_trajectory_roundtrip(cfg, Tolerances(),
                                                     _verify_pair(cfg, Tolerances()))
        assert passed, detail

    @pytest.mark.parametrize("quick", [True, False])
    def test_retardation_needs_comparisons_at_a_passing_barrier(self, quick,
                                                               monkeypatch):
        # The stock barrier passes T = 0.0216, so levels below it cross and
        # must be compared; a scan that compares nothing there fails.
        cfg = ScenarioConfig(quick=quick)
        pair = _verify_pair(cfg, Tolerances())
        passed, detail = _check_retardation(cfg, Tolerances(), pair)
        assert passed and int(detail.split()[0]) > 0, detail
        scan = cli.retardation_scan
        monkeypatch.setattr(cli, "retardation_scan", lambda *args, **kwargs: [
            replace(v, checked=0) for v in scan(*args, **kwargs)])
        passed, detail = _check_retardation(cfg, Tolerances(), pair)
        assert not passed and detail.startswith("0 beyond-edge comparisons")

    @pytest.mark.parametrize("quick", [True, False])
    def test_spectral_checks_share_one_pair(self, tmp_path, monkeypatch, quick):
        # One k-grid and one (free, tunneling) pair, sized for t = 8, serve
        # the five spectral checks; each check once built its own.
        setups, models = [], []
        setup, init = cli.spectral_setup, SpectralPacketModel.__init__
        monkeypatch.setattr(cli, "spectral_setup", lambda *args, **kwargs:
                            setups.append(args) or setup(*args, **kwargs))
        monkeypatch.setattr(SpectralPacketModel, "__init__", lambda self, *args, **kwargs:
                            models.append(args) or init(self, *args, **kwargs))
        assert run_cli(tmp_path, "verify", *["--quick"] * quick) == 0
        assert len(setups) == 1 and setups[0][1] == 8.0 and len(models) == 2

    def test_oversized_shared_grid_exits_2(self, tmp_path, capsys):
        # sigma_x0 = 0.1 needs 7004 nodes at t = 8: the run is refused with
        # one line, where each spectral check used to fail on its own.
        conf = tmp_path / "narrow.conf"
        conf.write_text("sigma_x0 = 0.1\n", encoding="utf-8")
        assert run_cli(tmp_path, "verify", "--quick", "--config", str(conf)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "times up to 8 need 7e+03 wave-number nodes" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["narrow.conf"]

    @pytest.mark.parametrize("command", ["tunnel", "delta-p", "verify"])
    @pytest.mark.parametrize("config, t_max, nodes", [
        ("v_bar = 5\nbarrier_halfwidth = 3\n", "6", ("5.64e+03", "5.67e+03", "5.65e+03")),
        ("x_bar = -20\nv_bar = 3\nsigma_x0 = 5\nbarrier_height = 4.4\nbarrier_halfwidth = 5\n",
         "12", ("6.27e+03", "6.27e+03", "6.26e+03"))], ids=["v5-a3", "v3-a5"])
    def test_a_resonant_barrier_is_refused_up_front(self, tmp_path, capsys, command, config,
                                                    t_max, nodes):
        # T's nearest pole lies on the ellipse rho = 1.0041 (1.0037) of the
        # band, so the grid needs thousands of nodes where the phase alone
        # asks for about 100.  tunnel sizes for t_max, delta-p for its last
        # report time (10) and verify for 8.
        conf = tmp_path / "resonant.conf"
        conf.write_text(config, encoding="utf-8")
        assert run_cli(tmp_path, command, "--t-max", t_max, "--config", str(conf)) == 2
        err = capsys.readouterr().err
        n = nodes[["tunnel", "delta-p", "verify"].index(command)]
        assert err.count("\n") == 1 and f"need {n} wave-number nodes" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["resonant.conf"]

    def test_opaque_barrier_passes_retardation_vacuously(self, tmp_path):
        # At 1000 eV no level crosses; verify states the count and T.
        assert run_cli(tmp_path, "verify", "--quick",
                       "--barrier-height", "1000") == 0
        _, rows = read_csv(tmp_path / "verify_report.csv")
        detail = {r["check"]: r["detail"] for r in rows}["retardation"]
        assert detail.startswith("0 beyond-edge comparisons")
        transmitted = float(re.search(r"T = (\S+);", detail).group(1))
        assert 0.0 <= transmitted < MIN_CROSSING_LEVEL

    @pytest.mark.parametrize("flag", ["--barrier-halfwidth", "--barrier-height"])
    def test_overflowing_barrier_passes_no_barrier_check(self, tmp_path, capsys,
                                                         flag):
        # NaN coefficients once read as "max residual = 0" and "T = nan".
        assert run_cli(tmp_path, "verify", "--quick", flag, "1e300") == 1
        out = capsys.readouterr().out
        for name in ("continuity", "retardation"):
            assert (f"[FAIL] {name}: raised QuantracerError: barrier "
                    "coefficients overflow") in out

    def test_delta_p_points_follow_the_barrier_edge(self, tmp_path):
        # The points sit at a + 0.7 (quick), beyond any barrier edge, and
        # the detail states the worst gap as a share of its bound.
        assert run_cli(tmp_path, "verify", "--quick",
                       "--barrier-halfwidth", "2") == 0
        _, rows = read_csv(tmp_path / "verify_report.csv")
        detail = {r["check"]: r["detail"] for r in rows}["delta_p_agreement"]
        share = float(re.search(r"worst \|direct - total\| = (\S+) of max\(1% "
                                r"\|direct\|; 1e-6\)", detail).group(1))
        assert 0.0 <= share <= 1.0

    def test_nan_current_fails_continuity(self, tmp_path, monkeypatch, capsys):
        # A NaN residual must fail its check, not fold away as 0.
        monkeypatch.setattr(SpectralPacketModel, "current",
                            lambda self, x, t: np.full(np.shape(x), np.nan))
        assert run_cli(tmp_path, "verify", "--quick") == 1
        out = capsys.readouterr().out
        assert "[FAIL] continuity: max residual = nan" in out
        assert "continuity" in out.splitlines()[-1]

    def test_injected_fault_fails_continuity(self, tmp_path):
        assert run_cli(tmp_path, "verify", "--quick",
                       "--inject-fault", "flip-current") == 1
        _, rows = read_csv(tmp_path / "verify_report.csv")
        verdicts = {r["check"]: r["passed"] for r in rows}
        assert verdicts["continuity"] == "false"
        failed = {k for k, v in verdicts.items() if v == "false"}
        assert failed == {"continuity"}
