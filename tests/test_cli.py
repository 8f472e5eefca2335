"""Tests for the command-line runner."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

import zenosim
from zenosim import IntegrationError, IonConfig, LindbladConfig, PulseSchedule, cli, lindblad_p2
from zenosim import NeutronRow, SweepRow, errors, sweep
from zenosim.cli import main

ION_HEADER = "n,p2_projection,p2_asymptotic,p2_limited,p2_lindblad,regime_flag"

ION_CFG = """
[ion]
omega = 1.0
tau_sp = 0.1

[sweep]
n_list = 1, 2, 4
"""

NEUTRON_CFG = """
[neutron]
delta_e_m = 0.4
delta_e_k = 1.0

[sweep]
n_list = 1, 2, 15
"""


def no_row_integrated():
    """A patch under which integrating any Lindblad row fails the test."""
    return mock.patch("zenosim.sweep.final_state", side_effect=AssertionError("integrated"))


@pytest.fixture
def ion_cfg(tmp_path):
    path = tmp_path / "ion.cfg"
    path.write_text(ION_CFG)
    return path


@pytest.fixture
def neutron_cfg(tmp_path):
    path = tmp_path / "neutron.cfg"
    path.write_text(NEUTRON_CFG)
    return path


class TestIonCommand:
    def test_stdout_table(self, ion_cfg, capsys):
        assert main(["ion", "--config", str(ion_cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ION_HEADER
        assert lines[1].startswith("1,1,")
        assert len(lines) == 4

    def test_out_file_and_n_list_override(self, ion_cfg, tmp_path):
        target = tmp_path / "out.csv"
        code = main(
            ["ion", "--config", str(ion_cfg), "--n-list", "8", "--out", str(target)]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("8,")

    def test_output_flags_beat_output_section(self, tmp_path, capsys):
        configured, other = tmp_path / "configured.json", tmp_path / "other.csv"
        cfg = tmp_path / "out.cfg"
        cfg.write_text(ION_CFG + f"\n[output]\nformat = json\npath = {configured}\n")
        assert main(["ion", "--config", str(cfg)]) == 0
        assert configured.read_text().startswith("{")
        assert capsys.readouterr().out == ""
        configured.unlink()
        assert main(["ion", "--config", str(cfg), "--format", "csv", "--out", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == ION_HEADER
        assert main(["ion", "--config", str(cfg), "--out", str(other)]) == 0
        assert other.read_text().startswith("{")
        assert not configured.exists()

    def test_json_format(self, ion_cfg, tmp_path, capsys):
        assert main(["ion", "--config", str(ion_cfg), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")
        assert '"rows"' in out and '"metadata"' in out

    def test_repeat_runs_byte_identical(self, ion_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["ion", "--config", str(ion_cfg), "--out", str(a)]) == 0
        assert main(["ion", "--config", str(ion_cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[ion]\nomega = -2\n")
        assert main(["ion", "--config", str(bad)]) == 1
        assert "ion.omega" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["ion", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_unwritable_out_path(self, ion_cfg, tmp_path, capsys):
        target = tmp_path / "no" / "dir" / "out.csv"
        assert main(["ion", "--config", str(ion_cfg), "--out", str(target)]) == 1

    @pytest.mark.parametrize("command", ["ion", "neutron"])
    @pytest.mark.parametrize("out", ["", "  "])
    def test_empty_out_refused_before_any_row(self, command, out, tmp_path, capsys):
        # as an empty [output] path is; a lindblad row must not be integrated first
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[neutron]\ndelta_e_m = 0.4\ndelta_e_k = 1.0\n\n"
            "[sweep]\nn_list = 2, 4\nlindblad = true\n"
        )
        with no_row_integrated():
            assert main([command, "--config", str(cfg), "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --out: must not be empty\n"

    def test_format_flag_read_as_output_key(self, tmp_path, capsys):
        # any case and stripped, as [output] format and path are; a bad value before any row runs
        cfg = tmp_path / "full.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[sweep]\nn_list = 2\nlindblad = true\n")
        lower, upper = tmp_path / "lower.json", tmp_path / "upper.json"
        with mock.patch("zenosim.sweep.datetime") as clock:
            clock.now.return_value.isoformat.return_value = "2000-01-01T00:00:00+00:00"
            assert main(["ion", "--config", str(cfg), "--format", "json", "--out", str(lower)]) == 0
            args = ["--format", " JSON ", "--out", f" {upper} "]
            assert main(["ion", "--config", str(cfg), *args]) == 0
        assert upper.read_bytes() == lower.read_bytes()
        with no_row_integrated():
            assert main(["ion", "--config", str(cfg), "--format", "xml"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --format: must be one of ('csv', 'json'), got 'xml'\n"

    def test_underflowing_bound_exit_code(self, tmp_path, capsys):
        # omega * tau_sp underflows to 0, so pi / (omega * tau_sp) has no finite floor
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[ion]\nomega = 1e-200\ntau_sp = 1e-200\n\n[sweep]\nn_list = 1\n")
        assert main(["ion", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: bound ")

    def test_lindblad_rows_checked_before_any_is_integrated(self, tmp_path, capsys):
        # n = 50000 needs 1.26e8 steps; n = 500 must not be integrated first
        cfg = tmp_path / "full.cfg"
        cfg.write_text(
            "[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[sweep]\nn_list = 500, 50000\nlindblad = true\n"
        )
        with no_row_integrated():
            assert main(["ion", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than the limit 1e+08" in captured.err

    def test_integration_failure_names_row(self, tmp_path, capsys):
        cfg = tmp_path / "full.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[sweep]\nn_list = 2\nlindblad = true\n")
        failure = IntegrationError("state lost unit trace (residue 1.000e-01)", time=0.25)
        ion = IonConfig(1.0, 0.1, 2)
        setup = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        with mock.patch("zenosim.sweep.final_state", side_effect=failure):
            with pytest.raises(IntegrationError) as err:
                lindblad_p2(setup)
            assert err.value.message == "row n=2: state lost unit trace (residue 1.000e-01)"
            assert err.value.time == 0.25
            assert main(["ion", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: row n=2: state lost unit trace (residue 1.000e-01) (at t=0.25)\n"
        )


class TestNeutronCommand:
    def test_table(self, neutron_cfg, capsys):
        assert main(["neutron", "--config", str(neutron_cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,p_up_ideal,p_up_limited,regime_flag"
        assert len(lines) == 4
        assert lines[3].startswith("15,")

    def test_underflowing_bound_exit_code(self, tmp_path, capsys):
        # phi0 = dE_m / (4 dE_k) underflows to 0
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[neutron]\ndelta_e_m = 1e-300\ndelta_e_k = 1e300\n\n[sweep]\nn_list = 1\n"
        )
        assert main(["neutron", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("numeric failure: bound ")

    def test_bound_past_float_range(self, tmp_path, capsys):
        # n_max = pi / (2 phi0) is about 1.57e308, so 2 n_max is past the float range
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[neutron]\ndelta_e_m = 4e-308\ndelta_e_k = 1.0\n\n[sweep]\nn_list = 1\n")
        assert main(["neutron", "--config", str(cfg), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["p_up_at_n_max"] == 1.0

    def test_missing_section_exit_code(self, ion_cfg, capsys):
        assert main(["neutron", "--config", str(ion_cfg)]) == 1
        assert capsys.readouterr().err == "config error: neutron: section [neutron] is required\n"

    def test_half_pi_angle_exit_code(self, tmp_path, capsys):
        # phi0 = 2 pi / 4 = pi/2: no admissible count, rather than a traceback
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            "[neutron]\ndelta_e_m = 6.283185307179586\ndelta_e_k = 1.0\n\n[sweep]\nn_list = 1\n"
        )
        assert main(["neutron", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: phi0 = 1.5708 is not below pi/2")
        assert len(captured.err.splitlines()) == 1


class TestValidateCommand:
    def test_good_config(self, ion_cfg, capsys):
        assert main(["validate", "--config", str(ion_cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[ion]\nomega = 1.0\nbogus_key = 7\n")
        assert main(["validate", "--config", str(bad)]) == 1
        assert "ion.bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "ion"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(ION_CFG.encode() + b"; caf\xe9\n")
        assert main([command, "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {bad}: malformed config file: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        (ION_CFG + "\n[output]\npath =\n", "output.path: must not be empty"),
        (ION_CFG.replace("1, 2, 4", "1" + "0" * 320), "sweep.n_list: must be at most 1.798e+308"),
        (ION_CFG.replace("0.1", "0_1"), "ion.tau_sp: not a number: '0_1'"),
        (ION_CFG.replace("1, 2, 4", "1_6, \u0663"), "sweep.n_list: not an integer: '1_6'"),
        ("[DEFAULT]\nomega = 1.0\n", "DEFAULT.omega: unknown key"),
    ], ids=["empty-output-path", "count-past-float-range", "underscore-number", "underscore-count",
            "default-key"])
    def test_value_refused_before_any_run(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestLindbladCheckCommand:
    def test_projective_regime_agrees(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        # lifetime = (T/2)/20 so two measurements sit in the projective regime
        cfg.write_text(
            f"[ion]\nomega = 1.0\ntau_sp = {(math.pi / 2) / 20}\n"
        )
        assert main(["lindblad-check", "--config", str(cfg), "--n-list", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,p2_projection,p2_lindblad,abs_deviation")
        assert "max deviation" in out

    def test_sluggish_measurement_fails(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        # lifetime comparable to the spacing: measurements overlap and the
        # closed form no longer applies
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 1.5\n")
        assert main(["lindblad-check", "--config", str(cfg), "--n-list", "4"]) == 2

    def test_infinite_step_count_rejected(self, tmp_path, capsys):
        # t_pi = pi / 1e-200 over a step of tau_sp / 20 is an infinite step count
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[ion]\nomega = 1e-200\ntau_sp = 1e-200\n")
        assert main(["lindblad-check", "--config", str(cfg), "--n-list", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: gives inf steps over t_pi")
        assert len(err.splitlines()) == 1

    def test_empty_n_list_refused(self, tmp_path, capsys):
        # a check of no row would pass; an empty --n-list replaces the file's list, then is refused
        cfg = tmp_path / "check.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n[sweep]\nn_list = 2\n")
        with no_row_integrated():
            assert main(["lindblad-check", "--config", str(cfg), "--n-list", ","]) == 1
        assert capsys.readouterr() == ("", "config error: --n-list: must name at least one count\n")

    def test_empty_config_n_list_refused(self, tmp_path, capsys):
        cfg = tmp_path / "check.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n[sweep]\nn_list = ,\n")
        with no_row_integrated():
            assert main(["lindblad-check", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", "config error: sweep.n_list: must name at least one count\n"
        )

    def test_integration_failure_prints_no_row(self, tmp_path, capsys):
        # the table is printed once every row is integrated, so the n = 2 row is not shown
        cfg = tmp_path / "check.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n")
        real = sweep.final_state

        def fail_at_four(setup, rho0):
            if setup.ion.n_pulses == 4:
                raise IntegrationError("state lost unit trace (residue 1.000e-01)", time=0.5)
            return real(setup, rho0)

        with mock.patch("zenosim.sweep.final_state", side_effect=fail_at_four):
            assert main(["lindblad-check", "--config", str(cfg), "--n-list", "2,4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: row n=4: state lost unit trace (residue 1.000e-01) (at t=0.5)\n"
        )

    def test_beyond_bound_prints_no_table(self, tmp_path, capsys):
        # omega * tau_sp > pi leaves no admissible count, as `zenosim ion` reports
        cfg = tmp_path / "check.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 4.0\n")
        assert main(["lindblad-check", "--config", str(cfg), "--n-list", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: omega*tau_sp = 4 exceeds pi")

    def test_bad_row_prints_nothing(self, tmp_path, capsys):
        # every row's setup is checked before the header is printed
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[ion]\nomega = 1e-200\ntau_sp = 1e-200\n")
        assert main(["lindblad-check", "--config", str(cfg)]) in (1, 2)
        assert capsys.readouterr().out == ""

    def test_step_count_limit_rejected_up_front(self, tmp_path, capsys):
        # 6.3e13 RK4 steps would run for days; no integration may start
        cfg = tmp_path / "fast_decay.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 1e-12\n")
        with no_row_integrated():
            assert main(["lindblad-check", "--config", str(cfg), "--n-list", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "6.28e+13 steps over t_pi, more than the limit 1e+08" in captured.err

    def test_large_count_refused_at_once(self, tmp_path, capsys):
        # n = 1e6 needs 2.51e9 steps plus one per segment; refusing it costs what n = 2 does
        cfg = tmp_path / "check.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n")
        tracemalloc.start()
        try:
            code = main(["lindblad-check", "--config", str(cfg), "--n-list", "2,1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 1_000_000
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2.52e+09 steps over t_pi, more than the limit 1e+08" in captured.err


@pytest.mark.parametrize("command", ["ion", "neutron", "lindblad-check"])
def test_count_past_float_range_is_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "both.cfg"
    cfg.write_text(ION_CFG + NEUTRON_CFG.replace("[sweep]\nn_list = 1, 2, 15\n", ""))
    assert main([command, "--config", str(cfg), "--n-list", "1" + "0" * 320]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --n-list: must be at most 1.798e+308\n"


@pytest.mark.parametrize("n_list", ["1_6", "\u0663", "2, 1_6", "\uff12"], ids=ascii)
@pytest.mark.parametrize("command", ["ion", "neutron", "lindblad-check"])
def test_count_not_plain_ascii_is_config_error(tmp_path, capsys, command, n_list):
    # int() would read 1_6 as 16 and an Arabic-Indic or fullwidth digit as its value
    cfg = tmp_path / "both.cfg"
    cfg.write_text(ION_CFG + NEUTRON_CFG.replace("[sweep]\nn_list = 1, 2, 15\n", ""))
    with no_row_integrated():
        assert main([command, "--config", str(cfg), "--n-list", n_list]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --n-list: not an integer: {n_list.split(', ')[-1]!r}\n"


@pytest.mark.parametrize("schedule, n, field, fault", [
    ("pulse_duration_fraction = 5e-324", 1000, "schedule.pulse_duration_fraction", "overflows"),
    ("pulse_area = 1e308", 4, "schedule.pulse_area", "overflows"),
    ("pulse_duration_fraction = 1e-320", 4, "schedule.pulse_duration_fraction", "overflows"),
    ("pulse_duration_fraction = 0.9\npulse_area = 5e-324", 1, "schedule.pulse_area", "underflows"),
], ids=["pulse-underflows-to-zero", "area-overflows-rabi", "subnormal-pulse-overflows-rabi",
        "area-underflows-rabi"])
@pytest.mark.parametrize("command", ["ion", "lindblad-check"])
def test_optical_rabi_past_float_range_is_config_error(
    tmp_path, capsys, schedule, n, field, fault, command
):
    # the optical Rabi frequency pulse_area / pulse length is 0-divided, overflows or underflows
    cfg = tmp_path / "pulse.cfg"
    cfg.write_text(f"{ION_CFG}\nlindblad = true\n\n[schedule]\n{schedule}\n")
    with no_row_integrated():
        assert main([command, "--config", str(cfg), "--n-list", str(n)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {field}: gives an optical Rabi frequency ")
    assert captured.err.endswith(f" that {fault}\n")


DEFAULT_STEP = ", 1/20 of the shortest of 1/omega, tau_sp and 1/(optical Rabi frequency)"
STEP_ION = "[ion]\nomega = 1.0\ntau_sp = 0.1\n\n"


@pytest.mark.parametrize("command, text, message", [
    ("lindblad-check", STEP_ION + "[schedule]\npulse_area = 1e300\n",
     "gives 3.2e+303 steps over t_pi, more than the limit 1e+08 with the default step 9.82e-304"
     + DEFAULT_STEP),
    ("lindblad-check", "[ion]\nomega = 1.0\ntau_sp = 1e-12\n",
     "gives 6.28e+13 steps over t_pi, more than the limit 1e+08 with the default step 5e-14"
     + DEFAULT_STEP),
    ("ion", "[ion]\nomega = 1e-300\ntau_sp = 1\n\n[sweep]\nlindblad = true\n",
     "gives 6.28e+301 steps over t_pi, more than the limit 1e+08 with the default step 0.05"
     + DEFAULT_STEP),
    ("lindblad-check", "[ion]\nomega = 1.0\ntau_sp = 1e-320\n",
     "gives inf steps over t_pi, more than the limit 1e+08 with the default step 0" + DEFAULT_STEP),
    ("ion", "[ion]\nomega = 1e-200\ntau_sp = 1e-200\n\n[sweep]\nlindblad = true\n",
     "gives inf steps over t_pi, more than the limit 1e+08 with the default step 5e-202"
     + DEFAULT_STEP),
    ("lindblad-check", STEP_ION + "[schedule]\nintegrator_step = 1\n",
     "schedule.integrator_step: must be in (0, 0.0003125] to resolve the fastest timescale"),
    ("lindblad-check", STEP_ION + "[schedule]\nintegrator_step = 1e-12\n",
     "schedule.integrator_step: gives 3.14e+12 steps over t_pi, more than the limit 1e+08"),
], ids=["huge-pulse-area", "short-lifetime", "slow-drive", "default-step-underflows",
        "step-limit-before-bound", "step-too-large", "step-too-small"])
def test_step_refusal_names_a_config_key(tmp_path, capsys, command, text, message):
    # A refused step names the file's [schedule] integrator_step when one was
    # set, and otherwise says where the default step comes from.
    cfg = tmp_path / "step.cfg"
    cfg.write_text(text)
    with no_row_integrated():
        assert main([command, "--config", str(cfg), "--n-list", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("argv", [
    [],
    ["ion"],
    ["ion", "--config", "f.cfg", "--bogus"],
    ["lindblad-check", "--config", "f.cfg", "--n-list"],
], ids=["no-command", "no-config", "unknown-flag", "flag-without-value"])
def test_usage_error_exit_code(argv, capsys):
    # 2 is the code of a numeric failure; argparse's usage line and message still explain
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: zenosim")
    assert "error: " in captured.err


def test_help_exit_code(capsys):
    assert main(["ion", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_run_as_a_module(ion_cfg, tmp_path):
    # python -m zenosim.cli, as README documents it, exits with main's code
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        command = [sys.executable, "-m", "zenosim.cli", *argv]
        return subprocess.run(command, capture_output=True, text=True, timeout=120, env=env)

    bad = tmp_path / "bad.cfg"
    bad.write_text("[ion]\nomega = 1.0\nbogus_key = 7\n")
    usage, good, config_error = run("--help"), *(run("validate", "--config", str(cfg)) for cfg in (ion_cfg, bad))
    assert (usage.returncode, good.returncode, config_error.returncode) == (0, 0, 1)
    assert usage.stdout.startswith("usage: zenosim") and good.stdout == f"{ion_cfg}: OK\n"
    assert (config_error.stdout, config_error.stderr) == ("", "config error: ion.bogus_key: unknown key\n")


class TestFixedCosts:
    """Work that a table pays once, not per row or per call."""

    def test_one_ion_config_per_table(self, ion_cfg, capsys):
        real = IonConfig.__post_init__
        with mock.patch.object(IonConfig, "__post_init__", autospec=True, side_effect=real) as post:
            counts = ",".join(map(str, range(1, 51)))
            assert main(["ion", "--config", str(ion_cfg), "--n-list", counts]) == 0
        assert post.call_count == 1
        assert len(capsys.readouterr().out.splitlines()) == 51

    def test_parser_built_once(self, ion_cfg, capsys):
        real = argparse.ArgumentParser.__init__
        cli._build_parser.cache_clear()
        with mock.patch.object(
            argparse.ArgumentParser, "__init__", autospec=True, side_effect=real
        ) as init:
            for _ in range(3):
                assert main(["validate", "--config", str(ion_cfg)]) == 0
        assert sum(c.kwargs.get("prog") == "zenosim" for c in init.call_args_list) == 1

    def test_no_count_check_or_row_init_per_count(self, ion_cfg, neutron_cfg, tmp_path, monkeypatch):
        # counts are checked as whole lists, rows are built and read back as records
        calls = dict.fromkeys(["check_count", "SweepRow", "NeutronRow"], 0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        check_count = errors.check_count
        for name in ("errors", "config", "dynamics", "ion", "neutron", "sweep"):
            module = importlib.import_module(f"zenosim.{name}")
            if getattr(module, "check_count", None) is check_count:
                monkeypatch.setattr(module, "check_count", counted("check_count", check_count))
        for row_type in (SweepRow, NeutronRow):
            monkeypatch.setattr(row_type, "__init__", counted(row_type.__name__, row_type.__init__))
        counts = ",".join(map(str, range(500, 0, -1)))
        for command, cfg in [("ion", ion_cfg), ("neutron", neutron_cfg)]:
            for fmt in ("csv", "json"):
                out = tmp_path / f"{command}.{fmt}"
                argv = [command, "--config", str(cfg), "--n-list", counts, "--format", fmt, "--out", str(out)]
                assert main(argv) == 0
            assert len(sweep.load_result(out).rows) == 500
        # the one check left is IonConfig's, of the count 1 each ion table's parameters are built with
        assert calls == {"check_count": 2, "SweepRow": 0, "NeutronRow": 0}
