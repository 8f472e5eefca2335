"""Tests for the command-line runner."""

import argparse
import math
import tracemalloc
from unittest import mock

import pytest

from zenosim import IntegrationError, IonConfig, cli, lindblad_p2, parse_config
from zenosim.cli import main
from zenosim.sweep import lindblad_setups

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
        with mock.patch("zenosim.sweep.final_state", side_effect=AssertionError("integrated")):
            assert main(["ion", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than the limit 1e+08" in captured.err

    def test_integration_failure_names_row(self, tmp_path, capsys):
        cfg = tmp_path / "full.cfg"
        cfg.write_text("[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[sweep]\nn_list = 2\nlindblad = true\n")
        failure = IntegrationError("state lost unit trace (residue 1.000e-01)", time=0.25)
        setup, = lindblad_setups(parse_config(cfg), [2])
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
        assert err.startswith("config error: lindblad.integrator_step")
        assert len(err.splitlines()) == 1

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
        with mock.patch("zenosim.sweep.final_state", side_effect=AssertionError("integrated")):
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
