"""Tests for sweeps, emission formats, and the runner config layer."""

import io
import json
import math

import numpy as np
import pytest

from zenosim import (
    ConfigError,
    NeutronConfig,
    NeutronRow,
    RunConfig,
    SweepResult,
    SweepRow,
    emit,
    load_result,
    parse_config,
    run_ion_sweep,
    run_neutron_sweep,
)
from zenosim.config import parse_n_list

ION_HEADER = "n,p2_projection,p2_asymptotic,p2_limited,p2_lindblad,regime_flag"


def ion_config(**overrides) -> RunConfig:
    base = dict(ion_omega=1.0, ion_tau_sp=0.1, n_list=(1, 2, 4))
    base.update(overrides)
    return RunConfig(**base)


def neutron_config(phi0=0.1, **overrides) -> RunConfig:
    base = dict(
        neutron=NeutronConfig(delta_e_m=4.0 * phi0, delta_e_k=1.0), n_list=(1, 2)
    )
    base.update(overrides)
    return RunConfig(**base)


class TestIonSweep:
    def test_projection_column(self):
        result = run_ion_sweep(ion_config())
        assert [row.p2_projection for row in result.rows] == pytest.approx(
            [1.0, 0.5, 0.375], abs=1e-15
        )
        assert [row.n for row in result.rows] == [1, 2, 4]

    def test_limited_equals_projection_when_valid(self):
        result = run_ion_sweep(ion_config(n_list=tuple(range(1, 40))))
        for row in result.rows:
            if row.regime_flag == "valid":
                assert row.p2_limited == row.p2_projection

    def test_rows_beyond_bound_flagged(self):
        result = run_ion_sweep(ion_config(n_list=(1, 31, 32, 100)))
        flags = {row.n: row.regime_flag for row in result.rows}
        # omega*tau_sp = 0.1 admits floor(pi/0.1) = 31 measurements
        assert result.metadata["n_max"] == 31
        assert flags == {1: "valid", 31: "valid", 32: "ill-defined", 100: "ill-defined"}

    def test_numpy_counts_emit_like_ints(self):
        tables = []
        for counts in ((1, 2, 4), tuple(np.int64(n) for n in (4, 2, 1))):
            buffer = io.StringIO()
            emit(run_ion_sweep(ion_config(n_list=counts)), format="json", destination=buffer)
            tables.append(json.loads(buffer.getvalue())["rows"])
        assert tables[0] == tables[1]
        with pytest.raises(ConfigError, match="sweep.n_list"):
            run_ion_sweep(ion_config(n_list=(True, 2)))

    def test_empty_sweep_keeps_metadata(self):
        result = run_ion_sweep(ion_config(n_list=()))
        assert result.rows == ()
        assert result.metadata["n_max"] == 31
        assert result.columns() == tuple(ION_HEADER.split(","))

    def test_disjoint_sweeps_concatenate(self):
        low = run_ion_sweep(ion_config(n_list=(1, 2, 3)))
        high = run_ion_sweep(ion_config(n_list=(4, 5)))
        combined = run_ion_sweep(ion_config(n_list=(1, 2, 3, 4, 5)))
        assert low.rows + high.rows == combined.rows

    def test_lindblad_column_off_by_default(self):
        result = run_ion_sweep(ion_config())
        assert all(row.p2_lindblad is None for row in result.rows)

    def test_lindblad_column_when_requested(self):
        cfg = ion_config(n_list=(2,), ion_tau_sp=(math.pi / 2) / 20, lindblad=True)
        result = run_ion_sweep(cfg)
        (row,) = result.rows
        assert row.p2_lindblad is not None
        assert row.p2_lindblad == pytest.approx(row.p2_projection, abs=0.05)

    def test_missing_ion_section(self):
        with pytest.raises(ConfigError):
            run_ion_sweep(RunConfig(n_list=(1,)))

    def test_missing_n_list(self):
        with pytest.raises(ConfigError):
            run_ion_sweep(RunConfig(ion_omega=1.0, ion_tau_sp=0.1))


class TestNeutronSweep:
    def test_ideal_column(self):
        result = run_neutron_sweep(neutron_config())
        ideal = [row.p_up_ideal for row in result.rows]
        assert ideal[0] == pytest.approx(0.0, abs=1e-12)
        assert ideal[1] == pytest.approx(0.25, rel=1e-12)

    def test_bound_row_survival(self):
        result = run_neutron_sweep(neutron_config(n_list=(15,)))
        (row,) = result.rows
        assert row.regime_flag == "valid"
        assert row.p_up_limited == pytest.approx(0.848, abs=5e-4)
        assert result.metadata["n_max"] == 15
        assert result.metadata["p_up_at_n_max"] == row.p_up_limited

    def test_clamp_inactive_rows_match_ideal(self):
        result = run_neutron_sweep(neutron_config(n_list=tuple(range(1, 16))))
        for row in result.rows:
            assert row.p_up_limited == row.p_up_ideal

    def test_flags_past_bound(self):
        result = run_neutron_sweep(neutron_config(n_list=(15, 16)))
        assert [row.regime_flag for row in result.rows] == ["valid", "ill-defined"]


class TestEmit:
    def test_csv_shape_and_header(self):
        result = run_ion_sweep(ion_config())
        buffer = io.StringIO()
        emit(result, "csv", buffer)
        text = buffer.getvalue()
        lines = text.splitlines()
        assert lines[0] == ION_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_csv_blank_field_for_missing_lindblad(self):
        buffer = io.StringIO()
        emit(run_ion_sweep(ion_config(n_list=(2,))), "csv", buffer)
        row = buffer.getvalue().splitlines()[1]
        assert row == "2,0.5,0.457597513764,0.5,,valid"

    def test_csv_twelve_significant_digits(self):
        buffer = io.StringIO()
        emit(run_ion_sweep(ion_config(n_list=(3,))), "csv", buffer)
        fields = buffer.getvalue().splitlines()[1].split(",")
        assert fields[1] == "0.4375"
        assert fields[2] == "0.40348735543"  # (1 - exp(-pi^2/6))/2 to 12 digits

    def test_csv_to_path(self, tmp_path):
        target = tmp_path / "table.csv"
        emit(run_ion_sweep(ion_config()), "csv", target)
        assert target.read_text().splitlines()[0] == ION_HEADER

    def test_json_round_trip(self, tmp_path):
        result = run_ion_sweep(ion_config(n_list=(1, 2, 7, 50)))
        target = tmp_path / "table.json"
        emit(result, "json", target)
        assert '"p2_lindblad": null' in target.read_text()
        assert load_result(target) == result

    def test_json_round_trip_neutron(self, tmp_path):
        result = run_neutron_sweep(neutron_config())
        target = tmp_path / "table.json"
        emit(result, "json", target)
        assert load_result(target) == result

    def test_json_bytes_of_finite_table(self):
        row = SweepRow(2, 0.5, 0.457597513764, 0.5, 0.515364584926, "valid")
        buffer = io.StringIO()
        emit(SweepResult((row,), {"n_max": 31, "integrator_step": None}), "json", buffer)
        assert buffer.getvalue() == (
            '{\n  "metadata": {\n    "n_max": 31,\n    "integrator_step": null\n  },\n'
            '  "rows": [\n    {\n      "n": 2,\n      "p2_projection": 0.5,\n'
            '      "p2_asymptotic": 0.457597513764,\n      "p2_limited": 0.5,\n'
            '      "p2_lindblad": 0.515364584926,\n      "regime_flag": "valid"\n'
            '    }\n  ]\n}\n'
        )

    def test_json_rejects_non_finite_value(self):
        row = SweepRow(2, 0.5, 0.457597513764, 0.5, math.nan, "valid")
        buffer = io.StringIO()
        with pytest.raises(ValueError):
            emit(SweepResult((row,), {}), "json", buffer)
        assert buffer.getvalue() == ""

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_json_rejects_infinite_value(self, value):
        row = SweepRow(2, 0.5, 0.457597513764, value, None, "valid")
        buffer = io.StringIO()
        with pytest.raises(ValueError):
            emit(SweepResult((row,), {}), "json", buffer)
        assert buffer.getvalue() == ""

    @pytest.mark.parametrize(
        "rows",
        [
            (),
            (SweepRow(2, 0.5, 0.457597513764, 0.5, None, "valid"),),
            (
                SweepRow(1, 0.0, -0.0, 5e-324, 0.515364584926, "valid"),
                SweepRow(10**30, 1e300, -1e300, 2.2250738585072014e-308, -0.0, "ill-defined"),
            ),
            (NeutronRow(15, 0.848, 0.8475, "valid"), NeutronRow(2**64 + 1, 1.0, 0.0, "ill-defined")),
        ],
    )
    def test_json_bytes_equal_indent_2(self, rows):
        metadata = {
            "n_max": 2**70,
            "note": 'naïve "quoted" \\ back\tslash\n\u2603 \U0001f600 \x00',
            "nested": {"n_list": [1, 2, 3], "empty": [], "none": None, "flag": True},
        }
        buffer = io.StringIO()
        emit(SweepResult(rows, metadata), "json", buffer)
        expected = {"metadata": metadata, "rows": [vars(row) for row in rows]}
        assert buffer.getvalue() == json.dumps(expected, indent=2, allow_nan=False) + "\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit(run_ion_sweep(ion_config()), "yaml", io.StringIO())

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(OSError):
            emit(run_ion_sweep(ion_config()), "csv", tmp_path / "missing" / "out.csv")


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_full_ion_file(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [ion]
            omega = 1.0
            tau_sp = 0.05

            [schedule]
            pulse_duration_fraction = 0.02
            pulse_area = 3.141592653589793
            rf_during_pulse = true

            [sweep]
            n_list = 4, 2, 2, 16
            lindblad = false

            [output]
            format = csv
            """,
        )
        cfg = parse_config(path)
        assert cfg.ion_omega == 1.0
        assert cfg.ion_tau_sp == 0.05
        assert cfg.schedule.pulse_duration_fraction == 0.02
        assert cfg.n_list == (2, 4, 16)
        assert cfg.out_format == "csv"

    def test_neutron_section(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            [neutron]
            mu = 0.25
            b_field = 1.0
            delta_e_k = 1.0
            """,
        )
        cfg = parse_config(path)
        assert cfg.neutron.delta_e_m == 0.5

    def test_inline_comments_stripped(self, tmp_path):
        path = self.write(
            tmp_path,
            "[ion]\nomega = 2.0  ; rad per unit time\ntau_sp = 0.5 # lifetime\n",
        )
        cfg = parse_config(path)
        assert cfg.ion_omega == 2.0
        assert cfg.ion_tau_sp == 0.5

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = self.write(tmp_path, "[ion]\nomega = 1.0\nomga = 2.0\n")
        with pytest.raises(ConfigError, match="ion.omga"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = self.write(tmp_path, "[laser]\npower = 3\n")
        with pytest.raises(ConfigError, match="laser"):
            parse_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = self.write(tmp_path, "[ion]\nomega = fast\n")
        with pytest.raises(ConfigError, match="ion.omega"):
            parse_config(path)

    def test_non_finite_number_rejected(self, tmp_path):
        path = self.write(tmp_path, "[ion]\nomega = inf\n")
        with pytest.raises(ConfigError, match="ion.omega"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_n_list_validation(self):
        assert parse_n_list("8,1,1,2") == (1, 2, 8)
        assert parse_n_list("1,,2,") == (1, 2)
        with pytest.raises(ConfigError):
            parse_n_list("3,0")
        with pytest.raises(ConfigError):
            parse_n_list("3,x")
