"""Tests for sweeps, emission formats, and the runner config layer."""

import dataclasses
import functools
import importlib
import io
import json
import math
import pickle
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from zenosim import (
    ConfigError,
    IonConfig,
    LindbladConfig,
    NeutronConfig,
    NeutronRow,
    PulseSchedule,
    RunConfig,
    ScheduleParams,
    SweepResult,
    SweepRow,
    emit,
    lindblad_p2,
    load_result,
    p2_asymptotic,
    p2_closed_form,
    p2_decoherence_limited,
    p_up_ideal,
    p_up_limited,
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
        assert list(result.metadata) == ["config", "n_max", "timestamp", "integrator_step", "columns"]
        neutron = run_neutron_sweep(neutron_config(n_list=()))
        assert neutron.rows == ()
        assert neutron.columns() == ("n", "p_up_ideal", "p_up_limited", "regime_flag")
        assert list(neutron.metadata) == [
            "config", "n_max", "p_up_at_n_max", "timestamp", "integrator_step", "columns"
        ]

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

    @pytest.mark.parametrize("params", [
        ScheduleParams(), ScheduleParams(0.02, 3.0, False, 2e-4),
    ], ids=["defaults", "gated-with-step"])
    def test_schedule_setup_is_the_equispaced_setup(self, params):
        ion = IonConfig(1.0, 0.01, 3)
        pulses = PulseSchedule.equispaced(ion, params.pulse_duration_fraction, params.pulse_area,
                                          params.rf_during_pulse)
        assert params.setup(ion) == LindbladConfig(ion, pulses, params.integrator_step)
        cfg = ion_config(n_list=(2, 3), ion_tau_sp=0.01, schedule=params, lindblad=True)
        spy = mock.patch.object(ScheduleParams, "setup", autospec=True, side_effect=ScheduleParams.setup)
        with spy as setup, mock.patch("zenosim.sweep.final_state", side_effect=AssertionError("integrated")):
            with pytest.raises(AssertionError, match="integrated"):  # every row is set up first
                run_ion_sweep(cfg)
        assert setup.call_args_list == [mock.call(params, IonConfig(1.0, 0.01, n)) for n in (2, 3)]

    def test_lindblad_values_are_python_floats(self):
        # a float cell takes the CSV writer's one-test path; numpy's float64 would not
        ion = IonConfig(1.0, (math.pi / 2) / 20, 2)
        assert type(lindblad_p2(LindbladConfig(ion, PulseSchedule.equispaced(ion)))) is float
        cfg = ion_config(n_list=(1, 2, 3), ion_tau_sp=(math.pi / 2) / 20, lindblad=True)
        assert all(type(row.p2_lindblad) is float for row in run_ion_sweep(cfg).rows)

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


def test_table_rows_make_no_count_check(monkeypatch):
    # require_n_list has checked each count, so the rows reach the closed forms' kernels directly
    ion_cfg = ion_config(n_list=(1, 2, 31, 32, 100))
    neutron_cfg = neutron_config(n_list=(1, 2, 15, 16, 40))
    ion, neutron = run_ion_sweep(ion_cfg), run_neutron_sweep(neutron_cfg)

    def refuse(n, field="n"):
        raise AssertionError(f"count {n!r} checked again")

    monkeypatch.setattr("zenosim.ion.check_count", refuse)
    monkeypatch.setattr("zenosim.neutron.check_count", refuse)
    assert run_ion_sweep(ion_cfg).rows == ion.rows
    unchecked = run_neutron_sweep(neutron_cfg)
    assert unchecked.rows == neutron.rows
    assert unchecked.metadata["p_up_at_n_max"] == neutron.metadata["p_up_at_n_max"]
    base = IonConfig(1.0, 0.1, 1)
    public = [
        p2_closed_form,
        p2_asymptotic,
        lambda n: p2_decoherence_limited(n, base),
        p_up_ideal,
        lambda n: p_up_limited(n, 0.1),
    ]
    for closed_form in public:
        with pytest.raises(AssertionError, match="^count 4 checked again$"):
            closed_form(4)


def json_rows(result: SweepResult) -> tuple:
    """``result``'s rows as :func:`load_result` reads them back from its JSON."""
    buffer = io.StringIO()
    emit(result, "json", buffer)
    buffer.seek(0)
    return load_result(buffer).rows


ION_TABLE = run_ion_sweep(ion_config(n_list=(1, 2, 31, 32, 100)))
NEUTRON_TABLE = run_neutron_sweep(neutron_config(n_list=(1, 2, 15, 16, 40)))


@functools.cache
def lindblad_table() -> SweepResult:
    """A two-row full-model table, built on first use: an engine fault fails only the tests that read it."""
    return run_ion_sweep(ion_config(n_list=(1, 2), ion_tau_sp=(math.pi / 2) / 20, lindblad=True))


class TestRecordRows:
    """Table rows are built without ``__init__``; each must be the row the constructor builds."""

    @pytest.mark.parametrize(
        "read_rows",
        [
            lambda: ION_TABLE.rows,
            lambda: lindblad_table().rows,
            lambda: NEUTRON_TABLE.rows,
            lambda: json_rows(ION_TABLE),
            lambda: json_rows(lindblad_table()),
            lambda: json_rows(NEUTRON_TABLE),
        ],
        ids=["ion", "lindblad", "neutron", "ion-json", "lindblad-json", "neutron-json"],
    )
    def test_rows_equal_constructor_rows(self, read_rows):
        for row in read_rows():
            built = type(row)(**vars(row))
            assert row == built and built == row
            assert hash(row) == hash(built)
            assert repr(row) == repr(built)
            assert list(vars(row)) == list(vars(built)) == [f.name for f in dataclasses.fields(row)]
            assert list(dataclasses.asdict(row).items()) == list(dataclasses.asdict(built).items())
            assert dataclasses.replace(row) == built
            assert dataclasses.replace(row, n=row.n + 1) == dataclasses.replace(built, n=row.n + 1)
            copy = pickle.loads(pickle.dumps(row))
            assert copy == built and repr(copy) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                row.n = 7
            with pytest.raises(dataclasses.FrozenInstanceError):
                del row.regime_flag
            assert row == built

    @pytest.mark.parametrize("row_type", [SweepRow, NeutronRow])
    def test_no_post_init_to_skip(self, row_type):
        assert not hasattr(row_type, "__post_init__")

    def test_reordered_keys_read_in_field_order(self):
        row = ION_TABLE.rows[0]
        payload = {"metadata": ION_TABLE.metadata, "rows": [dict(reversed(vars(row).items()))]}
        back = load_result(io.StringIO(json.dumps(payload)))
        assert back.rows == (row,)
        assert list(vars(back.rows[0])) == list(vars(row))
        buffer = io.StringIO()
        emit(back, "csv", buffer)
        assert buffer.getvalue().splitlines()[0] == ION_HEADER

    @pytest.mark.parametrize("row_type", [SweepRow, NeutronRow])
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_other_keys_refused_as_the_constructor_refuses(self, row_type, change):
        table = ION_TABLE if row_type is SweepRow else NEUTRON_TABLE
        entry = dict(vars(table.rows[0]))
        if change == "extra":
            entry["extra"] = 1
        else:
            del entry["regime_flag"]
        with pytest.raises(TypeError) as expected:
            row_type(**entry)
        payload = json.dumps({"metadata": {}, "rows": [entry]})
        with pytest.raises(TypeError) as refused:
            load_result(io.StringIO(payload))
        assert str(refused.value) == str(expected.value)


#: 500 counts around n_max = 12566, the ion bound at tau_sp = 2.5e-4 and the neutron one at phi0 = 1.25e-4.
AROUND_N_MAX = tuple(range(12301, 12801))


def around_n_max(result: SweepResult) -> tuple:
    """The rows of a table over AROUND_N_MAX, which hold both regime flags."""
    assert {row.regime_flag for row in result.rows} == {"valid", "ill-defined"}
    return result.rows


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
            around_n_max(run_ion_sweep(ion_config(n_list=AROUND_N_MAX, ion_tau_sp=2.5e-4))),
            around_n_max(run_neutron_sweep(neutron_config(phi0=1.25e-4, n_list=AROUND_N_MAX))),
            (  # the row breaks' own text inside a string
                SweepRow(3, 0.5, 0.25, 0.5, None, "},\n      { | }, { | {}"),
                SweepRow(4, 0.5, 0.25, 0.5, None, "{}"),
            ),
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
        path.write_text(text, encoding="utf-8")
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

    @pytest.mark.parametrize("section, key, raw", [
        ("ion", "tau_sp", "0_1"),
        ("ion", "omega", "1_0"),
        ("ion", "omega", "\u0661"),
        ("schedule", "pulse_area", "\uff13.14"),
        ("schedule", "pulse_duration_fraction", "0.0_25"),
        ("neutron", "delta_e_m", "4e-0_1"),
    ], ids=["underscore", "underscore-int", "arabic-digit", "fullwidth-digit", "underscore-fraction",
            "underscore-exponent"])
    def test_number_must_be_plain_ascii(self, tmp_path, section, key, raw):
        # float() would read each of these as a number
        float(raw)
        path = self.write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{section}.{key}: not a number: {raw!r}')}$"):
            parse_config(path)

    def test_non_finite_number_rejected(self, tmp_path):
        path = self.write(tmp_path, "[ion]\nomega = inf\n")
        with pytest.raises(ConfigError, match="ion.omega"):
            parse_config(path)

    @pytest.mark.parametrize("section, key, raw", [
        ("ion", "omega", "1e309"),
        ("ion", "tau_sp", "-1E+400"),
        ("schedule", "pulse_area", "1E-400"),
        ("schedule", "integrator_step", "1e309"),
        ("neutron", "mu", "0.0001e-400"),
    ], ids=["overflow", "negative-overflow", "underflow", "step-overflow", "fraction-underflow"])
    def test_number_outside_float_range_quoted(self, tmp_path, section, key, raw):
        # float() reads these as an infinity or a zero, which the text does not spell
        assert float(raw) in (0.0, math.inf, -math.inf)
        path = self.write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        message = f"{section}.{key}: outside the float range: {raw!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)

    @pytest.mark.parametrize("raw, message", [  # inf, nan and 0 are config_cases.json's
        ("-Infinity", "must be finite and > 0, got -inf"),
        ("0e-400", "must be finite and > 0, got 0.0"),
        ("1e-320", None),
    ])
    def test_spelt_infinity_zero_and_subnormal_read_as_before(self, tmp_path, raw, message):
        path = self.write(tmp_path, f"[ion]\nomega = {raw}\n")
        if message is None:
            assert parse_config(path).ion_omega == float(raw) > 0
            return
        with pytest.raises(ConfigError, match=f"^{re.escape(f'ion.omega: {message}')}$"):
            parse_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nomega = 1.0\n",  # would be dropped
        "[DEFAULT]\nomega = 5\n[ion]\ntau_sp = 0.1\n",  # would be [ion]'s omega
    ], ids=["alone", "inherited"])
    def test_default_key_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match=r"^DEFAULT\.omega: unknown key$"):
            parse_config(self.write(tmp_path, text))

    @pytest.mark.parametrize("text, message", [
        ("[schedule]\npulse_duration_fraction = 2\npulse_area = abc\n",
         "schedule.pulse_area: not a number: 'abc'"),
        ("[neutron]\nmu = -1\nb_field = abc\n", "neutron.b_field: not a number: 'abc'"),
    ], ids=["schedule", "neutron"])
    def test_text_fault_reported_before_an_earlier_keys_range_fault(self, tmp_path, text, message):
        # [schedule] and [neutron] are read whole as text before their class checks any range
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(self.write(tmp_path, text))

    def test_each_schedule_and_neutron_value_checked_once(self, tmp_path, monkeypatch):
        checked = []

        def spy(check):
            def counted(value, field):
                checked.append(field)
                return check(value, field)
            return counted

        for module in map(importlib.import_module, ("zenosim.config", "zenosim.dynamics", "zenosim.neutron")):
            for name in ("check_positive", "check_fraction", "check_flag"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(getattr(module, name)))
        path = self.write(
            tmp_path,
            "[schedule]\npulse_duration_fraction = 0.02\npulse_area = 3.0\nrf_during_pulse = off\n"
            "integrator_step = 1e-4\n[neutron]\nmu = 0.25\nb_field = 0.8\nv0 = 1.5\ndelta_v = 0.5\n"
            "mass = 2.0\n",
        )
        cfg = parse_config(path)
        schedule = [f"schedule.{f.name}" for f in dataclasses.fields(cfg.schedule)]
        neutron = [f"neutron.{f.name}" for f in dataclasses.fields(cfg.neutron)]  # energies derived
        assert sorted(checked) == sorted(schedule + neutron)

    @pytest.mark.parametrize("spelling, value", [
        (word, value)
        for words, value in ((("1", "yes", "true", "on"), True), (("0", "no", "false", "off"), False))
        for base in words
        for word in dict.fromkeys((base, base.upper(), base.capitalize()))
    ])
    def test_boolean_vocabulary(self, tmp_path, spelling, value):
        path = self.write(
            tmp_path, f"[schedule]\nrf_during_pulse =  {spelling}  \n[sweep]\nlindblad = {spelling}\t\n"
        )
        cfg = parse_config(path)
        assert cfg.schedule.rf_during_pulse is value
        assert cfg.lindblad is value

    @pytest.mark.parametrize("raw", ["maybe", "2", ""])
    @pytest.mark.parametrize("section, key", [("schedule", "rf_during_pulse"), ("sweep", "lindblad")])
    def test_not_a_boolean_rejected(self, tmp_path, section, key, raw):
        path = self.write(tmp_path, f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{section}.{key}: not a boolean: {raw!r}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_byte_order_mark_skipped(self, tmp_path):
        original = Path(__file__).parent / "data" / "ion_sweep.cfg"
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        assert parse_config(path) == parse_config(original)

    def test_n_list_validation(self):
        assert parse_n_list("8,1,1,2") == (1, 2, 8)
        assert parse_n_list("1,,2,") == (1, 2)
        with pytest.raises(ConfigError):
            parse_n_list("3,0")
        with pytest.raises(ConfigError):
            parse_n_list("3,x")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0, x", "sweep.n_list: must be an integer >= 1, got 0"),
            ("4, -1, x", "sweep.n_list: must be an integer >= 1, got -1"),
            ("1" + "0" * 320 + ", x", "sweep.n_list: must be at most 1.798e+308"),
            ("x, 0", "sweep.n_list: not an integer: 'x'"),
            ("2, x", "sweep.n_list: not an integer: 'x'"),
            ("2, 3.0, 0", "sweep.n_list: not an integer: '3.0'"),
            ("2, 0, -1", "sweep.n_list: must be an integer >= 1, got 0"),
            ("0, 1_6", "sweep.n_list: must be an integer >= 1, got 0"),
            ("1_6, \u0663", "sweep.n_list: not an integer: '1_6'"),
            ("2, \u0663", "sweep.n_list: not an integer: '\u0663'"),
        ],
        ids=["0-x", "4-neg-x", "huge-x", "x-0", "2-x", "2-float-0", "2-0-neg", "0-underscore",
             "underscore-arabic", "2-arabic"],
    )
    def test_n_list_reports_the_earliest_fault(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_n_list(text)
