"""Property tests: the oracle, the integer bounds, the pulse segments, the JSON round trip, the
whole-list count check, the rule for a physical parameter, which stores every accepted value
as a Python float, and the rule for a flag, which stores it as a bool."""

import functools
import io
import json
import math
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zenosim import (  # noqa: E402
    BoundViolationError,
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
    n_max,
    neutron_n_max,
    p2_closed_form,
    parse_config,
    p_up_ideal,
    p_up_limited,
    run_ion_sweep,
    run_neutron_sweep,
    simulate_projective_sequence,
)
from zenosim.dynamics import _segments  # noqa: E402
from zenosim.errors import _MAX_COUNT, check_count, check_counts  # noqa: E402

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10**15)


@settings(max_examples=60, deadline=None)
@given(omega=positive, tau_sp=positive, n=st.integers(min_value=1, max_value=200))
def test_oracle_matches_closed_form(omega, tau_sp, n):
    got = simulate_projective_sequence(IonConfig(omega, tau_sp, n))
    assert got == pytest.approx(p2_closed_form(n), abs=1e-9)


def spin_survival(n: int, phi0: float) -> float:
    """Brute-force oracle for the neutron closed forms.

    Each of n field regions rotates the spin by 2 phi, phi = max(pi/2n, phi0),
    and is followed by a projection onto "up"; the state is not renormalised,
    so its squared norm at the end is the survival probability.
    """
    phi = max(math.pi / (2 * n), phi0)
    c, s = math.cos(phi), math.sin(phi)  # the spin-1/2 rotation by 2 phi about the second axis
    up, down = 1.0, 0.0
    for _ in range(n):
        up, down = c * up - s * down, s * up + c * down
        down = 0.0
    return up * up  # down is 0 after the last projection


@pytest.mark.parametrize("phi0", [0.0, 1e-4, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.3, 1.5])
def test_spin_oracle_matches_neutron_closed_forms(phi0):
    for n in range(1, 201):
        got = spin_survival(n, phi0)
        if phi0 <= math.pi / (2 * n):
            assert got == pytest.approx(p_up_ideal(n), rel=1e-12), n
        if phi0 > 0:
            assert got == pytest.approx(p_up_limited(n, phi0), rel=1e-12, abs=1e-300), n


@settings(max_examples=500)
@given(k=counts)
def test_n_max_of_integer_ratio(k):
    assert n_max(IonConfig(1.0, math.pi / k, 1)) == k
    if k > 1:  # k = 1 is phi0 = pi/2, where no count is admissible
        assert neutron_n_max(NeutronConfig(delta_e_m=4.0 * (math.pi / (2 * k)), delta_e_k=1.0)) == k


@settings(max_examples=500)
@given(k=counts)
def test_n_max_of_half_integer_ratio(k):
    assert n_max(IonConfig(1.0, math.pi / (k + 0.5), 1)) == k
    phi0 = math.pi / (2 * (k + 0.5))
    assert neutron_n_max(NeutronConfig(delta_e_m=4.0 * phi0, delta_e_k=1.0)) == k


@settings(max_examples=200, deadline=None)
@given(omega=positive, n=st.integers(min_value=1, max_value=2000),
       ulps=st.integers(min_value=1, max_value=4000))
def test_pulses_as_long_as_the_spacing_tile_the_drive(omega, n, ulps):
    # A fraction within about n eps of 1: rounding may put a pulse's start
    # before the previous measurement, where it must start instead.
    ion = IonConfig(omega, 0.1 / omega, n)
    sched = PulseSchedule.equispaced(ion, duration_fraction=1.0 - ulps * 2.0**-53)
    segments = list(_segments(LindbladConfig(ion, sched)))
    assert segments[0][0] == 0.0 and segments[-1][1] == ion.t_pi
    assert all(end > start for start, end, _, _ in segments)
    assert all(a[1] == b[0] for a, b in zip(segments, segments[1:]))
    assert sum(pulse_on for _, _, pulse_on, _ in segments) == n


@settings(max_examples=60, deadline=None)
@given(
    omega=st.floats(min_value=1e-3, max_value=3.0),
    tau_sp=st.floats(min_value=1e-6, max_value=1.0),
    n_list=st.lists(st.integers(min_value=1, max_value=10**6), max_size=20),
)
def test_json_round_trip(omega, tau_sp, n_list):
    result = run_ion_sweep(RunConfig(ion_omega=omega, ion_tau_sp=tau_sp, n_list=tuple(n_list)))
    buffer = io.StringIO()
    emit(result, format="json", destination=buffer)
    buffer.seek(0)
    back = load_result(buffer)
    assert back.rows == result.rows
    assert back.metadata["n_max"] == result.metadata["n_max"]


finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.builds(
            SweepRow, st.integers(), finite, finite, finite, st.none() | finite, st.text()
        ),
        max_size=5,
    ),
    metadata=st.dictionaries(st.text(), json_values, max_size=5),
)
def test_json_bytes_equal_indent_2(rows, metadata):
    buffer = io.StringIO()
    emit(SweepResult(tuple(rows), metadata), format="json", destination=buffer)
    expected = {"metadata": metadata, "rows": [vars(row) for row in rows]}
    assert buffer.getvalue() == json.dumps(expected, indent=2, allow_nan=False) + "\n"


csv_values = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.floats() | st.floats().map(np.float64) | st.text()
    | st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf])
)


def csv_cell(value) -> str:
    """The CSV rule for one value: None empty, a str or int (bool too) as str(), else 12 digits."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(value, ".12g")


@settings(max_examples=30, deadline=None)
@given(
    rows=st.sampled_from([SweepRow, NeutronRow]).flatmap(
        lambda row_type: st.lists(
            st.builds(row_type, *[csv_values] * len(fields(row_type))), min_size=1, max_size=5
        )
    )
)
@example(rows=[
    SweepRow(None, True, np.int64(-7), np.float64(1 / 3), -0.0, 5e-324),
    SweepRow(math.nan, math.inf, -math.inf, False, 2**70, "ill-defined"),
])
@example(rows=[NeutronRow(np.int64(12566), np.float64(-0.0), np.float64(math.nan), None)])
def test_csv_cells_follow_the_value_rule(rows):
    buffer = io.StringIO()
    emit(SweepResult(tuple(rows), {}), format="csv", destination=buffer)
    lines = [",".join(vars(rows[0]))]
    lines += [",".join(csv_cell(value) for value in vars(row).values()) for row in rows]
    assert buffer.getvalue() == "\n".join(lines) + "\n"


count_like = (
    counts | st.integers(-3, 3) | st.booleans() | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.sampled_from([0, -1, 10**400, _MAX_COUNT, _MAX_COUNT + 1, 1.0, "3", Fraction(3), Fraction(3, 2)])
)


def checked(call) -> tuple | str:
    """The counts ``call()`` returns with their types, or the message of its ConfigError."""
    try:
        values = call()
    except ConfigError as exc:
        return str(exc)
    return values, [type(value) for value in values]


@settings(max_examples=100, deadline=None)
@given(values=st.lists(count_like, max_size=8) | st.lists(counts, max_size=8))
@example(values=[1, 2, _MAX_COUNT])
@example(values=[3, _MAX_COUNT + 1])
@example(values=[2, 10**400, 0])
@example(values=[3, True, 4])
def test_check_counts_agrees_with_check_count(values):
    expected = checked(lambda: [check_count(value, "sweep.n_list") for value in values])
    assert checked(lambda: check_counts(values, "sweep.n_list")) == expected
    assert checked(lambda: check_counts(iter(values), "sweep.n_list")) == expected


NEUTRON_ENERGIES = {"delta_e_m": 0.4, "delta_e_k": 1.0}


@functools.cache
def slow_ion() -> IonConfig:
    """Step bound 5, so each accepted value below is a valid step; built on first use."""
    return IonConfig(0.01, 100.0, 1)


def neutron_with(name):
    return lambda value: NeutronConfig(**{**NEUTRON_ENERGIES, name: value})


#: dotted field -> a library call that takes it as its one parameter, every other input valid
LIBRARY = {
    "ion.omega": lambda value: IonConfig(value, 0.1, 2),
    "ion.tau_sp": lambda value: IonConfig(1.0, value, 2),
    "schedule.optical_pulse_duration": lambda value: PulseSchedule(value, 10.0),
    "schedule.optical_rabi": lambda value: PulseSchedule(0.01, value),
    "schedule.pulse_area": lambda value: PulseSchedule.equispaced(slow_ion(), pulse_area=value),
    "schedule.integrator_step": lambda value: LindbladConfig(slow_ion(), integrator_step=value),
    "schedule.pulse_duration_fraction": lambda value: PulseSchedule.equispaced(
        slow_ion(), duration_fraction=value
    ),
    **{f"neutron.{f.name}": neutron_with(f.name) for f in fields(NeutronConfig)},
    "phi0": lambda value: p_up_limited(3, value),
}
#: The fields that must also stay below a bound: the bound, and the refusal there.
BOUNDED = {
    "phi0": (math.pi / 2, f"phi0: must be < pi/2, got {math.pi / 2!r}"),
    "schedule.pulse_duration_fraction": (1, "schedule.pulse_duration_fraction: must be < 1"),
}
#: The fields a config file also sets, each converted on its own.
FILE_FIELDS = ["ion.omega", "ion.tau_sp", "schedule.pulse_area", "schedule.pulse_duration_fraction"]
FILE_FIELDS += [f"neutron.{f.name}" for f in fields(NeutronConfig)]


def refusal(call, *args) -> tuple[str, str] | None:
    """The (field, message) of the ConfigError that ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except ConfigError as exc:
        return exc.field, str(exc)
    return None


def float_leaves(built) -> list:
    """The values of ``built``'s float fields, through nested configs; ``built`` if a number."""
    if not is_dataclass(built):
        return [built]
    leaves = []
    for f in fields(built):
        value = getattr(built, f.name)
        if is_dataclass(value):
            leaves += float_leaves(value)
        elif value is not None and f.type not in (int, bool):
            leaves.append(value)
    return leaves


def assert_stored_as_float(call, value):
    """``call(value)`` builds what ``call(float(value))`` builds, holding only Python floats."""
    built = call(value)
    assert built == call(float(value))
    assert {type(leaf) for leaf in float_leaves(built)} == {float}


@pytest.mark.parametrize("field", sorted(LIBRARY))
@pytest.mark.parametrize("value", [True, np.bool_(True), "1", Decimal("1")], ids=repr)
def test_non_real_parameter_refused(field, value):
    message = f"{field}: must be finite and > 0, got {value!r}"
    assert refusal(LIBRARY[field], value) == (field, message)


@pytest.mark.parametrize("field", sorted(LIBRARY))
@pytest.mark.parametrize("value", [2**1024, Fraction(2**1024)], ids=["2**1024", "Fraction(2**1024)"])
def test_parameter_past_float_range_refused(field, value):
    # float() of either raises OverflowError, which the parameter rule turns into its refusal
    message = f"{field}: must be finite and > 0, got {value!r}"
    assert refusal(LIBRARY[field], value) == (field, message)


@pytest.mark.parametrize("field", sorted(LIBRARY.keys() - BOUNDED))
@pytest.mark.parametrize(
    "value", [np.float64(0.001), 1, Fraction(1, 1000), np.float32(0.001)], ids=repr
)
def test_real_parameter_accepted(field, value):
    assert refusal(LIBRARY[field], value) is None
    assert_stored_as_float(LIBRARY[field], value)


@pytest.mark.parametrize("field", sorted(BOUNDED))
def test_bounded_parameter_refused_at_its_bound(field):
    bound, message = BOUNDED[field]
    assert refusal(LIBRARY[field], bound) == (field, message)
    assert refusal(LIBRARY[field], 2 * bound)[1].startswith(f"{field}: must be < ")
    for value in [np.float64(0.001), Fraction(1, 1000), math.nextafter(bound, 0), np.float32(0.001)]:
        assert refusal(LIBRARY[field], value) is None
        assert_stored_as_float(LIBRARY[field], value)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(FILE_FIELDS),
    value=st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324]) | st.floats(),
)
def test_library_refuses_what_a_config_file_refuses(tmp_path_factory, field, value):
    section, key = field.split(".")
    lines = {**(NEUTRON_ENERGIES if section == "neutron" else {}), key: value}
    path = tmp_path_factory.getbasetemp() / "parameter.cfg"
    path.write_text(f"[{section}]\n" + "".join(f"{name} = {v!r}\n" for name, v in lines.items()))
    in_file, in_library = refusal(parse_config, path), refusal(LIBRARY[field], value)
    if in_file is not None:
        assert in_library == in_file
    else:  # the library may refuse for another reason, such as a Rabi frequency that underflows
        assert in_library is None or "must be finite and > 0" not in in_library[1]


def test_float32_parameters_give_the_float_bound():
    # pi / 0.31415927410125732 = 9.99999976..., floored to 9; float32 arithmetic rounds it to 10.
    assert n_max(IonConfig(np.float32(1.0), np.float32(math.pi / 10), 1)) == 9


def test_float32_fraction_integrates_in_float64():
    ion = IonConfig(1.0, (math.pi / 4) / 20, 4)
    got, want = (
        lindblad_p2(LindbladConfig(ion, PulseSchedule.equispaced(ion, duration_fraction=fraction)))
        for fraction in (np.float32(0.05), float(np.float32(0.05)))
    )
    assert got == want


@pytest.mark.parametrize("call, error, field", [
    (lambda: n_max(IonConfig(np.float64(1e200), np.float64(1e200), 1)), BoundViolationError, None),
    (lambda: PulseSchedule.equispaced(IonConfig(1.0, 0.1, 4), 1e-10, np.float64(1e307)),
     ConfigError, "schedule.pulse_area"),
], ids=["n_max", "pulse_area"])
def test_numpy_overflow_refused_as_python_float_overflow(call, error, field):
    # Under filterwarnings = error a numpy overflow warning would surface instead.
    with pytest.raises(error) as caught:
        call()
    assert getattr(caught.value, "field", None) == field


def emitted_config(result) -> dict:
    buffer = io.StringIO()
    emit(result, format="json", destination=buffer)
    return json.loads(buffer.getvalue())["metadata"]["config"]


@pytest.mark.parametrize("omega", [np.int64(1), Fraction(1), np.float32(1.0)], ids=repr)
def test_json_echo_of_any_real_ion_parameter(omega):
    config = emitted_config(run_ion_sweep(RunConfig(ion_omega=omega, ion_tau_sp=0.1, n_list=(2,))))
    assert config["omega"] == 1.0 and config["tau_sp"] == 0.1


def test_json_echo_of_any_real_neutron_parameter():
    neutron = NeutronConfig(delta_e_m=Fraction(2, 5), delta_e_k=1.0)
    config = emitted_config(run_neutron_sweep(RunConfig(neutron=neutron, n_list=(2,))))
    assert config["delta_e_m"] == 0.4 and config["phi0"] == 0.1


def test_schedule_params_refused_without_lindblad():
    # Without the full model no PulseSchedule is built, so the echo held the value unchecked.
    message = "schedule.pulse_area: must be finite and > 0, got -1.0"
    assert refusal(ScheduleParams, 0.025, -1.0) == ("schedule.pulse_area", message)


def test_schedule_params_stored_as_floats_for_the_json_echo():
    schedule = ScheduleParams(Fraction(1, 40), Fraction(3), integrator_step=np.float32(0.001))
    assert float_leaves(schedule) == [0.025, 3.0, float(np.float32(0.001))]
    assert {type(leaf) for leaf in float_leaves(schedule)} == {float}
    run = RunConfig(ion_omega=1.0, ion_tau_sp=0.1, n_list=(2,), lindblad=True,
                    schedule=ScheduleParams(pulse_area=Fraction(3)))
    assert emitted_config(run_ion_sweep(run))["pulse_area"] == 3.0


#: Values a flag refuses.  An array met an elementwise ``in`` and raised numpy's bare
#: "truth value" ValueError.
NON_BOOLEAN = ["false", None, 0.5, "True", np.array([True, False]), np.array([True]), np.array(False)]
#: Values a flag accepts, each stored as ``bool(value)``.
BOOLEAN = [True, False, np.bool_(True), np.bool_(False), 1, 0]


def ion_sweep(lindblad):
    return run_ion_sweep(RunConfig(ion_omega=1.0, ion_tau_sp=0.1, n_list=(2,), lindblad=lindblad))


@pytest.mark.parametrize("value", NON_BOOLEAN, ids=repr)
def test_non_boolean_rf_during_pulse_refused(value):
    message = f"schedule.rf_during_pulse: must be True or False, got {value!r}"
    assert refusal(PulseSchedule.equispaced, slow_ion(), 0.025, math.pi, value) == (
        "schedule.rf_during_pulse", message
    )


@pytest.mark.parametrize("value", NON_BOOLEAN, ids=repr)
def test_non_boolean_lindblad_flag_refused_by_the_sweep(value):
    # "false" integrated the full model, and the echo held it unchecked
    message = f"sweep.lindblad: must be True or False, got {value!r}"
    assert refusal(ion_sweep, value) == ("sweep.lindblad", message)


@pytest.mark.parametrize("value", ["false", None, np.array([True, False])], ids=repr)
def test_schedule_params_rf_during_pulse_refused_without_lindblad(value):
    # Without the full model no PulseSchedule is built, so the echo held "false" unchecked.
    message = f"schedule.rf_during_pulse: must be True or False, got {value!r}"
    assert refusal(ScheduleParams, 0.025, math.pi, value) == ("schedule.rf_during_pulse", message)


@pytest.mark.parametrize("value", BOOLEAN, ids=repr)
def test_boolean_rf_during_pulse_stored_as_bool(value):
    stored = PulseSchedule.equispaced(slow_ion(), rf_during_pulse=value).rf_during_pulse
    assert stored is bool(value)
    assert ScheduleParams(rf_during_pulse=value).rf_during_pulse is bool(value)


@pytest.mark.parametrize("value", BOOLEAN, ids=repr)
def test_boolean_lindblad_flag_stored_as_bool(value):
    result = ion_sweep(value)
    assert emitted_config(result)["lindblad"] is result.metadata["config"]["lindblad"] is bool(value)
    assert (result.rows[0].p2_lindblad is not None) is bool(value)
