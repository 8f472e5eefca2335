"""Property tests: the oracle, the integer bounds, the pulse segments and the JSON round trip."""

import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zenosim import (  # noqa: E402
    IonConfig,
    LindbladConfig,
    NeutronConfig,
    PulseSchedule,
    RunConfig,
    SweepResult,
    SweepRow,
    emit,
    load_result,
    n_max,
    neutron_n_max,
    p2_closed_form,
    p_up_ideal,
    p_up_limited,
    run_ion_sweep,
    simulate_projective_sequence,
)
from zenosim.dynamics import _segments  # noqa: E402

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
