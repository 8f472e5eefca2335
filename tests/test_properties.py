"""Property tests: the oracle, the integer bounds and the JSON round trip."""

import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zenosim import (  # noqa: E402
    IonConfig,
    NeutronConfig,
    RunConfig,
    SweepResult,
    SweepRow,
    emit,
    load_result,
    n_max,
    neutron_n_max,
    p2_closed_form,
    run_ion_sweep,
    simulate_projective_sequence,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10**15)


@settings(max_examples=60, deadline=None)
@given(omega=positive, tau_sp=positive, n=st.integers(min_value=1, max_value=200))
def test_oracle_matches_closed_form(omega, tau_sp, n):
    got = simulate_projective_sequence(IonConfig(omega, tau_sp, n))
    assert got == pytest.approx(p2_closed_form(n), abs=1e-9)


@settings(max_examples=500)
@given(k=counts)
def test_n_max_of_integer_ratio(k):
    assert n_max(IonConfig(1.0, math.pi / k, 1)) == k
    assert neutron_n_max(NeutronConfig(delta_e_m=4.0 * (math.pi / (2 * k)), delta_e_k=1.0)) == k


@settings(max_examples=500)
@given(k=counts)
def test_n_max_of_half_integer_ratio(k):
    assert n_max(IonConfig(1.0, math.pi / (k + 0.5), 1)) == k
    phi0 = math.pi / (2 * (k + 0.5))
    assert neutron_n_max(NeutronConfig(delta_e_m=4.0 * phi0, delta_e_k=1.0)) == k


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
