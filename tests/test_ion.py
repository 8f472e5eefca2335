"""Tests for the ion closed forms and their brute-force oracle."""

import math

import numpy as np
import pytest

from zenosim import (
    BoundViolationError,
    IonConfig,
    n_max,
    p2_asymptotic,
    p2_closed_form,
    p2_decoherence_limited,
    simulate_projective_sequence,
)


def ion_with_product(product: float, n: int = 1) -> IonConfig:
    """IonConfig with omega = 1 and omega * tau_sp equal to ``product``."""
    return IonConfig(1.0, product, n)


class TestClosedForm:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 0.5), (4, 0.375)])
    def test_small_counts(self, n, expected):
        assert p2_closed_form(n) == pytest.approx(expected, abs=1e-15)

    def test_matches_quarter_count_asymptote(self):
        # at n=64 the value sits just under the pi^2/(4n) bound
        assert p2_closed_form(64) == pytest.approx(0.03711861719798759, rel=1e-12)
        assert p2_closed_form(64) < 0.04
        assert p2_closed_form(64) < math.pi**2 / (4 * 64)

    def test_strictly_decreasing(self):
        values = [p2_closed_form(n) for n in range(2, 2049)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [0, -3, True, np.int64(0), 4.0])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            p2_closed_form(bad)

    def test_numpy_count_bit_identical(self):
        assert p2_closed_form(np.int64(4)) == p2_closed_form(4)
        assert p2_asymptotic(np.int32(7)) == p2_asymptotic(7)


class TestAsymptotic:
    def test_single_measurement_value(self):
        assert p2_asymptotic(1) == pytest.approx(0.49640405832208684, rel=1e-12)

    def test_limit_is_zero(self):
        assert p2_asymptotic(10**6) < 5e-6

    def test_close_to_closed_form_from_eight(self):
        for n in list(range(8, 512)) + [1024, 4096, 10**5]:
            assert abs(p2_closed_form(n) - p2_asymptotic(n)) < 0.01


class TestProjectiveOracle:
    """The sequence of rotations and projections must reproduce the closed form."""

    @pytest.mark.parametrize("n", [1, 2, 4, 32])
    def test_named_counts(self, n):
        cfg = ion_with_product(0.01, n)
        assert simulate_projective_sequence(cfg) == pytest.approx(
            p2_closed_form(n), abs=1e-9
        )

    def test_equivalence_over_full_range(self):
        worst = max(
            abs(simulate_projective_sequence(ion_with_product(0.01, n)) - p2_closed_form(n))
            for n in range(1, 129)
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("n", [1, 4])
    def test_returns_python_float(self, n):
        assert type(simulate_projective_sequence(ion_with_product(0.01, n))) is float

    def test_independent_of_rabi_frequency(self):
        for omega in (0.25, 1.0, 7.5):
            cfg = IonConfig(omega, 0.01, 16)
            assert simulate_projective_sequence(cfg) == pytest.approx(
                p2_closed_form(16), abs=1e-12
            )


class TestNMax:
    def test_sixteenth(self):
        assert n_max(ion_with_product(math.pi / 16)) == 16

    def test_boundary_single_measurement(self):
        assert n_max(ion_with_product(math.pi)) == 1

    def test_floor_of_non_integer(self):
        assert n_max(ion_with_product(math.pi / 5.5)) == 5

    @pytest.mark.parametrize("ratio,expected", [
        (1e6, 10**6), (1e13, 10**13), (1e13 - 0.5, 10**13 - 1), (1e15, 10**15),
        (2.0**53, 2**53),
    ])
    def test_large_ratios_exact(self, ratio, expected):
        # a relative guard over-counted here: 10**13 + 10 at a ratio of 1e13
        assert n_max(ion_with_product(math.pi / ratio)) == expected

    def test_beyond_pi_rejected(self):
        with pytest.raises(BoundViolationError):
            n_max(ion_with_product(math.pi * 1.01))


class TestDecoherenceLimited:
    def test_equals_closed_form_below_bound(self):
        cfg = ion_with_product(0.1)
        for n in range(1, n_max(cfg) + 1):
            assert p2_decoherence_limited(n, cfg) == p2_closed_form(n)

    def test_saturates_at_one_half(self):
        cfg = ion_with_product(0.1)
        assert p2_decoherence_limited(10**4, cfg) == pytest.approx(0.5, abs=1e-4)
        assert p2_decoherence_limited(10**8, cfg) == pytest.approx(0.5, abs=1e-6)

    def test_never_below_unclamped(self):
        cfg = ion_with_product(0.2)
        for n in range(2, 400):
            assert p2_decoherence_limited(n, cfg) >= p2_closed_form(n)
