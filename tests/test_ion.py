"""Tests for the ion closed forms and their brute-force oracle."""

import hashlib
import importlib
import math
import re
import struct

import numpy as np
import pytest

from zenosim import (
    BoundViolationError,
    IonConfig,
    NonphysicalStateError,
    n_max,
    p2_asymptotic,
    p2_closed_form,
    p2_decoherence_limited,
    simulate_projective_sequence,
)

ion_module = importlib.import_module("zenosim.ion")


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


#: Every count to 50, and counts spread to 400, kept to ~15,000 oracle steps.
ORACLE_COUNTS = (*range(1, 51), 64, 100, 127, 128, 150, 200, 256, 301, 400)
#: SHA-256 of the oracle's values over ORACLE_COUNTS as little-endian float64, per omega: the
#: bits that a loop over the package's former public Bloch maps gave, which a kernel edit must keep.
ORACLE_BITS = {
    3e-4: "144c68cce7efeb8c762355fdab19a96618066158783ad9cfcfc6f799b2cc237b",
    0.25: "589deaa48c6eda62c8beedccba275f53fd5370107b9700ddf13b0d031b0028a6",
    1.0: "589deaa48c6eda62c8beedccba275f53fd5370107b9700ddf13b0d031b0028a6",
    7.5: "1b3c01b3813cd7d2ef3399dea488144d00e597521205f966003098c0ca62f3a1",
    1e3: "7c5128a76250af5db30997ffaa6d1591fe3d1f4ad52d2155ecac1b8d125f39af",
}


class TestOracleOnKernels:
    """The oracle checks once and steps on unchecked kernels: pinned bits, the norm check kept."""

    @pytest.mark.parametrize("omega", ORACLE_BITS)
    def test_same_bits_as_public_maps(self, omega):
        values = [simulate_projective_sequence(IonConfig(omega, 0.01, n)) for n in ORACLE_COUNTS]
        assert {type(value) for value in values} == {float}
        digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
        assert digest == ORACLE_BITS[omega]

    def test_norm_check_runs_on_every_step(self, monkeypatch):
        rotate = ion_module._rotate
        monkeypatch.setattr(
            ion_module, "_rotate", lambda r, c, s: tuple(x * (1 + 1e-9) for x in rotate(r, c, s))
        )
        with pytest.raises(NonphysicalStateError, match="exceeds 1"):
            simulate_projective_sequence(ion_with_product(0.01, 4))

    def test_non_finite_angle_refused_naming_omega_and_n(self):
        cfg = IonConfig(1e-310, 0.01, 4)  # t_pi = pi/omega overflows
        message = "need a finite t_pi = pi/omega, got omega=1e-310, n=4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_projective_sequence(cfg)


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
