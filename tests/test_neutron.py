"""Tests for the neutron-spin closed forms."""

import math

import numpy as np
import pytest

from zenosim import (
    BoundViolationError,
    ConfigError,
    NeutronConfig,
    neutron_n_max,
    p2_closed_form,
    p_up_ideal,
    p_up_limited,
    parse_config,
    phi_zero,
)


def config_with_phi0(phi0: float) -> NeutronConfig:
    return NeutronConfig(delta_e_m=4.0 * phi0, delta_e_k=1.0)


class TestPUpIdeal:
    def test_single_measurement_flips_completely(self):
        assert p_up_ideal(1) == pytest.approx(0.0, abs=1e-12)

    def test_two_measurements(self):
        assert p_up_ideal(2) == pytest.approx(0.25, rel=1e-12)

    def test_thousand_measurements_nearly_freeze(self):
        assert p_up_ideal(1000) == pytest.approx(0.9975356394195499, rel=1e-12)
        assert p_up_ideal(1000) >= 0.997

    def test_strictly_increasing_and_bounded(self):
        values = [p_up_ideal(n) for n in range(1, 1025)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_rejects_nonpositive(self):
        for bad in (0, True, np.int64(0)):
            with pytest.raises(ValueError):
                p_up_ideal(bad)

    def test_numpy_count_bit_identical(self):
        assert p_up_ideal(np.int64(4)) == p_up_ideal(4)
        assert p_up_limited(np.int64(40), 0.1) == p_up_limited(40, 0.1)

    def test_complements_ion_closed_form(self):
        # same cos^n algebra in both families: surviving spin-up probability
        # after n measurements complements the ion transition probability
        # after 2n, p_up_ideal(n) = 1 - 2 * p2_closed_form(2n), exactly
        for n in range(1, 257):
            assert p_up_ideal(n) == pytest.approx(
                1.0 - 2.0 * p2_closed_form(2 * n), abs=1e-12
            )


class TestPhiZero:
    def test_equal_energies(self):
        assert phi_zero(NeutronConfig(delta_e_m=1.0, delta_e_k=1.0)) == 0.25

    def test_raw_magnetic_path(self):
        cfg = NeutronConfig(mu=0.25, b_field=1.0, delta_e_k=1.0)
        assert cfg.delta_e_m == 0.5
        assert phi_zero(cfg) == 0.125

    def test_raw_path_consistent_with_energy_path(self):
        # mu*B = delta_e_k/2 lands on the same angle as equal energies
        raw = NeutronConfig(mu=0.5, b_field=1.0, delta_e_k=1.0)
        assert phi_zero(raw) == 0.25

    def test_raw_kinetic_path(self):
        cfg = NeutronConfig(delta_e_m=1.0, mass=2.0, v0=3.0, delta_v=0.5)
        assert cfg.delta_e_k == 3.0
        assert phi_zero(cfg) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_vanishes_for_broad_kinetic_spread(self):
        assert phi_zero(NeutronConfig(delta_e_m=1.0, delta_e_k=1e12)) < 1e-12

    def test_inconsistent_magnetic_inputs_rejected(self):
        with pytest.raises(ConfigError):
            NeutronConfig(delta_e_m=1.0, mu=1.0, b_field=1.0)

    def test_consistent_duplication_accepted(self):
        cfg = NeutronConfig(delta_e_m=0.5, delta_e_k=1.0, mu=0.25, b_field=1.0)
        assert phi_zero(cfg) == 0.125

    @pytest.mark.parametrize("kwargs", [
        dict(delta_e_m=0.0, delta_e_k=1.0),
        dict(delta_e_m=1.0, delta_e_k=-2.0),
        dict(delta_e_k=1.0),
        dict(delta_e_m=math.inf, delta_e_k=1.0),
        dict(delta_e_m=1.0, delta_e_k=math.nan),
    ])
    def test_bad_energies_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NeutronConfig(**kwargs)

    def test_position_uncertainty_accepted_but_unused(self, tmp_path):
        # Neither enters a formula, so neither is a field or a config key.
        for key in ("delta_x", "length_l"):
            with pytest.raises(TypeError):
                NeutronConfig(delta_e_m=1.0, delta_e_k=2.0, **{key: 1e-6})
            path = tmp_path / f"{key}.cfg"
            path.write_text(f"[neutron]\ndelta_e_m = 1.0\ndelta_e_k = 2.0\n{key} = 1e-6\n")
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert err.value.field == f"neutron.{key}"


class TestPUpLimited:
    def test_equals_ideal_while_clamp_inactive(self):
        phi0 = 0.05
        for n in range(1, neutron_n_max(config_with_phi0(phi0)) + 1):
            assert p_up_limited(n, phi0) == p_up_ideal(n)

    def test_vanishes_for_large_counts(self):
        # the ideal value at the same count stays near one: that is the paradox
        got = p_up_limited(10**4, 0.05)
        assert got == pytest.approx(math.exp(-0.05**2 * 10**4), abs=2e-3)
        assert got < 1e-6
        assert p_up_ideal(10**4) > 0.999

    def test_never_exceeds_ideal(self):
        for n in range(1, 200):
            assert p_up_limited(n, 0.1) <= p_up_ideal(n)

    @pytest.mark.parametrize("phi0", [0.0, -0.1, math.pi / 2, 2.0])
    def test_angle_domain_enforced(self, phi0):
        with pytest.raises(ValueError):
            p_up_limited(4, phi0)


class TestNeutronNMax:
    def test_exact_ratio(self):
        assert neutron_n_max(config_with_phi0(math.pi / 32)) == 16

    @pytest.mark.parametrize("ratio,expected", [
        (1e6, 10**6), (1e13, 10**13), (1e13 - 0.5, 10**13 - 1), (1e15, 10**15),
        (2.0**53, 2**53),
    ])
    def test_large_ratios_exact(self, ratio, expected):
        assert neutron_n_max(config_with_phi0(math.pi / (2 * ratio))) == expected

    def test_tenth_radian(self):
        cfg = config_with_phi0(0.1)
        assert neutron_n_max(cfg) == 15
        assert p_up_limited(15, 0.1) == pytest.approx(0.8480675959599473, rel=1e-12)

    def test_survival_at_bound_approaches_one_for_small_phi0(self):
        survivals = []
        for phi0 in (0.05, 0.01, 0.002, 0.0005):
            bound = neutron_n_max(config_with_phi0(phi0))
            survivals.append(p_up_limited(bound, phi0))
        assert all(a < b for a, b in zip(survivals, survivals[1:]))
        assert survivals[-1] > 0.999

    def test_wide_angle_floor_undercuts_survival_claim(self):
        # At phi0 = 0.4 the integer bound floor(pi/0.8) = 3 enlarges the
        # per-measurement angle to pi/6, and survival drops to (3/4)^3,
        # below one half even though the real-valued bound would stay above.
        cfg = config_with_phi0(0.4)
        assert neutron_n_max(cfg) == 3
        assert p_up_limited(3, 0.4) == pytest.approx(0.421875, rel=1e-12)

    def test_angle_beyond_half_pi_rejected(self):
        with pytest.raises(BoundViolationError):
            neutron_n_max(config_with_phi0(1.6))

    def test_angle_at_half_pi_rejected(self):
        # floor(pi / (2 phi0)) would be 1, but p_up_limited refuses phi0 = pi/2
        with pytest.raises(BoundViolationError):
            neutron_n_max(NeutronConfig(delta_e_m=6.283185307179586, delta_e_k=1.0))
