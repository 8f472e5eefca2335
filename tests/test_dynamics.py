"""Tests for Bloch precession, the projection map, and the Lindblad integrator."""

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from zenosim import (
    BlochVector,
    ConfigError,
    IntegrationError,
    InvalidStateError,
    IonConfig,
    LindbladConfig,
    PulseSchedule,
    apply_projection,
    bloch_from_density,
    density_from_bloch,
    evolve_bloch,
    integrate_lindblad,
    populations,
)
from zenosim.dynamics import (
    MAX_STEPS,
    TRAJECTORY_HERMITICITY_TOL,
    TRAJECTORY_MIN_EIG_TOL,
    TRAJECTORY_TRACE_TOL,
    _BLOCK,
    _CHUNK,
    _positive_definite,
    _rk4_powers,
    _segments,
    _validate_block,
    final_state,
)
from zenosim.states import hermiticity_residue

GROUND3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
AUX3 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def reference_rk4(cfg: LindbladConfig, rho0) -> tuple[list[float], np.ndarray]:
    """Plain RK4, one step at a time, on the master equation in commutator form.

    The right-hand side is the matrix whose columns are the commutator-form
    right-hand side applied to the nine basis matrices (row-major), so the
    loop advances a 9-vector: the same arithmetic as stepping 3x3 matrices,
    at a fifth of the cost.
    """
    lower = np.zeros((3, 3), dtype=complex)
    lower[0, 2] = 1.0
    number = lower.conj().T @ lower

    def rhs(ham, state):
        return -1j * (ham @ state - state @ ham) + cfg.gamma * (
            lower @ state @ lower.conj().T - 0.5 * (number @ state + state @ number)
        )

    h_free = np.zeros((3, 3), dtype=complex)
    h_free[0, 1] = h_free[1, 0] = -cfg.ion.omega / 2.0
    h_pulse = h_free.copy()
    if cfg.schedule is not None:
        if not cfg.schedule.rf_during_pulse:
            h_pulse[:] = 0.0
        h_pulse[0, 2] = h_pulse[2, 0] = -cfg.schedule.optical_rabi / 2.0
    basis = np.eye(9).reshape(9, 3, 3)
    generators = {
        pulse_on: np.array([rhs(ham, e).reshape(9) for e in basis]).T
        for pulse_on, ham in ((False, h_free), (True, h_pulse))
    }
    x = np.asarray(rho0, dtype=complex).reshape(9)
    times, states = [0.0], [x]
    for start, end, pulse_on, n_steps in _segments(cfg):
        assert n_steps == max(1, math.ceil((end - start) / cfg.integrator_step))
        gen = generators[pulse_on]
        h = (end - start) / n_steps
        for i in range(1, n_steps + 1):
            k1 = gen @ x
            k2 = gen @ (x + (0.5 * h) * k1)
            k3 = gen @ (x + (0.5 * h) * k2)
            k4 = gen @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            times.append(start + i * h if i < n_steps else end)
            states.append(x)
    return times, np.array(states).reshape(-1, 3, 3)


def listed_segments(cfg: LindbladConfig) -> list[tuple[float, float, bool, int]]:
    """Segments built from an explicit tuple of measurement times t_pi * (k / n).

    The way a schedule that stored its n times was split, kept as the
    reference that the O(1) schedule must match bit for bit.
    """
    t_end, n = cfg.ion.t_pi, cfg.ion.n_pulses
    times = tuple(t_end * (k / n) for k in range(1, n + 1))
    d = cfg.schedule.optical_pulse_duration
    segs, cursor = [], 0.0
    for tk in times:
        start = tk - d
        if start > cursor:
            segs.append((cursor, start, False))
        segs.append((start, tk, True))
        cursor = tk
    if t_end - cursor > 1e-12 * t_end:
        segs.append((cursor, t_end, False))
    return [(a, b, on, max(1, math.ceil((b - a) / cfg.integrator_step))) for a, b, on in segs]


class TestEvolveBloch:
    def test_pi_pulse_inverts_population(self):
        r = evolve_bloch(BlochVector(0, 0, -1), 1.0, math.pi)
        assert abs(r.r1) < 1e-12 and abs(r.r2) < 1e-12
        assert r.r3 == pytest.approx(1.0, abs=1e-12)

    def test_quarter_rotation(self):
        r = evolve_bloch(BlochVector(0, 0, -1), 1.0, math.pi / 2)
        assert r == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_full_rotation_is_identity(self):
        r0 = BlochVector(0.4, -0.2, 0.6)
        r = evolve_bloch(r0, 1.0, 2 * math.pi)
        assert r == pytest.approx(tuple(r0), abs=1e-12)

    def test_inversion_profile_is_minus_cosine(self):
        for t in np.linspace(0.0, 8.0, 60):
            r = evolve_bloch(BlochVector(0, 0, -1), 1.0, t)
            assert r.r3 == pytest.approx(-math.cos(t), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= max(1.0, np.linalg.norm(v))
            r0 = BlochVector(*v)
            r1 = evolve_bloch(r0, rng.uniform(0.1, 5.0), rng.uniform(0.0, 20.0))
            assert r1.norm() == pytest.approx(r0.norm(), abs=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            evolve_bloch(BlochVector(0, 0, -1), 1.0, -0.1)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError):
            evolve_bloch(BlochVector(0, 0, -1), 1.0, math.nan)


class TestApplyProjection:
    def test_coherences_dropped_populations_kept(self):
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        np.testing.assert_array_equal(apply_projection(rho), np.diag([0.3, 0.7]))

    def test_identity_on_diagonal_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_array_equal(apply_projection(rho), rho)

    def test_superposition_becomes_maximally_mixed(self):
        rho = density_from_bloch(BlochVector(1.0, 0.0, 0.0))
        np.testing.assert_allclose(apply_projection(rho), np.diag([0.5, 0.5]), atol=0)

    def test_never_increases_norm_never_moves_r3(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= max(1.0, np.linalg.norm(v))
            r0 = BlochVector(*v)
            rho = density_from_bloch(r0)
            projected = apply_projection(rho)
            # the map itself keeps the diagonal bit-exact
            np.testing.assert_array_equal(np.diag(projected), np.diag(rho))
            r1 = bloch_from_density(projected)
            assert r1.norm() <= r0.norm() + 1e-15
            assert r1.r3 == pytest.approx(r0.r3, abs=1e-15)


class TestConfigs:
    def test_t_pi(self):
        assert IonConfig(2.0, 1.0, 4).t_pi == math.pi / 2

    @pytest.mark.parametrize("kwargs", [
        dict(omega=0.0, tau_sp=1.0, n_pulses=1),
        dict(omega=1.0, tau_sp=-1.0, n_pulses=1),
        dict(omega=1.0, tau_sp=1.0, n_pulses=0),
        dict(omega=math.inf, tau_sp=1.0, n_pulses=1),
        dict(omega=1.0, tau_sp=math.nan, n_pulses=1),
        dict(omega=1.0, tau_sp=1.0, n_pulses=True),
        dict(omega=1.0, tau_sp=1.0, n_pulses=np.int64(0)),
    ])
    def test_bad_ion_config(self, kwargs):
        with pytest.raises(ConfigError):
            IonConfig(**kwargs)

    def test_numpy_count_becomes_int(self):
        n = IonConfig(1.0, 1.0, np.int64(4)).n_pulses
        assert n == 4 and type(n) is int

    def test_non_finite_schedule_rejected(self):
        with pytest.raises(ConfigError, match="optical_pulse_duration"):
            PulseSchedule(math.nan, 10.0)
        with pytest.raises(ConfigError, match="optical_rabi"):
            PulseSchedule(0.01, math.inf)

    def test_equispaced_schedule(self):
        ion = IonConfig(1.0, 0.01, 4)
        sched = PulseSchedule.equispaced(ion, duration_fraction=0.05)
        pulses = [seg for seg in _segments(LindbladConfig(ion, sched)) if seg[2]]
        assert [end for _, end, _, _ in pulses] == [ion.t_pi * (k / 4) for k in range(1, 5)]
        assert pulses[-1][1] == ion.t_pi
        spacing = ion.t_pi / 4
        assert sched.optical_pulse_duration == pytest.approx(0.05 * spacing)
        assert sched.optical_rabi * sched.optical_pulse_duration == pytest.approx(math.pi)

    def test_pulse_longer_than_spacing_rejected(self):
        ion = IonConfig(1.0, 0.01, 4)
        with pytest.raises(ConfigError):
            PulseSchedule.equispaced(ion, duration_fraction=1.5)

    def test_gamma_must_match_lifetime(self):
        ion = IonConfig(1.0, 0.5, 1)
        assert LindbladConfig(ion).gamma == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(TypeError):
            LindbladConfig(ion, gamma=3.0)

    def test_step_bound_enforced(self):
        ion = IonConfig(1.0, 0.5, 1)
        bound = LindbladConfig(ion).max_step()
        with pytest.raises(ConfigError):
            LindbladConfig(ion, integrator_step=2 * bound)

    def test_step_count_limit(self):
        ion = IonConfig(1.0, 1.0, 1)
        LindbladConfig(ion, integrator_step=ion.t_pi / (MAX_STEPS / 2))
        with pytest.raises(ConfigError, match=r"2e\+08 steps over t_pi, more than the limit 1e\+08"):
            LindbladConfig(ion, integrator_step=ion.t_pi / (2 * MAX_STEPS))

    def test_step_limit_counts_every_segment(self):
        # A tiny pulse area leaves the step at tau_sp / 20, 628 steps over
        # t_pi for any n, yet each of the 2n segments takes one step.
        ion = IonConfig(1.0, 0.1, 1000)
        sched = PulseSchedule.equispaced(ion, pulse_area=1e-9)
        assert sum(seg[3] for seg in _segments(LindbladConfig(ion, sched))) == 2000
        with mock.patch("zenosim.dynamics.MAX_STEPS", 1500):
            with pytest.raises(ConfigError, match=r"2.63e\+03 steps over t_pi"):
                LindbladConfig(ion, sched)

    def test_schedule_must_end_with_drive(self):
        # The last pulse ends at t_pi by construction; a schedule built for
        # another count has pulses as long as this ion's spacing.
        sched = PulseSchedule.equispaced(IonConfig(1.0, 0.01, 2), duration_fraction=0.5)
        with pytest.raises(ConfigError, match="shorter than the measurement spacing"):
            LindbladConfig(IonConfig(1.0, 0.01, 4), sched)


class TestIntegrateLindblad:
    def test_pure_exponential_decay(self):
        ion = IonConfig(1.0, 0.05, 1)
        # the stability bound alone leaves ~1e-7 accuracy; resolve finer here
        cfg = LindbladConfig(ion, integrator_step=0.05 / 100)
        traj = integrate_lindblad(cfg, AUX3)
        for t, rho in traj[:: max(1, len(traj) // 40)]:
            assert rho[2, 2].real == pytest.approx(math.exp(-t / 0.05), abs=1e-8)
        # the decay feeds the lower level: right after the first step the
        # recycled population is all in level 1, none yet driven to level 2
        t1, rho1 = traj[1]
        assert rho1[0, 0].real == pytest.approx(1.0 - math.exp(-t1 / 0.05), abs=1e-6)
        assert rho1[1, 1].real < 1e-9

    def test_uninterrupted_drive_fully_inverts(self):
        ion = IonConfig(1.0, 1.0, 1)
        cfg = LindbladConfig(ion, integrator_step=ion.t_pi / 4000)
        traj = integrate_lindblad(cfg, GROUND3)
        assert traj[-1][0] == ion.t_pi
        _, _, p2, p3 = populations(traj)[-1]
        assert p2 == pytest.approx(1.0, abs=1e-8)
        assert p3 == pytest.approx(0.0, abs=1e-12)

    def test_stationary_state_is_frozen(self):
        # no pulses, nothing in the short-lived level, and a drive-invariant
        # mixed state: the trajectory must be constant
        ion = IonConfig(1.0, 1e15, 1)
        cfg = LindbladConfig(ion)
        rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        traj = integrate_lindblad(cfg, rho0)
        np.testing.assert_allclose(traj[-1][1], rho0, atol=1e-12)

    def test_trajectory_states_stay_physical(self):
        ion = IonConfig(1.0, 0.1, 4)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        traj = integrate_lindblad(cfg, GROUND3)
        for _, rho in traj:
            assert abs(complex(rho.trace()) - 1.0) < TRAJECTORY_TRACE_TOL
            assert np.max(np.abs(rho - rho.conj().T)) < TRAJECTORY_HERMITICITY_TOL

    def test_restricted_two_level_dynamics_match_bloch_oracle(self):
        ion = IonConfig(1.0, 1e12, 1)
        cfg = LindbladConfig(ion, integrator_step=ion.t_pi / 4000)
        r0 = BlochVector(0.2, -0.3, -0.8)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[:2, :2] = density_from_bloch(r0)
        traj = integrate_lindblad(cfg, rho0)
        for t, rho in traj[::400] + [traj[-1]]:
            got = bloch_from_density(np.ascontiguousarray(rho[:2, :2]))
            want = evolve_bloch(r0, ion.omega, t)
            assert got == pytest.approx(tuple(want), abs=1e-8)

    def test_halving_step_converged(self):
        ion = IonConfig(1.0, 0.1, 2)
        sched = PulseSchedule.equispaced(ion)
        finals = []
        for divisor in (4, 8):
            cfg = LindbladConfig(ion, sched)
            cfg = LindbladConfig(ion, sched, integrator_step=cfg.max_step() / divisor)
            traj = integrate_lindblad(cfg, GROUND3)
            finals.append(np.diag(traj[-1][1]).real.copy())
        assert np.max(np.abs(finals[0] - finals[1])) < 1e-8

    def test_invalid_initial_state_reports_time_zero(self):
        ion = IonConfig(1.0, 0.1, 1)
        cfg = LindbladConfig(ion)
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(IntegrationError) as err:
            integrate_lindblad(cfg, bad)
        assert err.value.time == 0.0

    def test_non_finite_initial_state_rejected(self):
        cfg = LindbladConfig(IonConfig(1.0, 0.1, 1))
        starts = [np.full((3, 3), np.nan)]
        for entry in [(0, 0), (0, 1), (2, 2)]:
            starts.append(GROUND3.copy())
            starts[-1][entry] = np.inf
        for rho0, run in itertools.product(starts, (integrate_lindblad, final_state)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError, match="Hermiticity") as err:
                    run(cfg, rho0)
            assert err.value.time == 0.0

    @pytest.mark.parametrize(
        "entries, lost",
        [
            ({(0, 1): 1e200, (1, 0): 1e200}, "positivity (min eig -1.000e+200)"),
            ({(0, 0): 1e308, (1, 1): 1e308, (2, 2): -1e308}, "unit trace (residue inf)"),
        ],
        ids=["huge-coherence", "overflowing-trace"],
    )
    def test_huge_finite_initial_state_rejected(self, entries, lost):
        rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        for entry, value in entries.items():
            rho0[entry] = value
        cfg = LindbladConfig(IonConfig(1.0, 0.1, 1))
        for run in (integrate_lindblad, final_state):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError) as err:
                    run(cfg, rho0)
            assert (err.value.message, err.value.time) == (f"state lost {lost}", 0.0)

    def test_lost_trace_reported(self):
        cfg = LindbladConfig(IonConfig(1.0, 0.1, 1))
        for run in (integrate_lindblad, final_state):
            with pytest.raises(IntegrationError, match="state lost unit trace") as err:
                run(cfg, np.diag([0.5, 0.5, 0.5]))
            assert err.value.time == 0.0

    def test_two_level_initial_state_rejected(self):
        with pytest.raises(InvalidStateError, match="3x3"):
            integrate_lindblad(LindbladConfig(IonConfig(1.0, 0.1, 1)), np.diag([1.0, 0.0]))

    def test_gate_reports_earliest_state_in_check_order(self):
        # The earliest failing state is named; at that state Hermiticity is
        # reported before trace, and trace before positivity.
        good = GROUND3
        negative = np.diag([1.5, -0.5, 0.0]).astype(complex)  # positivity only
        everything = np.diag([1.5, -0.4, 0.0]).astype(complex)
        everything[0, 1] = 1e-3  # all three checks
        trace_and_positivity = np.diag([1.5, -0.4, 0.0]).astype(complex)

        def gate(stack):  # one block at times 0.0, 0.1, 0.2, ...
            _validate_block([(0.0, 0.1, 0, len(stack), None)], np.array(stack).reshape(-1, 9))

        cases = [
            ([good, negative, everything], "positivity (min eig -5.000e-01)", 0.1),
            ([good, everything, negative], "Hermiticity (residue 1.000e-03)", 0.1),
            ([good, good, trace_and_positivity], "unit trace (residue 1.000e-01)", 0.2),
        ]
        for stack, lost, time in cases:
            with pytest.raises(IntegrationError) as err:
                gate(stack)
            assert (err.value.message, err.value.time) == (f"state lost {lost}", time)
        gate([good] * 4)

    def test_failure_reported_at_earliest_state(self):
        # Two negative eigenvalues inside tolerance at t=0: the decay pours
        # the one of level 2 into level 0, and the minimum eigenvalue crosses
        # the tolerance inside a block, at a step far from either end.
        cfg = LindbladConfig(IonConfig(1.0, 1.0, 1))
        delta = 0.8e-8
        rho0 = np.diag([-delta, 1.0 + 2.0 * delta, -delta]).astype(complex)
        times, states = reference_rk4(cfg, rho0)
        low = np.linalg.eigvalsh(states)[:, 0]
        first = int(np.argmax(low < -TRAJECTORY_MIN_EIG_TOL))
        assert 1 < first < len(times) - 1
        for run in (integrate_lindblad, final_state):
            with pytest.raises(IntegrationError, match="positivity") as err:
                run(cfg, rho0)
            assert err.value.time == times[first]

    def test_positivity_test_matches_eigensolver(self):
        # Spectra around the tolerance, rank-deficient ones included.
        rng = np.random.default_rng(1)
        v = rng.normal(size=(2000, 3, 3)) + 1j * rng.normal(size=(2000, 3, 3))
        basis = np.linalg.eigh(v + v.conj().swapaxes(1, 2))[1]
        spectrum = np.stack([
            rng.choice([0.0, 1e-12, -1e-12, 5e-9, -5e-9, -2e-8, -1.0], size=2000),
            rng.choice([0.0, 1e-10, 0.3], size=2000),
            np.ones(2000),
        ], axis=1)
        herm = (basis * spectrum[:, None, :]) @ basis.conj().swapaxes(1, 2)
        want = np.linalg.eigvalsh(herm)[:, 0] >= -TRAJECTORY_MIN_EIG_TOL
        got = _positive_definite(herm.reshape(-1, 9).T)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(got, want)

    def test_returned_states_read_only(self):
        ion = IonConfig(1.0, 0.05, 1)
        traj = integrate_lindblad(LindbladConfig(ion), AUX3)
        with pytest.raises(ValueError):
            traj[0][1][0, 0] = 1.0


class TestEngineMatchesReferenceLoop:
    @pytest.mark.parametrize(
        "n, lifetime_ratio, fraction, rf_during_pulse",
        list(itertools.product((1, 2, 4), (5, 20, 100), (0.025, 0.05), (True, False))),
    )
    def test_every_state(self, n, lifetime_ratio, fraction, rf_during_pulse):
        ion = IonConfig(1.0, (math.pi / n) / lifetime_ratio, n)
        sched = PulseSchedule.equispaced(
            ion, duration_fraction=fraction, rf_during_pulse=rf_during_pulse
        )
        cfg = LindbladConfig(ion, sched)
        want_times, want = reference_rk4(cfg, GROUND3)
        traj = integrate_lindblad(cfg, GROUND3)
        assert [t for t, _ in traj] == want_times
        got = np.array([rho for _, rho in traj])
        assert np.max(np.abs(got - want)) <= 1e-12
        np.testing.assert_array_equal(final_state(cfg, GROUND3), traj[-1][1])


class TestEquispacedSchedule:
    """The O(1) schedule against one built from the explicit list of times."""

    @pytest.mark.parametrize(
        "n, tau_sp, fraction, rf_during_pulse",
        list(itertools.product(
            (1, 2, 3, 4, 7, 16, 31, 64), (0.1, 0.01), (0.025, 0.05, 0.3), (True, False)
        )),
    )
    def test_bit_identical_to_listed_times(self, n, tau_sp, fraction, rf_during_pulse):
        ion = IonConfig(1.0, tau_sp, n)
        sched = PulseSchedule.equispaced(
            ion, duration_fraction=fraction, rf_during_pulse=rf_during_pulse
        )
        cfg = LindbladConfig(ion, sched)
        segments = list(_segments(cfg))
        assert segments == listed_segments(cfg)
        with mock.patch("zenosim.dynamics._segments", listed_segments):
            want = final_state(cfg, GROUND3)
        np.testing.assert_array_equal(final_state(cfg, GROUND3), want)
        # The step limit's count is at least the steps the integrator runs.
        total = sum(seg[3] for seg in segments)
        with mock.patch("zenosim.dynamics.MAX_STEPS", math.nextafter(total, 0)):
            with pytest.raises(ConfigError, match="more than the limit"):
                LindbladConfig(ion, sched)


class TestChunkedEngine:
    """Stepping in blocks per segment, validation in chunks across segments."""

    def test_segments_are_lazy(self):
        ion = IonConfig(1.0, 0.1, 10**7)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, pulse_area=1e-9))
        tracemalloc.start()
        try:
            first = list(itertools.islice(_segments(cfg), 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [seg[2] for seg in first] == [False, True] * 5
        assert [seg[3] for seg in first] == [1] * 10
        assert peak < 1e6

    def test_step_maps_built_once_per_row(self):
        # The n = 8 row of the lindblad-check benchmark: 16 segments, 4 step maps.
        ion = IonConfig(1.0, math.pi / 8 / 20, 8)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        steps = sum(seg[3] for seg in _segments(cfg))
        with mock.patch("zenosim.dynamics._rk4_powers", wraps=_rk4_powers) as build, \
                mock.patch("zenosim.dynamics._validate_block", wraps=_validate_block) as gate:
            final_state(cfg, GROUND3)
        assert build.call_count == 4
        # Every chunk but the last holds more than _CHUNK - _BLOCK states.
        assert gate.call_count <= 2 + steps / (_CHUNK - _BLOCK)

    def test_failure_in_later_segment_of_chunk(self):
        # One-step segments, so a chunk spans _CHUNK segments; a patched
        # tolerance fails a state inside one, after others that pass.
        ion = IonConfig(1.0, 0.1, 2000)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, pulse_area=1e-9))
        assert {seg[3] for seg in _segments(cfg)} == {1}
        traj = integrate_lindblad(cfg, GROUND3)
        residues = hermiticity_residue(np.array([rho for _, rho in traj]))
        tol = float(np.max(residues[:_CHUNK + 100]))
        first = int(np.argmax(residues > tol))
        assert residues[first] > tol and (first - 1) % _CHUNK > 0
        lost = f"state lost Hermiticity (residue {residues[first]:.3e})"
        with mock.patch("zenosim.dynamics.TRAJECTORY_HERMITICITY_TOL", tol):
            for run in (integrate_lindblad, final_state):
                with pytest.raises(IntegrationError) as err:
                    run(cfg, GROUND3)
                assert (err.value.message, err.value.time) == (lost, traj[first][0])

    def test_failure_time_made_from_block_records(self):
        # A tolerance patched to the largest residue before a chosen state
        # fails that state: the last of a multi-block segment, whose time is
        # the segment's end and not start + n_steps * h, and one inside a
        # block of a later chunk, at start + i * h.
        ion = IonConfig(1.0, 0.1, 3)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, duration_fraction=0.05))
        segments = list(_segments(cfg))
        traj = integrate_lindblad(cfg, GROUND3)
        states = np.array([rho for _, rho in traj])
        herm = hermiticity_residue(states)
        trace = np.abs(states.trace(axis1=1, axis2=2) - 1.0)
        start, end, _, n_steps = segments[0]
        assert n_steps > _BLOCK and start + n_steps * ((end - start) / n_steps) != end
        later_start, later_end, _, later_steps = segments[4]  # the third gap
        base = sum(seg[3] for seg in segments[:4])
        i = next(i for i in range(1, later_steps)
                 if 0 < (i - 1) % _BLOCK < _BLOCK - 1 and trace[base + i] > trace[:base + i].max())
        cases = [
            ("TRAJECTORY_HERMITICITY_TOL", "Hermiticity", herm, n_steps, end),
            ("TRAJECTORY_TRACE_TOL", "unit trace", trace, base + i,
             later_start + i * ((later_end - later_start) / later_steps)),
        ]
        assert base + i > _CHUNK + 1
        for name, check, residues, index, time in cases:
            assert residues[index] > residues[:index].max() and traj[index][0] == time
            lost = f"state lost {check} (residue {residues[index]:.3e})"
            with mock.patch(f"zenosim.dynamics.{name}", float(residues[:index].max())):
                for run in (integrate_lindblad, final_state):
                    with pytest.raises(IntegrationError) as err:
                        run(cfg, GROUND3)
                    assert (err.value.message, err.value.time) == (lost, time)

    def test_final_state_makes_no_times(self):
        ion = IonConfig(1.0, 0.1, 4)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        with mock.patch("zenosim.dynamics._times", side_effect=AssertionError("times made")):
            final_state(cfg, GROUND3)


class TestPopulations:
    def test_constant_trajectory(self):
        ion = IonConfig(1.0, 1e15, 1)
        rho0 = np.diag([0.5, 0.5, 0.0]).astype(complex)
        traj = integrate_lindblad(LindbladConfig(ion), rho0)
        for _, p1, p2, p3 in populations(traj):
            assert p1 == pytest.approx(0.5, abs=1e-12)
            assert p2 == pytest.approx(0.5, abs=1e-12)
            assert p3 == pytest.approx(0.0, abs=1e-12)

    def test_decay_conserves_total(self):
        ion = IonConfig(1.0, 0.05, 1)
        traj = integrate_lindblad(LindbladConfig(ion, integrator_step=0.05 / 100), AUX3)
        for t, p1, p2, p3 in populations(traj):
            assert p3 == pytest.approx(math.exp(-t / 0.05), abs=1e-8)
            assert p1 + p2 + p3 == pytest.approx(1.0, abs=1e-9)
            assert min(p1, p2, p3) > -1e-9 and max(p1, p2, p3) < 1 + 1e-9

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            populations([])
