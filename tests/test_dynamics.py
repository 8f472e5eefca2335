"""Tests for Bloch precession, the projection map, and the Lindblad integrator."""

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import zenosim
from zenosim import (
    BlochVector,
    ConfigError,
    IntegrationError,
    InvalidStateError,
    IonConfig,
    LindbladConfig,
    PulseSchedule,
    ScheduleParams,
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
    _generator_parts,
    _positive_definite,
    _rk4_powers,
    _segments,
    _states,
    _trajectory_chunks,
    _validate_block,
    final_state,
)
from zenosim.states import hermiticity_residue, validate_density

SRC = str(Path(zenosim.__file__).resolve().parents[1])
GROUND3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
AUX3 = np.diag([0.0, 0.0, 1.0]).astype(complex)
#: The white-box gate tests' trajectory: one segment of 4500 steps of 0.01, state k at k * 0.01,
#: more states than one chunk holds.
GATE_CFG = LindbladConfig(IonConfig(math.pi / 45, 1e3, 1), integrator_step=0.01)
#: A state with two eigenvalues -NEGATIVE inside the tolerance: the decay of
#: level 2 pours its share into level 0, so the smallest eigenvalue falls to
#: about -2 NEGATIVE, still inside it, and keeps falling while level 2 decays.
NEGATIVE = 0.4e-8
LEAKY3 = np.diag([-NEGATIVE, 1.0 + 2.0 * NEGATIVE, -NEGATIVE]).astype(complex)


def coordinate_maps() -> tuple[np.ndarray, np.ndarray]:
    """A and B of x = A vec(rho) (for a Hermitian rho) and vec(rho) = B x, from their entries.

    x = (rho00, rho11, rho22, Re rho01, Im rho01, Re rho02, Im rho02, Re rho12,
    Im rho12) and vec is row-major: A has entries 1, 1/2 and -+i/2, B 1 and +-i.
    """
    to_x, from_x = np.zeros((9, 9), dtype=complex), np.zeros((9, 9), dtype=complex)
    for k, at in enumerate((0, 4, 8)):
        to_x[k, at] = from_x[at, k] = 1.0
    for k, (upper, lower) in zip((3, 5, 7), ((1, 3), (2, 6), (5, 7))):
        to_x[k, [upper, lower]] = 0.5
        to_x[k + 1, [upper, lower]] = -0.5j, 0.5j
        from_x[[upper, lower], k] = 1.0
        from_x[[upper, lower], k + 1] = 1j, -1j
    return to_x, from_x


TO_X, FROM_X = coordinate_maps()


def to_x(states) -> np.ndarray:
    """(b, 9) coordinates of the Hermitian parts of finite 3x3 states, by A, in C order."""
    return np.ascontiguousarray((np.asarray(states, dtype=complex).reshape(-1, 9) @ TO_X.T).real)


def from_x(rows: np.ndarray) -> np.ndarray:
    """(b, 9) row-major vec rows of finite coordinate rows, by B."""
    return rows @ FROM_X.T


def liouvillian(ham: np.ndarray, gamma: float) -> np.ndarray:
    """The complex 9x9 Liouvillian on row-major vec(rho), vec(A X B) = (A kron B^T) vec X.

    The jump operator |0><2| and its number operator |2><2| are real, so no
    conjugate or transpose of them appears.
    """
    eye = np.eye(3)
    jump, number = np.outer(eye[0], eye[2]), np.diag(eye[2])
    dissipator = np.kron(jump, jump) - 0.5 * (np.kron(number, eye) + np.kron(eye, number))
    return -1j * (np.kron(ham, eye) - np.kron(eye, ham.T)) + gamma * dissipator


def reference_times(cfg: LindbladConfig) -> list[float]:
    """Each state's time: 0.0, then start + i * h inside a segment and exactly its end at its last."""
    times = [0.0]
    for start, end, _, n_steps in _segments(cfg):
        h = (end - start) / n_steps
        times += [start + i * h if i < n_steps else end for i in range(1, n_steps + 1)]
    return times


def reference_generators(cfg: LindbladConfig) -> dict[bool, np.ndarray]:
    """The master equation's generator per pulse state, built from the commutator form.

    Its columns are the commutator-form right-hand side applied to the nine
    basis matrices (row-major), so it acts on a state's 9-vector.
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
    return {
        pulse_on: np.array([rhs(ham, e).reshape(9) for e in basis]).T
        for pulse_on, ham in ((False, h_free), (True, h_pulse))
    }


def reference_rk4(cfg: LindbladConfig, rho0) -> tuple[list[float], np.ndarray]:
    """Plain RK4, one step at a time, on the master equation in commutator form.

    Stepping :func:`reference_generators`' 9-vectors is the same arithmetic
    as stepping 3x3 matrices, at a fifth of the cost.
    """
    generators = reference_generators(cfg)
    x = np.asarray(rho0, dtype=complex).reshape(9)
    states = [x]
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
            states.append(x)
    return reference_times(cfg), np.array(states).reshape(-1, 3, 3)


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


def reference_gate(cfg: LindbladConfig, first: int, rows: np.ndarray) -> tuple[str, float] | None:
    """The integrator gate on complex (b, 9) vec rows, Hermiticity first.

    How the gate checked complex states before it read real coordinates, kept
    as the reference for its verdicts and for rho0's checks: None if the
    chunk, whose first state is state ``first`` of ``cfg``'s trajectory,
    passes, else the (message, time) of its first failure.
    """
    cols = rows.T.copy()
    herm = hermiticity_residue(cols.T.reshape(-1, 3, 3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace = np.abs(cols[0] + cols[4] + cols[8] - 1.0)
        a10, a20, a21 = (0.5 * (cols[low] + cols[up].conj()) for low, up in ((3, 1), (6, 2), (7, 5)))
        d1 = cols[0].real + TRAJECTORY_MIN_EIG_TOL
        d2 = cols[4].real + TRAJECTORY_MIN_EIG_TOL - np.abs(a10) ** 2 / d1
        d2_l32 = a21 - a20 * a10.conj() / d1
        d3 = cols[8].real + TRAJECTORY_MIN_EIG_TOL - np.abs(a20) ** 2 / d1 - np.abs(d2_l32) ** 2 / d2
    positive = (d1 > 0) & (d2 > 0) & (d3 > 0)
    ok = (herm <= TRAJECTORY_HERMITICITY_TOL) & (trace <= TRAJECTORY_TRACE_TOL) & positive
    if ok.all():
        return None
    i = int(np.argmin(ok))
    if not herm[i] <= TRAJECTORY_HERMITICITY_TOL:
        lost = f"Hermiticity (residue {herm[i]:.3e})"
    elif not trace[i] <= TRAJECTORY_TRACE_TOL:
        lost = f"unit trace (residue {trace[i]:.3e})"
    else:
        lost = f"positivity (min eig {validate_density(rows[i].reshape(3, 3)).min_eigenvalue:.3e})"
    return f"state lost {lost}", reference_times(cfg)[first + i]


def gate_outcome(cfg: LindbladConfig, first: int, rows: np.ndarray) -> tuple[str, float] | None:
    """``_validate_block``'s verdict on (b, 9) coordinate rows in :func:`reference_gate`'s terms."""
    try:
        passed = _validate_block(cfg, first, rows)
    except IntegrationError as err:
        return err.message, err.time
    assert passed is rows
    return None


def rho0_outcome(rho0: np.ndarray) -> tuple[str, float] | None:
    """The verdict on ``rho0`` of ``GATE_CFG``'s integration, in :func:`reference_gate`'s terms."""
    try:
        first, rows = next(_trajectory_chunks(GATE_CFG, rho0))
    except IntegrationError as err:
        return err.message, err.time
    assert first == 0
    np.testing.assert_array_equal(rows, to_x(rho0))
    return None


def density(rng, rank: int) -> np.ndarray:
    """A seeded random 3x3 density matrix of the given rank."""
    a = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def densities(rng, count: int) -> np.ndarray:
    """``count`` seeded random 3x3 density matrices, each of a random rank 1-3, as (count, 3, 3)."""
    a = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    a *= np.arange(3) < rng.integers(1, 4, size=(count, 1, 1))  # keep the first rank columns
    rho = a @ a.conj().swapaxes(1, 2)
    return rho / rho.trace(axis1=1, axis2=2).real[:, None, None]


def rotated(rng, spectrum) -> np.ndarray:
    """The Hermitian matrix with ``spectrum`` in a seeded random eigenbasis."""
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis = np.linalg.eigh(a + a.conj().T)[1]
    return (basis * np.asarray(spectrum)) @ basis.conj().T


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
        with pytest.raises(ValueError, match=r"got omega=1\.0, dt=-0\.1$"):
            evolve_bloch(BlochVector(0, 0, -1), 1.0, -0.1)

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match=r"got omega=1\.0, dt=nan$"):
            evolve_bloch(BlochVector(0, 0, -1), 1.0, math.nan)

    @pytest.mark.parametrize("omega, dt", [
        (math.inf, 0.0), (math.nan, 0.0), (math.nan, 1.0), (1.0, math.inf), (-math.inf, 2.0),
        (1e300, 1e10),
    ])
    def test_non_finite_angle_rejected(self, omega, dt):
        # An infinite or NaN omega * dt would give a NaN vector or a bare math domain error.
        message = f"need dt >= 0 and a finite omega * dt, got omega={omega!r}, dt={dt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve_bloch(BlochVector(0, 0, -1), omega, dt)

    @pytest.mark.parametrize("omega, dt", [
        (True, True), (True, 1.0), (1.0, True), (1.0, np.bool_(True)), ("1", 2), (1.0, "1"),
        (Decimal("1"), 1.0), (1.0, None), (1j, 1.0),
    ], ids=repr)
    def test_non_real_argument_rejected(self, omega, dt):
        # True would rotate by one radian, and "1" * 2 is "11" before any arithmetic fails.
        message = f"need dt >= 0 and a finite omega * dt, got omega={omega!r}, dt={dt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve_bloch(BlochVector(0, 0, -1), omega, dt)

    def test_float32_arguments_rotate_in_float64(self):
        # omega * dt in float32 moved the vector by 9.2e-10.
        r0 = BlochVector(0.1, 0.2, -0.3)
        omega, dt = np.float32(0.7), np.float32(0.3)
        assert evolve_bloch(r0, omega, dt) == evolve_bloch(r0, float(omega), float(dt))

    def test_components_returned_as_python_floats(self):
        r = evolve_bloch(BlochVector(*np.array([0.1, 0.2, -0.3], dtype=np.float32)), 1.0, 0.1)
        assert {type(part) for part in r} == {float}

    @pytest.mark.parametrize("r0", [("0.1", 0.0, 0.0), (True, 0.0, 0.0), (0.0, 1j, 0.0)], ids=repr)
    def test_non_real_component_refused(self, r0):
        # A str r1 came back unchecked.
        message = f"Bloch vector components must be real numbers, not bool, got {r0!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve_bloch(BlochVector(*r0), 1.0, 0.1)

    def test_real_arguments_of_any_type_accepted(self):
        expected = evolve_bloch(BlochVector(0, 0, -1), 0.5, 2.0)
        for omega, dt in [(Fraction(1, 2), np.int64(2)), (np.float64(0.5), 2), (0.5, Fraction(2))]:
            assert evolve_bloch(BlochVector(0, 0, -1), omega, dt) == expected


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

    @pytest.mark.parametrize("area", [0.0, -1.0, math.inf, math.nan])
    def test_bad_pulse_area_names_its_field(self, area):
        with pytest.raises(ConfigError) as err:
            PulseSchedule.equispaced(IonConfig(1.0, 0.01, 4), pulse_area=area)
        assert err.value.field == "schedule.pulse_area"

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

    def test_schedule_setup_checks_fraction_and_area_once(self, monkeypatch):
        # ScheduleParams has checked both, so setup reaches the equispaced kernel directly
        params, ion = ScheduleParams(0.02, 3.0), IonConfig(1.0, 0.01, 3)
        expected, positive = params.setup(ion), zenosim.dynamics.check_positive

        def refuse(value, field):
            raise AssertionError(f"{field} checked again")

        monkeypatch.setattr("zenosim.dynamics.check_fraction", refuse)
        monkeypatch.setattr(
            "zenosim.dynamics.check_positive",
            lambda value, field: refuse(value, field) if field == "schedule.pulse_area" else positive(value, field),
        )
        assert params.setup(ion) == expected
        with pytest.raises(AssertionError, match="^schedule.pulse_duration_fraction checked again$"):
            PulseSchedule.equispaced(ion, 0.02, 3.0)  # library callers are still checked
        monkeypatch.setattr("zenosim.dynamics.check_fraction", lambda value, field: value)
        with pytest.raises(AssertionError, match="^schedule.pulse_area checked again$"):
            PulseSchedule.equispaced(ion, 0.02, 3.0)

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
        # The earliest failing state is named; at that state trace is reported
        # before positivity, and rho0's Hermiticity before both.
        good = GROUND3
        negative = np.diag([1.5, -0.5, 0.0]).astype(complex)  # positivity only
        trace_and_positivity = np.diag([1.5, -0.4, 0.0]).astype(complex)

        def gate(stack):  # the chunk from rho0: times 0.0, 0.01, 0.02, ...
            _validate_block(GATE_CFG, 0, to_x(stack))

        cases = [
            ([good, negative, trace_and_positivity], "positivity (min eig -5.000e-01)", 0.01),
            ([good, trace_and_positivity, negative], "unit trace (residue 1.000e-01)", 0.01),
            ([good, good, trace_and_positivity], "unit trace (residue 1.000e-01)", 0.02),
        ]
        for stack, lost, time in cases:
            with pytest.raises(IntegrationError) as err:
                gate(stack)
            assert (err.value.message, err.value.time) == (f"state lost {lost}", time)
        gate([good] * 4)
        everything = trace_and_positivity.copy()
        everything[0, 1] = 1e-3  # all three checks
        for run in (integrate_lindblad, final_state):
            with pytest.raises(IntegrationError) as err:
                run(GATE_CFG, everything)
            assert (err.value.message, err.value.time) == ("state lost Hermiticity (residue 1.000e-03)", 0.0)

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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = _positive_definite(to_x(herm).T)
        assert want.any() and not want.all()
        np.testing.assert_array_equal(got, want)

    def test_returned_states_read_only(self):
        ion = IonConfig(1.0, 0.05, 1)
        traj = integrate_lindblad(LindbladConfig(ion), AUX3)
        with pytest.raises(ValueError):
            traj[0][1][0, 0] = 1.0


@pytest.fixture(
    scope="module",
    params=list(itertools.product((1, 2, 4), (5, 20, 100), (0.025, 0.05), (True, False))),
    ids=lambda case: "-".join(map(str, case)),
)
def engine_case(request):
    """(n, lifetime ratio, fraction, rf_during_pulse): its config and trajectory, integrated once.

    A module-scoped parameter: pytest runs every test of one grid point in a row, so each
    trajectory is integrated once and dropped before the next.
    """
    n, lifetime_ratio, fraction, rf_during_pulse = request.param
    ion = IonConfig(1.0, (math.pi / n) / lifetime_ratio, n)
    sched = PulseSchedule.equispaced(ion, duration_fraction=fraction, rf_during_pulse=rf_during_pulse)
    cfg = LindbladConfig(ion, sched)
    return cfg, integrate_lindblad(cfg, GROUND3)


class TestEngineMatchesReferenceLoop:
    def test_every_state(self, engine_case):
        cfg, traj = engine_case
        want_times, want = reference_rk4(cfg, GROUND3)
        assert [t for t, _ in traj] == want_times
        got = np.array([rho for _, rho in traj])
        assert np.max(np.abs(got - want)) <= 1e-12
        np.testing.assert_array_equal(final_state(cfg, GROUND3), traj[-1][1])


class TestHermitianByConstruction:
    def test_every_state_exactly_hermitian(self, engine_case):
        # No state needs a Hermiticity check: each is exactly Hermitian.
        _, traj = engine_case
        assert (hermiticity_residue(np.array([rho for _, rho in traj])) == 0.0).all()


class TestRealCoordinates:
    """The real generator and the conversions against the complex Liouvillian and the maps A, B."""

    def test_maps_are_inverse(self):
        np.testing.assert_array_equal(TO_X @ FROM_X, np.eye(9))

    def test_generator_parts_are_the_liouvillian_in_coordinates(self):
        eye = np.eye(3)
        rf, optical, decay = _generator_parts()
        for part, (a, b), gamma in ((rf, (0, 1), 0.0), (optical, (0, 2), 0.0), (decay, (0, 0), 1.0)):
            ham = -0.5 * (np.outer(eye[a], eye[b]) + np.outer(eye[b], eye[a])) if a != b else 0 * eye
            want = TO_X @ liouvillian(ham, gamma) @ FROM_X
            assert not want.imag.any()
            assert np.abs(part - want.real).max() <= 1e-15

    @pytest.mark.parametrize("n, tau_sp, rf_during_pulse", [
        (2, math.pi / 2 / 20, True), (8, math.pi / 8 / 20, True), (4, 0.01, False), (3, 0.1, True),
    ])
    def test_engine_generators_are_the_liouvillian_in_coordinates(self, n, tau_sp, rf_during_pulse):
        ion = IonConfig(1.0, tau_sp, n)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, rf_during_pulse=rf_during_pulse))
        want = {on: TO_X @ generator @ FROM_X for on, generator in reference_generators(cfg).items()}
        with mock.patch("zenosim.dynamics._rk4_powers", wraps=_rk4_powers) as build:
            final_state(cfg, GROUND3)
        seen = set()
        for call in build.call_args_list:
            pulse_on = bool(call.args[0][0, 6])  # the optical drive moves rho00 with Im rho02
            assert np.abs(call.args[0] - want[pulse_on]).max() <= 1e-15
            seen.add(pulse_on)
        assert seen == {False, True}

    def test_conversions_are_the_maps(self):
        rng = np.random.default_rng(22)
        for _ in range(50):  # rho0 within the Hermiticity tolerance starts as A vec(rho0)
            rho = density(rng, int(rng.integers(1, 4)))
            rho[2, 0] += 5e-11 * np.exp(2j * math.pi * rng.random())
            assert rho0_outcome(rho) is None
        xs = rng.normal(size=(300, 9))
        np.testing.assert_array_equal(_states(xs).reshape(-1, 9), from_x(xs))
        out = np.full((300, 3, 3), np.nan, dtype=complex)  # every entry is assigned
        assert _states(xs, out) is out
        np.testing.assert_array_equal(out.reshape(-1, 9), from_x(xs))

    def test_clean_row_calls_no_linalg(self):
        # LAPACK stays unloaded on a row that passes: an eigensolver is only
        # called to report a lost positivity.
        ion = IonConfig(1.0, math.pi / 8 / 20, 8)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        raising = {
            name: mock.Mock(side_effect=AssertionError(f"numpy.linalg.{name} called"))
            for name in np.linalg.__all__
            if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type)
        }
        with mock.patch.multiple(np.linalg, **raising):
            final_state(cfg, GROUND3)
            with pytest.raises(AssertionError, match="numpy.linalg.eigvalsh called"):
                validate_density(GROUND3)


#: Re rho01, Re rho02 and Im rho12: coordinates that the generator couples only with each other.
SECTOR = [3, 5, 8]


class TestGroundStateSector:
    """x3, x5 and x8 form a sector of their own, which a trajectory from the ground state never enters."""

    def test_generator_parts_do_not_couple_the_sectors(self):
        rest = [k for k in range(9) if k not in SECTOR]
        for part in _generator_parts():
            assert not part[np.ix_(SECTOR, rest)].any()
            assert not part[np.ix_(rest, SECTOR)].any()

    @pytest.mark.parametrize("tau_sp, n, fraction, area, rf_during_pulse, states", [
        (math.pi / 8 / 20, 8, 0.025, math.pi, True, 20113),  # lindblad-check's n = 8 row
        (0.01, 4, 0.05, math.pi, True, 6289),
        (0.05, 3, 0.025, 3.0, False, 7203),
    ], ids=["check-row-8", "fraction-0.05", "drive-gated"])
    def test_stays_positive_zero_from_the_ground_state(self, tau_sp, n, fraction, area, rf_during_pulse,
                                                       states):
        ion = IonConfig(1.0, tau_sp, n)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, fraction, area, rf_during_pulse))
        rhos = np.array([rho for _, rho in integrate_lindblad(cfg, GROUND3)])
        sector = np.stack([rhos[:, 0, 1].real, rhos[:, 0, 2].real, rhos[:, 1, 2].imag])
        assert sector.shape == (3, states)
        assert sector.tobytes() == bytes(sector.nbytes)  # +0.0, bit for bit


#: (n, tau_sp, fraction, rf_during_pulse) of the equispaced-schedule grid, at omega = 1.
SCHEDULE_GRID = list(itertools.product(
    (1, 2, 3, 4, 7, 16, 31, 64), (0.1, 0.01), (0.025, 0.05, 0.3), (True, False)
))


class TestEquispacedSchedule:
    """The O(1) schedule against one built from the explicit list of times."""

    @pytest.mark.parametrize("n, tau_sp, fraction, rf_during_pulse", SCHEDULE_GRID)
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


class TestExactOracle:
    """RK4 against the exact map, exp(L (end - start)) per segment of constant generator L.

    Largest gaps measured over the grid and the ``lindblad-check`` rows
    (scipy 1.17, numpy 2.4): 6.6e-8 in an entry and 2.7e-9 in p2; the bounds
    are 1.5 times those.
    """

    @pytest.mark.parametrize(
        "n, tau_sp, fraction, rf_during_pulse",
        SCHEDULE_GRID + [(n, math.pi / n / 20, 0.025, True) for n in (2, 4, 8)],
    )
    def test_final_state_within_rk4_error(self, n, tau_sp, fraction, rf_during_pulse):
        expm = pytest.importorskip("scipy.linalg").expm
        ion = IonConfig(1.0, tau_sp, n)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, fraction, math.pi, rf_during_pulse))
        generators = reference_generators(cfg)
        exact = GROUND3.reshape(9)
        for start, end, pulse_on, _ in _segments(cfg):
            exact = expm(generators[pulse_on] * (end - start)) @ exact
        got = final_state(cfg, GROUND3)
        assert np.abs(got - exact.reshape(3, 3)).max() <= 1e-7
        assert abs(got[1, 1].real - exact[4].real) <= 4e-9


LINDBLAD_CHECK_PASSES = """
import math
import time

from zenosim import IonConfig, LindbladConfig, PulseSchedule, lindblad_p2


def one_pass():  # the rows of `zenosim lindblad-check` at n = 2, 4, 8, tau_sp = (pi/n)/20
    for n in (2, 4, 8):
        ion = IonConfig(1.0, math.pi / n / 20, n)
        lindblad_p2(LindbladConfig(ion, PulseSchedule.equispaced(ion)))


one_pass()  # numpy's import is not timed, nor the spin of the threads it starts:
time.sleep(0.5)  # after a burst of work OpenBLAS threads spin for a while before they sleep
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(5):
    one_pass()
print(time.process_time() - cpu, time.perf_counter() - wall)
"""


class TestChunkedEngine:
    """Stepping in blocks per segment, validation in chunks across segments."""

    #: Chunk sizes that must give the same bits and failures: whole blocks, two or more.
    CHUNK_SIZES = (2 * _BLOCK, 8 * _BLOCK, _CHUNK)

    def test_block_products_run_on_one_core(self):
        # A fresh interpreter with no *_NUM_THREADS variable runs numpy at its
        # default thread count, where OpenBLAS spreads a complex matrix-vector
        # product of over 4096 entries across every core and its threads spin
        # between calls: one complex (9 * 64, 9) product per block would about
        # double a pass's CPU time.  The real (9 * 64, 9) product the engine
        # makes stays on one core (real (m, 9) ones did up to m = 8000 with
        # OpenBLAS 0.3.31).  On a single-core machine CPU time cannot exceed
        # wall time and this passes trivially.
        env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", LINDBLAD_CHECK_PASSES],
                                capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr
        cpu, wall = map(float, result.stdout.split())
        assert cpu <= 1.5 * wall, (cpu, wall)

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
        # One-step segments, so a chunk spans _CHUNK segments; a tolerance
        # patched between a state's smallest eigenvalue and those before it
        # fails that state inside one, after others that pass, at every chunk size.
        ion = IonConfig(1.0, 1.0, 4000)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, pulse_area=1e-9))
        assert {seg[3] for seg in _segments(cfg)} == {1}
        traj = integrate_lindblad(cfg, LEAKY3)
        low = np.linalg.eigvalsh(np.array([rho for _, rho in traj]))[:, 0]
        first = _CHUNK + 100
        assert low[first] < low[:first].min() and all((first - 1) % size > 0 for size in self.CHUNK_SIZES)
        lost = f"state lost positivity (min eig {validate_density(traj[first][1]).min_eigenvalue:.3e})"
        with mock.patch("zenosim.dynamics.TRAJECTORY_MIN_EIG_TOL", -(low[first] + low[:first].min()) / 2):
            for size, run in itertools.product(self.CHUNK_SIZES, (integrate_lindblad, final_state)):
                with mock.patch("zenosim.dynamics._CHUNK", size), pytest.raises(IntegrationError) as err:
                    run(cfg, LEAKY3)
                assert (err.value.message, err.value.time) == (lost, traj[first][0]), size

    def test_failure_time_at_segment_end_and_inside_block(self):
        # A tolerance patched between a chosen state's residue and the largest
        # before it fails that state: the last of a multi-block segment, whose
        # time is the segment's end and not start + n_steps * h, and one inside
        # a block of a later chunk, at start + i * h.
        ion = IonConfig(1.0, 1.0, 3)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion, duration_fraction=0.05),
                             integrator_step=1 / 2400)  # half the default, so the third gap is past a chunk
        segments = list(_segments(cfg))
        start, end, _, n_steps = segments[0]
        assert n_steps > _BLOCK and start + n_steps * ((end - start) / n_steps) != end
        # Positivity at the segment's end: LEAKY3's level 2 is still decaying there.
        traj = integrate_lindblad(cfg, LEAKY3)
        low = np.linalg.eigvalsh(np.array([rho for _, rho in traj]))[:, 0]
        assert low[n_steps] < low[:n_steps].min() and traj[n_steps][0] == end
        lost = f"positivity (min eig {validate_density(traj[n_steps][1]).min_eigenvalue:.3e})"
        cases = [(LEAKY3, "TRAJECTORY_MIN_EIG_TOL", -(low[n_steps] + low[:n_steps].min()) / 2,
                  lost, end)]
        # Trace inside a block of the third gap, in a later chunk.
        traj = integrate_lindblad(cfg, GROUND3)
        trace = np.abs(np.array([rho for _, rho in traj]).trace(axis1=1, axis2=2) - 1.0)
        later_start, later_end, _, later_steps = segments[4]
        base = sum(seg[3] for seg in segments[:4])
        i = next(i for i in range(1, later_steps)
                 if 0 < (i - 1) % _BLOCK < _BLOCK - 1 and trace[base + i] > trace[:base + i].max())
        time = later_start + i * ((later_end - later_start) / later_steps)
        assert base + i > _CHUNK + 1 and traj[base + i][0] == time
        cases.append((GROUND3, "TRAJECTORY_TRACE_TOL", float(trace[:base + i].max()),
                      f"unit trace (residue {trace[base + i]:.3e})", time))
        for rho0, name, tol, lost, time in cases:
            with mock.patch(f"zenosim.dynamics.{name}", tol):
                for run in (integrate_lindblad, final_state):
                    with pytest.raises(IntegrationError) as err:
                        run(cfg, rho0)
                    assert (err.value.message, err.value.time) == (f"state lost {lost}", time)

    def test_chunk_size_moves_no_bits(self):
        # Blocks never straddle chunks, so every block product starts from the
        # same state at any chunk size.  The reused buffer needs whole blocks
        # and room for a block past the carried state.
        assert _CHUNK % _BLOCK == 0 and _CHUNK >= 2 * _BLOCK
        # lindblad-check's n = 8 row and criterion 5's rows at lifetime ratios 10 and 100.
        ion = IonConfig(1.0, math.pi / 8 / 20, 8)
        cfgs = [LindbladConfig(ion, PulseSchedule.equispaced(ion))]
        for ratio in (10, 100):
            ion = IonConfig(1.0, math.pi / ratio, 4)
            schedule = PulseSchedule.equispaced(ion, duration_fraction=0.05)
            cfgs.append(LindbladConfig(ion, schedule, LindbladConfig(ion, schedule).max_step() / 4))
        for cfg in cfgs:
            runs = set()
            for size in self.CHUNK_SIZES:
                with mock.patch("zenosim.dynamics._CHUNK", size):
                    traj = integrate_lindblad(cfg, GROUND3)
                    last = final_state(cfg, GROUND3)
                states = np.array([rho for _, rho in traj])
                runs.add((tuple(t for t, _ in traj), states.tobytes(), last.tobytes()))
            assert len(runs) == 1 and len(states) > 2 * _CHUNK

    def test_final_state_makes_no_times(self):
        ion = IonConfig(1.0, 0.1, 4)
        cfg = LindbladConfig(ion, PulseSchedule.equispaced(ion))
        with mock.patch("zenosim.dynamics._state_times", side_effect=AssertionError("times made")):
            final_state(cfg, GROUND3)


class TestGate:
    """The real gate on coordinate rows, and rho0's complex checks, against the formulas they replaced."""

    @staticmethod
    def probes(rng) -> dict[str, list[np.ndarray]]:
        """States a few ulps either side of each check's tolerance, and non-finite or huge ones."""
        eps = np.finfo(float).eps
        probes = {"Hermiticity": [], "unit trace": [], "positivity": [], "far": []}
        for k in range(-3, 4):
            exact = np.diag([0.5, 0.5, 0.0]).astype(complex)
            exact[1, 0] = TRAJECTORY_HERMITICITY_TOL + k * math.ulp(TRAJECTORY_HERMITICITY_TOL)
            rounded = density(rng, 3)
            rounded[2, 0] += (1e-10 + k * 2e-17) * np.exp(2j * math.pi * rng.random())
            probes["Hermiticity"] += [exact, rounded]
            shifted = density(rng, 3)
            shifted[1, 1] += 1e-9 + k * eps
            probes["unit trace"] += [shifted, np.diag([1.0 - 1e-9 + k * eps, 0.0, 0.0]).astype(complex)]
            spectrum = [-1e-8 + k * 8e-16, 0.3 + 1e-8 - k * 8e-16, 0.7]
            probes["positivity"].append(rotated(rng, spectrum))
        for value in (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf),
                      complex(np.inf, -np.inf), 1e200, 1.5e308 + 1.5e308j):
            bad = density(rng, 2)
            bad[divmod(int(rng.integers(9)), 3)] = value
            probes["far"].append(bad)
        probes["far"] += [rotated(rng, [-0.5, 0.5, 1.0]), np.full((3, 3), np.nan)]
        return probes

    def test_same_verdict_and_first_failure_as_reference(self):
        def check(outcome):
            return None if outcome is None else outcome[0].split(" (")[0]

        rng = np.random.default_rng(15)
        probes = self.probes(rng)
        for name, states in probes.items():  # each alone as rho0, whose checks include Hermiticity
            seen = set()
            for probe in states:
                want = reference_gate(GATE_CFG, 0, probe.reshape(1, 9))
                assert rho0_outcome(probe) == want, want
                seen.add(check(want))
            if name != "far":  # the probes straddle the tolerance
                assert seen == {None, f"state lost {name}"}
        # In chunks, the Hermitian parts of the finite probes as coordinates.
        pool = [to_x(probe)[0] for states in probes.values() for probe in states
                if np.isfinite(probe).all()]
        seen = set()
        for size in [1] * 40 + [2, 9, 37, 63, 64, 65, 300, _CHUNK - 1, _CHUNK] * 12:
            rows = to_x(densities(rng, size))
            for at in rng.choice(size, size=min(size, int(rng.integers(0, 4))), replace=False):
                rows[at] = pool[rng.integers(len(pool))]
            want = reference_gate(GATE_CFG, 1, from_x(rows))
            assert gate_outcome(GATE_CFG, 1, rows) == want, want
            seen.add(check(want))
        assert seen == {None, "state lost unit trace", "state lost positivity"}

    def test_non_finite_coordinates_fail(self):
        # A state that overflowed in the steps fails trace if a population is
        # not finite, else positivity, at its own time.
        for k, value in itertools.product(range(9), (np.nan, np.inf, -np.inf)):
            rows = to_x([GROUND3] * 5)
            rows[3, k] = value
            if k < 3:
                lost = f"unit trace (residue {abs(value):.3e})"
            else:
                lost = "positivity (min eig nan)"
            assert gate_outcome(GATE_CFG, 0, rows) == (f"state lost {lost}", 0.03), (k, value)

    def test_residue_is_hermiticity_residue(self):
        # A tolerance patched to a state's hermiticity_residue passes its
        # Hermiticity check and the next float below fails it: the gate's
        # residue is that one bit for bit, NaN and inf included.
        rng = np.random.default_rng(16)
        stacks = []
        for scale in np.logspace(-300, 307, 41):
            a = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
            stacks += [scale * a, scale * (a + a.conj().swapaxes(1, 2)) / 2]
        overflowing = np.diag([0.5, 0.5, 0.0]).astype(complex)
        overflowing[0, 1], overflowing[1, 0] = 1.7e308, -1.7e308  # finite entries, inf residue
        stacks.append(overflowing[None])
        for value in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), 1.7e308, -1.7e308j):
            stack = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
            stack.reshape(-1)[rng.choice(27, size=3, replace=False)] = value
            stacks.append(stack)
        kinds = set()
        for rho in np.concatenate(stacks):
            residue = float(hermiticity_residue(rho))
            lost = (f"state lost Hermiticity (residue {residue:.3e})", 0.0)
            kinds.add("nan" if math.isnan(residue) else "inf" if math.isinf(residue) else "finite")
            if not math.isnan(residue):
                with mock.patch("zenosim.dynamics.TRAJECTORY_HERMITICITY_TOL", residue):
                    outcome = rho0_outcome(rho)
                assert outcome is None or not outcome[0].startswith("state lost Hermiticity")
            below = math.nan if math.isnan(residue) else math.nextafter(residue, -math.inf)
            with mock.patch("zenosim.dynamics.TRAJECTORY_HERMITICITY_TOL", below):
                assert rho0_outcome(rho) == lost
        assert kinds == {"nan", "inf", "finite"}


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
