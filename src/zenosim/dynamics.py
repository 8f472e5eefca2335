"""Time evolution: Bloch precession, projective measurement, Lindblad dynamics.

The two-level drive rotates the Bloch vector about the first axis,

    dR/dt = w x R,    w = (Omega, 0, 0),

so a system started in the lower level has r3(t) = -cos(Omega t).  A
projective population measurement zeroes the coherences and leaves the
populations untouched.

The three-level model adds a short-lived auxiliary level (index 2) coupled to
the lower level by square optical pulses and decaying back to it at rate
gamma = 1/tau_sp.  The N pulses are equispaced, the k-th ending at k T / N,
so a schedule holds no list of times and costs the same for any N.  Its
master equation,

    drho/dt = -i [H(t), rho] + gamma (L rho L+ - {L+L, rho}/2),   L = |0><2|,

is integrated with a fixed-step classical 4th-order Runge-Kutta scheme, with
steps aligned to the pulse-window boundaries so the piecewise-constant
Hamiltonian never changes inside a step.  The drive signs follow the Bloch
convention above, which fixes H_rf = -(Omega/2)(|0><1| + |1><0|).

The equation is linear, so inside a segment one RK4 step is a fixed 9x9 map
on the row-major vec(rho), P = sum_{k<=4} (h L)^k / k! with L the Liouvillian
(Havel, J. Math. Phys. 44, 534 (2003)).  States come in blocks: P..P^b, built
once per row for each segment kind and step, are stacked into one (9b, 9)
matrix that takes the last state to the next b.  Blocks fill chunks of up to
512 states that run across segments; each chunk is validated at once before it
is handed on, and carries one record per block, not a time per state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrationError, InvalidStateError, check_count
from .states import TRAJECTORY_HERMITICITY_TOL, TRAJECTORY_MIN_EIG_TOL, TRAJECTORY_TRACE_TOL
from .states import BlochVector, as_density, hermiticity_residue, validate_density

#: Steps per fastest timescale required of the integrator step.
_STEP_MARGIN = 20
#: Most RK4 steps allowed over t_pi, counting at least one per segment, beyond
#: which a config is refused up front.  A step inside a long segment costs about
#: 0.45 us (numpy 2.4, 2.0 GHz Xeon), about 45 s at the limit; a one-step
#: segment 5.5-7 us, so a row of them at the limit runs 9-12 minutes.
MAX_STEPS = 10**8
#: States per block: P, P^2, ..., P^_BLOCK are stacked once per (segment kind, step) of a row.
_BLOCK = 64
#: States validated, and yielded, at once: the blocks of one or more segments.
_CHUNK = 8 * _BLOCK
#: Rows per product, half a block: numpy's OpenBLAS runs one of over 4096 entries on every core.
_PRODUCT_ROWS = 9 * _BLOCK // 2


@dataclass(frozen=True)
class IonConfig:
    """Drive and decay parameters of the two-level ion.

    ``omega`` is the Rabi frequency of the always-on drive, ``tau_sp`` the
    spontaneous lifetime of the auxiliary measurement level, and ``n_pulses``
    the number of equispaced measurements during the inversion pulse of
    duration ``t_pi``.
    """

    omega: float
    tau_sp: float
    n_pulses: int

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ConfigError("must be finite and > 0", field="ion.omega")
        if not (math.isfinite(self.tau_sp) and self.tau_sp > 0):
            raise ConfigError("must be finite and > 0", field="ion.tau_sp")
        object.__setattr__(self, "n_pulses", check_count(self.n_pulses, "ion.n_pulses"))

    @property
    def t_pi(self) -> float:
        """Duration of the population-inverting drive pulse, pi/omega."""
        return math.pi / self.omega


@dataclass(frozen=True)
class ScheduleParams:
    """Optical measurement-pulse knobs shared by all rows of a sweep.

    Pulses last ``pulse_duration_fraction`` of the measurement spacing and
    carry ``pulse_area`` on the optical transition (pi by default).  These
    defaults are also those of :meth:`PulseSchedule.equispaced`.
    """

    pulse_duration_fraction: float = 0.025
    pulse_area: float = math.pi
    rf_during_pulse: bool = True
    integrator_step: float | None = None


@dataclass(frozen=True)
class PulseSchedule:
    """Optical measurement pulses, equispaced over the drive pulse.

    The k-th of the ion's n measurements is a square pulse on the 0<->2
    transition ending at t_pi * (k / n), so the last ends exactly when the
    drive pulse does; build one with :meth:`equispaced`.  ``rf_during_pulse``
    keeps the two-level drive on inside the windows (the default) or gates
    it off.
    """

    optical_pulse_duration: float
    optical_rabi: float
    rf_during_pulse: bool = True

    def __post_init__(self):
        for name in ("optical_pulse_duration", "optical_rabi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError("must be finite and > 0", field=f"schedule.{name}")

    @classmethod
    def equispaced(
        cls,
        ion: IonConfig,
        duration_fraction: float = ScheduleParams.pulse_duration_fraction,
        pulse_area: float = ScheduleParams.pulse_area,
        rf_during_pulse: bool = ScheduleParams.rf_during_pulse,
    ) -> "PulseSchedule":
        """Build the schedule of measurements at tau_k = k T / N for ``ion``.

        The pulse length is ``duration_fraction`` of the spacing T/N and the
        optical Rabi frequency is set so each pulse has area ``pulse_area``
        (a pi pulse by default).  The default fraction keeps the decay during
        a pulse weak (gamma * duration <= 1) so the pulse is not overdamped;
        overdamping suppresses the optical transfer and weakens the
        measurement itself.
        """
        if not 0 < duration_fraction < 1:
            raise ConfigError("must be in (0, 1)", field="schedule.pulse_duration_fraction")
        if not pulse_area > 0:
            raise ConfigError("must be > 0", field="schedule.pulse_area")
        duration = duration_fraction * (ion.t_pi / ion.n_pulses)
        return cls(duration, pulse_area / duration, rf_during_pulse)


@dataclass(frozen=True)
class LindbladConfig:
    """Full three-level integration setup.

    The schedule's pulses must be shorter than the ion's measurement
    spacing t_pi / n.  ``integrator_step`` defaults to 1/``_STEP_MARGIN`` of
    the fastest timescale and may only be made smaller, to at most
    ``MAX_STEPS`` steps over t_pi, where every segment counts at least one.
    """

    ion: IonConfig
    schedule: PulseSchedule | None = None
    integrator_step: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        segments = 1
        if self.schedule is not None:
            if not self.schedule.optical_pulse_duration < self.ion.t_pi / self.ion.n_pulses:
                raise ConfigError(
                    "pulses must be shorter than the measurement spacing",
                    field="schedule.optical_pulse_duration",
                )
            segments = 2 * self.ion.n_pulses  # at most a gap and a pulse per measurement
        bound = self.max_step()
        if self.integrator_step is None:
            object.__setattr__(self, "integrator_step", bound)
        if not 0 < self.integrator_step <= bound * (1 + 1e-12):
            raise ConfigError(
                f"must be in (0, {bound:.6g}] to resolve the fastest timescale",
                field="lindblad.integrator_step",
            )
        # Each segment takes at least one step, so this bounds the steps run.
        steps = self.ion.t_pi / self.integrator_step + segments
        if not steps <= MAX_STEPS:
            raise ConfigError(
                f"gives {steps:.3g} steps over t_pi, more than the limit {MAX_STEPS:.0e}",
                field="lindblad.integrator_step",
            )

    @property
    def gamma(self) -> float:
        """Decay rate of the measurement level, 1/tau_sp."""
        return 1.0 / self.ion.tau_sp

    def max_step(self) -> float:
        """Largest admissible step: fastest timescale over ``_STEP_MARGIN``."""
        scales = [1.0 / self.ion.omega, 1.0 / self.gamma]
        if self.schedule is not None:
            scales.append(1.0 / self.schedule.optical_rabi)
        return min(scales) / _STEP_MARGIN


def evolve_bloch(r0: BlochVector, omega: float, dt: float) -> BlochVector:
    """Rotate ``r0`` about the first axis for a time ``dt`` at frequency ``omega``.

    Solves dR/dt = (omega, 0, 0) x R exactly; the norm is preserved.

    Raises
    ------
    ValueError
        If ``dt`` is negative or NaN.
    """
    if not dt >= 0:
        raise ValueError("dt must be >= 0")
    r0 = BlochVector(*r0)
    angle = omega * dt
    c, s = math.cos(angle), math.sin(angle)
    return BlochVector(r0.r1, r0.r2 * c - r0.r3 * s, r0.r2 * s + r0.r3 * c)


def apply_projection(rho) -> np.ndarray:
    """Projective population measurement: zero the coherences, keep the diagonal."""
    rho = as_density(rho)
    return np.diag(np.diag(rho)).astype(complex)


def _segments(cfg: LindbladConfig):
    """Yield the (start, end, pulse_on, n_steps) pieces of [0, T], split at the window edges.

    One piece at a time, so no list grows with the number of pulses.  A pulse
    that would start before the previous measurement, its length within
    rounding of the spacing, starts at it instead.
    """
    t_end, step = cfg.ion.t_pi, cfg.integrator_step

    def piece(a, b, on):
        return a, b, on, max(1, math.ceil((b - a) / step))

    if cfg.schedule is None:
        yield piece(0.0, t_end, False)
        return
    n, d = cfg.ion.n_pulses, cfg.schedule.optical_pulse_duration
    cursor = 0.0
    for k in range(1, n + 1):
        tk = t_end * (k / n)
        start = max(tk - d, cursor)
        if start > cursor:
            yield piece(cursor, start, False)
        yield piece(start, tk, True)
        cursor = tk


def _liouvillian(ham: np.ndarray, gamma: float) -> np.ndarray:
    # Row-major vec, vec(A X B) = (A kron B^T) vec X.  The jump operator
    # |0><2| and its number operator |2><2| are real, so no conjugate or
    # transpose of them appears.
    eye = np.eye(3)
    jump = np.zeros((3, 3))
    jump[0, 2] = 1.0  # |0><2|: the auxiliary level decays to the lower level only
    number = np.diag([0.0, 0.0, 1.0])
    dissipator = np.kron(jump, jump) - 0.5 * (np.kron(number, eye) + np.kron(eye, number))
    return -1j * (np.kron(ham, eye) - np.kron(eye, ham.T)) + gamma * dissipator


def _rk4_powers(generator: np.ndarray, h: float, count: int) -> np.ndarray:
    """Stack P, P^2, ..., P^count of the RK4 step map P = sum_k (hL)^k / k!, k <= 4."""
    step = h * generator
    term = np.eye(9, dtype=complex)
    powers = np.empty((count, 9, 9), dtype=complex)
    powers[0] = term
    for k in range(1, 5):
        term = term @ step / k
        powers[0] += term
    filled = 1
    while filled < count:  # P^(j + filled) = P^j P^filled, one batched product per doubling
        take = min(filled, count - filled)
        np.matmul(powers[:take], powers[filled - 1], out=powers[filled:filled + take])
        filled += take
    return powers


def _positive_definite(cols: np.ndarray) -> np.ndarray:
    """Whether each state's Hermitian part plus TRAJECTORY_MIN_EIG_TOL has all LDL^H pivots > 0.

    Row k of ``cols`` is entry k of each state's row-major vec(rho).  As reliable
    as Cholesky, and without LAPACK, whose eigensolver pages in about 1 MB of library code.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a10, a20, a21 = (0.5 * (cols[low] + cols[up].conj()) for low, up in ((3, 1), (6, 2), (7, 5)))
        d1 = cols[0].real + TRAJECTORY_MIN_EIG_TOL
        d2 = cols[4].real + TRAJECTORY_MIN_EIG_TOL - np.abs(a10) ** 2 / d1
        d2_l32 = a21 - a20 * a10.conj() / d1  # d2 times L[2, 1]
        d3 = cols[8].real + TRAJECTORY_MIN_EIG_TOL - np.abs(a20) ** 2 / d1 - np.abs(d2_l32) ** 2 / d2
    return (d1 > 0) & (d2 > 0) & (d3 > 0)


def _times(blocks: list[tuple]) -> list[float]:
    """Times of a chunk's states, from its block records; a segment's last is at its end exactly."""
    return [end if end is not None and i == first + size - 1 else start + i * h
            for start, h, first, size, end in blocks for i in range(first, first + size)]


def _validate_block(blocks: list[tuple], rows: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """A chunk's (b, 9) vec rows as (blocks, (b, 3, 3) states), or raise at the earliest bad state.

    At that state Hermiticity is reported first, then trace, then positivity.
    Comparisons are written so that NaN fails them.
    """
    cols = rows.T.copy()  # each entry contiguous over the chunk: every check below is elementwise
    herm = hermiticity_residue(cols.T.reshape(-1, 3, 3))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite or huge: fails, no warning
        trace = np.abs(cols[0] + cols[4] + cols[8] - 1.0)
    positive = _positive_definite(cols)
    ok = (herm <= TRAJECTORY_HERMITICITY_TOL) & (trace <= TRAJECTORY_TRACE_TOL) & positive
    if ok.all():
        return blocks, rows.reshape(-1, 3, 3)
    i = int(np.argmin(ok))
    if not herm[i] <= TRAJECTORY_HERMITICITY_TOL:
        lost = f"Hermiticity (residue {herm[i]:.3e})"
    elif not trace[i] <= TRAJECTORY_TRACE_TOL:
        lost = f"unit trace (residue {trace[i]:.3e})"
    else:  # the smallest eigenvalue of its Hermitian part
        lost = f"positivity (min eig {validate_density(rows[i].reshape(3, 3)).min_eigenvalue:.3e})"
    raise IntegrationError(f"state lost {lost}", time=_times(blocks)[i])


def _trajectory_chunks(cfg: LindbladConfig, rho0):
    """Yield validated (blocks, states) chunks of the trajectory, rho0 at t=0 first.

    Each segment advances a block at a time, P^1..P^b times the last state,
    into a chunk of up to ``_CHUNK`` states that runs across segments and is
    validated whole before it is yielded.  ``blocks`` holds no times but one
    (start, h, first, size, end) per block: see :func:`_times`.
    """
    rho = as_density(rho0)
    if rho.shape != (3, 3):
        raise InvalidStateError("initial state must be 3x3")

    h_free = np.zeros((3, 3), dtype=complex)
    h_free[0, 1] = h_free[1, 0] = -cfg.ion.omega / 2.0
    h_pulse = h_free.copy()
    if cfg.schedule is not None:
        if not cfg.schedule.rf_during_pulse:
            h_pulse[:] = 0.0
        h_pulse[0, 2] = h_pulse[2, 0] = -cfg.schedule.optical_rabi / 2.0
    generators = {False: _liouvillian(h_free, cfg.gamma), True: _liouvillian(h_pulse, cfg.gamma)}

    vec = rho.reshape(9)
    yield _validate_block([(0.0, 0.0, 0, 1, None)], vec[None])
    step_maps = {}  # one per exact (pulse_on, h, count), so each is built once a row
    blocks, filled, chunk = [], 0, np.empty((_CHUNK, 9), dtype=complex)
    for start, end, pulse_on, n_steps in _segments(cfg):
        h = (end - start) / n_steps
        key = (pulse_on, h, min(_BLOCK, n_steps))
        if key not in step_maps:  # P^1..P^count stacked as one (9 * count, 9) matrix
            step_maps[key] = _rk4_powers(generators[pulse_on], h, key[2]).reshape(-1, 9)
        powers = step_maps[key]
        for done in range(0, n_steps, key[2]):
            size = min(key[2], n_steps - done)
            if filled + size > _CHUNK:
                yield _validate_block(blocks, chunk[:filled])
                blocks, filled, chunk = [], 0, np.empty((_CHUNK, 9), dtype=complex)
            out = chunk[filled:filled + size].reshape(-1)
            for lo in range(0, len(out), _PRODUCT_ROWS):  # by halves: the bits of one product
                np.matmul(powers[lo:len(out)][:_PRODUCT_ROWS], vec, out=out[lo:lo + _PRODUCT_ROWS])
            filled += size
            vec = chunk[filled - 1]
            blocks.append((start, h, done + 1, size, end if done + size == n_steps else None))
    yield _validate_block(blocks, chunk[:filled])


def integrate_lindblad(cfg: LindbladConfig, rho0) -> list[tuple[float, np.ndarray]]:
    """Integrate the three-level master equation over the drive pulse.

    Parameters
    ----------
    cfg : LindbladConfig
        Drive, decay, pulse schedule, and step size.
    rho0 : array_like
        Initial 3x3 density matrix.

    Returns
    -------
    list of (time, ndarray)
        The stored trajectory, one state per integrator step, ending exactly
        at ``cfg.ion.t_pi``.  Every stored state is validated for trace,
        Hermiticity, and positivity; the returned arrays are read-only.

    Raises
    ------
    InvalidStateError
        If ``rho0`` is not 3x3.
    IntegrationError
        If any stored state (including ``rho0`` at t=0) violates a state
        invariant, or is not finite; the error carries the offending time.
    """
    n_states = 1 + sum(seg[3] for seg in _segments(cfg))
    stored = np.empty((n_states, 3, 3), dtype=complex)
    times: list[float] = []
    for blocks, states in _trajectory_chunks(cfg, rho0):
        stored[len(times):len(times) + len(states)] = states
        times += _times(blocks)
    stored.flags.writeable = False
    return list(zip(times, stored))


def final_state(cfg: LindbladConfig, rho0) -> np.ndarray:
    """Last state of :func:`integrate_lindblad`'s trajectory, storing no other.

    Every intermediate state is still validated, with the same errors, and no time is made.
    """
    for _, states in _trajectory_chunks(cfg, rho0):
        last = states[-1]
    return last.copy()


def populations(traj: list[tuple[float, np.ndarray]]) -> list[tuple[float, float, float, float]]:
    """Extract (time, p1, p2, p3) from a stored trajectory."""
    if not traj:
        raise ValueError("empty trajectory")
    return [
        (t, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real) for t, rho in traj
    ]
