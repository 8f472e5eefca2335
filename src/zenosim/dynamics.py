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

The equation is linear and keeps rho Hermitian, so a state is carried as the
nine reals x = (rho00, rho11, rho22, Re rho01, Im rho01, Re rho02, Im rho02,
Re rho12, Im rho12) (Hioe & Eberly, Phys. Rev. Lett. 47, 838 (1981)), under the
real generator omega G_rf + Omega_opt G_opt + gamma G_decay.  In a segment one
RK4 step is the fixed 9x9 map P = sum_{k<=4} (h G)^k / k! (Havel, J. Math. Phys.
44, 534 (2003)).  P..P^b, built once per row for each segment kind and step and
stored flat as (9 b, 9), take the last state to the next b in one 2-D product.
These blocks fill chunks of up to 4,096 states that run across segments; each
chunk is validated at once, elementwise over its coordinate columns, for unit
trace and the LDL^H pivots of positivity, since every state is Hermitian by
construction: rho0 alone is checked for Hermiticity.  One rule gives every
state's time.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import ConfigError, IntegrationError, InvalidStateError
from .errors import check_count, check_flag, check_fraction, check_positive, real_floats
from .states import TRAJECTORY_HERMITICITY_TOL, TRAJECTORY_MIN_EIG_TOL, TRAJECTORY_TRACE_TOL
from .states import BlochVector, _float_bloch, as_density, hermiticity_residue, np, validate_density

#: Steps per fastest timescale required of the integrator step.
_STEP_MARGIN = 20
#: Most RK4 steps allowed over t_pi, counting at least one per segment, beyond
#: which a config is refused up front.  A step inside a long segment costs
#: 0.11-0.19 us (numpy 2.4, one BLAS thread, 2.0 GHz Xeon), 11-19 s at the
#: limit; a one-step segment 4.5-7 us, so a row of them runs about 10 minutes.
MAX_STEPS = 10**8
#: States per block: P, P^2, ..., P^_BLOCK are stacked once per (segment kind, step) of a row.
_BLOCK = 64
#: States validated, and yielded, at once: blocks of one or more segments, 64 to spread the gate's call cost.
_CHUNK = 64 * _BLOCK
#: Rows and columns of the upper entries (0,1), (0,2), (1,2): x_3..x_8 are their real and imaginary parts.
_I, _J = [0, 0, 1], [1, 2, 2]


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
        checks = {"omega": check_positive, "tau_sp": check_positive, "n_pulses": check_count}
        for name, check in checks.items():
            object.__setattr__(self, name, check(getattr(self, name), f"ion.{name}"))

    @property
    def t_pi(self) -> float:
        """Duration of the population-inverting drive pulse, pi/omega."""
        return math.pi / self.omega


@dataclass(frozen=True)
class ScheduleParams:
    """Optical measurement-pulse knobs shared by all rows of a sweep.

    Pulses last ``pulse_duration_fraction`` of the measurement spacing and carry
    ``pulse_area`` on the optical transition (pi by default), defaults that
    :meth:`PulseSchedule.equispaced` shares and checks as this class does: each
    value, ``integrator_step`` if given, is stored as the float its check returns,
    under its ``schedule.*`` name.  Its fields are ``[schedule]``'s keys, and
    :meth:`setup` passes the checked fraction and area on without a second check.
    """

    pulse_duration_fraction: float = 0.025
    pulse_area: float = math.pi
    rf_during_pulse: bool = True
    integrator_step: float | None = None

    def __post_init__(self):
        checks = {"pulse_duration_fraction": check_fraction, "pulse_area": check_positive,
                  "rf_during_pulse": check_flag}
        if self.integrator_step is not None:
            checks["integrator_step"] = check_positive
        for name, check in checks.items():
            object.__setattr__(self, name, check(getattr(self, name), f"schedule.{name}"))

    def setup(self, ion: IonConfig) -> "LindbladConfig":
        """``ion``'s full-model setup: pulses equispaced under these knobs, and this step."""
        knobs = self.pulse_duration_fraction, self.pulse_area, self.rf_during_pulse
        return LindbladConfig(ion, PulseSchedule._equispaced(ion, *knobs), self.integrator_step)


@dataclass(frozen=True)
class PulseSchedule:
    """Optical measurement pulses, equispaced over the drive pulse.

    The k-th of the ion's n measurements is a square pulse on the 0<->2
    transition ending at t_pi * (k / n), so the last ends exactly when the
    drive pulse does; build one with :meth:`equispaced`.  ``rf_during_pulse``
    keeps the two-level drive on inside the windows (the default) or gates
    it off; it must equal True or False, and is stored as a bool.
    """

    optical_pulse_duration: float
    optical_rabi: float
    rf_during_pulse: bool = True

    def __post_init__(self):
        for name in ("optical_pulse_duration", "optical_rabi"):
            object.__setattr__(self, name, check_positive(getattr(self, name), f"schedule.{name}"))
        flag = check_flag(self.rf_during_pulse, "schedule.rf_during_pulse")
        object.__setattr__(self, "rf_during_pulse", flag)

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
        duration_fraction = check_fraction(duration_fraction, "schedule.pulse_duration_fraction")
        pulse_area = check_positive(pulse_area, "schedule.pulse_area")
        return cls._equispaced(ion, duration_fraction, pulse_area, rf_during_pulse)

    @classmethod
    def _equispaced(cls, ion: IonConfig, duration_fraction: float, pulse_area: float,
                    rf_during_pulse: bool) -> "PulseSchedule":
        """:meth:`equispaced` on a fraction and an area already checked as it checks them."""
        duration = duration_fraction * (ion.t_pi / ion.n_pulses)
        rabi = pulse_area / duration if duration else math.inf
        if rabi in (0, math.inf):  # an overflow that even a pi area gives is the fraction's fault
            short = rabi == math.inf and (not duration or math.pi / duration == math.inf)
            raise ConfigError(
                f"gives an optical Rabi frequency {pulse_area:.3g}/{duration:.3g} that "
                + ("overflows" if rabi else "underflows"),
                field="schedule.pulse_duration_fraction" if short else "schedule.pulse_area",
            )
        return cls(duration, rabi, rf_during_pulse)


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
    integrator_step: float = None  # type: ignore[assignment]

    def __post_init__(self):
        segments = 1
        if self.schedule is not None:
            if not self.schedule.optical_pulse_duration < self.ion.t_pi / self.ion.n_pulses:
                raise ConfigError(
                    "pulses must be shorter than the measurement spacing",
                    field="schedule.optical_pulse_duration",
                )
            segments = 2 * self.ion.n_pulses  # at most a gap and a pulse per measurement
        bound, key, step = self.max_step(), "schedule.integrator_step", self.integrator_step
        if step is None:
            step, key = bound, None  # a refusal names the config file's key for a given step only
        elif not (step := check_positive(step, key)) <= bound * (1 + 1e-12):
            raise ConfigError(f"must be in (0, {bound:.6g}] to resolve the fastest timescale", key)
        object.__setattr__(self, "integrator_step", step)
        # Each segment takes at least one step, so this bounds the steps run; inf if bound is 0.
        steps = self.ion.t_pi / step + segments if bound else math.inf
        if not steps <= MAX_STEPS:
            cause = "" if key else (f" with the default step {bound:.3g}, 1/{_STEP_MARGIN} of the"
                                    " shortest of 1/omega, tau_sp and 1/(optical Rabi frequency)")
            raise ConfigError(f"gives {steps:.3g} steps over t_pi, more than the limit"
                              f" {MAX_STEPS:.0e}{cause}", key)

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

    Solves dR/dt = (omega, 0, 0) x R exactly; the norm is preserved.  ``omega``,
    ``dt`` and each component are read as Python floats, and floats are returned.

    Raises
    ------
    ValueError
        If ``omega``, ``dt`` or a component is a ``bool``, not a real number or
        past the float range, ``dt`` is negative or NaN, or the angle
        ``omega * dt`` is not finite.
    """
    c, s = _cos_sin(omega, dt)
    return BlochVector(*_rotate(_float_bloch(r0), c, s))


def _cos_sin(omega, dt) -> tuple[float, float]:
    """cos and sin of the angle ``omega * dt``, checked as :func:`evolve_bloch` states."""
    reals = real_floats((omega, dt))
    if not (reals and reals[1] >= 0 and abs(angle := reals[0] * reals[1]) < math.inf):  # NaN fails
        raise ValueError(f"need dt >= 0 and a finite omega * dt, got omega={omega!r}, dt={dt!r}")
    return math.cos(angle), math.sin(angle)


def _rotate(r: tuple[float, float, float], c: float, s: float) -> tuple[float, float, float]:
    """Floats (r1, r2, r3) rotated about the first axis by the angle of cosine ``c`` and sine ``s``."""
    r1, r2, r3 = r
    return r1, r2 * c - r3 * s, r2 * s + r3 * c


def apply_projection(rho) -> "np.ndarray":
    """Projective population measurement: zero the coherences, keep the diagonal."""
    return _project(as_density(rho))


def _project(rho: "np.ndarray") -> "np.ndarray":
    """:func:`apply_projection` of a complex array, unchecked."""
    return np.diag(rho.diagonal())


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


def _state_times(cfg: LindbladConfig):
    """Yield each state's time: 0.0 for rho0, then start + i h in a segment, its end at its last."""
    yield 0.0
    for start, end, _, n_steps in _segments(cfg):
        h = (end - start) / n_steps
        yield from (start + i * h for i in range(1, n_steps))
        yield end


@functools.cache
def _generator_parts() -> "np.ndarray":
    """The real generator's parts per unit omega, optical Rabi frequency and gamma, as (3, 9, 9).

    Row k is d x_k / dt of the optical Bloch equations: -i[H, rho] for each
    drive of the Bloch convention, and the decay of level 2 into level 0.
    """
    parts = np.zeros((3, 9, 9))  # parts[k][rows, columns] = entries
    parts[0][[0, 1, 4, 4, 5, 6, 7, 8], [4, 4, 0, 1, 8, 7, 6, 5]] = 1, -1, -.5, .5, -.5, .5, -.5, .5
    parts[1][[0, 2, 6, 6, 3, 4, 7, 8], [6, 6, 0, 2, 8, 7, 4, 3]] = 1, -1, -.5, .5, .5, .5, -.5, -.5
    parts[2][[0, 2, 5, 6, 7, 8], [2, 2, 5, 6, 7, 8]] = 1, -1, -.5, -.5, -.5, -.5
    return parts


def _states(xs: "np.ndarray", out: "np.ndarray | None" = None) -> "np.ndarray":
    """(b, 3, 3) complex states of C-ordered (b, 9) coordinate rows, entry by entry, into ``out``."""
    out = np.empty((len(xs), 3, 3), dtype=complex) if out is None else out
    upper = xs[:, 3:].view(complex)
    out[:, [0, 1, 2], [0, 1, 2]] = xs[:, :3]
    out[:, _I, _J], out[:, _J, _I] = upper, upper.conj()
    return out


def _rk4_powers(generator: "np.ndarray", h: float, count: int) -> "np.ndarray":
    """P, P^2, ..., P^count of the RK4 step map P = sum_k (hG)^k / k!, k <= 4, as one (9 count, 9)."""
    step = h * generator
    powers = np.empty((count, 9, 9))
    powers[0] = term = np.eye(9)
    for k in range(1, 5):
        term = term @ step / k
        powers[0] += term
    filled = 1
    while filled < count:  # P^(j + filled) = P^j P^filled, one batched product per doubling
        take = min(filled, count - filled)
        np.matmul(powers[:take], powers[filled - 1], out=powers[filled:filled + take])
        filled += take
    return powers.reshape(-1, 9)


def _positive_definite(x: "np.ndarray") -> "np.ndarray":
    """Whether each state plus TRAJECTORY_MIN_EIG_TOL has all LDL^H pivots > 0.

    ``x`` is (9, b), a chunk's coordinates as rows, so rho_10 = x[3] - i x[4] and so on.
    As reliable as Cholesky, and without LAPACK, whose eigensolver pages in
    about 1 MB of library code.  Call it with divide, invalid and overflow
    ignored: a non-finite or huge state fails.
    """
    d1 = x[0] + TRAJECTORY_MIN_EIG_TOL
    d2 = x[1] + TRAJECTORY_MIN_EIG_TOL - (x[3] ** 2 + x[4] ** 2) / d1
    # d2 times L[2, 1]: rho_21 - rho_20 conj(rho_10) / d1, its real part and minus its imaginary one
    l_re = x[7] - (x[5] * x[3] + x[6] * x[4]) / d1
    l_im = x[8] + (x[5] * x[4] - x[6] * x[3]) / d1
    d3 = x[2] + TRAJECTORY_MIN_EIG_TOL - (x[5] ** 2 + x[6] ** 2) / d1 - (l_re ** 2 + l_im ** 2) / d2
    return (d1 > 0) & (d2 > 0) & (d3 > 0)


def _validate_block(cfg: LindbladConfig, first: int, rows: "np.ndarray") -> "np.ndarray":
    """A chunk's (b, 9) coordinate rows, or raise at the earliest bad state.

    ``first`` is the trajectory index of the chunk's first state.  At the bad
    state trace is reported first, then positivity.  Comparisons are written
    so that NaN fails them.  Only a failure makes times, walking
    :func:`_state_times` up to the bad state: 13-18 s at the end of a ``MAX_STEPS`` row.
    """
    x = rows.T  # (9, b): each coordinate over the chunk, so every check is elementwise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite or huge: fails
        trace = np.abs(x[0] + x[1] + x[2] - 1.0)
        ok = (trace <= TRAJECTORY_TRACE_TOL) & _positive_definite(x)
    if ok.all():
        return rows
    i = int(np.argmin(ok))
    if not trace[i] <= TRAJECTORY_TRACE_TOL:
        lost = f"unit trace (residue {trace[i]:.3e})"
    else:
        lost = f"positivity (min eig {validate_density(_states(rows[i:i + 1])[0]).min_eigenvalue:.3e})"
    time = next(itertools.islice(_state_times(cfg), first + i, None))
    raise IntegrationError(f"state lost {lost}", time=time)


def _trajectory_chunks(cfg: LindbladConfig, rho0):
    """Yield validated (first, (b, 9) coordinates) chunks of the trajectory, rho0 at t=0 alone first.

    ``first`` indexes a chunk's first state (times: :func:`_state_times`).  Each
    segment advances a block at a time, one 2-D product of P^1..P^b with the
    last state, into one reused buffer of ``_CHUNK`` states that runs across
    segments; each chunk is validated whole and yielded as a view, to copy before resuming.
    """
    rho = as_density(rho0)
    if rho.shape != (3, 3):
        raise InvalidStateError("initial state must be 3x3")
    residue = float(hermiticity_residue(rho))
    if not residue <= TRAJECTORY_HERMITICITY_TOL:
        raise IntegrationError(f"state lost Hermiticity (residue {residue:.3e})", time=0.0)
    with np.errstate(invalid="ignore", over="ignore"):  # a huge pair may overflow: the gate fails it
        upper = 0.5 * (rho[_I, _J] + rho[_J, _I].conj())
    x = np.concatenate((rho.diagonal().real, upper.view(float)))  # rho0's Hermitian part as x
    yield 0, _validate_block(cfg, 0, x[None])

    rf, optical, decay = _generator_parts()
    step_maps = {}  # (9 count, 9) per exact (pulse_on, h, count); its products use one core
    first, filled, chunk = 1, 0, np.empty((_CHUNK, 9))
    for start, end, pulse_on, n_steps in _segments(cfg):
        h = (end - start) / n_steps
        key = (pulse_on, h, min(_BLOCK, n_steps))
        if key not in step_maps:
            omega = cfg.ion.omega if not pulse_on or cfg.schedule.rf_during_pulse else 0.0
            rabi = cfg.schedule.optical_rabi if pulse_on else 0.0
            step_maps[key] = _rk4_powers(omega * rf + rabi * optical + cfg.gamma * decay, h, key[2])
        for done in range(0, n_steps, key[2]):
            size = min(key[2], n_steps - done)
            if filled + size > _CHUNK:
                yield first, _validate_block(cfg, first, chunk[:filled])
                # x, at >= _CHUNK - _BLOCK, is past the rows [0, _BLOCK) the next block writes.
                first, filled = first + filled, 0
            np.matmul(step_maps[key][:9 * size], x, out=chunk[filled:filled + size].reshape(-1))
            filled += size
            x = chunk[filled - 1]
    yield first, _validate_block(cfg, first, chunk[:filled])


def integrate_lindblad(cfg: LindbladConfig, rho0) -> "list[tuple[float, np.ndarray]]":
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
        at ``cfg.ion.t_pi``, the first being rho0's Hermitian part.  Every state
        is Hermitian by construction and validated for trace and positivity; the
        returned arrays are read-only.  It keeps about 360 B per state (36 GB at
        ``MAX_STEPS``): for long rows use :func:`final_state` or ``sweep.lindblad_p2``.

    Raises
    ------
    InvalidStateError
        If ``rho0`` is not 3x3.
    IntegrationError
        If ``rho0`` is not Hermitian, or any stored state (``rho0`` at t=0
        included) loses unit trace or positivity; the error carries its time.
    """
    times = list(_state_times(cfg))  # one per stored state, so also their count
    stored = np.empty((len(times), 3, 3), dtype=complex)
    for first, xs in _trajectory_chunks(cfg, rho0):
        _states(xs, stored[first:first + len(xs)])
    stored.flags.writeable = False
    return list(zip(times, stored))


def final_state(cfg: LindbladConfig, rho0) -> "np.ndarray":
    """Last state of :func:`integrate_lindblad`'s trajectory, storing no other.

    Every intermediate state is still validated, with the same errors, and no time is made.
    """
    for _, xs in _trajectory_chunks(cfg, rho0):
        last = xs[-1:]
    return _states(last)[0]


def populations(traj: "list[tuple[float, np.ndarray]]") -> list[tuple[float, float, float, float]]:
    """Extract (time, p1, p2, p3) from a stored trajectory."""
    if not traj:
        raise ValueError("empty trajectory")
    return [
        (t, rho[0, 0].real, rho[1, 1].real, rho[2, 2].real) for t, rho in traj
    ]
