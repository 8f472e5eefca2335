"""The projective two-level ion: its parameters, closed forms and their oracle.

A two-level state is interchangeably a 2x2 complex density matrix or a real
Bloch vector (r1, r2, r3) with

    r1 = rho_12 + rho_21,
    r2 = i (rho_12 - rho_21),
    r3 = rho_22 - rho_11,

so r3 is the population inversion P2 - P1.  Basis index 0 is the lower level.
The drive rotates the Bloch vector about the first axis, dR/dt = (Omega, 0, 0) x R,
so a system started in the lower level has r3(t) = -cos(Omega t).  A projective
population measurement zeroes the coherences and leaves the populations untouched.
The oracle's kernels compute these maps, unchecked, on plain Python numbers:
``_rotate`` turns a vector, ``_density`` gives its rows ((rho_11, rho_12),
(rho_21, rho_22)), ``_project`` zeroes their coherences and ``_bloch`` reads
the vector back.

``p2_closed_form`` gives the upper-level population after N projective
measurements during an inversion pulse, (1 - cos^N(pi/N))/2.
``simulate_projective_sequence`` recomputes it by brute force on those
kernels, checked once per call with the norm check kept per state, so it runs
no numpy.  The decoherence-limited variant clamps the per-interval rotation
angle from below at omega * tau_sp, the smallest angle compatible with the
measurement level's finite lifetime: beyond ``n_max`` measurements the closed
form saturates at one half instead of falling to zero.
"""

import math
from dataclasses import dataclass

from .errors import BoundViolationError, NonphysicalStateError
from .errors import check_count, check_positive, floor_count
from .states import BLOCH_NORM_TOL


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


def _bloch(rows) -> tuple[float, float, float]:
    """(r1, r2, r3) of a 2x2 state's rows of Python numbers, unchecked."""
    (rho_11, rho_12), (rho_21, rho_22) = rows
    return (rho_12 + rho_21).real, (1j * (rho_12 - rho_21)).real, (rho_22 - rho_11).real


def _check_norm(r: tuple[float, float, float]) -> tuple[float, float, float]:
    """``r`` unless its norm exceeds 1 beyond ``BLOCH_NORM_TOL`` or is NaN: NonphysicalStateError."""
    if not (norm := math.hypot(*r)) <= 1.0 + BLOCH_NORM_TOL:
        raise NonphysicalStateError(f"Bloch vector norm {norm:.12g} exceeds 1")
    return r


def _density(r: tuple[float, float, float]) -> tuple:
    """The 2x2 density matrix of floats (r1, r2, r3) as rows of Python numbers, unchecked."""
    r1, r2, r3 = r
    return ((1.0 - r3) / 2.0, (r1 - 1j * r2) / 2.0), ((r1 + 1j * r2) / 2.0, (1.0 + r3) / 2.0)


def _rotate(r: tuple[float, float, float], c: float, s: float) -> tuple[float, float, float]:
    """Floats (r1, r2, r3) rotated about the first axis by the angle of cosine ``c`` and sine ``s``."""
    r1, r2, r3 = r
    return r1, r2 * c - r3 * s, r2 * s + r3 * c


def _project(rows) -> tuple:
    """The rows of a 2x2 state with its populations kept as given and ``0j`` coherences, unchecked."""
    return (rows[0][0], 0j), (0j, rows[1][1])


def _p2(n: int, floor: float) -> float:
    """[1 - cos^n(max(pi/n, floor))]/2 for a checked count; a zero floor gives the ideal form."""
    return (1.0 - math.cos(max(math.pi / n, floor)) ** n) / 2.0


def _p2_asymptotic(n: int) -> float:
    return (1.0 - math.exp(-math.pi**2 / (2.0 * n))) / 2.0


def p2_closed_form(n: int) -> float:
    """Upper-level probability after n projective measurements, [1 - cos^n(pi/n)]/2."""
    return _p2(check_count(n), 0.0)


def p2_asymptotic(n: int) -> float:
    """Large-n exponential form of :func:`p2_closed_form`, (1 - exp(-pi^2/2n))/2."""
    return _p2_asymptotic(check_count(n))


def simulate_projective_sequence(cfg: IonConfig) -> float:
    """Brute-force oracle for :func:`p2_closed_form`.

    Starting from the lower level, alternately rotates the Bloch vector for
    T/N and applies the projective measurement to its density matrix, N times,
    then reads off the upper-level population (r3 + 1)/2, a plain Python float.

    ``cfg``'s fields are checked floats, so one check runs per call: the angle
    omega T/N must be finite (else ValueError naming omega and N: T = pi/omega overflows
    for an omega below about 1.7e-308).  Each step runs the kernels on plain Python numbers and
    keeps the one check whose input changes per step: a rotated vector whose
    norm exceeds 1 beyond ``BLOCH_NORM_TOL``, or is NaN, raises NonphysicalStateError.
    """
    omega, n = cfg.omega, cfg.n_pulses
    if not abs(angle := omega * (cfg.t_pi / n)) < math.inf:
        raise ValueError(f"need a finite t_pi = pi/omega, got omega={omega!r}, n={n}")
    c, s = math.cos(angle), math.sin(angle)
    r = 0.0, 0.0, -1.0  # (r1, r2, r3): the kernels take and give plain Python numbers
    for _ in range(n):
        r = _bloch(_project(_density(_check_norm(_rotate(r, c, s)))))
    return (r[2] + 1.0) / 2.0


def n_max(cfg: IonConfig) -> int:
    """Largest measurement count compatible with the measurement lifetime.

    floor(pi / (omega * tau_sp)), i.e. floor(T / tau_sp).

    Raises
    ------
    BoundViolationError
        If omega * tau_sp > pi (no measurement fits) or underflows to 0.
    """
    product = cfg.omega * cfg.tau_sp
    if product > math.pi:
        raise BoundViolationError(
            f"omega*tau_sp = {product:.6g} exceeds pi; no valid measurement count"
        )
    return floor_count(math.pi, product)


def p2_decoherence_limited(n: int, cfg: IonConfig) -> float:
    """Closed form with the rotation angle clamped from below at omega*tau_sp.

    Equals :func:`p2_closed_form` while n <= :func:`n_max`; for larger n the
    angle sticks at its lower bound and the value saturates at one half.
    """
    return _p2(check_count(n), cfg.omega * cfg.tau_sp)
