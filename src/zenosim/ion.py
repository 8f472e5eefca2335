"""Closed-form Zeno probabilities for the driven ion, and their oracle.

``p2_closed_form`` gives the upper-level population after N projective
measurements during an inversion pulse, (1 - cos^N(pi/N))/2, and
``simulate_projective_sequence`` recomputes it by brute force from the Bloch
rotation and the projection map, checked once per call and stepped on those
public maps' kernels with the norm check kept per state, for the maps' own bits.
The decoherence-limited variant clamps the per-interval rotation angle from below
at omega * tau_sp, the smallest angle compatible with the measurement level's
finite lifetime: beyond ``n_max`` measurements the closed form saturates at one
half instead of falling to zero.
"""

import math

from .dynamics import IonConfig, _cos_sin, _project, _rotate
from .errors import BoundViolationError, check_count, floor_count
from .states import _bloch, _check_norm, _density

#: Absolute agreement demanded of the three-level simulation against the
#: projective closed form when the measurement lifetime is well separated
#: from the measurement spacing.
LINDBLAD_AGREEMENT_TOL = 0.05


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
    T/N and applies the projective measurement through the density-matrix
    map, N times, then reads off the upper-level population (r3 + 1)/2, a
    plain Python float.

    Its checks run once per call: ``cfg``'s fields are checked floats, and
    omega T/N must be finite (else ValueError).  Each step runs the kernels of
    ``evolve_bloch``, ``density_from_bloch``, ``apply_projection`` and
    ``bloch_from_density``, so the value has the bits of calling them in turn,
    and keeps the one check whose input changes per step: a rotated vector whose
    norm exceeds 1 beyond ``BLOCH_NORM_TOL``, or is NaN, raises NonphysicalStateError.
    """
    r = 0.0, 0.0, -1.0  # (r1, r2, r3): the kernels take and give plain tuples
    c, s = _cos_sin(cfg.omega, cfg.t_pi / cfg.n_pulses)
    for _ in range(cfg.n_pulses):
        r = _bloch(_project(_density(_check_norm(_rotate(r, c, s)))).tolist())
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

