"""Closed-form Zeno probabilities for the driven ion, and their oracle.

``p2_closed_form`` gives the upper-level population after N projective
measurements during an inversion pulse, (1 - cos^N(pi/N))/2, and
``simulate_projective_sequence`` recomputes it by brute force from the Bloch
rotation and the projection map.  The decoherence-limited variants clamp the
per-interval rotation angle from below at omega * tau_sp, the smallest angle
compatible with the measurement level's finite lifetime: beyond
``n_max`` measurements the closed form saturates at one half instead of
falling to zero.
"""

from __future__ import annotations

import math

from .dynamics import IonConfig, apply_projection, evolve_bloch
from .errors import BoundViolationError, check_count
from .states import BlochVector, bloch_from_density, density_from_bloch

#: Absolute agreement demanded of the three-level simulation against the
#: projective closed form when the measurement lifetime is well separated
#: from the measurement spacing.
LINDBLAD_AGREEMENT_TOL = 0.05


def _guarded_floor(ratio: float) -> int:
    # A ratio that is an integer k in real arithmetic arrives as pi/(pi/k),
    # two roundings, so it may sit up to ~1.5 ulps under k.  Bump to the next
    # integer only within 2 ulps: a 4-ulp guard would turn k + 1/2 into k + 1
    # near 1e15, where an ulp is 1/8.  A ratio that is already an integer stays.
    n = math.floor(ratio)
    return n + 1 if n < ratio and n + 1 - ratio <= 2 * math.ulp(n + 1) else n


def p2_closed_form(n: int) -> float:
    """Upper-level probability after n projective measurements, [1 - cos^n(pi/n)]/2."""
    n = check_count(n)
    return (1.0 - math.cos(math.pi / n) ** n) / 2.0


def p2_asymptotic(n: int) -> float:
    """Large-n exponential form of :func:`p2_closed_form`, (1 - exp(-pi^2/2n))/2."""
    n = check_count(n)
    return (1.0 - math.exp(-math.pi**2 / (2.0 * n))) / 2.0


def simulate_projective_sequence(cfg: IonConfig) -> float:
    """Brute-force oracle for :func:`p2_closed_form`.

    Starting from the lower level, alternately rotates the Bloch vector for
    T/N and applies the projective measurement through the density-matrix
    map, N times, then reads off the upper-level population (r3 + 1)/2.
    """
    r = BlochVector(0.0, 0.0, -1.0)
    dt = cfg.t_pi / cfg.n_pulses
    for _ in range(cfg.n_pulses):
        r = evolve_bloch(r, cfg.omega, dt)
        r = bloch_from_density(apply_projection(density_from_bloch(r)))
    return (r.r3 + 1.0) / 2.0


def n_max(cfg: IonConfig) -> int:
    """Largest measurement count compatible with the measurement lifetime.

    floor(pi / (omega * tau_sp)), i.e. floor(T / tau_sp).

    Raises
    ------
    BoundViolationError
        If omega * tau_sp > pi, where not even one measurement fits.
    """
    product = cfg.omega * cfg.tau_sp
    if product > math.pi:
        raise BoundViolationError(
            f"omega*tau_sp = {product:.6g} exceeds pi; no valid measurement count"
        )
    return _guarded_floor(math.pi / product)


def p2_decoherence_limited(n: int, cfg: IonConfig) -> float:
    """Closed form with the rotation angle clamped from below at omega*tau_sp.

    Equals :func:`p2_closed_form` while n <= :func:`n_max`; for larger n the
    angle sticks at its lower bound and the value saturates at one half.
    """
    n = check_count(n)
    theta = max(math.pi / n, cfg.omega * cfg.tau_sp)
    return (1.0 - math.cos(theta) ** n) / 2.0


def p2_decoherence_asymptotic(n: int, cfg: IonConfig) -> float:
    """Exponential companion of :func:`p2_decoherence_limited` for large n.

    (1 - exp(-(omega*tau_sp)^2 n / 2))/2; a small-angle approximation, kept
    as a diagnostic because the two forms differ at moderate n.
    """
    n = check_count(n)
    product = cfg.omega * cfg.tau_sp
    return (1.0 - math.exp(-(product**2) * n / 2.0)) / 2.0
