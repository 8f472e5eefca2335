"""Zeno closed forms for a neutron spin precessing through field regions.

The ideal survival probability after n measurements is [cos^2(pi/2n)]^n and
tends to one.  Beam uncertainties put a floor phi0 = dE_m / (4 dE_k) under
the per-measurement rotation angle, so the limited form falls to zero for
large n instead; the crossover count is ``neutron_n_max``.
"""

import math
from dataclasses import dataclass, fields

from .errors import BoundViolationError, ConfigError, check_count, check_positive, floor_count


@dataclass(frozen=True)
class NeutronConfig:
    """Energy scales of the neutron-spin experiment.

    Either give the energies directly (``delta_e_m`` is the magnetic gap
    2 mu B, ``delta_e_k`` the kinetic-energy spread m v0 dv at the mean
    speed), or give the raw quantities and let them be derived.  When both
    are given they must agree to 1e-12 relative.  Units have hbar = 1.
    """

    delta_e_m: float = None  # type: ignore[assignment]
    delta_e_k: float = None  # type: ignore[assignment]
    mu: float | None = None
    b_field: float | None = None
    v0: float | None = None
    delta_v: float | None = None
    mass: float | None = None

    def __post_init__(self):
        for given in (f.name for f in fields(self) if getattr(self, f.name) is not None):
            check_positive(getattr(self, given), f"neutron.{given}")
        # energy -> (the raw inputs whose product it is, how to name them)
        raw_inputs = {
            "delta_e_m": ((2.0, self.mu, self.b_field), "mu and b_field"),
            "delta_e_k": ((self.mass, self.v0, self.delta_v), "mass, v0 and delta_v"),
        }
        for name, (factors, inputs) in raw_inputs.items():
            value, field = getattr(self, name), f"neutron.{name}"
            if None not in factors:  # the product of positive inputs may still over- or underflow
                raw = check_positive(math.prod(factors), field)
                if value is None:
                    value = raw
                    object.__setattr__(self, name, raw)
                elif abs(value - raw) > 1e-12 * max(abs(value), abs(raw)):
                    raise ConfigError(
                        f"value {value:.12g} disagrees with the raw-input value {raw:.12g}", field
                    )
            if value is None:
                raise ConfigError(f"must be finite and > 0 (give it or {inputs})", field)


def _p_up(n: int, floor: float) -> float:
    """cos^2n(max(pi/2n, floor)) for a checked count; a zero floor gives the ideal form."""
    return math.cos(max(math.pi / (2.0 * n), floor)) ** (2.0 * n)


def p_up_ideal(n: int) -> float:
    """Survival probability [cos^2(pi/2n)]^n after n ideal measurements."""
    return _p_up(check_count(n), 0.0)


def phi_zero(cfg: NeutronConfig) -> float:
    """Lower bound on the per-measurement angle, dE_m / (4 dE_k)."""
    return cfg.delta_e_m / (4.0 * cfg.delta_e_k)


def p_up_limited(n: int, phi0: float) -> float:
    """Survival with the per-measurement angle clamped from below at ``phi0``.

    Equals :func:`p_up_ideal` while pi/2n >= phi0; for larger n the angle
    sticks at phi0 and the survival decays like exp(-phi0^2 n).  ``phi0`` is
    a parameter under :func:`check_positive`'s rule, and must be < pi/2.
    """
    n = check_count(n)
    if not check_positive(phi0, "phi0") < math.pi / 2.0:
        raise ConfigError(f"must be < pi/2, got {phi0!r}", field="phi0")
    return _p_up(n, phi0)


def neutron_n_max(cfg: NeutronConfig) -> int:
    """Largest measurement count before the angle floor binds, floor(pi/(2 phi0)).

    Raises
    ------
    BoundViolationError
        If phi0 >= pi/2 (outside :func:`p_up_limited`'s domain) or underflows to 0.
    """
    phi0 = phi_zero(cfg)
    if phi0 >= math.pi / 2.0:
        raise BoundViolationError(
            f"phi0 = {phi0:.6g} is not below pi/2; no valid measurement count"
        )
    return floor_count(math.pi, 2.0 * phi0)
