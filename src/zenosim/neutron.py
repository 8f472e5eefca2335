"""Zeno closed forms for a neutron spin precessing through field regions.

The ideal survival probability after n measurements is [cos^2(pi/2n)]^n and
tends to one.  Beam uncertainties put a floor phi0 = dE_m / (4 dE_k) under
the per-measurement rotation angle, so the limited form falls to zero for
large n instead; the crossover count is ``neutron_n_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundViolationError, ConfigError, check_count
from .ion import _guarded_floor


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
        # energy -> (the raw inputs whose product it is, how to name them)
        raw_inputs = {
            "delta_e_m": ((2.0, self.mu, self.b_field), "mu and b_field"),
            "delta_e_k": ((self.mass, self.v0, self.delta_v), "mass, v0 and delta_v"),
        }
        for name, (factors, _) in raw_inputs.items():
            if None in factors:
                continue
            given, raw = getattr(self, name), math.prod(factors)
            if given is None:
                object.__setattr__(self, name, raw)
            elif abs(given - raw) > 1e-12 * max(abs(given), abs(raw)):
                raise ConfigError(
                    f"value {given:.12g} disagrees with the raw-input value {raw:.12g}",
                    field=f"neutron.{name}",
                )
        for name, (_, inputs) in raw_inputs.items():
            value = getattr(self, name)
            if value is None or not (math.isfinite(value) and value > 0):
                raise ConfigError(
                    f"must be finite and > 0 (give it or {inputs})", field=f"neutron.{name}"
                )


def p_up_ideal(n: int) -> float:
    """Survival probability [cos^2(pi/2n)]^n after n ideal measurements."""
    n = check_count(n)
    return math.cos(math.pi / (2.0 * n)) ** (2 * n)


def phi_zero(cfg: NeutronConfig) -> float:
    """Lower bound on the per-measurement angle, dE_m / (4 dE_k)."""
    return cfg.delta_e_m / (4.0 * cfg.delta_e_k)


def p_up_limited(n: int, phi0: float) -> float:
    """Survival with the per-measurement angle clamped from below at ``phi0``.

    Equals :func:`p_up_ideal` while pi/2n >= phi0; for larger n the angle
    sticks at phi0 and the survival decays like exp(-phi0^2 n).
    """
    n = check_count(n)
    if not 0.0 < phi0 < math.pi / 2.0:
        raise ValueError("phi0 must lie in (0, pi/2)")
    phi = max(math.pi / (2.0 * n), phi0)
    return math.cos(phi) ** (2 * n)


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
    return _guarded_floor(math.pi, 2.0 * phi0)
