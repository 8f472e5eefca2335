"""Density matrices for two- and three-level systems and the Bloch-vector map.

A two-level state is interchangeably a 2x2 complex density matrix or a real
Bloch vector (r1, r2, r3) with

    r1 = rho_12 + rho_21,
    r2 = i (rho_12 - rho_21),
    r3 = rho_22 - rho_11,

so r3 is the population inversion P2 - P1.  Basis index 0 is the lower level.
Every state tolerance is defined here, the integrator's ``TRAJECTORY_*`` ones
too, and each residue is compared as ``not residue <= tol``, so NaN fails.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidStateError, NonphysicalStateError

#: Max allowed |rho - rho^dagger| entry for a state accepted as Hermitian.
HERMITICITY_TOL = 1e-12
#: Max allowed excess of a Bloch vector norm over 1.
BLOCH_NORM_TOL = 1e-10
#: Agreement required of the density <-> Bloch round trip, per component.
ROUND_TRIP_TOL = 1e-12
#: Trace drift tolerated along an integrated trajectory.
TRAJECTORY_TRACE_TOL = 1e-9
#: Hermiticity residue tolerated along an integrated trajectory.
TRAJECTORY_HERMITICITY_TOL = 1e-10
#: Most negative eigenvalue tolerated along an integrated trajectory.
TRAJECTORY_MIN_EIG_TOL = 1e-8


class BlochVector(NamedTuple):
    """Real three-vector equivalent of a two-level density matrix."""

    r1: float
    r2: float
    r3: float

    def norm(self) -> float:
        return math.sqrt(self.r1**2 + self.r2**2 + self.r3**2)


class Diagnostics(NamedTuple):
    """Residues reported by :func:`validate_density`.

    The caller decides pass/fail against whatever tolerances apply in its
    context; this function never raises.  A state with a non-finite entry
    reports a NaN or inf Hermiticity residue and a NaN ``min_eigenvalue``.
    """

    hermiticity_residue: float
    trace_residue: float
    min_eigenvalue: float


def as_density(entries) -> np.ndarray:
    """Coerce ``entries`` to a complex 2x2 or 3x3 array without validating it."""
    rho = np.asarray(entries, dtype=complex)
    if rho.shape not in ((2, 2), (3, 3)):
        raise InvalidStateError(
            f"density matrix must be 2x2 or 3x3, got shape {rho.shape}"
        )
    return rho


def hermiticity_residue(rho: np.ndarray) -> np.ndarray:
    """max |rho - rho^dagger| entrywise, per matrix of a (..., d, d) stack.

    A non-finite entry gives a NaN or inf residue, and no warning.
    """
    with np.errstate(invalid="ignore"):
        return np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix by ``np.linalg.eigvalsh``; NaN if not finite."""
    return float(np.linalg.eigvalsh(rho)[0]) if np.isfinite(rho).all() else math.nan


def validate_density(rho) -> Diagnostics:
    """Report hermiticity, trace, and positivity residues of ``rho``.

    Parameters
    ----------
    rho : array_like
        2x2 or 3x3 complex matrix.

    Returns
    -------
    Diagnostics
        ``hermiticity_residue`` is max |rho - rho^dagger| entrywise,
        ``trace_residue`` is |tr(rho) - 1|, and ``min_eigenvalue`` is the
        smallest eigenvalue of the Hermitian part of ``rho``.
    """
    rho = as_density(rho)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN residue, not a warning
        trace = abs(complex(rho.trace()) - 1.0)
        sym = 0.5 * (rho + rho.conj().T)
    return Diagnostics(float(hermiticity_residue(rho)), trace, min_eigenvalue(sym))


def bloch_from_density(rho) -> BlochVector:
    """Map a 2x2 density matrix to its Bloch vector.

    Raises
    ------
    InvalidStateError
        If ``rho`` is not 2x2, has a non-finite entry, or deviates from
        Hermiticity beyond ``HERMITICITY_TOL``.
    """
    rho = as_density(rho)
    if rho.shape != (2, 2):
        raise InvalidStateError("Bloch vector is defined for 2x2 states only")
    herm = float(hermiticity_residue(rho))
    if not herm <= HERMITICITY_TOL:
        raise InvalidStateError(f"state is not Hermitian (residue {herm:.3e})")
    r1 = rho[0, 1] + rho[1, 0]
    r2 = 1j * (rho[0, 1] - rho[1, 0])
    r3 = rho[1, 1] - rho[0, 0]
    # For a Hermitian input these are real up to rounding; the residue bound
    # above already caps the imaginary parts.
    return BlochVector(r1.real, r2.real, r3.real)


def density_from_bloch(r: BlochVector) -> np.ndarray:
    """Map a Bloch vector to the corresponding 2x2 density matrix.

    Raises
    ------
    NonphysicalStateError
        If the norm of ``r`` exceeds 1 beyond ``BLOCH_NORM_TOL``, or is NaN.
    """
    r = BlochVector(*r)
    if not r.norm() <= 1.0 + BLOCH_NORM_TOL:
        raise NonphysicalStateError(
            f"Bloch vector norm {r.norm():.12g} exceeds 1"
        )
    return np.array(
        [
            [(1.0 - r.r3) / 2.0, (r.r1 - 1j * r.r2) / 2.0],
            [(r.r1 + 1j * r.r2) / 2.0, (1.0 + r.r3) / 2.0],
        ],
        dtype=complex,
    )
