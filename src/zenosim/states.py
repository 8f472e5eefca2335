"""Density matrices for two- and three-level systems and the Bloch-vector map.

A two-level state is interchangeably a 2x2 complex density matrix or a real
Bloch vector (r1, r2, r3) with

    r1 = rho_12 + rho_21,
    r2 = i (rho_12 - rho_21),
    r3 = rho_22 - rho_11,

so r3 is the population inversion P2 - P1.  Basis index 0 is the lower level.
The tolerances below govern the two-level maps; the thresholds applied along
integrated trajectories are ``dynamics``' own ``TRAJECTORY_*`` constants.
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
    context; this function never raises.
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


def _eigvals_herm2(rho: np.ndarray) -> tuple[float, float]:
    # Closed form for a 2x2 Hermitian matrix: mean +/- radius.
    mean = 0.5 * (rho[0, 0].real + rho[1, 1].real)
    radius = math.hypot(0.5 * (rho[0, 0].real - rho[1, 1].real), abs(rho[0, 1]))
    return mean - radius, mean + radius


def _eigvals_herm3(rho: np.ndarray) -> tuple[float, float, float]:
    # Trigonometric solution of the characteristic cubic of a 3x3 Hermitian
    # matrix; avoids a general eigensolver for this fixed small dimension.
    a, b, c = rho[0, 0].real, rho[1, 1].real, rho[2, 2].real
    p1 = abs(rho[0, 1]) ** 2 + abs(rho[0, 2]) ** 2 + abs(rho[1, 2]) ** 2
    if p1 == 0.0:
        lo, mid, hi = sorted((a, b, c))
        return lo, mid, hi
    q = (a + b + c) / 3.0
    p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    bmat = (rho - q * np.eye(3)) / p
    det = (
        bmat[0, 0] * (bmat[1, 1] * bmat[2, 2] - bmat[1, 2] * bmat[2, 1])
        - bmat[0, 1] * (bmat[1, 0] * bmat[2, 2] - bmat[1, 2] * bmat[2, 0])
        + bmat[0, 2] * (bmat[1, 0] * bmat[2, 1] - bmat[1, 1] * bmat[2, 0])
    )
    r = max(-1.0, min(1.0, det.real / 2.0))
    phi = math.acos(r) / 3.0
    hi = q + 2.0 * p * math.cos(phi)
    lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return lo, 3.0 * q - hi - lo, hi


def min_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian 2x2 or 3x3 matrix, in closed form."""
    if rho.shape == (2, 2):
        return _eigvals_herm2(rho)[0]
    return _eigvals_herm3(rho)[0]


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
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = abs(complex(rho.trace()) - 1.0)
    sym = 0.5 * (rho + rho.conj().T)
    return Diagnostics(herm, trace, min_eigenvalue(sym))


def bloch_from_density(rho) -> BlochVector:
    """Map a 2x2 density matrix to its Bloch vector.

    Raises
    ------
    InvalidStateError
        If ``rho`` is not 2x2 or deviates from Hermiticity beyond
        ``HERMITICITY_TOL``.
    """
    rho = as_density(rho)
    if rho.shape != (2, 2):
        raise InvalidStateError("Bloch vector is defined for 2x2 states only")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERMITICITY_TOL:
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
        If the norm of ``r`` exceeds 1 beyond ``BLOCH_NORM_TOL``.
    """
    r = BlochVector(*r)
    if r.norm() > 1.0 + BLOCH_NORM_TOL:
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
