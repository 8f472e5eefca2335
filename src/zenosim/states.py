"""Density matrices for two- and three-level systems and the Bloch-vector map.

A two-level state is interchangeably a 2x2 complex density matrix or a real
Bloch vector (r1, r2, r3) with

    r1 = rho_12 + rho_21,
    r2 = i (rho_12 - rho_21),
    r3 = rho_22 - rho_11,

so r3 is the population inversion P2 - P1.  Basis index 0 is the lower level.
The Bloch helpers read each real number as a Python float by ``errors.real_floats``,
check it, and map it by an unchecked kernel on plain (r1, r2, r3) tuples, ``_density``
or ``_bloch``; the oracle ``ion.simulate_projective_sequence`` keeps ``_check_norm`` alone.
Every state tolerance is defined here, the integrator's ``TRAJECTORY_*`` ones
too, and each residue is compared as ``not residue <= tol``, so NaN fails.
The per-state checks can run once per stored state, so each keeps its numpy
calls few; their values, decisions and messages are the array formulas' own.
Both skip the residue of a state equal entry by entry to its adjoint, as every
integrated and projected state is; every other state takes it from
:func:`hermiticity_residue`.

numpy is bound here as ``np`` without being imported.  If it is not loaded
yet, ``np`` is the module that ``importlib.util.LazyLoader`` runs on its first
attribute access (the recipe of the ``importlib`` documentation), so the
closed forms and the command-line tables never load numpy or start its BLAS
threads; ``dynamics`` shares the binding.  Annotations naming ``np.ndarray``
are quoted, since an annotation is evaluated when its function is defined.
Before CPython gh-114763 was fixed (3.11 does not have the fix) LazyLoader was
not safe against two threads making the first access at once: a threaded
program should import numpy before it starts its threads.
"""

import importlib.util
import math
import sys
from typing import NamedTuple

from .errors import InvalidStateError, NonphysicalStateError, real_floats


def _lazy_numpy():
    """numpy if it is loaded, else a module that loads it on first attribute access."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

#: Max allowed |rho - rho^dagger| entry for a state accepted as Hermitian.
HERMITICITY_TOL = 1e-12
#: Real and imaginary parts below this cannot overflow in rho + rho^dagger.
_SUM_SAFE = 2.0**1022
#: Max allowed excess of a Bloch vector norm over 1.
BLOCH_NORM_TOL = 1e-10
#: Agreement required of the density <-> Bloch round trip, per component.
ROUND_TRIP_TOL = 1e-12
#: Trace drift tolerated along an integrated trajectory.
TRAJECTORY_TRACE_TOL = 1e-9
#: Hermiticity residue tolerated in an integration's initial state; later ones are Hermitian by construction.
TRAJECTORY_HERMITICITY_TOL = 1e-10
#: Most negative eigenvalue tolerated along an integrated trajectory.
TRAJECTORY_MIN_EIG_TOL = 1e-8


class BlochVector(NamedTuple):
    """Real three-vector equivalent of a two-level density matrix."""

    r1: float
    r2: float
    r3: float

    def norm(self) -> float:
        return math.hypot(self.r1, self.r2, self.r3)


def _float_bloch(r) -> BlochVector:
    """``r`` as a BlochVector of Python floats; ValueError unless :func:`real_floats` reads it."""
    if (parts := real_floats(r := tuple(r))) is None:
        raise ValueError(f"Bloch vector components must be real numbers, not bool, got {r!r}")
    return BlochVector(*parts)


class Diagnostics(NamedTuple):
    """Residues reported by :func:`validate_density`.

    The caller decides pass/fail against whatever tolerances apply in its
    context; the function raises only where :func:`as_density` does, with
    ``InvalidStateError`` on a 4x4 input and ``ValueError`` (or ``TypeError``)
    on entries that are not numbers.  A state with a non-finite entry reports a
    NaN or inf Hermiticity residue and a NaN ``min_eigenvalue``; a finite one
    whose sums overflow reports inf residues, with no warning.
    """

    hermiticity_residue: float
    trace_residue: float
    min_eigenvalue: float


def as_density(entries) -> "np.ndarray":
    """Coerce ``entries`` to a complex 2x2 or 3x3 array without validating it."""
    rho = np.asarray(entries, dtype=complex)
    if rho.shape not in ((2, 2), (3, 3)):
        raise InvalidStateError(
            f"density matrix must be 2x2 or 3x3, got shape {rho.shape}"
        )
    return rho


def hermiticity_residue(rho: "np.ndarray") -> "np.ndarray":
    """max |rho - rho^dagger| entrywise, per matrix of a (..., d, d) stack.

    A non-finite or overflowing entry gives a NaN or inf residue, and no warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def min_eigenvalue(rho: "np.ndarray") -> float:
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

    A state equal entry by entry to the conjugate of its transpose (NaN never
    is), every real and imaginary part below ``2**1022``, skips the residue
    arithmetic: its residue is exact zeros, and no sum in its Hermitian part
    can overflow, so that part goes to ``eigvalsh`` unchecked.  The states
    ``integrate_lindblad`` returns are all such.  Any other state takes its
    residue from :func:`hermiticity_residue` and forms its Hermitian part with
    no warning.  Both ways the values are the array formulas' own, bit for
    bit: the Hermitian part is formed, not read off ``rho``, since the two can
    differ in the sign of a zero and ``eigvalsh`` can round differently for it.
    """
    rho = as_density(rho)
    rows = rho.tolist()
    # Python complex sums, left to right as numpy's: inf - inf or 1e308 + 1e308 does not warn.
    tr = 0j  # differs from starting at the first entry only in the sign of a zero
    for i, row in enumerate(rows):
        tr += row[i]
    try:
        trace = abs(tr - 1.0)
    except OverflowError:  # finite parts whose modulus exceeds the float range
        trace = math.inf
    adjoint = rho.conj().T
    if rows == adjoint.tolist() and all(  # exactly Hermitian, and no sum of parts overflows
            abs(z.real) < _SUM_SAFE > abs(z.imag) for row in rows for z in row):
        return Diagnostics(0.0, trace, float(np.linalg.eigvalsh(0.5 * (rho + adjoint))[0]))
    with np.errstate(invalid="ignore", over="ignore"):
        sym = 0.5 * (rho + adjoint)
    return Diagnostics(float(hermiticity_residue(rho)), trace, min_eigenvalue(sym))


def bloch_from_density(rho) -> BlochVector:
    """Map a 2x2 density matrix to its Bloch vector of plain Python floats.

    A state equal entry by entry to the conjugate of its transpose (NaN never
    is), with real diagonal entries and real Bloch components of finite sum,
    has residue zero and is mapped with no residue arithmetic.  Any other is
    decided and worded by :func:`hermiticity_residue`, and then by the
    finiteness of its Bloch vector.

    Raises
    ------
    InvalidStateError
        If ``rho`` is not 2x2, has a non-finite entry, deviates from
        Hermiticity beyond ``HERMITICITY_TOL``, or has finite entries whose
        sums overflow to a non-finite Bloch vector.
    """
    rho = as_density(rho)
    if rho.shape != (2, 2):
        raise InvalidStateError("Bloch vector is defined for 2x2 states only")
    (rho_11, rho_12), (rho_21, rho_22) = rows = rho.tolist()
    r1, r2, r3 = _bloch(rows)
    exact = rho_12 == rho_21.conjugate() and rho_11.imag == 0 == rho_22.imag
    if not (exact and math.isfinite(r1 + r2 + r3)):
        herm = float(hermiticity_residue(rho))  # numpy's abs decides, and words the error
        if not herm <= HERMITICITY_TOL:
            raise InvalidStateError(f"state is not Hermitian (residue {herm:.3e})")
        if not (math.isfinite(r1) and math.isfinite(r2) and math.isfinite(r3)):  # the sums overflowed
            raise InvalidStateError(f"Bloch vector is not finite: {BlochVector(r1, r2, r3)}")
    return BlochVector(r1, r2, r3)


def _bloch(rows) -> tuple[float, float, float]:
    """(r1, r2, r3) of a 2x2 state's ``tolist()`` rows, unchecked."""
    (rho_11, rho_12), (rho_21, rho_22) = rows
    return (rho_12 + rho_21).real, (1j * (rho_12 - rho_21)).real, (rho_22 - rho_11).real


def density_from_bloch(r: BlochVector) -> "np.ndarray":
    """Map a Bloch vector to the corresponding 2x2 density matrix.

    Each component is read as a Python float.

    Raises
    ------
    ValueError
        If a component is a ``bool``, not a real number, or past the float range.
    NonphysicalStateError
        If the norm of ``r`` exceeds 1 beyond ``BLOCH_NORM_TOL``, or is NaN.
    """
    return _density(_check_norm(_float_bloch(r)))


def _check_norm(r: tuple[float, float, float]) -> tuple[float, float, float]:
    """``r`` unless its norm exceeds 1 beyond ``BLOCH_NORM_TOL`` or is NaN: NonphysicalStateError."""
    if not (norm := math.hypot(*r)) <= 1.0 + BLOCH_NORM_TOL:
        raise NonphysicalStateError(f"Bloch vector norm {norm:.12g} exceeds 1")
    return r


def _density(r: tuple[float, float, float]) -> "np.ndarray":
    """The 2x2 density matrix of floats (r1, r2, r3), unchecked."""
    r1, r2, r3 = r
    entries = (1.0 - r3) / 2.0, (r1 - 1j * r2) / 2.0, (r1 + 1j * r2) / 2.0, (1.0 + r3) / 2.0
    return np.array(entries, dtype=complex).reshape(2, 2)  # flat: nested rows take longer to read
