"""Exception types of the package, and the one rule each for a count, a real number, a parameter and a flag.

A real number is a ``numbers.Real``, not a ``bool``, whose ``float()`` does not overflow: :func:`real_floats`.
"""

import contextlib
import math
import operator
import sys
from numbers import Real

_MAX_COUNT = int(sys.float_info.max)  # the closed forms convert a count to a float


class ZenoSimError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(ZenoSimError):
    """A density matrix violates a state invariant (e.g. not Hermitian)."""


class NonphysicalStateError(ZenoSimError):
    """A Bloch vector lies outside the unit ball beyond tolerance."""


class ConfigError(ZenoSimError, ValueError):
    """A configuration value or file is invalid.

    ``field`` holds a dotted path such as ``"schedule.pulse_area"`` when the
    offending entry is known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def check_count(n, field: str = "n") -> int:
    """Measurement count ``n`` as a Python int; any integer type but ``bool`` passes."""
    try:
        value = operator.index(n)
    except TypeError:
        value = 0
    if isinstance(n, bool) or value < 1:
        raise ConfigError(f"must be an integer >= 1, got {n!r}", field=field)
    if value > _MAX_COUNT:
        raise ConfigError(f"must be at most {sys.float_info.max:.4g}", field=field)
    return value


def check_counts(values, field: str = "n") -> list[int]:
    """``[check_count(n, field) for n in values]``, in one pass when every value is an int in range."""
    counts = list(values)
    if not counts or ({*map(type, counts)} == {int} and min(counts) >= 1 and max(counts) <= _MAX_COUNT):
        return counts
    return [check_count(n, field) for n in counts]  # the first offender raises its own error


def real_floats(values) -> "tuple[float, ...] | None":
    """Tuple ``values`` as Python floats, or None unless each is a real number, not a bool, in float range."""
    # The parameter checks make 312 calls per benchmark `verify` pass and 1,120 per `tables` pass.
    for value in values:  # a loop, not all(): all() takes IonConfig(...) from 2.6 to 6-10 us (Xeon)
        if type(value) is not float:
            break
    else:
        return values
    with contextlib.suppress(OverflowError):  # float() of an int or Fraction past the float range
        if all(type(value) is not bool and isinstance(value, Real) for value in values):
            return tuple(map(float, values))
    return None


def check_positive(value, field: str) -> float:
    """``float(value)``, a Python float, if :func:`real_floats` reads ``value`` and it is finite and > 0."""
    if (number := real_floats((value,))) and 0 < number[0] < math.inf:
        return number[0]
    raise ConfigError(f"must be finite and > 0, got {value!r}", field=field)


def check_fraction(value, field: str) -> float:
    """The float :func:`check_positive` returns for ``value`` if it is < 1; else ConfigError."""
    if (number := check_positive(value, field)) < 1:
        return number
    raise ConfigError("must be < 1", field=field)


def check_flag(value, field: str) -> bool:
    """``bool(value)`` if ``value`` is hashable and equals True or False (a numpy.bool_ does)."""
    with contextlib.suppress(TypeError, ValueError):  # an array is unhashable: no elementwise ==
        if value in {True, False}:
            return bool(value)
    raise ConfigError(f"must be True or False, got {value!r}", field=field)


def floor_count(top: float, bottom: float) -> int:
    """floor(top / bottom) as a count, within 2 ulps of rounding; refuses an infinite ratio."""
    ratio = top / bottom if bottom else math.inf
    if ratio == math.inf:
        raise BoundViolationError(f"bound {top:.6g}/{bottom:.6g} is not a finite count")
    # A ratio that is an integer k in real arithmetic arrives as pi/(pi/k), two roundings, so it
    # may sit up to ~1.5 ulps under k.  Bump to the next integer only within 2 ulps: a 4-ulp guard
    # would turn k + 1/2 into k + 1 near 1e15, where an ulp is 1/8.  An integer ratio stays.
    n = math.floor(ratio)
    return n + 1 if n < ratio and n + 1 - ratio <= 2 * math.ulp(n + 1) else n


class IntegrationError(ZenoSimError):
    """The integrator produced a state violating an invariant.

    ``time`` is the simulation time of the offending state.
    """

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.message = message
        self.time = time

    def __str__(self) -> str:
        return f"{self.message} (at t={self.time:.6g})"


class BoundViolationError(ZenoSimError):
    """No admissible measurement count exists for the given parameters."""
