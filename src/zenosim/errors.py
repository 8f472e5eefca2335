"""Exception types shared across the package, and the measurement-count check."""

import operator
import sys

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
