"""Sectioned key-value configuration files for the command-line runner.

The format is INI-style with sections ``[ion]``, ``[schedule]``,
``[neutron]``, ``[sweep]``, and ``[output]``.  Unknown sections or keys are
rejected so a typo in a physics parameter cannot silently fall back to a
default.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .dynamics import ScheduleParams
from .errors import ConfigError, check_count
from .neutron import NeutronConfig

_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one runner invocation."""

    ion_omega: float | None = None
    ion_tau_sp: float | None = None
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    neutron: NeutronConfig | None = None
    n_list: tuple[int, ...] | None = None
    lindblad: bool = False
    out_format: str = "csv"
    out_path: str | None = None

    def require_ion(self) -> tuple[float, float]:
        if self.ion_omega is None or self.ion_tau_sp is None:
            raise ConfigError("section [ion] with omega and tau_sp is required", field="ion")
        return self.ion_omega, self.ion_tau_sp

    def require_neutron(self) -> NeutronConfig:
        if self.neutron is None:
            raise ConfigError("section [neutron] is required", field="neutron")
        return self.neutron

    def require_n_list(self) -> tuple[int, ...]:
        if self.n_list is None:
            raise ConfigError("n_list is required (config [sweep] or --n-list)", field="sweep.n_list")
        return tuple(sorted({check_count(n, "sweep.n_list") for n in self.n_list}))


def parse_n_list(text: str, field_name: str = "sweep.n_list") -> tuple[int, ...]:
    """Parse a comma-separated list of measurement counts, sorted and deduplicated."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n = int(part)
        except ValueError as exc:
            raise ConfigError(f"not an integer: {part!r}", field=field_name) from exc
        if n < 1:
            raise ConfigError(f"counts must be >= 1, got {n}", field=field_name)
        values.append(n)
    return tuple(sorted(set(values)))


def _positive_float(raw: str, field_name: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"not a number: {raw!r}", field=field_name) from exc
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"must be finite and > 0, got {value}", field=field_name)
    return value


def _fraction(raw: str, field_name: str) -> float:
    value = _positive_float(raw, field_name)
    if not value < 1:
        raise ConfigError("must be < 1", field=field_name)
    return value


def _boolean(raw: str, field_name: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}", field=field_name)


def _out_format(raw: str, field_name: str) -> str:
    value = raw.strip().lower()
    if value not in _FORMATS:
        raise ConfigError(f"must be one of {_FORMATS}, got {value!r}", field=field_name)
    return value


#: section -> key -> (field it sets, converter(raw, dotted name)).  Values are
#: converted in this order, so it decides which of several faults is reported;
#: [schedule] and [neutron] build the RunConfig field named after them, the
#: other sections set RunConfig fields directly.
_TABLE = {
    "ion": {"omega": ("ion_omega", _positive_float), "tau_sp": ("ion_tau_sp", _positive_float)},
    "schedule": {
        "pulse_duration_fraction": ("pulse_duration_fraction", _fraction),
        "pulse_area": ("pulse_area", _positive_float),
        "rf_during_pulse": ("rf_during_pulse", _boolean),
        "integrator_step": ("integrator_step", _positive_float),
    },
    "neutron": {f.name: (f.name, _positive_float) for f in fields(NeutronConfig)},
    "sweep": {"n_list": ("n_list", parse_n_list), "lindblad": ("lindblad", _boolean)},
    "output": {"format": ("out_format", _out_format), "path": ("out_path", lambda raw, _: raw.strip())},
}
_NESTED = {"schedule": ScheduleParams, "neutron": NeutronConfig}


def parse_config(path) -> RunConfig:
    """Read and validate a runner configuration file.

    Raises
    ------
    ConfigError
        On unreadable files, unknown sections or keys, and malformed values;
        the message carries the dotted field path.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field=str(path)) from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}", field=str(path)) from exc

    for section in parser.sections():
        if section not in _TABLE:
            raise ConfigError("unknown section", field=section)
        for key in parser[section]:
            if key not in _TABLE[section]:
                raise ConfigError("unknown key", field=f"{section}.{key}")

    run = {}
    for section, keys in _TABLE.items():
        if not parser.has_section(section):
            continue
        raw = parser[section]
        values = {
            name: convert(raw[key], f"{section}.{key}")
            for key, (name, convert) in keys.items()
            if key in raw
        }
        if section in _NESTED:
            run[section] = _NESTED[section](**values)
        else:
            run.update(values)
    return RunConfig(**run)
