"""Sectioned key-value configuration files for the command-line runner.

The format is INI-style with sections ``[ion]``, ``[schedule]``, ``[neutron]``,
``[sweep]`` and ``[output]``.  Unknown sections or keys, ``[DEFAULT]`` keys
included, are rejected so a typo in a physics parameter cannot silently fall back
to a default.  Numbers and counts are plain ASCII literals, with no ``_``, and a
number's text must lie in the float range.  ``[schedule]`` and ``[neutron]`` are
only read here, and ``ScheduleParams`` and ``NeutronConfig`` check their values; every other
value is checked as it is read, a list of counts as a whole by ``check_counts``.
"""

import configparser
import math
from dataclasses import dataclass, field, fields

from .dynamics import ScheduleParams
from .errors import ConfigError, check_counts, check_positive
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
        return tuple(sorted(set(check_counts(self.n_list, "sweep.n_list"))))


def parse_n_list(text: str, field_name: str = "sweep.n_list") -> tuple[int, ...]:
    """Parse a comma-separated list of measurement counts, sorted and deduplicated."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(_literal(int, part))
        except ValueError as exc:
            check_counts(values, field_name)  # a bad count before this part is the earlier fault
            raise ConfigError(f"not an integer: {part!r}", field=field_name) from exc
    return tuple(sorted(set(check_counts(values, field_name))))


def _literal(convert, raw: str):
    """``convert(raw)`` for ASCII text without ``_``; ValueError for what else ``float`` or ``int`` reads."""
    if raw.isascii() and "_" not in raw:
        return convert(raw)
    raise ValueError(f"not a plain ASCII literal: {raw!r}")


def _number(raw: str, field_name: str) -> float:
    try:
        value = _literal(float, raw)
    except ValueError as exc:
        raise ConfigError(f"not a number: {raw!r}", field=field_name) from exc
    # float() reads a literal past its range as +-inf or 0.0; only a spelt infinity or zero means that
    digits = raw.lower().lstrip("+-").partition("e")[0]
    if (abs(value) == math.inf and not digits.startswith("inf")) or (value == 0 and digits.strip("0.")):
        raise ConfigError(f"outside the float range: {raw!r}", field=field_name)
    return value


def _positive_float(raw: str, field_name: str) -> float:
    return check_positive(_number(raw, field_name), field_name)


def _boolean(raw: str, field_name: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {raw!r}", field=field_name) from None


def _out_path(raw: str, field_name: str) -> str:
    if not raw.strip():
        raise ConfigError("must not be empty", field=field_name)
    return raw.strip()


def _out_format(raw: str, field_name: str) -> str:
    value = raw.strip().lower()
    if value not in _FORMATS:
        raise ConfigError(f"must be one of {_FORMATS}, got {value!r}", field=field_name)
    return value


_NESTED = {"schedule": ScheduleParams, "neutron": NeutronConfig}
#: section -> key -> (field it sets, converter(raw, dotted name)), converted in this order.  A
#: _NESTED section's keys are read as text only, and its class checks their ranges, so a text fault
#: there comes before a range fault; other sections check each value as it is read.
_TABLE = {
    "ion": {"omega": ("ion_omega", _positive_float), "tau_sp": ("ion_tau_sp", _positive_float)},
    **{
        section: {f.name: (f.name, _boolean if f.type is bool else _number) for f in fields(cls)}
        for section, cls in _NESTED.items()
    },
    "sweep": {"n_list": ("n_list", parse_n_list), "lindblad": ("lindblad", _boolean)},
    "output": {"format": ("out_format", _out_format), "path": ("out_path", _out_path)},
}


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
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", field=str(path)) from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file: {exc}", field=str(path)) from exc

    for section in parser.sections():
        if section not in _TABLE:
            raise ConfigError("unknown section", field=section)
        for key in parser[section]:
            if key not in _TABLE[section]:
                raise ConfigError("unknown key", field=f"{section}.{key}")
    for key in parser.defaults():  # a [DEFAULT] key no section refused would be dropped or inherited
        raise ConfigError("unknown key", field=f"DEFAULT.{key}")

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
