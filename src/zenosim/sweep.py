"""Parameter sweeps over the measurement count, and table emission.

``run_ion_sweep`` tabulates the closed forms (and optionally the full
three-level simulation) for each requested n; ``run_neutron_sweep`` does the
same for the spin variant.  Rows with n beyond the admissible maximum are
flagged ``ill-defined``: there the measurement level has no time to decay,
so non-observation of its photons stops being a population measurement.
Rows are frozen dataclasses set as records, a sweep's and :func:`load_result`'s
alike: a dict in field order becomes a row's ``__dict__``, with no ``__init__``.

Tables are emitted as CSV (fixed header, 12 significant digits, no
metadata, byte-reproducible) or as JSON with a ``metadata``/``rows`` pair
that round-trips through :func:`load_result`.  Both read a row's values
shallowly, from its ``vars``, so rows must be flat, with scalar values.  The
JSON bytes are those of ``json.dumps(..., indent=2)``, but a table's rows are
encoded in one call to the C encoder, whose separators lay each flat object
out as ``indent=2`` does at depth 2, and one replace puts in the breaks
between rows; only the metadata goes through the indenting (pure-Python)
encoder.
"""

import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from .config import RunConfig
from .dynamics import IonConfig, LindbladConfig, final_state
from .errors import ConfigError, IntegrationError, check_flag
from .ion import _p2, _p2_asymptotic, n_max
from .neutron import _p_up, neutron_n_max, phi_zero

REGIME_VALID = "valid"
REGIME_ILL_DEFINED = "ill-defined"


@dataclass(frozen=True)
class SweepRow:
    n: int
    p2_projection: float
    p2_asymptotic: float
    p2_limited: float
    p2_lindblad: float | None
    regime_flag: str


@dataclass(frozen=True)
class NeutronRow:
    n: int
    p_up_ideal: float
    p_up_limited: float
    regime_flag: str


#: Each row type's field names, in order: the keys of a dict that ``_record`` may take.
_FIELDS = {row_type: list(row_type.__dataclass_fields__) for row_type in (SweepRow, NeutronRow)}


def _record(row_type, values: dict):
    """The ``row_type(**values)`` row, for ``values`` in field order, with ``values`` as its
    ``__dict__`` and no ``__init__`` call; the row types have no ``__post_init__`` to skip."""
    row = object.__new__(row_type)
    object.__setattr__(row, "__dict__", values)
    return row


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    metadata: dict

    def columns(self) -> tuple[str, ...]:
        if self.rows:
            return tuple(vars(self.rows[0]))
        return tuple(self.metadata.get("columns", ()))


def _result(rows, row_type, config: dict, bound: int, integrator_step=None, **extra) -> SweepResult:
    """``rows`` with the metadata layout both tables share; ``extra`` keys follow ``n_max``."""
    metadata = {
        "config": config,
        "n_max": bound,
        **extra,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "integrator_step": integrator_step,
        "columns": list(_FIELDS[row_type]),
    }
    return SweepResult(tuple(rows), metadata)


def lindblad_p2(setup: LindbladConfig) -> float:
    """Upper-level population at the end of the drive pulse from the full model."""
    try:
        return float(final_state(setup, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])[1, 1].real)
    except IntegrationError as exc:
        raise IntegrationError(f"row n={setup.ion.n_pulses}: {exc.message}", time=exc.time) from exc


def run_ion_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the ion closed forms (and optionally the full model) over n."""
    (omega, tau_sp), n_list = cfg.require_ion(), cfg.require_n_list()
    table = IonConfig(omega, tau_sp, 1)  # the checked floats every row and the echo read
    params, lindblad = cfg.schedule, check_flag(cfg.lindblad, "sweep.lindblad")
    setups = [None] * len(n_list)
    if lindblad:  # every row is built, and so checked, before the bound or any integration
        setups = [params.setup(IonConfig(table.omega, table.tau_sp, n)) for n in n_list]
    bound, floor = n_max(table), table.omega * table.tau_sp
    rows = [  # require_n_list checked each count, so the rows call the closed forms' kernels
        _record(SweepRow, {
            "n": n,
            "p2_projection": _p2(n, 0.0),
            "p2_asymptotic": _p2_asymptotic(n),
            "p2_limited": _p2(n, floor),
            "p2_lindblad": None if setup is None else lindblad_p2(setup),
            "regime_flag": REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        })
        for n, setup in zip(n_list, setups)
    ]
    schedule = dict(vars(params))
    step = schedule.pop("integrator_step")  # reported as metadata.integrator_step
    config = {
        "omega": table.omega,
        "tau_sp": table.tau_sp,
        "n_list": list(n_list),
        "lindblad": lindblad,
        **schedule,
    }
    return _result(rows, SweepRow, config, bound, integrator_step=step if lindblad else None)


def run_neutron_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the neutron-spin closed forms over n."""
    ncfg = cfg.require_neutron()
    n_list = cfg.require_n_list()
    phi0 = phi_zero(ncfg)
    bound = neutron_n_max(ncfg)
    rows = [
        _record(NeutronRow, {
            "n": n,
            "p_up_ideal": _p_up(n, 0.0),
            "p_up_limited": _p_up(n, phi0),
            "regime_flag": REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        })
        for n in n_list
    ]
    config = {
        "delta_e_m": ncfg.delta_e_m,
        "delta_e_k": ncfg.delta_e_k,
        "phi0": phi0,
        "n_list": list(n_list),
    }
    return _result(rows, NeutronRow, config, bound, p_up_at_n_max=_p_up(bound, phi0))


def _format_value(value) -> str:
    if type(value) is not float:  # a float cell, the common one, takes one test
        if value is None:
            return ""
        if isinstance(value, (str, int)):
            return str(value)
    return format(value, ".12g")


def _csv_lines(result: SweepResult) -> list[str]:
    lines = [",".join(result.columns())]
    for row in result.rows:
        lines.append(",".join([_format_value(v) for v in vars(row).values()]))
    return lines


#: Encodes a list of flat row objects as ``indent=2`` lays each out at depth 2, minus the row breaks.
_ROW_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",\n      ", ": "))


def _json_text(result: SweepResult) -> str:
    text = json.dumps({"metadata": result.metadata, "rows": []}, indent=2, allow_nan=False)
    if not result.rows:
        return text + "\n"
    # The C encoder escapes a newline in a string, so the separators hold the only literal
    # ones, and in a list of flat objects "},\n      {" occurs only between two rows.
    rows = _ROW_ENCODER.encode([vars(row) for row in result.rows])[2:-2]
    rows = rows.replace("},\n      {", "\n    },\n    {\n      ")
    return text[: -len("[]\n}")] + "[\n    {\n      " + rows + "\n    }\n  ]\n}\n"


def emit(result: SweepResult, format: str = "csv", destination=None) -> None:
    """Write ``result`` as ``csv`` or ``json`` to a path, file object, or stdout."""
    if format == "csv":
        text = "\n".join(_csv_lines(result)) + "\n"
    elif format == "json":
        text = _json_text(result)
    else:
        raise ConfigError(f"unknown format {format!r}", field="output.format")
    if destination is None or destination == "-":
        sys.stdout.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def load_result(source) -> SweepResult:
    """Rebuild a :class:`SweepResult` from JSON emitted by :func:`emit`."""
    if hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, encoding="utf-8") as handle:
            payload = json.load(handle)
    rows = []
    for entry in payload["rows"]:
        row_type = SweepRow if "p2_projection" in entry else NeutronRow
        if list(entry) == _FIELDS[row_type]:
            rows.append(_record(row_type, entry))
        else:  # other keys, or the same in another order: the constructor orders or refuses them
            rows.append(row_type(**entry))
    return SweepResult(tuple(rows), payload["metadata"])
