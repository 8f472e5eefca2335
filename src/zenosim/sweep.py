"""Parameter sweeps over the measurement count, and table emission.

``run_ion_sweep`` tabulates the closed forms (and optionally the full
three-level simulation) for each requested n; ``run_neutron_sweep`` does the
same for the spin variant.  Rows with n beyond the admissible maximum are
flagged ``ill-defined``: there the measurement level has no time to decay,
so non-observation of its photons stops being a population measurement.

Tables are emitted as CSV (fixed header, 12 significant digits, no
metadata, byte-reproducible) or as JSON with a ``metadata``/``rows`` pair
that round-trips through :func:`load_result`.  Both read a row's values
shallowly, from its ``vars``.  The JSON bytes are those of
``json.dumps(..., indent=2)``, but each row is encoded in one call to the C
encoder, whose separators lay a flat object out as ``indent=2`` does at
depth 2; only the metadata goes through the indenting (pure-Python) encoder.
"""

import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from .config import RunConfig
from .dynamics import IonConfig, LindbladConfig, PulseSchedule, final_state
from .errors import ConfigError, IntegrationError
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
        "columns": list(row_type.__dataclass_fields__),
    }
    return SweepResult(tuple(rows), metadata)


def lindblad_p2(setup: LindbladConfig) -> float:
    """Upper-level population at the end of the drive pulse from the full model."""
    try:
        return final_state(setup, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])[1, 1].real
    except IntegrationError as exc:
        raise IntegrationError(f"row n={setup.ion.n_pulses}: {exc.message}", time=exc.time) from exc


def run_ion_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the ion closed forms (and optionally the full model) over n."""
    (omega, tau_sp), n_list = cfg.require_ion(), cfg.require_n_list()
    table = IonConfig(omega, tau_sp, 1)  # the checked floats every row and the echo read
    params = cfg.schedule
    setups = [None] * len(n_list)
    if cfg.lindblad:  # every row is built, and so checked, before the bound or any integration
        setups = [
            LindbladConfig(
                ion,
                PulseSchedule.equispaced(
                    ion, params.pulse_duration_fraction, params.pulse_area, params.rf_during_pulse
                ),
                integrator_step=params.integrator_step,
            )
            for ion in (IonConfig(table.omega, table.tau_sp, n) for n in n_list)
        ]
    bound, floor = n_max(table), table.omega * table.tau_sp
    rows = [  # require_n_list checked each count, so the rows call the closed forms' kernels
        SweepRow(
            n=n,
            p2_projection=_p2(n, 0.0),
            p2_asymptotic=_p2_asymptotic(n),
            p2_limited=_p2(n, floor),
            p2_lindblad=None if setup is None else lindblad_p2(setup),
            regime_flag=REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        )
        for n, setup in zip(n_list, setups)
    ]
    schedule = dict(vars(params))
    step = schedule.pop("integrator_step")  # reported as metadata.integrator_step
    config = {
        "omega": table.omega,
        "tau_sp": table.tau_sp,
        "n_list": list(n_list),
        "lindblad": cfg.lindblad,
        **schedule,
    }
    return _result(rows, SweepRow, config, bound, integrator_step=step if cfg.lindblad else None)


def run_neutron_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the neutron-spin closed forms over n."""
    ncfg = cfg.require_neutron()
    n_list = cfg.require_n_list()
    phi0 = phi_zero(ncfg)
    bound = neutron_n_max(ncfg)
    rows = tuple(
        NeutronRow(
            n=n,
            p_up_ideal=_p_up(n, 0.0),
            p_up_limited=_p_up(n, phi0),
            regime_flag=REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        )
        for n in n_list
    )
    config = {
        "delta_e_m": ncfg.delta_e_m,
        "delta_e_k": ncfg.delta_e_k,
        "phi0": phi0,
        "n_list": list(n_list),
    }
    return _result(rows, NeutronRow, config, bound, p_up_at_n_max=_p_up(bound, phi0))


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(value, ".12g")


def _csv_lines(result: SweepResult) -> list[str]:
    lines = [",".join(result.columns())]
    for row in result.rows:
        lines.append(",".join(_format_value(v) for v in vars(row).values()))
    return lines


#: Encodes a flat row object as ``indent=2`` lays it out at depth 2, minus the braces.
_ROW_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",\n      ", ": "))


def _json_text(result: SweepResult) -> str:
    text = json.dumps({"metadata": result.metadata, "rows": []}, indent=2, allow_nan=False)
    if not result.rows:
        return text + "\n"
    rows = ",\n".join(
        "    {\n      " + _ROW_ENCODER.encode(vars(row))[1:-1] + "\n    }" for row in result.rows
    )
    return text[: -len("[]\n}")] + "[\n" + rows + "\n  ]\n}\n"


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
        if "p2_projection" in entry:
            rows.append(SweepRow(**entry))
        else:
            rows.append(NeutronRow(**entry))
    return SweepResult(tuple(rows), payload["metadata"])
