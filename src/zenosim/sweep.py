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

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .config import RunConfig
from .dynamics import IonConfig, LindbladConfig, PulseSchedule, final_state
from .errors import ConfigError, IntegrationError
from .ion import n_max, p2_asymptotic, p2_closed_form, p2_decoherence_limited
from .neutron import neutron_n_max, p_up_ideal, p_up_limited, phi_zero

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


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def lindblad_setups(cfg: RunConfig, counts) -> list[LindbladConfig]:
    """The full model's setup for each count: the ion, schedule and step of ``cfg``.

    Every setup is built, and so checked, before any row is integrated.
    """
    omega, tau_sp = cfg.require_ion()
    params = cfg.schedule
    setups = []
    for n in counts:
        ion = IonConfig(omega, tau_sp, n)
        sched = PulseSchedule.equispaced(
            ion, params.pulse_duration_fraction, params.pulse_area, params.rf_during_pulse
        )
        setups.append(LindbladConfig(ion, sched, integrator_step=params.integrator_step))
    return setups


def lindblad_p2(setup: LindbladConfig) -> float:
    """Upper-level population at the end of the drive pulse from the full model."""
    try:
        return final_state(setup, np.diag([1.0, 0.0, 0.0]))[1, 1].real
    except IntegrationError as exc:
        raise IntegrationError(f"row n={setup.ion.n_pulses}: {exc.message}", time=exc.time) from exc


def run_ion_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the ion closed forms (and optionally the full model) over n."""
    omega, tau_sp = cfg.require_ion()
    n_list = cfg.require_n_list()
    # n_max and the clamp read only omega * tau_sp, so one config serves every row.
    base = IonConfig(omega, tau_sp, 1)
    bound = n_max(base)
    setups = lindblad_setups(cfg, n_list) if cfg.lindblad else [None] * len(n_list)
    rows = [
        SweepRow(
            n=n,
            p2_projection=p2_closed_form(n),
            p2_asymptotic=p2_asymptotic(n),
            p2_limited=p2_decoherence_limited(n, base),
            p2_lindblad=None if setup is None else lindblad_p2(setup),
            regime_flag=REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        )
        for n, setup in zip(n_list, setups)
    ]
    metadata = {
        "config": {
            "omega": omega,
            "tau_sp": tau_sp,
            "n_list": list(n_list),
            "lindblad": cfg.lindblad,
            "pulse_duration_fraction": cfg.schedule.pulse_duration_fraction,
            "pulse_area": cfg.schedule.pulse_area,
            "rf_during_pulse": cfg.schedule.rf_during_pulse,
        },
        "n_max": bound,
        "timestamp": _timestamp(),
        "integrator_step": cfg.schedule.integrator_step if cfg.lindblad else None,
        "columns": list(SweepRow.__dataclass_fields__),
    }
    return SweepResult(tuple(rows), metadata)


def run_neutron_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the neutron-spin closed forms over n."""
    ncfg = cfg.require_neutron()
    n_list = cfg.require_n_list()
    phi0 = phi_zero(ncfg)
    bound = neutron_n_max(ncfg)
    rows = tuple(
        NeutronRow(
            n=n,
            p_up_ideal=p_up_ideal(n),
            p_up_limited=p_up_limited(n, phi0),
            regime_flag=REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
        )
        for n in n_list
    )
    metadata = {
        "config": {
            "delta_e_m": ncfg.delta_e_m,
            "delta_e_k": ncfg.delta_e_k,
            "phi0": phi0,
            "n_list": list(n_list),
        },
        "n_max": bound,
        "p_up_at_n_max": p_up_limited(bound, phi0),
        "timestamp": _timestamp(),
        "integrator_step": None,
        "columns": list(NeutronRow.__dataclass_fields__),
    }
    return SweepResult(rows, metadata)


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
