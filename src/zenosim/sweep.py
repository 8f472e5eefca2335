"""Parameter sweeps over the measurement count, and table emission.

``run_ion_sweep`` tabulates the closed forms (and optionally the full
three-level simulation) for each requested n; ``run_neutron_sweep`` does the
same for the spin variant.  Rows with n beyond the admissible maximum are
flagged ``ill-defined``: there the measurement level has no time to decay,
so non-observation of its photons stops being a population measurement.

Tables are emitted as CSV (fixed header, 12 significant digits, no
metadata, byte-reproducible) or as JSON with a ``metadata``/``rows`` pair
that round-trips through :func:`load_result`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
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
            return tuple(asdict(self.rows[0]).keys())
        return tuple(self.metadata.get("columns", ()))


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def lindblad_p2(ion: IonConfig, cfg: RunConfig) -> float:
    """Upper-level population at the end of the drive pulse from the full model."""
    sched = PulseSchedule.equispaced(
        ion,
        duration_fraction=cfg.schedule.pulse_duration_fraction,
        pulse_area=cfg.schedule.pulse_area,
        rf_during_pulse=cfg.schedule.rf_during_pulse,
    )
    lcfg = LindbladConfig(ion, sched, integrator_step=cfg.schedule.integrator_step)
    return final_state(lcfg, np.diag([1.0, 0.0, 0.0]))[1, 1].real


def run_ion_sweep(cfg: RunConfig) -> SweepResult:
    """Tabulate the ion closed forms (and optionally the full model) over n."""
    omega, tau_sp = cfg.require_ion()
    n_list = cfg.require_n_list()
    bound = n_max(IonConfig(omega, tau_sp, 1))
    rows = []
    for n in n_list:
        ion = IonConfig(omega, tau_sp, n)
        p2_full = None
        if cfg.lindblad:
            try:
                p2_full = lindblad_p2(ion, cfg)
            except IntegrationError as exc:
                raise IntegrationError(f"row n={n}: {exc.message}", time=exc.time) from exc
        rows.append(
            SweepRow(
                n=n,
                p2_projection=p2_closed_form(n),
                p2_asymptotic=p2_asymptotic(n),
                p2_limited=p2_decoherence_limited(n, ion),
                p2_lindblad=p2_full,
                regime_flag=REGIME_VALID if n <= bound else REGIME_ILL_DEFINED,
            )
        )
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
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(int(value))
    if not math.isfinite(value):
        return str(value)
    return format(value, ".12g")


def _csv_lines(result: SweepResult) -> list[str]:
    header = ",".join(result.columns())
    lines = [header]
    for row in result.rows:
        lines.append(",".join(_format_value(v) for v in asdict(row).values()))
    return lines


def emit(result: SweepResult, format: str = "csv", destination=None) -> None:
    """Write ``result`` as ``csv`` or ``json`` to a path, file object, or stdout."""
    if format == "csv":
        text = "\n".join(_csv_lines(result)) + "\n"
    elif format == "json":
        payload = {"metadata": result.metadata, "rows": [asdict(r) for r in result.rows]}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
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
