"""Golden files: CLI tables and config-parser outcomes pinned byte for byte.

``tests/data/*.cfg`` are fixed runner configs.  For each, the ion and/or
neutron tables the CLI writes (CSV, and JSON with its timestamp masked) are
stored next to it, and ``config_cases.json`` records what ``parse_config``
makes of those configs and of one malformed file per kind of fault: the
parsed ``repr``, or the error type, ``ConfigError.field`` and message.
``engine_reference.json`` pins the Lindblad integrator exactly: the final
states of a few rows, and the count, times and states of two whole
trajectories (times and states as SHA-256 of their little-endian bytes).

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a
change to the numbers or messages is intended.  It prints each file it
rewrites, whether its bytes changed, and the largest change of a number in it.
"""

import hashlib
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from zenosim import (
    IonConfig,
    LindbladConfig,
    PulseSchedule,
    ZenoSimError,
    integrate_lindblad,
    parse_config,
)
from zenosim.cli import main
from zenosim.dynamics import final_state

DATA = Path(__file__).parent / "data"

#: Config name -> (command, format) tables pinned for it.
TABLES = {
    "ion_sweep": (("ion", "csv"), ("ion", "json"), ("neutron", "csv")),
    "ion_lindblad": (("ion", "csv"), ("ion", "json")),
    "ion_lindblad_gated": (("ion", "csv"), ("ion", "json")),
    "neutron_raw": (("neutron", "csv"), ("neutron", "json")),
}

#: Malformed files, one per kind of fault; several hold more than one fault
#: to pin which is reported first.
MALFORMED = {
    "unknown_section": "[laser]\npower = 3\n",
    "unknown_key": "[ion]\nomega = 1.0\nomga = 2.0\n",
    "unknown_key_beats_bad_value": "[ion]\nomega = fast\n[output]\ncolour = red\n",
    "unknown_key_in_schedule": "[schedule]\npulse_width = 0.1\n",
    "unknown_key_in_neutron": "[neutron]\ndelta_e_m = 1\ndelta_e_k = 1\nspin = 1\n",
    "unknown_key_in_sweep": "[sweep]\nn_list = 1\nlinblad = true\n",
    "default_key": "[DEFAULT]\nfoo = 1\n[ion]\nomega = 1\n",
    "not_a_number": "[ion]\nomega = fast\n",
    "infinite": "[ion]\nomega = inf\n",
    "nan": "[ion]\ntau_sp = nan\n",
    "zero": "[ion]\ntau_sp = 0\n",
    "negative": "[ion]\nomega = -1.0\n",
    "fraction_at_one": "[schedule]\npulse_duration_fraction = 1.0\n",
    "fraction_negative": "[schedule]\npulse_duration_fraction = -0.1\n",
    "pulse_area_zero": "[schedule]\npulse_area = 0\n",
    "rf_not_boolean": "[schedule]\nrf_during_pulse = maybe\n",
    "step_not_a_number": "[schedule]\nintegrator_step = small\n",
    "lindblad_not_boolean": "[sweep]\nlindblad = 2\n",
    "n_list_word": "[sweep]\nn_list = 1, x\n",
    "n_list_zero": "[sweep]\nn_list = 3, 0\n",
    "n_list_float": "[sweep]\nn_list = 1.5\n",
    "format_unknown": "[output]\nformat = xml\n",
    "neutron_empty": "[neutron]\n",
    "neutron_missing_kinetic": "[neutron]\ndelta_e_m = 0.4\n",
    "neutron_inconsistent": "[neutron]\nmu = 1\nb_field = 1\ndelta_e_m = 3\ndelta_e_k = 1\n",
    "neutron_negative_raw": "[neutron]\nmu = -1\nb_field = 1\n",
    "duplicate_key": "[ion]\nomega = 1\nomega = 2\n",
    "no_section_header": "omega = 1\n",
    "sections_in_table_order": "[output]\nformat = xml\n[ion]\nomega = fast\n",
    "keys_in_table_order": "[ion]\ntau_sp = -1\nomega = fast\n",
    "neutron_before_output": "[neutron]\n[output]\nformat = xml\n",
    "n_list_before_lindblad": "[sweep]\nlindblad = maybe\nn_list = x\n",
    "fraction_before_step": "[schedule]\nintegrator_step = -1\npulse_duration_fraction = 2\n",
    "ion_before_schedule": "[schedule]\nrf_during_pulse = maybe\n[ion]\nomega = 1\ntau_sp = 0\n",
}


def _engine_setups() -> tuple[dict, dict]:
    """Rows whose final state is pinned, and the ``verify`` benchmark's trajectories."""
    finals = {}
    for n, tau_sp, rf in itertools.product((1, 4, 64), (0.1, 0.01), (True, False)):
        ion = IonConfig(1.0, tau_sp, n)
        schedule = PulseSchedule.equispaced(ion, rf_during_pulse=rf)
        finals[f"n={n} tau_sp={tau_sp} rf_during_pulse={rf}"] = LindbladConfig(ion, schedule)
    ion = IonConfig(1.0, 0.1, 2000)  # 4,000 one-step segments
    schedule = PulseSchedule.equispaced(ion, pulse_area=1e-9)
    finals["n=2000 pulse_area=1e-9"] = LindbladConfig(ion, schedule)
    trajectories = {}
    for ratio in (10, 100):  # n = 4, T/tau_sp = 10 and 100, pulses 5% of the spacing
        ion = IonConfig(1.0, math.pi / ratio, 4)
        schedule = PulseSchedule.equispaced(ion, duration_fraction=0.05)
        trajectories[f"n=4 T/tau_sp={ratio}"] = LindbladConfig(ion, schedule)
    return finals, trajectories


def _engine_reference() -> dict:
    rho0 = np.diag([1.0, 0.0, 0.0])
    finals, trajectories = _engine_setups()
    digest = lambda values, dtype: hashlib.sha256(np.array(values, dtype=dtype).tobytes()).hexdigest()
    ref = {"final_states": {}, "trajectories": {}}
    for name, cfg in finals.items():
        ref["final_states"][name] = [[z.real, z.imag] for z in final_state(cfg, rho0).ravel().tolist()]
    for name, cfg in trajectories.items():
        traj = integrate_lindblad(cfg, rho0)
        ref["trajectories"][name] = {
            "states": len(traj),
            "times_sha256": digest([t for t, _ in traj], "<f8"),
            "states_sha256": digest([rho for _, rho in traj], "<c16"),
        }
    return ref


#: A decimal number standing alone, not a run of digits inside a hex digest or a word.
_NUMBER = re.compile(rb"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def _rewrite(path: Path, data: bytes) -> None:
    """Write a golden file and print whether its bytes changed and its numbers' largest drift."""
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(data)
    if old == data:
        print(f"{path.name}: unchanged")
        return
    before, after = ([float(n) for n in _NUMBER.findall(text)] for text in (old or b"", data))
    drift = (f"largest numerical drift {max(map(abs, np.subtract(after, before)), default=0.0):.3g}"
             if old is not None and len(before) == len(after) else "numbers not comparable")
    print(f"{path.name}: changed, {drift}")


def _mask_timestamp(text: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": "<masked>"', text)


def _table(config: Path, command: str, fmt: str, out: Path) -> bytes:
    assert main([command, "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
    return _mask_timestamp(out.read_bytes())


def _outcome(path: Path) -> dict:
    try:
        return {"parsed": repr(parse_config(path))}
    except ZenoSimError as exc:
        mask = lambda text: None if text is None else text.replace(str(path), "<path>")
        return {
            "error": type(exc).__name__,
            "field": mask(exc.field),
            "message": mask(str(exc)),
        }


def _outcomes(workdir: Path) -> dict:
    cases = {name: _outcome(DATA / f"{name}.cfg") for name in TABLES}
    for name, text in MALFORMED.items():
        path = workdir / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        cases[name] = _outcome(path)
    cases["missing_file"] = _outcome(workdir / "absent.cfg")
    return cases


@pytest.mark.parametrize(
    "name,command,fmt",
    [(name, command, fmt) for name, runs in TABLES.items() for command, fmt in runs],
)
def test_table_bytes(tmp_path, name, command, fmt):
    got = _table(DATA / f"{name}.cfg", command, fmt, tmp_path / "out")
    assert got == (DATA / f"{name}.{command}.{fmt}").read_bytes()


def test_config_outcomes(tmp_path):
    want = json.loads((DATA / "config_cases.json").read_text(encoding="utf-8"))
    got = _outcomes(tmp_path)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


def test_engine_reference():
    want = json.loads((DATA / "engine_reference.json").read_text(encoding="utf-8"))
    got = _engine_reference()
    assert got["trajectories"] == want["trajectories"]
    assert got["final_states"].keys() == want["final_states"].keys()
    for name, state in want["final_states"].items():  # as bytes, so -0.0 != 0.0
        assert np.array(got["final_states"][name]).tobytes() == np.array(state).tobytes(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, runs in TABLES.items():
            for command, fmt in runs:
                golden = _table(DATA / f"{name}.cfg", command, fmt, work / "out")
                _rewrite(DATA / f"{name}.{command}.{fmt}", golden)
        cases = json.dumps(_outcomes(work), indent=2) + "\n"
        _rewrite(DATA / "config_cases.json", cases.encode("utf-8"))
    engine = json.dumps(_engine_reference(), indent=2) + "\n"
    _rewrite(DATA / "engine_reference.json", engine.encode("utf-8"))
    sys.exit(0)
