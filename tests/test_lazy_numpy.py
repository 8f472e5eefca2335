"""Fresh-process tests of the lazy numpy binding in ``zenosim.states``.

They run in a new interpreter, since the test modules of this suite import
numpy before zenosim, and then the binding is numpy itself.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import zenosim

SRC = str(Path(zenosim.__file__).resolve().parents[1])

CLOSED_FORMS = """
import sys

import zenosim
from zenosim import cli, config, dynamics, ion, neutron, states, sweep

cfg, out = sys.argv[1:]
for argv in (
    ["ion", "--config", cfg, "--out", out],
    ["ion", "--config", cfg, "--format", "json", "--out", out],
    ["neutron", "--config", cfg, "--out", out],
    ["validate", "--config", cfg],
):
    assert cli.main(argv) == 0, argv
for n in (1, 2, 7, 64):  # the Bloch oracle steps on plain rows
    p2 = ion.simulate_projective_sequence(dynamics.IonConfig(1.0, 0.01, n))
    assert abs(p2 - ion.p2_closed_form(n)) < 1e-9, n
print(sorted(name for name in sys.modules if name.startswith("numpy.")))
"""

FIRST_USE = """
import sys

assert "numpy" not in sys.modules
from zenosim import cli

code = cli.main(["lindblad-check", "--config", sys.argv[1], "--n-list", "2"])
import numpy as np

print(code, np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]])).tolist())
"""


def run_fresh(script: str, *args: str, flags: tuple = ()) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_closed_form_commands_load_no_numpy(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text(
        "[ion]\nomega = 1.0\ntau_sp = 0.1\n\n[neutron]\ndelta_e_m = 0.4\ndelta_e_k = 1.0\n\n"
        "[sweep]\nn_list = 1, 2, 4, 64\n"
    )
    result = run_fresh(CLOSED_FORMS, str(cfg), str(tmp_path / "table.out"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"  # numpy._core above all, and OpenBLAS with it


def test_first_numeric_call_loads_numpy(tmp_path):
    cfg = tmp_path / "check.cfg"
    cfg.write_text(f"[ion]\nomega = 1.0\ntau_sp = {(math.pi / 2) / 20!r}\n")
    result = run_fresh(FIRST_USE, str(cfg), flags=("-W", "error"))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.splitlines() == [
        "n,p2_projection,p2_lindblad,abs_deviation",
        "2,0.5,0.515364584926,1.536e-02",
        "max deviation: 1.536e-02 (tolerance 0.05)",
        "0 [1.0, 3.0]",
    ]
