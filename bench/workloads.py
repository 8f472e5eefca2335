"""The benchmark's workloads: their inputs, their ops and the checks on outputs.

A workload is built from the zenosim modules handed to it, so importing this
file imports no part of the program.  ``ops(rng)`` returns one pass of ops in
an order drawn from ``rng``; the seed never changes an output, only the order
of ops and of the ``--n-list`` text, which the program sorts.

Each op has a ``key`` under which ``refs.json`` pins its expected output,
recorded from the program at the commit that defined the benchmark; for the
``verify`` oracle the pinned value is ``ion.p2_closed_form(n)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import asdict
from functools import partial
from typing import Callable, NamedTuple


class Op(NamedTuple):
    key: str
    run: Callable[[], object]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    #: Fixed tail percentile, so that every commit reports the same quantile;
    #: a run lasts until ten samples lie beyond it.  None: see ``min_ops``.
    tail_pct: float | None = 50.0
    #: With ``tail_pct`` None, the fewest ops in a run.
    min_ops = 0

    def __init__(self, modules: dict, workdir: str):
        self.zs = modules
        self.workdir = workdir

    def configs(self) -> dict[str, str]:
        """Config file name -> text; fixed, so every run parses the same input."""
        return {}

    def write_configs(self) -> None:
        for name, text in self.configs().items():
            with open(self.path(name), "w", encoding="utf-8") as handle:
                handle.write(text)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Parse the workload's configs (timed as part of ``setup_s``)."""
        self.parsed = {name: self.zs["config"].parse_config(self.path(name)) for name in self.configs()}

    def ops(self, rng) -> list[Op]:
        raise NotImplementedError

    def digest(self, key: str, output) -> object:
        """JSON-able summary of an op's output, compared against ``refs.json``."""
        return output

    def judge(self, key: str, output, refs: dict) -> tuple[list[str], int]:
        """Errors of an op's output against the pinned references, and its rows.

        Rows are 0 for a failed op.  A missing output file or a malformed
        line raises while the output is read or checked; that fails the op
        like a wrong value does.
        """
        if key not in refs:
            return [f"{key}: no pinned reference"], 0
        try:
            errors = self.check(key, self.digest(key, output), refs[key])
            return errors, 0 if errors else self.rows(key, output)
        except Exception as exc:  # a failed op is counted, not fatal
            return [f"{key}: output could not be checked: {type(exc).__name__}: {exc}"], 0

    def check(self, key: str, got, ref) -> list[str]:
        return [] if got == ref else [f"{key}: output differs from the pinned reference"]

    def rows(self, key: str, output) -> int:
        return 1

    def cleanup(self, key: str) -> None:
        """Remove what an op wrote, so that a later failing op cannot pass on stale files."""


class Tables(Workload):
    """``zenosim ion`` and ``zenosim neutron`` to CSV and JSON, in-process through ``cli.main``.

    One op is one window of contiguous counts written four ways: ion and
    neutron, each to CSV and to JSON read back with ``load_result``.  Ops of
    one kind keep the latency percentiles inside one distribution.
    """

    name = "tables"
    tail_pct = 90.0
    #: n = 1..N_LAST in windows of WINDOW counts.  n_max = 12566 and
    #: neutron_n_max = 7853 fall inside the range, so both regime flags occur.
    N_LAST = 20000
    WINDOW = 500
    TABLES = (("ion", "csv"), ("ion", "json"), ("neutron", "csv"), ("neutron", "json"))
    CONFIG = "[ion]\nomega = 1.0\ntau_sp = 2.5e-4\n\n[neutron]\ndelta_e_m = 8e-4\ndelta_e_k = 1.0\n"

    def configs(self):
        return {"tables.cfg": self.CONFIG}

    def _out(self, command: str, fmt: str) -> str:
        return self.path(f"{command}.{fmt}")

    def ops(self, rng):
        ops = []
        for lo in range(1, self.N_LAST + 1, self.WINDOW):
            counts = list(range(lo, lo + self.WINDOW))
            argvs = []
            for command, fmt in self.TABLES:
                rng.shuffle(counts)
                argvs.append([command, "--config", self.path("tables.cfg"),
                              "--n-list", ",".join(map(str, counts)),
                              "--format", fmt, "--out", self._out(command, fmt)])
            ops.append(Op(f"n={lo}-{lo + self.WINDOW - 1}", partial(self._tables, argvs)))
        rng.shuffle(ops)
        return ops

    def _tables(self, argvs):
        main, load_result = self.zs["cli"].main, self.zs["sweep"].load_result
        outputs = []
        for argv in argvs:
            code = main(argv)
            outputs.append((code, argv[-1], load_result(argv[-1]) if argv[-3] == "json" else None))
        return outputs

    def digest(self, key, output):
        digests = {}
        for (command, fmt), (code, out, loaded) in zip(self.TABLES, output):
            if loaded is None:
                with open(out, "rb") as handle:
                    data = handle.read()
            else:
                # metadata.timestamp is the only field that changes from run to run.
                metadata = {k: v for k, v in loaded.metadata.items() if k != "timestamp"}
                payload = {"metadata": metadata, "rows": [asdict(row) for row in loaded.rows]}
                data = json.dumps(payload, sort_keys=True).encode()
            digests[f"{command} {fmt}"] = {"exit": code, "sha256": _sha256(data)}
        return digests

    def check(self, key, got, ref):
        return [f"{key} {table}: {got[table]} differs from the pinned {ref[table]}"
                for table in ref if got.get(table) != ref[table]]

    def rows(self, key, output):
        return len(self.TABLES) * self.WINDOW

    def cleanup(self, key):
        for command, fmt in self.TABLES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._out(command, fmt))


class LindbladCheck(Workload):
    """``zenosim lindblad-check`` per count, each in the projective regime of criterion 6."""

    name = "lindblad-check"
    #: Three ops a pass whose costs go 1:2:4 with n (2514 n RK4 steps each),
    #: about 1, 2 and 4 s.  A run holds too few ops for any percentile above
    #: the median to have ten samples beyond it, so ``op_s_tail`` is instead
    #: the median latency of the slowest op, over its six calls in a run.
    tail_pct = None
    min_ops = 6 * 3
    COUNTS = (2, 4, 8)
    #: Lindblad values must agree to 1e-12.  ``_close`` adds one unit of the
    #: 12th significant digit, since both sides were rounded when printed.
    VALUE_TOL = 1e-12

    def configs(self):
        # tau_sp = (pi/n)/20: the lifetime is a twentieth of the spacing.
        return {f"lindblad-{n}.cfg": f"[ion]\nomega = 1.0\ntau_sp = {math.pi / n / 20!r}\n"
                for n in self.COUNTS}

    def ops(self, rng):
        ops = [Op(f"n={n}", partial(self._check, n)) for n in self.COUNTS]
        rng.shuffle(ops)
        return ops

    def _check(self, n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.zs["cli"].main(["lindblad-check", "--config",
                                        self.path(f"lindblad-{n}.cfg"), "--n-list", str(n)])
        return code, out.getvalue()

    def digest(self, key, output):
        code, text = output
        return {"exit": code, "stdout": text.splitlines()}

    @classmethod
    def _close(cls, got: str, ref: str) -> bool:
        ref_value = float(ref)
        digit = 10.0 ** (math.floor(math.log10(abs(ref_value))) - 11) if ref_value else 0.0
        return abs(float(got) - ref_value) <= cls.VALUE_TOL + digit

    def check(self, key, got, ref):
        errors = []
        if got["exit"] != 0 or ref["exit"] != 0:
            errors.append(f"{key}: exit code {got['exit']}, expected 0")
        lines, ref_lines = got["stdout"], ref["stdout"]
        if len(lines) != len(ref_lines) or lines[0] != ref_lines[0]:
            return errors + [f"{key}: output lines {lines!r} do not match {ref_lines!r}"]
        deviations = []
        for line, ref_line in zip(lines[1:-1], ref_lines[1:-1]):
            n, closed, full, deviation = line.split(",")
            ref_n, ref_closed, ref_full, _ = ref_line.split(",")
            deviations.append(deviation)
            # The deviation is printed to 4 digits: check it against the row
            # rather than against the reference.
            consistent = abs(float(deviation) - abs(float(full) - float(closed))) <= (
                5e-4 * float(deviation) + 2 * self.VALUE_TOL)
            if n != ref_n or not (self._close(closed, ref_closed) and self._close(full, ref_full)
                                  and consistent):
                errors.append(f"{key}: row {line!r} differs from {ref_line!r} by more than 1e-12")
        worst, tail = lines[-1].split(" ", 3)[2:]
        if worst != max(deviations, key=float) or tail != ref_lines[-1].split(" ", 3)[3]:
            errors.append(f"{key}: summary {lines[-1]!r} does not match the rows or {ref_lines[-1]!r}")
        return errors


class Verify(Workload):
    """Library use: full trajectories read back and validated, and the projection oracle."""

    name = "verify"
    tail_pct = 99.0
    #: Criterion 5: n = 4, lifetime ratios T/tau_sp, pulses 5% of the spacing.
    RATIOS = (10, 100)
    N_PULSES = 4
    ORACLE_LAST = 150
    CONFIG = "[ion]\nomega = 1.0\ntau_sp = 0.01\n\n[schedule]\npulse_duration_fraction = 0.05\n"
    # Criterion-5 thresholds on every stored state, and the oracle tolerance
    # of criterion 1.
    TRACE_TOL, HERM_TOL, MIN_EIG_TOL = 1e-9, 1e-10, -1e-8
    FINAL_TOL = 1e-12
    ORACLE_TOL = 1e-9

    def configs(self):
        return {"verify.cfg": self.CONFIG}

    def setup(self):
        super().setup()
        import numpy as np

        cfg = self.parsed["verify.cfg"]
        self.omega, self.tau_sp = cfg.require_ion()
        self.fraction = cfg.schedule.pulse_duration_fraction
        self.rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)

    def ops(self, rng):
        ops = [Op(f"integrate ratio={r}", partial(self._integrate, r)) for r in self.RATIOS]
        ops += [Op(f"oracle n={n}", partial(self._oracle, n)) for n in range(1, self.ORACLE_LAST + 1)]
        rng.shuffle(ops)
        return ops

    def _integrate(self, ratio):
        dynamics, states = self.zs["dynamics"], self.zs["states"]
        ion = dynamics.IonConfig(self.omega, math.pi / ratio, self.N_PULSES)
        schedule = dynamics.PulseSchedule.equispaced(ion, duration_fraction=self.fraction)
        traj = dynamics.integrate_lindblad(dynamics.LindbladConfig(ion, schedule), self.rho0)
        pops = dynamics.populations(traj)
        diagnostics = [states.validate_density(rho) for _, rho in traj]
        return pops, diagnostics

    def _oracle(self, n):
        ion = self.zs["ion"]
        return ion.simulate_projective_sequence(self.zs["dynamics"].IonConfig(self.omega, self.tau_sp, n))

    def digest(self, key, output):
        if key.startswith("oracle"):
            return output
        pops, diagnostics = output
        return {
            "states": len(pops),
            "final": [float(p) for p in pops[-1][1:]],
            "max_trace_residue": max(d.trace_residue for d in diagnostics),
            "max_hermiticity_residue": max(d.hermiticity_residue for d in diagnostics),
            "min_eigenvalue": min(d.min_eigenvalue for d in diagnostics),
        }

    def check(self, key, got, ref):
        if key.startswith("oracle"):
            ok = abs(got - ref) < self.ORACLE_TOL
            return [] if ok else [f"{key}: oracle {got!r} vs closed form {ref!r}"]
        errors = []
        if got["states"] != ref["states"]:
            errors.append(f"{key}: {got['states']} stored states, expected {ref['states']}")
        if not (got["max_trace_residue"] < self.TRACE_TOL
                and got["max_hermiticity_residue"] < self.HERM_TOL
                and got["min_eigenvalue"] >= self.MIN_EIG_TOL):
            errors.append(f"{key}: a stored state breaks the criterion-5 thresholds: {got}")
        if any(abs(a - b) > self.FINAL_TOL for a, b in zip(got["final"], ref["final"])):
            errors.append(f"{key}: final populations {got['final']} vs {ref['final']}")
        return errors

    def rows(self, key, output):
        return 1 if key.startswith("oracle") else len(output[0])


WORKLOADS = {w.name: w for w in (Tables, LindbladCheck, Verify)}
