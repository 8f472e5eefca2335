"""Spans recorded from outside the program, at its module boundaries.

``install`` rebinds public names of the zenosim modules to timing wrappers.
Each call through a wrapped name records one span: its name, start, end,
parent span and op id.  Spans are kept in flat integer arrays (40 bytes a
span) and written out by ``Tracer.dump`` when the run ends.

Only public names are wrapped.  Private code (``rhs``, ``_validate_step``)
shows up as the self time of the public span that encloses it.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import defaultdict
from time import perf_counter_ns

FIELDS = ("name", "start", "end", "parent", "op")

# (module, attribute, span name).  The same function is wrapped once per
# module that looks it up, so every call site in the program is covered.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "config.parse"),
    ("cli", "parse_n_list", "config.parse"),
    ("cli", "run_ion_sweep", "sweep.run"),
    ("cli", "run_neutron_sweep", "sweep.run"),
    ("cli", "emit", "sweep.emit"),
    ("cli", "lindblad_p2", "sweep.lindblad_p2"),
    ("cli", "p2_closed_form", "ion.closed_form"),
    ("sweep", "load_result", "sweep.load"),
    ("sweep", "p2_closed_form", "ion.closed_form"),
    ("sweep", "p2_asymptotic", "ion.closed_form"),
    ("sweep", "p2_decoherence_limited", "ion.closed_form"),
    ("sweep", "n_max", "ion.closed_form"),
    ("sweep", "p_up_ideal", "neutron.closed_form"),
    ("sweep", "p_up_limited", "neutron.closed_form"),
    ("sweep", "phi_zero", "neutron.closed_form"),
    ("sweep", "neutron_n_max", "neutron.closed_form"),
    ("sweep", "integrate_lindblad", "dynamics.integrate"),
    ("sweep", "LindbladConfig", "dynamics.setup"),
    ("dynamics", "integrate_lindblad", "dynamics.integrate"),
    ("dynamics", "LindbladConfig", "dynamics.setup"),
    ("dynamics", "min_eigenvalue", "states.min_eig"),
    ("ion", "simulate_projective_sequence", "ion.oracle"),
    ("ion", "bloch_from_density", "states.bloch_map"),
    ("ion", "density_from_bloch", "states.bloch_map"),
    ("states", "validate_density", "states.validate"),
)

# A JSON timestamp drops its microseconds when they are 0; counting bytes as
# if it always had this length keeps ``sweep.bytes_out`` an exact count.
_TIMESTAMP_LEN = len("2000-01-01T00:00:00.000000+00:00")


class TrackedTrajectory(list):
    """A returned trajectory that records which stored states the caller reads."""

    def __init__(self, states, reads: set):
        super().__init__(states)
        self._reads = reads

    def __getitem__(self, index):
        if isinstance(index, slice):
            self._reads.update(range(len(self))[index])
        else:
            self._reads.add(range(len(self))[index])
        return super().__getitem__(index)

    def __iter__(self):
        self._reads.update(range(len(self)))
        return super().__iter__()


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array("q") for field in FIELDS}
        self.stack = [-1]
        self.op = -1
        self.counters: dict[tuple[str, int], int] = defaultdict(int)
        self._reads: dict[int, list[set]] = defaultdict(list)
        self.missing: list[str] = []

    def count(self, name: str, value: int) -> None:
        self.counters[(name, self.op)] += value

    def wrap(self, fn, span_name: str, after=None):
        name_id = len(self.names)
        self.names.append(span_name)
        name, start, end = self.spans["name"], self.spans["start"], self.spans["end"]
        parent, op, stack = self.spans["parent"], self.spans["op"], self.stack

        def timed(*args, **kwargs):
            index = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            op.append(self.op)
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()
            return after(result, args, kwargs) if after else result

        timed.__wrapped__ = fn
        return timed

    def _integrated(self, traj, args, kwargs):
        reads: set = set()
        self._reads[self.op].append(reads)
        self.count("dynamics.steps", len(traj) - 1)
        self.count("dynamics.stored_states", len(traj))
        return TrackedTrajectory(traj, reads)

    def _swept(self, result, args, kwargs):
        self.count("sweep.rows", len(result.rows))
        return result

    def _emitted(self, result, args, kwargs):
        sweep_result = args[0]
        fmt = kwargs.get("format", args[1] if len(args) > 1 else "csv")
        dest = kwargs.get("destination", args[2] if len(args) > 2 else None)
        if isinstance(dest, str) and dest != "-":
            size = os.path.getsize(dest)
            if fmt == "json":
                size += _TIMESTAMP_LEN - len(sweep_result.metadata["timestamp"])
            self.count("sweep.bytes_out", size)
        return result

    def close_op(self) -> None:
        """Count the trajectory states the finished op read back."""
        for reads in self._reads.pop(self.op, ()):
            self.count("dynamics.used_states", len(reads))

    def install(self, modules: dict) -> None:
        """Rebind every name in ``WRAPPED`` that the program still has."""
        after = {
            "dynamics.integrate": self._integrated,
            "sweep.run": self._swept,
            "sweep.emit": self._emitted,
        }
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(original, span_name, after.get(span_name)))
        schedule = modules["dynamics"].PulseSchedule
        if "equispaced" in vars(schedule):
            build = vars(schedule)["equispaced"].__func__
            schedule.equispaced = classmethod(self.wrap(build, "dynamics.setup"))
        else:
            self.missing.append("dynamics.PulseSchedule.equispaced")

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and their name table next to ``path``."""
        with open(path + ".bin", "wb") as handle:
            for field in FIELDS:
                self.spans[field].tofile(handle)
        header = {
            "names": self.names,
            "count": len(self.spans["start"]),
            "counters": [[name, op, value] for (name, op), value in self.counters.items()],
            "missing": self.missing,
        }
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(header, handle)


def load(path: str):
    """Read spans written by :meth:`Tracer.dump` as numpy arrays."""
    import numpy as np

    with open(path + ".json", encoding="utf-8") as handle:
        header = json.load(handle)
    count = header["count"]
    raw = np.fromfile(path + ".bin", dtype=np.int64)
    spans = {field: raw[i * count:(i + 1) * count] for i, field in enumerate(FIELDS)}
    return header, spans
