"""zenosim benchmark: one workload, measured end to end or traced layer by layer.

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seeds 1,2,3 --out-dir results/

Each workload runs as one closed-loop client in a fresh single-threaded
process (``child.py``).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the workload twice, untraced and traced,
and reports the per-layer split and the trace overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Outputs are checked against ``refs.json``; a wrong value,
wrong bytes, wrong exit code or exception fails the op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

REFS = BENCH / "refs.json"
#: Fresh processes that only import and parse, for ``setup_s``.
SETUP_PROBES = 7
#: Passes of each of the two processes of a traced run.
TRACE_PASSES = 3
#: Seconds a child may take before it is stopped.
CHILD_TIMEOUT = 150
#: Samples that must lie beyond the tail percentile.
TAIL_SAMPLES = 10
#: Typical seconds of ``child.calibrate`` on the reference machine (2-vCPU
#: Xeon container at 2.0 GHz).  Every time is reported as measured *
#: CAL_REF / calibration around it, so it reads as seconds on that machine
#: at its usual speed.
CAL_REF = 0.012

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
#: Hidden program input that changes results; never passed to a workload.
HIDDEN_INPUTS = ("ZENO_SIM_STEP_OVERRIDE",)

#: Per-layer times: metric -> (span name, whole span or self time).
LAYER_TIMES = {
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "config.parse_s": ("config.parse", "total"),
    "ion.closed_form_s": ("ion.closed_form", "total"),
    "neutron.closed_form_s": ("neutron.closed_form", "total"),
    "ion.oracle_s": ("ion.oracle", "total"),
    "sweep.run_s": ("sweep.run", "self"),
    "sweep.emit_s": ("sweep.emit", "total"),
    "sweep.load_s": ("sweep.load", "total"),
    "sweep.lindblad_p2_s": ("sweep.lindblad_p2", "total"),
    "dynamics.integrate_s": ("dynamics.integrate", "total"),
    "dynamics.self_s": ("dynamics.integrate", "self"),
    "dynamics.setup_s": ("dynamics.setup", "total"),
    "states.min_eig_s": ("states.min_eig", "total"),
    "states.validate_s": ("states.validate", "total"),
    "states.bloch_map_s": ("states.bloch_map", "total"),
}
#: Per-layer call counts: metric -> span name.
LAYER_CALLS = {
    "config.calls": "config.parse",
    "ion.closed_form_calls": "ion.closed_form",
    "neutron.closed_form_calls": "neutron.closed_form",
    "ion.oracle_calls": "ion.oracle",
    "states.min_eig_calls": "states.min_eig",
    "states.validate_calls": "states.validate",
    "states.bloch_map_calls": "states.bloch_map",
}
#: Counts taken from return values at the boundaries: metric -> unit.
LAYER_COUNTERS = {"sweep.rows": "count", "sweep.bytes_out": "bytes",
                  "dynamics.steps": "count", "dynamics.stored_states": "count"}


def min_ops(spec) -> int:
    """Fewest ops in a run: enough to leave ``TAIL_SAMPLES`` beyond the tail percentile."""
    if spec.tail_pct is None:
        return spec.min_ops
    k = TAIL_SAMPLES + 1
    while k - math.ceil(k * spec.tail_pct / 100.0) < TAIL_SAMPLES:
        k += 1
    return k


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


def metric(value, unit, samples, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def git_revision(root: Path):
    """Commit of ``root`` read from ``.git`` without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts child processes for one workload in a scratch directory."""

    def __init__(self, workload: str, root: Path, workdir: str):
        self.workload = workload
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        for name in HIDDEN_INPUTS:
            self.env.pop(name, None)
        self.env.update({name: "1" for name in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        WORKLOADS[workload](None, workdir).write_configs()
        self.started = 0

    def child(self, mode: str, **options) -> dict:
        self.started += 1
        result = os.path.join(self.workdir, f"{mode}-{self.started}.json")
        argv = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
                "--mode", mode, "--workdir", self.workdir, "--result", result, "--refs", str(REFS)]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        done = subprocess.run(argv, cwd=self.workdir, env=self.env, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{self.workload} {mode} process failed "
                               f"(exit {done.returncode}):\n{done.stderr[-4000:]}")
        with open(result, encoding="utf-8") as handle:
            record = json.load(handle)
        record["result_path"] = result
        return record


def _failures(record: dict) -> list[str]:
    return [error for op in record["ops"] for error in (op[4] or [])]


def _op_seconds(record: dict) -> dict:
    """Per op key: count, median, min and max of its scaled times."""
    samples: dict = {}
    for op, seconds in zip(record["ops"], scaled_ops(record)):
        samples.setdefault(op[1], []).append(seconds)
    return {key: [len(v)] + [float(f"{x:.6g}") for x in (statistics.median(v), min(v), max(v))]
            for key, v in samples.items()}


def op_scales(record: dict) -> list[float]:
    """CAL_REF over the mean of the calibrations before and after each op."""
    cal = record["calibrations"]
    return [2 * CAL_REF / (cal[op[5]] + cal[op[5] + 1]) for op in record["ops"]]


def scaled_ops(record: dict) -> list[float]:
    return [op[2] * scale for op, scale in zip(record["ops"], op_scales(record))]


def pass_walls(record: dict, op_s: list[float]) -> list[float]:
    walls = [0.0] * len(record["pass_rows"])
    for op, seconds in zip(record["ops"], op_s):
        walls[op[0]] += seconds
    return walls


def tail(main: dict, op_s: list[float], tail_pct) -> tuple[dict, dict]:
    """``op_s_tail`` and its note: the fixed percentile, or with ``tail_pct``
    None the median latency of the op whose median is highest."""
    if tail_pct is not None:
        return metric(percentile(op_s, tail_pct), "s", len(op_s), percentile=tail_pct), {}
    by_key: dict = {}
    for op, seconds in zip(main["ops"], op_s):
        by_key.setdefault(op[1], []).append(seconds)
    slowest = max(by_key, key=lambda key: statistics.median(by_key[key]))
    note = (f"no percentile above the median has {TAIL_SAMPLES} samples beyond it in this run; "
            f"median latency of the slowest op ({slowest}) instead")
    return (metric(statistics.median(by_key[slowest]), "s", len(by_key[slowest]),
                   slowest_op=slowest), {"op_s_tail": note})


def end_to_end(main: dict, setup_samples: list[float], tail_pct) -> tuple[dict, dict]:
    """End-to-end metrics of one run and notes on them."""
    op_s = scaled_ops(main)
    walls = pass_walls(main, op_s)
    rows = main["pass_rows"]
    failed = sum(1 for op in main["ops"] if op[4])
    raw_op_s = [op[2] for op in main["ops"]]
    op_s_tail, notes = tail(main, op_s, tail_pct)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "op_s_p50": metric(statistics.median(op_s), "s", len(op_s)),
        "op_s_tail": op_s_tail,
        "rows_per_s": metric(statistics.median(r / w for r, w in zip(rows, walls)),
                             "rows/s", len(walls)),
        "peak_rss_mb": metric(main["peak_rss_mb"], "MB", 1),
        "failed_frac": metric(failed / len(op_s), "ratio", len(op_s)),
        "ok_frac": metric(1.0 - failed / len(op_s), "ratio", len(op_s)),
        "raw.wall_s": metric(statistics.median(pass_walls(main, raw_op_s)), "s", len(walls)),
        "raw.op_s_p50": metric(statistics.median(raw_op_s), "s", len(op_s)),
        "machine.kernel_s": metric(statistics.median(main["calibrations"]), "s",
                                   len(main["calibrations"])),
    }, notes


def scaled_setup(record: dict) -> float:
    return record["setup_s"] * CAL_REF / statistics.median(record["calibrations"])


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict, list[str]]:
    """Per-pass layer metrics (medians over passes), notes, and count errors.

    Span times are scaled like op times, by the kernel times around their op.
    """
    import numpy as np

    from spans import load

    header, spans = load(os.path.splitext(traced["result_path"])[0] + ".spans")
    n_passes = len(traced["pass_rows"])
    op_pass = np.array([op[0] for op in traced["ops"]], dtype=np.int64)
    duration = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    in_op = spans["op"] >= 0
    span_pass = op_pass[spans["op"][in_op]]
    name_ids = spans["name"][in_op]
    scale = np.array(op_scales(traced))[spans["op"][in_op]]
    weights = {"total": duration[in_op] * scale, "self": (duration - covered)[in_op] * scale}

    def by_pass(span_name, kind=None):
        mask = np.isin(name_ids, [i for i, n in enumerate(header["names"]) if n == span_name])
        values = weights[kind][mask] if kind else None
        return np.bincount(span_pass[mask], weights=values, minlength=n_passes)

    counters = {}
    for name, op, value in header["counters"]:
        if op >= 0:
            per = counters.setdefault(name, [0] * n_passes)
            per[op_pass[op]] += value

    metrics, notes, errors = {}, {}, []

    def exact(name, per_pass, unit):
        per_pass = [int(v) for v in per_pass]
        if len(set(per_pass)) != 1:
            errors.append(f"{name} differs between identical passes: {per_pass}")
        metrics[name] = metric(per_pass[0], unit, n_passes)

    for name, (span_name, kind) in LAYER_TIMES.items():
        metrics[name] = metric(float(np.median(by_pass(span_name, kind))), "s", n_passes)
    for name, span_name in LAYER_CALLS.items():
        exact(name, by_pass(span_name), "count")
    for name, unit in LAYER_COUNTERS.items():
        exact(name, counters.get(name, [0] * n_passes), unit)

    steps = metrics["dynamics.steps"]["value"]
    stored = metrics["dynamics.stored_states"]["value"]
    integrate = by_pass("dynamics.integrate", "total")
    metrics["dynamics.us_per_step"] = metric(
        float(np.median(integrate)) / steps * 1e6 if steps else 0.0, "us", n_passes)
    used = counters.get("dynamics.used_states", [0] * n_passes)[0]
    metrics["dynamics.used_state_ratio"] = metric(used / stored if stored else 0.0, "ratio", n_passes)
    if not stored:
        notes["dynamics.us_per_step"] = notes["dynamics.used_state_ratio"] = (
            "reported as 0: this workload integrates no trajectory")

    plain_wall = statistics.median(pass_walls(plain, scaled_ops(plain)))
    traced_wall = statistics.median(pass_walls(traced, scaled_ops(traced)))
    metrics["trace.wall_s"] = metric(traced_wall, "s", n_passes)
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s", n_passes)
    metrics["trace.overhead_frac"] = metric((traced_wall - plain_wall) / plain_wall, "ratio", n_passes)
    for name in header["missing"]:
        notes[name] = "not wrapped: the program has no such public name"
    for name, value in metrics.items():
        if value["value"] == 0 and name not in notes and not name.startswith("trace."):
            notes[name] = "reported as 0: this workload does not call this layer"
    return metrics, notes, errors


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure one workload once; returns the full result record."""
    spec = WORKLOADS[workload]
    work_parent = BENCH.parent / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_parent)
    try:
        runner = Runner(workload, root, workdir)
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if trace:
            plain = runner.child("run", seed=seed, passes=TRACE_PASSES)
            traced = runner.child("trace", seed=seed, passes=TRACE_PASSES)
            metrics, notes, errors = per_layer(plain, traced)
            runs = (plain, traced)
        else:
            main = runner.child("run", seed=seed, seconds=seconds, min_ops=min_ops(spec))
            setup = [scaled_setup(runner.child("setup")) for _ in range(SETUP_PROBES)]
            (metrics, notes), errors = end_to_end(main, setup, spec.tail_pct), []
            runs = (main,)
        failures = [error for run in runs for error in _failures(run)]
        record.update(
            correct=not failures and not errors,
            attempted=sum(len(run["ops"]) for run in runs),
            failed=sum(1 for run in runs for op in run["ops"] if op[4]),
            metrics=metrics,
            notes=notes,
            errors=(errors + failures)[:20],
            meta={**runs[0]["versions"], "nproc": os.cpu_count(), "git_revision": git_revision(root),
                  "seed": seed, "tail_pct": spec.tail_pct},
            op_seconds=_op_seconds(runs[-1]),
        )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_parent.exists() and not any(work_parent.iterdir()):
            work_parent.rmdir()


def print_record(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} seed={record['seed']} {kind}: "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, m in record["metrics"].items():
        extra = f" p{m['percentile']:g}" if "percentile" in m else ""
        extra += f" of {m['slowest_op']}" if "slowest_op" in m else ""
        note = f"  [{record['notes'][name]}]" if name in record["notes"] else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra} (n={m['samples']}){note}")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def result_line(record: dict) -> str:
    """The last output line: metrics of BENCHMARK.json with value and unit only."""
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["per_layer" if record["trace"] else "end_to_end"]]
    metrics = {name: {"value": record["metrics"][name]["value"],
                      "unit": record["metrics"][name]["unit"]} for name in names}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this file")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced for each seed and traced once")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    parser.add_argument("--out-dir", help="with --all, write one record per run here")
    parser.add_argument("--root", type=Path, default=BENCH.parent,
                        help="checkout whose src/ is measured (default: this one)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "zenosim" / "__init__.py").is_file():
        print(f"error: no zenosim sources under {root / 'src'}", file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        parser.error("give --workload or --all")

    try:
        if not args.all:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
            print_record(record)
            if args.out:
                Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
            print(result_line(record), flush=True)
            return 0
        out_dir = Path(args.out_dir) if args.out_dir else None
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
        seeds = [int(s) for s in args.seeds.split(",")]
        for workload in WORKLOADS:
            for seed, trace in [(s, False) for s in seeds] + [(seeds[0], True)]:
                record = run_workload(workload, seed, args.seconds, trace, root)
                print_record(record)
                if out_dir:
                    tag = "trace" if trace else "e2e"
                    (out_dir / f"{workload}.{tag}.seed{seed}.json").write_text(
                        json.dumps(record, indent=1) + "\n")
                sys.stdout.flush()
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
