"""Checks of the benchmark itself.

    python3 bench/selfcheck.py            # all checks, about five minutes
    python3 bench/selfcheck.py --quick    # skip the live runs

1. BENCHMARK.json keeps to its format, and names the workloads of
   ``workloads.py``.
2. Corrupted outputs fail their op, through the same check the workload
   process makes: one flipped CSV byte, a missing CSV, one changed JSON
   value, one perturbed Lindblad value, a malformed Lindblad row, a missing
   summary line, a wrong exit code, a perturbed oracle value and a perturbed
   final population.  The same outputs uncorrupted pass.
3. ``compare.py compare`` counts a change that fails one op more than the
   parent as a regression and rates none of its metrics improved, even when
   it is faster.
4. Live runs emit every metric of BENCHMARK.json with its unit, plus
   ``failed_frac``; each workload has no failed op; ``op_s_tail`` is not
   below ``op_s_p50``; the exact counts of two traced runs agree.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import os
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(problems: list[str]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or not 0 < len(entry["why"]) <= 200 or "\n" in entry["why"]:
            problems.append(f"workload entry {entry}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        keys = {"name", "unit", "better"} | ({"bound"} if entry in spec["end_to_end"] else set())
        if set(entry) != keys or entry["better"] not in ("higher", "lower"):
            problems.append(f"metric entry {entry}")
        if not NAME.fullmatch(entry["name"]) or not UNIT.fullmatch(entry["unit"]):
            problems.append(f"metric name or unit {entry}")
        if "bound" in entry and not 0 < entry["bound"] <= 0.25:
            problems.append(f"bound out of range: {entry}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or (
            setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"])):
        problems.append("setup_s must be in seconds, lower-better, with the largest bound")
    return spec


def check_corruption(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from zenosim import cli, config, dynamics, ion, neutron, states, sweep

    modules = dict(cli=cli, config=config, dynamics=dynamics, ion=ion,
                   neutron=neutron, states=states, sweep=sweep)
    refs = json.loads((BENCH / "refs.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=WORK)
    import random

    def expect_failure(workload, op, corrupt, what):
        errors, rows = workload.judge(op.key, corrupt(op.run()), refs[workload.name])
        if not errors or rows:
            problems.append(f"{workload.name}: {what} was not detected")

    def expect_pass(workload, op):
        errors, rows = workload.judge(op.key, op.run(), refs[workload.name])
        if errors or not rows:
            problems.append(f"{workload.name} {op.key}: a correct output failed: {errors}")

    try:
        wls = {}
        for name, cls in WORKLOADS.items():
            wls[name] = cls(modules, workdir)
            wls[name].write_configs()
            wls[name].setup()
        rng = random.Random(0)
        by_key = {name: {op.key: op for op in wl.ops(rng)} for name, wl in wls.items()}

        def flip_byte(output):
            path = output[0][1]  # the ion CSV
            with open(path, "r+b") as handle:
                handle.seek(100)
                byte = handle.read(1)
                handle.seek(100)
                handle.write(bytes([byte[0] ^ 0x01]))
            return output

        def change_json_value(output):
            code, path, loaded = output[3]  # the neutron JSON
            rows = list(loaded.rows)
            rows[7] = dataclasses.replace(rows[7], p_up_limited=rows[7].p_up_limited + 1e-15)
            return output[:3] + [(code, path, dataclasses.replace(loaded, rows=tuple(rows)))]

        def wrong_exit(output):
            return [(1,) + output[0][1:]] + output[1:]

        def remove_csv(output):
            os.remove(output[2][1])  # the neutron CSV
            return output

        tables, window = wls["tables"], by_key["tables"]["n=1-500"]
        expect_pass(tables, window)
        expect_failure(tables, window, flip_byte, "one flipped CSV byte")
        expect_failure(tables, window, remove_csv, "a missing CSV")
        expect_failure(tables, window, change_json_value, "one changed JSON value")
        expect_failure(tables, window, wrong_exit, "a wrong exit code")

        def perturb_lindblad(output):
            code, text = output
            lines = text.splitlines()
            n, closed, full, dev = lines[1].split(",")
            lines[1] = ",".join([n, closed, f"{float(full) + 1e-9:.12g}", dev])
            return code, "\n".join(lines) + "\n"

        def malformed_row(output):
            code, text = output
            lines = text.splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0]
            return code, "\n".join(lines) + "\n"

        def no_summary(output):
            code, text = output
            return code, "\n".join(text.splitlines()[:-1] + [""])

        lindblad = wls["lindblad-check"]
        expect_pass(lindblad, by_key["lindblad-check"]["n=2"])
        expect_failure(lindblad, by_key["lindblad-check"]["n=2"], perturb_lindblad,
                       "one perturbed Lindblad value")
        expect_failure(lindblad, by_key["lindblad-check"]["n=2"], malformed_row,
                       "a malformed Lindblad row")
        expect_failure(lindblad, by_key["lindblad-check"]["n=2"], no_summary,
                       "a missing summary line")
        expect_failure(lindblad, by_key["lindblad-check"]["n=2"],
                       lambda out: (2, out[1]), "a wrong lindblad-check exit code")

        verify = wls["verify"]
        expect_pass(verify, by_key["verify"]["oracle n=17"])
        expect_pass(verify, by_key["verify"]["integrate ratio=10"])
        expect_failure(verify, by_key["verify"]["oracle n=17"], lambda v: v + 1e-8,
                       "a perturbed oracle value")

        def perturb_final(output):
            pops, diagnostics = output
            last = pops[-1]
            return pops[:-1] + [(last[0], last[1], last[2] + 1e-11, last[3])], diagnostics

        expect_failure(verify, by_key["verify"]["integrate ratio=10"], perturb_final,
                       "a perturbed final population")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_compare_gate(problems: list[str]) -> None:
    """A faster change that fails one more op must be a regression, never improved."""
    import compare

    baseline = sorted((BENCH / "baseline").glob("verify.e2e.seed*.json"))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-compare-", dir=WORK))
    try:
        for side in ("parent", "change"):
            (workdir / side).mkdir()
        for path in baseline:
            record = json.loads(path.read_text())
            (workdir / "parent" / path.name).write_text(json.dumps(record))
            faster = copy.deepcopy(record)
            for name in ("wall_s", "op_s_p50", "op_s_tail", "setup_s"):
                faster["metrics"][name]["value"] *= 0.5
            faster["metrics"]["rows_per_s"]["value"] *= 2
            faster.update(failed=1, correct=False)
            faster["metrics"]["ok_frac"]["value"] = 1 - 1 / faster["attempted"]
            (workdir / "change" / path.name).write_text(json.dumps(faster))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.compare(workdir / "parent", workdir / "change")
        verdicts = [line.split(None, 6)[-1] for line in out.getvalue().splitlines()[1:]]
        if len(baseline) < 10 or code != 1 or any(v == "improved" for v in verdicts):
            problems.append(f"compare: a faster change with a failed op was not a regression "
                            f"(exit {code}, verdicts {verdicts})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload: str, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=WORK) as out:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace), "--out", out.name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
        record = json.loads(Path(out.name).read_text())
    record["last_line"] = json.loads(done.stdout.strip().splitlines()[-1])
    return record


def check_runs(spec: dict, problems: list[str]) -> None:
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            record = run(workload, trace)
            line = record["last_line"]
            if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
                problems.append(f"{workload} trace={trace}: bad last line or failed ops {line}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            for name, m in line["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{workload}: {name} = {m['value']!r}")
            if trace == 0 and record["metrics"].get("failed_frac", {}).get("unit") != "ratio":
                problems.append(f"{workload}: failed_frac missing from the full record")
            if trace == 0 and line["metrics"]["op_s_tail"]["value"] < line["metrics"]["op_s_p50"]["value"]:
                problems.append(f"{workload}: op_s_tail lies below op_s_p50")
            if trace == 1:
                again = run(workload, 1)
                for name in counted:
                    if record["metrics"][name]["value"] != again["metrics"][name]["value"]:
                        problems.append(f"{workload}: {name} differs between two traced runs")
            print(f"  {workload} trace={trace}: {len(got)} metrics, {line['attempted']} ops")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="skip the live runs")
    args = parser.parse_args(argv)
    problems: list[str] = []
    spec = check_spec(problems)
    print("spec checked")
    check_corruption(problems)
    print("corruption checks done")
    check_compare_gate(problems)
    print("compare gate checked")
    if not args.quick:
        check_runs(spec, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
