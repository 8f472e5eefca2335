"""One pass of every benchmark workload, judged against the outputs ``bench/refs.json`` pins."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from zenosim import cli, config, dynamics, ion, neutron, states, sweep

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = dict(cli=cli, config=config, dynamics=dynamics, ion=ion,
               neutron=neutron, states=states, sweep=sweep)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_op_matches_its_pinned_output(name, tmp_path):
    refs = json.loads((BENCH / "refs.json").read_text())[name]
    workload = WORKLOADS[name](MODULES, str(tmp_path))
    workload.write_configs()
    workload.setup()
    ops = workload.ops(random.Random(0))
    assert sorted(op.key for op in ops) == sorted(refs)
    failures = {}
    for op in ops:
        errors, rows = workload.judge(op.key, op.run(), refs)
        workload.cleanup(op.key)
        if errors or not rows:
            failures[op.key] = errors
    assert failures == {}
