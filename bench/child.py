"""One workload process: import, set up, run passes of ops, check every output.

Started by ``run.py`` in a fresh interpreter with one thread.  It writes one
JSON record to ``--result``.  Modes:

- ``setup``: import zenosim and parse the workload's configs, then stop.
- ``run``: run whole passes until ``--seconds`` have passed and at least
  ``--min-ops`` ops were timed, or exactly ``--passes`` passes if given.
- ``trace``: as ``run`` with ``--passes``, with every public module boundary
  wrapped in spans (see ``spans.py``); the spans are written next to the result.

Only the op itself is timed; the check of its output runs between ops.

The speed of a shared machine drifts by tens of percent within minutes, the
same for every piece of code.  So the process also times a fixed kernel of
small numpy products and float formatting (``calibrate``) between ops, at
least every ``CAL_INTERVAL`` seconds, and after the last one; ``run.py``
scales each op's time by the kernel times that bracket it.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


#: Seconds between two calibrations.
CAL_INTERVAL = 0.25


def _kernel(numpy) -> float:
    begin = time.perf_counter()
    a = numpy.eye(3, dtype=complex) * 0.3
    b = numpy.full((3, 3), 0.1 + 0.05j)
    parts = []
    for i in range(2000):
        a = a @ b + 0.5 * a
        parts.append(format(i * 0.1234567, ".12g"))
    ",".join(parts)
    return time.perf_counter() - begin


def calibrate(numpy) -> float:
    """Fastest of three runs of a fixed kernel that does no work of the program.

    The fastest run shows the machine's current speed without the
    sub-second stalls that any single short run may catch.
    """
    return min(_kernel(numpy) for _ in range(3))


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    ``ru_maxrss`` survives ``exec`` and so also counts the pages the parent
    shared at fork time; ``VmHWM`` starts afresh with the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--refs", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    import zenosim
    from zenosim import cli, config, dynamics, ion, neutron, states, sweep

    from workloads import WORKLOADS

    modules = dict(cli=cli, config=config, dynamics=dynamics, ion=ion,
                   neutron=neutron, states=states, sweep=sweep)
    workload = WORKLOADS[args.workload](modules, args.workdir)
    workload.setup()
    record = {"setup_s": time.perf_counter() - _STARTED}

    import numpy

    if args.mode == "setup":
        record["calibrations"] = [calibrate(numpy) for _ in range(3)]
        return _write(args.result, record)

    with open(args.refs, encoding="utf-8") as handle:
        refs = json.load(handle)[workload.name]
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(modules)

    rng = random.Random(args.seed)
    ops, pass_rows = [], []
    calibrations = [calibrate(numpy)]
    last_calibration = started = time.perf_counter()
    while True:
        rows = 0
        for op in workload.ops(rng):
            if time.perf_counter() - last_calibration >= CAL_INTERVAL:
                calibrations.append(calibrate(numpy))
                last_calibration = time.perf_counter()
            if tracer:
                tracer.op = len(ops)
            begin = time.perf_counter()
            try:
                output = op.run()
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                seconds = time.perf_counter() - begin
                output, errors = None, [f"{op.key}: {type(exc).__name__}: {exc}"]
            else:
                seconds = time.perf_counter() - begin
                errors = None
            if tracer:
                tracer.close_op()
                tracer.op = -1
            n_rows = 0
            if errors is None:
                errors, n_rows = workload.judge(op.key, output, refs)
            workload.cleanup(op.key)
            # The op lies between calibrations[-1] and the next one.
            ops.append([len(pass_rows), op.key, seconds, n_rows, errors, len(calibrations) - 1])
            rows += n_rows
        pass_rows.append(rows)
        if args.passes:
            if len(pass_rows) >= args.passes:
                break
        elif len(ops) >= args.min_ops and time.perf_counter() - started >= args.seconds:
            break

    calibrations.append(calibrate(numpy))
    record.update(
        ops=ops,
        calibrations=calibrations,
        pass_rows=pass_rows,
        peak_rss_mb=peak_rss_mb(),
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "zenosim": getattr(zenosim, "__version__", None),
        },
    )
    if tracer:
        tracer.dump(os.path.splitext(args.result)[0] + ".spans")
    return _write(args.result, record)


def _write(path, record) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
