"""Command-line runner: sweeps, cross-model check, config linting.

Exit codes: 0 on success, 1 for usage, configuration or output I/O problems,
2 for numeric or integration failures.
"""

import argparse
import dataclasses
import functools
import sys

from .config import RunConfig, _out_format, _out_path, parse_config, parse_n_list
from .dynamics import LINDBLAD_AGREEMENT_TOL
from .errors import BoundViolationError, ConfigError, IntegrationError
from .sweep import emit, run_ion_sweep, run_neutron_sweep

_DEFAULT_CHECK_COUNTS = (2, 4, 8)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Quantum Zeno sweeps: closed forms, decoherence limits, "
        "and the dissipative three-level model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the config file")
    common.add_argument(
        "--n-list", help="override the sweep counts, e.g. '1,2,4,8'", default=None
    )

    table = argparse.ArgumentParser(add_help=False, parents=[common])
    table.add_argument("--format", default=None, help="override [output] format (csv or json)")
    table.add_argument("--out", default=None, help="override [output] path ('-' = stdout)")

    sub.add_parser("ion", parents=[table], help="sweep the ion models over n")
    sub.add_parser("neutron", parents=[table], help="sweep the neutron-spin models over n")
    sub.add_parser(
        "lindblad-check",
        parents=[common],
        help="compare the three-level simulation against the projection closed form",
    )
    validate = sub.add_parser("validate", help="lint a config file and exit")
    validate.add_argument("--config", required=True, help="path to the config file")
    return parser


def _run_lindblad_check(cfg: RunConfig, source: str) -> int:
    """Print the check's table; ``source`` names the option or key that gave ``cfg.n_list``."""
    counts = _DEFAULT_CHECK_COUNTS if cfg.n_list is None else cfg.n_list
    if not counts:  # a check of no row would pass
        raise ConfigError("must name at least one count", field=source)
    rows = run_ion_sweep(dataclasses.replace(cfg, n_list=counts, lindblad=True)).rows
    worst = 0.0
    print("n,p2_projection,p2_lindblad,abs_deviation")
    for row in rows:
        dev = abs(row.p2_lindblad - row.p2_projection)
        worst = max(worst, dev)
        print(f"{row.n},{row.p2_projection:.12g},{row.p2_lindblad:.12g},{dev:.3e}")
    print(f"max deviation: {worst:.3e} (tolerance {LINDBLAD_AGREEMENT_TOL})")
    return 0 if worst <= LINDBLAD_AGREEMENT_TOL else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error; argparse exits 2, the code of a numeric failure
        return 1 if exc.code else 0  # 0 after --help
    try:
        cfg = parse_config(args.config)
        if args.command == "validate":
            print(f"{args.config}: OK")
            return 0
        if args.n_list is not None:
            cfg = dataclasses.replace(cfg, n_list=parse_n_list(args.n_list, field_name="--n-list"))
        if args.command == "lindblad-check":
            return _run_lindblad_check(cfg, "sweep.n_list" if args.n_list is None else "--n-list")
        # the output flags are read as the [output] keys are, before any row is run
        fmt = cfg.out_format if args.format is None else _out_format(args.format, "--format")
        out = cfg.out_path if args.out is None else _out_path(args.out, "--out")
        runner = run_ion_sweep if args.command == "ion" else run_neutron_sweep
        emit(runner(cfg), format=fmt, destination=out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, BoundViolationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
