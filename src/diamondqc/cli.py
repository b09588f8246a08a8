"""Command-line driver: parameter sweeps, single-point reports and
property verification suites.

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 I/O error (an unwritable --out, or a closed or failing stdout).
"""
from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to the
    configuration-error code. Its help goes to stdout through
    `_write_stdout`, as every command's output does, so a failed write
    exits with the I/O code instead of being ignored."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            super()._print_message(message, file)
        elif message and not _write_stdout(message):
            self.exit(EXIT_IO)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diamondqc",
        description="Thermal quantum correlations of the Ising-XYZ diamond chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="evaluate a parameter grid and write CSV")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help="named preset (fig2a..fig5)")
    source.add_argument("--config", help="sweep config file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--points", type=int, default=None,
                       help="points per ranged axis (presets only; default 201)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored; sweeps are evaluated and their "
                            "CSV is formatted on every usable core, with the same "
                            "bytes on any core count")
    sweep.add_argument("--oracle-every", type=int, default=None, dest="oracle_every",
                       help="re-verify every k-th grid point against brute force")
    sweep.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the header and used by oracle checks")
    sweep.set_defaults(func=_cmd_sweep)

    point = sub.add_parser("point", help="print all measures at one parameter point")
    point.add_argument("--J0", type=float, default=0.0, help="J0/J")
    point.add_argument("--T", type=float, required=True, help="T/J (> 0)")
    point.add_argument("--h", type=float, default=0.0, help="h/J")
    point.add_argument("--gamma", type=float, default=0.0, help="xy anisotropy")
    point.add_argument("--Jz", type=float, default=0.0, help="Jz/J")
    point.set_defaults(func=_cmd_point)

    verify = sub.add_parser("verify", help="run the verification property suites")
    verify.add_argument("--suite", choices=("psd", "oracle", "figures", "all"),
                        default="all", help="which suite to run (default all)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def _cmd_sweep(args) -> int:
    from .sweep import (SweepConfigError, emit_csv, figure_preset,
                        read_sweep_config, run_sweep, with_oracle_check)
    try:
        if args.preset is not None:
            spec = figure_preset(
                args.preset, n_points=201 if args.points is None else args.points)
            label = args.preset
        else:
            if args.points is not None:
                print("error: --points applies to --preset sweeps only",
                      file=sys.stderr)
                return EXIT_CONFIG
            spec = read_sweep_config(args.config)
            label = None
        if args.oracle_every is not None:
            spec = with_oracle_check(spec, args.oracle_every)
        result = run_sweep(spec, seed=args.seed, label=label)
        emit_csv(result, args.out)
    except SweepConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {result.table.shape[0]} rows to {args.out}", file=sys.stderr)
    if result.diagnostics.get("psd_violations"):
        print(f"warning: {result.diagnostics['psd_violations']} PSD-flagged rows",
              file=sys.stderr)
    return EXIT_OK


def _cmd_point(args) -> int:
    from .measures import correlation_report
    from .model import thermal_state
    from .params import ModelParams, ThermalPoint

    try:
        params = ModelParams(gamma=args.gamma, jz=args.Jz, j0=args.J0, h=args.h)
        report = correlation_report(thermal_state(params, ThermalPoint(args.T)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    keys = ("qd", "tdd", "concurrence", "mutual_info",
            "entropy_ab", "entropy_a", "d1", "d2")
    if not _write_stdout("".join(f"{key}=%.12g\n" % getattr(report, key)
                                 for key in keys)):
        return EXIT_IO
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import acceptance

    suites = acceptance.SUITES if args.suite == "all" else (args.suite,)
    failed = 0
    for suite in suites:
        for res in acceptance.run_suite(suite):
            if not _write_stdout(acceptance.format_result(res) + "\n"):
                return EXIT_IO
            if not res.passed:
                failed += 1
    summary = f"{failed} check(s) failed" if failed else "all checks passed"
    if not _write_stdout(summary + "\n"):
        return EXIT_IO
    return EXIT_VERIFY if failed else EXIT_OK


def _write_stdout(text: str) -> bool:
    """Write `text` to stdout; False, once the failure is reported, if the
    write fails (a closed pipe, a full disk)."""
    try:
        sys.stdout.write(text)
    except OSError as exc:
        _stdout_failed(exc)
        return False
    return True


def _stdout_failed(exc: OSError) -> None:
    """Report a failed write to stdout on stderr, and point stdout at
    /dev/null so that what is still buffered is not written, and the
    failure not reported, a second time."""
    print(f"error: failed to write to stdout: {exc}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def _observed() -> bool:
    """True while a tracer or profiler is attached: sys.settrace and
    sys.setprofile hooks (coverage, cProfile up to Python 3.11) or a
    sys.monitoring tool (Python 3.12 on), which report at exit."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(i) is not None for i in range(6))))


def entry(argv=None) -> int:
    """Process entry of `python -m diamondqc.cli` and the `diamondqc` script.

    Runs main(), flushes stdout and stderr and leaves through os._exit, as
    the forked workers of `sweep._run_ranges` do, skipping the interpreter's
    teardown (25-30 ms once NumPy is loaded); every file a command writes is
    closed by then. The code of a SystemExit from main() (argparse's --help
    and usage errors) is taken as its return value, so a closed stdout is
    reported there too. An exception from main() propagates, and while a
    tracer or profiler is attached the code is returned for a normal exit,
    so that its report is written. In-process callers use main()."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        _stdout_failed(exc)
        code = EXIT_IO
    sys.stderr.flush()
    if not _observed():
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(entry())
