"""Command-line front end.

Exit codes: 0 success, 1 usage/config error, 2 numerical invariant
violation, 3 I/O failure.  Diagnostics go to stderr, data to stdout or to
the requested output file.  Numeric output is fixed at 12 significant
digits so regenerated outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import analytic, channels, sweep
from .channels import ChannelSpec
from .errors import (
    CompletenessViolation,
    IoFailure,
    NegativeEigenvalue,
    NotHermitian,
    OutOfRange,
    SimulationError,
    TraceDeviation,
)
from .state import require_parameter, unruh_state
from .sweep import _fmt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3


def _flag(name: str) -> str:
    return name.replace("_", "-")


_KIND_FLAGS = {_flag(kind): kind for kind in channels.KINDS}
_COUPLING_FLAGS = {"multilocal": channels.MULTILOCAL, "ml": channels.MULTILOCAL,
                   "global": channels.GLOBAL}
_VARIANT_FLAGS = {_flag(variant): variant for variant in channels.VARIANTS}

# The reports ``verify --out-dir`` writes, in order: each closed form under
# multilocal coupling, then under global coupling in each mode.
_REPORTS = [
    (kind, coupling, mode) for kind in analytic.ANALYTIC_KINDS
    for coupling, mode in [(channels.MULTILOCAL, None),
                           *((channels.GLOBAL, m) for m in channels.GLOBAL_MODES)]
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def parse_angle(text: str) -> float:
    """Accept decimal radians or ``[head*]pi[/tail]``, like 'pi/4', '3*pi/10';
    as every p and r the CLI reads, -0 reads as 0, so it writes 0's bytes."""
    s = text.strip().lower().replace(" ", "")
    try:
        return float(s) + 0.0
    except ValueError:
        pass
    match = re.fullmatch(r"(?:(.*?)\*)?pi(?:/(.*))?", s, re.DOTALL)
    if match:
        try:
            head, tail = (float(group) for group in match.groups("1"))
            return head * math.pi / tail + 0.0
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"cannot parse angle {text!r}")


def _parse_p_grid(text: str):
    """Either an integer point count (linspace over [0,1]) or a comma list."""
    s = text.strip()
    try:
        n = int(s)
    except ValueError:
        try:
            return [float(x) + 0.0 for x in s.split(",")]
        except ValueError:
            raise UsageError(f"cannot parse p grid {text!r}")
    if n < 2:
        raise UsageError("p grid needs at least 2 points")
    return sweep._axis(1.0, n).tolist()


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{z.real:.12g}{z.imag:+.12g}j"


@functools.cache
def _build_parser() -> _Parser:
    """The parser; parsing never changes it, so one serves every call."""
    parser = _Parser(prog="unruhsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    config = _Parser(add_help=False)
    config.add_argument("--config", help="key = value file overriding flag defaults")
    channel = _Parser(add_help=False)
    channel.add_argument("--channel", choices=sorted(_KIND_FLAGS), required=True)
    channel.add_argument("--coupling", choices=sorted(_COUPLING_FLAGS), required=True)
    channel.add_argument("--global-mode", choices=sorted(channels.GLOBAL_MODES),
                         default=channels.PRODUCT)
    variant = _Parser(add_help=False)
    variant.add_argument("--variant", choices=sorted(_VARIANT_FLAGS),
                         default="corrected")

    p_state = sub.add_parser("state", parents=[config], help="print the initial state")
    p_state.add_argument("--r", default="0", help="acceleration in [0, pi/4]")

    p_check = sub.add_parser("check-channels", parents=[config],
                             help="completeness table")
    p_check.add_argument("--variant", choices=sorted(_VARIANT_FLAGS), default=None,
                         help="restrict to one variant (default: both)")
    p_check.add_argument("--p", default="11", metavar="P_GRID",
                         help="point count or comma list of p values")

    p_neg = sub.add_parser("negativity", parents=[channel, variant, config],
                           help="single point evaluation")
    p_neg.add_argument("--p", type=float, default=0.0,
                       help="linked decoherence parameter")
    p_neg.add_argument("--p1", type=float, default=None,
                       help="qubit local parameter override")
    p_neg.add_argument("--p2", type=float, default=None,
                       help="qutrit local parameter override")
    p_neg.add_argument("--r", required=True, help="acceleration in [0, pi/4]")

    p_sweep = sub.add_parser("sweep", parents=[channel, variant, config],
                             help="grid sweep to CSV or plot data")
    p_sweep.add_argument("--axis", choices=list(sweep.AXES), required=True)
    p_sweep.add_argument("--r", default="0", help="fixed acceleration (p axis)")
    p_sweep.add_argument("--p", type=float, default=0.0,
                         help="fixed linked p (r axis)")
    p_sweep.add_argument("--steps", type=int, default=101)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--plot-data", action="store_true",
                         help="write gnuplot-style blocks instead of CSV")

    p_esd = sub.add_parser("esd", parents=[channel, config],
                           help="sudden-death threshold (linked p)")
    p_esd.add_argument("--r", required=True)
    p_esd.add_argument("--tol", type=float, default=1e-6)

    p_verify = sub.add_parser("verify", parents=[config],
                              help="closed form vs numeric pipeline")
    p_verify.add_argument("--channel",
                          choices=[_flag(kind) for kind in analytic.ANALYTIC_KINDS])
    p_verify.add_argument("--coupling", choices=sorted(_COUPLING_FLAGS))
    p_verify.add_argument("--global-mode", choices=sorted(channels.GLOBAL_MODES))
    p_verify.add_argument("--grid", type=int, default=None,
                          help="grid points per axis (default 21 ml, 11 global)")
    p_verify.add_argument("--csv", default=None, help="also write the report as CSV")
    p_verify.add_argument("--out-dir", help="instead write all six reports on "
                          "their default grids to this directory")

    p_repro = sub.add_parser("repro", parents=[config],
                             help="regenerate a preset figure dataset")
    p_repro.add_argument("--figure", choices=[*sweep.FIGURES, "all"], required=True)
    p_repro.add_argument("--out-dir", required=True)
    return parser


_SWITCH_VALUES = {**dict.fromkeys(("1", "true", "yes", "on"), True),
                  **dict.fromkeys(("0", "false", "no", "off"), False)}


def _apply_config(parser: _Parser, argv: list[str], args) -> argparse.Namespace:
    """Re-parse with each config line ``key = value`` as the flag
    ``--key=value`` right after the subcommand: argparse converts and checks
    it, and the command-line flags, which come later, win."""
    path = args.config
    if path is None:
        return args
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # not UTF-8, or a NUL in the path
        raise UsageError(f"cannot read config file {path!r}: {exc}")
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        overrides[key.strip().replace("-", "_")] = value.strip()
    known = set(vars(args)) - {"command", "config"}
    flags = []
    for key, value in overrides.items():
        if key not in known:
            raise UsageError(
                f"unknown config key {key!r} for subcommand {args.command!r}"
            )
        if isinstance(getattr(args, key), bool):  # a switch takes no value
            switch = _SWITCH_VALUES.get(value.lower())
            if switch is None:
                raise UsageError(
                    f"{path}: invalid switch value {value!r} for {key!r} "
                    f"(use 1/true/yes/on or 0/false/no/off)"
                )
            flags += [f"--{_flag(key)}"] if switch else []
        else:
            flags.append(f"--{_flag(key)}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _channel_spec(args) -> ChannelSpec:
    coupling = _COUPLING_FLAGS[args.coupling]
    p = getattr(args, "p", 0.0) + 0.0  # a -0 flag reads as 0, like parse_angle's
    return ChannelSpec(
        kind=_KIND_FLAGS[args.channel],
        coupling=coupling,
        p1=p if getattr(args, "p1", None) is None else args.p1 + 0.0,
        p2=p if getattr(args, "p2", None) is None else args.p2 + 0.0,
        p=p if coupling == channels.GLOBAL else 0.0,
        global_mode=args.global_mode,
        variant=_VARIANT_FLAGS[getattr(args, "variant", "corrected")],
    )


def _cmd_state(args) -> int:
    rho = unruh_state(parse_angle(args.r))
    for row in rho:
        print(",".join(_fmt_complex(z) for z in row))
    return EXIT_OK


def _cmd_check_channels(args) -> int:
    variants = [_VARIANT_FLAGS[args.variant]] if args.variant else channels.VARIANTS
    p_values = [require_parameter("p", p) for p in _parse_p_grid(args.p)]
    print("channel,side,variant,p,completeness_defect")
    for kind in channels.KINDS:
        for variant in variants:
            for p in p_values:
                kq = channels.qubit_channel(kind, p)
                kt = channels.qutrit_channel(kind, p, variant)
                for side, kraus in (("qubit", kq), ("qutrit", kt)):
                    print(f"{kind},{side},{variant},{_fmt(p)},"
                          f"{_fmt(channels.completeness_defect(kraus))}")
    return EXIT_OK


def _cmd_negativity(args) -> int:
    spec = _channel_spec(args)
    _, neg = sweep.evaluate([spec], [parse_angle(args.r)])
    print(_fmt(neg[0, 0]))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = sweep.SweepSpec(_channel_spec(args), args.axis, r=parse_angle(args.r),
                           steps=args.steps)
    sweep._require_directory(args.out)
    write, unit = ((sweep.write_plot_data, "block") if args.plot_data
                   else (sweep.write_csv, "row"))
    count = write([sweep.run_sweep(spec)], args.out)
    print(f"wrote {count} {unit}(s) to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_esd(args) -> int:
    threshold = sweep.esd_threshold(_channel_spec(args), parse_angle(args.r),
                                    p_tol=args.tol)
    print("none" if threshold is None else _fmt(threshold))
    return EXIT_OK


def _cmd_verify(args) -> int:
    one_report = {"--channel": args.channel, "--coupling": args.coupling,
                  "--global-mode": args.global_mode, "--grid": args.grid,
                  "--csv": args.csv}
    if args.out_dir is not None:
        given = [flag for flag, value in one_report.items() if value is not None]
        if given:
            raise UsageError(f"--out-dir cannot be combined with {', '.join(given)}")
        return _write_reports(_make_out_dir(args.out_dir))
    missing = [flag for flag in ("--channel", "--coupling") if one_report[flag] is None]
    if missing:  # argparse's wording, were the two flags required
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if args.csv is not None:
        sweep._require_directory(args.csv)
    report = analytic.verify_against_numeric(
        _KIND_FLAGS[args.channel], _COUPLING_FLAGS[args.coupling],
        global_mode=args.global_mode or channels.PRODUCT, grid_points=args.grid
    )
    if args.csv is not None:
        numbers = (report.tolerance, report.max_abs_deviation, *report.worst_point)
        row = [report.kind, report.coupling, report.global_mode,
               report.grid_description.replace(",", ";"), *map(_fmt, numbers),
               report.verdict]
        sweep._atomic_write(args.csv, [
            "channel,coupling,global_mode,grid,tolerance,max_abs_deviation,"
            "worst_p1,worst_p2,worst_p,worst_r,verdict\n", ",".join(row) + "\n"])
    sys.stdout.write(analytic.format_report(report))  # after the CSV: none on error
    return EXIT_OK


def _write_reports(out_dir: str) -> int:
    paths = [os.path.join(out_dir, "_".join(filter(None, ("verify", *names))) + ".txt")
             for names in _REPORTS]
    for path in paths:
        sweep._require_directory(path)
    for (kind, coupling, mode), path in zip(_REPORTS, paths):
        report = analytic.verify_against_numeric(
            kind, coupling, global_mode=mode or channels.PRODUCT)
        sweep._atomic_write(path, [analytic.format_report(report)])
        print(f"wrote {path}: {report.verdict} "
              f"(max dev {report.max_abs_deviation:.3e})", file=sys.stderr)
    return EXIT_OK


def _make_out_dir(out_dir: str) -> str:
    """``out_dir``, created if missing."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise IoFailure(f"cannot create {out_dir!r}: {exc}") from exc
    return out_dir


def _cmd_repro(args) -> int:
    out_dir = _make_out_dir(args.out_dir)
    figures = sweep.FIGURES if args.figure == "all" else [args.figure]
    bases = [os.path.join(out_dir, f"fig{figure}") for figure in figures]
    for base in bases:
        sweep._require_directory(base + ".csv")
        sweep._require_directory(base + ".dat")
    for figure, base in zip(figures, bases):
        results = [sweep.run_sweep(s) for s in sweep.figure_sweeps(figure)]
        rows = sweep.write_csv(results, base + ".csv", plot_data=base + ".dat")
        print(f"wrote {rows} row(s) to {base}.csv and {len(results)} block(s) to "
              f"{base}.dat", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "state": _cmd_state,
    "check-channels": _cmd_check_channels,
    "negativity": _cmd_negativity,
    "sweep": _cmd_sweep,
    "esd": _cmd_esd,
    "verify": _cmd_verify,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _apply_config(parser, argv, parser.parse_args(argv))
        return _COMMANDS[args.command](args)
    except (UsageError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CompletenessViolation, NotHermitian, TraceDeviation,
            NegativeEigenvalue) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except IoFailure as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
