#!/usr/bin/env python3
"""Run every closed-form-vs-pipeline verification and write the reports.

One text report per (formula, coupling, global mode) combination; the
committed copies under tests/fixtures/ act as regression anchors, so a
change in any verdict or deviation shows up as a diff.
"""

import argparse
import os
import sys

from unruhsim import analytic, channels, cli, sweep
from unruhsim.errors import IoFailure

COMBOS = [
    (channels.PHASE_FLIP, channels.MULTILOCAL, None),
    (channels.PHASE_FLIP, channels.GLOBAL, channels.PRODUCT),
    (channels.PHASE_FLIP, channels.GLOBAL, channels.CORRELATED),
    (channels.DEPHASING, channels.MULTILOCAL, None),
    (channels.DEPHASING, channels.GLOBAL, channels.PRODUCT),
    (channels.DEPHASING, channels.GLOBAL, channels.CORRELATED),
]


def report_name(kind, coupling, mode):
    stem = f"verify_{kind}_{coupling}"
    if mode:
        stem += f"_{mode}"
    return stem + ".txt"


def generate(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for kind, coupling, mode in COMBOS:
        report = analytic.verify_against_numeric(
            kind, coupling, global_mode=mode or channels.PRODUCT
        )
        path = os.path.join(out_dir, report_name(kind, coupling, mode))
        sweep._atomic_write(path, analytic.format_report(report))
        print(f"{path}: {report.verdict} "
              f"(max dev {report.max_abs_deviation:.3e})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        default=os.path.join(os.path.dirname(__file__), "..", "tests",
                             "fixtures"),
        help="where to write the report files",
    )
    args = parser.parse_args()
    try:
        generate(os.path.abspath(args.out_dir))
    except (OSError, IoFailure) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return cli.EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
