#!/usr/bin/env python3
"""Exhaustively cross-check the identity-vs-minors equivalence.

Runs every enumerable (ring, n) pair up to the budget and prints one
report line each; any disagreement would be a showstopper.
"""

import argparse

from minortrace import exhaustive_characterization
from minortrace.serialize import dumps, equivalence_report_to_obj, parse_ring_spec

DEFAULT_CONFIGS = [
    "mod:2,2", "mod:2,3", "mod:3,2", "mod:4,2", "mod:5,2", "gf:3,2", "mod:6,2", "gf:5,2", "mod:8,2", "mod:10,2",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("configs", nargs="*", default=DEFAULT_CONFIGS,
                        help='pairs like "mod:4,2" (ring spec, order)')
    parser.add_argument("--json", action="store_true", help="emit full JSON reports")
    args = parser.parse_args()

    all_agree = True
    for config in args.configs:
        spec, _, order = config.rpartition(",")
        report = exhaustive_characterization(parse_ring_spec(spec), int(order))
        all_agree &= report.agree
        if args.json:
            print(dumps(equivalence_report_to_obj(report)))
        else:
            print(
                f"{spec:>8} n={report.n}: {report.total:>6} matrices, "
                f"identity set {report.set_identity:>5}, minor set {report.set_minors:>5}, "
                f"agree={report.agree}"
            )
    if not all_agree:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
