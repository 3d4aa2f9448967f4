"""Command-line interface: simulate, certify, sweep.

Exit status: 0 on success, 2 on validation problems (bad files, bad
parameters), 3 on numerical failures (step failure, non-convergence).
:func:`main` returns the status; :func:`console_main`, the entry point of the
``nlkpp`` script and of ``python -m nlkpp.cli``, ends the process with it.
"""

import argparse
import os
import sys

from . import __version__
from .errors import NumericalError, ValidationError
from .scenario import (certify_scenario, parse_scenario, parse_sweep,
                       run_scenario, run_sweep)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlkpp",
        description="Numerical laboratory for the nonlocal Fisher-KPP "
                    "equation on bounded domains")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario end to end")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out", help="output directory (overrides NLKPP_OUT "
                                   "and the scenario)")
    sim.add_argument("--quiet", action="store_true")

    cert = sub.add_parser("certify", help="kernel-only path: build, "
                                          "normalize, certify")
    cert.add_argument("scenario", help="scenario JSON file")
    cert.add_argument("--out", help="output directory")
    cert.add_argument("--quiet", action="store_true")

    sweep = sub.add_parser("sweep", help="run a one- or two-parameter sweep")
    sweep.add_argument("sweep", help="sweep JSON file")
    sweep.add_argument("--out", help="output directory")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="parallel worker processes (default: one per "
                            "usable CPU, at most one per point; the output "
                            "bytes do not depend on it)")
    sweep.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            run_scenario(parse_scenario(args.scenario), out_dir=args.out,
                         quiet=args.quiet)
        elif args.command == "certify":
            certify_scenario(parse_scenario(args.scenario), out_dir=args.out,
                             quiet=args.quiet)
        elif args.command == "sweep":
            run_sweep(parse_sweep(args.sweep), jobs=args.jobs,
                      out_dir=args.out, quiet=args.quiet)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def console_main():
    """Run :func:`main` on the command line's arguments and end the process
    with its status, skipping the interpreter's teardown: freeing every
    module's state and joining the BLAS thread pools does no work for a run
    whose artifacts are all written and closed when ``main`` returns. Only the
    standard streams still hold data, so they are flushed first."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
