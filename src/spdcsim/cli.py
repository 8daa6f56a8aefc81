"""Command-line front end.

Subcommands:
    run      execute a scenario file, a single run or a sweep, and write
             CSV/JSON reports; the grid is the document's own
    selftest run the acceptance checks in ``selftest.CHECKS``, one PASS/FAIL
             line each; a check that raises fails, and the rest still run

Exit codes: 0 success, 1 selftest failure, 2 scenario/parse error,
3 physics precondition (alias risk, including an alias budget that overflows,
narrowband validity, grid commensurability, drive mismatch, degenerate trace,
including one narrower than a delay sample, a Bogoliubov unitarity violation,
an exact grid spacing whose square is out of floating-point range, a NaN or
infinite result, which is never written to report.json), 4 I/O error
(an output directory that another run holds included),
5 internal error (any other exception, reported as one
``internal error: <Type>: <msg>`` line on stderr instead of a traceback).
"""

import argparse
import sys

from .errors import PreconditionError, ScenarioError
from .runner import check_workers, run_scenario
from .scenario import load_scenario

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    try:
        check_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Second-order coherence of CW-pumped SPDC beams: dispersion and "
        "temporal-modulation cancelation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario or a sweep")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--workers", type=_worker_count, default=None, help="sweep worker count (default: CPU count)"
    )

    sub.add_parser("selftest", help="run the built-in acceptance checks")

    return parser


def _cmd_run(args) -> int:
    report = run_scenario(load_scenario(args.scenario), args.out, workers=args.workers)
    for name in report["files"]:
        print(f"wrote {args.out}/{name}")
    return EXIT_OK


def _cmd_selftest() -> int:
    # Imported here, so that run does not load the checks.
    from .selftest import CHECKS, check_name

    width = max(len(check_name(check)) for check in CHECKS)
    failures = 0
    for check in CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if passed else 'FAIL'}  {check_name(check):<{width}}  {detail}")
        failures += 0 if passed else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_selftest()
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
