"""Command-line front end.

Subcommands:
    run      execute a scenario file and write CSV/JSON reports
    sweep    same as run but requires the scenario to define a sweep
    selftest run the built-in acceptance checks

Exit codes: 0 success, 1 selftest failure, 2 scenario/parse error,
3 physics precondition (alias risk, including an alias budget that overflows,
narrowband validity, grid commensurability, drive mismatch, degenerate trace,
including one narrower than a delay sample, a Bogoliubov unitarity violation,
an exact grid spacing whose square is out of floating-point range, a NaN or
infinite result, which is never written to report.json), 4 I/O error,
5 internal error (any other exception, reported as one
``internal error: <Type>: <msg>`` line on stderr instead of a traceback).
"""

import argparse
import sys

from .errors import PreconditionError, ScenarioError
from .runner import run_scenario
from .scenario import load_scenario
from .selftest import run_checks

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
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--grid-points", type=int, default=None, help="override grid.n_points"
    )
    parser.add_argument(
        "--grid-domega", type=float, default=None, help="override grid.delta_omega (rad/ps)"
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=None, help="sweep worker count (default: CPU count)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Second-order coherence of CW-pumped SPDC beams: dispersion and "
        "temporal-modulation cancelation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    _add_run_options(run_p)

    sweep_p = sub.add_parser("sweep", help="execute a scenario that defines a sweep")
    _add_run_options(sweep_p)

    self_p = sub.add_parser("selftest", help="run the built-in acceptance checks")
    self_p.add_argument("--filter", default=None, help="only run checks whose name contains this")

    return parser


def _with_grid_overrides(scenario, args):
    if args.grid_points is None and args.grid_domega is None:
        return scenario
    from .scenario import parse_scenario

    doc = scenario.resolved()
    if args.grid_points is not None:
        doc["grid"]["n_points"] = args.grid_points
    if args.grid_domega is not None:
        doc["grid"]["delta_omega"] = args.grid_domega
    return parse_scenario(doc)


def _cmd_run(args, require_sweep: bool) -> int:
    scenario = load_scenario(args.scenario)
    scenario = _with_grid_overrides(scenario, args)
    if require_sweep and scenario.sweep is None:
        raise ScenarioError(f"{args.scenario}: scenario.sweep: required by the sweep command")
    report = run_scenario(scenario, args.out, workers=args.workers)
    for name in report["files"]:
        print(f"wrote {args.out}/{name}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_SELFTEST_FAILED
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, require_sweep=False)
        if args.command == "sweep":
            return _cmd_run(args, require_sweep=True)
        return _cmd_selftest(args)
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
