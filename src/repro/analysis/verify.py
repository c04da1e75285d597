"""``repro-verify``: the protocol model checker's command line.

Examples::

    repro-verify                       # headline scenarios, quick
    repro-verify --exhaustive          # the full scenario matrix
    repro-verify --scenario vr-update-wt --json-out space.json

Exit status: 0 when every explored scenario verifies clean, 1 when
any reachable state violates an invariant or an event raises (a
minimal counterexample trace is printed), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Sequence

from .explore import ExplorationLimitError, ScenarioReport, explore
from .model import SCENARIOS, scenario_named

#: Scenarios a plain ``repro-verify`` runs: the paper's organisation
#: under its default protocol, plus the unshielded organisation whose
#: snoop path is entirely different.
HEADLINE = ("vr-invalidate-wb", "rr-noincl-invalidate-wb")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Exhaustively verify the coherence protocol's "
        "reachable state space against the DESIGN.md §5 invariants.",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="explore the full scenario matrix (all organisations, "
        "protocols and write policies)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="explore one named scenario (repeatable; overrides the "
        "default selection)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario matrix and exit",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the reachable-state-space report as JSON",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=20000,
        help="abort if the abstract state space exceeds this bound "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--no-snoop-table",
        action="store_true",
        help="skip the static subentry x bus-event cross-product table",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="summary lines only"
    )
    return parser


def _print_report(report: ScenarioReport, quiet: bool) -> None:
    status = "ok" if report.ok else "FAIL"
    print(
        f"{report.scenario.name:26s} {status:4s} "
        f"states={report.n_states:<5d} transitions={report.n_transitions:<6d} "
        f"unreachable-sub-combos={len(report.unreachable_sub_combos())}"
    )
    if not quiet and report.snoop_rows:
        verdicts = Counter(
            row["verdict"] for row in report.missing_transitions()
        )
        if verdicts:
            rendered = ", ".join(
                f"{verdict}={count}" for verdict, count in sorted(verdicts.items())
            )
            print(f"{'':26s} defensive raises: {rendered}")
    for counterexample in report.counterexamples[:1]:
        print(f"  counterexample ({len(counterexample.events)} events):")
        print(f"    trace: {' '.join(counterexample.events)}")
        for message in counterexample.messages:
            print(f"    {message}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        for scenario in SCENARIOS:
            print(scenario.name)
        return 0
    if args.scenario:
        try:
            scenarios = [scenario_named(name) for name in args.scenario]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    elif args.exhaustive:
        scenarios = list(SCENARIOS)
    else:
        scenarios = [scenario_named(name) for name in HEADLINE]

    reports = []
    for scenario in scenarios:
        try:
            report = explore(
                scenario,
                max_states=args.max_states,
                with_snoop_table=not args.no_snoop_table,
            )
        except ExplorationLimitError as exc:
            print(f"{scenario.name}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        _print_report(report, args.quiet)

    gaps = [
        row
        for report in reports
        for row in report.missing_transitions()
        if row["verdict"] == "gap"
    ]
    ok = all(report.ok for report in reports) and not gaps
    if args.json_out:
        artifact = {
            "ok": ok,
            "scenarios": [report.to_dict() for report in reports],
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"state-space report written to {args.json_out}")
    total_states = sum(report.n_states for report in reports)
    total_cex = sum(len(report.counterexamples) for report in reports)
    print(
        f"{len(reports)} scenario(s), {total_states} reachable states, "
        f"{total_cex} counterexample(s), {len(gaps)} protocol gap(s)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
