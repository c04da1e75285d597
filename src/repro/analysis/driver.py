"""``repro-lint``: the one static-analysis CLI.

It walks the given paths once and parses each file once.  The per-file
RPL rules (:mod:`repro.analysis.lint`) run on every file; the
whole-package RPS call-graph analysis (:mod:`repro.analysis.sanitize`)
runs on the modules of the ``repro`` package.  Each rule keeps its own
path scoping.  One ``# rps: ignore[...]`` pragma matcher and one
fingerprint baseline (:mod:`repro.analysis.findings`) then filter both
rule sets, and one text or JSON report comes out.

Exit status: 0 clean; 1 on findings, or on stale baseline entries
under ``--strict``; 2 on a missing path.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from . import lint, sanitize
from .findings import (
    Finding,
    apply_baseline,
    iter_files,
    load_baseline,
    suppressed,
    write_baseline,
)

#: Both rule catalogues (``repro-lint --list-rules``).
RULES: dict[str, str] = {**lint.RULES, **sanitize.RULES}

#: Baseline loaded when present and no ``--baseline`` is given.
DEFAULT_BASELINE = ".repro-lint-baseline.json"


def analyze_sources(files: dict[str, str]) -> list[Finding]:
    """Every finding in *files* (path -> source) that no pragma
    silences, sorted by location."""
    trees: dict[str, ast.Module] = {}
    broken: list[Finding] = []
    for path, source in files.items():
        try:
            trees[path] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            # One finding per unparseable file: RPS000 for a package
            # module (the call graph is built without it), RPL000 for
            # anything else.
            rule = "RPS000" if sanitize.in_package(path) else "RPL000"
            broken.append(
                Finding(
                    rule,
                    path,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    f"syntax error: {exc.msg}",
                )
            )
    found = [f for path, tree in trees.items() for f in lint.check_tree(tree, path)]
    found.extend(sanitize.check_package(trees))
    lines = {path: files[path].splitlines() for path in trees}
    findings = broken + [f for f in found if not suppressed(f, lines[f.path])]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _read_files(paths: Iterable[str | Path]) -> dict[str, str]:
    return {
        str(path): path.read_text(encoding="utf-8") for path in iter_files(paths)
    }


def analyze_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """:func:`analyze_sources` over every ``*.py`` file under the given
    files/directories."""
    return analyze_sources(_read_files(paths))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Repo-specific static analysis: per-file AST rules "
            "(RPL001-RPL005) and whole-package determinism-taint "
            "rules (RPS101-RPS105)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default %(default)s)",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="also write the JSON report here (CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=f"accepted-findings file (default: ./{DEFAULT_BASELINE} "
        "when present)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    files = _read_files(args.paths)
    findings = analyze_sources(files)

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings, files)
        print(
            f"baseline written: {len(findings)} finding(s) -> "
            f"{args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE).is_file():
        baseline_path = DEFAULT_BASELINE
    stale: list[str] = []
    if baseline_path is not None:
        findings, stale = apply_baseline(
            findings, load_baseline(baseline_path), files
        )
    failed = bool(findings) or (args.strict and bool(stale))

    report = {
        "ok": not failed,
        "findings": [f.to_dict() for f in findings],
        "stale_baseline_entries": stale,
    }
    if args.json_out is not None:
        Path(args.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for finding in findings:
            print(finding.render())
        for entry in stale:
            print(f"stale baseline entry (fix or regenerate): {entry}")
        if findings:
            print(f"{len(findings)} finding(s) in {len(files)} file(s)")
        else:
            tail = f", {len(stale)} stale baseline entry(ies)" if stale else ""
            print(f"clean: {len(files)} file(s), 0 findings{tail}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
