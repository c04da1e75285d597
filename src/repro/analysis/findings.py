"""What both rule sets of ``repro-lint`` share.

The per-file RPL rules (:mod:`repro.analysis.lint`) and the
whole-package RPS rules (:mod:`repro.analysis.sanitize`) report the
same :class:`Finding`, key modules the same way, and are filtered by
the same ``# rps: ignore`` pragmas and fingerprint baseline.  Those
pieces live here, below both rule modules and the driver
(:mod:`repro.analysis.driver`), so nothing imports in a cycle.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Finding:
    """One rule violation.  ``chain`` is the call path an
    interprocedural finding flowed through (empty for per-file rules).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    chain: tuple[str, ...] = ()

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.chain:
            text += f" [via {' -> '.join(self.chain)}]"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "chain": list(self.chain),
        }


def module_key(path: str) -> str:
    """Path from the package root (``src/repro/mmu/tlb.py`` ->
    ``repro/mmu/tlb.py``); paths outside keep their as-given form."""
    parts = Path(path).parts
    if "repro" in parts:
        return "/".join(parts[parts.index("repro") :])
    return "/".join(parts)


def iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``*.py`` file under the given directories, in sorted
    order, plus the given files themselves."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


# ----------------------------------------------------------------- pragmas

#: ``# rps: ignore`` / ``# rps: ignore[RPS101,RPL004]`` pragmas.
_PRAGMA_RE = re.compile(r"#\s*rps:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


def suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    """Does the flagged line (of *lines*, the finding's file) carry a
    pragma naming this rule, or a bare one?"""
    if not 1 <= finding.line <= len(lines):
        return False
    match = _PRAGMA_RE.search(lines[finding.line - 1])
    if match is None:
        return False
    if match.group(1) is None:
        return True
    rules = {part.strip() for part in match.group(1).split(",")}
    return finding.rule in rules


# ---------------------------------------------------------------- baseline


def fingerprint(finding: Finding, files: dict[str, str]) -> str:
    """Line-drift-tolerant identity: rule, module and normalised
    source text of the flagged line."""
    source = files.get(finding.path, "")
    lines = source.splitlines()
    text = ""
    if 1 <= finding.line <= len(lines):
        text = " ".join(lines[finding.line - 1].split())
    return f"{finding.rule}|{module_key(finding.path)}|{text}"


def load_baseline(path: str | Path) -> dict[str, int]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = data.get("entries", [])
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry] = counts.get(entry, 0) + 1
    return counts


def write_baseline(
    path: str | Path, findings: Sequence[Finding], files: dict[str, str]
) -> None:
    entries = sorted(fingerprint(f, files) for f in findings)
    Path(path).write_text(
        json.dumps(
            {"format": "repro-lint-baseline", "version": 1, "entries": entries},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    findings: Sequence[Finding],
    baseline: dict[str, int],
    files: dict[str, str],
) -> tuple[list[Finding], list[str]]:
    """Subtract baselined findings; returns (fresh, stale-entries)."""
    remaining = dict(baseline)
    fresh: list[Finding] = []
    for finding in findings:
        key = fingerprint(finding, files)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(finding)
    stale = sorted(k for k, n in remaining.items() if n > 0)
    return fresh, stale
