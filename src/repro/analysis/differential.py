"""``repro-diff``: the walker-vs-scalar differential harness.

Replays the same workload through the replay walker
(``Multiprocessor.run``) and through the scalar reference loop
(``Multiprocessor.run_scalar``, ``TwoLevelHierarchy.access`` per
reference) and asserts the strongest equivalence the repository can
express:

* every per-CPU hierarchy counter is equal,
* bus transaction counts, main-memory counts and TLB counters are equal,
* the unified metrics snapshots are **byte**-identical (serialised with
  sorted keys, exactly how the observability layer persists them),
* the full exported machine states (tag stores, subentry bits, write
  buffers, TLBs, version stamps) have identical canonical digests.

Any divergence is a bug in the walker; the report names the first
differing counter to make the protocol discrepancy obvious.

Examples::

    repro-diff                         # tier-1 workloads, default config
    repro-diff --workload abaqus --scale 0.05
    repro-diff --kind rr-incl --json-out diff.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..hierarchy.config import HierarchyConfig, HierarchyKind
from ..system.multiprocessor import Multiprocessor
from ..trace.workloads import get_spec, make_workload, workload_names

#: The replay paths the harness compares, reference first.
PATHS = ("scalar", "walker")

#: Default trace scale: large enough to exercise synonyms, context
#: switches and write-buffer pressure on every tier-1 workload, small
#: enough that both paths replay all three in seconds.
DEFAULT_SCALE = 0.02


def canonical_digest(state: Any) -> str:
    """A serialisation-order-independent digest of an exported state.

    Dictionaries are rewritten in sorted key order before pickling so
    that two semantically equal states hash equally even when their
    dicts were populated in different orders (the walker mints some
    counters in a different sequence than the scalar loop).
    """

    def canon(obj: Any) -> Any:
        if isinstance(obj, dict):
            return {key: canon(obj[key]) for key in sorted(obj, key=repr)}
        if isinstance(obj, (list, tuple)):
            return type(obj)(canon(item) for item in obj)
        return obj

    payload = pickle.dumps(canon(state), protocol=4)
    return hashlib.sha256(payload).hexdigest()


@dataclass
class ReplayRun:
    """One replay path's observable output on one workload."""

    path: str
    refs: int
    seconds: float
    counters: list[dict[Any, int]]
    bus: dict[str, int]
    memory: dict[str, int]
    tlb: list[dict[str, int]]
    metrics_bytes: bytes
    state_digest: str


@dataclass
class WorkloadDiff:
    """The comparison verdict for one workload."""

    workload: str
    scale: float
    refs: int
    equal: bool
    mismatches: list[str] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "refs": self.refs,
            "equal": self.equal,
            "mismatches": self.mismatches,
            "seconds": self.seconds,
        }


def _replay(
    path: str,
    name: str,
    scale: float,
    config: HierarchyConfig,
    streamed: bool = False,
) -> ReplayRun:
    spec = get_spec(name, scale)
    if streamed:
        from ..trace.stream import SyntheticTraceStream

        trace: Any = SyntheticTraceStream(spec)
        layout = trace.layout
    else:
        workload = make_workload(name, scale)
        trace = workload
        layout = workload.layout
    return replay_trace(path, trace, layout, spec.n_cpus, config)


def replay_trace(
    path: str,
    trace: Any,
    layout: Any,
    n_cpus: int,
    config: HierarchyConfig,
    seed: int = 0,
) -> ReplayRun:
    """Replay *trace* through a fresh machine on one path of
    :data:`PATHS` and capture everything :func:`compare_runs` checks."""
    from ..faults.checkpoint import export_machine

    machine = Multiprocessor(layout, n_cpus, config, seed=seed)
    started = perf_counter()
    result = machine.run(trace) if path == "walker" else machine.run_scalar(trace)
    seconds = perf_counter() - started
    metrics = result.metrics().snapshot()
    metrics_bytes = json.dumps(metrics, sort_keys=True).encode()
    state = export_machine(machine, result.refs_processed, result.refs_processed)
    return ReplayRun(
        path=path,
        refs=result.refs_processed,
        seconds=seconds,
        counters=[dict(s.counters.as_dict()) for s in result.per_cpu],
        bus=result.bus_transactions,
        memory=machine.bus.memory.stats.as_dict(),
        tlb=result.tlb_per_cpu,
        metrics_bytes=metrics_bytes,
        state_digest=canonical_digest(state),
    )


def _first_counter_diff(
    label: str,
    a: dict[Any, int],
    b: dict[Any, int],
    a_name: str = "scalar",
    b_name: str = "walker",
) -> list[str]:
    out = []
    for key in sorted(set(a) | set(b), key=repr):
        if a.get(key, 0) != b.get(key, 0):
            out.append(
                f"{label}[{key!r}]: {a_name}={a.get(key, 0)} "
                f"{b_name}={b.get(key, 0)}"
            )
    return out


def compare_runs(ref: ReplayRun, other: ReplayRun, label: str) -> list[str]:
    """Every observable of *other* checked against the reference run;
    returns one line per mismatch (none when they agree)."""
    ref_name = ref.path
    mismatches: list[str] = []
    if ref.refs != other.refs:
        mismatches.append(
            f"refs: {ref_name}={ref.refs} {label}={other.refs}"
        )
    for cpu, (a, b) in enumerate(zip(ref.counters, other.counters)):
        mismatches += _first_counter_diff(f"cpu{cpu}", a, b, ref_name, label)
    for cpu, (a, b) in enumerate(zip(ref.tlb, other.tlb)):
        mismatches += _first_counter_diff(f"tlb{cpu}", a, b, ref_name, label)
    mismatches += _first_counter_diff("bus", ref.bus, other.bus, ref_name, label)
    mismatches += _first_counter_diff(
        "memory", ref.memory, other.memory, ref_name, label
    )
    if ref.metrics_bytes != other.metrics_bytes:
        mismatches.append(f"{label}: metrics snapshots differ byte-wise")
    if ref.state_digest != other.state_digest:
        mismatches.append(
            f"state digests differ: {ref_name}={ref.state_digest[:16]}… "
            f"{label}={other.state_digest[:16]}…"
        )
    return mismatches


def diff_workload(
    name: str,
    scale: float = DEFAULT_SCALE,
    config: HierarchyConfig | None = None,
    streamed: bool = False,
) -> WorkloadDiff:
    """Replay *name* on both paths and compare every observable.

    With *streamed*, both paths additionally replay the workload
    through the bounded-chunk stream layer, and all four runs must
    agree — the streaming-equivalence acceptance check.
    """
    if config is None:
        config = HierarchyConfig.sized("4K", "64K")
    runs: dict[str, ReplayRun] = {
        path: _replay(path, name, scale, config) for path in PATHS
    }
    if streamed:
        for path in PATHS:
            runs[f"{path}+stream"] = _replay(
                path, name, scale, config, streamed=True
            )
    ref = runs["scalar"]
    mismatches: list[str] = []
    for label, run in runs.items():
        if label == "scalar":
            continue
        mismatches += compare_runs(ref, run, label)
    return WorkloadDiff(
        workload=name,
        scale=scale,
        refs=ref.refs,
        equal=not mismatches,
        mismatches=mismatches,
        seconds={label: run.seconds for label, run in runs.items()},
    )


def diff_all(
    scale: float = DEFAULT_SCALE,
    config: HierarchyConfig | None = None,
    workloads: Sequence[str] | None = None,
    streamed: bool = False,
) -> list[WorkloadDiff]:
    """Differential comparison over the tier-1 workload set."""
    names = list(workloads) if workloads else workload_names()
    return [diff_workload(name, scale, config, streamed) for name in names]


_KINDS = {
    "vr": HierarchyKind.VR,
    "rr-incl": HierarchyKind.RR_INCLUSION,
    "rr-noincl": HierarchyKind.RR_NO_INCLUSION,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-diff",
        description="Replay tier-1 workloads through the walker and the "
        "scalar reference loop and assert bit-identical counters, "
        "metrics and machine states.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        default=None,
        choices=workload_names(),
        help="compare one workload (repeatable; default: all tier-1)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"trace scale (default {DEFAULT_SCALE})",
    )
    parser.add_argument("--l1", default="4K", help="level-1 size (default 4K)")
    parser.add_argument("--l2", default="64K", help="level-2 size (default 64K)")
    parser.add_argument(
        "--kind",
        choices=sorted(_KINDS),
        default="vr",
        help="hierarchy organisation (default vr)",
    )
    parser.add_argument(
        "--streamed",
        action="store_true",
        help="also replay each path through the bounded-chunk stream "
        "layer and require all four runs to agree",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", help="write the verdicts as JSON"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = HierarchyConfig.sized(args.l1, args.l2, kind=_KINDS[args.kind])
    diffs = diff_all(args.scale, config, args.workload, args.streamed)
    for diff in diffs:
        status = "ok " if diff.equal else "FAIL"
        timing = " ".join(
            f"{label}={seconds:.2f}s" for label, seconds in diff.seconds.items()
        )
        print(
            f"{status} {diff.workload:8s} refs={diff.refs:<8d} "
            f"scale={diff.scale} {timing}"
        )
        for line in diff.mismatches[:20]:
            print(f"     {line}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(
                [diff.to_dict() for diff in diffs],
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"differential report written to {args.json_out}")
    return 0 if all(diff.equal for diff in diffs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
