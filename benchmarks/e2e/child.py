"""One workload run: set up, time the workload, report what it did.

The orchestrator starts this script once per run, so every run begins
with a fresh interpreter, import, memo and trace cache::

    python benchmarks/e2e/child.py --workload grid-cold --run-id r0 \\
        --result out.json [--input trace.rtb] [--spans-dir DIR] [--setup-only]

It writes one JSON object to ``--result``.  :func:`execute` is the same
run in the calling process; the smoke test uses it at a tiny size.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import spans
import workloads

#: How long finished pool workers may take to be reaped.
_REAP_TIMEOUT_S = 60.0


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    """The larger peak RSS of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _reap_workers() -> None:
    """Wait until every pool worker has exited and been reaped, so its
    CPU time and peak RSS count and no process outlives the run."""
    deadline = time.monotonic() + _REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def execute(
    workload: workloads.Workload,
    run_id: str,
    input_path: Path | None = None,
    spans_dir: Path | None = None,
    scale: float = workloads.GRID_SCALE,
    setup_only: bool = False,
) -> dict:
    """Run *workload* once in this process and describe the run.

    With *spans_dir* the layer wrappers are installed before set-up
    and every process's spans land there.  ``setup_s`` here counts from
    this call; a child's set-up also includes interpreter start, which
    the orchestrator measures from the spawn.
    """
    started = time.monotonic()
    uninstall = None
    recorder = None
    if spans_dir is not None:
        workloads.use_checkout_source()
        recorder = spans.SpanRecorder(run_id, spans_dir)
        uninstall = spans.install(recorder)
    try:
        planned, timed = workloads.prepare(workload, input_path, scale)
        ready = time.monotonic()
        run = {"run": run_id, "workload": workload.name, "ready": ready,
               "setup_s": ready - started, "planned": planned,
               "traced": recorder is not None}
        if setup_only:
            return run
        cpu_before = _cpu_s()
        outcome = timed()
        wall_s = time.monotonic() - ready
        _reap_workers()
        cpu_s = _cpu_s() - cpu_before
    finally:
        if uninstall is not None:
            uninstall()
            recorder.flush()
    outcome = workloads.collect(outcome)
    run.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mib=_peak_rss_mib(),
        sim_refs=outcome.sim_refs,
        pid=os.getpid(),
        **asdict(outcome),
    )
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--input", type=Path, default=None)
    parser.add_argument("--spans-dir", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = execute(
        workloads.WORKLOADS[args.workload],
        args.run_id,
        input_path=args.input,
        spans_dir=args.spans_dir,
        setup_only=args.setup_only,
    )
    args.result.write_text(json.dumps(run), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
