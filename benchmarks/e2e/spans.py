"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public calls at each layer boundary of the
simulator — nothing under ``src/`` knows it is being timed:

* ``experiments.runner``: each ``RUNNERS`` entry (``get_runner(id)(...)``)
* ``experiments.simulate``: ``repro.experiments.base.simulate``, in every
  module that bound it
* ``runner.run_jobs``: ``repro.runner.run_jobs`` (the CLI imports it
  per call)
* ``system.build`` / ``system.run``: ``Multiprocessor.__init__`` / ``.run``
* ``hierarchy.build``: the outermost ``TwoLevelHierarchy.__init__``,
  subclasses included
* ``trace.gen``: ``SyntheticWorkload.records``
* ``trace.decode``: each step of ``BinaryTraceReader.chunks``

Spans are kept in memory.  Pool workers inherit the wrappers through
fork; a worker drops the spans it inherited and appends its own to a
per-pid file after every ``simulate``.  The workload process writes
its file at the end, and :func:`read_spans` merges a run's files.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path

KINDS = ("vr", "rr-incl", "rr-noincl")


class SpanRecorder:
    """The spans of one workload run, one list per process."""

    def __init__(self, run_id: str, spans_dir: Path) -> None:
        self.run_id = run_id
        self.spans_dir = Path(spans_dir)
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._spans: list[dict] = []
        self._stack: list[dict] = []
        self._count = 0

    def open(self, name: str, **attrs: object) -> dict:
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the inherited spans are the parent's
            # to write; the inherited stack still names the parent span.
            self._pid = pid
            self._spans = []
            self._count = 0
        self._count += 1
        span = {
            "id": f"{pid}:{self._count}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run": self.run_id,
            "pid": pid,
            "start": time.monotonic(),
            "end": None,
            "attrs": attrs,
        }
        self._stack.append(span)
        self._spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        while self._stack and self._stack.pop() is not span:
            pass

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        opened = self.open(name, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def innermost(self) -> str | None:
        return self._stack[-1]["name"] if self._stack else None

    def flush(self) -> None:
        """Append this process's finished spans to its per-pid file."""
        if not self._spans:
            return
        path = self.spans_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(json.dumps(span) + "\n")
        self._spans = []


def read_spans(spans_dir: Path) -> list[dict]:
    """Every span the run's processes wrote, in start order."""
    found = []
    for path in sorted(Path(spans_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            found.extend(json.loads(line) for line in handle if line.strip())
    return sorted(found, key=lambda span: span["start"])


# -- the wrappers -------------------------------------------------------------


def _wrap_call(rec: SpanRecorder, name: str, fn: Callable, **attrs: object):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, **attrs):
            return fn(*args, **kwargs)

    return wrapper


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the layer boundaries; returns the function that unwraps them."""
    from repro.experiments import RUNNERS, base
    from repro.hierarchy.twolevel import TwoLevelHierarchy
    from repro import runner
    from repro.system.multiprocessor import Multiprocessor
    from repro.trace.binio import BinaryTraceReader
    from repro.trace.synthetic import SyntheticWorkload

    with contextlib.suppress(ImportError):
        # Defines the SoA subclass, so its constructor is wrapped too.
        importlib.import_module("repro.core.soa")

    undo: list[Callable[[], None]] = []

    def patch(owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, original))

    for experiment_id, fn in list(RUNNERS.items()):
        RUNNERS[experiment_id] = _wrap_call(
            rec, "experiments.runner", fn, experiment=experiment_id
        )
        undo.append(functools.partial(RUNNERS.__setitem__, experiment_id, fn))

    simulate = base.simulate

    @functools.wraps(simulate)
    def simulate_wrapper(*args, **kwargs):
        before = base.executed_simulations()
        span = rec.open("experiments.simulate")
        try:
            return simulate(*args, **kwargs)
        finally:
            span["attrs"]["executed"] = base.executed_simulations() > before
            rec.close(span)
            if os.getpid() != rec.main_pid:
                rec.flush()

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "simulate", None) is simulate
        ):
            patch(module, "simulate", simulate_wrapper)

    run_jobs = runner.run_jobs

    @functools.wraps(run_jobs)
    def run_jobs_wrapper(jobs, n_workers=None, *args, **kwargs):
        with rec.span("runner.run_jobs", workers=n_workers) as span:
            report = run_jobs(jobs, n_workers, *args, **kwargs)
            span["attrs"]["executed"] = report.executed
            return report

    patch(runner, "run_jobs", run_jobs_wrapper)

    build = Multiprocessor.__init__
    patch(Multiprocessor, "__init__", _wrap_call(rec, "system.build", build))
    replay = Multiprocessor.run

    @functools.wraps(replay)
    def run_wrapper(self, *args, **kwargs):
        with rec.span("system.run", kind=self.config.kind.value) as span:
            result = replay(self, *args, **kwargs)
            span["attrs"]["refs"] = result.refs_processed
            return result

    patch(Multiprocessor, "run", run_wrapper)

    def hierarchy_classes(cls: type) -> Iterator[type]:
        yield cls
        for sub in cls.__subclasses__():
            yield from hierarchy_classes(sub)

    for cls in hierarchy_classes(TwoLevelHierarchy):
        if "__init__" not in cls.__dict__:
            continue
        init = cls.__dict__["__init__"]

        @functools.wraps(init)
        def init_wrapper(self, *args, _init=init, **kwargs):
            if rec.innermost() == "hierarchy.build":
                return _init(self, *args, **kwargs)
            with rec.span("hierarchy.build"):
                return _init(self, *args, **kwargs)

        patch(cls, "__init__", init_wrapper)

    records = SyntheticWorkload.records

    @functools.wraps(records)
    def records_wrapper(self):
        spec = self.spec
        key = f"{spec.name}/{spec.total_refs}/{spec.seed}"
        with rec.span("trace.gen", trace=key) as span:
            result = records(self)
            span["attrs"]["records"] = len(result)
            return result

    patch(SyntheticWorkload, "records", records_wrapper)

    chunks = BinaryTraceReader.chunks

    @functools.wraps(chunks)
    def chunks_wrapper(self, *args, **kwargs):
        inner = chunks(self, *args, **kwargs)
        try:
            while True:
                with rec.span("trace.decode", records=0) as span:
                    chunk = next(inner, None)
                    if chunk is not None:
                        span["attrs"]["records"] = len(chunk)
                if chunk is None:
                    return
                yield chunk
        finally:
            inner.close()

    patch(BinaryTraceReader, "chunks", chunks_wrapper)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# -- per-layer metrics ------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict],
    main_pid: int,
    wall_s: float,
    untraced_wall_s: list[float],
    counts: dict[str, int],
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    A span's self time is its duration minus its children's, counting
    only children in the same process: a worker's ``simulate`` names
    the parent's ``run_jobs`` span but runs beside it, not inside it.
    Layer totals add every process, so in the parallel grid they can
    exceed the wall time; ``bench.unattributed_s`` uses only the
    workload process's top-level spans.
    """
    pid_of = {span["id"]: span["pid"] for span in spans}
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span["parent"]
        if parent is not None and pid_of.get(parent) == span["pid"]:
            child_time[parent] += _duration(span)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_time(span: dict) -> float:
        return max(0.0, _duration(span) - child_time[span["id"]])

    def total(name: str, pid: int | None = None) -> float:
        return sum(
            (_duration(s) for s in by_name[name] if pid is None or s["pid"] == pid),
            0.0,
        )

    def self_total(name: str) -> float:
        return sum((self_time(s) for s in by_name[name]), 0.0)

    def attr_sum(name: str, attr: str) -> int:
        return sum(s["attrs"].get(attr) or 0 for s in by_name[name])

    runs = by_name["system.run"]
    replay_self = self_total("system.run")
    gen_s = total("trace.gen")
    decode_s = total("trace.decode")
    run_jobs_s = total("runner.run_jobs")
    workers = max((s["attrs"]["workers"] or 1 for s in by_name["runner.run_jobs"]),
                  default=1)
    simulates = by_name["experiments.simulate"]
    worker_busy = sum(_duration(s) for s in simulates if s["pid"] != main_pid)
    roots = sum(
        _duration(s)
        for s in spans
        if s["pid"] == main_pid
        and (s["parent"] is None or pid_of.get(s["parent"]) != main_pid)
    )
    refs = counts.get("refs", 0)

    metrics = {
        "system.build_s": total("system.build"),
        "system.build_calls": len(by_name["system.build"]),
        "system.build_self_s": self_total("system.build"),
        "system.run_s": total("system.run"),
        "system.replay_self_s": replay_self,
        "system.replay_ns_per_ref": _ratio(
            replay_self * 1e9, sum(s["attrs"].get("refs", 0) for s in runs)
        ),
    }
    for kind in KINDS:
        of_kind = [s for s in runs if s["attrs"]["kind"] == kind]
        metrics[f"system.replay_ns_per_ref.{kind}"] = _ratio(
            sum(map(self_time, of_kind)) * 1e9,
            sum(s["attrs"].get("refs", 0) for s in of_kind),
        )
    gens = by_name["trace.gen"]
    metrics.update(
        {
            "hierarchy.build_s": total("hierarchy.build"),
            "hierarchy.build_calls": len(by_name["hierarchy.build"]),
            "trace.gen_s": gen_s,
            "trace.gen_calls": len(gens),
            "trace.gen_records_per_s": _ratio(attr_sum("trace.gen", "records"), gen_s),
            "trace.gen_redundancy": _ratio(
                len(gens), len({s["attrs"]["trace"] for s in gens})
            ),
            "trace.decode_s": decode_s,
            "trace.decode_records_per_s": _ratio(
                attr_sum("trace.decode", "records"), decode_s
            ),
            "runner.run_jobs_s": run_jobs_s,
            "runner.jobs_executed": attr_sum("runner.run_jobs", "executed"),
            "runner.worker_busy_s": worker_busy,
            "runner.parallel_efficiency": _ratio(worker_busy, run_jobs_s * workers),
            "experiments.runner_s": total("experiments.runner", main_pid),
            "experiments.self_s": self_total("experiments.runner"),
            "experiments.simulate_calls": len(simulates),
            "experiments.memo_hit_ratio": _ratio(
                sum(1 for s in simulates if not s["attrs"]["executed"]),
                len(simulates),
            ),
            "hierarchy.l1_miss_per_kref": _ratio(counts.get("l1_miss", 0) * 1e3, refs),
            "coherence.bus_txn_per_kref": _ratio(counts.get("bus_txn", 0) * 1e3, refs),
            "mmu.tlb_miss_per_kref": _ratio(counts.get("tlb_miss", 0) * 1e3, refs),
            "bench.unattributed_s": wall_s - roots,
            "bench.trace_overhead_frac": (
                wall_s / statistics.median(untraced_wall_s) - 1
                if untraced_wall_s
                else 0.0
            ),
        }
    )
    return metrics
