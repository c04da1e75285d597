"""The end-to-end benchmark's workloads, their inputs and their checks.

Each workload is split the way the benchmark times it: :func:`prepare`
is the set-up (imports and planning) and returns the timed callable;
:func:`collect` then reads the run's results from the program's public
state, outside the timed phase.  Sizes (the grid scale, the replay
input scale) are parameters here, not program options, so the smoke
test can run every workload in-process at a tiny size.

Nothing here imports ``repro`` at module level: the orchestrator reads
the workload table before it knows whether the checkout holds a
program at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

#: The grid's trace scale (ROADMAP's headline run).
GRID_SCALE = 0.02
#: The replay input: thor's surrogate spec at this scale.
REPLAY_TRACE = "thor"
REPLAY_SCALE = 0.2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``jobs`` is set for the paper-grid workloads (the CLI's ``--jobs``),
    ``kind`` (a ``HierarchyKind`` value) for the trace-file replays.
    """

    name: str
    why: str
    jobs: int | None = None
    kind: str | None = None

    @property
    def is_grid(self) -> bool:
        return self.jobs is not None

    @property
    def seed_applies(self) -> bool:
        """The grid runs the program's pinned specs; only replay inputs
        are drawn from ``--seed``."""
        return not self.is_grid


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grid-cold",
            "every paper table, cold and serial: hierarchy construction "
            "and replay dominate",
            jobs=1,
        ),
        Workload(
            "grid-parallel",
            "the same grid through the 2-worker supervised pool: fork, "
            "result pickling and per-worker trace regeneration",
            jobs=2,
        ),
        Workload(
            "replay-vr",
            "an RPTB trace file through V-R hierarchies: decode plus the "
            "V-R replay path, no generation",
            kind="vr",
        ),
        Workload(
            "replay-noincl",
            "the same file through R-R without inclusion: every bus "
            "transaction probes level 1, so the snoop path dominates",
            kind="rr-noincl",
        ),
    )
}


def benchmark_metrics(section: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``,
    the one place their names, units and directions are kept."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))[section]


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- the replay input ------------------------------------------------------


@dataclass(frozen=True)
class ReplayInput:
    """An RPTB trace file the replay workloads read."""

    path: Path
    sha256: str
    memory_refs: int


def replay_spec(seed: int, scale: float = REPLAY_SCALE):
    """thor's surrogate spec at *scale*, its generator seed XOR *seed*."""
    use_checkout_source()
    from repro.trace.workloads import get_spec

    spec = get_spec(REPLAY_TRACE, scale)
    return replace(spec, seed=spec.seed ^ seed)


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _generator_digest() -> str:
    """Digest of the trace package's sources: a cached input is reused
    only while the code that wrote it is unchanged."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro" / "trace").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_input(
    seed: int, directory: Path, scale: float = REPLAY_SCALE
) -> ReplayInput:
    """Write (or reuse) the replay input for *seed* under *directory*.

    The file is keyed by the spec and the generator's sources, and is
    written to a temporary name first, so a reused file is always a
    complete one written by this code from this spec.
    """
    use_checkout_source()
    from repro.trace.binio import write_binary
    from repro.trace.stream import SyntheticTraceStream

    spec = replay_spec(seed, scale)
    key = hashlib.sha256(
        (repr(spec) + _generator_digest()).encode()
    ).hexdigest()[:16]
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec.name}-{scale:g}-seed{seed}-{key}.rtb"
    if not path.is_file():
        partial = path.with_suffix(f".{os.getpid()}.partial")
        write_binary(SyntheticTraceStream(spec), partial)
        os.replace(partial, path)
    return ReplayInput(path, _file_sha256(path), spec.total_refs)


# -- set-up, timed phase, results --------------------------------------------


@dataclass
class Outcome:
    """What one timed phase produced, before checking.

    ``sims`` maps a simulation label to its counter digest, simulated
    references and level-1 accesses; ``counts`` holds the model counts
    summed over every simulation.
    """

    exit_code: int = 0
    error: str | None = None
    stdout_sha256: str | None = None
    sims: dict[str, dict] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def sim_refs(self) -> int:
        return sum(sim["refs"] for sim in self.sims.values())


def prepare(
    workload: Workload,
    input_path: Path | None = None,
    scale: float = GRID_SCALE,
) -> tuple[int, Callable[[], Outcome]]:
    """The set-up phase: import the program and plan the work.

    Returns the number of planned simulations and the timed callable.
    Clearing the memo and trace caches is a no-op in a fresh process
    and keeps in-process runs (the smoke test) independent.
    """
    use_checkout_source()
    from repro.experiments import clear_caches, experiment_ids

    clear_caches()
    if workload.is_grid:
        from repro.experiments import cli
        from repro.runner import plan_jobs

        planned = len(plan_jobs(experiment_ids(), scale))
        argv = [
            "all", "--scale", f"{scale:g}", "--jobs", str(workload.jobs),
            "--no-cache",
        ]

        def timed() -> Outcome:
            out = io.StringIO()
            outcome = Outcome()
            try:
                with contextlib.redirect_stdout(out):
                    outcome.exit_code = cli.main(argv)
            except SystemExit as exc:
                outcome.exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed run, reported below
                outcome.exit_code = 1
                outcome.error = traceback.format_exc()
            outcome.stdout_sha256 = hashlib.sha256(
                out.getvalue().encode()
            ).hexdigest()
            return outcome

        return planned, timed

    if input_path is None:
        raise ValueError(f"{workload.name} needs a replay input file")
    from repro.experiments import SIZE_PAIRS, simulate
    from repro.hierarchy.config import HierarchyKind

    kind = HierarchyKind(workload.kind)
    trace = f"file:{input_path}"
    pairs = list(SIZE_PAIRS)

    def timed() -> Outcome:
        outcome = Outcome()
        try:
            for l1, l2 in pairs:
                simulate(trace, 1.0, l1, l2, kind)
        except Exception:  # a crash is a failed run, reported below
            outcome.exit_code = 1
            outcome.error = traceback.format_exc()
        return outcome

    return len(pairs), timed


def _label(key: tuple) -> str:
    """A simulation's identity as text, without the run options or the
    replay file's location."""
    parts = []
    for part in key[:9]:
        value = getattr(part, "value", part)
        if isinstance(value, str) and value.startswith("file:"):
            value = "file"
        parts.append(str(value))
    return " ".join(parts)


def _digest(snapshot: dict) -> str:
    payload = {
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("runner.")
        },
        "histograms": snapshot["histograms"],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _sum(counters: dict[str, int], prefix: str) -> int:
    return sum(v for name, v in counters.items() if name.startswith(prefix))


def collect(outcome: Outcome) -> Outcome:
    """Fill *outcome* with every simulation the run recorded.

    The run recorder holds one result per unique simulation, whether
    it was replayed here, in a pool worker or served from the memo.
    It has no public iterator, so its mapping is read directly.
    """
    from repro.obs import get_recorder

    recorder = get_recorder()
    for key, result in recorder._results.items():
        snapshot = result.metrics().snapshot()
        counters = snapshot["counters"]
        outcome.sims[_label(key)] = {
            "digest": _digest(snapshot),
            "refs": result.refs_processed,
            "l1_refs": _sum(counters, "l1.hit.") + _sum(counters, "l1.miss."),
        }
    merged = recorder.registry().snapshot()["counters"]
    outcome.counts = {
        "refs": merged.get("sim.refs", 0),
        "l1_miss": _sum(merged, "l1.miss."),
        "bus_txn": _sum(merged, "bus."),
        "tlb_miss": merged.get("tlb.miss", 0),
    }
    return outcome


# -- checking against pinned digests ----------------------------------------


def check(
    workload: Workload,
    run: dict,
    expected: dict,
    seed: int,
    replay_input: ReplayInput | None,
    reference: dict[str, str],
) -> int:
    """How many of the run's simulations failed.

    An exception or a non-zero exit fails every simulation, and so does
    a wrong rendered output (grid) or a wrong input file (replay).
    Otherwise each simulation's digest is compared with the pinned one.
    Replay seeds without pinned digests are checked for the exact
    reference count, one level-1 access per reference, and agreement
    with the first run of this invocation (*reference*, filled here).
    """
    planned = run["planned"]
    if run["exit_code"] != 0 or run["error"] is not None:
        return planned
    sims = run["sims"]
    if workload.is_grid:
        pinned = expected["grid"]
        if run["stdout_sha256"] != pinned["stdout_sha256"]:
            return planned
        want = pinned["simulations"]
    else:
        pinned = expected["replay"]["seeds"].get(str(seed))
        if pinned is None:
            if len(sims) != planned:
                return planned
            failed = 0
            for label, sim in sims.items():
                first = reference.setdefault(label, sim["digest"])
                if (
                    sim["refs"] != replay_input.memory_refs
                    or sim["l1_refs"] != sim["refs"]
                    or sim["digest"] != first
                ):
                    failed += 1
            return failed
        if replay_input.sha256 != pinned["input_sha256"]:
            return planned
        want = pinned[workload.kind]
    got = {label: sim["digest"] for label, sim in sims.items()}
    wrong = sum(1 for label, digest in want.items() if got.get(label) != digest)
    extra = sum(1 for label in got if label not in want)
    return min(planned, wrong + extra)
