"""Microbenchmarks: simulator building-block throughput.

Unlike the table benchmarks (one-shot artefact regeneration), these
use pytest-benchmark's normal multi-round timing to track the cost of
the inner loops: trace generation, single-hierarchy access, and the
full multiprocessor step.

``test_replay_throughput_floor`` additionally guards the replay hot
path against regressions: it times the unguarded multiprocessor loop
directly (no pytest-benchmark, so the CI smoke job can run it in
isolation), writes the measured rates and per-phase timings to
``benchmarks/results/BENCH_throughput.json``, and fails if throughput
drops below the recorded baseline's floor.
"""

import itertools
import json
from pathlib import Path
from time import perf_counter

from repro.coherence.bus import Bus, MainMemory
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.hierarchy.twolevel import TwoLevelHierarchy
from repro.system.multiprocessor import Multiprocessor
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec

from conftest import RESULTS_DIR

N_REFS = 20_000

BASELINE_PATH = Path(__file__).parent / "baseline_throughput.json"


def _spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        name="bench", n_cpus=2, total_refs=N_REFS, context_switches=4,
        seed=7, text_pages=8, data_pages=32,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def test_trace_generation_rate(benchmark):
    def generate():
        return sum(1 for _ in SyntheticWorkload(_spec()))

    produced = benchmark(generate)
    assert produced >= N_REFS


def test_hierarchy_access_rate(benchmark):
    workload = SyntheticWorkload(_spec(n_cpus=1, context_switches=0))
    records = [r for r in workload if r.is_memory]

    def run():
        hier = TwoLevelHierarchy(
            HierarchyConfig.sized("4K", "64K"),
            workload.layout,
            Bus(MainMemory()),
            next_version=itertools.count(1).__next__,
        )
        for record in records:
            hier.access(record.pid, record.vaddr, record.kind)
        return hier.stats.l1_refs()

    assert benchmark(run) == len(records)


def test_multiprocessor_step_rate(benchmark):
    workload = SyntheticWorkload(_spec())
    records = workload.records()

    def run():
        machine = Multiprocessor(
            workload.layout, 2, HierarchyConfig.sized("4K", "64K")
        )
        return machine.run(records).refs_processed

    assert benchmark(run) == N_REFS


def test_multiprocessor_step_rate_soa(benchmark):
    """The struct-of-arrays engine on the same workload as the object
    engine's step-rate benchmark, so the two series stay comparable."""
    workload = SyntheticWorkload(_spec())
    records = workload.records()

    def run():
        machine = Multiprocessor(
            workload.layout, 2, HierarchyConfig.sized("4K", "64K"), engine="soa"
        )
        return machine.run(records).refs_processed

    assert benchmark(run) == N_REFS


def test_rr_no_inclusion_snoop_rate(benchmark):
    """The no-inclusion snoop path probes level 1 on every coherence
    transaction — track that it stays affordable."""
    workload = SyntheticWorkload(_spec())
    records = workload.records()

    def run():
        machine = Multiprocessor(
            workload.layout,
            2,
            HierarchyConfig.sized(
                "4K", "64K", kind=HierarchyKind.RR_NO_INCLUSION
            ),
        )
        return machine.run(records).refs_processed

    assert benchmark(run) == N_REFS


def measure_engines(rounds: int = 2) -> dict:
    """Measure replay throughput for both engines; return the payload.

    The measurement matches the recorded baseline's workload exactly
    (60k refs, 2 CPUs, 4K/64K V-R); best-of-*rounds* reduces timer
    noise.  The payload is what ``test_replay_throughput_floor``
    writes to ``benchmarks/results/BENCH_throughput.json`` (and the
    repo root publishes as ``BENCH_throughput.json``); CI uploads it.
    """
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    shape = baseline["workload"]

    gen_started = perf_counter()
    workload = SyntheticWorkload(_spec(total_refs=shape["total_refs"]))
    records = workload.records()
    trace_gen_s = perf_counter() - gen_started

    engines: dict[str, dict] = {}
    for engine in ("object", "soa"):
        best_rate = 0.0
        timings: dict[str, float] = {}
        for _ in range(rounds):
            machine = Multiprocessor(
                workload.layout,
                shape["n_cpus"],
                HierarchyConfig.sized(shape["l1"], shape["l2"]),
                engine=engine,
            )
            result = machine.run(records)
            assert result.refs_processed == shape["total_refs"]
            rate = result.refs_processed / result.timings["replay_s"]
            if rate > best_rate:
                best_rate = rate
                timings = dict(result.timings)
        base_engine = baseline["engines"][engine]
        engines[engine] = {
            "replay_refs_per_s": round(best_rate),
            "timings_s": {
                name: round(value, 4) for name, value in timings.items()
            },
            "baseline_refs_per_s": base_engine["replay_refs_per_s"],
            "floor_refs_per_s": round(
                base_engine["replay_refs_per_s"] / base_engine["floor_divisor"]
            ),
        }
    obj_rate = engines["object"]["replay_refs_per_s"]
    soa_rate = engines["soa"]["replay_refs_per_s"]
    return {
        "workload": shape,
        "engines": engines,
        "soa_speedup": round(soa_rate / obj_rate, 3),
        "trace_gen_refs_per_s": round(shape["total_refs"] / trace_gen_s),
    }


def test_replay_throughput_floor():
    """Measure both engines, publish the figures, guard the floors.

    Fails when either engine drops below its recorded floor or when
    the SoA engine falls behind the object engine — the SoA core only
    exists to be faster, so "slower than object" is a regression even
    while above its absolute floor.
    """
    payload = measure_engines()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    for engine, figures in payload["engines"].items():
        assert figures["replay_refs_per_s"] >= figures["floor_refs_per_s"], (
            f"{engine} replay throughput regressed: "
            f"{figures['replay_refs_per_s']} refs/s is below the floor of "
            f"{figures['floor_refs_per_s']} "
            f"(baseline {figures['baseline_refs_per_s']})"
        )
    obj_rate = payload["engines"]["object"]["replay_refs_per_s"]
    soa_rate = payload["engines"]["soa"]["replay_refs_per_s"]
    assert soa_rate >= obj_rate, (
        f"SoA engine ({soa_rate} refs/s) fell behind the object engine "
        f"({obj_rate} refs/s); the vectorized hot path has regressed"
    )
