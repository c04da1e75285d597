"""Engine equivalence: the SoA core against the reference hierarchy.

The struct-of-arrays core (``repro.core.soa``) claims *bit-identical*
behaviour to the object engine.  This module holds the deterministic
half of that argument:

* the differential harness verdicts on scaled tier-1 workloads,
* checkpoint round-trips through the array-backed state (including a
  cross-engine restore: an object checkpoint resumed on the SoA core),
* the protocol model checker exploring the SoA machine,
* engine plumbing (``Multiprocessor``, ``RunOptions``, the CLIs).

The randomized half lives in ``test_engine_fuzz.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.differential import (
    canonical_digest,
    diff_workload,
)
from repro.analysis.explore import explore
from repro.analysis.model import ProtocolModel, scenario_named
from repro.core.soa import SoAHierarchy
from repro.experiments.base import (
    RunOptions,
    clear_caches,
    set_run_options,
    simulate,
    trace_records,
)
from repro.experiments.cli import build_parser
from repro.faults.checkpoint import export_machine, restore_machine
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.system.multiprocessor import Multiprocessor
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec
from repro.trace.workloads import get_spec


def _machine(layout, n_cpus, config, engine):
    return Multiprocessor(layout, n_cpus, config, engine=engine)


def _digest(machine, refs):
    return canonical_digest(export_machine(machine, refs, refs))


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    set_run_options(RunOptions())
    clear_caches()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        spec = WorkloadSpec(name="sel", total_refs=100)
        layout = SyntheticWorkload(spec).layout
        config = HierarchyConfig.sized("1K", "8K")
        with pytest.raises(ValueError, match="unknown engine"):
            Multiprocessor(layout, 2, config, engine="simd")
        with pytest.raises(ValueError, match="unknown engine"):
            ProtocolModel(scenario_named("vr-invalidate-wb"), engine="simd")

    def test_soa_machine_builds_soa_hierarchies(self):
        spec = WorkloadSpec(name="sel", total_refs=100)
        layout = SyntheticWorkload(spec).layout
        machine = _machine(layout, 2, HierarchyConfig.sized("1K", "8K"), "soa")
        assert all(isinstance(h, SoAHierarchy) for h in machine.hierarchies)

    def test_cli_parses_engine_flag(self):
        args = build_parser().parse_args(["table6", "--engine", "object"])
        assert args.engine == "object"
        assert build_parser().parse_args(["table6"]).engine == "soa"

    def test_run_options_key_separates_engines(self):
        assert (
            RunOptions(engine="object").result_key_parts()
            != RunOptions(engine="soa").result_key_parts()
        )

    def test_simulate_honours_engine_option(self):
        """``simulate`` under ``engine="soa"`` returns the object
        engine's exact counters (and actually ran the SoA core — the
        memo keys the engines apart, so no cache can alias them)."""
        results = {}
        for engine in ("object", "soa"):
            set_run_options(RunOptions(engine=engine))
            result = simulate(
                "abaqus", 0.004, "4K", "64K", HierarchyKind.VR
            )
            results[engine] = json.dumps(
                {
                    "refs": result.refs_processed,
                    "bus": result.bus_transactions,
                    "metrics": result.metrics().snapshot(),
                },
                sort_keys=True,
            )
        assert results["object"] == results["soa"]


class TestDifferentialHarness:
    def test_tier1_vr_bit_identical(self):
        diff = diff_workload("abaqus", scale=0.01)
        assert diff.equal, diff.mismatches

    def test_tier1_rr_bit_identical(self):
        config = HierarchyConfig.sized(
            "4K", "64K", kind=HierarchyKind.RR_INCLUSION
        )
        diff = diff_workload("thor", scale=0.005, config=config)
        assert diff.equal, diff.mismatches


class TestCheckpointRoundTrip:
    SPEC = WorkloadSpec(
        name="ckpt",
        n_cpus=2,
        total_refs=6_000,
        context_switches=6,
        seed=11,
        text_pages=8,
        data_pages=32,
    )
    CONFIG = HierarchyConfig.sized("1K", "8K")

    def _records_and_layout(self):
        workload = SyntheticWorkload(self.SPEC)
        return workload.records(), workload.layout

    def test_soa_checkpoint_resumes_identically(self):
        """Export mid-run, restore into a fresh SoA machine, finish
        both; every observable must agree."""
        records, layout = self._records_and_layout()
        half = len(records) // 2
        live = _machine(layout, 2, self.CONFIG, "soa")
        live.run(records[:half])
        state = export_machine(live, half, half)

        resumed = _machine(layout, 2, self.CONFIG, "soa")
        restore_machine(resumed, state)

        r_live = live.run(records[half:])
        r_resumed = resumed.run(records[half:])
        assert r_live.refs_processed == r_resumed.refs_processed
        refs = r_live.refs_processed
        assert _digest(live, refs) == _digest(resumed, refs)

    def test_object_checkpoint_resumes_on_soa_core(self):
        """The checkpoint format is engine-agnostic: an object-engine
        export restored into an SoA machine must continue exactly like
        an uninterrupted SoA run (and vice versa by symmetry)."""
        records, layout = self._records_and_layout()
        half = len(records) // 2

        reference = _machine(layout, 2, self.CONFIG, "soa")
        reference.run(records)

        donor = _machine(layout, 2, self.CONFIG, "object")
        donor.run(records[:half])
        state = export_machine(donor, half, half)
        resumed = _machine(layout, 2, self.CONFIG, "soa")
        restore_machine(resumed, state)
        resumed.run(records[half:])

        refs = len([r for r in records if r.is_memory])
        assert _digest(reference, refs) == _digest(resumed, refs)


class TestCheckpointFormat:
    """Exports of fixed machines, pinned to the digests the eager tag
    stores produced.  Lazy sets must not change a checkpoint: a set
    that was never built exports power-on entries, in index order, on
    either engine, and restoring an export reproduces it."""

    FRESH = "4e57d74ae10aae471b3922811d674e65878d9e2e7ba6773db7b40fc2f34bfddb"
    AFTER_20K = {
        HierarchyKind.VR: (
            "1a1d52ed423ea3d53b327e80f024d0152e3ad20359b450a3cbb74be931b53774"
        ),
        HierarchyKind.RR_NO_INCLUSION: (
            "2ffe64c7d0544f56cdcea1500f32609074d9e8643a111a3c3c1a6278b4446b8d"
        ),
    }

    @pytest.mark.parametrize("engine", ["object", "soa"])
    @pytest.mark.parametrize("kind", sorted(AFTER_20K, key=lambda k: k.value))
    def test_export_digests_pinned(self, engine, kind):
        records, layout = trace_records("thor", 0.02)
        n_cpus = get_spec("thor", 0.02).n_cpus
        config = HierarchyConfig.sized("4K", "64K", kind=kind)
        machine = _machine(layout, n_cpus, config, engine)
        assert _digest(machine, 0) == self.FRESH
        refs = machine.run(records[:20_000]).refs_processed
        state = export_machine(machine, 20_000, refs)
        assert canonical_digest(state) == self.AFTER_20K[kind]

        other = "object" if engine == "soa" else "soa"
        restored = _machine(layout, n_cpus, config, other)
        restore_machine(restored, state)
        assert canonical_digest(export_machine(restored, 20_000, refs)) == (
            self.AFTER_20K[kind]
        )
        for hier, source in zip(restored.hierarchies, machine.hierarchies):
            live = set(hier.rcache.store.live_sets())
            assert live <= set(source.rcache.store.live_sets())
            assert len(live) < hier.rcache.config.n_sets


class TestModelChecker:
    def test_soa_state_space_matches_object(self):
        """The BFS over the SoA machine reaches exactly the reference
        engine's abstract states and transitions."""
        scenario = scenario_named("vr-invalidate-wb")
        reports = {
            engine: explore(scenario, with_snoop_table=False, engine=engine)
            for engine in ("object", "soa")
        }
        obj, soa = reports["object"], reports["soa"]
        assert soa.ok
        assert not soa.counterexamples
        assert obj.states == soa.states
        assert [t.to_dict() for t in obj.transitions] == [
            t.to_dict() for t in soa.transitions
        ]
