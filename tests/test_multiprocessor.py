"""Tests for the machine-level simulator and the value oracle."""

import gc
import weakref

import pytest

from repro.common.errors import ProtocolError
from repro.hierarchy.checker import check_all, check_coherence
from repro.hierarchy.config import HierarchyConfig, HierarchyKind
from repro.system.multiprocessor import Multiprocessor, SimulationResult
from repro.trace.synthetic import SyntheticWorkload
from tests.conftest import tiny_spec


def small_machine(workload, kind=HierarchyKind.VR, l1="1K", l2="8K"):
    config = HierarchyConfig.sized(l1, l2, kind=kind)
    return Multiprocessor(workload.layout, workload.spec.n_cpus, config)


class TestRun:
    def test_processes_whole_trace(self, tiny_workload):
        machine = small_machine(tiny_workload)
        result = machine.run(tiny_workload)
        assert result.refs_processed == tiny_workload.spec.total_refs

    def test_per_cpu_stats_populated(self, tiny_workload):
        machine = small_machine(tiny_workload)
        result = machine.run(tiny_workload)
        assert len(result.per_cpu) == 2
        assert all(stats.l1_refs() > 0 for stats in result.per_cpu)

    def test_aggregate_sums_cpus(self, tiny_workload):
        machine = small_machine(tiny_workload)
        result = machine.run(tiny_workload)
        assert result.aggregate().l1_refs() == sum(
            stats.l1_refs() for stats in result.per_cpu
        )

    def test_h1_h2_in_unit_interval(self, tiny_workload):
        result = small_machine(tiny_workload).run(tiny_workload)
        assert 0 < result.h1 < 1
        assert 0 <= result.h2 <= 1

    def test_context_switches_delivered(self, tiny_workload):
        machine = small_machine(tiny_workload)
        machine.run(tiny_workload)
        total = sum(
            h.stats.counters["context_switches"] for h in machine.hierarchies
        )
        assert total == tiny_workload.spec.context_switches

    def test_bus_transactions_reported(self, tiny_workload):
        result = small_machine(tiny_workload).run(tiny_workload)
        assert result.bus_transactions.get("read_miss", 0) > 0

    def test_settle_drains_buffers(self, tiny_workload):
        machine = small_machine(tiny_workload)
        machine.run(tiny_workload)
        machine.settle()
        assert all(len(h.write_buffer) == 0 for h in machine.hierarchies)


class TestValueOracle:
    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_oracle_passes_for_all_kinds(self, kind):
        workload = SyntheticWorkload(tiny_spec(total_refs=6000))
        machine = small_machine(workload, kind=kind)
        machine.run(workload, check_values=True)

    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_invariants_hold_after_run(self, kind):
        workload = SyntheticWorkload(tiny_spec(total_refs=6000))
        machine = small_machine(workload, kind=kind)
        machine.run(workload)
        for hier in machine.hierarchies:
            check_all(hier)
        check_coherence(machine.hierarchies)

    def test_oracle_detects_injected_corruption(self, tiny_workload):
        machine = small_machine(tiny_workload)
        records = tiny_workload.records()
        split = len(records) // 2
        machine.run(records[:split], check_values=True)
        # Corrupt one dirty version stamp somewhere in the machine.
        corrupted = False
        for hier in machine.hierarchies:
            for l1 in hier.l1_caches:
                for block in l1.store.present_blocks():
                    if block.dirty:
                        block.version += 1_000_000
                        corrupted = True
                        break
                if corrupted:
                    break
            if corrupted:
                break
        if not corrupted:
            pytest.skip("no dirty level-1 block at the split point")
        with pytest.raises(ProtocolError):
            machine.run(records[split:], check_values=True)


class TestSplitAndSizes:
    def test_split_l1_runs_clean(self, tiny_workload):
        config = HierarchyConfig.sized("1K", "8K", split_l1=True)
        machine = Multiprocessor(tiny_workload.layout, 2, config)
        machine.run(tiny_workload, check_values=True)
        for hier in machine.hierarchies:
            check_all(hier)

    def test_bigger_l1_hits_more(self):
        spec = tiny_spec(total_refs=6000)
        small = small_machine(SyntheticWorkload(spec), l1=".5K")
        big = small_machine(SyntheticWorkload(spec), l1="4K")
        h1_small = small.run(SyntheticWorkload(spec)).h1
        h1_big = big.run(SyntheticWorkload(spec)).h1
        assert h1_big > h1_small

    def test_l2_block_bigger_than_l1_block(self, tiny_workload):
        config = HierarchyConfig.sized(
            "1K", "8K", block_size=16, l2_block_size=32
        )
        machine = Multiprocessor(tiny_workload.layout, 2, config)
        machine.run(tiny_workload, check_values=True)
        for hier in machine.hierarchies:
            check_all(hier)

    def test_set_associative_levels(self, tiny_workload):
        config = HierarchyConfig.sized(
            "1K", "8K", l1_associativity=2, l2_associativity=4
        )
        machine = Multiprocessor(tiny_workload.layout, 2, config)
        machine.run(tiny_workload, check_values=True)
        for hier in machine.hierarchies:
            check_all(hier)


class TestLifetime:
    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_dropped_machine_freed_without_cyclic_collector(
        self, tiny_workload, kind
    ):
        machine = small_machine(tiny_workload, kind)
        machine.run(tiny_workload.records())
        stores = [weakref.ref(h.rcache.store) for h in machine.hierarchies]
        stores += [
            weakref.ref(l1.store)
            for h in machine.hierarchies
            for l1 in h.l1_caches
        ]
        gc.disable()
        try:
            del machine
            assert all(ref() is None for ref in stores)
        finally:
            gc.enable()


class TestSimulationResult:
    def test_empty_result_ratios(self):
        result = SimulationResult(per_cpu=[])
        assert result.h1 == 0.0
        assert result.h2 == 0.0

    @pytest.mark.parametrize("kind", list(HierarchyKind))
    def test_walker_meter_only_on_walker_runs(self, tiny_workload, kind):
        records = tiny_workload.records()
        walked = small_machine(tiny_workload, kind).run(records)
        meter = walked.walker
        assert sorted(meter) == ["escapes", "escapes_by", "native"]
        assert meter["native"] > 0
        assert meter["escapes"] + meter["native"] <= walked.refs_processed
        assert sum(meter["escapes_by"].values()) == meter["escapes"]
        scalar = small_machine(tiny_workload, kind).run_scalar(records)
        checked = small_machine(tiny_workload, kind).run(
            records, check_values=True
        )
        assert scalar.walker == {} and checked.walker == {}
        # The meter describes the replay, not the simulation.
        assert walked.metrics().snapshot() == scalar.metrics().snapshot()
