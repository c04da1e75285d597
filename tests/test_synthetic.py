"""Tests for the synthetic workload generator."""

import pytest

from repro.common.errors import ConfigurationError
from repro.trace.analyze import profile_call_writes, summarize
from repro.trace.record import RefKind
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec
from repro.trace.workloads import (
    FULL_SCALE_REFS,
    get_spec,
    make_workload,
    workload_names,
)
from tests.conftest import tiny_spec


class TestSpecValidation:
    def test_defaults_valid(self):
        WorkloadSpec()

    def test_write_frac_derived(self):
        spec = WorkloadSpec(instr_frac=0.5, read_frac=0.4)
        assert spec.write_frac == pytest.approx(0.1)

    def test_fractions_over_one_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(instr_frac=0.7, read_frac=0.4)

    def test_zero_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_cpus=0)

    def test_negative_switches_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(context_switches=-1)

    def test_scaled_length(self):
        spec = WorkloadSpec(total_refs=1000, context_switches=10)
        scaled = spec.scaled(0.5)
        assert scaled.total_refs == 500
        assert scaled.context_switches == 5

    def test_scaled_keeps_at_least_one_switch(self):
        spec = WorkloadSpec(total_refs=100_000, context_switches=7)
        assert spec.scaled(0.01).context_switches == 1

    def test_scaled_zero_switches_stay_zero(self):
        spec = WorkloadSpec(total_refs=1000, context_switches=0)
        assert spec.scaled(0.5).context_switches == 0

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec().scaled(0)


class TestGeneration:
    def test_exact_memory_ref_count(self):
        spec = tiny_spec(total_refs=5000)
        summary = summarize(SyntheticWorkload(spec), "t")
        assert summary.total_refs == 5000

    def test_deterministic_for_same_seed(self):
        spec = tiny_spec()
        first = SyntheticWorkload(spec).records()
        second = SyntheticWorkload(spec).records()
        assert first == second

    def test_reiteration_repeats_the_trace(self):
        workload = SyntheticWorkload(tiny_spec())
        assert list(workload) == list(workload)

    def test_different_seed_different_trace(self):
        first = SyntheticWorkload(tiny_spec(seed=1)).records()
        second = SyntheticWorkload(tiny_spec(seed=2)).records()
        assert first != second

    def test_mix_close_to_targets(self):
        spec = tiny_spec(total_refs=20000)
        summary = summarize(SyntheticWorkload(spec), "t")
        assert summary.instr_count / summary.total_refs == pytest.approx(
            spec.instr_frac, abs=0.02
        )
        assert summary.data_read / summary.total_refs == pytest.approx(
            spec.read_frac, abs=0.02
        )

    def test_context_switch_count(self):
        spec = tiny_spec(context_switches=6)
        summary = summarize(SyntheticWorkload(spec), "t")
        assert summary.context_switches == 6

    def test_cpus_covered(self):
        spec = tiny_spec(n_cpus=2)
        summary = summarize(SyntheticWorkload(spec), "t")
        assert summary.cpus == {0, 1}

    def test_all_addresses_translate(self):
        workload = SyntheticWorkload(tiny_spec(total_refs=3000))
        for record in workload:
            if record.is_memory:
                workload.layout.translate(record.pid, record.vaddr)

    def test_switch_changes_pid(self):
        spec = tiny_spec(context_switches=4, processes_per_cpu=2)
        workload = SyntheticWorkload(spec)
        current = {}
        for record in workload:
            if record.kind is RefKind.CSWITCH:
                assert current.get(record.cpu) != record.pid
                current[record.cpu] = record.pid
            elif record.is_memory and record.cpu in current:
                assert record.pid == current[record.cpu]

    def test_call_bursts_match_table1_shape(self):
        spec = tiny_spec(total_refs=30000, call_rate=0.01)
        profile = profile_call_writes(SyntheticWorkload(spec).records())
        assert profile.per_call, "no call bursts generated"
        # Six-write register saves dominate, as in the paper's Table 1.
        assert max(profile.per_call, key=profile.per_call.get) in (6, 9)

    def test_synonym_frames_exist(self):
        workload = SyntheticWorkload(tiny_spec())
        assert workload.layout.reverse_map.synonym_frames()

    def test_shared_segment_crosses_processes(self):
        workload = SyntheticWorkload(tiny_spec())
        layout = workload.layout
        pids = layout.pids()
        shared = [s for s in layout.segments() if s.name.startswith("shm")]
        assert {seg.pid for seg in shared} == set(pids)


class TestSurrogates:
    def test_names(self):
        assert workload_names() == ["thor", "pops", "abaqus"]

    def test_full_scale_refs_match_table5(self):
        assert FULL_SCALE_REFS["pops"] == 3_286_000
        assert get_spec("pops").total_refs == 3_286_000

    def test_cpu_counts_match_table5(self):
        assert get_spec("thor").n_cpus == 4
        assert get_spec("pops").n_cpus == 4
        assert get_spec("abaqus").n_cpus == 2

    def test_switch_counts_match_table5(self):
        assert get_spec("thor").context_switches == 21
        assert get_spec("pops").context_switches == 7
        assert get_spec("abaqus").context_switches == 292

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get_spec("nonesuch")

    def test_make_workload_scaled(self):
        workload = make_workload("abaqus", scale=0.01)
        summary = summarize(workload, "abaqus")
        assert summary.total_refs == round(FULL_SCALE_REFS["abaqus"] * 0.01)

    def test_abaqus_switches_frequent(self):
        # The defining trait of the abaqus trace (paper section 4).
        abaqus = get_spec("abaqus")
        pops = get_spec("pops")
        assert (
            abaqus.context_switches / abaqus.total_refs
            > 50 * pops.context_switches / pops.total_refs
        )
