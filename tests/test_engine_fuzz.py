"""Hypothesis differential fuzzing: the walker vs the scalar loop.

Every example draws a short synthetic workload (mixed reference kinds,
synonym aliases, context switches, 2-4 CPUs) and a hierarchy
configuration from a matrix spanning all three organisations, both
protocols, both write policies, multi-way stores, multi-subentry
level-2 blocks and deeper write buffers — then replays the identical
trace through the walker (``Multiprocessor.run``) and through the
scalar reference loop (``Multiprocessor.run_scalar``) and requires
byte-identical metrics snapshots and equal canonical state digests.

This is the randomized half of the replay-equivalence argument; the
deterministic half lives in ``repro-diff`` (tier-1 workloads) and
``test_engine_equivalence.py``.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.differential import canonical_digest
from repro.coherence.protocol import WritePolicy
from repro.faults.checkpoint import export_machine
from repro.hierarchy.config import HierarchyConfig, HierarchyKind, Protocol
from repro.system.multiprocessor import Multiprocessor
from repro.trace.synthetic import SyntheticWorkload, WorkloadSpec

#: Known-valid hierarchy shapes the fuzzer samples from.  Small caches
#: keep the state space dense (more evictions, synonyms and inclusion
#: traffic per reference), which is where the walker could diverge.
CONFIGS = [
    HierarchyConfig.sized("1K", "8K"),
    HierarchyConfig.sized("1K", "8K", l1_associativity=2, l2_associativity=2),
    HierarchyConfig.sized("1K", "8K", l2_block_size=64),
    HierarchyConfig.sized("1K", "8K", l1_pid_tags=True),
    HierarchyConfig.sized("1K", "8K", kind=HierarchyKind.RR_INCLUSION),
    HierarchyConfig.sized("1K", "8K", kind=HierarchyKind.RR_NO_INCLUSION),
    HierarchyConfig.sized("1K", "8K", l1_write_policy=WritePolicy.WRITE_THROUGH),
    HierarchyConfig.sized("1K", "8K", protocol=Protocol.WRITE_UPDATE),
    HierarchyConfig.sized("1K", "8K", split_l1=True, write_buffer_capacity=4),
    HierarchyConfig.sized(
        "2K",
        "16K",
        kind=HierarchyKind.RR_INCLUSION,
        l2_block_size=32,
        l1_associativity=2,
        l1_replacement="fifo",
        l2_replacement="random",
    ),
    # R-R without inclusion: level-2 victims over all ways, four
    # transactions per fill (a peer may hold one of the four
    # sub-blocks), and split halves with a deep write buffer.
    HierarchyConfig.sized(
        "1K",
        "8K",
        kind=HierarchyKind.RR_NO_INCLUSION,
        l1_associativity=2,
        l2_associativity=2,
        l2_replacement="random",
    ),
    HierarchyConfig.sized(
        "1K", "8K", kind=HierarchyKind.RR_NO_INCLUSION, l2_block_size=64
    ),
    HierarchyConfig.sized(
        "1K",
        "8K",
        kind=HierarchyKind.RR_NO_INCLUSION,
        split_l1=True,
        write_buffer_capacity=4,
    ),
]


def _observables(machine: Multiprocessor, result) -> tuple[bytes, str]:
    metrics = json.dumps(result.metrics().snapshot(), sort_keys=True).encode()
    state = export_machine(
        machine, result.refs_processed, result.refs_processed
    )
    return metrics, canonical_digest(state)


@settings(max_examples=25, deadline=None)
@given(
    config_index=st.integers(0, len(CONFIGS) - 1),
    n_cpus=st.integers(2, 4),
    total_refs=st.integers(300, 1500),
    context_switches=st.integers(0, 10),
    alias_pages=st.integers(1, 8),
    shared_pages=st.integers(4, 24),
    processes_per_cpu=st.integers(1, 3),
    seed=st.integers(0, 2**20),
)
def test_engines_bit_identical(
    config_index,
    n_cpus,
    total_refs,
    context_switches,
    alias_pages,
    shared_pages,
    processes_per_cpu,
    seed,
):
    spec = WorkloadSpec(
        name="fuzz",
        n_cpus=n_cpus,
        total_refs=total_refs,
        context_switches=context_switches,
        alias_pages=alias_pages,
        shared_pages=shared_pages,
        processes_per_cpu=processes_per_cpu,
        seed=seed,
        text_pages=4,
        data_pages=8,
        stack_pages=2,
    )
    config = CONFIGS[config_index]
    outputs = {}
    for path in ("scalar", "walker"):
        workload = SyntheticWorkload(spec)
        machine = Multiprocessor(workload.layout, n_cpus, config)
        if path == "walker":
            result = machine.run(workload)
        else:
            result = machine.run_scalar(workload)
        assert result.refs_processed > 0
        outputs[path] = _observables(machine, result)
    assert outputs["scalar"][0] == outputs["walker"][0], (
        "metrics snapshots diverged between the walker and the scalar loop"
    )
    assert outputs["scalar"][1] == outputs["walker"][1], (
        "machine state digests diverged between the walker and the scalar loop"
    )
