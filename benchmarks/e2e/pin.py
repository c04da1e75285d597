"""Regenerate ``expected.json``, the digests the benchmark checks against.

    python benchmarks/e2e/pin.py

Runs the grid serially and through the 2-worker pool (the two must
agree bit for bit, or nothing is written) and both replay workloads for
replay seeds ``0 .. PINNED_SEEDS-1``.  Re-pin only for a change that is
meant to alter simulated results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import workloads

EXPECTED = workloads.HERE / "expected.json"

#: Replay seeds with pinned digests; other seeds are checked by invariants.
PINNED_SEEDS = 16


def _run(workload: workloads.Workload, **kwargs) -> workloads.Outcome:
    _, timed = workloads.prepare(workload, **kwargs)
    outcome = workloads.collect(timed())
    if outcome.exit_code != 0 or outcome.error is not None:
        raise SystemExit(f"{workload.name} failed:\n{outcome.error or ''}")
    return outcome


def _digests(outcome: workloads.Outcome) -> dict[str, str]:
    return {label: sim["digest"] for label, sim in sorted(outcome.sims.items())}


def main() -> int:
    grids = [_run(workloads.WORKLOADS[name]) for name in ("grid-cold", "grid-parallel")]
    if _digests(grids[0]) != _digests(grids[1]) or (
        grids[0].stdout_sha256 != grids[1].stdout_sha256
    ):
        print("grid-cold and grid-parallel disagree; nothing pinned", file=sys.stderr)
        return 1
    seeds = {}
    for seed in range(PINNED_SEEDS):
        replay_input = workloads.write_input(
            seed, workloads.HERE / "results" / "inputs"
        )
        seeds[str(seed)] = {"input_sha256": replay_input.sha256} | {
            w.kind: _digests(_run(w, input_path=replay_input.path))
            for w in workloads.WORKLOADS.values()
            if not w.is_grid
        }
        print(f"seed {seed} pinned", file=sys.stderr)
    expected = {
        "grid": {
            "scale": workloads.GRID_SCALE,
            "stdout_sha256": grids[0].stdout_sha256,
            "simulations": _digests(grids[0]),
        },
        "replay": {
            "trace": workloads.REPLAY_TRACE,
            "scale": workloads.REPLAY_SCALE,
            "seeds": seeds,
        },
    }
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
