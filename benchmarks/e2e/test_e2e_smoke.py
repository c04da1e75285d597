"""Smoke test of the end-to-end benchmark, every workload at a tiny size.

Runs each workload once, traced, in this process (the sizes are
parameters of the workload functions), then checks that the benchmark
emits every metric ``BENCHMARK.json`` names with its unit, that the
spans account for the wall time, and that a wrong pinned digest fails
the run.  About 25 s.

    python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

# pytest puts this directory (it has no __init__.py) on sys.path.
import child
import run
import spans
import workloads

TINY_GRID_SCALE = 0.002
TINY_REPLAY_SCALE = 0.005
SEED = 0


def _digests(record: dict) -> dict[str, str]:
    return {label: sim["digest"] for label, sim in record["sims"].items()}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """One traced run per workload, and digests pinned from them."""
    base = tmp_path_factory.mktemp("e2e")
    replay_input = workloads.write_input(SEED, base / "inputs", TINY_REPLAY_SCALE)
    runs = {}
    for w in workloads.WORKLOADS.values():
        spans_dir = base / w.name
        spans_dir.mkdir()
        record = child.execute(
            w,
            f"{w.name}-smoke",
            input_path=replay_input.path,
            spans_dir=spans_dir,
            scale=TINY_GRID_SCALE,
        )
        runs[w.name] = (record, spans.read_spans(spans_dir))
    grid = runs["grid-cold"][0]
    expected = {
        "grid": {
            "stdout_sha256": grid["stdout_sha256"],
            "simulations": _digests(grid),
        },
        "replay": {
            "seeds": {
                str(SEED): {"input_sha256": replay_input.sha256}
                | {
                    w.kind: _digests(runs[w.name][0])
                    for w in workloads.WORKLOADS.values()
                    if not w.is_grid
                }
            }
        },
    }
    return replay_input, runs, expected


def _report(tiny, expected: dict) -> dict:
    """The benchmark's report, the traced run standing in for the
    untraced ones too."""
    replay_input, runs, _ = tiny
    return {
        "trace": None,
        "workloads": {
            name: run.workload_report(
                workloads.WORKLOADS[name],
                [record],
                [record["setup_s"]],
                record,
                recorded,
                expected,
                SEED,
                replay_input,
            )
            for name, (record, recorded) in runs.items()
        },
    }


def _finish(report: dict, out: Path, capsys) -> tuple[int, dict]:
    code = run.finish(report, [], out)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, capsys):
    code, result = _finish(_report(tiny, tiny[2]), tmp_path, capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    declared = workloads.benchmark_metrics("end_to_end") + workloads.benchmark_metrics(
        "per_layer"
    )
    for name in workloads.WORKLOADS:
        for metric in declared:
            emitted = result["metrics"][f"{name}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"], (name, metric)
            assert isinstance(emitted["value"], (int, float))
    assert (tmp_path / "results.json").is_file()


def test_parallel_grid_matches_serial_grid(tiny):
    _, runs, _ = tiny
    cold, parallel = runs["grid-cold"][0], runs["grid-parallel"][0]
    assert parallel["stdout_sha256"] == cold["stdout_sha256"]
    assert _digests(parallel) == _digests(cold)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_sum_to_wall_time(tiny, name):
    _, runs, _ = tiny
    record, recorded = runs[name]
    pid = record["pid"]
    mine = [s for s in recorded if s["pid"] == pid]
    child_time = {}
    for s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                s["end"] - s["start"]
            )
    self_sum = sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in mine)
    assert abs(record["wall_s"] - self_sum) <= 0.05 * record["wall_s"]


def test_corrupted_digest_fails_every_simulation(tiny, tmp_path, capsys):
    expected = copy.deepcopy(tiny[2])
    expected["grid"]["stdout_sha256"] = "0" * 64
    expected["replay"]["seeds"][str(SEED)]["input_sha256"] = "0" * 64
    report = _report(tiny, expected)
    for result in report["workloads"].values():
        assert result["failed_frac"] == 1
    code, result = _finish(report, tmp_path, capsys)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_one_wrong_simulation_digest_fails_that_simulation(tiny, tmp_path, capsys):
    """The rendered output and the input file still match, so only the
    per-simulation comparison can catch these."""
    expected = copy.deepcopy(tiny[2])
    grid = expected["grid"]["simulations"]
    grid[min(grid)] = "0" * 64
    replay = expected["replay"]["seeds"][str(SEED)]["vr"]
    replay[min(replay)] = "0" * 64
    report = _report(tiny, expected)
    for name, result in report["workloads"].items():
        want = 0 if name == "replay-noincl" else 1
        assert [run["failed"] for run in result["runs"]] == [want] * len(
            result["runs"]
        ), name
    code, result = _finish(report, tmp_path, capsys)
    assert code != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
