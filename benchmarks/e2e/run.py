"""End-to-end benchmark: the cold paper grid, the parallel grid and
trace-file replay, with per-layer spans timed from outside the program.

Usage::

    python benchmarks/e2e/run.py [--seed N] [--repeat R] [--out DIR]
    python benchmarks/e2e/run.py --workload grid-cold --seed 0 \\
        --seconds 20 --trace 0

Every run of a workload is a fresh child process (``child.py``), so it
starts with an empty memo, trace cache and import.  The orchestrator
is one process and starts one child at a time; the only parallelism is
the program's own worker pool in ``grid-parallel``.

It runs untraced rounds — ``--repeat`` of them, or as many as fit in
``--seconds`` per workload — interleaving the workloads, then one
traced round that records the per-layer spans.  ``--trace 0`` skips
the traced round and reports the end-to-end metrics; ``--trace 1``
reports the per-layer ones.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object.  Every
simulation is checked against ``expected.json``; a mismatch, an
exception or a non-zero program exit counts as failed and makes the
exit code 1.  ``results.json`` and ``spans.jsonl`` are written under
``--out``.  The exit code is 2, with no result printed, when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = workloads.HERE
EXPECTED = HERE / "expected.json"

#: Set-up samples per workload; set-up-only children top up the runs.
#: A set-up is ~0.3 s, so one slow spell of the host can cover several
#: back-to-back samples; nine, taken round-robin over the workloads,
#: keep a single slow sample out of the quartiles.
MIN_SETUP_SAMPLES = 9

#: A child running longer than this is killed and the invocation fails.
CHILD_TIMEOUT_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(workloads.WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="replay-input seed (default 0; 1 is the holdout)",
    )
    length = parser.add_mutually_exclusive_group()
    length.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="untraced rounds (default 5)",
    )
    length.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="run untraced rounds while they fit in this many seconds "
        "per workload (at least one)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only "
        "(default: both)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=HERE / "results",
        help="where results.json and spans.jsonl go "
        "(default: benchmarks/e2e/results)",
    )
    return parser


# -- child processes ------------------------------------------------------------


def spawn(
    workload: workloads.Workload,
    run_id: str,
    work: Path,
    replay_input: workloads.ReplayInput | None,
    spans_dir: Path | None = None,
    setup_only: bool = False,
) -> dict:
    """Run one child and return its run record.

    ``setup_s`` is measured from just before the spawn to the child's
    start of the timed phase (both read the system-wide monotonic
    clock), so it includes interpreter start and imports.
    """
    result = work / f"{run_id}.json"
    log = work / f"{run_id}.log"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload.name,
        "--run-id",
        run_id,
        "--result",
        str(result),
    ]
    if replay_input is not None and not workload.is_grid:
        cmd += ["--input", str(replay_input.path)]
    if spans_dir is not None:
        spans_dir.mkdir(parents=True)
        cmd += ["--spans-dir", str(spans_dir)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "wb") as log_handle:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            stdout=log_handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        ended = time.monotonic()
    if code != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        why = "timed out" if code is None else f"exited {code}"
        raise HarnessError(f"{run_id} ({workload.name}) {why}:\n{tail}")
    run = json.loads(result.read_text(encoding="utf-8"))
    run["setup_s"] = run["ready"] - spawned
    run["elapsed_s"] = ended - spawned
    return run


# -- aggregation ---------------------------------------------------------------


def summary(samples: list[float], unit: str) -> dict:
    """Median with min, max, n and the samples themselves."""
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def e2e_metrics(runs: list[dict], setup_samples: list[float]) -> dict:
    measured = {
        "wall_s": [run["wall_s"] for run in runs],
        "sim_refs_per_s": [run["sim_refs"] / run["wall_s"] for run in runs],
        "cpu_s": [run["cpu_s"] for run in runs],
        "setup_s": setup_samples,
        "peak_rss_mib": [run["peak_rss_mib"] for run in runs],
    }
    return {
        metric["name"]: summary(measured[metric["name"]], metric["unit"])
        for metric in workloads.benchmark_metrics("end_to_end")
    }


def measure(
    args: argparse.Namespace, expected: dict, work: Path
) -> tuple[dict, list[dict]]:
    """Run every selected workload; returns the results document and
    the traced round's spans."""
    names = dict.fromkeys(args.workload or workloads.WORKLOADS)
    selected = [workloads.WORKLOADS[name] for name in names]
    replay_input = None
    if any(not w.is_grid for w in selected):
        replay_input = workloads.write_input(args.seed, args.out / "inputs")
    untraced: dict[str, list[dict]] = {w.name: [] for w in selected}

    def wants_more(w: workloads.Workload, round_no: int) -> bool:
        done = untraced[w.name]
        if not done:
            return True
        if args.seconds is None:
            return round_no < args.repeat
        spent = sum(run["elapsed_s"] for run in done)
        return spent + spent / len(done) <= args.seconds

    round_no = 0
    while active := [w for w in selected if wants_more(w, round_no)]:
        for w in active:
            run_id = f"{w.name}-r{round_no}"
            untraced[w.name].append(spawn(w, run_id, work, replay_input))
        round_no += 1

    report = {
        "seed": args.seed,
        "repeat": args.repeat if args.seconds is None else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "replay_input": None
        if replay_input is None
        else {
            "file": replay_input.path.name,
            "sha256": replay_input.sha256,
            "memory_refs": replay_input.memory_refs,
        },
        "workloads": {},
    }
    setup = {w.name: [run["setup_s"] for run in untraced[w.name]] for w in selected}
    if args.trace != 1:
        for probe_no in range(MIN_SETUP_SAMPLES):
            for w in selected:
                if len(setup[w.name]) < MIN_SETUP_SAMPLES:
                    probe = spawn(
                        w,
                        f"{w.name}-setup{probe_no}",
                        work,
                        replay_input,
                        setup_only=True,
                    )
                    setup[w.name].append(probe["setup_s"])
    all_spans: list[dict] = []
    for w in selected:
        runs = untraced[w.name]
        setup_samples = setup[w.name]
        traced = recorded = None
        if args.trace != 0:
            run_id = f"{w.name}-traced"
            spans_dir = work / run_id
            traced = spawn(w, run_id, work, replay_input, spans_dir=spans_dir)
            recorded = spans.read_spans(spans_dir)
            all_spans.extend(recorded)
        report["workloads"][w.name] = workload_report(
            w, runs, setup_samples, traced, recorded,
            expected, args.seed, replay_input,
        )
    return report, all_spans


def workload_report(
    w: workloads.Workload,
    untraced: list[dict],
    setup_samples: list[float],
    traced: dict | None,
    recorded: list[dict] | None,
    expected: dict,
    seed: int,
    replay_input: workloads.ReplayInput | None,
) -> dict:
    """One workload's results: checks, end-to-end and per-layer metrics.

    End-to-end metrics come from the untraced runs only; the traced
    run is checked like the others and gives the per-layer metrics.
    """
    runs = untraced + ([traced] if traced is not None else [])
    reference: dict[str, str] = {}
    failed = [
        workloads.check(w, run, expected, seed, replay_input, reference)
        for run in runs
    ]
    attempted = sum(run["planned"] for run in runs)
    layers = None
    if traced is not None:
        values = spans.layer_metrics(
            recorded,
            traced["pid"],
            traced["wall_s"],
            [run["wall_s"] for run in untraced],
            traced["counts"],
        )
        layers = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in workloads.benchmark_metrics("per_layer")
        }
    return {
        "why": w.why,
        "seed_applies": w.seed_applies,
        "attempted": attempted,
        "failed": sum(failed),
        "failed_frac": sum(failed) / attempted,
        "metrics": e2e_metrics(untraced, setup_samples),
        "layers": layers,
        "runs": [
            {key: value for key, value in run.items() if key not in ("sims", "ready")}
            | {"failed": n}
            for run, n in zip(runs, failed)
        ],
    }


# -- output ----------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def finish(report: dict, all_spans: list[dict], out: Path) -> int:
    """Write the results, print every metric; returns the exit code."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in all_spans:
            handle.write(json.dumps(span) + "\n")
    (out / "results.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    by_workload = report["workloads"]
    flat: dict[str, dict] = {}
    for name, result in by_workload.items():
        prefix = "" if len(by_workload) == 1 else f"{name}/"
        e2e = result["metrics"] if report["trace"] != 1 else {}
        for metric, value in e2e.items():
            print(
                f"{name:14} {metric:36} {_fmt(value['value']):>12} "
                f"{value['unit']:8} median of {value['n']}, "
                f"min {_fmt(value['min'])}, max {_fmt(value['max'])}"
            )
            flat[prefix + metric] = {"value": value["value"], "unit": value["unit"]}
        print(
            f"{name:14} {'failed_frac':36} {_fmt(result['failed_frac']):>12} "
            f"{'ratio':8} {result['failed']} of {result['attempted']} simulations"
        )
        for metric, value in (result["layers"] or {}).items():
            print(f"{name:14} {metric:36} {_fmt(value['value']):>12} {value['unit']}")
            flat[prefix + metric] = value
    attempted = sum(r["attempted"] for r in by_workload.values())
    failed = sum(r["failed"] for r in by_workload.values())
    print(f"results: {out / 'results.json'}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": flat,
            }
        )
    )
    return 0 if failed == 0 else 1


def _terminated(signum: int, frame: object) -> None:
    # Unwind through spawn(), which kills the running child's group.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        print("run.py: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.repeat < 1 or (args.seconds is not None and args.seconds <= 0):
        print("run.py: --repeat and --seconds must be positive", file=sys.stderr)
        return 2
    if not (workloads.SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {workloads.SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    args.out = args.out.resolve()
    work = args.out / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, all_spans = measure(args, expected, work)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return finish(report, all_spans, args.out)


if __name__ == "__main__":
    sys.exit(main())
