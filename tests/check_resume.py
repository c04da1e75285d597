"""Interrupt-and-rerun smokes for the experiment CLI and the stream layer.

Used by CI as::

    python -m tests.check_resume resume-work
    python -m tests.check_resume --stream stream-work [REFS]

The default mode drives the real ``repro-experiment`` CLI as
subprocesses and checks that the disk cache resumes an interrupted
parallel grid:

1. an uninterrupted ``--no-cache`` run gives the reference stdout;
2. the same grid, run against an emptied cache directory, is sent
   SIGINT once the cache holds at least two results, and exits with
   code 130 (if the run wins the race and finishes first, exit 0 is
   accepted);
3. a rerun with the same cache directory exits 0, takes exactly the
   stored results from disk, and prints stdout byte-identical to the
   reference;
4. a third run executes **zero** simulations: every one is a disk-cache
   hit.

``--stream`` mode replays the streaming acceptance criterion instead:
a ~1M-reference gzip-binary trace is generated through the stream
layer, replayed once uninterrupted (the reference), then replayed
again with checkpointing and force-SIGINT'd after the first chunk
checkpoint lands; a final run resumes from that checkpoint and its
counters must be **bit-identical** to the uninterrupted reference.

Stdlib only; exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

GRID = ["all", "--scale", "0.02", "--jobs", "2"]
INTERRUPT_AFTER_ENTRIES = 2
WAIT_S = 300.0

_REPORT = re.compile(r"runner: (\d+) simulations: (\d+) run .*?(\d+) from disk cache")


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *argv]


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(_cli(argv), capture_output=True, text=True)


def _report(stderr: str) -> tuple[int, int, int] | None:
    """(simulations, executed, disk hits) from the ``runner:`` line."""
    found = _REPORT.search(stderr)
    return None if found is None else tuple(map(int, found.groups()))


def _cache_entries(cache: Path) -> int:
    return sum(1 for _ in cache.glob("*/*.pkl"))


def _interrupted_run(cache: Path) -> int:
    """Start the grid and SIGINT it once the cache holds results."""
    proc = subprocess.Popen(
        _cli([*GRID, "--cache-dir", str(cache)]),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        # Own process group: the SIGINT must hit only this tree.
        preexec_fn=os.setsid,
    )
    deadline = time.monotonic() + WAIT_S
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if _cache_entries(cache) >= INTERRUPT_AFTER_ENTRIES:
                os.killpg(proc.pid, signal.SIGINT)
                break
            time.sleep(0.05)
        code = proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        print("FAIL: interrupted run did not exit in time", file=sys.stderr)
        return -1
    finally:
        if proc.stderr is not None:
            sys.stderr.write(proc.stderr.read())
    return code


def grid_main(work: Path) -> int:
    """The grid smoke: reference, interrupt, rerun, rerun again."""
    cache = work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)

    reference = _run([*GRID, "--no-cache"])
    if reference.returncode != 0:
        sys.stderr.write(reference.stderr)
        print(f"FAIL: reference run exited {reference.returncode}", file=sys.stderr)
        return 1
    print("reference run: exit 0")

    code = _interrupted_run(cache)
    if code not in (130, 0):
        print(f"FAIL: interrupted run exited {code}, wanted 130 (or 0)", file=sys.stderr)
        return 1
    stored = _cache_entries(cache)
    print(
        f"interrupted run: exit {code} "
        f"({'interrupted' if code == 130 else 'finished before the SIGINT'}), "
        f"{stored} cached result(s)"
    )

    rerun = _run([*GRID, "--cache-dir", str(cache)])
    sys.stderr.write(rerun.stderr)
    if rerun.returncode != 0:
        print(f"FAIL: rerun exited {rerun.returncode}", file=sys.stderr)
        return 1
    if rerun.stdout != reference.stdout:
        print("FAIL: rerun stdout differs from the uninterrupted run", file=sys.stderr)
        return 1
    report = _report(rerun.stderr)
    if report is None or report[2] != stored:
        print(
            f"FAIL: rerun took {report} (simulations, run, from disk), "
            f"wanted {stored} from disk",
            file=sys.stderr,
        )
        return 1
    print(
        f"rerun: exit 0, stdout identical to the uninterrupted run, "
        f"{report[1]} of {report[0]} simulations run"
    )

    again = _run([*GRID, "--cache-dir", str(cache)])
    sys.stderr.write(again.stderr)
    if again.returncode != 0:
        print(f"FAIL: third run exited {again.returncode}", file=sys.stderr)
        return 1
    report = _report(again.stderr)
    if report is None or report[1] != 0:
        print(f"FAIL: third run executed simulations: {report}", file=sys.stderr)
        return 1
    print("third run: zero simulations run, all cache hits")
    print("check_resume: all checks passed")
    return 0


#: Streamed-smoke trace length (memory references): just past 1M at
#: full pops reference density.
STREAM_REFS = 1_002_000
_POPS_FULL_REFS = 3_286_000
_STREAM_CHECKPOINT_EVERY = 200_000


def _stream_replay_cmd(trace: Path, checkpoints: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro.trace.cli",
        "replay",
        str(trace),
        "--l1",
        "4K",
        "--l2",
        "64K",
        "--checkpoint-dir",
        str(checkpoints),
        "--checkpoint-every",
        str(_STREAM_CHECKPOINT_EVERY),
    ]


def _stream_interrupted_run(trace: Path, checkpoints: Path) -> int:
    """Start a checkpointed replay, SIGINT it at the first checkpoint."""
    proc = subprocess.Popen(
        _stream_replay_cmd(trace, checkpoints),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=os.setsid,
    )
    deadline = time.monotonic() + WAIT_S
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if any(checkpoints.glob("*.ckpt")):
                os.killpg(proc.pid, signal.SIGINT)
                break
            time.sleep(0.05)
        code = proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        print("FAIL: interrupted replay did not exit in time", file=sys.stderr)
        return -1
    finally:
        if proc.stderr is not None:
            sys.stderr.write(proc.stderr.read())
    return code


def stream_main(work: Path, refs: int = STREAM_REFS) -> int:
    """The streaming smoke: generate, interrupt mid-trace, resume."""
    work.mkdir(parents=True, exist_ok=True)
    trace = work / "stream.rtb"
    scale = refs / _POPS_FULL_REFS

    if trace.is_file() and trace.stat().st_size > 0:
        # CI restores the trace from an actions/cache entry keyed on
        # the trace-layer sources; the reference-length guard below
        # still rejects a trace that doesn't match the requested refs.
        print(f"reusing cached {trace} ({trace.stat().st_size} bytes)")
    else:
        gen = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.trace.cli",
                "gen",
                "pops",
                "--scale",
                f"{scale:.6f}",
                "--stream",
                "--out",
                str(trace),
            ],
            stderr=subprocess.PIPE,
            text=True,
        )
        sys.stderr.write(gen.stderr)
        if gen.returncode != 0:
            print(f"FAIL: trace generation exited {gen.returncode}", file=sys.stderr)
            return 1
        print(f"generated {trace} ({trace.stat().st_size} bytes)")

    ref_ck = work / "ck-reference"
    reference = subprocess.run(
        _stream_replay_cmd(trace, ref_ck),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    sys.stderr.write(reference.stderr)
    if reference.returncode != 0:
        print(
            f"FAIL: reference replay exited {reference.returncode}",
            file=sys.stderr,
        )
        return 1
    expected = json.loads(reference.stdout)
    if expected["refs_processed"] < refs * 0.99:
        print(
            f"FAIL: streamed trace too short "
            f"({expected['refs_processed']} refs, wanted ~{refs})",
            file=sys.stderr,
        )
        return 1
    print(f"reference replay: {expected['refs_processed']} refs")

    resume_ck = work / "ck-resume"
    code = _stream_interrupted_run(trace, resume_ck)
    if code == 0:
        print("WARNING: replay finished before the SIGINT landed")
    elif code != 130:
        print(f"FAIL: interrupted replay exited {code}, wanted 130", file=sys.stderr)
        return 1
    else:
        if not any(resume_ck.glob("*.ckpt")):
            print("FAIL: interrupted replay left no checkpoint", file=sys.stderr)
            return 1
        print("interrupted replay: exit 130 with a mid-trace checkpoint")

    resumed = subprocess.run(
        _stream_replay_cmd(trace, resume_ck),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    sys.stderr.write(resumed.stderr)
    if resumed.returncode != 0:
        print(f"FAIL: resumed replay exited {resumed.returncode}", file=sys.stderr)
        return 1
    actual = json.loads(resumed.stdout)
    if actual != expected:
        print(
            "FAIL: resumed counters differ from the uninterrupted run:\n"
            f"  expected: {json.dumps(expected, sort_keys=True)}\n"
            f"  actual:   {json.dumps(actual, sort_keys=True)}",
            file=sys.stderr,
        )
        return 1
    print("resumed replay: counters bit-identical to the uninterrupted run")
    print("check_resume --stream: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--stream":
        rest = argv[1:]
        if not rest or len(rest) > 2:
            print(
                "usage: python -m tests.check_resume --stream WORKDIR [REFS]",
                file=sys.stderr,
            )
            return 2
        refs = int(rest[1]) if len(rest) == 2 else STREAM_REFS
        return stream_main(Path(rest[0]), refs)
    if len(argv) != 1:
        print(
            "usage: python -m tests.check_resume [--stream] WORKDIR",
            file=sys.stderr,
        )
        return 2
    return grid_main(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main())
