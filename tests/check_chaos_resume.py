"""Standalone chaos smoke: kill workers, interrupt the run, resume it.

Used by CI as::

    python -m tests.check_chaos_resume chaos-work
    python -m tests.check_chaos_resume --stream stream-work [REFS]

The default mode drives the real ``repro-experiment`` CLI as
subprocesses and replays the acceptance criterion of the resilient
runner:

1. a grid run under seeded worker kills, force-interrupted (SIGINT)
   once the journal shows progress, exits with code 130 and leaves a
   well-formed journal behind (if the run wins the race and finishes
   cleanly, that is accepted too);
2. ``--resume`` completes the remainder and exits 0 with nothing
   quarantined;
3. a second ``--resume`` re-executes **zero** jobs — every job is a
   disk-cache hit and the journal does not grow.

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
import signal
import subprocess
import sys
import time
from pathlib import Path

SCALE = "0.02"
GRID = ["table6", "--scale", SCALE, "--jobs", "2"]
CHAOS = ["--chaos-kill-rate", "0.4", "--chaos-seed", "7"]
INTERRUPT_AFTER_LINES = 2
WAIT_S = 300.0


def _flags(work: Path) -> list[str]:
    return [
        "--cache-dir",
        str(work / "cache"),
        "--journal",
        str(work / "journal.jsonl"),
        "--quarantine-dir",
        str(work / "quarantine"),
    ]


def _journal_lines(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn tail is legal mid-run
    return lines


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _interrupted_run(work: Path) -> int:
    """Start the chaotic grid and SIGINT it once the journal moves."""
    journal = work / "journal.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *GRID, *CHAOS, *_flags(work)],
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
            if len(_journal_lines(journal)) >= INTERRUPT_AFTER_LINES:
                os.killpg(proc.pid, signal.SIGINT)
                break
            time.sleep(0.2)
        code = proc.wait(timeout=WAIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        print("FAIL: interrupted run did not exit in time", file=sys.stderr)
        return -1
    finally:
        if proc.stderr is not None:
            sys.stderr.write(proc.stderr.read())
    return code


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
    print("check_chaos_resume --stream: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--stream":
        rest = argv[1:]
        if not rest or len(rest) > 2:
            print(
                "usage: python -m tests.check_chaos_resume --stream WORKDIR [REFS]",
                file=sys.stderr,
            )
            return 2
        refs = int(rest[1]) if len(rest) == 2 else STREAM_REFS
        return stream_main(Path(rest[0]), refs)
    if len(argv) != 1:
        print(
            "usage: python -m tests.check_chaos_resume [--stream] WORKDIR",
            file=sys.stderr,
        )
        return 2
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    journal = work / "journal.jsonl"

    code = _interrupted_run(work)
    if code not in (130, 0, 3):
        print(f"FAIL: chaotic run exited {code}, wanted 130 (or 0/3)", file=sys.stderr)
        return 1
    interrupted = code == 130
    print(
        f"chaotic run: exit {code} "
        f"({'interrupted' if interrupted else 'finished before the SIGINT'}), "
        f"{len(_journal_lines(journal))} journalled job(s)"
    )

    resume = _run([*GRID, *CHAOS, *_flags(work), "--resume"])
    sys.stderr.write(resume.stderr)
    if resume.returncode != 0:
        print(f"FAIL: --resume exited {resume.returncode}", file=sys.stderr)
        return 1
    entries = _journal_lines(journal)
    quarantined = [e for e in entries if e.get("outcome") in ("quarantined", "timed_out")]
    if quarantined:
        print(f"FAIL: resume left quarantined jobs: {quarantined}", file=sys.stderr)
        return 1
    print(f"resume run: exit 0, journal at {len(entries)} job(s)")

    before = len(entries)
    again = _run([*GRID, *CHAOS, *_flags(work), "--resume"])
    sys.stderr.write(again.stderr)
    if again.returncode != 0:
        print(f"FAIL: second --resume exited {again.returncode}", file=sys.stderr)
        return 1
    after = len(_journal_lines(journal))
    if after != before:
        print(
            f"FAIL: second --resume re-executed work "
            f"(journal grew {before} -> {after})",
            file=sys.stderr,
        )
        return 1
    if "0 run" not in again.stderr.split("runner:")[-1]:
        print(
            "FAIL: second --resume reported executed jobs:\n" + again.stderr,
            file=sys.stderr,
        )
        return 1
    print("second resume: zero re-executed jobs — all cache hits")
    print("check_chaos_resume: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
