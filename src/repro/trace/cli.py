"""``repro-trace`` — generate, convert and inspect trace files.

Subcommands:

``gen``
    Generate a synthetic workload trace to a file.  With ``--stream``
    the trace is produced through the bounded-chunk stream layer, so
    a full-scale (multi-million-reference) trace is written without
    ever being materialised.

``convert``
    Convert between the din-style text format (``.din``/``.txt``,
    optionally ``.gz``) and the RPTB gzip-framed binary format
    (``.rtb``).  The output format follows the output suffix; the
    input format is sniffed.  Conversion is deterministic, so text →
    binary → text round trips are byte-identical.

``info``
    Print a trace's metadata (format, record counts, digest) as JSON.

``head``
    Print the first N records as text lines.

``replay``
    Replay a trace file through the simulator (streamed, bounded
    memory) and print the resulting counters — the quickest way to
    point the machine at an external trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..common.errors import ReproError
from .stream import DEFAULT_CHUNK_RECORDS

#: Output suffixes that select the binary format in ``convert``/``gen``.
_BINARY_SUFFIXES = (".rtb",)


def _is_binary_path(path: Path) -> bool:
    return path.suffix in _BINARY_SUFFIXES


def _write_trace(source, path: Path, chunk_records: int) -> int:
    """Write *source* to *path* in the format its suffix selects."""
    if _is_binary_path(path):
        from .binio import write_binary

        return write_binary(source, path, chunk_records)
    from .textio import dump

    return dump(source, path)


def cmd_gen(args: argparse.Namespace) -> int:
    from .workloads import get_spec, make_workload

    out = Path(args.out)
    chunk = args.chunk_records
    if args.stream:
        from .stream import SyntheticTraceStream

        source = SyntheticTraceStream(get_spec(args.workload, args.scale), chunk)
    else:
        source = make_workload(args.workload, args.scale).records()
    written = _write_trace(source, out, chunk)
    print(f"{out}: {written} records ({args.workload} @ scale {args.scale:g})")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from .formats import open_trace

    stream = open_trace(args.input, chunk_records=args.chunk_records)
    out = Path(args.output)
    written = _write_trace(stream, out, args.chunk_records)
    print(f"{args.input} -> {out}: {written} records")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from .formats import open_trace

    stream = open_trace(args.input)
    info = stream.describe()
    if info.get("records") is None and args.count:
        info["records"] = sum(len(chunk) for chunk in stream.chunks())
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def cmd_head(args: argparse.Namespace) -> int:
    from itertools import islice

    from .formats import open_trace

    stream = open_trace(args.input)
    for record in islice(iter(stream), args.n):
        print(record)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from ..experiments.base import (
        RunOptions,
        get_run_options,
        set_run_options,
        simulate,
    )
    from ..hierarchy.config import HierarchyKind

    options = RunOptions(
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
    )
    previous = set_run_options(options)
    try:
        result = simulate(
            f"file:{args.input}",
            1.0,
            args.l1,
            args.l2,
            HierarchyKind(args.kind),
        )
    finally:
        set_run_options(previous)
    summary = {
        "refs_processed": result.refs_processed,
        "h1": round(result.h1, 6),
        "h2": round(result.h2, 6),
        "bus": result.bus_transactions,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate, convert and inspect simulator trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chunk(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--chunk-records",
            type=int,
            default=DEFAULT_CHUNK_RECORDS,
            help="records per stream chunk / binary frame "
            f"(default {DEFAULT_CHUNK_RECORDS})",
        )

    gen = sub.add_parser("gen", help="generate a synthetic workload trace")
    gen.add_argument("workload", help="workload name (thor, pops, abaqus)")
    gen.add_argument("--scale", type=float, default=0.1, help="trace scale")
    gen.add_argument("--out", required=True, help="output path (.din/.rtb/.gz)")
    gen.add_argument(
        "--stream",
        action="store_true",
        help="generate through the stream layer (bounded memory)",
    )
    add_chunk(gen)
    gen.set_defaults(fn=cmd_gen)

    convert = sub.add_parser("convert", help="convert between trace formats")
    convert.add_argument("input", help="input trace (format sniffed)")
    convert.add_argument("output", help="output path (.din/.rtb/.gz)")
    add_chunk(convert)
    convert.set_defaults(fn=cmd_convert)

    info = sub.add_parser("info", help="print trace metadata as JSON")
    info.add_argument("input", help="trace file or SynchroTrace directory")
    info.add_argument(
        "--count",
        action="store_true",
        help="count records when the format header doesn't carry a total",
    )
    info.set_defaults(fn=cmd_info)

    head = sub.add_parser("head", help="print the first records as text")
    head.add_argument("input", help="trace file or SynchroTrace directory")
    head.add_argument("-n", type=int, default=10, help="records to print")
    head.set_defaults(fn=cmd_head)

    replay = sub.add_parser(
        "replay", help="replay a trace through the simulator (streamed)"
    )
    replay.add_argument("input", help="trace file or SynchroTrace directory")
    replay.add_argument("--l1", default="4K", help="level-1 size")
    replay.add_argument("--l2", default="64K", help="level-2 size")
    replay.add_argument(
        "--kind",
        default="vr",
        choices=["vr", "rr-incl", "rr-noincl"],
        help="hierarchy organisation",
    )
    replay.add_argument(
        "--checkpoint-dir", default=None, help="checkpoint directory (resumable)"
    )
    replay.add_argument(
        "--checkpoint-every",
        type=int,
        default=200_000,
        help="records between checkpoints",
    )
    replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
