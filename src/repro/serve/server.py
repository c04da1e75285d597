"""``repro-serve``: the asyncio HTTP front end of the simulation service.

A deliberately small HTTP/1.1 layer over :mod:`asyncio` streams — no
framework, no new dependencies, one connection per request
(``Connection: close``), JSON in and out.  Endpoints:

* ``POST /simulate`` — run (or fetch) one simulation; the body is a
  :func:`repro.serve.protocol.parse_request` JSON object.  Responses
  carry the deterministic result payload, the job digest, and a
  provenance block (schema hash, git revision, run options, engine).
* ``GET /healthz`` — liveness plus scheduler stats (always 200).
* ``GET /readyz`` — readiness: 200 while admitting, 503 once draining
  or when the admission queue is full.
* ``GET /metricz`` — merged ``serve.*`` + ``runner.*`` counters.
* ``POST /chaosz`` — swap the live chaos config (only with
  ``--allow-chaos``; drills use it to break and heal the worker pool).

Shutdown discipline: SIGTERM or SIGINT flips the server into draining
mode — ``/readyz`` goes 503, new cache misses are refused with 503
``draining`` — in-flight work finishes and is journalled, queued
responses are delivered, metrics are flushed to ``--metrics-out``, and
the process exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any

from ..common.errors import ConfigurationError, RequestError
from ..experiments.base import RunOptions
from ..faults.chaos import ChaosConfig
from ..obs import RunManifest, configure, get_logger
from ..runner.disk_cache import default_cache_dir, key_digest
from ..runner.supervisor import SupervisorConfig, runner_metrics
from .admission import RateLimiter
from .breaker import CircuitBreaker
from .protocol import (
    RateLimitedError,
    ServeRejection,
    error_payload,
    parse_request,
    result_payload,
)
from .scheduler import SchedulerConfig, ServeScheduler, serve_metrics

logger = get_logger("serve.server")

#: Request framing limits: a simulate body is a few hundred bytes, so
#: these are generous without letting a client balloon server memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 64 * 1024
READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render_response(
    status: int, payload: dict[str, Any], extra_headers: dict[str, str] | None = None
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; None when the client sent nothing usable."""
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), READ_TIMEOUT_S
        )
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        TimeoutError,
        asyncio.TimeoutError,  # distinct from builtin TimeoutError on 3.10
        ConnectionError,
    ):
        return None
    if len(head) > MAX_HEADER_BYTES:
        return None
    try:
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        return None
    headers: dict[str, str] = {}
    for line in header_lines:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            return None
        if n < 0 or n > MAX_BODY_BYTES:
            return None
        try:
            body = await asyncio.wait_for(reader.readexactly(n), READ_TIMEOUT_S)
        except (
            asyncio.IncompleteReadError,
            TimeoutError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            return None
    # Query strings are not part of this API; strip them for routing.
    path = path.split("?", 1)[0]
    return method.upper(), path, headers, body


class ServeApp:
    """Routes HTTP requests into the scheduler; owns no policy itself."""

    def __init__(
        self,
        scheduler: ServeScheduler,
        limiter: RateLimiter,
        provenance: dict[str, Any],
        allow_chaos: bool = False,
    ) -> None:
        self.scheduler = scheduler
        self.limiter = limiter
        self.provenance = provenance
        self.allow_chaos = allow_chaos

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, path, headers, body = parsed
            response = await self._dispatch(method, path, headers, body)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception:
            logger.exception("unhandled error serving a connection")
            with_suppress_write(
                writer,
                _render_response(
                    500, error_payload(500, "internal", "internal server error")
                ),
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> bytes:
        if path == "/simulate":
            if method != "POST":
                return _render_response(
                    405, error_payload(405, "method_not_allowed", "POST only")
                )
            return await self._simulate(headers, body)
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/metricz":
            return self._metricz()
        if path == "/chaosz":
            if method != "POST":
                return _render_response(
                    405, error_payload(405, "method_not_allowed", "POST only")
                )
            return self._chaosz(body)
        return _render_response(
            404, error_payload(404, "not_found", f"no route for {path}")
        )

    # -- endpoints -------------------------------------------------------------

    async def _simulate(self, headers: dict[str, str], body: bytes) -> bytes:
        try:
            request = parse_request(body)
        except RequestError as exc:
            return _render_response(
                400, error_payload(400, "bad_request", str(exc))
            )
        client = headers.get("x-client-key") or request.client
        if not self.limiter.allow(client):
            serve_metrics().inc("serve.rate_limited")
            rejection = RateLimitedError(
                f"client {client!r} is over its request rate",
                retry_after_s=self.limiter.retry_after(client),
            )
            return self._rejected(rejection)
        digest = key_digest(request.job().key())
        try:
            source, result = await self.scheduler.submit(request)
        except ServeRejection as exc:
            return self._rejected(exc)
        payload = {
            "source": source,
            "digest": digest,
            "result": result_payload(result),
            "provenance": self.provenance,
        }
        return _render_response(200, payload)

    def _rejected(self, exc: ServeRejection) -> bytes:
        headers: dict[str, str] = {}
        if exc.retry_after_s is not None:
            headers["Retry-After"] = str(max(1, round(exc.retry_after_s)))
        return _render_response(
            exc.status,
            error_payload(exc.status, exc.reason, exc.detail),
            headers,
        )

    def _healthz(self) -> bytes:
        stats = self.scheduler.stats()
        stats["status"] = "draining" if self.scheduler.draining else "ok"
        return _render_response(200, stats)

    def _readyz(self) -> bytes:
        stats = self.scheduler.stats()
        if self.scheduler.draining:
            return _render_response(
                503, error_payload(503, "draining", "server is draining")
            )
        queued = stats.get("queued", 0)
        limit = stats.get("queue_limit", 0)
        if isinstance(limit, int) and limit > 0 and queued >= limit:
            return _render_response(
                503,
                error_payload(
                    503, "saturated", "admission queue is full (shedding)"
                ),
            )
        return _render_response(200, {"ready": True, **stats})

    def _metricz(self) -> bytes:
        merged = serve_metrics().snapshot()
        runner = runner_metrics().snapshot()
        for name, value in runner["counters"].items():
            merged["counters"][name] = value
        merged["counters"] = dict(sorted(merged["counters"].items()))
        return _render_response(200, merged)

    def _chaosz(self, body: bytes) -> bytes:
        if not self.allow_chaos:
            return _render_response(
                404, error_payload(404, "not_found", "chaos endpoint disabled")
            )
        try:
            data = json.loads(body.decode("utf-8")) if body.strip() else {}
            if not isinstance(data, dict):
                raise RequestError("chaos body must be a JSON object")
            chaos = ChaosConfig(**data) if data else None
        except (RequestError, ConfigurationError, TypeError, ValueError) as exc:
            return _render_response(
                400, error_payload(400, "bad_request", f"bad chaos config: {exc}")
            )
        self.scheduler.set_chaos(chaos if chaos is not None and chaos.active else None)
        active = chaos is not None and chaos.active
        logger.warning("chaos config %s via /chaosz", "armed" if active else "cleared")
        return _render_response(200, {"chaos": active})


def with_suppress_write(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Best-effort write on an error path (the peer may be gone)."""
    try:
        writer.write(data)
    except (ConnectionError, RuntimeError):
        pass


# -- wiring and lifecycle ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve cache simulations over HTTP/JSON with request "
            "coalescing, a result cache, admission control and "
            "graceful degradation."
        ),
    )
    net = parser.add_argument_group("network")
    net.add_argument("--host", default="127.0.0.1", help="bind address")
    net.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    net.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound port here once listening (for test drivers)",
    )
    work = parser.add_argument_group("execution")
    work.add_argument(
        "--jobs", type=int, default=2, help="worker processes per batch"
    )
    work.add_argument(
        "--engine",
        choices=("object", "soa"),
        default="object",
        help="replay core to serve results from",
    )
    work.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persistent result cache root (default: the repo cache)",
    )
    work.add_argument(
        "--no-cache", action="store_true", help="disable the disk cache"
    )
    work.add_argument(
        "--job-timeout",
        type=float,
        metavar="S",
        default=120.0,
        help="server-side wall-clock budget per job (0 disables)",
    )
    work.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="failed-job retries before quarantine",
    )
    work.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="run journal path (default: <cache-dir>/serve-journal.jsonl)",
    )
    work.add_argument(
        "--quarantine-dir",
        metavar="DIR",
        default=None,
        help="failure-record directory (default: <cache-dir>/quarantine)",
    )
    adm = parser.add_argument_group("admission and degradation")
    adm.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="admitted-but-unscheduled requests before 429 shedding",
    )
    adm.add_argument(
        "--batch-window",
        type=float,
        default=0.05,
        metavar="S",
        help="how long the batcher waits to fill a batch",
    )
    adm.add_argument(
        "--batch-max", type=int, default=8, metavar="N", help="jobs per batch"
    )
    adm.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="default per-request deadline when the client sends none",
    )
    adm.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="R",
        help="per-client request rate limit, tokens/second (0 = off)",
    )
    adm.add_argument(
        "--burst",
        type=float,
        default=5.0,
        metavar="B",
        help="per-client burst size for the rate limiter",
    )
    adm.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="pool rebuilds inside the window before the breaker opens",
    )
    adm.add_argument(
        "--breaker-window",
        type=float,
        default=30.0,
        metavar="S",
        help="sliding window for counting pool rebuilds",
    )
    adm.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="S",
        help="how long an open breaker waits before probing",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the merged metrics snapshot here on shutdown",
    )
    obs.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
    )
    obs.add_argument(
        "--sanitize",
        action="store_true",
        help="install the event-loop stall watchdog (dumps the loop "
        "thread's stack and counts serve.loop_stall on stalls)",
    )
    parser.add_argument(
        "--allow-chaos",
        action="store_true",
        help="enable POST /chaosz (fault drills only; never in production)",
    )
    return parser


def _build_app(args: argparse.Namespace) -> tuple[ServeApp, ServeScheduler]:
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    options = RunOptions(cache_dir=cache_dir, engine=args.engine)
    journal = args.journal
    quarantine = args.quarantine_dir
    if cache_dir is not None:
        if journal is None:
            journal = str(Path(cache_dir) / "serve-journal.jsonl")
        if quarantine is None:
            quarantine = str(Path(cache_dir) / "quarantine")
    supervisor = SupervisorConfig(
        max_attempts=max(1, args.retries + 1),
        job_timeout_s=args.job_timeout if args.job_timeout > 0 else None,
        journal_path=journal,
        quarantine_dir=quarantine,
    )
    breaker = CircuitBreaker(
        threshold=args.breaker_threshold,
        window_s=args.breaker_window,
        cooldown_s=args.breaker_cooldown,
    )
    scheduler = ServeScheduler(
        options,
        supervisor,
        SchedulerConfig(
            n_workers=max(1, args.jobs),
            queue_limit=args.queue_limit,
            batch_window_s=args.batch_window,
            batch_max=args.batch_max,
            default_deadline_s=args.deadline,
        ),
        breaker=breaker,
    )
    limiter = RateLimiter(rate=args.rate, burst=args.burst)
    manifest = RunManifest.create(experiments=["serve"], scale=0.0, options=options)
    provenance = {
        "schema": manifest.schema_hash,
        "git_rev": manifest.git_rev,
        "python": manifest.python,
        "engine": options.engine,
        "options": manifest.options,
    }
    app = ServeApp(
        scheduler, limiter, provenance, allow_chaos=args.allow_chaos
    )
    return app, scheduler


def _flush_metrics(path: str | None) -> None:
    if path is None:
        return
    merged = serve_metrics().snapshot()
    for name, value in runner_metrics().snapshot()["counters"].items():
        merged["counters"][name] = value
    merged["counters"] = dict(sorted(merged["counters"].items()))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


async def serve_main(args: argparse.Namespace) -> int:
    # Off-loop: building the app reads every schema source file and
    # shells out for the git revision — blocking I/O that must not run
    # on the loop even during startup (repro-lint RPS201).
    app, scheduler = await asyncio.to_thread(_build_app, args)
    await scheduler.start()
    watchdog = None
    if args.sanitize:
        from ..analysis.runtime import LoopStallWatchdog

        watchdog = LoopStallWatchdog(
            asyncio.get_running_loop(), registry=serve_metrics()
        )
        watchdog.start()
    try:
        server = await asyncio.start_server(app.handle, args.host, args.port)
    except OSError as exc:
        logger.error("cannot bind %s:%d: %s", args.host, args.port, exc)
        if watchdog is not None:
            watchdog.stop()
        return 1
    port = server.sockets[0].getsockname()[1]
    if args.port_file:
        await asyncio.to_thread(
            Path(args.port_file).write_text, f"{port}\n", encoding="utf-8"
        )
    logger.info(
        "repro-serve listening on %s:%d (workers=%d, cache=%s)",
        args.host,
        port,
        max(1, args.jobs),
        "off" if args.no_cache else "on",
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()

    logger.info("shutdown signal received: draining")
    await scheduler.drain()
    # In-flight handlers already hold their results; one loop tick lets
    # them flush before the listener goes away.
    await asyncio.sleep(0.05)
    server.close()
    await server.wait_closed()
    if watchdog is not None:
        watchdog.stop()
    await asyncio.to_thread(_flush_metrics, args.metrics_out)
    logger.info("drained cleanly; exiting")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure(args.log_level)
    try:
        return asyncio.run(serve_main(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
