"""Live daemon metrics, and the HTTP endpoint that exposes them.

The daemon is headless; the only way to see inside a running one is
this module.  :class:`ServeMetrics` aggregates counters from every
stream outcome (thread-safe — the socket listener and the main loop
both touch it), keeps a *capped* ring of recent round samples for the
events/sec estimate, and renders one JSON document.  :class:`
MetricsServer` is a stdlib ``ThreadingHTTPServer`` — no dependencies —
serving:

* ``GET /metrics`` — the full counter document (see
  :meth:`ServeMetrics.snapshot`);
* ``GET /streams`` — per-stream registry states;
* ``GET /healthz`` — liveness: ``{"ok": true}`` while the daemon loop
  runs.

Everything here is observational: killing the metrics server (or never
starting it) changes no verdict.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.resilience.ringlog import RingLog

#: Round samples kept for the throughput estimate.
_RECENT_ROUNDS = 64


class ServeMetrics:
    """Thread-safe counters over everything the daemon has done."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.rounds = 0
        self.events_total = 0
        self.warnings_total = 0
        self.streams_done = 0
        self.streams_failed_attempts = 0
        self.streams_parked = 0
        self.streams_quarantined = 0
        self.duplicates_dropped = 0
        self.ingested_sockets = 0
        self.checkpoints_written = 0
        self.recoveries = 0
        self.degradations = 0
        self.degraded_streams = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        self.quarantined_records = 0
        self.max_checkpoint_lag = 0
        self.interrupted = False
        #: (monotonic time, events in round) samples, newest last.
        self._recent: RingLog = RingLog(maxlen=_RECENT_ROUNDS)

    # -------------------------------------------------------------- recording
    def observe_round(self, events: int) -> None:
        with self._lock:
            self.rounds += 1
            self._recent.append((time.monotonic(), events))

    def observe_outcome(self, outcome: dict) -> None:
        """Fold one stream attempt's outcome into the counters."""
        with self._lock:
            self.events_total += outcome.get("events", 0)
            self.checkpoints_written += outcome.get(
                "checkpoints_written", 0
            )
            self.recoveries += outcome.get("recoveries", 0)
            self.degradations += outcome.get("degradations", 0)
            self.max_checkpoint_lag = max(
                self.max_checkpoint_lag, outcome.get("checkpoint_lag", 0)
            )
            memo = outcome.get("memo")
            if memo:
                self.memo_hits += memo.get("hits", 0)
                self.memo_misses += memo.get("misses", 0)
                self.memo_evictions += memo.get("evictions", 0)
            quarantine = outcome.get("quarantine")
            if quarantine:
                self.quarantined_records += quarantine.get("total", 0)
            status = outcome.get("status")
            if status == "done":
                self.streams_done += 1
                if outcome.get("degraded"):
                    self.degraded_streams += 1
                for backend in outcome.get("backends", ()):
                    self.warnings_total += backend.get("warnings", 0)
            elif status == "failed":
                self.streams_failed_attempts += 1

    def count(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    # -------------------------------------------------------------- rendering
    def events_per_second(self) -> float:
        """Throughput over the retained recent rounds."""
        with self._lock:
            samples = list(self._recent)
        if len(samples) < 2:
            return 0.0
        span = samples[-1][0] - samples[0][0]
        if span <= 0:
            return 0.0
        # The first sample marks the window start; its events predate it.
        return sum(events for _, events in samples[1:]) / span

    def snapshot(
        self,
        registry_counts: Optional[dict] = None,
        workload_families: Optional[dict] = None,
    ) -> dict:
        with self._lock:
            document = {
                "uptime_seconds": round(
                    time.monotonic() - self._started, 3
                ),
                "rounds": self.rounds,
                "events_total": self.events_total,
                "events_per_second": 0.0,   # patched below, needs lock off
                "warnings_total": self.warnings_total,
                "streams": {
                    "done": self.streams_done,
                    "failed_attempts": self.streams_failed_attempts,
                    "parked": self.streams_parked,
                    "quarantined": self.streams_quarantined,
                    "duplicates_dropped": self.duplicates_dropped,
                    "degraded": self.degraded_streams,
                },
                "ingested_sockets": self.ingested_sockets,
                "checkpoints_written": self.checkpoints_written,
                "max_checkpoint_lag": self.max_checkpoint_lag,
                "recoveries": self.recoveries,
                "degradations": self.degradations,
                "memo": {
                    "hits": self.memo_hits,
                    "misses": self.memo_misses,
                    "evictions": self.memo_evictions,
                },
                "quarantined_records": self.quarantined_records,
                "interrupted": self.interrupted,
            }
        document["events_per_second"] = round(self.events_per_second(), 1)
        if registry_counts is not None:
            document["registry"] = dict(sorted(registry_counts.items()))
        if workload_families:
            # Streams whose content matches a lab-recorded trace
            # digest, counted per server workload family.
            document["workload_families"] = dict(
                sorted(workload_families.items())
            )
        return document


class _Handler(BaseHTTPRequestHandler):
    """Routes the three read-only endpoints; everything else is 404."""

    server: "MetricsServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = self.path.split("?", 1)[0].rstrip("/") or "/"
        payload = self.server.route(route)
        if payload is None:
            self.send_error(404, "unknown endpoint")
            return
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        """Silence per-request stderr logging."""


class MetricsServer:
    """The status endpoint, on its own daemon thread.

    Args:
        sources: route -> zero-argument callable returning the JSON
            payload (``/metrics``, ``/streams``, ...).  ``/healthz``
            is built in.
        port: TCP port on localhost; ``0`` binds an ephemeral one
            (read :attr:`port` after :meth:`start`).
    """

    def __init__(self, sources: dict[str, Callable[[], dict]],
                 port: int = 0):
        self._sources = dict(sources)
        self._sources.setdefault("/healthz", lambda: {"ok": True})
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.route = self.route  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-metrics",
            daemon=True,
        )

    def route(self, path: str):
        source = self._sources.get(path)
        return None if source is None else source()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
