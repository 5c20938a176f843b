"""Open-loop load for ``serve-spool``: upload on a schedule, watch verdicts.

One process, one thread.  Stream ``i`` of the open-loop phase is due
within the ``i``-th slot of ``1/rate`` seconds, whatever happened to
earlier streams; it is uploaded through the daemon's unix socket with
``repro.serve.upload_trace`` (which returns once the daemon has
published the file into its spool).  Between uploads the generator
polls the daemon's stream registry -- one JSON file per stream, from
outside the daemon -- and stamps each stream when it first shows a
terminal status.  A stream's latency runs from when it was due, so
time the generator itself ran late counts against the daemon, and the
lateness is reported.

After the open-loop phase has drained, a closing burst uploads more
streams back to back.  Burst streams finished per second, from the
first one registering to the last verdict, is the capacity figure;
starting at registration keeps the spool's settle protocol, which the
latencies already show, out of it.  A stream that never reaches a
terminal status before its limit is counted as missing it.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracer import clock

#: How often the registry is re-listed while nothing is due.
POLL_SECONDS = 0.005

#: Terminal registry states (``repro.serve.registry.TERMINAL``).
TERMINAL = frozenset({"done", "parked", "quarantined", "duplicate",
                      "rejected"})


@dataclass
class Stream:
    """One upload and what became of it."""

    index: int
    entry: dict                     #: the setup manifest entry
    payload: bytes
    due: float = 0.0
    sent: float = 0.0
    published: float = 0.0
    registered: Optional[float] = None   #: first seen in the registry
    finished: Optional[float] = None
    record: Optional[dict] = field(default=None, repr=False)

    @property
    def latency(self) -> Optional[float]:
        return None if self.finished is None else self.finished - self.due


class RegistryWatch:
    """Reads changed stream records from the daemon's registry dir.

    A record that has reached a terminal status is not looked at
    again, so a poll costs the generator -- which shares the machine
    with the daemon -- in proportion to the streams still in flight.
    """

    def __init__(self, registry_dir: Path):
        self.directory = registry_dir
        self._stamps: dict[str, int] = {}
        self._terminal: set[str] = set()

    def changed(self) -> list[dict]:
        records = []
        try:
            listing = list(os.scandir(self.directory))
        except FileNotFoundError:
            return records
        for item in listing:
            if (not item.name.endswith(".json")
                    or item.name in self._terminal):
                continue
            try:
                stamp = item.stat().st_mtime_ns
                if self._stamps.get(item.name) == stamp:
                    continue
                record = json.loads(Path(item.path).read_text("utf-8"))
            except (OSError, ValueError):
                continue   # replaced mid-read: the next poll sees it
            self._stamps[item.name] = stamp
            if record.get("status") in TERMINAL:
                self._terminal.add(item.name)
            records.append(record)
        return records


class LoadGenerator:
    """Uploads streams and stamps their terminal states."""

    def __init__(self, socket_path: Path, registry_dir: Path):
        from repro.serve import upload_trace

        self._upload = upload_trace
        self.socket_path = socket_path
        self.watch = RegistryWatch(registry_dir)
        self._by_digest: dict[str, Stream] = {}

    def _poll(self) -> None:
        now = clock()
        for record in self.watch.changed():
            stream = self._by_digest.get(record["digest"])
            if stream is None or stream.finished is not None:
                continue
            if stream.registered is None:
                stream.registered = now
            if record["status"] in TERMINAL:
                stream.finished = now
                stream.record = record

    def _send(self, stream: Stream) -> None:
        self._by_digest[stream.entry["digest"]] = stream
        stream.sent = clock()
        self._upload(self.socket_path, stream.payload)
        stream.published = clock()

    def open_loop(
        self, streams: list[Stream], rate: float, seed: int
    ) -> None:
        """Send ``streams`` at ``rate`` per second on a fixed schedule.

        Stream ``i`` is due at a point drawn from ``seed`` within the
        ``i``-th slot of ``1/rate`` seconds.  The jitter keeps the
        arrivals from locking onto the phase of the daemon's spool
        poll, which would make the settle wait depend on the seed.
        """
        rng = random.Random(f"schedule/{seed}")
        start = clock() + 0.1
        for stream in streams:
            stream.due = start + (stream.index + rng.random()) / rate
        for stream in streams:
            while True:
                now = clock()
                if now >= stream.due:
                    break
                self._poll()
                time.sleep(min(POLL_SECONDS, max(0.0, stream.due - now)))
            self._send(stream)
            self._poll()

    def burst(self, streams: list[Stream]) -> float:
        """Send ``streams`` back to back; returns when the burst began."""
        start = clock()
        for stream in streams:
            stream.due = start
            self._send(stream)
            self._poll()
        return start

    def wait(self, streams: list[Stream], until: float) -> None:
        """Poll until every stream is terminal or ``until`` passes."""
        while clock() < until:
            self._poll()
            if all(stream.finished is not None for stream in streams):
                return
            time.sleep(POLL_SECONDS)
