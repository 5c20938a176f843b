"""The supervised checker runtime: checkpoints, recovery, budgets.

:class:`SupervisedChecker` wraps a group of analysis backends the way
:class:`~repro.pipeline.core.Pipeline` does — it is an event sink and
can drain any :class:`~repro.pipeline.source.EventSource` — but adds
the machinery a long-lived deployment needs:

* **periodic checkpoints** — every ``checkpoint_every`` events the
  complete analysis state is written atomically to
  ``checkpoint_path`` (:func:`~repro.resilience.snapshot.
  write_snapshot`); a killed process resumes from the last checkpoint
  with :meth:`SupervisedChecker.resume` and produces byte-identical
  verdicts to an uninterrupted run;
* **exhaustion recovery** — a :class:`~repro.graph.stepcode.
  SlotsExhausted` from a backend no longer kills the run.  The
  supervisor keeps an in-memory *recovery boundary* (a snapshot plus
  the operations seen since); on exhaustion it rolls the failed
  backend back to the boundary with a compacted pool and replays,
  escalating through the governor's degradation ladder if replay hits
  the wall again;
* **resource governance** — between events, each backend's
  :class:`~repro.resilience.governor.ResourceGovernor` probes its
  budgets and intervenes before hard failures happen.

Failures are contained per backend: one exhausted analysis degrades
alone while the others continue unperturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.core.backend import AnalysisBackend
from repro.core.memo import RegionAssembler, RegionMemo
from repro.events.operations import Operation
from repro.graph.stepcode import SlotsExhausted
from repro.pipeline.source import EventSource, SourceResult
from repro.resilience.governor import (
    Budgets,
    DegradationEvent,
    GovernorError,
    ResourceGovernor,
)
from repro.resilience.snapshot import (
    SnapshotError,
    adopt_state,
    capture_backend,
    previous_snapshot_path,
    read_snapshot,
    restore_backend,
    supports,
    write_snapshot,
)

PathLike = Union[str, Path]

#: How many ladder round-trips one replayed operation may trigger
#: before the supervisor concludes nothing can save it.
MAX_REPLAY_ATTEMPTS = 3


@dataclass(frozen=True)
class SupervisedReport:
    """What happened during a supervised run."""

    events: int
    checkpoints_written: int
    recoveries: int
    degraded: bool
    degradations: tuple[DegradationEvent, ...]

    def summary(self) -> str:
        flag = " [DEGRADED COMPLETENESS]" if self.degraded else ""
        return (
            f"supervised: {self.events} events, "
            f"{self.checkpoints_written} checkpoints, "
            f"{self.recoveries} recoveries, "
            f"{len(self.degradations)} interventions{flag}"
        )


class SupervisedChecker:
    """Run backends under supervision; an event sink like a pipeline.

    Args:
        backends: the analyses to feed, in order.
        checkpoint_every: write a snapshot every this many events
            (``None`` disables periodic checkpoints).
        checkpoint_path: where snapshots go; required when
            ``checkpoint_every`` is set, optional otherwise (a final
            checkpoint can still be requested with :meth:`checkpoint`).
        budgets: resource budgets enforced per backend.
        on_pressure: ``"degrade"`` lets the governor's final rung reset
            the happens-before window (sound, flagged, run completes);
            ``"fail"`` re-raises the original exhaustion instead.
        recovery_window: events between in-memory recovery boundaries.
            Defaults to ``checkpoint_every`` when set, else 256.
            Smaller windows make exhaustion recovery cheaper but
            capture state more often.
        start_position: stream position of the first event this
            instance will see (non-zero when resuming).
        checkpoint_meta: optional provenance stored in every snapshot
            envelope — a JSON-serializable dict, or a callable
            receiving the checkpoint position and returning one (used
            to record the packed trace's block-aligned resume offset,
            which depends on the position being checkpointed).
        stop_check: optional zero-argument callable invoked before
            each event (and each block) is processed.  It may raise
            :class:`~repro.resilience.shutdown.ShutdownRequested` to
            unwind the run at a consistent cut — no event
            half-processed — so the caller can take a final checkpoint
            and exit cleanly (graceful SIGTERM handling).
        memo: a :class:`~repro.core.memo.RegionMemo` enabling region
            memoization: a :class:`~repro.core.memo.RegionAssembler`
            buffers transaction-bounded regions in front of the per-op
            path and offers repeated shapes to the backends as
            summaries (decliners replay).  Positions, checkpoints, and
            recovery are unaffected: operations still held by the
            assembler are not counted in :attr:`position`, so a resume
            re-reads them from the source and re-assembles — verdicts
            stay byte-identical to an unmemoized run.  The memo table
            itself is transient (rebuilt cold after a resume), never
            part of a snapshot.
    """

    def __init__(
        self,
        backends: Sequence[AnalysisBackend],
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[PathLike] = None,
        budgets: Optional[Budgets] = None,
        on_pressure: str = "degrade",
        recovery_window: Optional[int] = None,
        start_position: int = 0,
        checkpoint_meta=None,
        stop_check: Optional[Callable[[], None]] = None,
        memo: Optional[RegionMemo] = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError(
                "checkpoint_every requires a checkpoint_path"
            )
        self.backends = list(backends)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.budgets = budgets if budgets is not None else Budgets()
        self.governors = [
            ResourceGovernor(backend, self.budgets, on_pressure=on_pressure)
            for backend in self.backends
        ]
        self.on_pressure = on_pressure
        if recovery_window is None:
            recovery_window = (
                checkpoint_every if checkpoint_every is not None else 256
            )
        if recovery_window < 1:
            raise ValueError("recovery_window must be >= 1")
        self.recovery_window = recovery_window
        self.checkpoint_meta = checkpoint_meta
        self.stop_check = stop_check
        #: Which checkpoint file this run was rebuilt from (``None``
        #: for a fresh run); the fallback resume sets it to the
        #: ``.prev`` generation when the primary was unreadable.
        self.resumed_from: Optional[Path] = None
        self.position = start_position
        #: Position of the newest on-disk checkpoint; ``position``
        #: minus this is the re-work bound ("checkpoint lag") a crash
        #: right now would cost.
        self.last_checkpoint_position = start_position
        self.checkpoints_written = 0
        self.recoveries = 0
        # Backends without a snapshot codec (e.g. AeroDrome) can still
        # run supervised — governor budgets and stop checks apply —
        # but they have no recovery boundary: exhaustion re-raises
        # instead of rolling back, and checkpoint() rejects them.
        self._boundary: list[Optional[dict]] = [
            capture_backend(backend) if supports(backend) else None
            for backend in self.backends
        ]
        #: Operations (and whole-block operation lists) since the
        #: boundary.
        self._buffer: list = []
        self._buffered_ops = 0
        self.memo = memo
        self._assembler: Optional[RegionAssembler] = None
        if memo is not None:
            # The assembler fronts the per-op path: ``self.process``
            # (an instance attribute shadowing the method) buffers
            # regions and delivers through the original method, which
            # keeps positions, recovery buffers, governor probes, and
            # checkpoint triggers exactly as without memoization.
            deliver = self.process  # the class method, bound
            self._assembler = RegionAssembler(
                deliver, self.process_region, memo
            )
            self.process = self._assembler.process

    # -------------------------------------------------------------- resuming
    @classmethod
    def resume(
        cls, checkpoint_path: PathLike, **options
    ) -> "SupervisedChecker":
        """Rebuild a supervised run from its last checkpoint file.

        The returned checker expects the event stream to continue at
        :attr:`position`; feed it ``ops[checker.position:]`` (or seek
        the recording) and the completed run is byte-identical to one
        that was never interrupted.
        """
        snapshot = read_snapshot(checkpoint_path)
        checker = cls(
            snapshot.restore(),
            checkpoint_path=checkpoint_path,
            start_position=snapshot.position,
            **options,
        )
        checker.resumed_from = Path(checkpoint_path)
        return checker

    @classmethod
    def resume_with_fallback(
        cls, checkpoint_path: PathLike, **options
    ) -> "SupervisedChecker":
        """Resume, falling back to the previous checkpoint generation.

        :meth:`checkpoint` rotates the prior snapshot to
        ``<path>.prev`` before installing a new one, so a checkpoint
        file that was torn or corrupted *after* its atomic write (bad
        disk, truncated copy, bit flips) does not strand the stream:
        this constructor tries the primary file, and on a
        :class:`~repro.resilience.snapshot.SnapshotError` (or a
        missing/unreadable file) restores the ``.prev`` generation
        instead — losing at most one checkpoint interval of progress,
        never restarting from scratch silently.  Check
        :attr:`resumed_from` to see which generation was used.  When
        both generations are bad the error names each one and its
        failure, loudly.
        """
        primary = Path(checkpoint_path)
        failures: list[str] = []
        for candidate in (primary, previous_snapshot_path(primary)):
            try:
                snapshot = read_snapshot(candidate)
                backends = snapshot.restore()
            except (SnapshotError, OSError) as exc:
                failures.append(f"{candidate}: {exc}")
                continue
            checker = cls(
                backends,
                checkpoint_path=primary,
                start_position=snapshot.position,
                **options,
            )
            checker.resumed_from = candidate
            return checker
        raise SnapshotError(
            "no usable checkpoint generation: " + "; ".join(failures)
        )

    # ------------------------------------------------------------ event sink
    def process(self, op: Operation) -> None:
        """Feed one operation to every backend, with recovery."""
        if self.stop_check is not None:
            self.stop_check()
        for index, backend in enumerate(self.backends):
            try:
                backend.process(op)
            except SlotsExhausted as exc:
                self._recover(index, exc, (op,))
        self.position += 1
        self._buffer.append(op)
        self._buffered_ops += 1
        for governor in self.governors:
            if governor.should_check(self.position):
                governor.intervene(self.position)
        if (
            self.checkpoint_every is not None
            and self.position % self.checkpoint_every == 0
        ):
            self.checkpoint()
        elif self._buffered_ops >= self.recovery_window:
            self._refresh_boundary()

    __call__ = process

    def process_block(self, ops: list[Operation]) -> None:
        """Feed one decoded packed block to every backend, with recovery.

        Each backend runs through the whole block, exactly like the
        pipeline fan-out, plus the supervisor's guarantees: an
        exhaustion anywhere rolls the backend back to the recovery
        boundary and replays forward.  The block joins the recovery
        buffer as one entry, and the stop check, governor probes and
        checkpoint trigger run once per block.  With memoization on,
        the operations go through the region assembler one by one
        instead, since regions may span blocks.

        Checkpoints and governor probes fire on *interval crossings*
        rather than exact positions — a block advance can jump over a
        multiple of ``checkpoint_every`` — so a block-fed run may
        checkpoint at slightly different positions than an op-fed one.
        Every checkpoint is still a consistent cut; resumes from either
        produce identical verdicts.
        """
        if self._assembler is not None:
            self._assembler.process_many(ops)
            return
        if self.stop_check is not None:
            self.stop_check()
        for index, backend in enumerate(self.backends):
            process = backend.process
            for done, op in enumerate(ops):
                try:
                    process(op)
                except SlotsExhausted as exc:
                    self._recover(index, exc, ops[: done + 1])
        self._advance(ops)

    def process_region(self, ops, summary) -> None:
        """Feed one memoized region to every backend, with recovery.

        The region-memoization analog of :meth:`process_block`: each
        backend is offered the cached
        :class:`~repro.core.memo.RegionSummary`
        (:meth:`~repro.core.backend.AnalysisBackend.
        apply_region_summary`); decliners — and any backend whose
        offer raised an exhaustion, after its rollback — replay the
        buffered operations.  Position advances by the whole region,
        so checkpoints and governor probes fire on interval crossings,
        exactly like block advances; the buffered operations join the
        recovery buffer as one entry.
        """
        if self.stop_check is not None:
            self.stop_check()
        tid = ops[0].tid
        for index, backend in enumerate(self.backends):
            try:
                accepted = backend.apply_region_summary(summary, tid)
            except SlotsExhausted as exc:
                # The offer may have half-applied; the rollback
                # discards it, then the region replays op-wise below.
                self._recover(index, exc)
                accepted = False
            if accepted:
                continue
            for done, op in enumerate(ops):
                try:
                    backend.process(op)
                except SlotsExhausted as exc:
                    self._recover(index, exc, ops[: done + 1])
        self._advance(ops)

    def _advance(self, ops: list[Operation]) -> None:
        """Account for ``ops`` delivered to every backend as one unit.

        Buffers them as one recovery entry, then fires the governor
        probes and the checkpoint (or boundary refresh) whose interval
        the advance crossed.
        """
        before = self.position
        self.position += len(ops)
        self._buffer.append(ops)
        self._buffered_ops += len(ops)
        for governor in self.governors:
            if governor.should_check_span(before, self.position):
                governor.intervene(self.position)
        if self.checkpoint_every is not None and (
            before // self.checkpoint_every
            != self.position // self.checkpoint_every
        ):
            self.checkpoint()
        elif self._buffered_ops >= self.recovery_window:
            self._refresh_boundary()

    def finish(self) -> None:
        """Signal end of stream to every backend.

        With memoization on, the assembler's buffer (a region still
        open at end of stream) is drained first so no operation is
        lost — and so the final :attr:`position` counts every event.
        """
        if self._assembler is not None:
            self._assembler.flush()
        for backend in self.backends:
            backend.finish()

    def run(self, source: EventSource) -> SourceResult:
        """Drain ``source`` through the supervised backends.

        Sources offering decoded packed blocks (``run_blocks``) are
        drained block-wise, one dispatch per block.
        """
        run_blocks = getattr(source, "run_blocks", None)
        if run_blocks is not None:
            result = run_blocks(self.process_block)
        else:
            result = source.run(self.process)
        self.finish()
        return result

    # ----------------------------------------------------------- checkpoints
    def checkpoint(self, path: Optional[PathLike] = None) -> Path:
        """Write a snapshot now; returns the file written.

        The prior snapshot is rotated to ``<path>.prev`` first
        (:func:`~repro.resilience.snapshot.previous_snapshot_path`),
        so :meth:`resume_with_fallback` always has one known-good
        generation behind the newest.  Also refreshes the in-memory
        recovery boundary — the state just captured is the newest
        consistent cut.
        """
        target = Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        meta = self.checkpoint_meta
        if callable(meta):
            meta = meta(self.position)
        written = write_snapshot(
            target, self.backends, self.position, meta=meta,
            keep_previous=True,
        )
        self.checkpoints_written += 1
        self.last_checkpoint_position = self.position
        self._refresh_boundary()
        return written

    def _refresh_boundary(self) -> None:
        self._boundary = [
            capture_backend(backend) if supports(backend) else None
            for backend in self.backends
        ]
        self._buffer.clear()
        self._buffered_ops = 0

    # -------------------------------------------------------------- recovery
    def _recover(
        self, index: int, exc: SlotsExhausted, tail: Sequence[Operation] = ()
    ) -> None:
        """Roll backend ``index`` back to the boundary and replay.

        ``tail`` holds the operations this backend saw after the last
        buffered item, ending with the one whose ``process`` failed
        (for a failed region offer, the offer half-applied no
        *operation*, so the tail is empty).  The failed call may have
        half-applied its work (edges added, a node allocated, a
        warning reported) — the rollback discards all of that, so
        recovery never duplicates or loses work.  The restore compacts the step-code pool, which is what usually
        clears the exhaustion; if replay hits the wall again the
        governor's ladder escalates, ending (when permitted) in the
        sound-but-flagged window reset.
        """
        if self.on_pressure == "fail":
            raise
        if self._boundary[index] is None:
            raise   # no codec, no rollback: surface the exhaustion
        self.recoveries += 1
        backend = self.backends[index]
        governor = self.governors[index]
        adopt_state(
            backend, restore_backend(self._boundary[index],
                                     compact_pools=True)
        )
        for replayed in self._replay_stream(tail):
            attempts = 0
            while True:
                rollback = capture_backend(backend)
                try:
                    backend.process(replayed)
                    break
                except SlotsExhausted as replay_exc:
                    attempts += 1
                    adopt_state(
                        backend,
                        restore_backend(rollback, compact_pools=True),
                    )
                    if attempts >= MAX_REPLAY_ATTEMPTS:
                        raise GovernorError(
                            f"recovery replay could not get past event "
                            f"{backend.events_processed} after "
                            f"{attempts} attempts: {replay_exc}"
                        ) from replay_exc
                    governor.handle_exhaustion(
                        backend.events_processed, replay_exc
                    )

    def _replay_stream(self, tail: Sequence[Operation]):
        """Every operation since the boundary: buffer, then ``tail``."""
        for item in self._buffer:
            if isinstance(item, list):
                yield from item
            else:
                yield item
        yield from tail

    # --------------------------------------------------------------- results
    @property
    def degraded(self) -> bool:
        """True if any backend runs with degraded completeness."""
        return any(governor.degraded for governor in self.governors)

    def degradations(self) -> list[DegradationEvent]:
        """Every governor intervention, across backends, in order."""
        merged: list[DegradationEvent] = []
        for governor in self.governors:
            merged.extend(governor.events)
        merged.sort(key=lambda event: event.position)
        return merged

    def warnings(self) -> list:
        """All warnings from all backends, in backend order."""
        collected = []
        for backend in self.backends:
            collected.extend(backend.warnings)
        return collected

    def report(self) -> SupervisedReport:
        return SupervisedReport(
            events=self.position,
            checkpoints_written=self.checkpoints_written,
            recoveries=self.recoveries,
            degraded=self.degraded,
            degradations=tuple(self.degradations()),
        )
