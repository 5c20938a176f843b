"""The repository benchmark: VTRC-to-verdict checks and a served spool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-clock --seed 1 \\
        --seconds 15 --trace 0

Workloads (``perfbench/README.md`` says why each exists):

* ``check-clock`` -- ``repro check --backend aerodrome`` on the five
  server families at ``medium``;
* ``check-graph`` -- ``repro check --backend velodrome`` on the same
  five files;
* ``serve-spool`` -- a ``repro serve`` daemon fed distinct ``smoke``
  and ``small`` streams over its unix socket on an open-loop schedule,
  then a closing burst.

Every check and stream is judged against its family's declared ground
truth (:mod:`gate`) before a number is reported.  Check and set-up
times are scaled to a fixed machine speed (:mod:`reference`).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer``
metrics from a traced run with ``--trace 1``.  A per-layer metric a
workload does not exercise reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: workload -> (kind, backend)
WORKLOADS = {
    "check-clock": ("check", "aerodrome"),
    "check-graph": ("check", "velodrome"),
    "serve-spool": ("serve", "velodrome"),
}

#: Set-ups per run, by workload kind; ``setup_s`` is their median.
#: Recording the ``medium`` check inputs takes 7-15 s on a 2-vCPU
#: machine, half a run, so they are recorded once; the serve streams
#: are cheap enough to record twice.
SETUP_REPEATS = {"check": 1, "serve": 2}

#: serve-spool schedule: open-loop streams per second, one in
#: OPEN_SMALL_EVERY of them ``small`` (the rest ``smoke``); then a
#: closing burst of SERVE_BURST streams, one in BURST_SMALL_EVERY small.
#: The rate keeps the daemon under half busy even when the host runs
#: it at half speed, and gives 10 latency samples beyond p90 at
#: ``--seconds 15``.
SERVE_RATE = 7.0
OPEN_SMALL_EVERY = 25
SERVE_BURST = 96
BURST_SMALL_EVERY = 12
LATENCY_LIMIT_S = 20.0

#: Every run, child processes included, ends within this.
RUN_LIMIT_S = 170.0


# ------------------------------------------------------------------ helpers
def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _percentile(values, q: int):
    """The q-th percentile (q in 1..99), interpolated within the data."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _wait(process, deadline):
    try:
        return process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("child process overran the run limit")


def _timed_setups(kind, record, work: Path, tracer=None):
    """Run ``record(dir)`` SETUP_REPEATS[kind] times; (entries, seconds).

    Each time is scaled to the machine :mod:`reference` is quoted for,
    by the reference read just before and just after it.  Only the
    first set-up is traced.  The last one's files are used.
    """
    from layers import install_setup
    from reference import NOMINAL_S, reading

    times, raw, entries = [], [], None
    for repeat in range(SETUP_REPEATS[kind]):
        target = work / f"setup-{repeat}"
        before = reading()
        if tracer is not None and repeat == 0:
            install_setup(tracer)
        started = time.perf_counter()
        try:
            entries = record(target)
        finally:
            if tracer is not None:
                tracer.uninstall()
        raw.append(time.perf_counter() - started)
        times.append(raw[-1] * NOMINAL_S / _mean([before, reading()]))
        if repeat < SETUP_REPEATS[kind] - 1:
            shutil.rmtree(target)
    print(f"set-up: {', '.join(f'{t:.3f}' for t in raw)} s unscaled",
          flush=True)
    return entries, times


def _setup_layers(tracer, spans: Path) -> dict:
    """Set-up layer values; the set-up spans go beside the run's."""
    tracer.dump(spans.with_name(
        spans.name.replace(".spans", ".setup.spans")))
    layers = tracer.layer_times()
    record_s = layers.get("runtime.record", 0.0)
    events = tracer.counts.get("runtime.record_events", 0)
    return {
        "runtime.record_s": record_s,
        "runtime.record_events_per_s": events / record_s if record_s else 0,
        "store.encode_s": layers.get("store.encode", 0.0),
    }


def _layer_values(layers, counts, wall) -> dict:
    """Per-layer values measured the same way on every workload.

    ``layers`` maps span names to self time and ``counts`` holds the
    tracer's counters, both already divided per pass (check) or per
    stream (serve); ``wall`` is the traced time they split.
    """
    store = sum(layers.get(n, 0.0)
                for n in ("store.open", "store.summary", "store.decode"))
    offered = counts.get("pipeline.fold_offered", 0)
    values = {
        "store.decode_s": store,
        "store.decode_share": store / wall if wall else 0.0,
        "store.summary_s": layers.get("store.summary", 0.0),
        "pipeline.dispatch_s": layers.get("pipeline.run", 0.0)
        + layers.get("pipeline.dispatch", 0.0),
        "pipeline.fold_ratio":
            counts.get("pipeline.blocks_folded", 0) / offered
            if offered else 0.0,
    }
    for name in ("pipeline.fold", "core.aerodrome.analyze",
                 "core.velodrome.analyze", "core.report",
                 "resilience.checkpoint", "resilience.supervise"):
        values[f"{name}_s"] = layers.get(name, 0.0)
    for name in ("store.blocks_decoded", "store.bytes_read",
                 "store.summaries_read", "pipeline.blocks_in",
                 "pipeline.blocks_folded", "pipeline.memo_hits",
                 "pipeline.memo_attempts", "resilience.checkpoints_written",
                 "resilience.checkpoint_bytes"):
        values[name] = counts.get(name, 0)
    return values


# ------------------------------------------------------------------- checks
def run_check(args, backend, root, work, deadline, gate) -> dict:
    """Record the medium traces, then ``repro check`` them in a child."""
    from gate import Observation
    from inputs import record_check_inputs
    from reference import NOMINAL_S
    from tracer import Tracer

    setup_tracer = Tracer(f"{work.name}-setup") if args.trace else None
    entries, setup_times = _timed_setups(
        "check", lambda d: record_check_inputs(args.seed, d), work,
        setup_tracer,
    )
    by_path = {entry["trace"]: entry for entry in entries}
    out = work / "check.json"
    spans = root / ".bench_traces" / f"{args.workload}.spans.json"
    child = subprocess.Popen([
        sys.executable, str(HERE / "checker.py"),
        "--backend", backend, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
        "--spans", str(spans), "--run-id", work.name, *by_path,
    ], cwd=root, env=_child_env(root))
    if _wait(child, deadline) != 0:
        raise RuntimeError(f"checker exited with {child.returncode}")
    result = json.loads(out.read_text("utf-8"))

    for run in result["passes"]:
        for check in run["checks"]:
            entry = by_path[check["file"]]
            consistent = check["exit"] == (1 if check["warnings"] else 0)
            gate.check(Observation(
                family=entry["workload"], point=entry["point"],
                backend=backend,
                status="done" if consistent else f"exit {check['exit']}",
                violating=bool(check["warnings"]),
                labels=frozenset(check["labels"]),
                events=check["events"], expected_events=entry["events"],
            ))

    def scaled(check):
        """The check's time on the machine :mod:`reference` is quoted for."""
        return check["seconds"] * NOMINAL_S / check["reference_s"]

    def rates(traced, seconds=scaled):
        return [
            sum(c["events"] for c in run["checks"])
            / sum(seconds(c) for c in run["checks"])
            for run in result["passes"] if run["traced"] == traced
        ]

    if not args.trace:
        # A file's time is its median over passes, so one slow pass
        # does not move the figures over the five files.
        by_file: dict[str, list] = {}
        for run in result["passes"]:
            for check in run["checks"]:
                by_file.setdefault(check["file"], []).append(check)
        per_file = [_median([scaled(c) for c in checks])
                    for checks in by_file.values()]
        events = sum(checks[0]["events"] for checks in by_file.values())
        raw = rates(False, seconds=lambda c: c["seconds"])
        reference = _median([c["reference_s"] for checks in by_file.values()
                             for c in checks])
        print(f"{args.workload}: {len(result['passes'])} passes; unscaled "
              f"events/s median {_median(raw):.0f} (min {min(raw):.0f}, "
              f"max {max(raw):.0f}); reference {reference:.5f} s against "
              f"{NOMINAL_S} s nominal", flush=True)
        return {
            "events_per_s": events / sum(per_file),
            "latency_p50_s": _percentile(per_file, 50),
            "latency_p90_s": _percentile(per_file, 90),
            "drain_streams_per_s": len(per_file) / sum(per_file),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": _median(setup_times),
        }

    traced = [run for run in result["passes"] if run["traced"]]
    n = len(traced)
    wall = sum(c["seconds"] for run in traced for c in run["checks"]) / n
    layers = {k: v / n for k, v in result["layers"].items()}
    counts = {k: v / n for k, v in result["counts"].items()}
    attributed = sum(layers.values())
    values = _setup_layers(setup_tracer, spans)
    values.update(_layer_values(layers, counts, wall))
    values.update({
        "core.velodrome.peak_nodes":
            max(c["peak_nodes"] for c in traced[-1]["checks"]),
        "core.velodrome.warnings": sum(
            c["warnings"] for c in traced[-1]["checks"]
        ) if backend == "velodrome" else 0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
        "trace.unattributed_share": (wall - attributed) / wall,
        "trace.events_per_s": _median(rates(True)),
        "trace.overhead_share":
            1 - _median(rates(True)) / _median(rates(False)),
    })
    return values


# -------------------------------------------------------------------- serve
def run_serve(args, backend, root, work, deadline, gate) -> dict:
    """Record the streams, start a daemon, drive it open-loop."""
    from gate import Observation
    from inputs import record_stream_inputs, stream_plan
    from serve_load import LoadGenerator, Stream
    from tracer import Tracer, clock

    opened = int(SERVE_RATE * args.seconds)
    plan = (stream_plan(opened, OPEN_SMALL_EVERY)
            + stream_plan(SERVE_BURST, BURST_SMALL_EVERY))
    setup_tracer = Tracer(f"{work.name}-setup") if args.trace else None
    entries, setup_times = _timed_setups(
        "serve", lambda d: record_stream_inputs(args.seed, plan, d),
        work, setup_tracer,
    )
    streams = [
        Stream(index=i, entry=entry,
               payload=Path(entry["trace"]).read_bytes())
        for i, entry in enumerate(entries)
    ]
    head, tail = streams[:opened], streams[opened:]
    spool, state = work / "spool", work / "state"
    spool.mkdir()
    sock = work / "ingest.sock"
    out = work / "daemon.json"
    spans = root / ".bench_traces" / f"{args.workload}.spans.json"
    with open(work / "daemon.log", "wb") as log:
        daemon = subprocess.Popen([
            sys.executable, str(HERE / "daemon.py"),
            "--trace", str(args.trace), "--out", str(out),
            "--spans", str(spans), "--run-id", work.name, "--",
            str(spool), "--state-dir", str(state), "--socket", str(sock),
            "--backend", backend, "--jobs", "1",
        ], cwd=root, env=_child_env(root), stdin=subprocess.PIPE,
            stdout=log, stderr=subprocess.STDOUT)
        try:
            while not sock.exists():
                if daemon.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("serve daemon did not start")
                time.sleep(0.05)
            load = LoadGenerator(sock, state / "streams")
            load.open_loop(head, SERVE_RATE, args.seed)
            load.wait(head, min(head[-1].due + LATENCY_LIMIT_S,
                                deadline - 30))
            load.wait(tail, min(load.burst(tail) + LATENCY_LIMIT_S,
                                deadline - 10))
            observed_until = clock()
        finally:
            daemon.stdin.close()
            _wait(daemon, deadline)
    if daemon.returncode != 75:   # EXIT_INTERRUPTED: stopped on request
        raise RuntimeError(f"serve daemon exited {daemon.returncode}")

    for stream in streams:
        record = stream.record or {}
        result = record.get("result") or {}
        verdict = (result.get("backends") or [{}])[0]
        status = record.get("status", "never finished")
        if stream.latency is not None and stream.latency > LATENCY_LIMIT_S:
            status = "missed the latency limit"
        gate.check(Observation(
            family=stream.entry["workload"], point=stream.entry["point"],
            backend=backend, status=status,
            violating=verdict.get("verdict") == "not-serializable",
            first_label=(verdict.get("first_warning") or {}).get("label"),
            events=result.get("events", 0),
            expected_events=stream.entry["events"],
            retries=record.get("attempts", 0),
        ))

    # A stream that never finished waited at least until observation
    # stopped; it sorts above every finished one.
    latencies = [
        s.latency if s.latency is not None else observed_until - s.due
        for s in head
    ]
    lags = [s.sent - s.due for s in head]
    finished = [s.finished for s in tail if s.finished is not None]
    registered = [s.registered for s in tail if s.registered is not None]
    drain = max(finished) - min(registered) if finished else 0.0
    print(f"serve-spool: {len(head)} open-loop streams at {SERVE_RATE}/s "
          f"(latency samples), {len(tail)} in the closing burst; "
          f"generator late by median {_median(lags):.5f} s, "
          f"max {max(lags):.5f} s; burst drained in {drain:.3f} s",
          flush=True)
    if not args.trace:
        drained_events = sum(s.entry["events"] for s in tail
                             if s.finished is not None)
        daemon_result = json.loads(out.read_text("utf-8"))
        return {
            "events_per_s": drained_events / drain if drain else 0.0,
            "latency_p50_s": _percentile(latencies, 50),
            "latency_p90_s": _percentile(latencies, 90),
            "drain_streams_per_s": len(finished) / drain if drain else 0.0,
            "peak_rss_mb": daemon_result["peak_rss_kb"] / 1024,
            "setup_s": _median(setup_times),
        }
    values = _setup_layers(setup_tracer, spans)
    values.update(_serve_layers(
        json.loads(spans.read_text("utf-8")), streams, head
    ))
    return values


def _serve_layers(document, streams, head) -> dict:
    """Per-stream layer values and the latency split of a traced run.

    Each open-loop stream's latency (due to seen done) splits exactly
    into generator lag, ingest (upload until published), settle wait
    (published until the scan digests it), digest, register (digest
    until the pending record is saved), queue wait (until its check
    starts), stream (the check), batch wait (check end until its done
    record is saved: the daemon saves a round's outcomes together) and
    the residual (until the generator saw it).
    """
    from tracer import END, KEY, NAME, START, layer_times, load_charged

    spans = document["spans"]
    digest_span, stream_span, saved = {}, {}, {}
    registry_s: dict[str, float] = {}
    for record in spans:
        name, key = record[NAME], record[KEY]
        if name == "serve.digest":
            digest_span[key] = record
        elif name == "serve.stream":
            stream_span[key] = record
        elif name == "serve.registry":
            digest, status, stream_id = key
            registry_s[digest] = (registry_s.get(digest, 0.0)
                                  + record[END] - record[START])
            saved[(digest, status)] = (stream_id, record[END])

    parts: dict[str, list] = {k: [] for k in (
        "lag", "ingest", "settle", "digest", "register", "queue", "stream",
        "batch", "residual", "latency")}
    windows = []
    for stream in streams:
        digest = stream.entry["digest"]
        if (digest, "done") not in saved or stream.finished is None:
            continue
        stream_id, pending = saved[(digest, "pending")]
        done = saved[(digest, "done")][1]
        scanned, run = digest_span[digest], stream_span[stream_id]
        windows.append((stream.published, run[START]))
        if stream.index >= len(head):
            continue
        parts["lag"].append(stream.sent - stream.due)
        parts["ingest"].append(stream.published - stream.sent)
        parts["settle"].append(scanned[START] - stream.published)
        parts["digest"].append(scanned[END] - scanned[START])
        parts["register"].append(pending - scanned[END])
        parts["queue"].append(run[START] - pending)
        parts["stream"].append(run[END] - run[START])
        parts["batch"].append(done - run[END])
        parts["residual"].append(stream.finished - done)
        parts["latency"].append(stream.latency)
    mean = {k: _mean(v) for k, v in parts.items()}

    # Backlog: streams published but not yet being checked, at its peak.
    backlog = peak = 0
    for _, step in sorted([(t, 1) for t, _ in windows]
                          + [(t, -1) for _, t in windows]):
        backlog += step
        peak = max(peak, backlog)

    count = len(streams)
    layers = {k: v / count for k, v in layer_times(
        spans, load_charged(document), document["uncharged"]).items()}
    counts = {k: v / count for k, v in document["counts"].items()}
    worked = sum(r[END] - r[START] for r in spans
                 if r[NAME] in ("serve.stream", "serve.digest")) / count
    values = _layer_values(layers, counts, worked)
    values.update({
        "core.velodrome.warnings": _mean([
            ((s.record or {}).get("result") or {}).get(
                "backends", [{}])[0].get("warnings", 0)
            for s in streams]),
        "trace.wall_s": mean["latency"],
        "trace.unattributed_s": mean["residual"],
        "trace.unattributed_share":
            mean["residual"] / mean["latency"] if mean["latency"] else 0,
        "serve.generator_lag_s": mean["lag"],
        "serve.ingest_s": mean["ingest"],
        "serve.settle_wait_s": mean["settle"],
        "serve.scan_s": layers.get("serve.scan", 0.0),
        "serve.digest_s": mean["digest"],
        "serve.register_wait_s": mean["register"],
        "serve.registry_s": _mean(list(registry_s.values())),
        "serve.queue_wait_s": mean["queue"],
        "serve.stream_s": mean["stream"],
        "serve.batch_wait_s": mean["batch"],
        "serve.latency_mean_s": mean["latency"],
        "serve.latency_samples": len(parts["latency"]),
        "serve.backlog_max": peak,
        "serve.retries": sum((s.record or {}).get("attempts", 0)
                             for s in streams),
    })
    return values


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    sys.path.insert(0, str(root / "src"))
    deadline = time.monotonic() + RUN_LIMIT_S

    import gate as gates

    gates.self_test()
    gate = gates.Gate()
    kind, backend = WORKLOADS[args.workload]
    work = (root / ".bench_work"
            / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_check if kind == "check" else run_serve
        values = runner(args, backend, root, work, deadline, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values["gate.error_rate"] = gate.error_rate

    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for declared in section:
        name = declared["name"]
        if name not in values and not args.trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": values.get(name, 0),
                         "unit": declared["unit"]}
    for problem in gate.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
