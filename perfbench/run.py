#!/usr/bin/env python3
"""The repository benchmark: ET1 commit, checkpoint/abort and restart.

Run from the root of a checkout::

    python3 perfbench/run.py --workload et1-commit --seed 1 --seconds 10 --trace 0

One load-generator process on one asyncio event loop drives real
``repro serve`` daemons (started by ``LoopbackCluster``) through the
public ``AsyncReplicatedLog`` API.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``).  A correctness-gate failure exits 1 after printing
it; a tree without ``src/repro`` exits 2 without a result.

``--inject bytes`` or ``--inject no-fence`` plants a fault in the
benchmark's own expectations to show that the gate catches it.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
#: The end-to-end metrics of the JSON result line (``--trace 0``): the
#: ones steady enough between runs to bound a regression on every
#: workload.  On a shared virtual machine, hypervisor steal comes in
#: episodes as long as a run and moves every wall-clock figure with it
#: (throughput by up to 2.5x the steal fraction), and CPU time too: the
#: same work costs up to 1.3x the CPU time in a run with 20% steal.  The
#: result metrics are the costs the protocol and the log files impose
#: (messages, stored bytes), plus set-up time; fsyncs per record moves
#: with group-commit timing.  The report above the result line prints
#: every other end-to-end metric, with its sample count.
RESULT_METRICS = ("setup_s", "stored_bytes_per_user_byte",
                  "messages_per_record")
#: The timed window is cut into this many equal slices, and the host's
#: hypervisor steal is read at every slice boundary.  Throughput and the
#: latencies a workload lists in ``Shape.sliced`` are the
#: median over the quieter half of the slices (least steal): on a shared
#: virtual machine, time stolen by other guests slows every layer at
#: once, and it comes and goes within a run.
WINDOW_SLICES = 10
TRACE_SLICE_S = 1.0
RUN_TIMEOUT_S = 170.0


def _pct(values: list[float], fraction: float) -> float:
    from probes import percentile
    return percentile(values, fraction)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per_slice(times, values, bounds, stat) -> list[float]:
    """``stat`` of the values falling in each slice between ``bounds``;
    values completing after the last bound belong to the last slice."""
    groups: list[list[float]] = [[] for _ in range(len(bounds) - 1)]
    for t, v in zip(times, values):
        k = bisect.bisect_right(bounds, t) - 1
        groups[min(max(k, 0), len(groups) - 1)].append(v)
    return [stat(g) for g in groups]


async def _sample_host(pids, t0, deadline, out) -> None:
    """At each slice boundary record (time, steal ticks, all ticks,
    CPU seconds of the daemons and this process)."""
    import probes

    for k in range(1, WINDOW_SLICES + 1):
        target = t0 + k * (deadline - t0) / WINDOW_SLICES
        await asyncio.sleep(max(0.0, target - time.perf_counter()))
        out.append((time.perf_counter(), *probes.host_cpu_ticks(),
                    probes.cpu_seconds(pids)))


async def _setup(shape, seed, rec, tracer, data_root, inject):
    """Preload the log files, spawn the cluster (the daemons recover the
    files), first initialize — SETUP_REPEATS times from scratch; the last
    set-up is kept for the run."""
    from repro.rt.cluster import LoopbackCluster
    from workloads import Runner

    times = []
    for rep in range(SETUP_REPEATS):
        root = os.path.join(data_root, f"cluster{rep}")
        t0 = time.perf_counter()
        cluster = LoopbackCluster(root, num_servers=shape.servers)
        runner = Runner(shape, seed, rec, tracer, inject)
        try:
            runner.preload_files({sid: entry.data_dir
                                  for sid, entry in cluster.servers.items()})
            cluster.start()
            runner.addresses = cluster.addresses()
            await runner.setup()
        except BaseException:
            cluster.stop()
            raise
        times.append(time.perf_counter() - t0)
        if rep < SETUP_REPEATS - 1:
            await runner.close()
            cluster.stop()
            shutil.rmtree(root, ignore_errors=True)
            rec.attempted = 0
    return cluster, runner, times


async def _toggle_tracing(tracer, rec, deadline, out):
    """Alternate tracing on/off every slice; record records/s of each."""
    on = True
    while True:
        start, records = time.perf_counter(), rec.records
        tracer.enabled = on
        remaining = deadline - start
        if remaining <= 0:
            break
        await asyncio.sleep(min(TRACE_SLICE_S, remaining))
        if time.perf_counter() - start >= 0.5 * TRACE_SLICE_S:
            out[on].append((rec.records - records)
                           / (time.perf_counter() - start))
        on = not on
    tracer.enabled = False


async def run(args) -> dict:
    import probes
    from replay import replay_force_path
    from spans import Tracer
    from workloads import SHAPES, Recorder

    shape = SHAPES[args.workload]
    traced = bool(args.trace)
    rec = Recorder()
    tracer = Tracer()
    data_root = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(data_root, exist_ok=True)
    cluster = runner = probe = None
    try:
        cluster, runner, setup_times = await _setup(
            shape, args.seed, rec, tracer, data_root, args.inject)
        probe = probes.StatsProbe(cluster.addresses())
        await probe.open()
        ping_us = await probe.rtt_us("ping", 50)
        ilist_us = await probe.rtt_us("intervals", 50,
                                      runner.streams[0].cid)
        fingerprint = probes.host_fingerprint(ROOT, data_root, ping_us,
                                              args.seed)
        if traced:
            runner.probe = probe
        client_before = runner.client_counters()
        snap0 = await probe.snapshot()
        sent0 = probe.sent
        pids = [entry.process.pid for entry in cluster.servers.values()]
        slices = {True: [], False: []}
        # (records, CPU seconds) at each chunk boundary of
        # shape.measured; at its end also the retained payload bytes and
        # a Stats snapshot (not in traced runs: a snapshot inside a
        # restart round would shift that round's exact message counts).
        first, last, step = shape.measured
        marks: list[tuple[int, float]] = []
        stored = {}

        def on_mark(records: int) -> None:
            marks.append((records, probes.cpu_seconds(pids)))
            if records >= last and not traced:
                stored["user_bytes"] = runner.retained_bytes()
                stored["snap"] = asyncio.ensure_future(probe.snapshot())

        rec.marks = tuple(range(first, last + 1, step))
        rec.on_mark = on_mark
        t0 = time.perf_counter()
        host = [(t0, *probes.host_cpu_ticks(), probes.cpu_seconds(pids))]
        deadline = t0 + args.seconds
        sampler = asyncio.create_task(_sample_host(pids, t0, deadline, host))
        toggler = (asyncio.create_task(
            _toggle_tracing(tracer, rec, deadline, slices))
                   if traced else None)
        await runner.window(deadline)
        window_s = time.perf_counter() - t0
        await sampler
        if toggler is not None:
            await toggler
        rec.marks = ()
        if "snap" in stored:
            stored_snap = await stored["snap"]
        snap1 = await probe.snapshot()
        probe_sent = probe.sent - sent0
        client_after = runner.client_counters()
        rss = max(probes.peak_rss_mb(entry.process.pid)
                  for entry in cluster.servers.values())
        retained = statistics.mean(
            (s.log.end_of_log() - s.low_water + 1) for s in runner.streams)
        if "snap" not in stored:
            stored_snap = snap1
            stored["user_bytes"] = runner.retained_bytes()
        # A range the window did not reach is cut at its edges.
        if len(marks) < 2:
            marks = (marks or [(0, host[0][3])]) \
                + [(rec.records, host[-1][3])]
        tracer.enabled = traced
        await runner.gate()
        snap2 = await probe.snapshot()
        replayed = None
        if traced:
            replayed = replay_force_path(
                os.path.join(data_root, "replay"),
                force_sizes=rec.force_sizes, retained=int(retained),
                streams=shape.streams, seed=args.seed, tracer=tracer)
        tracer.enabled = False
    finally:
        if probe is not None:
            await probe.close()
        if runner is not None:
            await runner.close()
        if cluster is not None:
            cluster.stop()
        shutil.rmtree(data_root, ignore_errors=True)

    bounds = [h[0] for h in host]
    steal = [(b[1] - a[1]) / max(1, b[2] - a[2])
             for a, b in zip(host, host[1:])]
    quiet = sorted(range(len(steal)), key=steal.__getitem__)[
        :(len(steal) + 1) // 2]

    def quiet_median(per_slice: list[float]) -> float:
        return _median([per_slice[i] for i in quiet])

    acked_t = [t for t, _ in rec.acked_at]
    slice_records = _per_slice(acked_t, [n for _, n in rec.acked_at],
                               bounds, sum)
    rate_slices = [n / (b - a) for n, a, b
                   in zip(slice_records, bounds, bounds[1:])]
    cpu_slices = [(b[3] - a[3]) * 1e6 / max(1, n)
                  for n, a, b in zip(slice_records, host, host[1:])]
    cpu_chunks = [(b[1] - a[1]) * 1e6 / max(1, b[0] - a[0])
                  for a, b in zip(marks, marks[1:])]
    r0, r1 = marks[0][0], marks[-1][0]

    def latency(name: str, timing, fraction: float):
        def stat(values):
            return _median(values) if fraction == 0.5 \
                else _pct(values, fraction)
        if name in shape.sliced:
            value = quiet_median(_per_slice(timing.at, timing.values,
                                            bounds, stat))
        else:
            value = stat(timing.values)
        return value, "ms", len(timing.values)

    e2e = {
        "setup_s": (_median(setup_times), "s", len(setup_times)),
        "records_per_s": (quiet_median(rate_slices), "1/s", rec.records),
    }
    for base, timing, tail in (("commit", rec.commit_ms, 0.99),
                               ("undo", rec.undo_ms, 0.99),
                               ("restart", rec.restart_ms, 0.95),
                               ("takeover", rec.takeover_ms, 0.95)):
        for fraction in (0.5, tail):
            name = f"{base}_p{round(fraction * 100)}_ms"
            e2e[name] = latency(name, timing, fraction)
    e2e.update({
        "stored_bytes_per_user_byte": (
            probes.total(stored_snap, "log_bytes") / stored["user_bytes"],
            "ratio", len(stored_snap)),
        "server_peak_rss_mb": (rss, "MiB", len(cluster.servers)),
        "cpu_us_per_record": (_median(cpu_chunks), "us", r1 - r0),
        "messages_per_record": (
            probes.protocol_messages(snap1, snap0, probe_sent)
            / max(1, rec.records), "messages", rec.records),
        "fsyncs_per_record": (probes.delta(snap1, snap0, "fsyncs")
                              / max(1, rec.records), "fsyncs", rec.records),
    })
    failed_ratio = rec.failed / max(1, rec.attempted)
    report = {
        "workload": shape.name,
        "seconds": args.seconds,
        "window_s": window_s,
        "host_steal_pct": 100.0 * (host[-1][1] - host[0][1])
        / max(1, host[-1][2] - host[0][2]),
        "measured_records": [r0, r1, len(cpu_chunks)],
        "measured_planned": list(shape.measured),
        "slices": [{"steal_pct": 100.0 * st, "records_per_s": r,
                    "cpu_us_per_record": c, "quiet": i in quiet}
                   for i, (st, r, c) in enumerate(
                       zip(steal, rate_slices, cpu_slices))],
        "fingerprint": fingerprint,
        "failed_ratio": failed_ratio,
        "errors": rec.errors,
        "e2e": {k: {"value": v, "unit": u, "samples": n}
                for k, (v, u, n) in e2e.items()},
    }
    if traced:
        layers = _per_layer(shape, rec, snap0, snap1, snap2, client_before,
                            client_after, replayed, ilist_us, tracer, slices,
                            e2e)
        report["per_layer"] = layers
        report["self_times_us"] = tracer.self_times_us()
        report["trace_slices_records_per_s"] = {
            "traced": slices[True], "untraced": slices[False]}
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.dump(os.path.join(
            WORK, "traces", f"{shape.name}-seed{args.seed}.json"))
    report["_rec"] = rec
    return report


def _per_layer(shape, rec, snap0, snap1, snap2, cb, ca, replayed, ilist_us,
               tracer, slices, e2e) -> dict:
    import probes

    d = probes.delta
    n_records = max(1, rec.records)
    counts = rec.exact_counts or rec.gate_counts
    modes = [statistics.mode(col) for col in zip(*counts)] if counts \
        else [0, 0, 0]
    fsyncs = d(snap1, snap0, "fsyncs")
    times = tracer.self_times_us()
    roots = times.get("restart_iter" if shape.restart_loop else "txn", {})
    on, off = _median(slices[True]), _median(slices[False])
    force_records = _median(rec.force_sizes) or 1
    ledger = (_median(rec.commit_ms.values) * 1e3 - (
        force_records * (replayed["frame_us_per_record"]
                         + replayed["decode_us_per_record"]
                         + replayed["append_us_per_record"])
        + replayed["fsync_us_p50"]))
    return {
        "client.write_us": (_median(rec.write_us.values), "us"),
        "client.implicit_force_share": (
            rec.implicit_forces / max(1, rec.writes), "ratio"),
        "client.records_per_force": (
            rec.writes / max(1, len(rec.force_sizes)), "records"),
        "client.retries": (sum(ca[k] - cb[k] for k in (
            "server_switches", "slow_strikes", "missing_intervals_seen")),
            "count"),
        "client.read_us": (_median(rec.read_us.values), "us"),
        "client.truncate_ms": (_median(rec.truncate_ms.values), "ms"),
        "client.initialize_ms": (_median(rec.restart_ms.values), "ms"),
        "client.takeover_ms": (_median(rec.takeover_ms.values), "ms"),
        "client.restart_calls": (modes[0], "count"),
        "client.takeover_calls": (modes[1], "count"),
        "client.fsyncs_per_restart_iter": (modes[2], "count"),
        "client.exact_counts_repeat": (
            int(len(set(counts)) == 1 and bool(counts)), "bool"),
        "client.restart_rtts": (e2e["restart_p50_ms"][0] * 1e3 / ilist_us,
                                "rtts"),
        "codec.frame_us_per_record": (
            replayed["frame_us_per_record"], "us"),
        "codec.decode_us_per_record": (
            replayed["decode_us_per_record"], "us"),
        "codec.wire_bytes_per_record": (
            replayed["wire_bytes_per_record"], "bytes"),
        "server.messages_per_record": (e2e["messages_per_record"][0],
                                       "messages"),
        "server.forces_per_fsync": (
            d(snap1, snap0, "forces_acked") / max(1, fsyncs), "ratio"),
        "server.records_presented_per_record": (
            (probes.presented_records(snap1)
             - probes.presented_records(snap0)) / n_records, "ratio"),
        "server.missing_intervals": (
            d(snap1, snap0, "missing_intervals_sent"), "count"),
        "server.fence_rejections": (
            d(snap2, snap0, "fence_rejections") / max(1, rec.fence_checks),
            "per_writer"),
        "filestore.records_per_fsync": (
            (probes.presented_records(snap1)
             - probes.presented_records(snap0)) / max(1, fsyncs), "records"),
        "filestore.bytes_appended_per_user_byte": (
            d(snap1, snap0, "bytes_appended")
            / max(1, n_records * 100), "ratio"),
        "filestore.append_us_per_record": (
            replayed["append_us_per_record"], "us"),
        "filestore.fsync_us_p50": (replayed["fsync_us_p50"], "us"),
        "filestore.fsync_us_p99": (replayed["fsync_us_p99"], "us"),
        "filestore.compact_ms": (replayed["compact_ms"], "ms"),
        "filestore.compact_bytes_rewritten": (
            replayed["compact_bytes_rewritten"], "bytes"),
        "filestore.stored_lsns_us": (replayed["stored_lsns_us"], "us"),
        "ledger.force_unattributed_us": (ledger, "us"),
        "bench.txn_self_us": (roots.get("self_p50_us", 0.0), "us"),
        "trace.overhead_pct": (
            100.0 * (off - on) / off if off else 0.0, "%"),
    }


def _print_report(report: dict) -> None:
    print(f"# perfbench {report['workload']}: window "
          f"{report['window_s']:.2f}s, failed_ratio "
          f"{report['failed_ratio']:.6f}, host steal "
          f"{report['host_steal_pct']:.1f}%")
    print("# host " + json.dumps(report["fingerprint"], sort_keys=True))
    r0, r1, chunks = report["measured_records"]
    planned = report["measured_planned"]
    print(f"# cpu_us_per_record: median of {chunks} chunks from window "
          f"record {r0} to {r1}"
          + ("" if r0 >= planned[0] and r1 >= planned[1] else
             f" (cut short: planned {planned[0]} to {planned[1]})"))
    print("# window slices, records/s @ steal% / CPU us per record "
          "(* = quiet half): " + " ".join(
        f"{s['records_per_s']:.0f}@{s['steal_pct']:.0f}"
        f"/{s['cpu_us_per_record']:.0f}"
        + ("*" if s["quiet"] else "") for s in report["slices"]))
    for name, m in report["e2e"].items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']:6s} "
              f"n={m['samples']}")
    for err in report["errors"]:
        print(f"  GATE FAILURE: {err}")
    if "per_layer" in report:
        from layers import PREDICTIONS
        print("# per-layer (traced run)")
        for name, (value, unit) in report["per_layer"].items():
            print(f"  {name:40s} {value:14.4f} {unit:8s} "
                  f"{PREDICTIONS.get(name, '')}")
        print("# span self time (µs, p50)")
        for name, t in report["self_times_us"].items():
            print(f"  {name:28s} n={t['count']:<7d} total {t['p50_us']:10.1f}"
                  f"  self {t['self_p50_us']:10.1f}")
        s = report["trace_slices_records_per_s"]
        print(f"# tracing overhead: traced {_median(s['traced']):.1f} vs "
              f"untraced {_median(s['untraced']):.1f} records/s "
              f"(medians of {len(s['traced'])}/{len(s['untraced'])} "
              f"interleaved {TRACE_SLICE_S:.0f}s slices)")


def _save_and_compare(report: dict, trace: int) -> None:
    """Keep the last result per workload; flag a host change."""
    import probes

    path = os.path.join(WORK, "results",
                        f"{report['workload']}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        reasons = probes.comparable(previous["fingerprint"],
                                    report["fingerprint"])
        if reasons:
            print("# NOT COMPARABLE with the previous result: "
                  + "; ".join(reasons))
    with open(path, "w") as fh:
        json.dump({k: v for k, v in report.items() if k != "_rec"}, fh,
                  indent=1, default=str)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["et1-commit", "et1-checkpoint", "restart"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["bytes", "no-fence"])
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no src/repro package under {ROOT}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # SIGTERM unwinds through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    async def bounded():
        return await asyncio.wait_for(run(args), RUN_TIMEOUT_S)

    report = asyncio.run(bounded())
    rec = report.pop("_rec")
    _print_report(report)
    _save_and_compare(report, args.trace)
    metrics = (report["per_layer"] if args.trace else
               {k: (report["e2e"][k]["value"], report["e2e"][k]["unit"])
                for k in RESULT_METRICS})
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
