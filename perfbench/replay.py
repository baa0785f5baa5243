"""In-process replay of a run's force path through the public codec and
:class:`repro.rt.filestore.FileLogStore` functions.

The daemons cannot be timed from inside without changing them, so the
per-layer ``codec.*`` and ``filestore.*`` numbers come from replaying
the run's own traffic here, on the run's own filesystem:

* the observed force sizes (records per ForceLog), with seeded 100-byte
  payloads, framed exactly as the client frames them
  (``encode_stored_record`` per record, then ``frame_iov``) and decoded
  exactly as the daemon decodes them (``decode`` collecting record
  images);
* appended with ``append_records`` and made durable with ``sync`` — the
  daemons' policy of one fsync per force;
* ``stored_lsns`` and ``truncate_below`` at the run's retained size.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time

from repro.core.records import trusted_stored_record
from repro.net.codec import decode, encode_stored_record, frame_iov
from repro.net.messages import ForceLogMsg
from repro.rt.filestore import FileLogStore

from probes import percentile

_now = time.perf_counter


def _batch(cid_lsn: int, size: int, rng: random.Random):
    return tuple(
        trusted_stored_record(cid_lsn + i, 1, True, rng.randbytes(100),
                              "commit" if i == size - 1 else "update")
        for i in range(size))


def replay_force_path(data_dir: str, *, force_sizes: list[int],
                      retained: int, streams: int, seed: int,
                      tracer, max_forces: int = 2000) -> dict:
    """Replay and time; returns the per-layer figures in µs / bytes."""
    rng = random.Random(f"{seed}/replay")
    store = FileLogStore(data_dir, "replay")
    cids = [f"c{i + 1}" for i in range(streams)]
    root = tracer.begin("replay", 0)
    try:
        # Fill each stream to the retained size (untimed, no fsync).
        next_lsn = {}
        for cid in cids:
            lsn = 1
            while lsn <= retained:
                size = min(7, retained - lsn + 1)
                store.append_records(cid, _batch(lsn, size, rng),
                                     fsync=False)
                lsn += size
            next_lsn[cid] = lsn
        store.sync()

        # stored_lsns at the retained size (ReadLog packing's first step).
        lsns_us = []
        for _ in range(20):
            t0 = _now()
            with tracer.span("filestore.stored_lsns", root):
                store.stored_lsns(cids[0])
            lsns_us.append((_now() - t0) * 1e6)

        # The force path, one fsync per force.
        sizes = list(force_sizes) or [7]
        picks = [sizes[rng.randrange(len(sizes))]
                 for _ in range(min(max_forces, max(200, len(sizes))))]
        frame_us = decode_us = append_us = 0.0
        fsync_us: list[float] = []
        wire_bytes = records = 0
        for i, size in enumerate(picks):
            cid = cids[i % len(cids)]
            recs = _batch(next_lsn[cid], size, rng)
            next_lsn[cid] += size
            force = tracer.begin("replay.force", i + 1, root)
            t0 = _now()
            with tracer.span("codec.frame", force):
                encs = [encode_stored_record(r) for r in recs]
                bufs = frame_iov(ForceLogMsg.trusted(cid, 1, recs), encs)
            t1 = _now()
            payload = b"".join(bufs)[4:]
            images: list[bytes] = []
            t2 = _now()
            with tracer.span("codec.decode", force):
                msg = decode(payload, images)
            t3 = _now()
            with tracer.span("filestore.append", force):
                store.append_records(cid, msg.records, fsync=False,
                                     images=images)
            t4 = _now()
            with tracer.span("filestore.sync", force):
                store.sync()
            t5 = _now()
            tracer.finish(force)
            frame_us += (t1 - t0) * 1e6
            decode_us += (t3 - t2) * 1e6
            append_us += (t4 - t3) * 1e6
            fsync_us.append((t5 - t4) * 1e6)
            wire_bytes += len(payload) + 4
            records += size

        # Compaction at the retained size: keep ``retained`` per stream.
        t0 = _now()
        with tracer.span("filestore.truncate_below", root):
            store.truncate_below(cids[0], next_lsn[cids[0]] - retained)
        compact_ms = (_now() - t0) * 1e3
        compact_bytes = store.log_size_bytes
    finally:
        tracer.finish(root)
        store.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return {
        "forces": len(picks),
        "records": records,
        "frame_us_per_record": frame_us / records,
        "decode_us_per_record": decode_us / records,
        "append_us_per_record": append_us / records,
        "wire_bytes_per_record": wire_bytes / records,
        "fsync_us_p50": statistics.median(fsync_us),
        "fsync_us_p99": percentile(fsync_us, 0.99),
        "compact_ms": compact_ms,
        "compact_bytes_rewritten": compact_bytes,
        "stored_lsns_us": statistics.median(lsns_us),
    }
