"""Measurements taken from outside the program.

* :class:`StatsProbe` holds one raw connection per daemon and issues
  ``StatsCall``, ``PingMsg`` and ``IntervalListCall`` over it through
  the public codec — the same frames ``repro stats`` sends.
* :func:`peak_rss_mb` reads a daemon's ``VmHWM`` from ``/proc``.
* :func:`host_fingerprint` stamps a result with what makes numbers
  from two hosts (or two trees) incomparable.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.net.codec import frame, read_message
from repro.net.messages import (
    IntervalListCall,
    PingMsg,
    PongMsg,
    StatsCall,
    StatsReply,
)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (values need not be sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class StatsProbe:
    """A side channel to every daemon, outside any client instance.

    Each call below is one message the daemon counts in
    ``messages_handled``; callers that difference counters around a
    client call subtract the probe's own messages (one per snapshot).
    """

    def __init__(self, addresses: dict[str, tuple[str, int]],
                 client_id: str = "perfbench-probe"):
        self.addresses = dict(addresses)
        self.client_id = client_id
        self._conns: dict[str, tuple] = {}
        #: messages sent so far, each counted in a daemon's
        #: ``messages_handled``
        self.sent = 0

    async def open(self) -> None:
        for sid, (host, port) in self.addresses.items():
            self._conns[sid] = await asyncio.open_connection(host, port)

    async def close(self) -> None:
        for _reader, writer in self._conns.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns = {}

    async def _call(self, sid: str, msg):
        reader, writer = self._conns[sid]
        self.sent += 1
        writer.write(frame(msg))
        await writer.drain()
        return await asyncio.wait_for(read_message(reader), 10.0)

    async def snapshot(self) -> dict[str, dict[str, int]]:
        """Every daemon's counters, fetched concurrently."""
        sids = sorted(self._conns)
        replies = await asyncio.gather(
            *(self._call(sid, StatsCall(self.client_id)) for sid in sids))
        out = {}
        for sid, reply in zip(sids, replies):
            if not isinstance(reply, StatsReply):
                raise RuntimeError(f"{sid}: unexpected stats reply {reply!r}")
            out[sid] = reply.as_dict()
        return out

    async def rtt_us(self, kind: str, rounds: int,
                     stream: str = "") -> float:
        """Median round trip of a Ping or IntervalListCall, in µs."""
        sid = sorted(self._conns)[0]
        samples = []
        for token in range(rounds):
            msg = (PingMsg(self.client_id, token=token) if kind == "ping"
                   else IntervalListCall(stream or self.client_id))
            t0 = time.perf_counter()
            reply = await self._call(sid, msg)
            samples.append((time.perf_counter() - t0) * 1e6)
            if kind == "ping" and not isinstance(reply, PongMsg):
                raise RuntimeError(f"unexpected ping reply {reply!r}")
        return statistics.median(samples)


def delta(after: dict[str, dict[str, int]], before: dict[str, dict[str, int]],
          key: str) -> int:
    """Fleet-wide change of one counter between two snapshots."""
    return sum(after[sid][key] - before[sid][key] for sid in after)


def protocol_messages(after: dict[str, dict[str, int]],
                      before: dict[str, dict[str, int]],
                      probe_sent: int) -> int:
    """Fleet-wide messages the daemons handled between two snapshots,
    less keep-alive pings and the ``probe_sent`` messages of the probe
    (the later snapshot's own StatsCalls among them)."""
    return (delta(after, before, "messages_handled")
            - delta(after, before, "pings_answered") - probe_sent)


def total(snap: dict[str, dict[str, int]], key: str) -> int:
    return sum(counters[key] for counters in snap.values())


def presented_records(snap: dict[str, dict[str, int]]) -> int:
    """Records presented for append, fleet-wide, from Stats.

    The daemon reports ``records_per_fsync`` floored, so the true count
    lies in ``[rpf, rpf + 1) * fsyncs``; this takes the midpoint, which
    is within ``0.5 / records_per_fsync`` of the truth (±7% at ET1's
    seven records per force).
    """
    return sum((c["records_per_fsync"] + 0.5) * c["fsyncs"]
               for c in snap.values())


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pids: list[int]) -> float:
    """CPU time consumed so far by this process and ``pids``.

    A daemon's time is its scheduler run time (``/proc/PID/schedstat``,
    in ns; the daemons are single-threaded) where the kernel keeps it,
    else user + system ticks from ``/proc/PID/stat`` (10 ms steps).
    """
    total_s = time.process_time()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/schedstat") as fh:
                total_s += int(fh.read().split()[0]) / 1e9
            continue
        except OSError:
            pass
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total_s += (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")
    return total_s


def host_cpu_ticks() -> tuple[int, int]:
    """(steal ticks, all ticks) of the whole machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return values[7], sum(values[:8])


def fsync_p50_us(directory: str, rounds: int = 100) -> float:
    """Median cost of a 4 KiB write + fsync on ``directory``'s filesystem."""
    path = os.path.join(directory, "fsync-probe.dat")
    samples = []
    block = b"\0" * 4096
    with open(path, "wb") as fh:
        for _ in range(rounds):
            fh.write(block)
            fh.flush()
            t0 = time.perf_counter()
            os.fsync(fh.fileno())
            samples.append((time.perf_counter() - t0) * 1e6)
    os.unlink(path)
    return statistics.median(samples)


def source_version(root: str) -> str:
    """git HEAD when the tree is a repository, else a digest of ``src/``."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_fingerprint(root: str, data_dir: str, ping_us: float,
                     seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "fsync_p50_us": round(fsync_p50_us(data_dir), 1),
        "loopback_ping_us": round(ping_us, 1),
        "source": source_version(root),
        "seed": seed,
    }


def comparable(a: dict, b: dict) -> list[str]:
    """Why two results' hosts are not comparable (empty list: they are).

    Host identity fields must match exactly; the measured host
    latencies must agree within a factor of four (on one shared host
    they drift up to about 2.5x run to run; a different disk or network
    stack moves them by more).  ``source`` and ``seed`` are recorded but
    not compared: a before/after comparison differs in source by design.
    """
    reasons = [f"{key}: {a.get(key)} != {b.get(key)}"
               for key in ("nproc", "python", "implementation")
               if a.get(key) != b.get(key)]
    for key in ("fsync_p50_us", "loopback_ping_us"):
        x, y = a.get(key) or 0.0, b.get(key) or 0.0
        if x <= 0 or y <= 0 or max(x, y) > 4 * min(x, y):
            reasons.append(f"{key}: {x} vs {y}")
    return reasons
