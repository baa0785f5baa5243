"""E10 — client restart latency vs M.

Section 3.2 analyzes restart *availability* and explicitly leaves
timing open ("predicting the expected time for client process
initialization to complete requires a more complicated model that
includes the expected rates of log server failures and the expected
times for repair").  Two series measure it:

* the simulator's deterministic part: one concurrent round of M
  interval lists, the Appendix I NewID, one packed read of the last δ
  records (disk reads for sealed tracks; free for records still in
  NVRAM), and CopyLog/InstallCopies on N servers;
* real daemons on a :class:`~repro.rt.cluster.LoopbackCluster` at
  M ∈ {3, 5, 7}: the calls, the call rounds, the median latency, and
  that latency in loopback round trips of ``initialize()`` and the
  fenced ``takeover()``.
"""

import asyncio
import statistics
import time
from dataclasses import asdict, dataclass

from repro.core.config import ReplicationConfig
from repro.core.epoch import write_quorum_size
from repro.harness import run_restart_latency
from repro.net.codec import frame, read_message
from repro.net.messages import PingMsg
from repro.rt.client import AsyncReplicatedLog
from repro.rt.cluster import LoopbackCluster

from ._emit import emit, emit_json, emit_table

COPIES = 2
DELTA = 8
RT_M_VALUES = (3, 5, 7)
#: records forced before the timed restarts, well beyond δ.
RT_PRELOAD = 100
#: timed initialize() and takeover() calls per M.
RT_REPEATS = 15


def _run():
    return run_restart_latency(m_values=(2, 4, 6, 8), records=150,
                               restarts=5)


def test_restart_latency(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit_table(
        ["M", "intervals merged", "mean restart (ms)", "max restart (ms)"],
        [
            (r.m, r.intervals_merged, f"{r.mean_restart_ms:.1f}",
             f"{r.max_restart_ms:.1f}")
            for r in rows
        ],
        title="E10 — client initialization time vs number of log servers "
              "(N=2, δ=8)",
    )
    emit("")
    emit("restart cost = one concurrent IntervalList round to all M "
         "servers + the NewID read and write rounds + one packed read of "
         "the last δ records (disk-bound on the first restart, "
         "NVRAM-fast afterwards) + one CopyLog and one InstallCopies "
         "round on N servers.")
    # the M-dependence is mild: a few ms per extra server
    assert rows[-1].mean_restart_ms - rows[0].mean_restart_ms < 50
    # and restart stays comfortably sub-second even at M=8
    assert rows[-1].max_restart_ms < 1000


# -- the real-runtime series --------------------------------------------------


@dataclass(frozen=True)
class RtRestartRow:
    m: int
    ping_us: float
    initialize_calls: int
    initialize_rounds: int
    initialize_p50_ms: float
    initialize_rtts: float
    takeover_calls: int
    takeover_rounds: int
    takeover_p50_ms: float
    takeover_rtts: float


def expected_calls(m: int, *, takeover: bool) -> int:
    """The calls a fault-free restart sends at M servers.

    Interval lists and generator reads go to all M servers; the
    generator write to a write quorum; one packed read covers the δ
    window; CopyLog and InstallCopies go to N servers.  A takeover adds
    a FenceLog and a second interval list per server.
    """
    calls = 2 * m + write_quorum_size(m) + 1 + 2 * COPIES
    return calls + 2 * m if takeover else calls


async def _ping_us(address: tuple[str, int], rounds: int = 50) -> float:
    """Median Ping/Pong round trip to one daemon, in µs."""
    reader, writer = await asyncio.open_connection(*address)
    samples = []
    try:
        for token in range(rounds):
            t0 = time.perf_counter()
            writer.write(frame(PingMsg("bench", token=token)))
            await writer.drain()
            await read_message(reader)
            samples.append((time.perf_counter() - t0) * 1e6)
    finally:
        writer.close()
        await writer.wait_closed()
    return statistics.median(samples)


async def _rt_row(addresses: dict, m: int) -> RtRestartRow:
    config = ReplicationConfig(m, COPIES, delta=DELTA)
    ping_us = await _ping_us(addresses["s1"])
    writer = AsyncReplicatedLog("c", addresses, config)
    await writer.initialize()
    for i in range(RT_PRELOAD):
        await writer.write(b"r%d" % i)
    await writer.force()
    await writer.close()
    ms: dict[str, list[float]] = {"initialize": [], "takeover": []}
    sent: dict[str, set] = {"initialize": set(), "takeover": set()}
    for _ in range(RT_REPEATS):
        for op in ms:
            log = AsyncReplicatedLog("c", addresses, config)
            try:
                t0 = time.perf_counter()
                await getattr(log, op)()
                ms[op].append((time.perf_counter() - t0) * 1e3)
                sent[op].add((log.recovery_calls, log.recovery_rounds))
            finally:
                await log.close()
    # a fault-free restart sends the same calls every time
    assert all(len(v) == 1 for v in sent.values()), sent
    (init_calls, init_rounds), = sent["initialize"]
    (takeover_calls, takeover_rounds), = sent["takeover"]
    p50 = {op: statistics.median(v) for op, v in ms.items()}
    return RtRestartRow(
        m=m, ping_us=round(ping_us, 1),
        initialize_calls=init_calls, initialize_rounds=init_rounds,
        initialize_p50_ms=round(p50["initialize"], 3),
        initialize_rtts=round(p50["initialize"] * 1e3 / ping_us, 1),
        takeover_calls=takeover_calls, takeover_rounds=takeover_rounds,
        takeover_p50_ms=round(p50["takeover"], 3),
        takeover_rtts=round(p50["takeover"] * 1e3 / ping_us, 1),
    )


def test_restart_latency_rt(tmp_path):
    started = time.perf_counter()
    rows = []
    for m in RT_M_VALUES:
        with LoopbackCluster(tmp_path / f"m{m}", num_servers=m) as cluster:
            rows.append(asyncio.run(_rt_row(cluster.addresses(), m)))
    emit_table(
        ["M", "ping (µs)", "init calls", "rounds", "p50 (ms)", "RTTs",
         "takeover calls", "rounds", "p50 (ms)", "RTTs"],
        [(r.m, f"{r.ping_us:.0f}", r.initialize_calls, r.initialize_rounds,
          f"{r.initialize_p50_ms:.2f}", f"{r.initialize_rtts:.0f}",
          r.takeover_calls, r.takeover_rounds, f"{r.takeover_p50_ms:.2f}",
          f"{r.takeover_rtts:.0f}") for r in rows],
        title=f"E10 (real daemons) — restart and takeover vs M "
              f"(N={COPIES}, δ={DELTA}, loopback)",
    )
    emit("")
    emit("initialize = 6 call rounds (lists, NewID read, NewID write, one "
         "packed δ read, CopyLog, InstallCopies); takeover adds the fence "
         "round and the post-fence lists.  RTTs = p50 / loopback ping, so "
         "they include the client's and daemons' CPU time per call.")
    emit_json("restart_latency", {
        "params": {"m_values": list(RT_M_VALUES), "copies": COPIES,
                   "delta": DELTA, "preload": RT_PRELOAD,
                   "repeats": RT_REPEATS},
        "metrics": {f"m{r.m}": asdict(r) for r in rows},
        "wall_seconds": time.perf_counter() - started,
    })
    for r in rows:
        assert r.initialize_calls == expected_calls(r.m, takeover=False)
        assert r.takeover_calls == expected_calls(r.m, takeover=True)
        assert (r.initialize_rounds, r.takeover_rounds) == (6, 8)
