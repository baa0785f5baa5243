"""The reusable network chaos layer (:mod:`repro.rt.chaosproxy`).

The stall knob is exercised at length by ``test_backpressure.py``;
these tests cover what was added when the proxy was promoted out of
that file: one-way partitions, and frame plans that delay, lose or
corrupt traffic.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import LogError, ServerUnavailable
from repro.net.messages import IntervalListCall
from repro.rt.chaosproxy import ChaosProxy, ProxiedCluster
from repro.rt.client import AsyncReplicatedLog, ServerConnection
from repro.rt.faultfs import parse_plans

CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def test_latency_delays_every_round_trip(tmp_path):
    async def main():
        async with ProxiedCluster(
                tmp_path, net_delay_s=0.1,
                plans=parse_plans("net.intervallistcall.c2s:0:delay")
        ) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=5.0, client_id="c1")
            await conn.connect()
            t0 = time.monotonic()
            await conn.call(IntervalListCall("c1"))
            elapsed = time.monotonic() - t0
            # the call frame is held net_delay_s before forwarding
            assert elapsed >= 0.09
            assert cluster.proxy.frames_delayed == 1
            assert cluster.proxy.bytes_forwarded > 0
            await conn.close()

    asyncio.run(main())


def test_one_way_partition_starves_replies(tmp_path):
    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=0.4, client_id="c1")
            await conn.connect()
            await conn.call(IntervalListCall("c1"))  # healthy baseline
            cluster.proxy.partition("s2c")
            with pytest.raises(ServerUnavailable):
                await conn.call(IntervalListCall("c1"))
            assert cluster.proxy.chunks_dropped >= 1
            # After healing, a fresh connection works again.
            cluster.proxy.heal()
            conn2 = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                     timeout=2.0, client_id="c1")
            await conn2.connect()
            await conn2.call(IntervalListCall("c1"))
            await conn.close()
            await conn2.close()

    asyncio.run(main())


def test_total_loss_blocks_progress_spares_carry_it(tmp_path):
    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            cluster.proxy.partition("both")
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG,
                                     timeout=1.0)
            await log.initialize()  # s1 unusable; spares answer
            lsn = await log.write(b"x")
            high = await log.force()
            assert high >= lsn
            assert (await log.read(lsn)).data == b"x"
            assert "s1" not in log.write_set
            await log.close()
            assert cluster.proxy.chunks_dropped >= 1

    asyncio.run(main())


def test_corruption_is_detected_not_accepted(tmp_path):
    async def main():
        async with ProxiedCluster(
                tmp_path, seed=7,
                plans=parse_plans("net.intervallistcall.c2s:0:corrupt-header")
        ) as cluster:
            conn = ServerConnection("s1", "127.0.0.1", cluster.proxy.port,
                                    timeout=1.0, client_id="c1")
            await conn.connect()
            # A corrupted frame desynchronizes the stream: the call
            # must fail (decode error / teardown / timeout) — never
            # return corrupt data as success.
            with pytest.raises((ServerUnavailable, LogError)):
                await conn.call(IntervalListCall("c1"))
            assert cluster.proxy.frames_corrupted >= 1
            await conn.close()

    asyncio.run(main())


def test_partition_validates_direction():
    proxy = ChaosProxy("127.0.0.1", 1)
    with pytest.raises(ValueError):
        proxy.partition("sideways")
    with pytest.raises(ValueError):
        proxy.heal("sideways")


async def _echo_server():
    """A trivial upstream: echoes every chunk back."""

    async def handle(reader, writer):
        try:
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_close_tears_down_inflight_connections():
    """``close()`` must not leak a stalled connection's pump tasks.

    Before connection tracking, ``close()`` only closed the listener:
    an established, stalled connection kept both sockets (and its pump
    coroutines) alive indefinitely.
    """

    async def main():
        upstream = await _echo_server()
        port = upstream.sockets[0].getsockname()[1]
        proxy = ChaosProxy("127.0.0.1", port)
        await proxy.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", proxy.port)
        writer.write(b"ping")
        assert await reader.readexactly(4) == b"ping"
        # Stall the proxy so the connection is mid-flight, then close:
        # the client must see EOF promptly, not hang.
        proxy.stall()
        writer.write(b"stuck")
        await writer.drain()
        await proxy.close()
        # EOF or a reset both prove the connection died promptly (the
        # abrupt teardown RSTs if bytes were still buffered).
        try:
            assert await asyncio.wait_for(reader.read(),
                                          timeout=2.0) == b""
        except ConnectionResetError:
            pass
        assert not proxy._conn_tasks
        writer.close()
        upstream.close()
        await upstream.wait_closed()

    asyncio.run(main())


def test_heal_is_per_direction():
    """``heal("c2s")`` after a full partition leaves s2c blocked."""

    async def main():
        upstream = await _echo_server()
        port = upstream.sockets[0].getsockname()[1]
        proxy = ChaosProxy("127.0.0.1", port)
        await proxy.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", proxy.port)
        proxy.partition("both")
        writer.write(b"lost")
        await writer.drain()
        await asyncio.sleep(0.1)
        assert proxy.dropped_by_direction["c2s"] >= 1
        proxy.heal("c2s")
        # The request now reaches the echo server, but its reply is
        # still partitioned away.
        writer.write(b"half")
        await writer.drain()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(reader.readexactly(4), timeout=0.3)
        assert proxy.dropped_by_direction["s2c"] >= 1
        # A full heal restores the round trip on a fresh connection.
        proxy.heal()
        r2, w2 = await asyncio.open_connection("127.0.0.1", proxy.port)
        w2.write(b"back")
        assert await asyncio.wait_for(r2.readexactly(4),
                                      timeout=2.0) == b"back"
        w2.close()
        writer.close()
        await proxy.close()
        upstream.close()
        await upstream.wait_closed()

    asyncio.run(main())


def test_s2c_partition_trips_keepalive_within_miss_budget(tmp_path):
    """An s2c partition starves *all* inbound bytes: keep-alive pongs
    stop, so the probe task — not the (much longer) call timeout —
    must detect it, quarantine the server, and drive the §5.4 switch
    within the miss budget."""

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), CONFIG, timeout=4.0,
                keepalive_interval=0.1, keepalive_misses=2)
            await log.initialize()
            lsn = await log.write(b"before")
            await log.force()
            cluster.proxy.partition("s2c")
            t0 = time.monotonic()
            lsn2 = await log.write(b"after")
            high = await log.force()
            elapsed = time.monotonic() - t0
            assert high >= lsn2
            assert log.server_switches >= 1
            assert "s1" not in log.write_set
            conn = log._conns["s1"]
            assert conn.keepalive_aborts >= 1
            assert conn.quarantined_until > 0.0
            # Detection came from the keep-alive budget (0.3s), not
            # the 4s call timeout.
            assert elapsed < 2.0
            assert (await log.read(lsn)).data == b"before"
            await log.close()

    asyncio.run(main())


def test_c2s_partition_surfaces_as_force_timeout(tmp_path):
    """A c2s partition is the inverse gray failure: the server's pongs
    still arrive (keep-alive stays green) but our frames never land,
    so detection must come from the force-ack timeout instead."""

    async def main():
        async with ProxiedCluster(tmp_path) as cluster:
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), CONFIG, timeout=0.5,
                keepalive_interval=2.0, keepalive_misses=2)
            await log.initialize()
            cluster.proxy.partition("c2s")
            lsn = await log.write(b"x")
            high = await log.force()
            assert high >= lsn
            assert log.server_switches >= 1
            assert "s1" not in log.write_set
            # Keep-alive never fired: pongs flowed the whole time.
            assert log._conns["s1"].keepalive_aborts == 0
            assert cluster.proxy.dropped_by_direction["c2s"] >= 1
            assert cluster.proxy.dropped_by_direction["s2c"] == 0
            await log.close()

    asyncio.run(main())
