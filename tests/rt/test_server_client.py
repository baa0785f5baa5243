"""In-process integration: asyncio client against asyncio daemons.

Real sockets (loopback TCP, ephemeral ports) and real files, but all
inside one process so tests stay fast and debuggable.  Process-level
failures are covered by ``test_cluster_failover.py``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core.config import ReplicationConfig
from repro.core.errors import NotEnoughServers, NotInitialized, RecordNotPresent
from repro.net.messages import ReadLogForwardCall
from repro.rt.client import AsyncReplicatedLog, ServerConnection
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon


class Cluster:
    """M in-process daemons over file stores in tmp_path."""

    def __init__(self, tmp_path, m=3):
        self.tmp_path = tmp_path
        self.m = m
        self.daemons: dict[str, LogServerDaemon] = {}

    async def __aenter__(self):
        for i in range(self.m):
            sid = f"s{i + 1}"
            await self.start(sid)
        return self

    async def start(self, sid):
        data_dir = os.path.join(self.tmp_path, sid)
        daemon = LogServerDaemon(FileLogStore(data_dir, sid))
        await daemon.start()
        self.daemons[sid] = daemon
        return daemon

    async def stop(self, sid):
        await self.daemons[sid].close()

    def addresses(self):
        return {sid: (d.host, d.port) for sid, d in self.daemons.items()}

    async def __aexit__(self, *exc):
        for daemon in self.daemons.values():
            try:
                await daemon.close()
            except Exception:
                pass


def run(coro):
    return asyncio.run(coro)


CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)


def test_write_force_read_round_trip(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            assert log.current_epoch == 1
            assert len(log.write_set) == CONFIG.copies
            lsns = [await log.write(f"rec{i}".encode()) for i in range(10)]
            high = await log.force()
            assert high == lsns[-1]
            for i, lsn in enumerate(lsns):
                rec = await log.read(lsn)
                assert rec.data == f"rec{i}".encode()
            # Guards written by initialization are not-present.
            with pytest.raises(RecordNotPresent):
                await log.read(1)
            await log.close()

    run(main())


def test_force_is_durable_on_n_servers(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            lsn = await log.write(b"must-survive")
            await log.force()
            write_set = log.write_set
            await log.close()
            return lsn, write_set

    lsn, write_set = run(main())
    # After every daemon is closed, reopen the files: the record must
    # be on disk on every write-set server.
    stored_on = []
    for sid in write_set:
        store = FileLogStore(os.path.join(tmp_path, sid), sid)
        if lsn in store.stored_lsns("c1"):
            assert store.read_record("c1", lsn).data == b"must-survive"
            stored_on.append(sid)
        store.close()
    assert len(stored_on) == CONFIG.copies


def test_restart_bumps_epoch_and_recovers_high_lsn(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            lsns = [await log.write(f"a{i}".encode()) for i in range(12)]
            await log.force()
            first_epoch = log.current_epoch
            first_high = log.end_of_log()
            await log.close()

            log2 = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log2.initialize()
            assert log2.current_epoch > first_epoch
            # δ guard records extend the log past the old high LSN.
            assert log2.end_of_log() == first_high + CONFIG.delta
            # Every forced record survives the restart with its bytes.
            for i, lsn in enumerate(lsns):
                assert (await log2.read(lsn)).data == f"a{i}".encode()
            # And the restarted log accepts new writes.
            lsn = await log2.write(b"post-restart")
            await log2.force()
            assert (await log2.read(lsn)).data == b"post-restart"
            await log2.close()

    run(main())


def test_server_loss_switches_write_set_mid_stream(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            await log.initialize()
            victim = log.write_set[0]
            spare = next(s for s in cluster.addresses()
                         if s not in log.write_set)
            for i in range(4):
                await log.write(f"pre{i}".encode())
            await log.force()
            await cluster.stop(victim)  # connection dies server-side
            for i in range(4):
                await log.write(f"post{i}".encode())
            high = await log.force()
            assert victim not in log.write_set
            assert spare in log.write_set
            assert log.server_switches >= 1
            # All records still readable at N=2 with one server down.
            assert (await log.read(high)).data == b"post3"
            await log.close()

    run(main())


def test_restart_window_spanning_write_set_switches(tmp_path, monkeypatch):
    """The δ window straddles a §5.4 switch of the whole write set, so no
    server holds all of it: recovery reads it with one packed read per
    write set and installs byte-exact copies."""
    config = ReplicationConfig(total_servers=5, copies=2, delta=8)
    reads: list[tuple[str, int]] = []
    original_call = ServerConnection.call

    async def recording_call(self, msg):
        if isinstance(msg, ReadLogForwardCall):
            reads.append((self.server_id, msg.lsn))
        return await original_call(self, msg)

    monkeypatch.setattr(ServerConnection, "call", recording_call)

    async def main():
        async with Cluster(tmp_path, m=5) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), config)
            await log.initialize()
            written = {}
            holders = []
            stopped = []
            for batch in range(2):
                if batch:
                    # both members fail: two switches to spares
                    stopped = list(log.write_set)
                    for sid in stopped:
                        await cluster.stop(sid)
                for i in range(4):
                    data = f"b{batch}r{i}".encode()
                    written[await log.write(data)] = data
                await log.force()
                holders.append(set(log.write_set))
            assert log.server_switches == 2
            assert not holders[0] & holders[1]
            await log.close()
            for sid in stopped:
                await cluster.start(sid)

            reads.clear()
            log2 = AsyncReplicatedLog("c1", cluster.addresses(), config)
            await log2.initialize()
            window = sorted(written)[-config.delta:]
            # one read at the window's low end, then one per later
            # write set whose records the earlier replies did not hold
            assert [lsn for _, lsn in reads] == [window[0], window[4]]
            for sid in log2.write_set:
                store = cluster.daemons[sid].store
                for lsn in window:
                    record = store.read_record("c1", lsn)
                    assert record.epoch == log2.current_epoch
                    assert record.data == written[lsn]
            for lsn, data in written.items():
                assert (await log2.read(lsn)).data == data
            await log2.close()

    run(main())


def test_write_set_loss_below_n_raises(tmp_path):
    async def main():
        async with Cluster(tmp_path, m=2) as cluster:
            config = ReplicationConfig(total_servers=2, copies=2, delta=4)
            log = AsyncReplicatedLog(
                "c1", cluster.addresses(), config,
            )
            # Speed the failure path up: one attempt, no backoff.
            log.retry_policy = type(log.retry_policy)(
                max_attempts=1, base_delay_s=0.0)
            await log.initialize()
            await log.write(b"x")
            await cluster.stop(log.write_set[0])
            with pytest.raises(NotEnoughServers):
                await log.force()
            await log.close()

    run(main())


def test_gap_triggers_missing_interval_then_new_interval(tmp_path):
    async def main():
        async with Cluster(tmp_path, m=1) as cluster:
            from repro.core.records import StoredRecord
            from repro.net.codec import frame, read_message
            from repro.net.messages import (
                ForceLogMsg,
                MissingIntervalMsg,
                NewHighLSNMsg,
                NewIntervalMsg,
            )

            host, port = cluster.addresses()["s1"]
            reader, writer = await asyncio.open_connection(host, port)

            def force(lsn):
                return ForceLogMsg("c1", 1, (StoredRecord(
                    lsn=lsn, epoch=1, data=b"z"),))

            writer.write(frame(force(1)))
            await writer.drain()
            ack = await read_message(reader)
            assert isinstance(ack, NewHighLSNMsg) and ack.new_high_lsn == 1

            # Jump to LSN 5: the server must NAK the gap [2, 4] ...
            writer.write(frame(force(5)))
            await writer.drain()
            nak = await read_message(reader)
            assert isinstance(nak, MissingIntervalMsg)
            assert (nak.lo, nak.hi) == (2, 4)
            ack = await read_message(reader)
            assert isinstance(ack, NewHighLSNMsg) and ack.new_high_lsn == 5

            # ... and a NewInterval makes the next jump legitimate.
            writer.write(frame(NewIntervalMsg("c1", 1, starting_lsn=9)))
            writer.write(frame(force(9)))
            await writer.drain()
            ack = await read_message(reader)
            assert isinstance(ack, NewHighLSNMsg) and ack.new_high_lsn == 9

            daemon = cluster.daemons["s1"]
            assert daemon.missing_intervals_sent == 1
            intervals = daemon.store.interval_list("c1").intervals
            assert [(iv.lo, iv.hi) for iv in intervals] == [(1, 1), (5, 5),
                                                            (9, 9)]
            writer.close()
            await writer.wait_closed()

    run(main())


def test_read_log_packs_within_packet_budget(tmp_path):
    async def main():
        async with Cluster(tmp_path, m=1) as cluster:
            from repro.net.codec import frame, read_message
            from repro.net.messages import (
                RECORD_HEADER_BYTES,
                ReadLogBackwardCall,
                ReadLogForwardCall,
                ReadLogReply,
            )
            from repro.net.packet import PACKET_PAYLOAD_BYTES

            daemon = cluster.daemons["s1"]
            from repro.core.records import StoredRecord

            for lsn in range(1, 101):
                daemon.store.append_records(
                    "c1", (StoredRecord(lsn=lsn, epoch=1, data=b"d" * 100),),
                    fsync=False,
                )
            host, port = cluster.addresses()["s1"]
            reader, writer = await asyncio.open_connection(host, port)

            writer.write(frame(ReadLogForwardCall("c1", 1)))
            await writer.drain()
            fwd = await read_message(reader)
            assert isinstance(fwd, ReadLogReply)
            per_record = RECORD_HEADER_BYTES + 100
            expected = PACKET_PAYLOAD_BYTES // per_record
            assert len(fwd.records) == expected
            assert [r.lsn for r in fwd.records] == list(range(1, expected + 1))

            writer.write(frame(ReadLogBackwardCall("c1", 100)))
            await writer.drain()
            bwd = await read_message(reader)
            assert isinstance(bwd, ReadLogReply)
            assert [r.lsn for r in bwd.records] == \
                list(range(101 - expected, 101))

            # Reading past the end returns an empty reply, not an error.
            writer.write(frame(ReadLogForwardCall("c1", 200)))
            await writer.drain()
            empty = await read_message(reader)
            assert isinstance(empty, ReadLogReply) and empty.records == ()
            writer.close()
            await writer.wait_closed()

    run(main())


def test_two_clients_share_a_cluster(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            a = AsyncReplicatedLog("alice", cluster.addresses(), CONFIG)
            b = AsyncReplicatedLog("bob", cluster.addresses(), CONFIG)
            await a.initialize()
            await b.initialize()
            la = await a.write(b"from-alice")
            lb = await b.write(b"from-bob")
            await a.force()
            await b.force()
            assert (await a.read(la)).data == b"from-alice"
            assert (await b.read(lb)).data == b"from-bob"
            await a.close()
            await b.close()

    run(main())


def test_use_before_initialize_raises(tmp_path):
    async def main():
        async with Cluster(tmp_path) as cluster:
            log = AsyncReplicatedLog("c1", cluster.addresses(), CONFIG)
            with pytest.raises(NotInitialized):
                await log.write(b"x")
            await log.close()

    run(main())
