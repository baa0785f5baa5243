"""Frame scanning and the network fault grammar.

Unit-level coverage for the pieces under the network crash sweep: the
incremental :class:`~repro.net.codec.FrameScanner`, the
``net.<kind>.<dir>:<idx>:<action>`` plan grammar, and the per-frame
fault actions applied by a :class:`~repro.rt.chaosproxy.ChaosProxy`
against an in-process echo peer speaking real frames.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net import codec
from repro.net.codec import (
    FRAME_PREFIX_BYTES,
    NAME_TYPES,
    RECORD_BEARING_KINDS,
    TYPE_NAMES,
    FrameScanner,
    WireCodecError,
    frame,
)
from repro.core.records import StoredRecord
from repro.net.messages import (
    ForceLogMsg,
    IntervalListCall,
    NewHighLSNMsg,
    WriteLogMsg,
)
from repro.rt.chaosproxy import ChaosProxy
from repro.rt.faultfs import NET_ACTIONS, FaultSpecError, parse_plans


def _record(lsn: int, data: bytes = b"payload") -> StoredRecord:
    return StoredRecord(lsn=lsn, epoch=1, present=True, data=data,
                        kind="data")


def _frames():
    return [
        frame(IntervalListCall("c1")),
        frame(WriteLogMsg("c1", epoch=1, records=(_record(1),))),
        frame(ForceLogMsg("c1", epoch=1, records=(_record(2),))),
        frame(NewHighLSNMsg("s1", new_high_lsn=2)),
    ]


# -- FrameScanner ------------------------------------------------------------


def test_scanner_splits_arbitrary_chunking():
    wire = b"".join(_frames())
    bulk = FrameScanner()
    got_bulk = bulk.feed(wire)
    assert [f.kind for f in got_bulk] == [
        "intervallistcall", "writelog", "forcelog", "newhighlsn"]
    # Byte-at-a-time must produce the identical frame images.
    trickle = FrameScanner()
    got_trickle = []
    for i in range(len(wire)):
        got_trickle.extend(trickle.feed(wire[i:i + 1]))
    assert [f.data for f in got_trickle] == [f.data for f in got_bulk]
    assert trickle.pending_bytes == 0
    assert trickle.frames_scanned == 4


def test_scanner_rejects_bad_magic_and_keeps_bytes():
    wire = bytearray(frame(IntervalListCall("c1")))
    wire[FRAME_PREFIX_BYTES] ^= 0xFF
    scanner = FrameScanner()
    with pytest.raises(WireCodecError):
        scanner.feed(bytes(wire))
    # Nothing is lost: the raw-passthrough fallback can drain it all.
    assert scanner.take_buffer() == bytes(wire)
    assert scanner.pending_bytes == 0


def test_scanner_rejects_absurd_length():
    bad = (codec._FRAME_PREFIX.pack(codec.MAX_FRAME_BYTES + 1)
           + b"\x00" * 40)
    with pytest.raises(WireCodecError):
        FrameScanner().feed(bad)


def test_type_name_tables_are_a_bijection():
    codes = {value for name, value in vars(codec).items()
             if name.startswith("T_") and isinstance(value, int)}
    assert set(TYPE_NAMES) == codes
    assert {NAME_TYPES[n] for n in NAME_TYPES} == codes
    assert RECORD_BEARING_KINDS <= set(NAME_TYPES)


# -- the plan grammar --------------------------------------------------------


def test_net_plan_parse_round_trips():
    for spec in ("net.writelog.c2s:0:drop",
                 "net.newhighlsn.s2c:3:partition-after",
                 "s2@net.forcelog.c2s:1:corrupt-payload"):
        (plan,) = parse_plans(spec)
        assert plan.spec == spec
        assert plan.family == "net"
        assert plan.action in NET_ACTIONS
    # The --point shorthand defaults a frame fault to drop.
    assert parse_plans("net.ack.s2c:2", defaults=True)[0].action == "drop"


@pytest.mark.parametrize("bad", [
    "net.writelog.c2s",                      # no index/action
    "net.nosuchkind.c2s:0:drop",             # unknown message kind
    "net.writelog.sideways:0:drop",          # bad direction
    "net.writelog.c2s:-1:drop",              # negative index
    "net.writelog.c2s:0:explode",            # unknown action
    "log.fsync:0:drop",                      # storage site, not net
    "@net.writelog.c2s:0:drop",              # empty server id
    "net.writelog.c2s:x:drop",               # non-integer index
])
def test_net_plan_rejects_malformed(bad):
    bad_token = {
        "net.nosuchkind.c2s:0:drop": "nosuchkind",
        "net.writelog.sideways:0:drop": "sideways",
        "net.writelog.c2s:-1:drop": "-1",
        "net.writelog.c2s:0:explode": "explode",
        "log.fsync:0:drop": "drop",
        "net.writelog.c2s:x:drop": "x",
    }.get(bad, bad)
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plans(bad)
    assert excinfo.value.token == bad_token


def test_parse_net_plans_rejects_duplicates():
    plans = parse_plans(
        "net.writelog.c2s:0:drop,s2@net.writelog.c2s:0:drop")
    assert len(plans) == 2  # same point, different servers: legal
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plans("net.writelog.c2s:0:drop,net.writelog.c2s:0:delay")
    assert excinfo.value.token == "net.writelog.c2s:0"


# -- frame actions through a live proxy --------------------------------------


async def _frame_echo_server():
    """An upstream that echoes complete *frames* (never partials)."""

    async def handle(reader, writer):
        scanner = FrameScanner()
        try:
            while True:
                chunk = await reader.read(4096)
                if not chunk:
                    break
                for f in scanner.feed(chunk):
                    writer.write(f.data)
                    await writer.drain()
        except (ConnectionError, OSError, WireCodecError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _run_through_proxy(plans, send_frames, *, read_timeout=0.5):
    """Send frames through an armed proxy; return echoed frame kinds."""
    upstream = await _frame_echo_server()
    port = upstream.sockets[0].getsockname()[1]
    proxy = ChaosProxy("127.0.0.1", port, plans=plans)
    await proxy.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", proxy.port)
    scanner = FrameScanner()
    got = []
    try:
        for data in send_frames:
            writer.write(data)
            await writer.drain()
            # Keep frames in separate chunks so a mid-stream teardown
            # (corrupt-header, truncate) cannot retroactively eat
            # earlier frames coalesced into the same TCP segment.
            await asyncio.sleep(0.05)
        while True:
            try:
                chunk = await asyncio.wait_for(reader.read(4096),
                                               timeout=read_timeout)
            except asyncio.TimeoutError:
                break
            if not chunk:
                break
            got.extend(f.kind for f in scanner.feed(chunk))
    finally:
        writer.close()
        await proxy.close()
        upstream.close()
        await upstream.wait_closed()
    return got, proxy


def test_drop_swallows_only_the_armed_frame():
    async def main():
        got, proxy = await _run_through_proxy(
            parse_plans("net.writelog.c2s:0:drop"), _frames())
        assert got == ["intervallistcall", "forcelog", "newhighlsn"]
        assert proxy.frames_dropped == 1
        assert proxy.dropped_by_direction["c2s"] == 1
        assert proxy.tripped == "net.writelog.c2s:0:drop"

    asyncio.run(main())


def test_duplicate_forwards_twice():
    async def main():
        got, proxy = await _run_through_proxy(
            parse_plans("net.forcelog.c2s:0:duplicate"), _frames())
        assert got.count("forcelog") == 2
        assert proxy.frames_duplicated == 1

    asyncio.run(main())


def test_corrupt_header_breaks_only_that_frame_boundary():
    async def main():
        # The echo upstream's scanner rejects the corrupted frame and
        # drops the connection — earlier frames made it through intact.
        got, proxy = await _run_through_proxy(
            parse_plans("net.forcelog.c2s:0:corrupt-header"),
            _frames())
        assert "intervallistcall" in got and "writelog" in got
        assert "forcelog" not in got
        assert proxy.frames_corrupted == 1

    asyncio.run(main())


def test_truncate_mid_frame_kills_the_connection():
    async def main():
        got, proxy = await _run_through_proxy(
            parse_plans("net.writelog.c2s:1:truncate-mid-frame"),
            _frames() + [frame(WriteLogMsg("c1", epoch=1,
                                           records=(_record(3),)))])
        assert proxy.frames_truncated == 1
        assert proxy.connections_killed == 1
        assert got.count("writelog") <= 1

    asyncio.run(main())


def test_partition_after_blocks_the_rest_of_the_direction():
    async def main():
        got, proxy = await _run_through_proxy(
            parse_plans("net.intervallistcall.c2s:0:partition-after"),
            _frames())
        # The armed frame itself is forwarded; everything after it in
        # c2s is silently dropped.
        assert got == ["intervallistcall"]
        assert proxy.dropped_by_direction["c2s"] >= 1

    asyncio.run(main())


def test_frame_indices_are_per_site():
    async def main():
        got, proxy = await _run_through_proxy(
            parse_plans("net.writelog.c2s:1:drop"),
            [frame(WriteLogMsg("c1", epoch=1, records=(_record(n),)))
             for n in range(1, 4)]
            + [frame(ForceLogMsg("c1", epoch=1,
                                 records=(_record(4),)))])
        # Index 1 is the *second* writelog; forcelog never shifts it.
        assert got.count("writelog") == 2
        assert got.count("forcelog") == 1

    asyncio.run(main())
