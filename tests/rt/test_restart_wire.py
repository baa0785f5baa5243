"""The restart procedure's exact wire sequence against real daemons.

Section 3.1.2's restart and the fenced takeover are a fixed sequence of
call batches: interval lists, the Appendix I NewID read and write, one
packed read of the δ window, CopyLog, then InstallCopies (and, for a
takeover, FenceLog plus a second gather).  The calls of one batch go
out together, so a restart costs six round trips and a takeover eight.
These tests pin the sequence call by call — server id and message
type, in issue order — together with the ``client.*`` crash points a
recording :class:`~repro.rt.clientfault.ClientFaultInjector` sees,
which fire after each batch returns, in server order.  Any
restructuring of the client's recovery code must keep both lists
identical.  The call counts match perfbench's ``client.restart_calls``
(18) and ``client.takeover_calls`` (28) at M=5, N=2, δ=8; a per-LSN δ
read and one-server-at-a-time steps cost 25 and 35, and neither count
may grow back.
"""

from __future__ import annotations

import asyncio
import os

from repro.core.config import ReplicationConfig
from repro.rt import clientfault
from repro.rt.client import AsyncReplicatedLog, ServerConnection
from repro.rt.clientfault import ClientFaultInjector
from repro.rt.filestore import FileLogStore
from repro.rt.server import LogServerDaemon

CONFIG = ReplicationConfig(total_servers=5, copies=2, delta=8)
SERVERS = [f"s{i}" for i in range(1, 6)]
#: records the preloading writer forces, well beyond δ.
PRELOAD = 20


def _calls(*pairs):
    """Expand ``(servers, message type)`` pairs into a flat call list."""
    return [(sid, name) for servers, name in pairs for sid in servers]


LISTS = (SERVERS, "IntervalListCall")
NEW_ID = [(SERVERS, "GeneratorReadCall"), (SERVERS[:3], "GeneratorWriteCall")]
#: the whole δ window comes back in one packed read from the first
#: server storing its lowest record.
READS = (["s1"], "ReadLogForwardCall")
COPY_INSTALL = [(SERVERS[:2], "CopyLogCall"),
                (SERVERS[:2], "InstallCopiesCall")]

INITIALIZE_CALLS = _calls(LISTS, *NEW_ID, READS, *COPY_INSTALL)
TAKEOVER_CALLS = _calls(LISTS, *NEW_ID, (SERVERS, "FenceLogCall"),
                        LISTS, READS, *COPY_INSTALL)

RECOVERY_POINTS = [
    "client.recovery.staged:0",
    "client.recovery.copylog:0", "client.recovery.copylog:1",
    "client.recovery.install:0", "client.recovery.install:1",
    "client.recovery.commit:0",
]
INITIALIZE_POINTS = [
    "client.init.connect:0", "client.init.lists:0", "client.init.merge:0",
    "client.epoch.read:0", "client.epoch.written:0",
] + RECOVERY_POINTS
TAKEOVER_POINTS = [
    "client.handoff.connect:0", "client.handoff.lists:0",
    "client.epoch.read:0", "client.epoch.written:0",
    "client.handoff.epoch:0",
] + [f"client.handoff.fence.ack:{i}" for i in range(len(SERVERS))] + [
    "client.handoff.fenced:0",
] + RECOVERY_POINTS


async def _start_daemons(root) -> dict[str, LogServerDaemon]:
    daemons = {}
    for sid in SERVERS:
        daemon = LogServerDaemon(FileLogStore(os.path.join(root, sid), sid))
        await daemon.start()
        daemons[sid] = daemon
    return daemons


async def _recorded(operation, calls: list) -> list[str]:
    """Run ``operation()`` under a fresh recording injector; return the
    crash points it reached.  ``calls`` is cleared first."""
    calls.clear()
    injector = ClientFaultInjector()
    clientfault.install(injector)
    try:
        await operation()
    finally:
        clientfault.install(None)
    return injector.trace


def test_restart_and_takeover_wire_sequence(tmp_path, monkeypatch):
    calls: list[tuple[str, str]] = []
    original_call = ServerConnection.call

    async def recording_call(self, msg):
        calls.append((self.server_id, type(msg).__name__))
        return await original_call(self, msg)

    monkeypatch.setattr(ServerConnection, "call", recording_call)

    async def main():
        daemons = await _start_daemons(tmp_path)
        addresses = {sid: (d.host, d.port) for sid, d in daemons.items()}
        logs = []
        try:
            writer = AsyncReplicatedLog("c", addresses, CONFIG)
            logs.append(writer)
            await writer.initialize()
            for i in range(PRELOAD):
                await writer.write(f"r{i}".encode())
            await writer.force()

            restarted = AsyncReplicatedLog("c", addresses, CONFIG)
            logs.append(restarted)
            init_points = await _recorded(restarted.initialize, calls)
            init_calls = list(calls)

            successor = AsyncReplicatedLog("c", addresses, CONFIG)
            logs.append(successor)
            takeover_points = await _recorded(successor.takeover, calls)
            takeover_calls = list(calls)
            assert restarted.recovery_calls == len(init_calls)
            assert successor.recovery_calls == len(takeover_calls)
            # lists, NewID read, NewID write, δ read, CopyLog, Install;
            # a takeover adds the fence and the post-fence lists
            assert restarted.recovery_rounds == 6
            assert successor.recovery_rounds == 8
        finally:
            for log in logs:
                await log.close()
            for daemon in daemons.values():
                await daemon.close()
        return init_calls, init_points, takeover_calls, takeover_points

    init_calls, init_points, takeover_calls, takeover_points = \
        asyncio.run(main())
    assert len(INITIALIZE_CALLS) == 18 and len(TAKEOVER_CALLS) == 28
    # Never more calls than one-server-at-a-time steps with a per-LSN
    # δ read made.
    assert len(INITIALIZE_CALLS) <= 25 and len(TAKEOVER_CALLS) <= 35
    assert init_calls == INITIALIZE_CALLS
    assert init_points == INITIALIZE_POINTS
    assert takeover_calls == TAKEOVER_CALLS
    assert takeover_points == TAKEOVER_POINTS
