"""The asyncio log-server daemon.

A real-process implementation of the grouped/streamed client–server
protocol of Section 4.2 (Figure 4-1) over TCP:

* **asynchronous** WriteLog and NewInterval — no reply; the server
  watches for LSN gaps and sends the MissingInterval negative
  acknowledgment ("a server detects lost messages when it receives a
  ForceLog or WriteLog message with log sequence numbers that are not
  contiguous with those it has previously received");
* **synchronous** ForceLog — the batch is appended, fsync'd, and
  acknowledged with NewHighLSN only once durable;
* **synchronous calls** IntervalList, ReadLogForward, ReadLogBackward
  (each reply packs as many records as fit in one LAN packet budget),
  CopyLog, InstallCopies, and the Appendix I generator Read/Write;
* **operational messages**: Ping/Pong keep-alive probes, the Section
  5.3 TruncateLog call ("records below the truncation point will never
  be read again" — the store compacts and forgets them), and a Stats
  query exposing daemon and store counters (``repro stats``).  A
  storage failure (disk full, IO error) answers with a typed
  ErrorReply instead of dropping the connection, leaving the daemon
  readable while wedged.

One daemon serves many clients over many connections; per-client gap
tracking is daemon-wide, seeded from the durable high-water mark after
a restart.  Handlers run inline on the event loop — including the
``fsync`` — so a force acts as a natural group-commit barrier for
every connection, the same economy the paper's grouped interface is
designed around.

Group commit is explicit, not just incidental: a ForceLog appends its
records *without* syncing and parks on a shared sync generation; a
single scheduled task then issues one ``fsync`` (crash point
``log.group-fsync``) covering every force parked so far — across all
client connections — and fans the NewHighLSN acks out afterwards.  An
ack is only ever sent for bytes the covering fsync returned for, so
the FaultFS/ALICE crash model is preserved: power loss inside the
shared sync loses *every* parked force's records and *no* ack has been
sent for any of them.
"""

from __future__ import annotations

import asyncio
import logging
import time
from bisect import bisect_left, bisect_right
from typing import Mapping

from ..core.errors import LogError, ProtocolError, RecordNotStored, StorageError
from ..core.records import LSN, StoredRecord
from ..net.codec import FrameReader, frame, frame_new_high_lsn
from ..net.messages import (
    ERR_FENCED,
    ERR_GENERIC,
    ERR_PROTOCOL,
    ERR_QUOTA,
    ERR_STORAGE,
    RECORD_HEADER_BYTES,
    STATS_COUNTERS,
    AckReply,
    CopyLogCall,
    ErrorReply,
    FenceLogCall,
    FenceReply,
    ForceLogMsg,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    Message,
    MissingIntervalMsg,
    NewHighLSNMsg,
    NewIntervalMsg,
    PingMsg,
    PongMsg,
    ReadLogBackwardCall,
    ReadLogForwardCall,
    ReadLogReply,
    StatsCall,
    StatsReply,
    TruncateLogCall,
    TruncateReply,
    WriteLogMsg,
)
from ..net.packet import PACKET_PAYLOAD_BYTES
from .faultfs import FaultInjector, parse_plans
from .filestore import FileLogStore
from .placement import TenantQuota, load_cluster_spec, tenant_of

log = logging.getLogger(__name__)


class LogServerDaemon:
    """One log-server node: a TCP endpoint over a :class:`FileLogStore`."""

    def __init__(
        self,
        store: FileLogStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_budget_bytes: int = PACKET_PAYLOAD_BYTES,
        group_commit: bool = True,
        quotas: Mapping[str, TenantQuota] | None = None,
    ):
        self.store = store
        self.host = host
        self.port = port
        self.read_budget_bytes = read_budget_bytes
        #: tenant → admission limits ("*" is the default tenant); empty
        #: means no multi-tenant admission control at all.
        self.quotas: dict[str, TenantQuota] = dict(quotas or {})
        #: when set (the default), concurrent ForceLogs share one fsync
        #: via the parked sync generation; clearing it restores the
        #: inline append+fsync+ack path of :meth:`_dispatch`.
        self.group_commit = group_commit
        self._server: asyncio.AbstractServer | None = None
        #: next LSN expected per client ("contiguous with those it has
        #: previously received"); absent ⇒ seed from the durable high.
        self._expected: dict[str, LSN] = {}
        #: forces parked on the current sync generation:
        #: (connection writer, client id, high LSN to acknowledge).
        self._parked_forces: list[
            tuple[asyncio.StreamWriter, str, LSN]] = []
        self._sync_task: asyncio.Task | None = None
        self._sync_wanted = asyncio.Event()
        #: tenant → {client stream: last-activity monotonic time}.  A
        #: stream slot is sticky while active; a tenant quota with an
        #: ``idle_ttl_s`` lets slots idle out and be reclaimed, so
        #: tenants can churn stream ids without a daemon restart.
        self._tenant_streams: dict[str, dict[str, float]] = {}
        #: tenant → [tokens, last_refill] for the records/s bucket.
        self._tenant_buckets: dict[str, list[float]] = {}
        self.quota_rejections = 0
        self.messages_handled = 0
        self.missing_intervals_sent = 0
        self.forces_acked = 0
        self.pings_answered = 0
        #: forces that shared a predecessor's fsync (size-1 groups add 0).
        self.forces_coalesced = 0
        #: shared group syncs issued (≤ forces when coalescing works).
        self.group_syncs = 0
        #: buffers handed to the transport via vectored reply writes.
        self.send_iovecs = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._sync_task is not None and not self._sync_task.done():
            self._sync_task.cancel()
            try:
                await self._sync_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.store.close()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader(reader)
        images: list[bytes] = []
        try:
            while True:
                images.clear()
                msg = await frames.read_message(images)
                if msg is None:
                    break
                self.messages_handled += 1
                denial = self._fence_denial(msg)
                if denial is None and self.quotas \
                        and isinstance(msg, WriteLogMsg):
                    denial = self._admit(msg)
                if denial is not None:
                    replies = [denial]
                elif self.group_commit and isinstance(msg, ForceLogMsg):
                    replies = self._park_force(msg, writer, images)
                else:
                    replies = self._dispatch(msg, images)
                if replies:
                    self._write_replies(writer, replies)
                    await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:
            log.exception("connection handler failed on %s",
                          self.store.server_id)
        finally:
            frames.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # server shutdown cancels handlers mid-close; swallow
                # so the cancellation doesn't surface as loop noise
                pass

    def _write_replies(self, writer: asyncio.StreamWriter,
                       replies: list[Message]) -> None:
        bufs = [frame(reply) for reply in replies]
        writer.writelines(bufs)
        self.send_iovecs += len(bufs)

    # -- group commit --------------------------------------------------

    def _park_force(self, msg: ForceLogMsg, writer: asyncio.StreamWriter,
                    images: list[bytes] | None = None) -> list[Message]:
        """Append a ForceLog's records and park it on the shared sync.

        Anything that must be said *before* durability — the
        MissingInterval NAK for a gap, a typed error for a failed
        append — is returned for an inline reply exactly as on the
        ungrouped path.  The NewHighLSN ack is not: it fans out from
        :meth:`_sync_loop` after the one fsync that covers every
        parked force, and never before.
        """
        out = self._on_write(msg, force=False, images=images)
        if any(isinstance(reply, ErrorReply) for reply in out):
            return out  # nothing was appended; nothing to acknowledge
        self._parked_forces.append((writer, msg.client_id, msg.high_lsn))
        if self._sync_task is None or self._sync_task.done():
            self._sync_task = asyncio.create_task(self._sync_loop())
        self._sync_wanted.set()
        return out

    async def _sync_loop(self) -> None:
        """The long-lived group-commit worker: one fsync per generation.

        Parked on an :class:`asyncio.Event` between generations (no
        per-force task creation).  One scheduling yield before each
        fsync: connection handlers that already hold complete frames in
        their receive buffers get to park their forces on this
        generation, so concurrent clients share the fsync instead of
        paying one each.
        """
        while True:
            await self._sync_wanted.wait()
            self._sync_wanted.clear()
            await asyncio.sleep(0)
            while self._parked_forces:
                batch = self._parked_forces
                self._parked_forces = []
                try:
                    self.store.sync(site="log.group-fsync")
                except LogError as exc:
                    code = _error_code(exc)
                    for writer, client_id, _high in batch:
                        self._reply_safely(writer, [
                            ErrorReply(client_id, str(exc), code=code)])
                    continue
                self.group_syncs += 1
                self.forces_coalesced += len(batch) - 1
                acks: dict[
                    int, tuple[asyncio.StreamWriter, list[bytes]]] = {}
                for writer, client_id, high in batch:
                    entry = acks.setdefault(id(writer), (writer, []))
                    entry[1].append(frame_new_high_lsn(client_id, high))
                    self.forces_acked += 1
                for writer, bufs in acks.values():
                    self._write_frames_safely(writer, bufs)

    def _reply_safely(self, writer: asyncio.StreamWriter,
                      replies: list[Message]) -> None:
        """Write replies to a connection that may have died meanwhile."""
        self._write_frames_safely(writer, [frame(r) for r in replies])

    def _write_frames_safely(self, writer: asyncio.StreamWriter,
                             bufs: list[bytes]) -> None:
        """Vectored write to a connection that may have died meanwhile."""
        try:
            if not writer.is_closing():
                writer.writelines(bufs)
                self.send_iovecs += len(bufs)
        except (ConnectionError, OSError):  # pragma: no cover - races
            pass

    # -- ownership fencing ---------------------------------------------

    def _fence_denial(self, msg: Message) -> ErrorReply | None:
        """Refuse a stale-epoch append/truncate on a fenced stream.

        Checked *before* admission and before any byte reaches the
        store, so a fenced writer's ForceLog is neither appended nor
        parked for group commit — it provably commits nothing.
        NewInterval is covered too: a fenced writer must not move the
        stream's interval expectation out from under the new owner.
        Epoch 0 (a legacy/unfenced caller) passes only while no fence
        exists.
        """
        if not isinstance(msg, (WriteLogMsg, NewIntervalMsg,
                                TruncateLogCall)):
            return None
        fence = self.store.fence_epoch(msg.client_id)
        if fence and msg.epoch < fence:
            self.store.fence_rejections += 1
            return ErrorReply(
                msg.client_id,
                f"stream fenced at epoch {fence}; "
                f"epoch {msg.epoch} is superseded",
                code=ERR_FENCED,
            )
        return None

    def _on_fence(self, msg: FenceLogCall) -> list[Message]:
        """Durably install a fence epoch for the client's stream.

        Monotone: an attempt below the standing fence is answered with
        ``ERR_FENCED`` (the *installer* lost a takeover race and must
        stop, exactly like a fenced writer), an equal attempt is an
        idempotent retransmission, and a higher one is fsync'd before
        the acknowledging :class:`FenceReply` leaves the daemon.
        """
        standing = self.store.fence_write(msg.client_id, msg.epoch)
        if standing > msg.epoch:
            self.store.fence_rejections += 1
            return [ErrorReply(
                msg.client_id,
                f"stream fenced at epoch {standing}; "
                f"epoch {msg.epoch} is superseded",
                code=ERR_FENCED,
            )]
        return [FenceReply(msg.client_id, epoch=standing)]

    # -- multi-tenant admission ----------------------------------------

    def _admit(self, msg: WriteLogMsg) -> ErrorReply | None:
        """Enforce the tenant's quota on a WriteLog/ForceLog.

        Stream admission counts distinct client ids per tenant; the
        records/s limit is a token bucket charged per *forced* record
        (a force re-sends its whole unacknowledged window, so charging
        forces meters exactly what gets durably acknowledged — streamed
        WriteLogs ride free until their covering force).  A denial is a
        typed ``ErrorReply`` (``ERR_QUOTA``) and nothing is appended,
        the same reply shape a wedged disk produces — clients already
        know how to react to a refused call, they just back off instead
        of switching servers.

        When the quota sets ``idle_ttl_s``, a full stream table is
        swept before refusing a new stream: slots whose last activity
        is older than the TTL are evicted, so a tenant that churns
        short-lived stream ids is re-admitted instead of being wedged
        behind dead slots until the daemon restarts.
        """
        tenant = tenant_of(msg.client_id)
        quota = self.quotas.get(tenant)
        if quota is None:
            quota = self.quotas.get("*")
        if quota is None:
            return None
        streams = self._tenant_streams.setdefault(tenant, {})
        now = time.monotonic()
        if msg.client_id not in streams:
            if quota.idle_ttl_s and quota.max_streams \
                    and len(streams) >= quota.max_streams:
                cutoff = now - quota.idle_ttl_s
                for cid in [c for c, last in streams.items()
                            if last <= cutoff]:
                    del streams[cid]
            if quota.max_streams and len(streams) >= quota.max_streams:
                self.quota_rejections += 1
                return ErrorReply(
                    msg.client_id,
                    f"tenant {tenant!r} stream quota "
                    f"({quota.max_streams}) exhausted",
                    code=ERR_QUOTA,
                )
        streams[msg.client_id] = now
        if quota.max_records_per_s and isinstance(msg, ForceLogMsg):
            now = time.monotonic()
            bucket = self._tenant_buckets.get(tenant)
            capacity = quota.max_records_per_s * max(quota.burst_s, 0.001)
            if bucket is None:
                bucket = [capacity, now]
                self._tenant_buckets[tenant] = bucket
            tokens = min(capacity,
                         bucket[0] + (now - bucket[1])
                         * quota.max_records_per_s)
            bucket[1] = now
            if tokens < len(msg.records):
                bucket[0] = tokens
                self.quota_rejections += 1
                return ErrorReply(
                    msg.client_id,
                    f"tenant {tenant!r} over {quota.max_records_per_s:g} "
                    f"records/s",
                    code=ERR_QUOTA,
                )
            bucket[0] = tokens - len(msg.records)
        return None

    # -- dispatch -----------------------------------------------------

    def _dispatch(self, msg: Message,
                  images: list[bytes] | None = None) -> list[Message]:
        # ForceLogMsg subclasses WriteLogMsg: test it first.
        if isinstance(msg, ForceLogMsg):
            return self._on_write(msg, force=True, images=images)
        if isinstance(msg, WriteLogMsg):
            return self._on_write(msg, force=False, images=images)
        if isinstance(msg, NewIntervalMsg):
            self._expected[msg.client_id] = msg.starting_lsn
            return []
        if isinstance(msg, IntervalListCall):
            report = self.store.interval_list(msg.client_id)
            return [IntervalListReply(msg.client_id, report.intervals)]
        if isinstance(msg, ReadLogForwardCall):
            return [self._on_read(msg.client_id, msg.lsn, forward=True)]
        if isinstance(msg, ReadLogBackwardCall):
            return [self._on_read(msg.client_id, msg.lsn, forward=False)]
        if isinstance(msg, CopyLogCall):
            return self._guarded(msg, self._on_copy)
        if isinstance(msg, InstallCopiesCall):
            return self._guarded(msg, self._on_install)
        if isinstance(msg, GeneratorReadCall):
            return [GeneratorReadReply(msg.client_id,
                                       self.store.generator_value)]
        if isinstance(msg, GeneratorWriteCall):
            self.store.generator_write(msg.value)
            return [AckReply(msg.client_id, ok=True)]
        if isinstance(msg, PingMsg):
            self.pings_answered += 1
            return [PongMsg(msg.client_id, token=msg.token)]
        if isinstance(msg, TruncateLogCall):
            return self._guarded(msg, self._on_truncate)
        if isinstance(msg, FenceLogCall):
            return self._guarded(msg, self._on_fence)
        if isinstance(msg, StatsCall):
            return [self._on_stats(msg)]
        return [ErrorReply(msg.client_id,
                           f"unhandled message {type(msg).__name__}",
                           code=ERR_PROTOCOL)]

    def _guarded(self, msg: Message, handler) -> list[Message]:
        try:
            return handler(msg)
        except LogError as exc:
            return [ErrorReply(msg.client_id, str(exc),
                               code=_error_code(exc))]

    def _on_write(self, msg: WriteLogMsg, *, force: bool,
                  images: list[bytes] | None = None) -> list[Message]:
        client_id = msg.client_id
        out: list[Message] = []
        expected = self._expected.get(client_id)
        if expected is None:
            high = self.store.client_high_lsn(client_id)
            expected = high + 1 if high is not None else None
        if expected is not None and msg.low_lsn > expected:
            out.append(MissingIntervalMsg(client_id, lo=expected,
                                          hi=msg.low_lsn - 1))
            self.missing_intervals_sent += 1
        if images is not None and len(images) != len(msg.records):
            images = None  # defensive: only trust an aligned capture
        try:
            self.store.append_records(client_id, msg.records, fsync=force,
                                      images=images)
        except LogError as exc:
            out.append(ErrorReply(client_id, str(exc),
                                  code=_error_code(exc)))
            return out
        self._expected[client_id] = msg.high_lsn + 1
        if force:
            out.append(NewHighLSNMsg(client_id, new_high_lsn=msg.high_lsn))
            self.forces_acked += 1
        return out

    def _on_read(self, client_id: str, lsn: LSN, *, forward: bool) -> Message:
        """Pack stored records around ``lsn``, as many as fit a packet.

        Reads start at the requested LSN when it is stored, else at the
        nearest stored LSN in the scan direction; the reply carries the
        highest-epoch copy of each.  An empty reply means the server
        stores nothing on that side.
        """
        lsns = self.store.stored_lsns(client_id)
        picked: list[StoredRecord] = []
        budget = self.read_budget_bytes
        if forward:
            index = bisect_left(lsns, lsn)
            step = 1
        else:
            index = bisect_right(lsns, lsn) - 1
            step = -1
        while 0 <= index < len(lsns) and budget > 0:
            try:
                record = self.store.read_record(client_id, lsns[index])
            except RecordNotStored:  # pragma: no cover - lsns() is stored
                break
            cost = RECORD_HEADER_BYTES + len(record.data)
            if picked and cost > budget:
                break
            budget -= cost
            picked.append(record)
            index += step
        if not forward:
            picked.reverse()
        return ReadLogReply(client_id, tuple(picked))

    def _on_copy(self, msg: CopyLogCall) -> list[Message]:
        for record in msg.records:
            self.store.stage_copy(msg.client_id, record)
        return [AckReply(msg.client_id, ok=True)]

    def _on_install(self, msg: InstallCopiesCall) -> list[Message]:
        self.store.install_copies(msg.client_id, msg.epoch)
        # The new epoch writes on from the highest installed LSN (the
        # last guard), not from the old writer's next LSN: a tracker
        # left there would NAK the guards as missing on the first force.
        high = self.store.client_high_lsn(msg.client_id)
        if high is not None:
            self._expected[msg.client_id] = high + 1
        return [AckReply(msg.client_id, ok=True)]

    # -- Section 5.3: log space management -----------------------------

    def _on_truncate(self, msg: TruncateLogCall) -> list[Message]:
        """Reclaim everything below the client's low-water LSN.

        The paper's Section 5.3 lets a client tell its servers that log
        records below a truncation point "will never be read again";
        the store drops them from memory, compacts the on-disk log, and
        remembers the mark so a post-restart replay (or a late
        retransmission) cannot resurrect reclaimed records.
        """
        dropped = self.store.truncate_below(msg.client_id,
                                            msg.low_water_lsn)
        expected = self._expected.get(msg.client_id)
        if expected is not None and expected < msg.low_water_lsn:
            # Gap tracking must never NAK for reclaimed LSNs.
            self._expected[msg.client_id] = msg.low_water_lsn
        return [TruncateReply(msg.client_id,
                              low_water_lsn=msg.low_water_lsn,
                              records_dropped=dropped)]

    def _on_stats(self, msg: StatsCall) -> Message:
        store = self.store
        values = {
            "messages_handled": self.messages_handled,
            "missing_intervals_sent": self.missing_intervals_sent,
            "forces_acked": self.forces_acked,
            "pings_answered": self.pings_answered,
            "bytes_appended": store.bytes_appended,
            "log_bytes": store.log_size_bytes,
            "store_records": store.record_count(),
            "truncations": store.truncations,
            "truncated_lsn": store.truncated_lsn(msg.client_id),
            "storage_errors": store.storage_errors,
            "injected_faults": store.injected_faults,
            "recovery_replays": store.recovered_entries,
            "crc_rejections": store.crc_rejections,
            "fsyncs": store.fsyncs,
            "records_per_fsync": (
                store.records_appended // store.fsyncs
                if store.fsyncs else 0),
            "forces_coalesced": self.forces_coalesced,
            "send_iovecs": self.send_iovecs,
            "quota_rejections": self.quota_rejections,
            "tenant_streams": sum(len(s)
                                  for s in self._tenant_streams.values()),
            "fence_rejections": store.fence_rejections,
            "fence_epoch": store.fence_epoch(msg.client_id),
        }
        counters = tuple(values[name] for name in STATS_COUNTERS)
        return StatsReply(msg.client_id, counters)


def _error_code(exc: LogError) -> int:
    if isinstance(exc, StorageError):
        return ERR_STORAGE
    if isinstance(exc, ProtocolError):
        return ERR_PROTOCOL
    return ERR_GENERIC


async def run_server(
    data_dir: str,
    server_id: str,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce=print,
    ready: "asyncio.Event | None" = None,
    compact_watermark_bytes: int | None = None,
    fault_plan: str | None = None,
    fault_trace: str | None = None,
    group_commit: bool = True,
    cluster_spec: str | None = None,
) -> None:
    """Run one daemon until cancelled (the ``repro serve`` entry point).

    Prints ``REPRO-SERVE <server_id> <host> <port>`` once listening so
    a parent process (:mod:`repro.rt.cluster`) can harvest the
    ephemeral port.

    ``cluster_spec`` names a ``placements.json`` file; the daemon reads
    its per-tenant quotas (the roster section is for clients — the
    daemon still binds ``host:port`` from its own arguments, since
    harness-spawned daemons use ephemeral ports the spec cannot know).

    ``fault_plan`` (comma-separated ``site:index:action`` specs) arms
    storage faults via :class:`~repro.rt.faultfs.FaultInjector`; an
    injected power loss exits the process with status 86 after printing
    ``REPRO-FAULT-CRASH <site>:<index>`` to stderr.  ``fault_trace``
    appends every I/O crash point hit to a file, which is how the
    sweep harness enumerates a daemon workload's points.
    """
    io = None
    if fault_plan is not None or fault_trace is not None:
        plans = parse_plans(fault_plan, family="storage") if fault_plan \
            else ()
        io = FaultInjector(plans, mode="exit", trace_path=fault_trace)
    quotas = (load_cluster_spec(cluster_spec).quotas
              if cluster_spec is not None else None)
    store = FileLogStore(data_dir, server_id,
                         compact_watermark_bytes=compact_watermark_bytes,
                         io=io)
    daemon = LogServerDaemon(store, host, port, group_commit=group_commit,
                             quotas=quotas)
    await daemon.start()
    announce(f"REPRO-SERVE {server_id} {daemon.host} {daemon.port}",
             flush=True)
    if ready is not None:
        ready.set()
    try:
        await daemon.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await daemon.close()
