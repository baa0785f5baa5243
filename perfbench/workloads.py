"""The three closed-loop workloads and the correctness gate.

Every call into the system goes through the public API of
:class:`repro.rt.client.AsyncReplicatedLog` (``initialize``,
``takeover``, ``write``, ``force``, ``read``, ``truncate`` and its
public counters) against real ``repro serve`` daemons started by
:class:`repro.rt.cluster.LoopbackCluster`.  Each TP client waits for
its commit acknowledgment before starting the next transaction, as
TABS does.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.core.config import ReplicationConfig
from repro.core.errors import LogError, LogFenced
from repro.core.records import trusted_stored_record
from repro.rt.client import AsyncReplicatedLog
from repro.rt.filestore import FileLogStore

import probes

_now = time.perf_counter

#: the client's public counters that together make ``client.retries``
CLIENT_COUNTERS = ("server_switches", "slow_strikes",
                   "missing_intervals_seen")

RECORD_BYTES = 100
UPDATES_PER_TXN = 6  # plus one commit (or abort) record: ET1's seven
COPIES = 2           # N, on every workload
DELTA = 8            # δ, on every workload


@dataclass(frozen=True)
class Shape:
    name: str
    servers: int            # M
    streams: int            # concurrent TP clients, one log stream each
    preload: int = 0        # acknowledged records per stream before timing
    abort_every: int = 0    # one transaction in this many aborts (0: none)
    truncate_every: int = 0  # committed transactions between truncations
    retain: int = 0         # LSNs kept by each truncation
    restart_loop: bool = False
    #: restart/takeover rounds per stream in the post-window gate; on
    #: the ET1 workloads these rounds supply restart_* and takeover_*.
    gate_rounds: int = 1
    #: acknowledged transactions per stream the gate reads back; on
    #: et1-commit, whose window has no reads, these supply undo_*.
    gate_sample: int = 50
    undo_from_gate: bool = False
    restart_from_gate: bool = False
    #: end-to-end metrics taken as the median over window slices (each
    #: slice holds enough samples for its percentile); the rest pool
    #: every sample of the run.
    sliced: frozenset = frozenset({"records_per_s", "commit_p50_ms",
                                   "commit_p99_ms"})
    #: (first, last, step) window records: ``cpu_us_per_record`` is the
    #: median over the chunks of ``step`` records from ``first`` to
    #: ``last``, and ``stored_bytes_per_user_byte`` is taken at ``last``
    #: — the same work in every run, however fast the host.  Each
    #: workload's cost per record drifts as its logs grow (interval
    #: lists, stored LSNs), so a time-bounded measure would move with
    #: throughput; the median drops chunks that a burst of contention
    #: from other guests of a shared host slowed down.
    measured: tuple[int, int, int] = (5_000, 45_000, 1_000)

    def config(self) -> ReplicationConfig:
        return ReplicationConfig(total_servers=self.servers,
                                 copies=COPIES, delta=DELTA)


SHAPES = {
    "et1-commit": Shape("et1-commit", servers=3, streams=2,
                        gate_rounds=5,
                        undo_from_gate=True, restart_from_gate=True),
    "et1-checkpoint": Shape("et1-checkpoint", servers=3, streams=2,
                            preload=5000, abort_every=10,
                            truncate_every=300, retain=5000,
                            gate_rounds=5, restart_from_gate=True,
                            # one chunk per truncation round (4,667
                            # records: 300 commits and ~33 aborts of
                            # both clients), cut half-way between rounds
                            measured=(7_000, 25_668, 4_667),
                            sliced=frozenset({
                                "records_per_s", "commit_p50_ms",
                                "commit_p99_ms", "undo_p50_ms"})),
    "restart": Shape("restart", servers=5, streams=1, preload=10_000,
                     restart_loop=True,
                     measured=(35, 735, 7),  # iterations 6 to 105
                     sliced=frozenset({
                         "records_per_s", "commit_p50_ms", "undo_p50_ms",
                         "restart_p50_ms", "takeover_p50_ms"})),
}


@dataclass
class Stream:
    """One log stream: its payload generator and what was acknowledged."""

    cid: str
    rng: random.Random
    acked: dict[int, bytes] = field(default_factory=dict)
    #: the LSNs of each acknowledged transaction, in commit order
    txns: list[list[int]] = field(default_factory=list)
    low_water: int = 1
    committed: int = 0
    last_epoch: int = 0
    log: AsyncReplicatedLog | None = None

    def payloads(self) -> list[bytes]:
        blob = self.rng.randbytes(RECORD_BYTES * (UPDATES_PER_TXN + 1))
        return [blob[i:i + RECORD_BYTES]
                for i in range(0, len(blob), RECORD_BYTES)]


@dataclass
class Timing:
    """Latency samples with their completion times (for window slices)."""

    values: list[float] = field(default_factory=list)
    at: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)
        self.at.append(_now())

    def clear(self) -> None:
        self.values.clear()
        self.at.clear()


@dataclass
class Recorder:
    """Everything the runs measure from the outside."""

    commit_ms: Timing = field(default_factory=Timing)
    undo_ms: Timing = field(default_factory=Timing)
    restart_ms: Timing = field(default_factory=Timing)
    takeover_ms: Timing = field(default_factory=Timing)
    write_us: Timing = field(default_factory=Timing)  # non-forcing
    read_us: Timing = field(default_factory=Timing)
    truncate_ms: Timing = field(default_factory=Timing)
    force_sizes: list[int] = field(default_factory=list)
    writes: int = 0
    implicit_forces: int = 0
    records: int = 0          # acknowledged in the timed window
    #: (completion time, records) per acknowledged window transaction
    acked_at: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: per restart round, traced runs only: (server messages of the
    #: initialize, of the takeover, fsyncs of the whole round) — for
    #: timed-window iterations and for gate rounds separately.
    exact_counts: list[tuple[int, int, int]] = field(default_factory=list)
    gate_counts: list[tuple[int, int, int]] = field(default_factory=list)
    fence_checks: int = 0     # superseded writers that must see LogFenced
    #: record counts at which ``on_mark(records)`` is called, once each
    marks: tuple[int, ...] = ()
    on_mark: object = None

    def acked(self, records: int) -> None:
        self.records += records
        self.acked_at.append((_now(), records))
        if self.marks and self.records >= self.marks[0]:
            self.marks = self.marks[1:]
            self.on_mark(self.records)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


class Runner:
    def __init__(self, shape: Shape, seed: int, recorder, tracer,
                 inject: str | None = None):
        self.shape = shape
        #: a deliberate fault in the benchmark's own expectations, to
        #: prove the gate: "bytes" corrupts one expected payload,
        #: "no-fence" hands over with initialize() instead of takeover().
        self.inject = inject
        self.seed = seed
        #: server id → (host, port), known once the daemons are up.
        self.addresses: dict[str, tuple[str, int]] = {}
        self.rec = recorder
        self.tracer = tracer
        #: set only in traced runs: Stats snapshots around restart calls.
        self.probe: probes.StatsProbe | None = None
        self.streams = [
            Stream(f"{'r' if shape.restart_loop else 'c'}{i + 1}",
                   random.Random(f"{seed}/payload/{i}"))
            for i in range(shape.streams)]
        self._instances = 0
        self._txn_ids = 0
        #: public client counters summed over closed instances.
        self.retired: dict[str, int] = dict.fromkeys(CLIENT_COUNTERS, 0)

    # -- helpers --------------------------------------------------------

    def fresh(self, stream: Stream) -> AsyncReplicatedLog:
        self._instances += 1
        return AsyncReplicatedLog(
            stream.cid, self.addresses, self.shape.config(),
            rng=random.Random(f"{self.seed}/client/{self._instances}"))

    def client_counters(self) -> dict[str, int]:
        """Public counters summed over every instance, closed or live."""
        out = dict(self.retired)
        for stream in self.streams:
            if stream.log is not None:
                for key in CLIENT_COUNTERS:
                    out[key] += getattr(stream.log, key)
        return out

    def retained_bytes(self) -> int:
        """Acknowledged payload bytes above every stream's truncation mark."""
        return sum(len(payload) for s in self.streams
                   for lsn, payload in s.acked.items() if lsn >= s.low_water)

    async def retire(self, log: AsyncReplicatedLog) -> None:
        for key in CLIENT_COUNTERS:
            self.retired[key] += getattr(log, key)
        await log.close()

    async def _call(self, coro):
        self.rec.attempted += 1
        return await coro

    async def transaction(self, stream: Stream, log: AsyncReplicatedLog,
                          root, kind: str = "commit") -> list[int]:
        """Six updates and one forced commit/abort record (ET1, §4.1)."""
        rec = self.rec
        tracer = self.tracer
        data = stream.payloads()
        lsns = []
        pending = 0
        for i, payload in enumerate(data):
            rkind = "update" if i < UPDATES_PER_TXN else kind
            before = log.forces_performed
            t0 = _now()
            with tracer.span("client.write", root):
                lsn = await self._call(log.write(payload, rkind))
            elapsed = _now() - t0
            lsns.append(lsn)
            rec.writes += 1
            pending += 1
            if log.forces_performed != before:
                rec.implicit_forces += 1
                rec.force_sizes.append(pending)
                pending = 0
            else:
                rec.write_us.add(elapsed * 1e6)
        t0 = _now()
        with tracer.span("client.force", root):
            await self._call(log.force())
        rec.commit_ms.add((_now() - t0) * 1e3)
        rec.force_sizes.append(pending or 1)
        for lsn, payload in zip(lsns, data):
            stream.acked[lsn] = payload
        stream.txns.append(lsns)
        return lsns

    async def read_back(self, log: AsyncReplicatedLog, stream: Stream,
                        txn: list[int], root) -> float:
        """Read a transaction's updates newest-first, as undo does;
        returns the elapsed ms.  Every byte is checked."""
        t_all = _now()
        for lsn in reversed(txn[:UPDATES_PER_TXN]):
            t0 = _now()
            with self.tracer.span("client.read", root):
                record = await self._call(log.read(lsn))
            self.rec.read_us.add((_now() - t0) * 1e6)
            if record.data != stream.acked.get(lsn):
                self.rec.fail(f"{stream.cid} LSN {lsn}: read-back mismatch")
        return (_now() - t_all) * 1e3

    def next_txn_id(self) -> int:
        self._txn_ids += 1
        return self._txn_ids

    # -- setup ------------------------------------------------------------

    def preload_files(self, data_dirs: dict[str, str]) -> None:
        """Write each stream's preload into the servers' log files before
        the daemons start, as ET1 transactions at epoch 1 on the write set
        the first ``initialize()`` picks (the first N servers by id).

        Every generator representative is set to that epoch, so the
        first restart draws epoch 2.  Set-up then times the daemons
        recovering these files, not a client replaying them over the
        wire, which on a shared host swung with hypervisor steal.
        """
        if not self.shape.preload:
            return
        stores = {sid: FileLogStore(path, sid)
                  for sid, path in sorted(data_dirs.items())}
        write_set = list(stores)[:COPIES]
        try:
            for stream in self.streams:
                while len(stream.acked) < self.shape.preload:
                    first = len(stream.acked) + 1
                    records = tuple(
                        trusted_stored_record(
                            first + i, 1, True, payload,
                            "update" if i < UPDATES_PER_TXN else "commit")
                        for i, payload in enumerate(stream.payloads()))
                    for sid in write_set:
                        stores[sid].append_records(stream.cid, records,
                                                   fsync=False)
                    for record in records:
                        stream.acked[record.lsn] = record.data
                    stream.txns.append([r.lsn for r in records])
            for store in stores.values():
                store.generator_write(1)
                store.sync()
        finally:
            for store in stores.values():
                store.close()

    async def setup(self) -> None:
        """The first ``initialize`` of every stream."""
        for stream in self.streams:
            stream.log = self.fresh(stream)
        await asyncio.gather(*(self._call(s.log.initialize())
                               for s in self.streams))

    # -- timed window -----------------------------------------------------

    async def window(self, deadline: float) -> None:
        if self.shape.restart_loop:
            await self._restart_loop(self.streams[0], deadline)
        else:
            await asyncio.gather(*(self._et1_client(s, deadline)
                                   for s in self.streams))

    async def _et1_client(self, stream: Stream, deadline: float) -> None:
        shape = self.shape
        log = stream.log
        while _now() < deadline:
            root = self.tracer.begin("txn", self.next_txn_id())
            try:
                abort = (shape.abort_every
                         and stream.rng.randrange(shape.abort_every) == 0)
                txn = await self.transaction(
                    stream, log, root, "abort" if abort else "commit")
                self.rec.acked(len(txn))
                if abort:
                    self.rec.undo_ms.add(
                        await self.read_back(log, stream, txn, root))
                else:
                    stream.committed += 1
                    if (shape.truncate_every
                            and stream.committed % shape.truncate_every == 0):
                        await self._truncate(stream, log, root)
            except LogError as exc:
                self.rec.fail(f"{stream.cid}: {type(exc).__name__}: {exc}")
                return
            finally:
                self.tracer.finish(root)

    async def _truncate(self, stream: Stream, log, root) -> None:
        low = log.end_of_log() - self.shape.retain + 1
        if low <= stream.low_water:
            return
        t0 = _now()
        with self.tracer.span("client.truncate", root):
            await self._call(log.truncate(low))
        self.rec.truncate_ms.add((_now() - t0) * 1e3)
        stream.low_water = low

    async def _snap(self):
        return await self.probe.snapshot() if self.probe else None

    def _calls(self, after, before) -> int:
        """Server messages between two snapshots: pings and the later
        snapshot's own StatsCalls excluded."""
        return probes.protocol_messages(after, before, len(after))

    async def restart_round(self, stream: Stream, root, *, commit: bool,
                            previous: AsyncReplicatedLog | None = None,
                            sample: bool = True) -> None:
        """One restart iteration (§3.1.2 restart, then a fenced handoff):

        1. a fresh instance calls ``initialize()``;
        2. with ``commit``, it commits one ET1 transaction;
        3. a second fresh instance calls ``takeover()``;
        4. the superseded instance's next ``force()`` must raise
           ``LogFenced`` (so must ``previous``'s, when given);
        5. with ``commit``, the new owner reads the transaction back.
        """
        rec = self.rec
        s0 = await self._snap()
        first = self.fresh(stream)
        second = self.fresh(stream)
        try:
            t0 = _now()
            with self.tracer.span("client.initialize", root):
                await self._call(first.initialize())
            elapsed = (_now() - t0) * 1e3
            s1 = await self._snap()
            self._check_epoch(stream, first)
            txn = None
            if commit:
                txn = await self.transaction(stream, first, root)
                rec.acked(len(txn))
            s2 = await self._snap()
            t0 = _now()
            handoff = (second.initialize if self.inject == "no-fence"
                       else second.takeover)
            with self.tracer.span("client.takeover", root):
                await self._call(handoff())
            taken = (_now() - t0) * 1e3
            s3 = await self._snap()
            self._check_epoch(stream, second)
            if sample:
                rec.restart_ms.add(elapsed)
                rec.takeover_ms.add(taken)
            for old in (first, previous):
                if old is not None:
                    await self._expect_fenced(stream, old)
            if txn is not None:
                rec.undo_ms.add(
                    await self.read_back(second, stream, txn, root))
            s4 = await self._snap()
            if self.probe is not None:
                (rec.exact_counts if commit else rec.gate_counts).append((
                    self._calls(s1, s0), self._calls(s3, s2),
                    probes.delta(s4, s0, "fsyncs")))
            stream.log = second
            second = None
        finally:
            await self.retire(first)
            if second is not None:
                await self.retire(second)

    def _check_epoch(self, stream: Stream, log: AsyncReplicatedLog) -> None:
        """Epochs strictly increase across every restart and handoff."""
        epoch = log.current_epoch
        if epoch <= stream.last_epoch:
            self.rec.fail(f"{stream.cid}: epoch {epoch} not above "
                          f"{stream.last_epoch}")
        stream.last_epoch = epoch

    async def _expect_fenced(self, stream: Stream,
                             old: AsyncReplicatedLog) -> None:
        self.rec.attempted += 1
        self.rec.fence_checks += 1
        try:
            await old.write(b"stale".ljust(RECORD_BYTES, b"."), "update")
            await old.force()
        except LogFenced:
            return
        except LogError as exc:
            self.rec.fail(f"{stream.cid}: superseded writer got "
                          f"{type(exc).__name__}, not LogFenced")
            return
        self.rec.fail(f"{stream.cid}: superseded writer committed "
                      f"after takeover (no LogFenced)")

    async def _restart_loop(self, stream: Stream, deadline: float) -> None:
        previous = stream.log
        while _now() < deadline:
            root = self.tracer.begin("restart_iter", self.next_txn_id())
            try:
                await self.restart_round(stream, root, commit=True,
                                         previous=previous)
            except LogError as exc:
                self.rec.fail(f"{stream.cid}: {type(exc).__name__}: {exc}")
                return
            finally:
                self.tracer.finish(root)
            if previous is not None:
                await self.retire(previous)
            previous = stream.log

    # -- correctness gate (outside the timed window) ------------------------

    async def gate(self) -> None:
        """Fresh instances read back a seeded sample of acknowledged
        transactions byte-exact; restart rounds check epochs and fencing;
        a last truncate round checks the §5.3 call."""
        for stream in self.streams:
            try:
                await self._gate_stream(stream)
            except LogError as exc:
                self.rec.fail(f"{stream.cid} gate: {type(exc).__name__}: "
                              f"{exc}")

    async def _gate_stream(self, stream: Stream) -> None:
        shape = self.shape
        rng = random.Random(f"{self.seed}/gate/{stream.cid}")
        previous = stream.log
        for _ in range(shape.gate_rounds):
            root = self.tracer.begin("restart_iter", self.next_txn_id())
            try:
                await self.restart_round(
                    stream, root, commit=False, previous=previous,
                    sample=shape.restart_from_gate)
            finally:
                self.tracer.finish(root)
            if previous is not None:
                await self.retire(previous)
            previous = stream.log
        owner = stream.log
        retained = [t for t in stream.txns if t[0] >= stream.low_water]
        sample = rng.sample(retained, min(shape.gate_sample,
                                          len(retained)))
        if self.inject == "bytes" and sample:
            lsn = sample[0][0]
            stream.acked[lsn] = bytes([stream.acked[lsn][0] ^ 1]) \
                + stream.acked[lsn][1:]
        for txn in sample:
            root = self.tracer.begin("txn", self.next_txn_id())
            try:
                ms = await self.read_back(owner, stream, txn, root)
                if shape.undo_from_gate:
                    self.rec.undo_ms.add(ms)
                last = txn[-1]
                record = await self._call(owner.read(last))
                if record.data != stream.acked[last]:
                    self.rec.fail(f"{stream.cid} LSN {last}: "
                                  f"commit record mismatch")
            finally:
                self.tracer.finish(root)
        # A truncate round at the standing low-water mark: nothing
        # new to reclaim, so it times the call's fixed cost.
        t0 = _now()
        await self._call(owner.truncate(stream.low_water))
        self.rec.truncate_ms.add((_now() - t0) * 1e3)
        await self.retire(owner)
        stream.log = None

    async def close(self) -> None:
        for stream in self.streams:
            if stream.log is not None:
                await self.retire(stream.log)
                stream.log = None
