"""Client initialization (crash recovery) for replicated logs.

Section 3.1.2 and the CopyLog/InstallCopies calls of Section 4.2 define
the procedure a client node runs at restart:

1. gather interval lists from at least ``M − N + 1`` log servers and
   merge them, keeping the highest-epoch entry per LSN;
2. obtain a new epoch number from the replicated identifier generator;
3. copy the most recent ``δ`` log records — the only ones that can have
   been partially written — to ``N`` servers under the new epoch,
   preserving their present flags;
4. append ``δ`` guard records marked *not present* at the next ``δ``
   LSNs, so any partially written record at those LSNs loses every
   future interval-list merge to the higher-epoch guard; and
5. atomically install the staged copies with InstallCopies.

The procedure is restartable: a crash at any point leaves only staged
(uninstalled) records or a fully installed higher epoch, and the next
restart repeats the procedure with a yet-higher epoch.

This module is the procedure's only implementation.  Each step —
:func:`gather`, :func:`new_id`, :func:`fence` and :func:`recover` — is
a sans-I/O generator: it yields ``(server_id, call)`` requests built
from the :mod:`repro.net.messages` call types and is sent each reply.
A failed call is thrown back in as :class:`ServerUnavailable` at the
yield, and the step moves on to another server.  Three drivers carry
the requests: :func:`drive` over in-process :class:`ServerPort` objects
(below), the simulator's :class:`~repro.client.SimLogClient`, and the
asyncio :class:`~repro.rt.client.AsyncReplicatedLog`.

The steps also pass the ``client.*`` crash points of
:mod:`repro.rt.clientfault`; with no injector installed they cost a
``None`` check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Iterable, TypeVar

from ..net.messages import (
    AckReply,
    CopyLogCall,
    FenceLogCall,
    FenceReply,
    GeneratorReadCall,
    GeneratorReadReply,
    GeneratorWriteCall,
    InstallCopiesCall,
    IntervalListCall,
    IntervalListReply,
    Message,
    ReadLogForwardCall,
    ReadLogReply,
)
from .epoch import read_quorum_size, write_quorum_size
from .errors import NotEnoughServers, ServerUnavailable, StaleEpoch
from .intervals import MergedIntervalMap, ServerIntervals
from .ports import ServerPort
from .records import Epoch, LSN, StoredRecord
from .retry import RetryPolicy, retry_call

T = TypeVar("T")
#: A restart step: yields ``(server_id, call)``, is sent the reply,
#: returns ``T``.
Step = Generator[tuple[str, Message], Message, T]


@dataclass(frozen=True, slots=True)
class RecoveryResult:
    """Outcome of client initialization."""

    merged: MergedIntervalMap
    epoch: Epoch
    #: the LSN the next WriteLog will assign (merged high + 1, where the
    #: merged map already includes the guard records).
    next_lsn: LSN
    #: servers that hold the installed copies; a good initial write set.
    write_set: tuple[str, ...]
    #: the records (copies, then guards) installed under ``epoch``.
    staged: tuple[StoredRecord, ...]

    @property
    def records_copied(self) -> int:
        """Number of records (copies + guards) rewritten during recovery."""
        return len(self.staged)


def _hit(site: str) -> None:
    # Imported on use: repro.rt depends on this module, not the reverse.
    from ..rt.clientfault import hit
    hit(site)


# -- the steps ---------------------------------------------------------------


def gather(
    client_id: str, servers: Iterable[str], quorum: int,
) -> Step[list[ServerIntervals]]:
    """Step 1: interval lists from every server in ``servers`` that answers.

    Raises :class:`NotEnoughServers` when fewer than ``quorum``
    (``M − N + 1``) respond — the condition under which the paper says
    client initialization is unavailable.
    """
    lists: list[ServerIntervals] = []
    for server_id in servers:
        try:
            reply = yield server_id, IntervalListCall(client_id)
        except ServerUnavailable:
            continue
        if isinstance(reply, IntervalListReply):
            lists.append(ServerIntervals(server_id, reply.intervals))
    if len(lists) < quorum:
        raise NotEnoughServers(
            f"client initialization needs interval lists from {quorum} "
            f"servers; only {len(lists)} responded"
        )
    return lists


def new_id(
    client_id: str, reps: Iterable[str], n_reps: int, floor: Epoch = 0,
) -> Step[Epoch]:
    """Step 2: Appendix I NewID over representatives on log servers.

    Reads every representative in ``reps`` (at least ``⌈(n+1)/2⌉`` must
    answer), then writes ``max + 1`` to ``⌈n/2⌉`` of those that did: the
    read set of any invocation intersects the write set of every
    earlier one.  A value not above ``floor`` raises :class:`StaleEpoch`
    before anything is written.
    """
    values: list[int] = []
    readable: list[str] = []
    for server_id in reps:
        try:
            reply = yield server_id, GeneratorReadCall(client_id)
        except ServerUnavailable:
            continue
        if isinstance(reply, GeneratorReadReply):
            values.append(reply.value)
            readable.append(server_id)
    need = read_quorum_size(n_reps)
    if len(values) < need:
        raise NotEnoughServers(
            f"generator read quorum needs {need} representatives, "
            f"only {len(values)} available"
        )
    _hit("client.epoch.read")
    value = max(values) + 1
    if value <= floor:
        raise StaleEpoch("generator", value, floor)
    written = 0
    need = write_quorum_size(n_reps)
    for server_id in readable:
        if written >= need:
            break
        try:
            reply = yield server_id, GeneratorWriteCall(client_id, value=value)
        except ServerUnavailable:
            continue
        if isinstance(reply, AckReply):
            written += 1
    if written < need:
        raise NotEnoughServers(
            f"generator write quorum needs {need} representatives, "
            f"wrote {written}"
        )
    _hit("client.epoch.written")
    return value


def fence(
    client_id: str, servers: Iterable[str], epoch: Epoch, quorum: int,
) -> Step[int]:
    """The takeover fence: install ``epoch`` on every server that answers.

    Every reachable server is tried (the wider the fence, the sooner the
    old owner hits it), and at least ``quorum`` (``M − N + 1``) must
    acknowledge, which makes the fence set intersect every possible
    write set.  Returns the number of servers fenced.  A server refusing
    because a higher epoch already owns the stream is not a
    :class:`ServerUnavailable`; the driver's ``LogFenced`` ends the
    takeover.
    """
    fenced = 0
    for server_id in servers:
        try:
            reply = yield server_id, FenceLogCall(client_id, epoch=epoch)
        except ServerUnavailable:
            continue
        if isinstance(reply, FenceReply):
            fenced += 1
            # Index 0 = the fence holds on one server only; the old
            # owner is already locked out of write sets that include
            # it, but not yet out of all of them.
            _hit("client.handoff.fence.ack")
    if fenced < quorum:
        raise NotEnoughServers(
            f"fence install needs {quorum} servers to guarantee write-set "
            f"intersection; only {fenced} acknowledged"
        )
    return fenced


def fetch(client_id: str, merged: MergedIntervalMap, lsn: LSN) -> Step[StoredRecord]:
    """The winning copy of ``lsn`` (present flag intact) from a server storing it."""
    for server_id in merged.servers_for(lsn):
        try:
            reply = yield server_id, ReadLogForwardCall(client_id, lsn)
        except ServerUnavailable:
            continue
        if isinstance(reply, ReadLogReply):
            for record in reply.records:
                if record.lsn == lsn:
                    return record
    raise NotEnoughServers(
        f"no reachable server stores LSN {lsn} needed for recovery"
    )


def recover(
    client_id: str,
    merged: MergedIntervalMap,
    epoch: Epoch,
    delta: int,
    copies: int,
    servers: Iterable[str],
) -> Step[RecoveryResult]:
    """Steps 3–5: copy the last δ records, stage δ guards, install.

    Tries ``servers`` in order until ``copies`` of them have staged and
    installed everything.  A server failing at any point is skipped
    entirely; records staged there are never installed (the epoch is
    never reused, so the remnants are inert).  ``merged`` is updated in
    place with the installed records.
    """
    high = merged.high_lsn() or 0
    # The most recent δ records that exist, present flag preserved.
    # (With fewer than δ records in the log, copy all.)
    staged: list[StoredRecord] = []
    for lsn in range(max(1, high - delta + 1), high + 1):
        if lsn in merged:
            record = yield from fetch(client_id, merged, lsn)
            staged.append(StoredRecord(lsn=lsn, epoch=epoch,
                                       present=record.present,
                                       data=record.data, kind=record.kind))
    staged += [
        StoredRecord(lsn=high + i, epoch=epoch, present=False, kind="guard")
        for i in range(1, delta + 1)
    ]
    _hit("client.recovery.staged")
    installed: list[str] = []
    for server_id in servers:
        if len(installed) >= copies:
            break
        try:
            reply = yield server_id, CopyLogCall(client_id, epoch, tuple(staged))
            if not isinstance(reply, AckReply):
                continue
            _hit("client.recovery.copylog")
            reply = yield server_id, InstallCopiesCall(client_id, epoch)
            if not isinstance(reply, AckReply):
                continue
        except ServerUnavailable:
            continue
        _hit("client.recovery.install")
        installed.append(server_id)
    if len(installed) < copies:
        raise NotEnoughServers(
            f"recovery could install copies on only {len(installed)} "
            f"servers; {copies} required"
        )
    _hit("client.recovery.commit")
    for record in staged:
        for server_id in installed:
            merged.note(record.lsn, epoch, server_id)
    return RecoveryResult(
        merged=merged,
        epoch=epoch,
        next_lsn=(merged.high_lsn() or 0) + 1,
        write_set=tuple(installed),
        staged=tuple(staged),
    )


# -- the in-process driver ---------------------------------------------------


def _call_port(port: ServerPort | None, server_id: str, msg: Message) -> Message:
    """Carry one restart call to a :class:`ServerPort`."""
    if port is None:
        raise ServerUnavailable(server_id, "no port for this server")
    client_id = msg.client_id
    if isinstance(msg, IntervalListCall):
        return IntervalListReply(client_id, port.interval_list(client_id).intervals)
    if isinstance(msg, ReadLogForwardCall):
        return ReadLogReply(client_id, (port.server_read_log(client_id, msg.lsn),))
    if isinstance(msg, CopyLogCall):
        for r in msg.records:
            port.copy_log(client_id, r.lsn, r.epoch, r.present, r.data, r.kind)
        return AckReply(client_id)
    if isinstance(msg, InstallCopiesCall):
        port.install_copies(client_id, msg.epoch)
        return AckReply(client_id)
    raise TypeError(f"a ServerPort cannot carry {type(msg).__name__}")


def drive(step: Step[T], ports: dict[str, ServerPort]) -> T:
    """Run ``step`` synchronously against in-process ports."""
    reply: Message | None = None
    error: ServerUnavailable | None = None
    while True:
        try:
            server_id, msg = (step.throw(error) if error is not None
                              else step.send(reply))
        except StopIteration as done:
            return done.value
        reply = error = None
        try:
            reply = _call_port(ports.get(server_id), server_id, msg)
        except ServerUnavailable as exc:
            error = exc


def gather_interval_lists(
    ports: dict[str, ServerPort], client_id: str, quorum: int,
) -> list[ServerIntervals]:
    """:func:`gather` over every port, in the mapping's order."""
    return drive(gather(client_id, ports, quorum), ports)


def gather_interval_lists_with_retry(
    ports: dict[str, ServerPort],
    client_id: str,
    quorum: int,
    policy: "RetryPolicy | None" = None,
    rng: random.Random | None = None,
    sleep=None,
    on_retry=None,
) -> list[ServerIntervals]:
    """:func:`gather_interval_lists`, retried through transient outages.

    A client restarting *during* churn may find fewer than ``M − N + 1``
    servers up at the instant it asks; retrying with capped backoff
    rides out repair windows instead of failing the whole restart.
    ``on_retry(attempt)`` fires between attempts (tests use it to bring
    servers back; simulations advance their clock in ``sleep``).
    """
    policy = policy if policy is not None else RetryPolicy()
    rng = rng if rng is not None else random.Random(0)
    return retry_call(
        lambda: gather_interval_lists(ports, client_id, quorum),
        policy, rng, retry_on=(NotEnoughServers,),
        sleep=sleep, on_retry=on_retry,
    )


def perform_recovery(
    client_id: str,
    ports: dict[str, ServerPort],
    interval_lists: list[ServerIntervals],
    new_epoch: Epoch,
    copies: int,
    delta: int,
    preferred_servers: tuple[str, ...] = (),
) -> RecoveryResult:
    """:func:`recover` over in-process ports, one CopyLog per record.

    ``interval_lists`` must already satisfy the init quorum (see
    :func:`gather_interval_lists`).  ``preferred_servers`` biases the
    choice of the ``N`` copy targets, letting a client stay with the
    servers it used before the crash so interval lists stay short.
    """
    order = list(preferred_servers) + [
        s for s in sorted(ports) if s not in preferred_servers
    ]
    merged = MergedIntervalMap.merge(interval_lists)
    return drive(recover(client_id, merged, new_epoch, delta, copies, order),
                 ports)
