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
:func:`gather`, :func:`new_id`, :func:`fence`, :func:`fetch_many` and
:func:`recover` — is a sans-I/O generator.  It yields a *batch*: a
tuple of ``(server_id, call)`` requests, built from the
:mod:`repro.net.messages` call types, to distinct servers.  It is sent
back a tuple of the same length and order holding, for each request,
the reply or the :class:`ServerUnavailable` the call failed with.  A
driver carries the requests of one batch concurrently, so each batch
costs one round trip however many servers it names:

* ``gather``, the read of ``new_id`` and ``fence`` ask every server
  in one batch;
* the write of ``new_id``, CopyLog and InstallCopies go to exactly the
  quorum (or ``copies``) they need, and top up from the next
  candidates only on a shortfall, so a fault-free run sends no more
  calls than it needs;
* ``fetch_many`` reads the δ copy window with one ``ReadLogForward``
  per server, since a reply packs as many records as fit a packet.

A restart is therefore six round trips and a takeover eight, whatever
M and δ are.  Three drivers carry the batches: :func:`drive` over
in-process :class:`ServerPort` objects (below), the simulator's
:class:`~repro.client.SimLogClient`, and the asyncio
:class:`~repro.rt.client.AsyncReplicatedLog`.

The steps also pass the ``client.*`` crash points of
:mod:`repro.rt.clientfault`, after the batch they follow has returned
and in server order, so the points enumerate deterministically; with
no injector installed they cost a ``None`` check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Generator, Iterable, Iterator, TypeVar, Union

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
#: One call of a batch: the server it goes to and the message.
Request = tuple[str, Message]
#: What a driver sends back per request: the reply, or the failure.
Outcome = Union[Message, ServerUnavailable]
#: A restart step: yields batches of requests to distinct servers, is
#: sent their outcomes in the same order, returns ``T``.
Step = Generator[tuple[Request, ...], tuple[Outcome, ...], T]


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


def _write_to(
    candidates: Iterator[str], need: int, msg: Message,
    site: str | None = None,
) -> Step[list[str]]:
    """Send ``msg`` to the next ``need`` candidates in one batch.

    On a shortfall the next batch goes to as many further candidates as
    are still missing.  Returns the servers that acknowledged, in
    candidate order; ``site`` is hit once per acknowledgment, after the
    batch that carried it.
    """
    acked: list[str] = []
    while len(acked) < need:
        batch = list(islice(candidates, need - len(acked)))
        if not batch:
            break
        replies = yield tuple((server_id, msg) for server_id in batch)
        for server_id, reply in zip(batch, replies):
            if isinstance(reply, AckReply):
                if site is not None:
                    _hit(site)
                acked.append(server_id)
    return acked


def gather(
    client_id: str, servers: Iterable[str], quorum: int,
) -> Step[list[ServerIntervals]]:
    """Step 1: interval lists from every server in ``servers`` that answers.

    Raises :class:`NotEnoughServers` when fewer than ``quorum``
    (``M − N + 1``) respond — the condition under which the paper says
    client initialization is unavailable.
    """
    servers = list(servers)
    replies = yield tuple((server_id, IntervalListCall(client_id))
                          for server_id in servers)
    lists = [ServerIntervals(server_id, reply.intervals)
             for server_id, reply in zip(servers, replies)
             if isinstance(reply, IntervalListReply)]
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
    reps = list(reps)
    replies = yield tuple((server_id, GeneratorReadCall(client_id))
                          for server_id in reps)
    read = [(server_id, reply.value)
            for server_id, reply in zip(reps, replies)
            if isinstance(reply, GeneratorReadReply)]
    need = read_quorum_size(n_reps)
    if len(read) < need:
        raise NotEnoughServers(
            f"generator read quorum needs {need} representatives, "
            f"only {len(read)} available"
        )
    _hit("client.epoch.read")
    value = max(v for _, v in read) + 1
    if value <= floor:
        raise StaleEpoch("generator", value, floor)
    need = write_quorum_size(n_reps)
    written = yield from _write_to(
        (server_id for server_id, _ in read), need,
        GeneratorWriteCall(client_id, value=value))
    if len(written) < need:
        raise NotEnoughServers(
            f"generator write quorum needs {need} representatives, "
            f"wrote {len(written)}"
        )
    _hit("client.epoch.written")
    return value


def fence(
    client_id: str, servers: Iterable[str], epoch: Epoch, quorum: int,
) -> Step[int]:
    """The takeover fence: install ``epoch`` on every server that answers.

    Every server is asked at once (the wider the fence, the sooner the
    old owner hits it), and at least ``quorum`` (``M − N + 1``) must
    acknowledge, which makes the fence set intersect every possible
    write set.  Returns the number of servers fenced.  A server refusing
    because a higher epoch already owns the stream is not a
    :class:`ServerUnavailable`; the driver's ``LogFenced`` ends the
    takeover.
    """
    servers = list(servers)
    replies = yield tuple((server_id, FenceLogCall(client_id, epoch=epoch))
                          for server_id in servers)
    fenced = 0
    for reply in replies:
        if isinstance(reply, FenceReply):
            fenced += 1
            # Index 0 = the batch has returned but the step has counted
            # only one acknowledgment: a crash here leaves the fence on
            # every server that answered, the quorum not yet checked.
            _hit("client.handoff.fence.ack")
    if fenced < quorum:
        raise NotEnoughServers(
            f"fence install needs {quorum} servers to guarantee write-set "
            f"intersection; only {fenced} acknowledged"
        )
    return fenced


def fetch_many(
    client_id: str, merged: MergedIntervalMap, lsns: Iterable[LSN],
) -> Step[list[StoredRecord]]:
    """The winning copy of every LSN in ``lsns`` (present flags intact).

    Asks for the lowest LSN not yet covered with a ``ReadLogForward``
    to the first server in ``merged.servers_for(lsn)`` not yet tried
    for it.  A reply packs consecutive records, so from it the step
    takes every record whose LSN is wanted, not yet covered, and held
    by that server according to ``servers_for`` — the same acceptance
    rule as a read of that one LSN.  A window on one write set costs
    one call, a window split across write sets one per part; against
    one-record replies it degrades to one call per LSN.  A server that
    failed is not asked again.  Returns the records in ascending LSN
    order; raises :class:`NotEnoughServers` for an LSN no reachable
    server stores.
    """
    want = set(lsns)
    wanted = sorted(want)
    covered: dict[LSN, StoredRecord] = {}
    dead: set[str] = set()
    for lsn in wanted:
        for server_id in merged.servers_for(lsn):
            if lsn in covered:
                break
            if server_id in dead:
                continue
            (reply,) = yield ((server_id, ReadLogForwardCall(client_id, lsn)),)
            if isinstance(reply, ServerUnavailable):
                dead.add(server_id)
            elif isinstance(reply, ReadLogReply):
                for record in reply.records:
                    if (record.lsn in want and record.lsn not in covered
                            and server_id in merged.servers_for(record.lsn)):
                        covered[record.lsn] = record
        if lsn not in covered:
            raise NotEnoughServers(
                f"no reachable server stores LSN {lsn} needed for recovery"
            )
    return [covered[lsn] for lsn in wanted]


def recover(
    client_id: str,
    merged: MergedIntervalMap,
    epoch: Epoch,
    delta: int,
    copies: int,
    servers: Iterable[str],
) -> Step[RecoveryResult]:
    """Steps 3–5: copy the last δ records, stage δ guards, install.

    CopyLog goes to the first ``copies`` of ``servers`` at once, then
    InstallCopies to every server that staged.  A server failing at any
    point is skipped and the next candidates are tried for the missing
    copies; records staged on a skipped server are never installed (the
    epoch is never reused, so the remnants are inert).  ``merged`` is
    updated in place with the installed records.
    """
    high = merged.high_lsn() or 0
    # The most recent δ records that exist, present flag preserved.
    # (With fewer than δ records in the log, copy all.)
    window = [lsn for lsn in range(max(1, high - delta + 1), high + 1)
              if lsn in merged]
    staged = [StoredRecord(lsn=record.lsn, epoch=epoch,
                           present=record.present, data=record.data,
                           kind=record.kind)
              for record in (yield from fetch_many(client_id, merged, window))]
    staged += [
        StoredRecord(lsn=high + i, epoch=epoch, present=False, kind="guard")
        for i in range(1, delta + 1)
    ]
    _hit("client.recovery.staged")
    copy = CopyLogCall(client_id, epoch, tuple(staged))
    install = InstallCopiesCall(client_id, epoch)
    candidates = iter(servers)
    installed: list[str] = []
    while len(installed) < copies:
        copied = yield from _write_to(candidates, copies - len(installed),
                                      copy, "client.recovery.copylog")
        if not copied:
            break
        installed += yield from _write_to(iter(copied), len(copied),
                                          install, "client.recovery.install")
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


def _outcome(port: ServerPort | None, server_id: str,
             msg: Message) -> Outcome:
    try:
        return _call_port(port, server_id, msg)
    except ServerUnavailable as exc:
        return exc


def drive(step: Step[T], ports: dict[str, ServerPort]) -> T:
    """Run ``step`` synchronously against in-process ports.

    A port answers at once, so the requests of a batch simply run one
    after another.
    """
    outcomes: tuple[Outcome, ...] | None = None
    while True:
        try:
            batch = step.send(outcomes)
        except StopIteration as done:
            return done.value
        outcomes = tuple(_outcome(ports.get(server_id), server_id, msg)
                         for server_id, msg in batch)


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
