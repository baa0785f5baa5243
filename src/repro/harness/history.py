"""One history of what a replicated-log client promised, checked once.

Every crash sweep proves the same §3.1.2 contract: each acknowledged
record survives, an interrupted WriteLog is either present or masked
by a higher-epoch guard, and nothing is fabricated.  The sweeps do it
the Jepsen way — record one :class:`History` of what the client under
test attempted and was told, restart a client with :func:`read_back`,
and hand both to :func:`check`.  The storage, daemon, client, network
and fuzz phases and the handoff case all check through this module.

A history is the journal grammar of :mod:`repro.harness.clientworker`,
one event per line, payloads hex-encoded::

    EPOCH <epoch>            a client generation started at this epoch
    ATTEMPT <seq> <hex>      about to write payload (no promise)
    LSN <seq> <lsn>          the write was assigned this LSN
    ACK <high>               an explicit force acked through <high>
    TRUNCREQ <low>           about to request truncation (no promise)
    TRUNC <low>              a truncation below <low> was acknowledged
    FENCED                   a server refused us: ownership moved on
    RECOVERED <epoch> <high> (read-back) restart done
    FINAL <lsn> 1 <hex>      (read-back) present record
    FINAL <lsn> 0            (read-back) not-present (guard) record
    FINAL <lsn> -            (read-back) unreadable / truncated away
    POST <lsn> <hex>         (read-back) post-recovery write
    POSTACK <high>           (read-back) post-recovery force acked
    DONE                     the workload or read-back ran to completion

The ``FINAL`` lines after ``POSTACK`` read the post-recovery writes
back.  A history is either appended in memory or written through
``sink`` to a line-buffered file and re-read with :meth:`History.load`;
promise lines are emitted only *after* the awaited call returned, so a
killed writer never leaves a journaled ack the servers did not issue.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Callable

from ..core.config import ReplicationConfig
from ..core.errors import LogError, RecordNotPresent
from ..rt.client import AsyncReplicatedLog


class History:
    """What one client stream attempted, was promised, and read back."""

    def __init__(self, sink: Callable[[str], object] | None = None):
        self._sink = sink
        self.epochs: list[int] = []
        self.attempts: dict[int, bytes] = {}        # seq → payload
        self.lsn_of: dict[int, int] = {}            # seq → lsn
        self.acked_high = 0
        self.trunc_req = 0     # highest *requested* truncation (intent)
        self.trunc_mark = 0    # highest *acknowledged* truncation
        self.fenced = False
        self.rec_epoch = 0
        self.rec_high = 0
        #: lsn → ("1", data) present / ("0", None) guard / ("-", None) gone
        self.finals: dict[int, tuple[str, bytes | None]] = {}
        self.posts: dict[int, bytes] = {}
        self.post_acked = 0
        self.done = False
        #: why an in-process read-back stopped (not part of the grammar).
        self.error = ""

    def _say(self, *fields) -> None:
        if self._sink is not None:
            self._sink(" ".join(str(f) for f in fields))

    def epoch(self, epoch: int) -> None:
        self.epochs.append(epoch)
        self._say("EPOCH", epoch)

    def attempt(self, data: bytes, seq: int | None = None) -> int:
        seq = len(self.attempts) + 1 if seq is None else seq
        self.attempts[seq] = data
        self._say("ATTEMPT", seq, data.hex())
        return seq

    def lsn(self, seq: int, lsn: int) -> None:
        self.lsn_of[seq] = lsn
        self._say("LSN", seq, lsn)

    def ack(self, high: int) -> None:
        self.acked_high = max(self.acked_high, high)
        self._say("ACK", high)

    def truncreq(self, low: int) -> None:
        self.trunc_req = max(self.trunc_req, low)
        self._say("TRUNCREQ", low)

    def trunc(self, low: int) -> None:
        self.trunc_mark = max(self.trunc_mark, low)
        self._say("TRUNC", low)

    def fence(self) -> None:
        self.fenced = True
        self._say("FENCED")

    def recovered(self, epoch: int, high: int) -> None:
        self.rec_epoch, self.rec_high = epoch, high
        self._say("RECOVERED", epoch, high)

    def final(self, lsn: int, state: str, data: bytes | None = None) -> None:
        self.finals[lsn] = (state, data)
        if data is None:
            self._say("FINAL", lsn, state)
        else:
            self._say("FINAL", lsn, state, data.hex())

    def post(self, lsn: int, data: bytes) -> None:
        self.posts[lsn] = data
        self._say("POST", lsn, data.hex())

    def postack(self, high: int) -> None:
        self.post_acked = high
        self._say("POSTACK", high)

    def finish(self) -> None:
        self.done = True
        self._say("DONE")

    def acked(self) -> dict[int, bytes]:
        """Acked LSN → payload, at or above the truncation floor.

        A truncation *requested* but interrupted before its ack may or
        may not have been applied — like an unacked write, either
        outcome is legal — so the floor is the highest requested mark;
        records below it that do survive still face the no-fabrication
        payload check.
        """
        floor = max(self.trunc_mark, self.trunc_req)
        return {lsn: self.attempts[seq]
                for seq, lsn in self.lsn_of.items()
                if floor <= lsn <= self.acked_high}

    @classmethod
    def load(cls, path: str | Path) -> "History":
        """Re-read a journal file; a missing file is an empty history.

        Only newline-terminated lines count, so a journal read while
        its writer is still appending never yields a torn event.
        """
        history = cls()
        path = Path(path)
        if not path.exists():
            return history
        for line in path.read_text().split("\n")[:-1]:
            if line.split():
                tag, *args = line.split()
                _LOADERS[tag](history, args)
        return history


_LOADERS = {
    "EPOCH": lambda h, a: h.epoch(int(a[0])),
    "ATTEMPT": lambda h, a: h.attempt(bytes.fromhex(a[1]), int(a[0])),
    "LSN": lambda h, a: h.lsn(int(a[0]), int(a[1])),
    "ACK": lambda h, a: h.ack(int(a[0])),
    "TRUNCREQ": lambda h, a: h.truncreq(int(a[0])),
    "TRUNC": lambda h, a: h.trunc(int(a[0])),
    "FENCED": lambda h, a: h.fence(),
    "RECOVERED": lambda h, a: h.recovered(int(a[0]), int(a[1])),
    "FINAL": lambda h, a: h.final(
        int(a[0]), a[1], bytes.fromhex(a[2]) if a[1] == "1" else None),
    "POST": lambda h, a: h.post(int(a[0]), bytes.fromhex(a[1])),
    "POSTACK": lambda h, a: h.postack(int(a[0])),
    "DONE": lambda h, a: h.finish(),
}


# -- the read-back -----------------------------------------------------------


async def _final(log: AsyncReplicatedLog, readback: History,
                 lsn: int) -> None:
    try:
        record = await log.read(lsn)
    except RecordNotPresent:
        readback.final(lsn, "0")
    except LogError:
        readback.final(lsn, "-")
    else:
        readback.final(lsn, "1", record.data)


async def read_back(log: AsyncReplicatedLog, readback: History, *,
                    takeover: bool = False) -> None:
    """Restart ``log`` per §5.4 (or take it over), journal every LSN's
    final state, then commit a post-recovery transaction and read it
    back.  Errors propagate; whatever was journaled stays."""
    if takeover:
        await log.takeover()
    else:
        await log.initialize()
    high = log.end_of_log()
    readback.recovered(log.current_epoch, high)
    for lsn in range(1, high + 1):
        await _final(log, readback, lsn)
    for i in range(2):
        data = f"post.{log.client_id}.{log.current_epoch}.{i}".encode()
        readback.post(await log.write(data), data)
    readback.postack(await log.force())
    for lsn in list(readback.posts):
        await _final(log, readback, lsn)
    readback.finish()


async def read_back_from(addresses: dict, client_id: str,
                         config: ReplicationConfig) -> History:
    """:func:`read_back` through a fresh in-process client; a failed
    restart is kept in the returned history's ``error``."""
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    readback = History()
    log = AsyncReplicatedLog(client_id, addresses, config, timeout=5.0)
    try:
        await read_back(log, readback)
    except LogError as exc:
        readback.error = repr(exc)
    finally:
        await log.close()
    return readback


# -- the checker -------------------------------------------------------------


def check(history: History, *readbacks: History) -> list[str]:
    """Check ``history`` against successive read-backs; return errors.

    An ack in ``history`` is a durability promise; an attempt without
    one is not — it may appear or not, but only with the payload
    assigned to its LSN (or, never assigned one, a payload some
    generation attempted).  Each read-back's acked post-recovery
    transaction becomes a promise every later read-back must keep.
    """
    errors: list[str] = []
    assigned = {lsn: history.attempts[seq]
                for seq, lsn in history.lsn_of.items()}
    attempted = set(history.attempts.values())
    acked = history.acked()
    acked_high = history.acked_high
    epochs = list(history.epochs)
    for i in range(1, len(epochs)):
        if epochs[i] <= epochs[i - 1]:
            errors.append(f"epoch not monotone: generation drew "
                          f"{epochs[i]} after {epochs[i - 1]}")
    previous: History | None = None
    for n, rb in enumerate(readbacks, 1):
        if not rb.done:
            errors.append(f"read-back {n} did not finish"
                          + (f": {rb.error}" if rb.error else ""))
        if not rb.rec_epoch:
            continue  # the restart itself failed: nothing to compare
        if epochs and rb.rec_epoch <= epochs[-1]:
            errors.append(f"epoch not monotone: read-back {n} drew "
                          f"{rb.rec_epoch} after {epochs[-1]}")
        epochs.append(rb.rec_epoch)
        if rb.rec_high < acked_high:
            errors.append(f"read-back {n}: end_of_log {rb.rec_high} "
                          f"below acked high {acked_high}")
        for lsn, data in sorted(acked.items()):
            state, got = rb.finals.get(lsn, ("missing", None))
            if state != "1":
                errors.append(f"acked lsn {lsn} lost at read-back {n} "
                              f"(state {state})")
            elif got != data:
                errors.append(f"acked lsn {lsn} has the wrong payload "
                              f"at read-back {n}")
        for lsn, (state, got) in sorted(rb.finals.items()):
            if state != "1" or lsn > rb.rec_high:
                continue
            want = assigned.get(lsn)
            if want is not None:
                if got != want:
                    errors.append(f"read-back {n}: lsn {lsn} does not "
                                  f"match the write assigned to it")
            elif got not in attempted:
                errors.append(f"read-back {n} fabricated lsn {lsn}")
        if previous is not None:
            for lsn in range(1, previous.rec_high + 1):
                if previous.finals.get(lsn) != rb.finals.get(lsn):
                    errors.append(
                        f"recovery not idempotent at lsn {lsn}: "
                        f"{previous.finals.get(lsn)!r} then "
                        f"{rb.finals.get(lsn)!r}")
        previous = rb
        if rb.done and not rb.posts:
            errors.append(f"read-back {n} journaled no post-recovery "
                          f"writes")
        for lsn, data in sorted(rb.posts.items()):
            assigned[lsn] = data
            attempted.add(data)
            if lsn > rb.post_acked:
                continue
            acked[lsn] = data
            if rb.finals.get(lsn) != ("1", data):
                errors.append(f"read-back {n}: post-recovery write at "
                              f"lsn {lsn} not readable")
        acked_high = max(acked_high, rb.post_acked)
    return errors
