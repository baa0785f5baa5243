"""Deterministic crash-point sweep over the real runtime's durable store.

The paper's durability contract (§3.1) is *per crash point*: every
acked record must survive a restart no matter where the crash lands
between two I/O operations.  This harness checks that literally:

1. **Enumerate** — run a scripted workload (appends + group forces,
   generator writes, §5.3 truncation with and without compaction, a
   CopyLog/InstallCopies cycle, a cross-client group-commit fsync at
   site ``log.group-fsync``) against a :class:`FileLogStore` whose
   I/O backend is a *recording* :class:`~repro.rt.faultfs.FaultInjector`;
   every ``site:index`` pair hit is one crash point.
2. **Sweep** — re-run the same workload once per (point, action) in a
   fresh directory with that point armed: power loss (all files revert
   to their last fsync barrier, pending directory ops roll back),
   short write (the torn half-write survives), EIO/ENOSPC (the wedge
   path), or a payload bit flip (the CRC path).
3. **Verify** — reopen with the passthrough backend and check the
   durability invariants: every durable-acked record is readable with
   exact epoch/present/data/kind (unless reclaimed by an acked
   truncation), nothing not written is ever surfaced, the truncation
   mark is monotone and bounded by what was attempted, InstallCopies
   is all-or-nothing, the generator value never regresses, and the
   reopened store accepts and persists further appends.

Bit flips are *silent corruption* — fsync succeeded but the disk lied —
so durability of later acks is unprovable by design; those cases check
the weaker contract that recovery never surfaces corrupt data (the
CRC rejects the entry and ends the valid prefix).

The **daemon phase** repeats a subset against a real ``repro serve``
process: the armed daemon dies with exit status 86 mid-workload
(``--fault-plan``), is restarted without the plan, and a fresh client
reads the log back; the workload's journaled
:class:`~repro.harness.history.History` is then checked by the one
history checker, :func:`~repro.harness.history.check`.  Its combined
cases arm multi-fault plans — e.g. a torn ``compact.write`` whose corruption
must stay invisible because power is lost before the covering
``compact.rename`` installs it.

The **client phase** turns the same idea on the *protocol*: a scripted
ET1-style workload runs in a separate worker process
(:mod:`repro.harness.clientworker`) against three real ``repro serve``
daemons and is killed — exit 86 or SIGKILL — at every enumerated
protocol crash point of :mod:`repro.rt.clientfault`: after a WriteLog
batch is streamed, around ForceLog acknowledgments (including after a
*partial* ack), mid write-set switch, and between each step of the
§5.4 restart.  A **second OS process** then runs the shared read-back
(the full §5.4 restart) and a third repeats it; :func:`check` runs
over the three journals: nothing fabricated, every acked record
durable with its exact payload, the epoch strictly monotone, and the
third process reproducing the second's final state (window-replay
idempotence).  Combined client cases arm a server storage fault and a
client kill in the same run, so recovery itself executes against a
crashing cluster.

Everything is deterministic given ``seed`` (which varies the record
payloads); ``repro crashsweep --seed S --point SITE:IDX[:ACTION]``
replays one failing case of any family (the site prefix picks it, as
in :func:`~repro.rt.faultfs.parse_plans`).
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import ReplicationConfig
from ..core.errors import LogError, StorageError
from ..core.records import StoredRecord
from ..rt import clientfault
from ..rt.cluster import LoopbackCluster
from ..rt.client import AsyncReplicatedLog
from ..rt.faultfs import (
    FAULT_EXIT_CODE,
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    PowerLoss,
    parse_plans,
)
from ..rt.filestore import FileLogStore
from .history import History, check, read_back_from

#: sites whose payload can be torn or bit-flipped (the others degrade
#: crash-shaped actions to a plain power loss).
_WRITE_SITES = ("log.write.", "compact.write")


def _is_write_site(site: str) -> bool:
    return site.startswith(_WRITE_SITES)


@dataclass
class CrashCase:
    """One (crash point, action) run and its verdict."""

    point: str           # "site:index"
    action: str
    ok: bool = True
    hit: bool = True     # did the armed point fire?
    errors: list[str] = field(default_factory=list)

    @property
    def spec(self) -> str:
        return f"{self.point}:{self.action}"

    def as_dict(self) -> dict:
        return {"point": self.point, "action": self.action, "ok": self.ok,
                "hit": self.hit, "errors": list(self.errors)}


@dataclass
class SweepReport:
    """What one ``repro crashsweep`` invocation did and found."""

    seed: int = 0
    quick: bool = False
    points_enumerated: int = 0
    sites: dict[str, int] = field(default_factory=dict)
    cases: list[CrashCase] = field(default_factory=list)
    daemon_points_enumerated: int = 0
    daemon_cases: list[CrashCase] = field(default_factory=list)
    client_points_enumerated: int = 0
    client_sites: dict[str, int] = field(default_factory=dict)
    client_cases: list[CrashCase] = field(default_factory=list)
    combined_cases_run: int = 0
    net_points_enumerated: int = 0
    net_sites: dict[str, int] = field(default_factory=dict)
    net_cases: list[CrashCase] = field(default_factory=list)
    net_partition_cases: int = 0
    net_handoff_cases: int = 0
    fuzz_cases: list[CrashCase] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def all_cases(self) -> list[CrashCase]:
        return (self.cases + self.daemon_cases + self.client_cases
                + self.net_cases + self.fuzz_cases)

    @property
    def failures(self) -> list[CrashCase]:
        return [c for c in self.all_cases if not c.ok]

    @property
    def cases_run(self) -> int:
        return len(self.all_cases)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "quick": self.quick,
            "points_enumerated": self.points_enumerated,
            "sites": dict(sorted(self.sites.items())),
            "cases_run": self.cases_run,
            "daemon_points_enumerated": self.daemon_points_enumerated,
            "daemon_cases": [c.as_dict() for c in self.daemon_cases],
            "client_points_enumerated": self.client_points_enumerated,
            "client_sites": dict(sorted(self.client_sites.items())),
            "client_cases": [c.as_dict() for c in self.client_cases],
            "combined_cases_run": self.combined_cases_run,
            "net_points_enumerated": self.net_points_enumerated,
            "net_sites": dict(sorted(self.net_sites.items())),
            "net_cases": [c.as_dict() for c in self.net_cases],
            "net_partition_cases": self.net_partition_cases,
            "net_handoff_cases": self.net_handoff_cases,
            "fuzz_cases": [c.as_dict() for c in self.fuzz_cases],
            "failures": [c.as_dict() for c in self.failures],
            "duration_s": round(self.duration_s, 3),
        }


@dataclass
class SweepConfig:
    """Knobs for :func:`run_crashsweep`."""

    root_dir: str = ""
    seed: int = 0
    #: sweep a bounded subset of points (first/last index per site)
    #: with power-loss everywhere plus one torn/flip/EIO case per
    #: write site — the CI smoke shape.
    quick: bool = False
    #: replay exactly one case: ``[sid@]site:index[:action]`` of any
    #: family (the action defaults to the family's: power-loss, exit
    #: for ``client.*``, drop for ``net.*``).
    point: str | None = None
    #: also run the subprocess daemon phase.
    daemon: bool = True
    #: also run the client phase (kill a real client worker process at
    #: each protocol crash point; §5.4 restart from a second process).
    #: Off by default for library callers — the CLI turns it on unless
    #: ``--no-client`` is passed, since it spawns real subprocesses.
    client: bool = False
    #: run *only* the client phase (``repro crashsweep --client``).
    client_only: bool = False
    #: also run the network phase: frame-level faults injected by a
    #: protocol-aware chaos proxy fleet fronting real daemons
    #: (``repro crashsweep --net``).
    net: bool = False
    #: run N seeded multi-fault fuzz cases composing network, storage,
    #: and client faults (``repro crashsweep --fuzz N``).
    fuzz: int = 0
    #: run *only* the network/fuzz phases, skipping storage + daemon
    #: + client.
    net_only: bool = False
    #: replay one composite fuzz plan verbatim
    #: (``repro crashsweep --plan SPEC``).
    plan: str | None = None


# -- the scripted workload ---------------------------------------------------


def _payloads(seed: int) -> dict:
    """Deterministic payload bytes per (client, lsn, epoch)."""
    rng = random.Random(seed)
    table = {}
    for cid, lsns, epoch in (("cw", range(1, 23), 1),
                             ("cr", range(1, 5), 1),
                             ("cr", range(1, 4), 2),
                             ("cw", range(23, 25), 1),
                             ("cr", range(5, 7), 2)):
        for lsn in lsns:
            table[(cid, lsn, epoch)] = (
                f"{cid}.{lsn}.{epoch}.".encode()
                + bytes(rng.randrange(256) for _ in range(rng.randrange(8, 40)))
            )
    return table


def _rec(payloads, cid: str, lsn: int, epoch: int = 1) -> StoredRecord:
    return StoredRecord(lsn=lsn, epoch=epoch, present=True,
                        data=payloads[(cid, lsn, epoch)], kind="data")


def _tup(record: StoredRecord) -> tuple:
    return (record.epoch, record.present, record.data, record.kind)


class _Journal:
    """What the workload was told is durable, and everything it tried."""

    def __init__(self):
        self.attempted: dict[tuple[str, int], set] = {}
        self.durable: dict[tuple[str, int], tuple] = {}
        self.durable_mark: dict[str, int] = {}
        self.attempted_mark: dict[str, int] = {}
        self.durable_gen = 0
        self.attempted_gen = 0
        self.staged_lsns: list[int] = []
        self.install_acked = False

    def attempt(self, cid: str, record: StoredRecord) -> None:
        self.attempted.setdefault((cid, record.lsn), set()).add(_tup(record))

    def ack_records(self, cid: str, records) -> None:
        for record in records:
            self.durable[(cid, record.lsn)] = _tup(record)

    def ack_truncate(self, cid: str, mark: int) -> None:
        self.durable_mark[cid] = max(self.durable_mark.get(cid, 0), mark)
        for (c, lsn) in [k for k in self.durable
                         if k[0] == cid and k[1] < mark]:
            del self.durable[(c, lsn)]


def _store_workload(store: FileLogStore, journal: _Journal,
                    payloads: dict) -> None:
    """The fixed script every sweep case replays.

    The journal is updated only *after* each store call returns — a
    call interrupted by the injected crash was never acknowledged and
    carries no durability promise (its records stay in ``attempted``).
    """
    # Steady appends with group forces (WriteLog ... ForceLog).
    for base in (0, 5, 10):
        batch = tuple(_rec(payloads, "cw", base + i + 1) for i in range(5))
        for record in batch:
            journal.attempt("cw", record)
        store.append_records("cw", batch, fsync=True)
        journal.ack_records("cw", batch)
    # The Appendix I generator representative.
    journal.attempted_gen = 41
    store.generator_write(41)
    journal.durable_gen = 41
    # A second client (the CopyLog/InstallCopies subject).
    batch = tuple(_rec(payloads, "cr", i) for i in range(1, 5))
    for record in batch:
        journal.attempt("cr", record)
    store.append_records("cr", batch, fsync=True)
    journal.ack_records("cr", batch)
    # §5.3 truncation that reclaims records → compaction (tmp + rename
    # + dir fsync).
    journal.attempted_mark["cw"] = 8
    store.truncate_below("cw", 8)
    journal.ack_truncate("cw", 8)
    # The stream stays appendable after compaction.
    batch = tuple(_rec(payloads, "cw", i) for i in range(16, 21))
    for record in batch:
        journal.attempt("cw", record)
    store.append_records("cw", batch, fsync=True)
    journal.ack_records("cw", batch)
    # Mark-only truncation (nothing left below the mark → E_TRUNCATE).
    store.truncate_below("cw", 8)
    journal.ack_truncate("cw", 8)
    # CopyLog staging + the atomic InstallCopies commit point.
    staged = [_rec(payloads, "cr", lsn, epoch=2) for lsn in range(1, 4)]
    journal.staged_lsns = [r.lsn for r in staged]
    for record in staged:
        journal.attempt("cr", record)
        store.stage_copy("cr", record)
    store.install_copies("cr", 2)
    journal.ack_records("cr", staged)
    journal.install_acked = True
    # Tail appends + a final generator bump.
    batch = tuple(_rec(payloads, "cw", i) for i in (21, 22))
    for record in batch:
        journal.attempt("cw", record)
    store.append_records("cw", batch, fsync=True)
    journal.ack_records("cw", batch)
    journal.attempted_gen = 77
    store.generator_write(77)
    journal.durable_gen = 77
    # Group commit: two clients' force batches ride one shared fsync
    # (site ``log.group-fsync``, the server's one-fsync-per-group
    # path).  Neither ack is issued until the covering sync returns,
    # so a crash inside it must lose both batches without fabricating
    # an ack for either parked client.
    batch_w = tuple(_rec(payloads, "cw", i) for i in (23, 24))
    batch_r = tuple(_rec(payloads, "cr", i, epoch=2) for i in (5, 6))
    for record in batch_w:
        journal.attempt("cw", record)
    for record in batch_r:
        journal.attempt("cr", record)
    store.append_records("cw", batch_w, fsync=False)
    store.append_records("cr", batch_r, fsync=False)
    store.sync(site="log.group-fsync")
    journal.ack_records("cw", batch_w)
    journal.ack_records("cr", batch_r)


# -- verification ------------------------------------------------------------


def _verify(data_dir, journal: _Journal, payloads: dict, *,
            strict: bool) -> list[str]:
    """Reopen ``data_dir`` with real I/O and check the invariants."""
    errors: list[str] = []
    try:
        store = FileLogStore(data_dir, "s1")
    except Exception as exc:  # noqa: BLE001 - any reopen failure is a bug
        return [f"reopen failed: {exc!r}"]
    try:
        clients = set(store.mem.known_clients()) \
            | {cid for cid, _ in journal.durable}
        # No fabrication: everything readable was once written.
        for cid in sorted(clients):
            for lsn in store.stored_lsns(cid):
                got = _tup(store.read_record(cid, lsn))
                allowed = journal.attempted.get((cid, lsn), set())
                if got not in allowed:
                    errors.append(
                        f"fabricated record {cid}/{lsn}: {got!r} "
                        f"not among {len(allowed)} written values"
                    )
        # InstallCopies atomicity: the staged set flips epoch together.
        epochs = set()
        complete = True
        for lsn in journal.staged_lsns:
            try:
                epochs.add(store.read_record("cr", lsn).epoch)
            except (LogError, KeyError):
                complete = False
        if complete and len(epochs) > 1:
            errors.append(f"partial install: staged epochs {sorted(epochs)}")
        if strict:
            # Truncation marks: monotone, never beyond what was asked.
            for cid in set(journal.durable_mark) | set(journal.attempted_mark):
                got = store.truncated_lsn(cid)
                lo = journal.durable_mark.get(cid, 0)
                hi = journal.attempted_mark.get(cid, lo)
                if got < lo:
                    errors.append(f"truncate mark regressed for {cid}: "
                                  f"{got} < acked {lo}")
                if got > hi:
                    errors.append(f"truncate mark overshot for {cid}: "
                                  f"{got} > attempted {hi}")
            # Acked durability (records reclaimed by a recovered,
            # legally-attempted mark are excused).
            for (cid, lsn), want in sorted(journal.durable.items()):
                if lsn < store.truncated_lsn(cid):
                    continue
                try:
                    got = _tup(store.read_record(cid, lsn))
                except LogError as exc:
                    errors.append(f"acked record {cid}/{lsn} lost: {exc}")
                    continue
                if got != want and \
                        got not in journal.attempted.get((cid, lsn), set()):
                    errors.append(f"acked record {cid}/{lsn} wrong: "
                                  f"{got!r} != acked {want!r}")
                # got != want but ∈ attempted: a later (unacked) rewrite
                # of the same LSN landed — e.g. a staged epoch-2 copy
                # installed just before the crash.  Legal.
            if journal.install_acked and journal.staged_lsns:
                for lsn in journal.staged_lsns:
                    got = store.read_record("cr", lsn)
                    if got.epoch != 2:
                        errors.append(f"acked install lost: cr/{lsn} "
                                      f"still epoch {got.epoch}")
            if store.generator_value < journal.durable_gen:
                errors.append(f"generator regressed: {store.generator_value}"
                              f" < acked {journal.durable_gen}")
            if store.generator_value > journal.attempted_gen:
                errors.append(f"generator overshot: {store.generator_value}"
                              f" > attempted {journal.attempted_gen}")
            # Continuation: the recovered store accepts appends and
            # persists them across another reopen.
            high = store.client_high_lsn("cw") or 0
            cont = StoredRecord(lsn=high + 1, epoch=9, present=True,
                                data=b"continue", kind="data")
            store.append_records("cw", (cont,), fsync=True)
    except Exception as exc:  # noqa: BLE001 - surface, don't crash the sweep
        errors.append(f"verification crashed: {exc!r}")
    finally:
        store.close()
    if strict and not errors:
        again = FileLogStore(data_dir, "s1")
        try:
            high = again.client_high_lsn("cw") or 0
            if high < 1 or again.read_record("cw", high).data != b"continue":
                errors.append("continuation append did not survive reopen")
        except LogError as exc:
            errors.append(f"continuation reopen failed: {exc}")
        finally:
            again.close()
    return errors


# -- the in-process sweep ----------------------------------------------------


def _enumerate_points(base_dir: Path, payloads: dict) -> list[str]:
    """Run the workload once under a recording injector."""
    injector = FaultInjector()
    store = FileLogStore(base_dir / "enumerate", "s1", io=injector)
    journal = _Journal()
    _store_workload(store, journal, payloads)
    store.close()
    injector.close_all()
    return list(injector.trace)


def _run_case(data_dir: Path, plan: FaultPlan, payloads: dict) -> CrashCase:
    case = CrashCase(point=plan.point, action=plan.action)
    injector = FaultInjector((plan,), mode="raise")
    journal = _Journal()
    store = None
    try:
        store = FileLogStore(data_dir, "s1", io=injector)
        _store_workload(store, journal, payloads)
    except PowerLoss:
        store = None  # the disk froze; the object is dead
    except (StorageError, OSError):
        pass  # wedged (or failed to open): acks stop here
    finally:
        if store is not None and injector.tripped is None:
            try:
                store.close()
            except (StorageError, OSError):
                pass
        injector.close_all()
    case.hit = injector.faults_injected > 0
    # Silent log corruption voids later acks by design.
    case.errors = _verify(data_dir, journal, payloads,
                          strict=plan.action != "bit-flip")
    case.ok = not case.errors
    return case


def _select_points(trace: list[str], *, quick: bool) -> list[str]:
    if not quick:
        return list(trace)
    by_site: dict[str, list[str]] = {}
    for point in trace:
        site = point.rsplit(":", 1)[0]
        by_site.setdefault(site, []).append(point)
    picked = []
    for site in sorted(by_site):
        points = by_site[site]
        picked.append(points[0])
        if len(points) > 1:
            picked.append(points[-1])
    return picked


def _actions_for(site: str, *, quick: bool, first: bool) -> list[str]:
    actions = ["power-loss"]
    if _is_write_site(site):
        if not quick or first:
            actions += ["short-write", "bit-flip"]
    if not quick or first:
        actions.append("eio")
    if site in ("log.fsync", "log.group-fsync") and first:
        actions.append("enospc")
    return actions


# -- the daemon phase --------------------------------------------------------

_DAEMON_CONFIG = ReplicationConfig(total_servers=1, copies=1, delta=4)


async def _daemon_workload(addresses: dict) -> History:
    """Two client generations against one daemon; returns their history.

    Generation one appends with periodic forces; generation two
    re-initializes the same client id (epoch bump → CopyLog/Install
    over the wire), appends more, and truncates.  Every intent is
    journaled before its call and every promise after it returns.
    """
    # The daemon dies mid-call by design; in-flight futures that never
    # get retrieved are expected noise, not a harness bug.
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: None)
    history = History()

    async def generation(n_writes: int, start_index: int) -> None:
        log = AsyncReplicatedLog("cd", addresses, _DAEMON_CONFIG,
                                 timeout=3.0)
        await log.initialize()
        history.epoch(log.current_epoch)
        try:
            for i in range(start_index, start_index + n_writes):
                data = f"d{i}".encode()
                seq = history.attempt(data)
                history.lsn(seq, await log.write(data))
                if (i + 1) % 3 == 0:
                    history.ack(await log.force())
            if start_index:
                history.truncreq(6)
                await log.truncate(6)
                history.trunc(6)
        finally:
            await log.close()

    try:
        await generation(9, 0)
        await generation(9, 9)
    except (LogError, OSError, asyncio.TimeoutError):
        pass  # the daemon died at the armed point; acks stop here
    return history


def _daemon_enumerate(root: Path) -> list[str]:
    trace_path = root / "daemon-trace.txt"
    cluster = LoopbackCluster(
        str(root / "enum"), num_servers=1,
        server_args=["--fault-trace", str(trace_path)],
    )
    with cluster:
        asyncio.run(_daemon_workload(cluster.addresses()))
    if not trace_path.exists():
        return []
    return [ln.strip() for ln in trace_path.read_text().splitlines()
            if ln.strip()]


#: Multi-fault daemon plans: a torn ``compact.write`` (the lying disk
#: keeps running) combined with power loss at a later point *before*
#: the rename barrier commits the torn stream — the old log must stay
#: authoritative and every wire-acked record must survive the restart.
_DAEMON_COMBINED_PLANS = (
    "compact.write:1:torn,compact.rename:0:power-loss",
    "compact.write:1:torn,compact.fsync:0:power-loss",
)


def _daemon_case(root: Path, index, point: str,
                 action: str = "power-loss",
                 plan: str | None = None) -> CrashCase:
    case = CrashCase(point=point, action=action)
    cluster = LoopbackCluster(str(root / f"case-{index}"), num_servers=1)
    try:
        history = History()
        started = True
        try:
            cluster.start_server(
                "s1", extra_args=["--fault-plan",
                                  plan or f"{point}:{action}"])
        except RuntimeError:
            entry = cluster.servers["s1"]
            if entry.process is None \
                    or entry.process.returncode != FAULT_EXIT_CODE:
                raise
            # The armed point fired during startup recovery (e.g.
            # dir.create-sync:0), before the banner.  Nothing was
            # acked; the plain restart below must still come up clean.
            started = False
        if started:
            history = asyncio.run(_daemon_workload(cluster.addresses()))
            try:
                # Not ``alive``: a point that fires in the workload's
                # last call (the compaction under the final truncate)
                # may still be exiting when the client has returned.
                code = cluster.wait("s1", timeout=10.0)
            except subprocess.TimeoutExpired:
                # The workload finished without reaching the armed
                # point: nothing to verify.
                case.hit = False
                return case
            if code != FAULT_EXIT_CODE:
                case.errors.append(f"daemon exited {code}, expected "
                                   f"{FAULT_EXIT_CODE} (injected crash)")
        cluster.restart("s1")  # no plan: clean recovery
        readback = asyncio.run(read_back_from(cluster.addresses(), "cd",
                                              _DAEMON_CONFIG))
        case.errors.extend(check(history, readback))
    finally:
        cluster.stop()
        case.ok = not case.errors
    return case


def _select_daemon_points(trace: list[str], *, quick: bool) -> list[str]:
    """First hit of each interesting site, bounded for the CI smoke."""
    wanted = ("dir.create-sync", "log.write.record", "log.fsync",
              "log.group-fsync", "log.write.generator",
              "log.write.staged", "log.write.install")
    first: dict[str, str] = {}
    for point in trace:
        site = point.rsplit(":", 1)[0]
        if site in wanted and site not in first:
            first[site] = point
    points = [first[site] for site in wanted if site in first]
    return points[:3] if quick else points


# -- the client phase --------------------------------------------------------

#: clientworker arguments every phase run shares (3 servers, N=2,
#: δ=4, four 5-record transactions, §5.3 truncation every second one).
_CLIENT_WORKER_ARGS = ("--m", "3", "--n", "2", "--delta", "4",
                       "--txns", "4", "--records-per-txn", "5",
                       "--truncate-every", "2")

#: combined client+server fault cases: (client point, client action,
#: armed server, server fault plan).  The storage fault kills a
#: write-set daemon mid-workload, which routes the client through its
#: §5.4 write-set switch — and the client is then killed inside it.
_CLIENT_COMBINED = (
    ("client.switch.begin:0", "exit", "s1",
     "log.group-fsync:2:power-loss"),
    ("client.switch.feed:0", "exit", "s1",
     "log.group-fsync:2:power-loss"),
    ("client.switch.done:0", "sigkill", "s1",
     "log.group-fsync:2:power-loss"),
    ("client.force.ack:0", "exit", "s1",
     "log.group-fsync:1:power-loss"),
    ("client.flush.sent:2", "sigkill", "s1",
     "log.write.record:10:power-loss"),
)

#: the bounded CI smoke subset: one early restart-step point, one
#: streamed-batch point, one partial-ack point, one mid-recovery
#: point, and one partial-fence-install point (killed between the
#: first fence landing and the handoff's recovery).
_CLIENT_QUICK_POINTS = ("client.epoch.written:0", "client.flush.sent:0",
                        "client.force.ack:0", "client.recovery.copylog:0",
                        "client.handoff.fence.ack:0")


def _worker_env(plan: str | None = None,
                trace: str | None = None) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(clientfault.PLAN_ENV, None)
    env.pop(clientfault.TRACE_ENV, None)
    if plan is not None:
        env[clientfault.PLAN_ENV] = plan
    if trace is not None:
        env[clientfault.TRACE_ENV] = trace
    return env


def _run_worker(addresses: dict, journal: Path, *, mode: str = "run",
                plan: str | None = None, trace: str | None = None,
                timeout: float = 120.0) -> int:
    """Run one clientworker OS process to completion (or injected death)."""
    servers = ",".join(f"{sid}={host}:{port}"
                       for sid, (host, port) in sorted(addresses.items()))
    cmd = [sys.executable, "-m", "repro.harness.clientworker",
           "--servers", servers, "--journal", str(journal),
           "--mode", mode, *_CLIENT_WORKER_ARGS]
    proc = subprocess.run(cmd, env=_worker_env(plan, trace),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=timeout)
    return proc.returncode


def _client_enumerate(root: Path) -> list[str]:
    """One fault-free worker run under a recording injector."""
    trace_path = root / "client-trace.txt"
    cluster = LoopbackCluster(str(root / "enum"), num_servers=3)
    with cluster:
        rc = _run_worker(cluster.addresses(), root / "enum.journal",
                         trace=str(trace_path))
    if rc != 0:
        raise RuntimeError(f"client enumeration worker exited {rc}")
    if not trace_path.exists():
        return []
    return [ln.strip() for ln in trace_path.read_text().splitlines()
            if ln.strip()]


def _select_client_points(trace: list[str], *, quick: bool) -> list[str]:
    if quick:
        return [p for p in _CLIENT_QUICK_POINTS if p in trace]
    # Full mode: first and last index of every site — the window-open
    # and window-deep shape of each protocol seam.
    return _select_points(trace, quick=True)


def _client_case(root: Path, index: int, point: str, action: str,
                 server_fault: tuple[str, str] | None = None) -> CrashCase:
    """Kill a real client worker at ``point``; restart and verify.

    ``server_fault`` additionally arms ``(server_id, fault_plan)`` on
    one daemon — the combined-fault shape where the cluster is crashing
    while the client is being killed and recovered.
    """
    label = point if server_fault is None \
        else f"{point}+{server_fault[0]}:{server_fault[1]}"
    case = CrashCase(point=label, action=action)
    case_root = root / f"case-{index}"
    case_root.mkdir(parents=True, exist_ok=True)
    cluster = LoopbackCluster(str(case_root / "cluster"), num_servers=3)
    try:
        if server_fault is not None:
            cluster.start_server(
                server_fault[0],
                extra_args=["--fault-plan", server_fault[1]])
        cluster.start()
        run_journal = case_root / "run.journal"
        rc = _run_worker(cluster.addresses(), run_journal,
                         plan=f"{point}:{action}")
        run = History.load(run_journal)
        if rc == 0 and run.done:
            # The workload finished without reaching the armed point.
            case.hit = False
            return case
        expected = -signal.SIGKILL if action == "sigkill" \
            else FAULT_EXIT_CODE
        if rc != expected:
            case.errors.append(f"run worker exited {rc}, expected "
                               f"{expected} (injected kill)")
        readbacks: list[History] = []
        for n in (1, 2):
            journal = case_root / f"recover{n}.journal"
            rc = _run_worker(cluster.addresses(), journal, mode="recover")
            if rc != 0:
                case.errors.append(f"recovery worker {n} exited {rc}")
            readbacks.append(History.load(journal))
        case.errors.extend(check(run, *readbacks))
    finally:
        cluster.stop()
        case.ok = not case.errors
    return case


# -- entry point -------------------------------------------------------------


def _enumerate_storage(root: Path, payloads: dict, report: SweepReport,
                       say) -> list[str]:
    trace = _enumerate_points(root, payloads)
    report.points_enumerated = len(trace)
    for point in trace:
        site = point.rsplit(":", 1)[0]
        report.sites[site] = report.sites.get(site, 0) + 1
    say(f"enumerated {len(trace)} crash points across "
        f"{len(report.sites)} sites")
    return trace


def _replay(config: SweepConfig, root: Path, payloads: dict,
            report: SweepReport, say) -> None:
    """Replay one ``--plan`` fuzz case, or the single ``--point`` case
    of whichever family it names."""
    from .netsweep import run_net_phase
    if config.plan is not None:
        plans = parse_plans(config.plan)
        say(f"replaying fuzz case {config.plan}")
        case = run_net_phase(root / "net", say=say, plan=plans).fuzz_cases[0]
        report.fuzz_cases.append(case)
        _say_verdict(case, say)
        return
    plans = parse_plans(config.point, defaults=True)
    if len(plans) != 1:
        raise FaultSpecError(config.point, config.point,
                             "arms more than one point (use --plan)")
    plan = plans[0]
    say(f"replaying single {plan.family} case {plan.spec}")
    if plan.family == "net":
        case = run_net_phase(root / "net", say=say, point=plan).cases[0]
        report.net_cases.append(case)
    elif plan.family == "client":
        case = _client_case(root / "client-replay", 0, plan.point,
                            plan.action)
        report.client_cases.append(case)
    else:
        _enumerate_storage(root, payloads, report, say)
        case = _run_case(root / "replay", plan, payloads)
        report.cases.append(case)
    _say_verdict(case, say)


def _say_verdict(case: CrashCase, say) -> None:
    if not case.hit:
        say(f"{case.spec}: point not reached")
    elif not case.ok:
        say(f"FAIL {case.spec}: {'; '.join(case.errors)}")


def run_crashsweep(config: SweepConfig, progress=None) -> SweepReport:
    """Run the sweep; ``progress(str)`` receives human-readable lines."""
    say = progress if progress is not None else (lambda line: None)
    root = Path(config.root_dir)
    root.mkdir(parents=True, exist_ok=True)
    payloads = _payloads(config.seed)
    report = SweepReport(seed=config.seed, quick=config.quick)
    say(f"crashsweep seed={config.seed} quick={config.quick}")
    start = time.monotonic()

    if config.plan is not None or config.point is not None:
        _replay(config, root, payloads, report, say)
        report.duration_s = time.monotonic() - start
        return report

    if not config.client_only and not config.net_only:
        trace = _enumerate_storage(root, payloads, report, say)
        seen_first: set[str] = set()
        for n, point in enumerate(
                _select_points(trace, quick=config.quick)):
            site = point.rsplit(":", 1)[0]
            first = site not in seen_first
            seen_first.add(site)
            if first:
                say(f"sweeping site {site} "
                    f"({report.sites[site]} points enumerated)")
            for action in _actions_for(site, quick=config.quick,
                                       first=first):
                index = int(point.rsplit(":", 1)[1])
                plan = FaultPlan(site=site, index=index, action=action)
                case = _run_case(root / f"case-{n}-{action}", plan,
                                 payloads)
                report.cases.append(case)
                if not case.ok:
                    say(f"FAIL {case.spec}: {'; '.join(case.errors)}")

        if config.daemon:
            daemon_root = root / "daemon"
            daemon_trace = _daemon_enumerate(daemon_root)
            report.daemon_points_enumerated = len(daemon_trace)
            points = _select_daemon_points(daemon_trace,
                                           quick=config.quick)
            say(f"daemon phase: {len(daemon_trace)} points enumerated, "
                f"crashing a real daemon at {len(points)} of them")
            for i, point in enumerate(points):
                case = _daemon_case(daemon_root, i, point)
                report.daemon_cases.append(case)
                if not case.ok:
                    say(f"FAIL daemon {case.spec}: "
                        f"{'; '.join(case.errors)}")
            combined = _DAEMON_COMBINED_PLANS[:1] if config.quick \
                else _DAEMON_COMBINED_PLANS
            for i, plan_spec in enumerate(combined):
                case = _daemon_case(daemon_root, f"combined-{i}",
                                    plan_spec, action="combined",
                                    plan=plan_spec)
                report.daemon_cases.append(case)
                report.combined_cases_run += 1
                if not case.ok:
                    say(f"FAIL daemon combined {case.point}: "
                        f"{'; '.join(case.errors)}")

    if (config.client or config.client_only) and not config.net_only:
        client_root = root / "client"
        client_trace = _client_enumerate(client_root)
        report.client_points_enumerated = len(client_trace)
        for point in client_trace:
            site = point.rsplit(":", 1)[0]
            report.client_sites[site] = \
                report.client_sites.get(site, 0) + 1
        points = _select_client_points(client_trace, quick=config.quick)
        say(f"client phase: {len(client_trace)} protocol points across "
            f"{len(report.client_sites)} sites, killing a real client "
            f"worker at {len(points)} of them")
        case_n = 0
        seen_sites: set[str] = set()
        for point in points:
            site = point.rsplit(":", 1)[0]
            first = site not in seen_sites
            seen_sites.add(site)
            actions = ["exit"]
            # The hardest kill on the seams that route replies: a
            # SIGKILL mid-stream / mid-partial-ack, full mode only.
            if not config.quick and first and site in (
                    "client.flush.sent", "client.force.ack"):
                actions.append("sigkill")
            for action in actions:
                case = _client_case(client_root, case_n, point, action)
                case_n += 1
                report.client_cases.append(case)
                if not case.hit:
                    say(f"client {point}:{action}: point not reached "
                        f"(workload completed)")
                elif not case.ok:
                    say(f"FAIL client {case.spec}: "
                        f"{'; '.join(case.errors)}")
        combined = _CLIENT_COMBINED[:1] if config.quick \
            else _CLIENT_COMBINED
        say(f"client combined phase: {len(combined)} client-kill + "
            f"server-fault cases")
        for point, action, sid, splan in combined:
            case = _client_case(client_root, case_n, point, action,
                                server_fault=(sid, splan))
            case_n += 1
            report.client_cases.append(case)
            report.combined_cases_run += 1
            if not case.hit:
                say(f"client combined {case.point}: point not reached")
            elif not case.ok:
                say(f"FAIL client combined {case.point}: "
                    f"{'; '.join(case.errors)}")

    if config.net or config.fuzz:
        from .netsweep import run_net_phase
        net = run_net_phase(root / "net", quick=config.quick,
                            sweep=config.net, fuzz=config.fuzz,
                            seed=config.seed, say=say)
        report.net_points_enumerated = net.points_enumerated
        report.net_sites = dict(net.sites)
        report.net_cases.extend(net.cases)
        report.net_partition_cases = net.partition_cases_run
        report.net_handoff_cases = net.handoff_cases_run
        report.fuzz_cases.extend(net.fuzz_cases)

    report.duration_s = time.monotonic() - start
    say(f"{report.cases_run} cases, {len(report.failures)} failures, "
        f"{report.duration_s:.1f}s")
    return report
