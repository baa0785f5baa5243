"""Network phase of ``repro crashsweep``: frame faults + multi-fault fuzz.

The storage and client phases prove durability across crashes of the
*endpoints*; this phase proves it across misbehavior of the *network*
between them — the paper's actual failure model for server switching
(§5.4) and N-of-M write-set availability.  Three real ``repro serve``
daemons run behind per-server :class:`~repro.rt.chaosproxy.ChaosProxy`
instances (a :class:`~repro.rt.chaosproxy.ProxyFleet`), and a scripted
client workload runs through them:

1. **Enumerate** — one clean traced run; every frame crossing the
   target server's proxy is a point ``net.<kind>.<dir>:<index>``
   (keep-alive ping/pong excluded: their timing is not deterministic).
2. **Sweep** — re-run the workload once per (point, action) with that
   single ``net.*`` :class:`~repro.rt.faultfs.FaultPlan` armed, including
   curated ``partition-after`` cases where the §5.4 switch must
   complete off a server that is *alive and reachable in one
   direction* within :data:`SWITCH_BUDGET_S`.
3. **Verify** — heal (drop the proxies), confirm no daemon died, then
   run the shared read-back (:func:`~repro.harness.history.read_back`,
   the §5.4 restart with the same client id *directly* against the
   daemons) and check the workload's history with
   :func:`~repro.harness.history.check`: epoch monotone, every acked
   record readable with its exact payload (above the truncation
   floor), nothing fabricated, and post-heal liveness (a fresh
   transaction acks and reads back).

The **fuzz phase** (``repro crashsweep --fuzz N --seed S``) composes
2–4 faults per case drawn across all three injector families — network
frame plans, storage fault plans armed on a daemon via ``--fault-plan``
(power-loss/EIO only: silent storage corruption voids acked-durability
by design and belongs to the storage phase), and in-process client
protocol crashes (:mod:`repro.rt.clientfault`, action ``raise``).  A
case's plan string is tokens of the one fault grammar and round-trips
through :func:`~repro.rt.faultfs.parse_plans`, so any failure is
replayable with ``repro crashsweep --plan SPEC``.  The workload may
legally abort mid-case (e.g. two faulted servers leave no write
quorum); the invariants are checked regardless, after the fleet is
revived.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..core.config import ReplicationConfig
from ..core.errors import LogError, LogFenced
from ..core.retry import RetryPolicy
from ..net.codec import RECORD_BEARING_KINDS
from ..rt import clientfault
from ..rt.chaosproxy import ProxyFleet
from ..rt.client import AsyncReplicatedLog
from ..rt.clientfault import ClientCrash, ClientFaultInjector
from ..rt.cluster import LoopbackCluster
from ..rt.faultfs import FaultPlan, parse_plans
from .crashsweep import CrashCase
from .history import History, check, read_back_from

#: the case workload's replication shape (M=3, N=2, δ=8 — δ larger
#: than a transaction so only explicit forces hit the wire, keeping
#: frame enumeration deterministic).
_NET_CONFIG = ReplicationConfig(total_servers=3, copies=2, delta=8)
_TIMEOUT = 1.0
_KA_INTERVAL = 0.25
_KA_MISSES = 2

#: §5.4 detection + switch budget for a *partitioned* (not killed)
#: server: the slower detector — the force-ack timeout (a ``c2s``
#: partition starves acks) vs the keep-alive miss budget (an ``s2c``
#: partition starves all inbound bytes) — plus generous single-core CI
#: slack for the switch's NewInterval + window re-feed round.
SWITCH_BUDGET_S = max(_TIMEOUT, _KA_INTERVAL * (_KA_MISSES + 1)) + 4.0

#: curated §5.4-under-partition cases: the old server stays alive and
#: reachable in one direction; the switch must complete within budget
#: with zero acked-record loss.  ``c2s`` partitions surface as force
#: timeouts, ``s2c`` partitions as keep-alive quarantines.
PARTITION_CASES = (
    "net.writelog.c2s:1:partition-after",
    "net.forcelog.c2s:1:partition-after",
    "net.newhighlsn.s2c:0:partition-after",
    "net.ack.s2c:2:partition-after",
)

#: storage faults the fuzzer draws (crash/wedge only — no silent
#: corruption, which voids acked-durability and is the storage
#: phase's own subject).  ``log.write.fence`` is the durable fence
#: append of the workload's handoff tail.
_FUZZ_STORAGE_SITES = ("log.write.record", "log.fsync", "log.group-fsync",
                       "log.write.fence")
_FUZZ_STORAGE_ACTIONS = ("power-loss", "eio")

#: frame actions the fuzzer draws (plus ``corrupt-payload`` on
#: record-bearing kinds); the order is part of every seeded plan.
_FUZZ_NET_ACTIONS = ("drop", "delay", "duplicate", "corrupt-header",
                     "truncate-mid-frame", "partition-after",
                     "kill-connection-after")

#: client protocol sites the fuzzer crashes in-process (action
#: ``raise``; exit/sigkill would kill the harness itself).  The
#: ``client.handoff.*`` sites are the takeover seams: after the epoch
#: bump but before the fence, and after a partial fence install.
_FUZZ_CLIENT_SITES = ("client.flush.sent", "client.force.ack",
                      "client.switch.begin", "client.recovery.copylog",
                      "client.init.lists", "client.handoff.epoch",
                      "client.handoff.fence.ack")

#: payload prefix of every record the *fenced* old writer attempts
#: after a handoff: the durable-file check greps for it, so it must
#: never appear in any daemon's log.
_STALE_PREFIX = b"stale."


# -- the scripted workload ---------------------------------------------------


@dataclass
class _CaseStats:
    """How a case workload ran; its promises live in its history."""

    max_force_s: float = 0.0
    switches: int = 0
    aborted: str = ""


def _make_client(addresses: dict, client_id: str) -> AsyncReplicatedLog:
    log = AsyncReplicatedLog(
        client_id, addresses, _NET_CONFIG,
        timeout=_TIMEOUT, batch_bytes=256,
        keepalive_interval=_KA_INTERVAL, keepalive_misses=_KA_MISSES,
        retry_policy=RetryPolicy(cap_delay_s=0.25, max_attempts=5),
    )
    # Pin δ so the implicit-force trigger cannot adapt mid-sweep and
    # shift frame counts between enumeration and the armed runs.
    log.delta_controller.min_delta = log.delta_controller.max_delta
    return log


async def _write_txn(log: AsyncReplicatedLog, history: History,
                     stats: _CaseStats, payloads) -> None:
    """Write ``payloads`` and force them, journaling intent and acks."""
    loop = asyncio.get_running_loop()
    for payload in payloads:
        seq = history.attempt(payload)
        history.lsn(seq, await log.write(payload))
    t0 = loop.time()
    high = await log.force()
    stats.max_force_s = max(stats.max_force_s, loop.time() - t0)
    history.ack(high)


async def _run_workload(addresses: dict, client_id: str, history: History,
                        stats: _CaseStats, *, seed: int = 0) -> None:
    """Three 4-record transactions with explicit forces and one §5.3
    truncation, then a fenced ownership handoff (a second instance
    seizes the stream and commits one more transaction — putting the
    fencelog frames and the ``client.handoff.*`` sites on the traced
    protocol surface the sweep and fuzzer enumerate).  Every intent is
    journaled before its call and every promise after it returns (an
    interrupted call carries no durability promise)."""
    # Injected faults abort in-flight futures by design; unretrieved
    # exceptions are expected noise, not harness bugs.
    asyncio.get_running_loop().set_exception_handler(lambda lp, ctx: None)
    log = _make_client(addresses, client_id)
    taker: AsyncReplicatedLog | None = None
    try:
        await log.initialize()
        history.epoch(log.current_epoch)
        for txn in range(3):
            await _write_txn(log, history, stats, [
                f"{client_id}.{txn}.{i}.".encode()
                + bytes((seed + 16 * txn + 4 * i + j) % 256
                        for j in range(64))
                for i in range(4)])
            if txn == 1:
                low = log.end_of_log() - _NET_CONFIG.delta
                if low > 1:
                    history.truncreq(low)
                    await log.truncate(low)
                    history.trunc(low)
        taker = _make_client(addresses, client_id)
        await taker.takeover()
        history.epoch(taker.current_epoch)
        await _write_txn(taker, history, stats, [
            f"{client_id}.t.{i}.".encode()
            + bytes((seed + 128 + 4 * i + j) % 256 for j in range(64))
            for i in range(4)])
        history.finish()
    finally:
        stats.switches = max(stats.switches, log.server_switches)
        if taker is not None:
            stats.switches = max(stats.switches, taker.server_switches)
            await taker.close()
        await log.close()


def _check_healed(cluster: LoopbackCluster, client_id: str,
                  history: History) -> list[str]:
    """Read the stream back directly from the daemons; check it."""
    readback = asyncio.run(read_back_from(cluster.addresses(), client_id,
                                          _NET_CONFIG))
    return check(history, readback)


# -- enumeration and case selection ------------------------------------------


def enumerate_net_points(cluster: LoopbackCluster, *,
                         target: str = "s1") -> list[str]:
    """Frame points seen by ``target``'s proxy during one clean run."""

    async def run() -> list[str]:
        fleet = ProxyFleet(cluster.addresses(), record_server=target)
        await fleet.start()
        try:
            history = History()
            await _run_workload(fleet.addresses(), "net-e", history,
                                _CaseStats())
            if not history.done:
                raise RuntimeError(
                    "net enumeration workload did not complete")
            return list(fleet.proxies[target].trace)
        finally:
            await fleet.close()

    trace = asyncio.run(run())
    return [p for p in trace
            if ".ping." not in p and ".pong." not in p]


def select_net_cases(trace: list[str], *,
                     quick: bool) -> list[tuple[str, str]]:
    """(point, action) pairs to sweep, from an enumerated trace."""
    by_site: dict[str, list[str]] = {}
    for point in trace:
        by_site.setdefault(point.rsplit(":", 1)[0], []).append(point)
    cases: list[tuple[str, str]] = []
    if quick:
        wanted = ("net.intervallistcall.c2s", "net.writelog.c2s",
                  "net.forcelog.c2s", "net.newhighlsn.s2c")
        for site in wanted:
            if site not in by_site:
                continue
            first = by_site[site][0]
            cases.append((first, "drop"))
            cases.append((first, "kill-connection-after"))
        if "net.forcelog.c2s" in by_site:
            cases.append((by_site["net.forcelog.c2s"][0],
                          "corrupt-payload"))
        if "net.newhighlsn.s2c" in by_site:
            cases.append((by_site["net.newhighlsn.s2c"][0],
                          "corrupt-header"))
        return cases
    for site in sorted(by_site):
        points = by_site[site]
        kind = site.split(".")[1]
        first, last = points[0], points[-1]
        cases.append((first, "drop"))
        cases.append((first, "kill-connection-after"))
        cases.append((first, "duplicate"))
        cases.append((first, "corrupt-header"))
        if last != first:
            cases.append((last, "drop"))
        if kind in RECORD_BEARING_KINDS:
            cases.append((first, "corrupt-payload"))
            cases.append((first, "truncate-mid-frame"))
    for site in ("net.forcelog.c2s", "net.newhighlsn.s2c"):
        if site in by_site:
            cases.append((by_site[site][0], "delay"))
    return cases


# -- single-fault net cases --------------------------------------------------


def run_net_case(cluster: LoopbackCluster, index, plan: FaultPlan, *,
                 partition_expected: bool = False) -> CrashCase:
    """One armed frame fault against the shared daemon cluster."""
    case = CrashCase(point=plan.point, action=plan.action)
    target = plan.server or "s1"
    client_id = f"n{index}"
    history = History()
    stats = _CaseStats()

    async def run() -> int:
        fleet = ProxyFleet(cluster.addresses(), plans=(plan,),
                           default_target=target)
        await fleet.start()
        try:
            try:
                await asyncio.wait_for(
                    _run_workload(fleet.addresses(), client_id, history,
                                  stats),
                    timeout=60.0)
            except (LogError, OSError, asyncio.TimeoutError) as exc:
                stats.aborted = repr(exc)
            return fleet.faults_injected
        finally:
            await fleet.close()

    case.hit = asyncio.run(run()) > 0
    if partition_expected:
        if not cluster.servers[target].alive:
            case.errors.append(
                f"partitioned daemon {target} died during the case")
        if not stats.switches:
            case.errors.append(
                "partition did not drive a §5.4 write-set switch")
        if not history.done:
            case.errors.append(
                f"workload did not complete off the partitioned server "
                f"({stats.aborted or 'incomplete'})")
        if stats.max_force_s > SWITCH_BUDGET_S:
            case.errors.append(
                f"switch took {stats.max_force_s:.2f}s, over the "
                f"{SWITCH_BUDGET_S:.2f}s detection budget")
    # Heal == the proxies are gone.  A network-only fault must never
    # kill a daemon; restart any casualty so one bad case cannot
    # cascade, but record it as the failure it is.
    for sid, entry in cluster.servers.items():
        if not entry.alive:
            case.errors.append(
                f"daemon {sid} died during a network-only case")
            cluster.restart(sid)
    case.errors.extend(_check_healed(cluster, client_id, history))
    case.ok = not case.errors
    return case


# -- the curated linearizable-handoff case -----------------------------------


def run_handoff_case(cluster: LoopbackCluster, index) -> CrashCase:
    """Writer takeover with the *old owner alive and half-reachable*.

    The adversarial shape §5.4 recovery alone cannot survive: the old
    writer is partitioned ``s2c`` on every link — deaf, but its frames
    still *reach* every daemon — while a second client seizes the
    stream via :meth:`~repro.rt.client.AsyncReplicatedLog.takeover`.
    The old writer then keeps forcing records (prefix
    :data:`_STALE_PREFIX`); only the durable fence stands between them
    and the log.  After healing, the case proves:

    * the old writer observes the terminal :class:`LogFenced` (not an
      endless retry loop) once it can hear replies again;
    * **zero** stale records are durable — checked against each healed
      daemon's on-disk files, reopened directly, not just through the
      read path;
    * the fence epoch itself is durable on at least ``M − N + 1``
      servers, so every possible write set stays poisoned;
    * the new owner's log is live throughout, and a final §5.4 restart
      sees a monotone epoch and every acked record.
    """
    case = CrashCase(point="handoff.partition", action="takeover")
    client_id = f"h{index}"
    config = _NET_CONFIG
    # The stale writes are deliberately not journaled: any that became
    # durable is a record nobody was promised, which check() flags.
    history = History()
    stats = _CaseStats()
    outcome: dict[str, object] = {"takeover_epoch": 0, "fenced": ""}

    async def run() -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda lp, ctx: None)
        fleet = ProxyFleet(cluster.addresses())
        await fleet.start()
        old = _make_client(fleet.addresses(), client_id)
        new = AsyncReplicatedLog(client_id, cluster.addresses(), config,
                                 timeout=2.0)
        try:
            await old.initialize()
            history.epoch(old.current_epoch)
            for txn in range(2):
                await _write_txn(old, history, stats, [
                    f"{client_id}.pre.{txn}.{i}".encode()
                    for i in range(4)])
            # Half-partition the old writer: every proxy drops
            # server→client, so it hears nothing — but its own frames
            # still land on every daemon.
            for proxy in fleet.proxies.values():
                proxy.partition("s2c")
            # The second process seizes the stream over its own links.
            await new.takeover()
            history.epoch(new.current_epoch)
            outcome["takeover_epoch"] = new.current_epoch
            # The deaf old writer keeps forcing.  These frames reach
            # the daemons; the fence must refuse them *before* any
            # append, even though the refusals cannot be delivered.
            for i in range(4):
                payload = _STALE_PREFIX + f"{client_id}.{i}".encode()
                await old.write(payload)
            try:
                await asyncio.wait_for(old.force(),
                                       timeout=SWITCH_BUDGET_S)
                outcome["fenced"] = "acked while deaf"
            except LogFenced:
                outcome["fenced"] = "fenced"
            except (LogError, asyncio.TimeoutError):
                pass  # expected: no acks can arrive through the block
            # Heal: the old writer can hear again.  It keeps retrying
            # exactly as a real writer would — riding out transient
            # NotEnoughServers while its quarantined connections come
            # back — and must observe the *terminal* refusal within
            # the detection budget, never an ack.
            fleet.heal()
            deadline = loop.time() + 2 * SWITCH_BUDGET_S
            while not outcome["fenced"]:
                try:
                    await asyncio.wait_for(old.force(),
                                           timeout=SWITCH_BUDGET_S)
                    outcome["fenced"] = "acked after heal"
                except LogFenced:
                    outcome["fenced"] = "fenced"
                except (LogError, asyncio.TimeoutError) as exc:
                    if loop.time() > deadline:
                        outcome["fenced"] = f"not observed: {exc!r}"
                    else:
                        await asyncio.sleep(0.25)
            # The new owner's log was live through all of it.
            await _write_txn(new, history, stats, [
                f"{client_id}.post.{i}".encode() for i in range(4)])
        finally:
            await old.close()
            await new.close()
            await fleet.close()

    try:
        asyncio.run(run())
    except (LogError, OSError, asyncio.TimeoutError) as exc:
        case.errors.append(f"handoff case aborted: {exc!r}")
    case.hit = True
    if outcome["fenced"] != "fenced":
        case.errors.append(
            f"old writer was not terminally fenced: "
            f"{outcome['fenced'] or 'no refusal observed'}")
    # Durable-file check, per daemon: kill it, reopen its store the
    # way a restart would, and look for leaked stale records and the
    # standing fence.  The daemons come back healed afterwards.
    from ..rt.filestore import FileLogStore
    fence_holders = 0
    for sid, entry in sorted(cluster.servers.items()):
        if not entry.alive:
            case.errors.append(f"daemon {sid} died during the handoff "
                               f"case")
            continue
        cluster.kill(sid)
        store = FileLogStore(entry.data_dir, sid)
        try:
            if store.fence_epoch(client_id) >= int(
                    outcome["takeover_epoch"] or 1):
                fence_holders += 1
            for lsn in store.stored_lsns(client_id):
                if store.read_record(client_id, lsn).data.startswith(
                        _STALE_PREFIX):
                    case.errors.append(
                        f"stale record committed past the fence: "
                        f"{sid} lsn {lsn}")
        finally:
            store.close()
        cluster.start_server(sid)
    if fence_holders < config.init_quorum:
        case.errors.append(
            f"fence durable on only {fence_holders} servers; "
            f"{config.init_quorum} needed to poison every write set")
    # Final §5.4 restart over the healed daemons: epoch monotone, all
    # acked records (old pre-handoff + new post-handoff) durable, and
    # nothing stale readable anywhere.
    case.errors.extend(_check_healed(cluster, client_id, history))
    case.ok = not case.errors
    return case


# -- multi-fault (fuzz) plans ----------------------------------------------


def draw_fuzz_plan(rng: random.Random,
                   sites: dict[str, int]) -> tuple[FaultPlan, ...]:
    """2–4 seeded faults across the three families (net, storage,
    client, in that order) over the enumerated net site menu."""
    n_faults = rng.randint(2, 4)
    drawn: dict[str, list[FaultPlan]] = {"net": [], "storage": [],
                                         "client": []}
    seen: set[tuple] = set()
    tries = 0
    while sum(map(len, drawn.values())) < n_faults and tries < 64:
        tries += 1
        family = rng.choices(("net", "storage", "client"),
                             weights=(3, 1, 1))[0]
        if family == "net":
            site = rng.choice(sorted(sites))
            index = rng.randrange(min(sites[site], 3))
            actions = _FUZZ_NET_ACTIONS
            if site.split(".")[1] in RECORD_BEARING_KINDS:
                actions += ("corrupt-payload",)
            sid = rng.choice(("s1", "s1", "s2", "s3"))
        elif family == "storage":
            sid = rng.choice(("s1", "s2"))
            site = rng.choice(_FUZZ_STORAGE_SITES)
            index = rng.randrange(6)
            actions = _FUZZ_STORAGE_ACTIONS
        else:
            sid, actions = "", ("raise",)
            site = rng.choice(_FUZZ_CLIENT_SITES)
            index = rng.randrange(2)
        if (sid, site, index) in seen:
            continue
        seen.add((sid, site, index))
        # A one-action table draws nothing, so seeded plans stay stable.
        action = rng.choice(actions) if len(actions) > 1 else actions[0]
        drawn[family].append(FaultPlan(site, index, action, sid))
    return tuple(drawn["net"] + drawn["storage"] + drawn["client"])


def plan_spec(plans) -> str:
    """The replayable ``--plan`` string of a multi-fault plan."""
    return ",".join(plan.spec for plan in plans)


def run_fuzz_case(cluster: LoopbackCluster, index,
                  plans: tuple[FaultPlan, ...]) -> CrashCase:
    """One composed multi-fault case; revive the fleet, then verify."""
    case = CrashCase(point=plan_spec(plans), action="fuzz")
    client_plans = [p for p in plans if p.family == "client"]
    bad = [p.spec for p in client_plans if p.action != "raise"]
    if bad:
        case.errors.append(
            f"fuzz cases only support in-process client faults "
            f"(action 'raise'); got {', '.join(bad)}")
        case.ok = False
        return case
    client_id = f"f{index}"
    history = History()
    stats = _CaseStats()
    by_server: dict[str, list[FaultPlan]] = {}
    for plan in plans:
        if plan.family == "storage":
            by_server.setdefault(plan.server or "s1", []).append(plan)
    for sid in sorted(by_server):
        cluster.restart(sid, extra_args=["--fault-plan",
                                         plan_spec(by_server[sid])])

    async def run() -> int:
        fleet = ProxyFleet(cluster.addresses(),
                           plans=[p for p in plans if p.family == "net"],
                           seed=index if isinstance(index, int) else 0)
        await fleet.start()
        injector = ClientFaultInjector(client_plans)
        clientfault.install(injector)
        try:
            try:
                await asyncio.wait_for(
                    _run_workload(fleet.addresses(), client_id, history,
                                  stats),
                    timeout=60.0)
            except ClientCrash as crash:
                stats.aborted = f"client crash at {crash.point}"
            except (LogError, OSError, asyncio.TimeoutError) as exc:
                stats.aborted = repr(exc)
            return fleet.faults_injected + injector.crashes
        finally:
            clientfault.install(None)
            await fleet.close()

    try:
        fired = asyncio.run(run())
    finally:
        cluster.revive(sorted(by_server))
    case.hit = fired > 0 or any(not cluster.servers[sid].alive
                                for sid in by_server)
    case.errors.extend(_check_healed(cluster, client_id, history))
    case.ok = not case.errors
    return case


# -- phase entry point -------------------------------------------------------


@dataclass
class NetPhaseResult:
    """What the network phases did, for the sweep report."""

    points_enumerated: int = 0
    sites: dict[str, int] = field(default_factory=dict)
    cases: list[CrashCase] = field(default_factory=list)
    partition_cases_run: int = 0
    handoff_cases_run: int = 0
    fuzz_cases: list[CrashCase] = field(default_factory=list)


def run_net_phase(root: Path, *, quick: bool = False, sweep: bool = True,
                  fuzz: int = 0, seed: int = 0, say=lambda line: None,
                  point: FaultPlan | None = None,
                  plan: tuple[FaultPlan, ...] | None = None
                  ) -> NetPhaseResult:
    """Run the network sweep and/or fuzz phases on one shared cluster.

    Network faults never corrupt durable state, so one 3-daemon
    cluster serves every case; each case gets a fresh client id and a
    fresh proxy fleet (fuzz cases additionally restart the daemons
    they arm storage faults on).  ``point`` replays one frame fault and
    ``plan`` one multi-fault case instead.
    """
    result = NetPhaseResult()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with LoopbackCluster(str(root / "cluster"), num_servers=3) as cluster:
        if plan is not None:
            result.fuzz_cases.append(run_fuzz_case(cluster, "replay", plan))
            return result
        if point is not None:
            result.cases.append(run_net_case(
                cluster, "replay", point,
                partition_expected=point.action == "partition-after"))
            return result
        trace = enumerate_net_points(cluster)
        result.points_enumerated = len(trace)
        for p in trace:
            site = p.rsplit(":", 1)[0]
            result.sites[site] = result.sites.get(site, 0) + 1
        if sweep:
            selected = select_net_cases(trace, quick=quick)
            partitions = PARTITION_CASES[:1] if quick else PARTITION_CASES
            say(f"network phase: {len(trace)} frame points across "
                f"{len(result.sites)} sites, {len(selected)} fault "
                f"cases + {len(partitions)} partition-switch cases")
            for n, (p, action) in enumerate(selected):
                case = run_net_case(cluster, n,
                                    parse_plans(f"{p}:{action}")[0])
                result.cases.append(case)
                if not case.ok:
                    say(f"FAIL net {case.spec}: "
                        f"{'; '.join(case.errors)}")
            for n, spec in enumerate(partitions):
                case = run_net_case(cluster, f"p{n}", parse_plans(spec)[0],
                                    partition_expected=True)
                result.cases.append(case)
                result.partition_cases_run += 1
                if not case.ok:
                    say(f"FAIL net partition {case.spec}: "
                        f"{'; '.join(case.errors)}")
            say("handoff phase: fenced takeover with the old writer "
                "alive and half-partitioned")
            case = run_handoff_case(cluster, "x0")
            result.cases.append(case)
            result.handoff_cases_run += 1
            if not case.ok:
                say(f"FAIL handoff {case.point}: "
                    f"{'; '.join(case.errors)}")
        if fuzz:
            say(f"fuzz phase: {fuzz} composed multi-fault cases, "
                f"seed {seed}")
            for i in range(fuzz):
                rng = random.Random(seed * 1_000_003 + i)
                case = run_fuzz_case(cluster, i,
                                     draw_fuzz_plan(rng, result.sites))
                result.fuzz_cases.append(case)
                if not case.ok:
                    say(f"FAIL fuzz case {i} [{case.point}]: "
                        f"{'; '.join(case.errors)} — replay with: "
                        f"repro crashsweep --plan '{case.point}'")
    return result
