"""Injectable storage I/O backends, and the fault-plan grammar.

:class:`FileLogStore` routes every mutating filesystem call — open,
write, fsync, rename, directory fsync, unlink — through a backend
object with this interface.  The default :class:`PassthroughIO` is a
thin veneer over the ``os`` module; :class:`FaultInjector` is the
deterministic fault layer behind ``repro crashsweep``.

Every call names its **site** (``log.write.record``, ``log.fsync``,
``log.group-fsync`` — the fsync a server group commit shares across
parked ForceLogs — ``compact.rename``, ...).  The injector counts
invocations per site with a :class:`PointCounter`, so
``(site, index)`` identifies one exact I/O operation of a deterministic
workload — a *crash point*.  A :class:`FaultPlan` arms one point with
one action:

``enospc`` / ``eio``
    raise :class:`OSError` with that errno (the store's wedge path);
``bit-flip``
    flip one bit in the payload before writing it (the CRC path);
``short-write``
    write only a prefix of the payload, then crash (torn write);
``torn``
    write only a prefix of the payload and *keep running* — the lying
    disk.  On its own this is silent corruption (like ``bit-flip``);
    its purpose is **combined-fault plans**, where a later armed crash
    (e.g. power loss at the following ``compact.rename``) freezes the
    disk while the torn bytes are still uncommitted;
``power-loss``
    crash *before* the operation takes effect.

**One grammar for every injector family.**  The client protocol
injector (:mod:`repro.rt.clientfault`) and the network proxy
(:mod:`repro.rt.chaosproxy`) arm their points with the same
:class:`FaultPlan`, read by the one parser :func:`parse_plans`:
comma-separated ``[SERVER@]SITE:IDX:ACTION`` tokens, where the site
prefix names the family — ``net.<kind>.<dir>`` a frame fault,
``client.<site>`` a client protocol crash, anything else a storage
fault — and each family has its own action table (:data:`FAMILIES`).
A plan string may therefore arm *several* points at once, across
families, so a sweep case can model compound failures such as a torn
``compact.write`` followed by power loss at the next
``compact.rename``.  Malformed specs raise :class:`FaultSpecError`
naming the offending token.

A crash freezes the disk in the state an ALICE-style crash-consistency
model allows:

* every file is truncated back to its last fsync barrier (for
  ``short-write`` the flushed prefix of the torn write survives — both
  the all-lost and the torn shape are exercised by the sweep);
* directory operations (create, rename, unlink) that were not yet
  covered by a directory fsync are rolled back — a file's ``fsync``
  does **not** commit its own directory entry.

In-process (``mode="raise"``) the crash raises :class:`PowerLoss`
(a ``BaseException`` so ``except OSError`` recovery paths cannot
swallow it); in a daemon (``mode="exit"``) it prints
``REPRO-FAULT-CRASH <site>:<index>`` to stderr and ``os._exit``\\ s with
:data:`FAULT_EXIT_CODE` so the harness can tell an injected crash from
a genuine one.

Injected files are opened unbuffered so written == flushed and the
power-cut surgery is exact.
"""

from __future__ import annotations

import errno
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from ..net.codec import NAME_TYPES

#: Exit status of a daemon killed by an injected power loss.
FAULT_EXIT_CODE = 86

#: The banner a daemon prints to stderr before an injected exit.
CRASH_BANNER = "REPRO-FAULT-CRASH"

#: Storage actions (this module's :class:`FaultInjector`).
ACTIONS = ("enospc", "eio", "short-write", "torn", "bit-flip",
           "power-loss")

#: Actions of the *client-side* protocol injector
#: (:mod:`repro.rt.clientfault`): kill the client process with
#: :data:`FAULT_EXIT_CODE`, kill it with SIGKILL, or raise
#: :class:`ClientCrash` in-process (unit tests).
CLIENT_ACTIONS = ("exit", "sigkill", "raise")

#: Frame actions of the network proxy (:mod:`repro.rt.chaosproxy`).
NET_ACTIONS = ("drop", "corrupt-payload", "corrupt-header",
               "truncate-mid-frame", "delay", "duplicate",
               "partition-after", "kill-connection-after")

#: Frame directions a ``net.<kind>.<dir>`` site can name.
FRAME_DIRECTIONS = ("c2s", "s2c")

#: family → (its action table, the action a two-part ``--point``
#: replay ``SITE:IDX`` defaults to).
FAMILIES = {
    "storage": (ACTIONS, "power-loss"),
    "client": (CLIENT_ACTIONS, "exit"),
    "net": (NET_ACTIONS, "drop"),
}

_ERRNO_ACTIONS = {"enospc": errno.ENOSPC, "eio": errno.EIO}


class FaultSpecError(ValueError):
    """A malformed fault-plan spec, naming the token that is wrong.

    ``token`` is the exact substring that failed to parse (the whole
    spec when its shape is wrong), so a CLI error or a harness log
    pinpoints the mistake in a long multi-fault plan string.
    """

    def __init__(self, spec: str, token: str, reason: str):
        super().__init__(
            f"bad fault spec {spec!r}: token {token!r} {reason}"
        )
        self.spec = spec
        self.token = token
        self.reason = reason


class PowerLoss(BaseException):
    """The machine died at ``point`` (in-process simulation).

    Deliberately a ``BaseException``: the store's ``except OSError``
    wedge paths must not observe it, because after power loss there is
    no process left to wedge.
    """

    def __init__(self, point: str):
        super().__init__(point)
        self.point = point


def family_of(site: str) -> str:
    """``net.*`` and ``client.*`` sites name their family; any other
    site is a storage site."""
    head = site.split(".", 1)[0]
    return head if head in ("net", "client") else "storage"


@dataclass(frozen=True)
class FaultPlan:
    """Arm ``action`` at the ``index``-th invocation of ``site``.

    ``server`` routes the plan to one server — the daemon that arms a
    storage fault, or the proxy that arms a frame fault — and is empty
    when the harness's default target applies.  Client faults run in
    the client process and take no server.
    """

    site: str
    index: int
    action: str
    server: str = ""

    def __post_init__(self) -> None:
        spec = self.spec
        family = self.family
        if not self.site:
            raise FaultSpecError(spec, self.site, "is an empty site name")
        if self.index < 0:
            raise FaultSpecError(spec, str(self.index),
                                 "is a negative invocation index")
        actions = FAMILIES[family][0]
        if self.action not in actions:
            raise FaultSpecError(
                spec, self.action,
                f"is not a {family} fault action (one of "
                f"{', '.join(actions)})",
            )
        if family == "client" and self.server:
            raise FaultSpecError(
                spec, spec, "routes a client fault to a server (client "
                "faults run in the client process)")
        if family == "net":
            parts = self.site.split(".")
            if len(parts) != 3:
                raise FaultSpecError(
                    spec, self.site,
                    "is not a network fault site (net.<kind>.<dir>)")
            if parts[1] not in NAME_TYPES:
                raise FaultSpecError(
                    spec, parts[1],
                    "is not a wire message kind (see net.codec.NAME_TYPES)")
            if parts[2] not in FRAME_DIRECTIONS:
                raise FaultSpecError(
                    spec, parts[2],
                    f"is not a frame direction (one of "
                    f"{', '.join(FRAME_DIRECTIONS)})")

    @property
    def family(self) -> str:
        return family_of(self.site)

    @property
    def point(self) -> str:
        return f"{self.site}:{self.index}"

    @property
    def spec(self) -> str:
        prefix = f"{self.server}@" if self.server else ""
        return f"{prefix}{self.site}:{self.index}:{self.action}"


def _parse_token(token: str, defaults: bool) -> FaultPlan:
    server, sep, body = token.partition("@")
    if not sep:
        server, body = "", token
    elif not server:
        raise FaultSpecError(token, token,
                             "has an empty server id before '@'")
    parts = body.rsplit(":", 2)
    if len(parts) == 2 and defaults:
        parts.append(FAMILIES[family_of(parts[0])][1])
    if len(parts) != 3:
        raise FaultSpecError(token, token,
                             "does not have the shape SITE:IDX:ACTION")
    site, index, action = parts
    try:
        index_n = int(index)
    except ValueError:
        raise FaultSpecError(token, index,
                             "is not an integer invocation index") from None
    return FaultPlan(site=site, index=index_n, action=action, server=server)


def parse_plans(spec: str, *, family: str | None = None,
                defaults: bool = False) -> tuple[FaultPlan, ...]:
    """Parse a comma-separated ``[SERVER@]SITE:IDX:ACTION`` plan string.

    ``"compact.write:1:torn,compact.rename:0:power-loss"`` arms two
    points in one run; ``"net.writelog.c2s:1:drop,s2@log.fsync:2:eio,
    client.force.ack:0:raise"`` mixes all three families.  Whitespace
    around tokens is tolerated.  ``family`` restricts the plan to one
    injector family (a daemon's ``--fault-plan`` takes storage faults
    only); ``defaults`` lets a two-part ``SITE:IDX`` token take its
    family's default action (the ``--point`` replay shorthand).  An
    empty string, an empty token between commas, a point armed twice
    on one server, or any malformed token raises
    :class:`FaultSpecError` naming the bad token.
    """
    tokens = [token.strip() for token in spec.split(",")]
    if tokens == [""]:
        raise FaultSpecError(spec, spec, "is an empty fault plan")
    plans: list[FaultPlan] = []
    for token in tokens:
        if not token:
            raise FaultSpecError(spec, token,
                                 "is an empty token between commas")
        try:
            plan = _parse_token(token, defaults)
        except FaultSpecError as exc:
            raise FaultSpecError(spec, exc.token, exc.reason) from None
        if family is not None and plan.family != family:
            raise FaultSpecError(spec, token, f"is not a {family} fault")
        plans.append(plan)
    armed = [plan.spec.rsplit(":", 1)[0] for plan in plans]
    for key in armed:
        if armed.count(key) > 1:
            raise FaultSpecError(spec, key, "is armed twice in one plan")
    return tuple(plans)


class PointCounter:
    """Number each invocation of a site; look up the plan armed there.

    The storage, client and network injectors all count through one of
    these, so ``(site, index)`` means the same thing in every family.
    Every point reached is appended to :attr:`trace` (and to
    ``trace_path``, line-buffered so the trace survives a kill), which
    is how the sweeps enumerate a workload's crash points.
    """

    def __init__(self, plans=(), *, trace_path: str | Path | None = None):
        self.armed = {(plan.site, plan.index): plan for plan in plans}
        self.counts: dict[str, int] = {}
        self.trace: list[str] = []
        self._trace_file = None
        if trace_path is not None:
            self._trace_file = open(trace_path, "a", buffering=1)

    def hit(self, site: str) -> FaultPlan | None:
        """Count one invocation of ``site``; return its armed plan."""
        index = self.counts.get(site, 0)
        self.counts[site] = index + 1
        point = f"{site}:{index}"
        self.trace.append(point)
        if self._trace_file is not None:
            self._trace_file.write(point + "\n")
        return self.armed.get((site, index))

    def close(self) -> None:
        if self._trace_file is not None and not self._trace_file.closed:
            self._trace_file.close()


class PassthroughIO:
    """The default backend: real I/O, no bookkeeping, no faults."""

    #: mirrored by :class:`FaultInjector`; always 0 here.
    faults_injected = 0

    def open(self, path: str | Path, mode: str, site: str):
        return open(path, mode)

    def write(self, fh, data: bytes, site: str) -> None:
        fh.write(data)

    def fsync(self, fh, site: str) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def replace(self, src: str | Path, dst: str | Path, site: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str | Path, site: str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: str | Path, site: str) -> None:
        dir_fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


class TrackedFile:
    """An unbuffered file handle whose flushed/synced extents are known.

    ``written`` is the byte size the file would have if the process
    lived on; ``synced`` is the size guaranteed to survive power loss.
    Exposes the small slice of the file interface the stores use.
    """

    __slots__ = ("path", "_fh", "written", "synced")

    def __init__(self, path: str, fh, written: int, synced: int):
        self.path = path
        self._fh = fh
        self.written = written
        self.synced = synced

    def write(self, data: bytes) -> int:
        n = self._fh.write(data)
        self.written += n
        return n

    def flush(self) -> None:  # unbuffered; kept for interface parity
        pass

    def fileno(self) -> int:
        return self._fh.fileno()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class FaultInjector(PassthroughIO):
    """Deterministic fault-injecting backend.

    With no plans it is a *recording* passthrough: every site
    invocation is appended to :attr:`trace` (and ``trace_path`` if
    given), which is how the sweep enumerates crash points.  Each armed
    point misbehaves as described in the module docstring.
    """

    def __init__(self, plans: tuple[FaultPlan, ...] = (), *,
                 mode: str = "raise",
                 trace_path: str | Path | None = None):
        if mode not in ("raise", "exit"):
            raise ValueError(f"mode must be 'raise' or 'exit', not {mode!r}")
        self.mode = mode
        self.points = PointCounter(plans, trace_path=trace_path)
        self.trace = self.points.trace
        self.faults_injected = 0
        #: set to the crash point once a simulated power loss happened;
        #: any further I/O raises :class:`PowerLoss` again so stray
        #: finalizers cannot write to the "dead" disk.
        self.tripped: str | None = None
        self._files: list[TrackedFile] = []
        #: last fsync-covered size per path (source of truth for the
        #: power-cut truncation).
        self._synced: dict[str, int] = {}
        #: directory operations not yet covered by a directory fsync,
        #: in execution order, as (dirpath, op-tuple).
        self._pending_ops: list[tuple[str, tuple]] = []

    # -- bookkeeping ---------------------------------------------------

    def _hit(self, site: str) -> str | None:
        """Count one invocation; return the armed action, if any."""
        if self.tripped is not None:
            raise PowerLoss(self.tripped)
        plan = self.points.hit(site)
        return plan.action if plan is not None else None

    def _point(self) -> str:
        return self.trace[-1]

    def _fail(self, action: str) -> None:
        """Raise the armed errno action as a plain OSError."""
        self.faults_injected += 1
        raise OSError(_ERRNO_ACTIONS[action],
                      f"injected {action} at {self._point()}")

    def _act(self, action: str | None) -> None:
        """Apply a non-write-site action (crash actions crash *before*
        the operation; bit-flip/short-write/torn degrade to power-loss
        away from a payload)."""
        if action is None:
            return
        if action in _ERRNO_ACTIONS:
            self._fail(action)
        self._crash(keep_flushed=False)

    # -- the backend interface -----------------------------------------

    def open(self, path: str | Path, mode: str, site: str):
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        existed = os.path.exists(path)
        fh = open(path, mode, buffering=0)
        size = os.fstat(fh.fileno()).st_size
        if existed:
            # Bytes that predate this injector are durable unless we
            # already know better (e.g. the path was a rename target).
            synced = min(self._synced.get(path, size), size)
        else:
            synced = 0
            self._pending_ops.append(
                (os.path.dirname(path), ("create", path))
            )
        self._synced[path] = synced
        tracked = TrackedFile(path, fh, written=size, synced=synced)
        self._files.append(tracked)
        return tracked

    def write(self, fh: TrackedFile, data: bytes, site: str) -> None:
        action = self._hit(site)
        if action is None:
            fh.write(data)
            return
        if action in _ERRNO_ACTIONS:
            self._fail(action)
        if action == "bit-flip":
            self.faults_injected += 1
            mid = len(data) // 2
            flipped = data[:mid] + bytes([data[mid] ^ 0x10]) + data[mid + 1:]
            fh.write(flipped)
            return
        if action == "torn":
            self.faults_injected += 1
            fh.write(data[:max(1, len(data) // 2)])
            return
        if action == "short-write":
            self.faults_injected += 1
            fh.write(data[:max(1, len(data) // 2)])
            self._crash(keep_flushed=True)
        self._crash(keep_flushed=False)  # power-loss

    def fsync(self, fh: TrackedFile, site: str) -> None:
        action = self._hit(site)
        self._act(action)
        os.fsync(fh.fileno())
        fh.synced = fh.written
        self._synced[fh.path] = fh.synced

    def replace(self, src: str | Path, dst: str | Path, site: str) -> None:
        src, dst = os.fspath(src), os.fspath(dst)
        action = self._hit(site)
        self._act(action)
        pre = Path(dst).read_bytes() if os.path.exists(dst) else None
        pre_synced = self._synced.get(
            dst, len(pre) if pre is not None else 0
        )
        src_bytes = Path(src).read_bytes()
        src_synced = min(self._synced.get(src, len(src_bytes)),
                         len(src_bytes))
        os.replace(src, dst)
        self._synced[dst] = src_synced
        self._synced.pop(src, None)
        self._pending_ops.append((
            os.path.dirname(dst),
            ("replace", src, dst, pre, pre_synced, src_bytes, src_synced),
        ))

    def unlink(self, path: str | Path, site: str) -> None:
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        data = Path(path).read_bytes()
        synced = min(self._synced.get(path, len(data)), len(data))
        os.unlink(path)
        self._synced.pop(path, None)
        self._pending_ops.append(
            (os.path.dirname(path), ("unlink", path, data, synced))
        )

    def fsync_dir(self, path: str | Path, site: str) -> None:
        path = os.fspath(path)
        action = self._hit(site)
        self._act(action)
        super().fsync_dir(path, site)
        # The barrier commits every pending operation in this directory.
        self._pending_ops = [
            (d, op) for d, op in self._pending_ops if d != path
        ]

    # -- the crash -----------------------------------------------------

    def _crash(self, *, keep_flushed: bool) -> None:
        """Freeze the disk in a crash-legal state and die.

        ``keep_flushed=False`` is the power-loss shape: every file
        reverts to its last fsync barrier.  ``keep_flushed=True`` is
        the torn-write shape: flushed bytes (including the partial
        in-flight write) survive.  Pending directory operations are
        rolled back in both shapes — fsync of a file never commits its
        directory entry.
        """
        self.faults_injected += 1
        point = self._point()
        self.tripped = point
        if not keep_flushed:
            for path, synced in list(self._synced.items()):
                if os.path.exists(path):
                    os.truncate(path, min(synced, os.path.getsize(path)))
        for _, op in reversed(self._pending_ops):
            self._rollback(op, keep_flushed=keep_flushed)
        self._pending_ops = []
        self.close_all()
        if self.mode == "exit":
            print(f"{CRASH_BANNER} {point}", file=sys.stderr, flush=True)
            os._exit(FAULT_EXIT_CODE)
        raise PowerLoss(point)

    @staticmethod
    def _rollback(op: tuple, *, keep_flushed: bool) -> None:
        kind = op[0]
        if kind == "create":
            _, path = op
            if os.path.exists(path):
                os.unlink(path)
        elif kind == "unlink":
            _, path, data, synced = op
            Path(path).write_bytes(data if keep_flushed else data[:synced])
        else:  # replace
            _, src, dst, pre, pre_synced, src_bytes, src_synced = op
            if pre is None:
                if os.path.exists(dst):
                    os.unlink(dst)
            else:
                Path(dst).write_bytes(
                    pre if keep_flushed else pre[:pre_synced]
                )
            Path(src).write_bytes(
                src_bytes if keep_flushed else src_bytes[:src_synced]
            )

    # -- lifecycle -----------------------------------------------------

    def close_all(self) -> None:
        """Close every tracked handle (harness cleanup after a crash)."""
        for tracked in self._files:
            try:
                tracked.close()
            except OSError:
                pass
        self.points.close()
