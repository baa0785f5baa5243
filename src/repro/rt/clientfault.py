"""Protocol-level crash points for the replicated-log *client*.

:mod:`repro.rt.faultfs` kills a server at an exact storage I/O; this
module does the same to :class:`~repro.rt.client.AsyncReplicatedLog`
at an exact **protocol step**.  The client code, with the restart
steps it shares in :mod:`repro.core.recovery`, is instrumented with
:func:`hit` calls naming a site — after a WriteLog batch is streamed,
before/after ForceLog acknowledgments (including after a *partial*
ack), mid write-set switch, and between each step of the Section 5.4
restart procedure (interval-list merge, epoch bump, CopyLog, guard
staging, InstallCopies).  The ``(site, index)`` pair of the
``index``-th invocation of a site is a deterministic crash point, so
``repro crashsweep --client`` can kill a real client OS process at
every point a scripted workload reaches and check that a second
process restarting per Section 5.4 sees exactly the acked records.

With no injector installed (the default), :func:`hit` is a dictionary
miss and a ``None`` check — the production write path stays clean.
A worker process installs one from the environment
(:func:`install_from_env`, variables ``REPRO_CLIENT_FAULT_PLAN`` and
``REPRO_CLIENT_FAULT_TRACE``); plans reuse the
``SITE:IDX:ACTION`` grammar of :func:`repro.rt.faultfs.parse_fault_plans`
with the client action vocabulary:

``exit``
    print ``REPRO-FAULT-CRASH <site>:<index>`` to stderr and
    ``os._exit`` with :data:`~repro.rt.faultfs.FAULT_EXIT_CODE` — the
    daemon-style injected death the harness recognizes;
``sigkill``
    ``SIGKILL`` our own process — no banner, no atexit, the hardest
    kill the OS offers;
``raise``
    raise :class:`ClientCrash` in-process (unit tests).  Like
    :class:`~repro.rt.faultfs.PowerLoss` it is a ``BaseException`` so
    the client's ``except OSError``/``ServerUnavailable`` routing can
    never swallow an injected death.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

from .faultfs import (
    CLIENT_ACTIONS,
    CRASH_BANNER,
    FAULT_EXIT_CODE,
    FaultPlan,
    parse_fault_plans,
)

#: Environment variables the worker-process entry points read.
PLAN_ENV = "REPRO_CLIENT_FAULT_PLAN"
TRACE_ENV = "REPRO_CLIENT_FAULT_TRACE"


class ClientCrash(BaseException):
    """The client process died at ``point`` (in-process simulation)."""

    def __init__(self, point: str):
        super().__init__(point)
        self.point = point


class ClientFaultInjector:
    """Count protocol-site invocations; kill the armed one.

    With no plans this is a pure recorder: every point reached is
    appended to :attr:`trace` (and ``trace_path``, line-buffered, so
    the trace survives the kill), which is how the sweep enumerates a
    workload's client crash points.
    """

    def __init__(self, plans: tuple[FaultPlan, ...] = (), *,
                 trace_path: str | Path | None = None):
        self.plans = tuple(plans)
        self.counts: dict[str, int] = {}
        self.trace: list[str] = []
        self.crashes = 0
        self._trace_file = None
        if trace_path is not None:
            self._trace_file = open(trace_path, "a", buffering=1)

    def hit(self, site: str) -> None:
        """Record one invocation of ``site``; crash if it is armed."""
        index = self.counts.get(site, 0)
        self.counts[site] = index + 1
        point = f"{site}:{index}"
        self.trace.append(point)
        if self._trace_file is not None:
            self._trace_file.write(point + "\n")
        for plan in self.plans:
            if plan.site == site and plan.index == index:
                self._crash(point, plan.action)

    def _crash(self, point: str, action: str) -> None:
        self.crashes += 1
        if action == "exit":
            print(f"{CRASH_BANNER} {point}", file=sys.stderr, flush=True)
            os._exit(FAULT_EXIT_CODE)
        if action == "sigkill":
            sys.stderr.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        raise ClientCrash(point)

    def close(self) -> None:
        if self._trace_file is not None and not self._trace_file.closed:
            self._trace_file.close()


#: The process-wide injector ``hit`` consults; ``None`` = production.
_injector: ClientFaultInjector | None = None


def install(injector: ClientFaultInjector | None) -> None:
    """Install (or with ``None`` remove) the process-wide injector."""
    global _injector
    _injector = injector


def installed() -> ClientFaultInjector | None:
    return _injector


def install_from_env() -> ClientFaultInjector | None:
    """Install an injector if the fault environment variables are set.

    Returns the injector (so a worker can close its trace file), or
    ``None`` when neither variable is present.  The plan string uses
    the client action vocabulary; malformed plans raise
    :class:`~repro.rt.faultfs.FaultSpecError` before any workload runs.
    """
    plan_s = os.environ.get(PLAN_ENV)
    trace = os.environ.get(TRACE_ENV)
    if not plan_s and not trace:
        return None
    plans = parse_fault_plans(plan_s, actions=CLIENT_ACTIONS) \
        if plan_s else ()
    injector = ClientFaultInjector(plans, trace_path=trace)
    install(injector)
    return injector


def hit(site: str) -> None:
    """The instrumentation hook :mod:`repro.rt.client` and
    :mod:`repro.core.recovery` call."""
    if _injector is not None:
        _injector.hit(site)
