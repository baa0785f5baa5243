"""Client-phase crash sweep: pinned regressions and harness units.

The bug pinned here was found by inspection while instrumenting the
client for the sweep and is reachable at crash point
``client.force.ack:0`` (killed after a *partial* force ack): reply
matching in :class:`~repro.rt.client.ServerConnection` is positional,
so a future registered before a send that then *fails* — or left over
from a torn-down connection — becomes a stale entry that swallows the
first reply after a reconnect, shifting every later reply by one.  The
fix is twofold: futures join ``_pending``/``_force_waiters`` only
after the send is accepted, and ``connect()`` fails any leftover
routing state before the fresh stream starts.

The end-to-end smoke (one real kill/restart case through
:func:`run_crashsweep`) runs the whole tentpole machinery: a worker
process killed at the partial-ack point, §5.4 recovery from a second
OS process, and the journal invariants.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ServerUnavailable
from repro.harness.crashsweep import SweepConfig, run_crashsweep
from repro.harness.history import History, check
from repro.net.messages import IntervalListCall, ForceLogMsg
from repro.rt.client import ServerConnection


# -- the waiter-leak regression (crash point client.force.ack:0) ------


def test_failed_call_send_leaves_no_stale_pending_future():
    """A call whose send fails must not register a reply waiter.

    Pre-fix, ``call()`` appended its future to ``_pending`` *before*
    sending; a dead connection then raised out of ``send()`` with the
    future still enqueued, where it would positionally swallow the
    first reply after a reconnect.
    """

    async def main():
        conn = ServerConnection("s1", "127.0.0.1", 1, timeout=0.5,
                                client_id="c1")
        with pytest.raises(ServerUnavailable):
            await conn.call(IntervalListCall("c1"))
        assert conn._pending == []

    asyncio.run(main())


def test_failed_force_send_leaves_no_stale_waiter():
    """Same leak on the force path: a failed ForceLog send must not
    leave a ``(high_lsn, future)`` entry that a later connection's ack
    would resolve as if this force had been made durable."""

    async def main():
        conn = ServerConnection("s1", "127.0.0.1", 1, timeout=0.5,
                                client_id="c1")
        msg = ForceLogMsg.trusted("c1", 1, ())
        with pytest.raises(ServerUnavailable):
            await conn.force(msg)
        assert conn._force_waiters == []

    asyncio.run(main())


def test_connect_fails_stale_routing_state():
    """A fresh connection must never inherit reply-routing futures.

    Any future still in the routing lists when a new stream comes up
    (however it got there) belongs to a connection that can no longer
    answer it; ``connect()`` must fail it immediately rather than let
    the new stream's first reply resolve it out of position.
    """

    async def main():
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            conn = ServerConnection("s1", "127.0.0.1", port,
                                    timeout=1.0, client_id="c1")
            loop = asyncio.get_running_loop()
            stale_call = loop.create_future()
            stale_force = loop.create_future()
            conn._pending.append(stale_call)
            conn._force_waiters.append((7, stale_force))
            await conn.connect()
            assert conn._pending == [] and conn._force_waiters == []
            assert isinstance(stale_call.exception(), ServerUnavailable)
            assert isinstance(stale_force.exception(), ServerUnavailable)
            await conn.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())


# -- journal parsing and invariant checking ---------------------------


def _journal(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return History.load(path)


def test_parse_worker_journal(tmp_path):
    j = _journal(tmp_path, "run.journal", [
        "EPOCH 3",
        f"ATTEMPT 1 {b'aa'.hex()}",
        "LSN 1 5",
        "ACK 5",
        "TRUNCREQ 4",
        "TRUNC 4",
        f"FINAL 5 1 {b'aa'.hex()}",
        "FINAL 6 0",
        "FINAL 7 -",
        f"POST 8 {b'bb'.hex()}",
        "POSTACK 8",
        "RECOVERED 4 8",
        "FENCED",
        "DONE",
    ])
    assert j.epochs == [3]
    assert j.attempts == {1: b"aa"}
    assert j.lsn_of == {1: 5}
    assert j.acked_high == 5
    assert j.trunc_req == 4 and j.trunc_mark == 4
    assert j.finals == {5: ("1", b"aa"), 6: ("0", None), 7: ("-", None)}
    assert j.posts == {8: b"bb"}
    assert j.post_acked == 8
    assert (j.rec_epoch, j.rec_high) == (4, 8)
    assert j.fenced and j.done
    # What the recorder writes through its sink, the loader reads back.
    lines: list[str] = []
    echo = History(sink=lines.append)
    echo.epoch(3)
    echo.lsn(echo.attempt(b"aa"), 5)
    echo.ack(5)
    echo.final(6, "0")
    echo.final(5, "1", b"aa")
    again = _journal(tmp_path, "echo.journal", lines)
    assert (again.epochs, again.attempts, again.lsn_of, again.acked_high,
            again.finals) == (echo.epochs, echo.attempts, echo.lsn_of,
                              echo.acked_high, echo.finals)


def test_parse_worker_journal_missing_file(tmp_path):
    j = History.load(tmp_path / "never-written.journal")
    assert not j.done and j.epochs == [] and j.finals == {}


def _run_journal(trunc_req: int = 0) -> History:
    run = History()
    run.epoch(1)
    for data, lsn in ((b"r1", 5), (b"r2", 6)):
        run.lsn(run.attempt(data), lsn)
    run.ack(6)
    if trunc_req:
        run.truncreq(trunc_req)
    run.finish()
    return run


def _recovered(epoch, finals) -> History:
    """A read-back that restarted at ``epoch``, saw ``finals``, then
    committed and read back the post-recovery write ``7: b"p"``."""
    rb = History()
    rb.recovered(epoch, max(finals, default=0))
    for lsn, (state, data) in finals.items():
        rb.final(lsn, state, data)
    rb.post(7, b"p")
    rb.postack(7)
    rb.final(7, "1", b"p")
    rb.finish()
    return rb


def test_client_verify_accepts_clean_recovery():
    run = _run_journal()
    base = {5: ("1", b"r1"), 6: ("1", b"r2"), 7: ("1", b"p")}
    rec1 = _recovered(2, {5: ("1", b"r1"), 6: ("1", b"r2")})
    rec2 = _recovered(3, base)
    assert check(run, rec1, rec2) == []


def test_client_verify_flags_lost_ack_and_fabrication():
    run = _run_journal()
    rec1 = _recovered(2, {5: ("1", b"r1"), 6: ("-", None)})
    rec2 = _recovered(3, {5: ("1", b"r1"), 6: ("-", None),
                          7: ("1", b"p"), 9: ("1", b"forged")})
    errors = check(run, rec1, rec2)
    assert any("acked lsn 6 lost" in e for e in errors)
    assert any("fabricated lsn 9" in e for e in errors)


def test_client_verify_flags_non_monotone_epoch_and_divergence():
    run = _run_journal()
    rec1 = _recovered(1, {5: ("1", b"r1"), 6: ("1", b"r2")})
    rec2 = _recovered(1, {5: ("1", b"r1"), 6: ("0", None),
                          7: ("1", b"p")})
    errors = check(run, rec1, rec2)
    assert any("epoch not monotone" in e for e in errors)
    assert any("not idempotent at lsn 6" in e for e in errors)


def test_client_verify_requested_truncation_may_or_may_not_apply():
    """A kill between TRUNCREQ and TRUNC makes both outcomes legal:
    the record may be reclaimed ("-") or survive with its exact
    payload — but never survive with a different one."""
    run = _run_journal(trunc_req=6)
    gone = _recovered(2, {5: ("-", None), 6: ("1", b"r2")})
    gone2 = _recovered(3, {5: ("-", None), 6: ("1", b"r2"),
                           7: ("1", b"p")})
    assert check(run, gone, gone2) == []
    forged = _recovered(2, {5: ("1", b"not-r1"), 6: ("1", b"r2")})
    forged2 = _recovered(3, {5: ("1", b"not-r1"), 6: ("1", b"r2"),
                             7: ("1", b"p")})
    errors = check(run, forged, forged2)
    assert any("does not match" in e for e in errors)


# -- the end-to-end smoke ---------------------------------------------


def test_client_case_partial_ack_kill_and_recovery(tmp_path):
    """One real case at the pinned point: the worker process is killed
    right after the first partial force ack (``client.force.ack:0``),
    and two successive §5.4 restarts from fresh OS processes must see
    a consistent, fabrication-free log."""
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="client.force.ack:0:exit",
    ))
    assert len(report.client_cases) == 1
    case = report.client_cases[0]
    assert case.spec == "client.force.ack:0:exit"
    assert case.hit, "the workload never reached the armed point"
    assert case.ok, case.errors
