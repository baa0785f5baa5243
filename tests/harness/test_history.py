"""The one history checker (:mod:`repro.harness.history`).

Every sweep phase journals a :class:`History` and checks it with
:func:`check`.  These cases build each phase's history shape in memory
— the daemon workload, the killed client worker with two read-backs,
the network workload, and the fenced handoff — and pin that the checker
accepts a clean restart and flags the same damage in every shape.
"""

from __future__ import annotations

import pytest

from repro.harness.history import History, check


def _generation(history: History, epoch: int, first_lsn: int,
                payloads: list[bytes]) -> None:
    """One client generation: write ``payloads`` and force them."""
    history.epoch(epoch)
    for i, data in enumerate(payloads):
        history.lsn(history.attempt(data), first_lsn + i)
    history.ack(first_lsn + len(payloads) - 1)


def _readback(history: History, epoch: int, *earlier: History) -> History:
    """A clean restart at ``epoch``: every assigned record at or above
    the truncation floor (and every earlier post) present, guards
    between generations, then an acked, read-back post transaction."""
    floor = max(history.trunc_mark, history.trunc_req)
    present = {lsn: history.attempts[seq]
               for seq, lsn in history.lsn_of.items() if lsn >= floor}
    for rb in earlier:
        present.update(rb.posts)
    high = max(present)
    rb = History()
    rb.recovered(epoch, high)
    for lsn in range(1, high + 1):
        if lsn < floor:
            rb.final(lsn, "-")
        elif lsn in present:
            rb.final(lsn, "1", present[lsn])
        else:
            rb.final(lsn, "0")
    for i in range(2):
        rb.post(high + 1 + i, f"post.{epoch}.{i}".encode())
    rb.postack(high + 2)
    for lsn, data in list(rb.posts.items()):
        rb.final(lsn, "1", data)
    rb.finish()
    return rb


def _records(tag: str, n: int) -> list[bytes]:
    return [f"{tag}.{i}".encode() for i in range(n)]


def _daemon() -> tuple[History, list[History]]:
    # Two generations against one daemon; the second truncates below 6.
    h = History()
    _generation(h, 1, 1, _records("d", 9))
    _generation(h, 2, 14, _records("e", 9))
    h.truncreq(6)
    h.trunc(6)
    return h, [_readback(h, 3)]


def _client() -> tuple[History, list[History]]:
    # The killed worker's run, then two restarts from fresh processes.
    h = History()
    _generation(h, 1, 1, _records("sweep", 20))
    h.truncreq(13)
    h.trunc(13)
    _generation(h, 2, 25, _records("taker", 5))
    rb1 = _readback(h, 3)
    return h, [rb1, _readback(h, 4, rb1)]


def _net() -> tuple[History, list[History]]:
    # Three forced txns with a truncation, then a takeover txn.
    h = History()
    _generation(h, 1, 1, _records("n", 12))
    h.truncreq(5)
    h.trunc(5)
    _generation(h, 2, 21, _records("n.t", 4))
    return h, [_readback(h, 3)]


def _handoff() -> tuple[History, list[History]]:
    # The old owner's acked records, then the new owner's; the fenced
    # old writer's stale writes are not part of the history.
    h = History()
    _generation(h, 1, 1, _records("pre", 8))
    _generation(h, 2, 17, _records("post", 4))
    return h, [_readback(h, 3)]


SHAPES = {"daemon": _daemon, "client": _client, "net": _net,
          "handoff": _handoff}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_clean_restart_passes(shape):
    history, readbacks = SHAPES[shape]()
    assert check(history, *readbacks) == []


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_flags_a_dropped_acked_record(shape):
    history, readbacks = SHAPES[shape]()
    lsn = max(history.acked())
    readbacks[0].final(lsn, "-")
    assert any(f"acked lsn {lsn} lost" in e
               for e in check(history, *readbacks))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_flags_a_forged_payload(shape):
    history, readbacks = SHAPES[shape]()
    lsn = min(history.acked())
    readbacks[-1].final(lsn, "1", b"forged")
    assert any(f"acked lsn {lsn} has the wrong payload" in e
               for e in check(history, *readbacks))


def test_daemon_flags_a_fabricated_record():
    history, (rb,) = _daemon()
    guard = next(lsn for lsn, (state, _) in rb.finals.items()
                 if state == "0")
    rb.final(guard, "1", b"never written")
    assert any(f"fabricated lsn {guard}" in e for e in check(history, rb))


def test_daemon_flags_a_non_monotone_epoch():
    history, (rb,) = _daemon()
    rb.recovered(2, rb.rec_high)  # restarted at the last run's epoch
    assert any("epoch not monotone" in e for e in check(history, rb))
    history.epoch(1)              # a generation that went backwards
    assert any("generation drew 1 after 2" in e
               for e in check(history))


def test_daemon_flags_a_lost_post_recovery_write():
    history, (rb,) = _daemon()
    lsn = max(rb.posts)
    rb.final(lsn, "-")
    assert any(f"post-recovery write at lsn {lsn} not readable" in e
               for e in check(history, rb))
    # A later restart must still see an acked post-recovery write.
    first = _readback(history, 3)
    later = _readback(history, 4, first)
    later.final(lsn, "-")
    assert any(f"acked lsn {lsn} lost at read-back 2" in e
               for e in check(history, first, later))


def test_handoff_flags_a_stale_record_past_the_fence():
    history, (rb,) = _handoff()
    rb.final(9, "1", b"stale.h.0")  # the deaf old writer's next LSN
    assert any("fabricated lsn 9" in e for e in check(history, rb))


def test_unfinished_read_back_is_a_failed_restart():
    history, _ = _net()
    failed = History()
    failed.error = "NotEnoughServers()"
    assert check(history, failed) == [
        "read-back 1 did not finish: NotEnoughServers()"]
