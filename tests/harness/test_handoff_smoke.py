"""Two-OS-process ownership handoff against real ``repro serve`` daemons.

The CI smoke for the linearizable handoff: process A (clientworker
``--mode run``) streams transactions against a live fleet; mid-run,
process B (``--mode takeover``) seizes the stream — generator epoch
bump, durable fence on ≥ M−N+1 servers, Section 5.4 recovery.  The
check is the whole point of fencing:

* A observes the *terminal* refusal (journals ``FENCED``, exits with
  status 3) instead of retrying forever or, worse, committing;
* B's recovered log contains, byte-identical, every record A had
  acknowledged before the fence landed;
* the stream stays live for B (post-takeover writes are acked).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.clientworker import EXIT_FENCED
from repro.harness.history import History, check
from repro.rt.cluster import LoopbackCluster

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(addresses, journal: Path, mode: str, txns: int):
    servers = ",".join(f"{sid}={host}:{port}"
                       for sid, (host, port) in sorted(addresses.items()))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        [sys.executable, "-m", "repro.harness.clientworker",
         "--servers", servers, "--journal", str(journal),
         "--mode", mode, "--m", "3", "--n", "2", "--delta", "4",
         "--txns", str(txns), "--records-per-txn", "5"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for_ack(journal: Path, timeout: float = 30.0) -> None:
    """Block until the writer has at least one acknowledged txn."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if History.load(journal).acked_high:
            return
        time.sleep(0.05)
    raise AssertionError("writer never acknowledged a transaction")


def test_second_process_takes_over_live_writer(tmp_path):
    a_journal = tmp_path / "writer.journal"
    b_journal = tmp_path / "taker.journal"
    with LoopbackCluster(tmp_path / "data", num_servers=3) as cluster:
        # Enough transactions that A is still mid-run when B lands;
        # the fence ends A long before it gets through them.
        writer = _spawn(cluster.addresses(), a_journal, "run", txns=400)
        taker = None
        try:
            _wait_for_ack(a_journal)
            taker = _spawn(cluster.addresses(), b_journal, "takeover",
                           txns=1)
            assert taker.wait(timeout=60.0) == 0
            assert writer.wait(timeout=60.0) == EXIT_FENCED
        finally:
            for proc in (writer, taker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait()

    writer_history = History.load(a_journal)
    taker_history = History.load(b_journal)

    # A stopped at the fence: refused terminally, never finished.
    assert writer_history.fenced
    assert not writer_history.done

    # The one history checker: B's takeover drew a strictly higher
    # epoch than A ever held, everything A acknowledged survives the
    # handoff byte-identical, nothing is fabricated, and the stream is
    # live for the new owner (its post-takeover write acked and read
    # back).
    assert check(writer_history, taker_history) == []
    assert len(writer_history.acked()) >= 5
    assert taker_history.post_acked > 0
