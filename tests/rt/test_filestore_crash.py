"""Crash the store process mid-append; assert recovery of the fsync'd prefix.

A child process appends records one at a time, fsync'ing each, and
prints the LSN only after the fsync returns.  The parent SIGKILLs it
mid-stream — no atexit, no flush, no goodbye — then reopens the data
directory and checks:

* every acknowledged record (LSN printed after its fsync) is recovered
  with its exact bytes, kind, and present flag;
* the recovered set is a contiguous LSN prefix — recovery never
  surfaces a record whose predecessor was lost;
* at most one record beyond the acknowledged set appears (the append
  that was in flight when the process died, if its write happened to
  reach the disk in full).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = textwrap.dedent("""
    import sys
    from repro.core.records import StoredRecord
    from repro.rt.filestore import FileLogStore

    data_dir = sys.argv[1]
    store = FileLogStore(data_dir, "s1")
    for lsn in range(1, 10_000):
        present = lsn % 5 != 0          # every 5th record is a guard
        record = StoredRecord(
            lsn=lsn, epoch=1, present=present,
            data=(b"payload-%d-" % lsn) * 8 if present else b"",
            kind="update" if present else "guard",
        )
        store.append_records("c", (record,), fsync=True)
        print(lsn, flush=True)          # acknowledged: fsync returned
""")


def expected_record(lsn: int) -> tuple[bool, bytes, str]:
    present = lsn % 5 != 0
    data = (b"payload-%d-" % lsn) * 8 if present else b""
    return present, data, "update" if present else "guard"


def test_sigkill_mid_append_recovers_fsynced_prefix(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        stdout=subprocess.PIPE, env=env,
    )
    acked = 0
    try:
        # Let a decent stream build up, then kill without warning.
        while acked < 120:
            line = child.stdout.readline()
            assert line, "child exited before killing point"
            acked = int(line)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()

    from repro.rt.filestore import FileLogStore

    store = FileLogStore(tmp_path, "s1")
    recovered = store.stored_lsns("c")

    # Contiguous prefix, covering at least everything acknowledged and
    # at most the single in-flight append beyond it.
    assert recovered == list(range(1, len(recovered) + 1))
    assert len(recovered) >= acked
    assert len(recovered) <= acked + 1

    for lsn in recovered:
        present, data, kind = expected_record(lsn)
        rec = store.read_record("c", lsn)
        assert rec.present is present
        assert rec.data == data
        assert rec.kind == kind

    # The recovered store keeps working: the next append continues the
    # interval, and the whole log reads back through the reopened state.
    from repro.core.records import StoredRecord

    next_lsn = len(recovered) + 1
    store.append_records(
        "c", (StoredRecord(lsn=next_lsn, epoch=1, data=b"after-crash"),),
        fsync=True,
    )
    assert [(iv.epoch, iv.lo, iv.hi) for iv in store.interval_list("c")] \
        == [(1, 1, next_lsn)]
    store.close()
