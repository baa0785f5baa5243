"""Durable file-backed log-server storage.

One :class:`FileLogStore` is the durable state of one real log-server
daemon: a single fsync'd append stream of log entries (``log.dat``),
crash-recoverable by scan.  It is the daemon's only durable file.

The in-memory view replays through the existing
:class:`~repro.core.store.LogServerStore`, so the Section 3.1.1
semantics (write-order rules, duplicate tolerance, staged CopyLog /
atomic InstallCopies, interval lists) are implemented exactly once; the
file layer adds only durability.  Every read is served from that
replayed state; the stream is read only by recovery.

Section 5.3 log space management: :meth:`FileLogStore.truncate_below`
records a per-client truncation point, drops the reclaimed prefix from
the in-memory store, and compacts ``log.dat`` by rewriting it from the
live state (tmp file + atomic rename + directory fsync) — a restart
then replays only the retained suffix.  A size watermark
(``compact_watermark_bytes``) triggers the same compaction
automatically so a client that never truncates still gets a bounded
log.  An IO error (disk full) wedges the store read-only: appends
raise :class:`~repro.core.errors.StorageError`, reads keep working.

Append stream
-------------

``log.dat`` is a sequence of entries, each::

    !HB16s — magic, entry type, client id     (19 bytes)

followed by a type-specific payload:

* ``RECORD`` / ``STAGED``: one record in the wire image of
  :func:`repro.net.codec.encode_stored_record` (16-byte header with a
  CRC-32 of the data, then the data) — the on-disk and on-wire record
  bytes are identical;
* ``INSTALL``: ``!II`` — epoch, CRC-32 of the epoch field;
* ``FENCE``: ``!II`` — the client stream's fence epoch, CRC-32 of the
  epoch field (ownership handoff: writes below the fence are refused,
  and the refusal must survive a crash);
* ``GENERATOR``: ``!QI`` — value, CRC-32 of the value field (the
  Appendix I generator-state representative riding on the log server
  node).

Recovery scans the stream from the start, replaying every entry whose
bytes are complete and whose CRC verifies; the first torn or corrupt
entry ends the valid prefix and the file is truncated there.  A record
is therefore durable exactly when the ``fsync`` that covered it
returned — the contract the crash tests assert.

The Section 4.3 append-forest is not kept here: nothing on the daemon
reads records from disk outside recovery, so an on-disk index would
have no reader.  The paper's index is reproduced where the simulated
server reads through it (:mod:`repro.server.index`).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Sequence
from pathlib import Path

from ..core.errors import ProtocolError, StorageError
from ..core.intervals import ServerIntervals
from ..core.records import Epoch, LSN, StoredRecord
from ..core.store import LogServerStore
from ..net.codec import (
    RECORD_HEADER_BYTES,
    WireCodecError,
    decode_stored_record,
    encode_stored_record,
)
from .faultfs import PassthroughIO

ENTRY_MAGIC = 0x4C45
_ENTRY = struct.Struct("!HB16s")
_INSTALL = struct.Struct("!II")
_GENERATOR = struct.Struct("!QI")
_TRUNCATE = struct.Struct("!II")
_FENCE = struct.Struct("!II")

E_RECORD = 1
E_STAGED = 2
E_INSTALL = 3
E_GENERATOR = 4
#: Section 5.3 low-water mark: every record of the entry's client with
#: a lower LSN has been reclaimed.  Compaction writes one at the head
#: of the rewritten stream so a replay after restart re-arms the
#: late-retransmission guard.
E_TRUNCATE = 5
#: Legacy stream metadata (``!QI`` value + CRC, like ``E_GENERATOR``).
#: Compactions by older versions began the rewritten stream with one,
#: tying since-removed per-client index files to the stream.  Nothing
#: writes it any more; replay parses it and ignores it, so such a log
#: still reopens whole instead of being truncated at offset 0.
E_META = 6
#: Ownership fence: the entry's client stream refuses any
#: WriteLog/ForceLog/TruncateLog below the stored epoch (``!II`` epoch
#: + CRC, like ``E_INSTALL``).  Durable so a server that crashes and
#: recovers still fences the superseded writer — the linearizable
#: handoff's safety rests on the fence never being forgotten.
E_FENCE = 7

#: injector site name per entry type (``faultfs`` crash-point naming).
_ETYPE_SITES = {
    E_RECORD: "log.write.record",
    E_STAGED: "log.write.staged",
    E_INSTALL: "log.write.install",
    E_GENERATOR: "log.write.generator",
    E_TRUNCATE: "log.write.truncate",
    E_FENCE: "log.write.fence",
}


class FileStoreError(Exception):
    """A malformed durable file that is not a recoverable torn tail."""


class FileLogStore:
    """Durable state of one real log-server node.

    All mutating operations append to ``log.dat`` first and then update
    the replayed in-memory :class:`LogServerStore`; acknowledgments are
    sent only after the append (and, for forces and installs, its
    ``fsync``) returns.  Reopening the same ``data_dir`` recovers the
    durable prefix by scan.
    """

    def __init__(self, data_dir: str | Path, server_id: str, *,
                 compact_watermark_bytes: int | None = None,
                 io: PassthroughIO | None = None):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: the storage I/O backend every mutating call goes through
        #: (:class:`~repro.rt.faultfs.PassthroughIO` by default, a
        #: :class:`~repro.rt.faultfs.FaultInjector` under crashsweep).
        self.io = io if io is not None else PassthroughIO()
        self.server_id = server_id
        self.mem = LogServerStore(server_id)
        self.generator_value = 0
        #: client id → standing fence epoch (ownership handoff);
        #: populated by replay, advanced only monotonically.
        self.fence_epochs: dict[str, int] = {}
        #: WriteLog/ForceLog/TruncateLog calls refused below a fence.
        self.fence_rejections = 0
        #: size watermark fallback (Section 5.3): when ``log.dat``
        #: exceeds this many bytes, the stream is compacted against the
        #: clients' declared low-water marks without waiting for the
        #: next TruncateLog.  ``None`` disables the fallback.
        self.compact_watermark_bytes = compact_watermark_bytes
        self._log_path = self.data_dir / "log.dat"
        self.recovered_entries = 0
        self.truncated_bytes = 0
        # Counters for the Stats wire message.
        self.bytes_appended = 0
        #: log-file fsyncs issued (per-entry syncs and group syncs both).
        self.fsyncs = 0
        #: records presented for append (duplicates included — the
        #: covering fsync promises durability for them all the same).
        self.records_appended = 0
        self.truncations = 0
        self.compactions = 0
        self.reclaimed_bytes = 0
        self.storage_errors = 0
        #: complete-but-corrupt entries rejected by CRC during recovery
        #: (torn tails are not corruption and are counted separately).
        self.crc_rejections = 0
        #: first storage failure observed; non-None wedges all appends
        #: (the daemon degrades to read-only rather than lying about
        #: durability).
        self.io_error: str | None = None
        self._last_compact_size = 0
        self._size = self._recover()
        existed = self._log_path.exists()
        self._file = self.io.open(self._log_path, "ab", "log.open")
        if not existed:
            # A freshly created log.dat is not durable until its
            # directory entry is: without this barrier, power loss
            # after the first acked fsync could drop the whole file.
            self.io.fsync_dir(self.data_dir, "dir.create-sync")

    # -- recovery -----------------------------------------------------

    def _recover(self) -> int:
        """Replay the valid prefix of ``log.dat``; return its length."""
        raw = self._log_path.read_bytes() if self._log_path.exists() else b""
        offset = 0
        valid = 0
        while offset < len(raw):
            parsed = self._parse_entry(raw, offset)
            if parsed is None:
                break
            etype, client_id, payload, next_offset = parsed
            try:
                if etype == E_RECORD:
                    self.mem.server_write_record(client_id, payload)
                elif etype == E_STAGED:
                    self.mem.copy_log(client_id, payload.lsn, payload.epoch,
                                      payload.present, payload.data,
                                      payload.kind)
                elif etype == E_INSTALL:
                    self.mem.install_copies(client_id, payload)
                elif etype == E_TRUNCATE:
                    self.mem.truncate_below(client_id, payload)
                elif etype == E_META:
                    pass  # legacy: see E_META
                elif etype == E_FENCE:
                    self.fence_epochs[client_id] = max(
                        self.fence_epochs.get(client_id, 0), payload
                    )
                else:  # E_GENERATOR
                    self.generator_value = max(self.generator_value, payload)
            except ProtocolError:
                # The entry decoded but cannot have been written by this
                # store (e.g. "epoch went backwards").  The record CRC
                # now spans the header too, so this is defense in depth;
                # it was first hit for real when a header bit flip
                # slipped past the old data-only CRC and the restart
                # died on the ProtocolError (``repro crashsweep``,
                # compact.write:3:bit-flip).  Corruption ends the valid
                # prefix; recovery keeps what precedes it.
                self.crc_rejections += 1
                break
            self.recovered_entries += 1
            offset = next_offset
            valid = offset
        if valid < len(raw):
            self.truncated_bytes = len(raw) - valid
            with open(self._log_path, "r+b") as fh:
                fh.truncate(valid)
        return valid

    def _parse_entry(
        self, raw: bytes, offset: int
    ) -> tuple[int, str, object, int] | None:
        """Parse one entry; ``None`` if the tail is torn or corrupt.

        An entry whose bytes are all present but whose CRC does not
        verify is *corruption* (e.g. an injected bit flip), counted in
        ``crc_rejections``; an incomplete entry is an ordinary torn
        tail and is not.
        """
        if offset + _ENTRY.size > len(raw):
            return None
        magic, etype, cid_raw = _ENTRY.unpack_from(raw, offset)
        if magic != ENTRY_MAGIC:
            return None
        body = offset + _ENTRY.size
        try:
            client_id = cid_raw.rstrip(b"\x00").decode("utf-8")
        except UnicodeDecodeError:
            self.crc_rejections += 1
            return None
        if etype in (E_RECORD, E_STAGED):
            try:
                record, end = decode_stored_record(raw, body)
            except WireCodecError:
                if body + RECORD_HEADER_BYTES <= len(raw):
                    (dlen,) = struct.unpack_from("!H", raw, body + 10)
                    if body + RECORD_HEADER_BYTES + dlen <= len(raw):
                        self.crc_rejections += 1
                return None
            return etype, client_id, record, end
        if etype in (E_INSTALL, E_TRUNCATE, E_FENCE):
            if body + _INSTALL.size > len(raw):
                return None
            value, crc = _INSTALL.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 4]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _INSTALL.size
        if etype in (E_GENERATOR, E_META):
            if body + _GENERATOR.size > len(raw):
                return None
            value, crc = _GENERATOR.unpack_from(raw, body)
            if zlib.crc32(raw[body:body + 8]) != crc:
                self.crc_rejections += 1
                return None
            return etype, client_id, value, body + _GENERATOR.size
        return None

    # -- the durable append path --------------------------------------

    def _wedge(self, exc: OSError) -> StorageError:
        """Record the first storage failure; wedge all later appends."""
        self.storage_errors += 1
        if self.io_error is None:
            self.io_error = str(exc) or type(exc).__name__
        return StorageError(
            f"storage failed on {self.server_id}: {self.io_error}"
        )

    def _check_writable(self) -> None:
        if self.io_error is not None:
            raise StorageError(
                f"storage failed on {self.server_id}: {self.io_error}"
            )

    def _append_entry(self, etype: int, client_id: str, payload: bytes,
                      fsync: bool) -> None:
        cid_raw = client_id.encode("utf-8")
        if len(cid_raw) > 16:
            raise FileStoreError(f"client id {client_id!r} exceeds 16 bytes")
        self._check_writable()
        buf = _ENTRY.pack(ENTRY_MAGIC, etype, cid_raw) + payload
        try:
            self.io.write(self._file, buf, _ETYPE_SITES[etype])
            if fsync:
                self.io.fsync(self._file, "log.fsync")
                self.fsyncs += 1
        except OSError as exc:
            raise self._wedge(exc) from exc
        self._size += len(buf)
        self.bytes_appended += len(buf)

    def append_records(self, client_id: str,
                       records: tuple[StoredRecord, ...], *,
                       fsync: bool,
                       images: "Sequence[bytes] | None" = None) -> None:
        """ServerWriteLog, durably: append a batch of one client's records.

        The whole batch becomes **one** buffered write (crash point
        ``log.write.record`` — a torn multi-entry write truncates to
        the last complete entry on recovery, and none of the batch was
        acknowledged); with ``fsync`` one :meth:`sync` then covers it.
        ``images`` optionally carries the raw wire image per record
        (from :func:`repro.net.codec.decode`) so the hot path never
        re-encodes; each image is byte-compatible with
        ``encode_stored_record``.

        Duplicate retransmissions (already stored, identical) are
        dropped without touching the file; a conflicting rewrite raises
        :class:`~repro.core.errors.ProtocolError` after the records
        validated before it are written.  The sync is unconditional
        even when every record was a duplicate: the originals may have
        arrived in unsynced WriteLogs, and the ForceLog ack promises
        durability.
        """
        cid_raw = client_id.encode("utf-8")
        if len(cid_raw) > 16:
            raise FileStoreError(f"client id {client_id!r} exceeds 16 bytes")
        header = _ENTRY.pack(ENTRY_MAGIC, E_RECORD, cid_raw)
        buf = bytearray()
        try:
            for i, record in enumerate(records):
                self.records_appended += 1
                # Validate through the in-memory store first so a
                # protocol violation leaves the durable stream with
                # exactly the records validated before it; ``False``
                # means a duplicate retransmission, dropped without
                # touching the file.
                if not self.mem.server_write_record(client_id, record):
                    continue
                image = (images[i] if images is not None
                         else encode_stored_record(record))
                buf += header
                buf += image
        finally:
            # Flush whatever validated before a mid-batch protocol
            # error: the in-memory store already holds those records,
            # and mem must never run ahead of the durable stream.
            if buf:
                self._check_writable()
                try:
                    self.io.write(self._file, bytes(buf), "log.write.record")
                except OSError as exc:
                    raise self._wedge(exc) from exc
                self._size += len(buf)
                self.bytes_appended += len(buf)
        if fsync:
            self.sync()
        self._maybe_compact()

    def sync(self, *, site: str = "log.fsync") -> None:
        """Make everything appended so far durable (flush + fsync).

        ``site`` names the fault-injection crash point charged for the
        fsync; the server's shared group commit passes
        ``"log.group-fsync"`` so power loss inside a sync that covers
        several parked clients is its own swept crash point.
        """
        self._check_writable()
        try:
            self.io.fsync(self._file, site)
        except OSError as exc:
            raise self._wedge(exc) from exc
        self.fsyncs += 1

    def stage_copy(self, client_id: str, record: StoredRecord) -> None:
        """CopyLog: durably stage a rewrite (installed atomically later)."""
        self.mem.copy_log(client_id, record.lsn, record.epoch,
                          record.present, record.data, record.kind)
        self._append_entry(E_STAGED, client_id,
                           encode_stored_record(record), fsync=False)

    def install_copies(self, client_id: str, epoch: Epoch) -> int:
        """InstallCopies: the install marker is the durable commit point."""
        epoch_bytes = struct.pack("!I", epoch)
        self._append_entry(
            E_INSTALL, client_id,
            _INSTALL.pack(epoch, zlib.crc32(epoch_bytes)), fsync=True,
        )
        return self.mem.install_copies(client_id, epoch)

    def generator_write(self, value: int) -> None:
        """Durably advance the Appendix I generator representative."""
        if value > self.generator_value:
            value_bytes = struct.pack("!Q", value)
            self._append_entry(
                E_GENERATOR, "", _GENERATOR.pack(value, zlib.crc32(value_bytes)),
                fsync=True,
            )
            self.generator_value = value

    # -- ownership fencing --------------------------------------------

    def fence_epoch(self, client_id: str) -> int:
        """The stream's standing fence epoch (0 = never fenced)."""
        return self.fence_epochs.get(client_id, 0)

    def fence_write(self, client_id: str, epoch: int) -> int:
        """Durably install ``epoch`` as the stream's fence; return the
        standing fence.

        Monotone like :meth:`generator_write`: a fence at or below the
        standing one writes nothing (two racing takeovers linearize on
        the generator's epoch order — the higher fence wins and the
        lower one is told so).  The entry is fsync'd before the call
        returns: a fence that is acknowledged must survive a crash, or
        the old writer could commit through a recovered server.
        """
        standing = self.fence_epochs.get(client_id, 0)
        if epoch > standing:
            epoch_bytes = struct.pack("!I", epoch)
            self._append_entry(
                E_FENCE, client_id,
                _FENCE.pack(epoch, zlib.crc32(epoch_bytes)), fsync=True,
            )
            self.fence_epochs[client_id] = epoch
            standing = epoch
        return standing

    # -- Section 5.3: log space management ------------------------------

    def truncate_below(self, client_id: str, low_water: LSN) -> int:
        """TruncateLog: reclaim a client's records below ``low_water``.

        Drops them from the replayed in-memory store (bounding daemon
        RSS) and compacts the append stream so the on-disk log shrinks
        too.  Returns the number of records dropped.  The mark is
        durable: either the compacted stream simply no longer contains
        the records, or — when nothing was stored below the mark — an
        ``E_TRUNCATE`` entry re-arms the late-retransmission guard on
        replay.
        """
        self._check_writable()
        dropped = self.mem.truncate_below(client_id, low_water)
        self.truncations += 1
        if dropped:
            self._compact()
        else:
            mark = self.mem.client_state(client_id).truncated_below
            if mark:
                mark_bytes = struct.pack("!I", mark)
                self._append_entry(
                    E_TRUNCATE, client_id,
                    _TRUNCATE.pack(mark, zlib.crc32(mark_bytes)), fsync=True,
                )
        return dropped

    def truncated_lsn(self, client_id: str) -> LSN:
        """The client's applied low-water mark (0 = never truncated)."""
        return self.mem.client_state(client_id).truncated_below

    def _maybe_compact(self) -> None:
        """The size-watermark fallback: compact when the log outgrows
        ``compact_watermark_bytes``, using whatever low-water marks the
        clients have already declared.

        A compaction that reclaims little would immediately re-trigger,
        so another pass is deferred until the file doubles past the
        last compacted size.
        """
        wm = self.compact_watermark_bytes
        if wm is None or self._size < wm or self.io_error is not None:
            return
        if self._size < 2 * self._last_compact_size:
            return
        self._compact()

    def _compact(self) -> None:
        """Rewrite ``log.dat`` as a checkpoint of the in-memory state.

        The compacted stream carries every standing fence epoch, then,
        per client: the truncation mark, every retained record in write
        order (a subsequence of a legally ordered stream is legally
        ordered), and any staged-but-uninstalled CopyLog records; plus
        the generator value.  Install
        markers are not rewritten — installed copies are already
        materialized as records.  Replaying the compacted stream
        reconstructs the exact same in-memory state.

        The rewrite goes to ``log.dat.tmp`` (fsync'd), then atomically
        replaces ``log.dat`` (rename + directory fsync).
        """
        self._check_writable()
        tmp_path = Path(str(self._log_path) + ".tmp")
        size = 0
        try:
            out = self.io.open(tmp_path, "wb", "compact.open")
            try:
                def emit(etype: int, cid: str, payload: bytes) -> None:
                    nonlocal size
                    buf = _ENTRY.pack(ENTRY_MAGIC, etype,
                                      cid.encode("utf-8")) + payload
                    self.io.write(out, buf, "compact.write")
                    size += len(buf)

                for cid in sorted(self.fence_epochs):
                    fence = self.fence_epochs[cid]
                    fence_bytes = struct.pack("!I", fence)
                    emit(E_FENCE, cid,
                         _FENCE.pack(fence, zlib.crc32(fence_bytes)))
                for client_id in self.mem.known_clients():
                    state = self.mem.client_state(client_id)
                    if state.truncated_below:
                        mark = state.truncated_below
                        mark_bytes = struct.pack("!I", mark)
                        emit(E_TRUNCATE, client_id,
                             _TRUNCATE.pack(mark, zlib.crc32(mark_bytes)))
                    for record in state.records:
                        emit(E_RECORD, client_id,
                             encode_stored_record(record))
                    for epoch in sorted(state.staged):
                        for record in state.staged[epoch]:
                            emit(E_STAGED, client_id,
                                 encode_stored_record(record))
                if self.generator_value:
                    value_bytes = struct.pack("!Q", self.generator_value)
                    emit(E_GENERATOR, "",
                         _GENERATOR.pack(self.generator_value,
                                         zlib.crc32(value_bytes)))
                self.io.fsync(out, "compact.fsync")
            finally:
                out.close()
            old_size = self._size
            self._file.close()
            self.io.replace(tmp_path, self._log_path, "compact.rename")
            self._file = self.io.open(self._log_path, "ab", "compact.reopen")
            self.io.fsync_dir(self.data_dir, "compact.dirsync")
        except OSError as exc:
            if self._file.closed:
                # The store wedges read-only, but reads (and the final
                # close) still go through ``self._file``: restore a
                # usable handle on whatever log.dat survived.
                try:
                    self._file = self.io.open(self._log_path, "ab",
                                              "log.open")
                except OSError:
                    pass
            raise self._wedge(exc) from exc
        self._size = size
        self._last_compact_size = size
        self.compactions += 1
        self.reclaimed_bytes += max(0, old_size - size)

    # -- reads --------------------------------------------------------

    def interval_list(self, client_id: str) -> ServerIntervals:
        return self.mem.interval_list(client_id)

    def read_record(self, client_id: str, lsn: LSN) -> StoredRecord:
        return self.mem.server_read_log(client_id, lsn)

    def stored_lsns(self, client_id: str) -> list[LSN]:
        """All LSNs stored for a client, sorted (for ReadLog packing)."""
        return sorted(self.mem.client_state(client_id)._by_lsn)

    def client_high_lsn(self, client_id: str) -> LSN | None:
        return self.mem.client_state(client_id).high_lsn

    @property
    def log_size_bytes(self) -> int:
        """Current size of ``log.dat`` in bytes."""
        return self._size

    def record_count(self) -> int:
        """Records held in the replayed in-memory store (RSS proxy)."""
        return self.mem.record_count()

    # -- lifecycle ----------------------------------------------------

    @property
    def injected_faults(self) -> int:
        """Faults the I/O backend injected (0 under the passthrough)."""
        return self.io.faults_injected

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
