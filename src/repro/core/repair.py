"""Repairing a replicated log after losing one copy (Section 5.3).

Among the recovery operations a space-management strategy must serve
is "the repair of a log when one redundant copy is lost": a log
server's disk dies, a replacement (empty) server joins, and the
client's records that lived on the dead server must be re-replicated
so every record is again on ``N`` servers.

:func:`repair_log_copy` performs the repair for one client: it merges
interval lists from the surviving servers, finds every LSN with fewer
than ``N`` surviving copies, reads them from their holders, and replays
them onto the target in ``(epoch, LSN)`` order — which satisfies the
server's non-decreasing write discipline, so the target's store ends
up exactly as if it had received the records originally.

The repair is read-only on the survivors and append-only on the
target, so it can run concurrently with normal logging to *other*
servers; like client restart, it is driven by the (single) client or
by an operator acting for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import MergedIntervalMap
from .ports import ServerPort
from .recovery import drive, fetch_many, gather_interval_lists


@dataclass(frozen=True, slots=True)
class RepairResult:
    """Outcome of one log-copy repair."""

    client_id: str
    target_server: str
    records_copied: int
    bytes_copied: int
    lsns_repaired: tuple[int, ...]


def under_replicated_lsns(
    merged: MergedIntervalMap, copies: int
) -> list[int]:
    """LSNs whose winning version is on fewer than ``copies`` servers."""
    return [
        lsn for lsn in merged.lsns()
        if len(merged.servers_for(lsn)) < copies
    ]


def repair_log_copy(
    client_id: str,
    survivor_ports: dict[str, ServerPort],
    target_port: ServerPort,
    copies: int,
) -> RepairResult:
    """Re-replicate a client's under-replicated records onto ``target``.

    ``survivor_ports`` are the remaining servers (the lost one is
    simply absent).  Records already on ``copies`` survivors are left
    alone.  Raises :class:`NotEnoughServers` if some record has no
    reachable holder at all — that is data loss, which N-fold
    replication exists to make improbable.
    """
    reports = gather_interval_lists(survivor_ports, client_id, quorum=1)
    merged = MergedIntervalMap.merge(reports)
    needy = under_replicated_lsns(merged, copies)

    to_copy = drive(fetch_many(client_id, merged, needy), survivor_ports)

    # Replay in (epoch, LSN) order: epochs non-decreasing, and within
    # an epoch LSNs increase — the append discipline of Section 3.1.1.
    to_copy.sort(key=lambda r: (r.epoch, r.lsn))
    copied_bytes = 0
    for record in to_copy:
        target_port.server_write_log(
            client_id, record.lsn, record.epoch,
            record.present, record.data, record.kind,
        )
        copied_bytes += len(record.data)

    return RepairResult(
        client_id=client_id,
        target_server=target_port.server_id,
        records_copied=len(to_copy),
        bytes_copied=copied_bytes,
        lsns_repaired=tuple(r.lsn for r in to_copy),
    )

