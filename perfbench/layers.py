"""Which end-to-end metric each per-layer metric should move.

Written down before any optimisation, so a change that claims a gain
in one layer can be checked against it: the named end-to-end metric
should move on the named workload, and the "no move" workloads should
stay within their bounds.  The traced report prints each prediction
beside its measured value.
"""

#: The bounded result metrics are setup_s, stored_bytes_per_user_byte and
#: messages_per_record; cpu_us_per_record, fsyncs_per_record, records_per_s
#: and the latencies are printed beside them.
_FORCE = ("-> cpu_us_per_record, records_per_s, commit_p50_ms on "
          "et1-commit; no move on restart")
_SERVER = ("-> messages_per_record, cpu_us_per_record, records_per_s, "
           "commit_p99_ms on et1-commit")

PREDICTIONS = {
    "client.write_us": _FORCE,
    "client.implicit_force_share": _FORCE,
    "client.records_per_force": _FORCE,
    "client.retries": _FORCE + " (0 on et1-*)",
    "client.read_us": "-> undo_* on et1-checkpoint",
    "client.truncate_ms":
        "-> records_per_s, commit_p99_ms on et1-checkpoint; "
        "no move on et1-commit",
    "client.initialize_ms":
        "-> restart_*, records_per_s on restart; no move on et1-*",
    "client.takeover_ms":
        "-> takeover_*, records_per_s on restart; no move on et1-*",
    "client.restart_calls":
        "-> messages_per_record, restart_* on restart; no move on et1-*",
    "client.takeover_calls":
        "-> messages_per_record, takeover_* on restart; no move on et1-*",
    "client.fsyncs_per_restart_iter":
        "-> fsyncs_per_record, restart_*, takeover_* on restart; exact, "
        "repeats per seed",
    "client.exact_counts_repeat":
        "self-check: 1 when every restart round's counts are identical",
    "client.restart_rtts":
        "-> restart_* on restart (the fixed-round-trips target)",
    "codec.frame_us_per_record":
        "-> cpu_us_per_record, commit_p50_ms on et1-commit (<5% of budget)",
    "codec.decode_us_per_record":
        "-> cpu_us_per_record, commit_p50_ms on et1-commit (<5% of budget)",
    "codec.wire_bytes_per_record":
        "-> commit_p50_ms, records_per_s on et1-commit",
    "server.messages_per_record": _SERVER,
    "server.forces_per_fsync":
        "-> fsyncs_per_record, commit_p99_ms on et1-commit",
    "server.records_presented_per_record":
        _SERVER + " (retransmission waste)",
    "server.missing_intervals": _SERVER,
    "server.fence_rejections":
        "-> takeover_* on restart (refusals per superseded writer)",
    "filestore.records_per_fsync":
        "-> fsyncs_per_record, commit_* on et1-commit",
    "filestore.bytes_appended_per_user_byte":
        "-> stored_bytes_per_user_byte on et1-commit",
    "filestore.append_us_per_record":
        "-> cpu_us_per_record, commit_* on et1-commit",
    "filestore.fsync_us_p50": "-> commit_* on et1-commit",
    "filestore.fsync_us_p99": "-> commit_p99_ms on et1-commit",
    "filestore.compact_ms":
        "-> cpu_us_per_record, records_per_s on et1-checkpoint",
    "filestore.compact_bytes_rewritten":
        "-> records_per_s on et1-checkpoint",
    "filestore.stored_lsns_us":
        "-> undo_* on et1-checkpoint, restart_p50_ms on restart; "
        "no move on et1-commit",
    "ledger.force_unattributed_us":
        "-> commit_p50_ms on et1-commit (wakeups, bookkeeping)",
    "bench.txn_self_us": "the generator's own overhead (should not move)",
    "trace.overhead_pct":
        "traced vs untraced records/s, interleaved slices",
}
