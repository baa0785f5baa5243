"""Tests for the client-initialization (recovery) procedure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DirectServerPort,
    LogServerStore,
    MergedIntervalMap,
    NotEnoughServers,
    ServerIntervals,
    ServerUnavailable,
    StoredRecord,
    gather_interval_lists,
    intervals_from_lsns,
    perform_recovery,
)
from repro.core.recovery import fetch_many
from repro.net.messages import ReadLogForwardCall, ReadLogReply


def build_stores(m=3):
    stores = {f"s{i}": LogServerStore(f"s{i}") for i in range(m)}
    ports = {sid: DirectServerPort(st) for sid, st in stores.items()}
    return stores, ports


class TestGatherIntervalLists:
    def test_collects_from_all_up_servers(self):
        stores, ports = build_stores(3)
        lists = gather_interval_lists(ports, "c1", quorum=2)
        assert len(lists) == 3

    def test_quorum_enforced(self):
        stores, ports = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            gather_interval_lists(ports, "c1", quorum=2)

    def test_exact_quorum_accepted(self):
        stores, ports = build_stores(3)
        stores["s0"].crash()
        lists = gather_interval_lists(ports, "c1", quorum=2)
        assert {l.server_id for l in lists} == {"s1", "s2"}


class TestPerformRecovery:
    def test_empty_log_writes_guards_only(self):
        stores, ports = build_stores(3)
        lists = gather_interval_lists(ports, "c1", quorum=2)
        result = perform_recovery("c1", ports, lists, new_epoch=1,
                                  copies=2, delta=1)
        assert result.next_lsn == 2  # guard at 1
        assert result.records_copied == 1
        assert len(result.write_set) == 2
        for sid in result.write_set:
            table = stores[sid].dump_table("c1")
            assert table == [(1, 1, "no")]

    def test_last_delta_records_copied(self):
        stores, ports = build_stores(3)
        for lsn in range(1, 6):
            for sid in ("s0", "s1"):
                stores[sid].server_write_log("c1", lsn, 1, True, b"r%d" % lsn)
        lists = gather_interval_lists(ports, "c1", quorum=2)
        result = perform_recovery("c1", ports, lists, new_epoch=2,
                                  copies=2, delta=2)
        # records 4,5 copied + guards 6,7
        assert result.records_copied == 4
        assert result.next_lsn == 8
        for sid in result.write_set:
            records = stores[sid].client_state("c1").records
            epoch2 = [(r.lsn, r.present) for r in records if r.epoch == 2]
            assert epoch2 == [(4, True), (5, True), (6, False), (7, False)]

    def test_present_flags_preserved_in_copies(self):
        stores, ports = build_stores(3)
        # a not-present record at the tail (from an earlier recovery)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"data")
            stores[sid].server_write_log("c1", 2, 1, False)
        lists = gather_interval_lists(ports, "c1", quorum=2)
        result = perform_recovery("c1", ports, lists, new_epoch=2,
                                  copies=2, delta=1)
        for sid in result.write_set:
            copy = stores[sid].client_state("c1").lookup(2)
            assert copy.epoch == 2
            assert not copy.present

    def test_preferred_servers_honoured(self):
        stores, ports = build_stores(4)
        lists = gather_interval_lists(ports, "c1", quorum=3)
        result = perform_recovery("c1", ports, lists, new_epoch=1,
                                  copies=2, delta=1,
                                  preferred_servers=("s3", "s2"))
        assert result.write_set == ("s3", "s2")

    def test_unavailable_preferred_server_skipped(self):
        stores, ports = build_stores(4)
        stores["s3"].crash()
        lists = gather_interval_lists(ports, "c1", quorum=3)
        result = perform_recovery("c1", ports, lists, new_epoch=1,
                                  copies=2, delta=1,
                                  preferred_servers=("s3", "s2"))
        assert "s3" not in result.write_set
        assert len(result.write_set) == 2

    def test_insufficient_install_targets(self):
        stores, ports = build_stores(3)
        lists = gather_interval_lists(ports, "c1", quorum=2)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            perform_recovery("c1", ports, lists, new_epoch=1,
                             copies=2, delta=1)

    def test_recovery_is_restartable(self):
        """A crash mid-recovery leaves state a later recovery fixes."""
        stores, ports = build_stores(3)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"v")
        # first recovery: stage on s0 only (simulate crash after one
        # server staged but before install by doing it manually)
        ports["s0"].copy_log("c1", 1, 2, True, b"v")
        # staged, never installed; epoch 2 burned.  Full recovery at 3:
        lists = gather_interval_lists(ports, "c1", quorum=2)
        result = perform_recovery("c1", ports, lists, new_epoch=3,
                                  copies=2, delta=1)
        assert result.epoch == 3
        # the stale staged epoch-2 copy must never become visible
        assert stores["s0"].client_state("c1").lookup(1).epoch == 3

    def test_merged_map_routes_to_installed_servers(self):
        stores, ports = build_stores(3)
        for sid in ("s0", "s1"):
            stores[sid].server_write_log("c1", 1, 1, True, b"v")
        lists = gather_interval_lists(ports, "c1", quorum=2)
        result = perform_recovery("c1", ports, lists, new_epoch=2,
                                  copies=2, delta=1)
        # LSN 1 entry now carries the new epoch and the install targets
        assert result.merged.epoch_of(1) == 2
        assert set(result.merged.servers_for(1)) == set(result.write_set)


class CrashOnInstallPort:
    """A port whose server power-fails between CopyLog and InstallCopies.

    The staged copies reach the store's durable state, but the install
    never runs — the exact window the restartability argument of
    Section 4.2 is about.
    """

    def __init__(self, inner):
        self._inner = inner
        self._tripped = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def install_copies(self, client_id, epoch):
        if not self._tripped:
            self._tripped = True
            self._inner.store.crash()
        return self._inner.install_copies(client_id, epoch)


class TestRecoveryRestartability:
    def _seed_log(self, stores, lsns=range(1, 4)):
        for lsn in lsns:
            for sid in ("s0", "s1"):
                stores[sid].server_write_log("c1", lsn, 1, True,
                                             b"r%d" % lsn)

    def test_crash_between_copy_and_install_leaves_staged_inert(self):
        stores, ports = build_stores(4)
        self._seed_log(stores)
        ports["s0"] = CrashOnInstallPort(ports["s0"])

        lists = gather_interval_lists(ports, "c1", quorum=3)
        result = perform_recovery("c1", ports, lists, new_epoch=2,
                                  copies=2, delta=2,
                                  preferred_servers=("s0", "s1"))
        # the crashed server was skipped; recovery still installed N copies
        assert "s0" not in result.write_set
        assert len(result.write_set) == 2

        # its staged epoch-2 records were never installed and stay inert
        state = stores["s0"].client_state("c1")
        assert 2 in state.staged
        assert all(r.epoch != 2 for r in state.records)
        stores["s0"].restart()
        intervals = stores["s0"].interval_list("c1").intervals
        assert all(iv.epoch != 2 for iv in intervals)

    def test_repeated_higher_epoch_recovery_converges(self):
        stores, ports = build_stores(4)
        self._seed_log(stores)
        ports["s0"] = CrashOnInstallPort(ports["s0"])

        lists = gather_interval_lists(ports, "c1", quorum=3)
        perform_recovery("c1", ports, lists, new_epoch=2, copies=2,
                         delta=2, preferred_servers=("s0", "s1"))
        stores["s0"].restart()

        # the next restart runs the procedure again at a higher epoch;
        # the recovered server participates normally this time
        lists2 = gather_interval_lists(ports, "c1", quorum=3)
        result2 = perform_recovery("c1", ports, lists2, new_epoch=3,
                                   copies=2, delta=2,
                                   preferred_servers=("s0", "s1"))
        assert result2.write_set == ("s0", "s1")
        # epoch 2 is never reused: the stale staged copies on s0 remain
        # uninstalled while epoch 3 is fully installed
        s0_state = stores["s0"].client_state("c1")
        assert 2 in s0_state.staged
        assert any(r.epoch == 3 for r in s0_state.records)
        assert all(r.epoch != 2 for r in s0_state.records)
        # both installs hold the same records: the merged map agrees
        for lsn in (2, 3):
            datas = {stores[sid].server_read_log("c1", lsn).data
                     for sid in result2.write_set}
            assert datas == {b"r%d" % lsn}


class TestGatherWithRetry:
    def test_rides_out_a_transient_outage(self):
        from repro.core import RetryPolicy, gather_interval_lists_with_retry

        stores, ports = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()

        def repair(attempt):
            if attempt == 1:
                stores["s1"].restart()

        lists = gather_interval_lists_with_retry(
            ports, "c1", quorum=2,
            policy=RetryPolicy(max_attempts=4, jitter=0.0),
            sleep=lambda _s: None, on_retry=repair,
        )
        assert {l.server_id for l in lists} == {"s1", "s2"}

    def test_exhaustion_still_raises(self):
        from repro.core import RetryPolicy, gather_interval_lists_with_retry

        stores, ports = build_stores(3)
        stores["s0"].crash()
        stores["s1"].crash()
        with pytest.raises(NotEnoughServers):
            gather_interval_lists_with_retry(
                ports, "c1", quorum=2,
                policy=RetryPolicy(max_attempts=3, jitter=0.0),
                sleep=lambda _s: None,
            )


# -- fetch_many: one packed read per server ---------------------------------


def _record(lsn, epoch):
    """The one record every holder of ``⟨lsn, epoch⟩`` stores."""
    present = (lsn + epoch) % 3 != 0
    return StoredRecord(lsn, epoch, present,
                        b"%d@%d" % (lsn, epoch) if present else b"")


class ModelServers:
    """Log servers answering ReadLogForward from ``{server: {lsn: epoch}}``.

    A reply packs up to ``per_reply[server]`` stored records from the
    requested LSN up (1 = one record per reply, like a ``ServerPort``).
    A server in ``stop_at_gap`` ends a reply at the first LSN it does
    not store, as the simulated server does; the others skip the gap,
    as the daemon does.  Servers in ``dead`` fail every call.
    """

    def __init__(self, holdings, per_reply, dead=(), stop_at_gap=()):
        self.holdings = holdings
        self.per_reply = per_reply
        self.dead = set(dead)
        self.stop_at_gap = set(stop_at_gap)
        self.calls = []

    def merged(self):
        return MergedIntervalMap.merge(
            ServerIntervals(sid, intervals_from_lsns(held.items()))
            for sid, held in self.holdings.items() if held)

    def answer(self, server_id, msg):
        self.calls.append((server_id, msg))
        assert isinstance(msg, ReadLogForwardCall)
        if server_id in self.dead:
            return ServerUnavailable(server_id, "down")
        held = self.holdings[server_id]
        records = []
        lsn = msg.lsn
        for stored in sorted(l for l in held if l >= msg.lsn):
            if len(records) == self.per_reply[server_id]:
                break
            if stored != lsn and server_id in self.stop_at_gap:
                break
            records.append(_record(stored, held[stored]))
            lsn = stored + 1
        return ReadLogReply(msg.client_id, tuple(records))

    def run(self, step):
        """Drive ``step``, checking every batch is one read."""
        outcomes = None
        while True:
            try:
                batch = step.send(outcomes)
            except StopIteration as done:
                return done.value
            assert len(batch) == 1
            outcomes = tuple(self.answer(sid, msg) for sid, msg in batch)


def per_lsn_reference(merged, lsns, servers):
    """One ReadLogForward per LSN, tried on its holders in order, keeping
    the record whose LSN was asked for."""
    records = []
    for lsn in sorted(set(lsns)):
        for server_id in merged.servers_for(lsn):
            reply = servers.answer(server_id, ReadLogForwardCall("c1", lsn))
            if isinstance(reply, ReadLogReply):
                match = [r for r in reply.records if r.lsn == lsn]
                if match:
                    records.append(match[0])
                    break
        else:
            raise NotEnoughServers(f"LSN {lsn}")
    return records


@st.composite
def fetch_cases(draw):
    servers = [f"s{i}" for i in range(draw(st.integers(2, 4)))]
    high = draw(st.integers(1, 16))
    holdings = {sid: {} for sid in servers}
    for lsn in range(1, high + 1):
        # an LSN may be stored nowhere (a gap), on one server, or on
        # several at different epochs: write sets switch and restarts
        # supersede partial writes.
        for sid in draw(st.lists(st.sampled_from(servers), unique=True)):
            holdings[sid][lsn] = draw(st.integers(1, 3))
    per_reply = {sid: draw(st.sampled_from([1, 2, 3, 16]))
                 for sid in servers}
    dead = draw(st.lists(st.sampled_from(servers), unique=True,
                         max_size=len(servers) - 1))
    stop_at_gap = draw(st.lists(st.sampled_from(servers), unique=True))
    model = ModelServers(holdings, per_reply, dead, stop_at_gap)
    merged = model.merged()
    if draw(st.booleans()):
        # recovery's δ window: the last δ LSNs that exist
        top = merged.high_lsn() or 0
        delta = draw(st.integers(1, 10))
        lsns = [l for l in range(max(1, top - delta + 1), top + 1)
                if l in merged]
    else:
        lsns = draw(st.lists(st.sampled_from(merged.lsns()), unique=True)
                    if len(merged) else st.just([]))
    return model, merged, lsns


class TestFetchMany:
    @settings(max_examples=300, deadline=None)
    @given(fetch_cases())
    def test_matches_per_lsn_reference(self, case):
        model, merged, lsns = case
        try:
            expected = per_lsn_reference(merged, lsns, model)
        except NotEnoughServers:
            expected = None
        reference_calls = len(model.calls)
        model.calls.clear()
        if expected is None:
            with pytest.raises(NotEnoughServers):
                model.run(fetch_many("c1", merged, lsns))
            return
        assert model.run(fetch_many("c1", merged, lsns)) == expected
        calls = len(model.calls)
        assert calls <= reference_calls
        asked_dead = {sid for sid, _ in model.calls if sid in model.dead}
        # each call to a live holder covers at least the LSN it asks for
        assert calls <= len(lsns) + len(asked_dead)
        if not model.dead:
            assert calls <= len(lsns)

    def test_window_on_one_write_set_is_one_read(self):
        holdings = {"s0": {l: 1 for l in range(1, 11)},
                    "s1": {l: 1 for l in range(1, 11)}, "s2": {}}
        model = ModelServers(holdings, {"s0": 16, "s1": 16, "s2": 16})
        records = model.run(fetch_many("c1", model.merged(), range(3, 11)))
        assert [r.lsn for r in records] == list(range(3, 11))
        assert [(sid, msg.lsn) for sid, msg in model.calls] == [("s0", 3)]

    def test_split_window_reads_once_per_write_set(self):
        # LSNs 1-5 on {s0, s1}; a write-set switch put 6-10 on {s2, s3}
        holdings = {"s0": {l: 1 for l in range(1, 6)},
                    "s1": {l: 1 for l in range(1, 6)},
                    "s2": {l: 1 for l in range(6, 11)},
                    "s3": {l: 1 for l in range(6, 11)}}
        model = ModelServers(holdings, dict.fromkeys(holdings, 16))
        records = model.run(fetch_many("c1", model.merged(), range(3, 11)))
        assert [r.lsn for r in records] == list(range(3, 11))
        assert [(sid, msg.lsn) for sid, msg in model.calls] == [
            ("s0", 3), ("s2", 6)]

    def test_dead_holder_is_asked_once(self):
        holdings = {"s0": {l: 1 for l in range(1, 9)},
                    "s1": {l: 1 for l in range(1, 9)}}
        model = ModelServers(holdings, {"s0": 1, "s1": 1}, dead={"s0"})
        records = model.run(fetch_many("c1", model.merged(), range(1, 9)))
        assert [r.lsn for r in records] == list(range(1, 9))
        assert [sid for sid, _ in model.calls] == ["s0"] + ["s1"] * 8

    def test_superseded_copy_is_not_taken(self):
        # s0 packs LSN 2 at epoch 1, but epoch 2 won it on s1 only
        holdings = {"s0": {1: 1, 2: 1}, "s1": {2: 2}}
        model = ModelServers(holdings, {"s0": 16, "s1": 16})
        records = model.run(fetch_many("c1", model.merged(), [1, 2]))
        assert records == [_record(1, 1), _record(2, 2)]
        assert [(sid, msg.lsn) for sid, msg in model.calls] == [
            ("s0", 1), ("s1", 2)]
