"""The crash-point sweep harness (in-process phases, plus the daemon
phase's combined cases; the full daemon phase spawns real subprocesses
and runs in CI as ``repro crashsweep --quick``)."""

from __future__ import annotations

from repro.harness.crashsweep import (
    _DAEMON_COMBINED_PLANS,
    SweepConfig,
    _daemon_case,
    run_crashsweep,
)


def test_quick_sweep_passes_all_invariants(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), quick=True, daemon=False,
    ))
    # The acceptance floor: the workload must expose a rich crash
    # surface, not a token handful of points.
    assert report.points_enumerated >= 30
    assert {"log.write.record", "log.fsync", "log.group-fsync",
            "compact.write", "compact.rename", "compact.dirsync",
            "log.write.install", "log.write.truncate",
            "dir.create-sync"} <= set(report.sites)
    assert report.cases_run > 0
    assert report.failures == [], [c.as_dict() for c in report.failures]


def test_single_point_replay(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), daemon=False,
        point="log.fsync:1:short-write",
    ))
    assert len(report.cases) == 1
    case = report.cases[0]
    assert case.spec == "log.fsync:1:short-write"
    assert case.ok, case.errors


def test_seed_changes_payloads_not_points(tmp_path):
    reports = [
        run_crashsweep(SweepConfig(
            root_dir=str(tmp_path / str(seed)), seed=seed,
            point="log.write.record:0",  # enumerate + one case, cheap
            daemon=False,
        ))
        for seed in (0, 1)
    ]
    assert reports[0].points_enumerated == reports[1].points_enumerated
    assert reports[0].sites == reports[1].sites
    assert all(c.ok for r in reports for c in r.cases)


def test_report_as_dict_is_json_shaped(tmp_path):
    import json

    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), daemon=False, point="log.open:0",
    ))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["points_enumerated"] == report.points_enumerated
    assert payload["failures"] == []


def test_replay_reports_whether_the_point_fired(tmp_path):
    """A storage replay past the end of the trace (or at a misspelled
    site) must say so, not pass as if the crash had been survived."""
    for n, (point, hit) in enumerate((("log.fsync:999", False),
                                      ("log.fsync:0", True))):
        lines: list[str] = []
        report = run_crashsweep(SweepConfig(
            root_dir=str(tmp_path / str(n)), daemon=False, point=point,
        ), progress=lines.append)
        (case,) = report.cases
        assert case.hit is hit
        assert case.ok, case.errors
        assert any("point not reached" in line for line in lines) \
            is not hit


def test_combined_daemon_cases_reach_their_points(tmp_path):
    """Both multi-fault plans fire in the compaction under the
    workload's final truncate, so the client can return while the
    armed daemon is still exiting.  Reachability comes from the
    daemon's exit, not from whether it is alive at that moment."""
    for i, plan in enumerate(_DAEMON_COMBINED_PLANS):
        case = _daemon_case(tmp_path, i, plan, action="combined", plan=plan)
        assert case.hit and case.ok, case.as_dict()
