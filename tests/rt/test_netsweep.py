"""The network crash-sweep phase (:mod:`repro.harness.netsweep`).

Grammar-level coverage runs in-process; the replay tests drive real
``repro serve`` daemons through a proxy fleet via the public
:func:`~repro.harness.crashsweep.run_crashsweep` entry point, exactly
as ``repro crashsweep --point net...`` / ``--plan ...`` would.
"""

from __future__ import annotations

import random

import pytest

from repro.harness.crashsweep import SweepConfig, run_crashsweep
from repro.harness.netsweep import draw_fuzz_plan, plan_spec
from repro.rt.faultfs import FaultSpecError, parse_plans

SITES = {"net.writelog.c2s": 3, "net.forcelog.c2s": 3,
         "net.newhighlsn.s2c": 3, "net.ack.s2c": 3,
         "net.copylog.c2s": 1}


# -- multi-family plans ------------------------------------------------------


def test_composite_plan_routes_all_three_families():
    plans = parse_plans(
        "net.writelog.c2s:1:drop,"
        "s2@log.fsync:2:power-loss,"
        "log.write.record:0:eio,"
        "client.force.ack:0:raise")
    assert [(p.family, p.server, p.point, p.action) for p in plans] == [
        ("net", "", "net.writelog.c2s:1", "drop"),
        ("storage", "s2", "log.fsync:2", "power-loss"),
        ("storage", "", "log.write.record:0", "eio"),  # default server
        ("client", "", "client.force.ack:0", "raise"),
    ]
    # The spec round-trips through the parser.
    assert plan_spec(parse_plans(plan_spec(plans))) == plan_spec(plans)


@pytest.mark.parametrize("bad", [
    "",
    "net.writelog.c2s:0:drop,",                    # trailing empty token
    "s1@client.force.ack:0:raise",                 # client fault routed
    "net.writelog.c2s:0:drop,net.writelog.c2s:0:delay",  # dup point
    "@log.fsync:0:power-loss",                     # empty server id
    "net.writelog.c2s:0:power-loss",               # storage action on net
])
def test_composite_plan_rejects_malformed(bad):
    bad_token = {
        "net.writelog.c2s:0:drop,": "",
        "net.writelog.c2s:0:drop,net.writelog.c2s:0:delay":
            "net.writelog.c2s:0",
        "net.writelog.c2s:0:power-loss": "power-loss",
    }.get(bad, bad)
    with pytest.raises(FaultSpecError) as excinfo:
        parse_plans(bad)
    assert excinfo.value.token == bad_token


def test_fuzz_plans_are_seed_deterministic():
    for seed in range(5):
        a = draw_fuzz_plan(random.Random(seed), SITES)
        b = draw_fuzz_plan(random.Random(seed), SITES)
        assert a == b
        assert 2 <= len(a) <= 4
        # Families come out net, storage, client, in that order.
        order = ["net", "storage", "client"]
        assert [order.index(p.family) for p in a] \
            == sorted(order.index(p.family) for p in a)
        # Every drawn plan replays through the parser unchanged.
        assert parse_plans(plan_spec(a)) == a


# -- replay paths against real daemons ---------------------------------------


def test_replay_single_net_case(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), point="net.forcelog.c2s:0:drop"))
    assert len(report.net_cases) == 1
    case = report.net_cases[0]
    assert case.hit, "the armed frame point never fired"
    assert case.ok, case.errors
    assert report.failures == []


def test_replay_partition_switch_case(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path),
        point="net.newhighlsn.s2c:0:partition-after"))
    assert len(report.net_cases) == 1
    case = report.net_cases[0]
    assert case.hit and case.ok, case.errors


def test_replay_composite_plan(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path),
        plan="net.writelog.c2s:0:drop,client.force.ack:0:raise"))
    assert len(report.fuzz_cases) == 1
    assert report.fuzz_cases[0].ok, report.fuzz_cases[0].errors


def test_fuzz_smoke_is_green_and_counted(tmp_path):
    report = run_crashsweep(SweepConfig(
        root_dir=str(tmp_path), net_only=True, fuzz=2, seed=0))
    assert len(report.fuzz_cases) == 2
    assert report.failures == []
    assert report.cases_run == 2
    # The net sweep itself was not requested, only fuzz.
    assert report.net_cases == []
