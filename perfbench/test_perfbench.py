"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each traced/untraced case below runs one round of a workload (``seconds=0``
and ``min_rounds=1`` stop after the first round), so the module takes about
a minute and a half.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_package()  # deep's ops name mzvsums types, so the package must import first


@pytest.fixture(scope="module")
def one_round():
    """bench() results for one round, keyed by (workload, traced)."""
    saved = dict(os.environ)
    os.environ["MZV_CORRUPT_IDENTITY"] = "1"  # must be stripped, or every identity op fails
    results = {}
    try:
        for workload in ("grid", "algebra", "deep"):
            for traced in (False, True):
                results[workload, traced] = run.bench(workload, seed=3, seconds=0, traced=traced, min_rounds=1)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return results


@pytest.mark.parametrize("workload", ["grid", "algebra", "deep"])
def test_traced_and_untraced_runs_agree_and_pass(one_round, workload):
    plain, traced = one_round[workload, False], one_round[workload, True]
    for out in (plain, traced):
        assert out["result"]["correct"], out["result"]
        assert out["result"]["failed"] == 0
    assert plain["info"]["output_digest"] == traced["info"]["output_digest"]
    assert plain["info"]["cases"] == traced["info"]["cases"]


@pytest.mark.parametrize("workload", ["grid", "algebra", "deep"])
def test_trace_covers_op_wall_with_non_negative_self_times(one_round, workload):
    metrics = one_round[workload, True]["result"]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["trace.overhead_ratio"]["value"] > 0
    for name, unit in spans.METRICS:
        assert name in metrics and metrics[name]["unit"] == unit
    for name, metric in metrics.items():
        if name.endswith(".self_s"):
            assert metric["value"] >= 0, name


def test_layer_roles_match_the_workloads(one_round):
    grid = one_round["grid", True]["info"]["layer_shares"]
    algebra = one_round["algebra", True]
    deep = one_round["deep", True]["info"]["layer_shares"]
    assert max(grid, key=grid.get) == "zeta"
    assert max(deep, key=deep.get) == "zeta"
    shares = algebra["info"]["layer_shares"]
    assert shares["series"] + shares["harmonic"] > 0.8
    assert algebra["result"]["metrics"]["zeta.cache.calls"]["value"] < 0.01 * (
        one_round["grid", True]["result"]["metrics"]["zeta.cache.calls"]["value"]
    )


def test_deep_reports_the_int_str_limit_probe_and_leaves_the_limit(one_round):
    probe = one_round["deep", False]["info"]["probe"]
    assert probe["exit"] == 2
    assert "4300" in probe["stderr"]
    assert one_round["deep", True]["result"]["metrics"]["cli.probe_failed"]["value"] == 1
    assert sys.get_int_max_str_digits() == one_round["deep", False]["info"]["int_max_str_digits"]


def test_untraced_run_reports_every_end_to_end_metric(one_round):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in ("grid", "algebra", "deep"):
        metrics = one_round[workload, False]["result"]["metrics"]
        assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
        for m in spec["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] > 0
    traced = one_round["grid", True]["result"]["metrics"]
    assert sorted(traced) == sorted(m["name"] for m in spec["per_layer"])


def test_schedule_is_deterministic_per_seed():
    for workload in run.WORKLOADS:
        a, b = workloads.rounds(workload, 7), workloads.rounds(workload, 7)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
        assert next(workloads.rounds(workload, 7)) != next(workloads.rounds(workload, 8))


def test_every_round_runs_the_plan_from_the_recorded_menu():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in run.WORKLOADS:
        groups = workloads.GROUPS[workload]()
        menu = {run.op_key(op) for op in workloads.menu(workload)}
        assert menu <= set(reference)
        for seed in (1, 2):
            plan = workloads.plan(workload, seed)
            assert len(plan) == len(set(plan)) == sum(len(group) for group in groups)
            schedule = workloads.rounds(workload, seed)
            first, second = next(schedule), next(schedule)
            assert sorted(first, key=repr) == sorted(second, key=repr) == sorted(plan, key=repr)
            assert first != second


def test_plan_uses_each_alternative_of_a_group_equally_often():
    for workload in run.WORKLOADS:
        plan = iter(workloads.plan(workload, 5))  # one op per slot, group by group
        for group in workloads.GROUPS[workload]():
            used = [slot.index(next(plan)) for slot in group]
            counts = [used.count(i) for i in range(len(group[0]))]
            assert max(counts) - min(counts) <= 1, (workload, group[0][0])


def test_two_seeds_give_rounds_of_similar_size():
    """Same case count per round; counted DP work within 15%."""
    mods = run.import_package()
    totals = []
    for seed in (11, 12):
        tracer = spans.Tracer(mods)
        runner = run.Runner(mods)
        cases = 0
        with tracer.installed():
            for op in next(workloads.rounds("grid", seed)):
                cases += runner.run(op)[1]
        totals.append((cases, tracer.calls["zeta.cache"]))
    (c1, w1), (c2, w2) = totals
    assert c1 == c2
    assert abs(w1 - w2) <= 0.15 * max(w1, w2)


def test_digest_catches_a_changed_value():
    mods = run.import_package()
    runner = run.Runner(mods)
    op = workloads.grid_groups()[0][0][0]
    with open(run.REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)[run.op_key(op)]
    values = runner.run(op)[2]
    assert run.digest(values) == expected
    p, q, m, lhs, rhs = values[0]
    changed = ((p, q, m, lhs + 1, rhs + 1),) + values[1:]
    assert run.digest(changed) != expected


def test_pool_workload_refuses_more_workers_than_cpus(monkeypatch):
    monkeypatch.setitem(workloads.ENV, "grid-pool", {"MZV_THREADS": str(run.nproc() + 1)})
    monkeypatch.setattr(os, "environ", dict(os.environ))
    with pytest.raises(run.BenchError):
        run.clean_environment("grid-pool")


def test_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
