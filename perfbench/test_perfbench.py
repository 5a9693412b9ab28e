"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, Case, Spec, prepare_instance

sndp = run.import_program()

# Small stand-ins for each workload's pool, so a traced pass takes well
# under a second.
TINY = {
    "dsg-ring": Spec("replicated", 4, 3, 1, 1, 2.0),
    "bd-grid": Spec("grid", 6, 1, 1, 1, 1.0),
    "cap-sweep": Spec("replicated", 4, 2, 1, 1, 1.0),
    "verify-ring": Spec("replicated", 5, 4, 1, 1, 2.0),
}


def tiny_cases(name):
    spec = TINY[name]
    return [Case(spec, prepare_instance(sndp, spec), None)]


def args(name, seconds=1e-9):
    return argparse.Namespace(workload=name, seed=1, seconds=seconds, trace=1)


def span(i, parent, start, end, name="simplex.solve_lp"):
    return spans.Span(i, parent, "op", name, name.split(".")[0], start, end)


def test_self_time_on_synthetic_span_tree():
    tree = [
        span(1, None, 0.0, 10.0, "decomposition.solve_delayed"),
        span(2, 1, 1.0, 4.0, "branch_and_bound.solve_milp"),
        span(3, 2, 2.0, 3.0),
        span(4, 1, 3.0, 6.0, "recourse.solve_recourse"),  # overlaps span 2
        span(5, None, 11.0, 12.0, "maxflow.max_flow"),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0})


def test_layer_self_times_and_remainder_sum_to_wall():
    tree = [
        span(1, None, 0.0, 10.0, "decomposition.solve_delayed"),
        span(2, 1, 1.0, 4.0, "branch_and_bound.solve_milp"),
        span(3, 2, 2.0, 3.0),
        span(4, 1, 5.0, 6.0, "maxflow.feasible_full_demand"),
        span(5, 4, 5.5, 5.75, "maxflow.max_flow"),
        span(6, None, 11.0, 12.0, "instances.generate_instance"),
    ]
    metrics = spans.per_layer_metrics(tree, wall=13.5)
    assert metrics["trace.unattributed_s"] == pytest.approx(2.5)
    assert metrics["simplex.self_s"] == pytest.approx(1.0)
    assert metrics["maxflow.graph_s"] == pytest.approx(0.75)
    assert metrics["maxflow.flow_s"] == pytest.approx(0.25)
    parts = sum(metrics[name] for name in spans.SELF_TIME_PARTS)
    assert parts + metrics["trace.unattributed_s"] == pytest.approx(13.5)


@pytest.mark.parametrize("name", sorted(TINY))
def test_counts_repeat_across_traced_runs(name):
    workload = WORKLOADS[name]
    counted = [n for n, (unit, _) in spans.PER_LAYER.items() if unit == "count"]
    first, second = (
        run.traced_run(sndp, workload, tiny_cases(name), args(name))[1]
        for _ in range(2))
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["simplex.pivots"] > 0 or name == "verify-ring"
    parts = sum(first[n] for n in spans.SELF_TIME_PARTS)
    assert parts + first["trace.unattributed_s"] == \
        pytest.approx(first["trace.wall_s"])


def test_tracer_patches_every_alias_and_restores_them():
    original = sndp.simplex.solve_lp
    with spans.Tracer().installed():
        wrapped = set(spans.wrapped_functions())
        assert {"sndp.simplex.solve_lp", "sndp.branch_and_bound.solve_lp",
                "sndp.recourse.solve_lp", "sndp.solve_delayed",
                "sndp.reporting.solve_delayed"} <= wrapped
    assert spans.wrapped_functions() == []
    assert sndp.branch_and_bound.solve_lp is original


def test_untraced_run_installs_no_wrapper():
    seen = []
    workload = dataclasses.replace(
        WORKLOADS["bd-grid"],
        run=lambda s, case: seen.append(spans.wrapped_functions())
        or WORKLOADS["bd-grid"].run(s, case))
    records, _ = run.timed_run(sndp, workload, tiny_cases("bd-grid"),
                               args("bd-grid"))
    assert records and seen == [[]] * len(records)


def test_missing_function_reports_absent(monkeypatch):
    monkeypatch.delattr(sndp.separation, "find_worst_attack")
    _, metrics, absent, _, _ = run.traced_run(
        sndp, WORKLOADS["cap-sweep"], tiny_cases("cap-sweep"), args("cap-sweep"))
    assert {"separation.worst.calls", "separation.worst.s"} <= set(absent)
    assert "separation.worst.calls" not in metrics
    assert "separation.mincut.calls" in metrics


def test_failed_op_is_recorded_and_the_run_goes_on():
    def explode(s, case):
        raise MemoryError("synthetic")

    workload = dataclasses.replace(WORKLOADS["bd-grid"], run=explode)
    records, _ = run.timed_run(sndp, workload, tiny_cases("bd-grid") * 3,
                               args("bd-grid"))
    assert [r.error for r in records] == ["MemoryError"] * 3


def test_check_flags_a_wrong_reference():
    workload = WORKLOADS["bd-grid"]
    (case,) = tiny_cases("bd-grid")
    good = sndp.solve_delayed(case.inst).objective
    case.reference = {"objective": good + 1.0}
    records, _ = run.timed_run(sndp, workload, [case], args("bd-grid"))
    run.check_records(sndp, workload, records)
    assert records[0].error == "mismatch"
    case.reference = {"objective": good}
    records, _ = run.timed_run(sndp, workload, [case], args("bd-grid"))
    run.check_records(sndp, workload, records)
    assert records[0].error == ""


def test_benchmark_json_matches_the_harness():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {name: unit for name, (unit, _) in spans.PER_LAYER.items()}


def test_references_match_every_pool():
    stored = json.loads(run.REFERENCES.read_text())
    for workload in WORKLOADS.values():
        assert {s.key for s in workload.pool} == set(stored[workload.name])
        assert len(workload.pool) % 2 == 0  # see run.op_median


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bd-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
