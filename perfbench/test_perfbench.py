"""
Tests of the benchmark itself (not collected by the project's test suite):

    python3 -m pytest -q perfbench/test_perfbench.py

The counter tests run small traced commands in-process; the per-layer
counters must repeat exactly, at any --jobs, because they are the regression
signal that wall time on a shared machine cannot give.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bperm.cli  # noqa: E402

import bench_trace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def traced(argv: tuple[str, ...], memo_path: str | None = None) -> dict:
    """Per-layer metrics of one command line run under the tracer."""
    if memo_path:
        os.environ["BPERM_CACHE"] = memo_path
    try:
        with bench_trace.Tracer() as tracer:
            output, code, error = workloads.invoke(lambda args: bperm.cli.main(args), argv)
    finally:
        os.environ.pop("BPERM_CACHE", None)
    assert (code, error) == (0, None)
    metrics = tracer.metrics()
    metrics["output"] = output
    return metrics


def results(metrics: dict) -> list:
    """The command's JSON output without its timings."""
    rows = json.loads(metrics["output"])
    for row in rows:
        row.pop("millis", None)
    return rows


def counters(metrics: dict) -> dict:
    return {name: metrics[name] for name in bench_trace.COUNTER_METRICS}


def count_argv(patterns: str, jobs: int, sizes: str = "1..5") -> tuple[str, ...]:
    return ("count", "--mode", "global", "--format", "json", "--jobs", str(jobs),
            f"--patterns={patterns}", "--n", sizes)


def verify_argv(check: str, max_n: int, jobs: int) -> tuple[str, ...]:
    return ("verify", "--check", check, "--max-n", str(max_n), "--format", "json",
            "--jobs", str(jobs))


def test_references_are_the_paper_formulas():
    assert [reference.order_k_recurrence(2, i) for i in range(1, 9)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [reference.fib_like_count(n) for n in range(1, 8)] == [2, 3, 5, 8, 13, 21, 34]
    assert [reference.central_binomial(n) for n in range(1, 8)] == [2, 6, 20, 70, 252, 924, 3432]
    statuses = json.loads((HERE / "verify_reference.json").read_text())
    assert {check: entry["status"] for check, entry in statuses.items()} == reference.EXPECTED_STATUS
    assert {check: entry["max_n"] for check, entry in statuses.items()} == reference.CHECK_CAPS


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layers = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    assert layers == [list(m) for m in bench_trace.LAYER_METRICS] + [
        ["trace.overhead", "ratio", "lower"]]
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]


def test_inputs_depend_only_on_the_seed():
    images = [workloads.pattern_text(image)
              for image in workloads.distinct_images([(1, 3, 2), (1, 2, 3)])]
    assert images == ["1,2,3;1,3,2", "1,2,3;2,1,3", "2,3,1;3,2,1", "3,1,2;3,2,1"]
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
    plan = workloads.build("count-sparse", 7)
    cold = [call for call in plan.calls if call.label.startswith("cold")]
    assert [call.argv for call in cold] == [
        call.argv for call in plan.calls if call.label.startswith("warm")]
    assert sorted(len(call.expected_counts) for call in cold) == [7] * 4


def test_checkers_count_every_wrong_result():
    good = [
        {"check": check, "status": reference.EXPECTED_STATUS[check],
         "max_n": reference.CHECK_CAPS[check],
         "rows": [{"n": n, "expected": e, "observed": o} for n, e, o in rows]}
        for check, rows in reference.VERIFY_ROWS.items()
    ]
    assert workloads.check_verify(json.dumps(good)) == [None] * 18
    good[0]["status"] = "fail"
    good[1]["rows"][0]["observed"] = "999"
    bad = workloads.check_verify(json.dumps(good + [dict(good[2], check="new-check")]))
    assert sum(result is not None for result in bad) == 3 and len(bad) == 19
    unreadable = workloads.check_verify("not json")
    assert len(unreadable) == 18 and None not in unreadable

    call = workloads.build("count-dense", 1).calls[0]
    assert call.expected_counts == reference.SMOOTH_BC_COUNTS
    rows = [{"n": n, "count": str(c)} for n, c in zip(workloads.SIZES, reference.SMOOTH_BC_COUNTS)]
    assert workloads.check_counts(call, json.dumps(rows)) == [None] * 7
    rows[6]["count"] = "6653"
    assert workloads.check_counts(call, json.dumps(rows))[6].endswith("expected 6652, got 6653")


def test_pass_times_are_scaled_by_the_speed_sampled_during_each_call(monkeypatch):
    import calibrate
    import worker

    loops = iter([(0.006, 0.003), (0.002, 0.001)])
    monkeypatch.setattr(calibrate, "loop_seconds", lambda: next(loops))
    monkeypatch.setattr(calibrate, "REFERENCE_S", 0.003)
    clock = worker.PassClock()
    # One sample before the call and one after; a fast call sees no timer tick.
    assert clock.timed(lambda: "output") == "output"
    wall, cpu, (wall_speed, cpu_speed) = clock.calls[0]
    assert wall_speed == pytest.approx((0.5 + 1.5) / 2)
    assert cpu_speed == pytest.approx((1.0 + 3.0) / 2)
    clock.calls = [(2.0, 1.0, (1.0, 1.0)), (5.0, 4.0, (0.5, 0.5))]
    metrics = clock.metrics()
    assert (metrics["wall_ref_s"], metrics["cpu_ref_s"]) == (4.5, 3.0)
    assert (metrics["wall_s"], metrics["cpu_s"]) == (7.0, 5.0)


def test_sampler_runs_on_the_timer_and_restores_the_affinity():
    import calibrate

    cpus = os.sched_getaffinity(0)
    sampler = calibrate.Sampler()
    sampler.begin()
    deadline = time.perf_counter() + 3 * calibrate.SAMPLE_INTERVAL_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    sampler.disarm()
    assert len(sampler.wall_loops) == len(sampler.cpu_loops) >= 3
    assert sampler.own_wall_s > 0
    assert min(sampler.finish()) > 0
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize(
    "argv_at_jobs",
    [
        lambda jobs: count_argv("1,2,3;1,3,2", jobs),
        lambda jobs: count_argv("3,2,1", jobs),
        lambda jobs: verify_argv("thm-central-binomial", 4, jobs),
        lambda jobs: verify_argv("lemma-symmetry", 2, jobs),
    ],
)
def test_counters_repeat_across_runs_and_jobs(argv_at_jobs):
    first = traced(argv_at_jobs(2))
    again = traced(argv_at_jobs(2))
    serial = traced(argv_at_jobs(1))
    assert results(first) == results(again) == results(serial)
    assert counters(first) == counters(again) == counters(serial)
    assert first["core.windows"] > 0 and first["patterns.probes"] > 0
    assert first["enumeration.avoiders_per_window"] == serial["enumeration.avoiders_per_window"]


def test_pool_metrics_come_from_every_branch():
    pooled = traced(count_argv("3,2,1", 2))
    serial = traced(count_argv("3,2,1", 1))
    assert 0 < pooled["enumeration.pool_utilization"] <= 1.0
    assert serial["enumeration.pool_utilization"] == 0.0
    assert pooled["enumeration.branch_imbalance"] >= 1.0
    assert serial["enumeration.branch_imbalance"] >= 1.0


def test_warm_memo_pass_has_no_misses(tmp_path):
    memo = str(tmp_path / "counts.memo")
    cold = traced(count_argv("3,2,1", 2), memo)
    warm = traced(count_argv("3,2,1", 2), memo)
    assert (cold["enumeration.memo_hits"], cold["enumeration.memo_misses"]) == (0, 5)
    assert (warm["enumeration.memo_hits"], warm["enumeration.memo_misses"]) == (5, 0)
    assert warm["core.windows"] == 0 and warm["output"] == cold["output"]


def test_tracer_restores_every_binding():
    before = {name: getattr(bperm.cli, name) for name in ("main", "run_all", "count_sequence")}
    kernel = bperm.patterns.word_contains
    with bench_trace.Tracer():
        assert bperm.patterns.word_contains is not kernel
        assert bperm.cli.main is not before["main"]
    assert bperm.patterns.word_contains is kernel
    assert {name: getattr(bperm.cli, name) for name in before} == before


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
