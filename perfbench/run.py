"""
The bperm benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it finds the program in src/ next
to this directory and builds nothing.  Each pass of the workload runs in a
fresh interpreter (worker.py).  Passes repeat in a closed loop while the
next one is expected to end within --seconds; at least one always runs.

--trace 0 reports the end-to-end metrics: medians over the passes of
wall_ref_s, cpu_ref_s and peak_rss_mb, and the median set-up time over the
passes and ten set-up-only interpreters, five before the passes and five
after.  wall_ref_s and cpu_ref_s are the pass's wall and CPU time scaled to a
reference machine speed, sampled while the pass runs (calibrate.py); the
unscaled wall_s and cpu_s are printed beside them.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, plus trace.overhead: traced wall_ref_s over
untraced wall_ref_s, minus one.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give each metric's median
and quartiles, the error rate, the environment, and every failed operation.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5  # set-up-only interpreters before the passes, and again after
TIME_LIMIT_S = 170  # a run must end well inside 180 s

END_TO_END = [("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
# Printed for reading, not reported: the unscaled times, and the speed
# relative to the reference that each command line ran at.
RAW = [("wall_s", "s"), ("cpu_s", "s"), ("speed", "ratio")]


class WorkerFailed(Exception):
    pass


def run_worker(arguments: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), *arguments]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkerFailed(f"worker timed out: {' '.join(arguments)}") from None
    finally:
        # Pool workers left behind by a crashed pass share the process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = output.strip().splitlines()
    try:
        if process.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise WorkerFailed(f"worker exited with status {process.returncode}: {' '.join(arguments)}")


def summarize(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def environment(args, jobs: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
        "note": "no frequency control; the main thread is pinned to one CPU only while it takes a speed sample",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bperm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bperm" / "__init__.py").is_file():
        print(f"perfbench: no bperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import bench_trace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    plan = workloads.build(args.workload, args.seed)
    env = environment(args, plan.jobs)
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups: list[float] = []
    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0

    def one_pass(trace: int) -> None:
        nonlocal attempted
        result = run_worker([*common, "--trace", str(trace)], deadline)
        passes.append(result)
        setups.append(result["setup_s"])
        attempted += result["attempted"]
        failures.extend(result["failures"])

    def probe_setup() -> None:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker([*common, "--setup-only"], deadline)["setup_s"])

    try:
        if args.trace:
            one_pass(0)
            one_pass(1)
        else:
            probe_setup()
            loop_end = min(time.monotonic() + args.seconds, deadline - 30)
            while True:
                one_pass(0)
                typical = statistics.median(p["elapsed_s"] for p in passes)
                if time.monotonic() + typical > loop_end:
                    break
            probe_setup()
    except WorkerFailed as exc:
        failures.append(str(exc))
        attempted += workloads.operation_count(plan)

    env["loadavg_end"] = os.getloadavg()
    env["passes"] = len(passes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env))
    metrics: dict[str, dict] = {}
    if args.trace and len(passes) == 2:
        untraced, traced = passes[0], passes[-1]
        layers = dict(traced["layers"])
        layers["trace.overhead"] = traced["wall_ref_s"] / untraced["wall_ref_s"] - 1
        units = {name: unit for name, unit, _ in bench_trace.LAYER_METRICS}
        units["trace.overhead"] = "ratio"
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:40} {value:.6g} {units[name]}")
        print(f"spans written to {traced['spans_file']}")
    elif passes and not args.trace:
        samples = {name: [p[name] for p in passes] for name, _ in END_TO_END + RAW}
        samples["setup_s"] = setups
        samples["speed"] = [speed for p in passes for speed in p["speed"]]
        for name, unit in END_TO_END + RAW:
            median, q1, q3 = summarize(samples[name])
            if (name, unit) in END_TO_END:
                metrics[name] = {"value": median, "unit": unit}
            print(f"{name:13} median={median:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"n={len(samples[name])} {unit}")
    failed = len(failures)
    attempted = max(attempted, failed, 1)
    print(f"error_rate   {failed}/{attempted} = {failed / attempted:.4f}")
    for failure in failures:
        print(f"FAIL {failure}")
    correct = failed == 0 and bool(passes)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
