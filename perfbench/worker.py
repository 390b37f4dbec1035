"""
One pass of one workload in a fresh interpreter, so that set-up time and
peak memory belong to this pass alone.  `run.py` starts it; it prints one
JSON object as its last line of output.

    python3 perfbench/worker.py --workload count-sparse --seed 1 --trace 0
    python3 perfbench/worker.py --workload verify --seed 1 --setup-only

Set-up is importing bperm and building the workload's inputs.  The timed
pass is the sum of the workload's `bperm` command lines, less the time spent
sampling the machine's speed (calibrate.py) while they run.  wall_ref_s and
cpu_ref_s scale each command line's time by the mean speed sampled during it,
relative to the reference speed.  With `--trace 1` the pass
runs under the per-layer tracer, and its spans are written to .perfbench-out/
at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import bench_trace
import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


class PassClock:
    """Times each command line of a pass, and the machine's speed while it runs."""

    def __init__(self) -> None:
        self.sampler = calibrate.Sampler()
        # Wall and CPU seconds of each command line, and the speeds that scale them.
        self.calls: list[tuple[float, float, tuple[float, float]]] = []

    def timed(self, run):
        sampler = self.sampler
        sampler.begin()
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            return run()
        finally:
            sampler.disarm()
            wall = time.perf_counter() - wall - sampler.own_wall_s
            cpu = cpu_seconds() - cpu - sampler.own_cpu_s
            self.calls.append((wall, cpu, sampler.finish()))

    def metrics(self) -> dict[str, float]:
        return {
            "wall_ref_s": sum(wall * speed for wall, _, (speed, _) in self.calls),
            "cpu_ref_s": sum(cpu * speed for _, cpu, (_, speed) in self.calls),
            "wall_s": sum(wall for wall, _, _ in self.calls),
            "cpu_s": sum(cpu for _, cpu, _ in self.calls),
            "speed": [speed for _, _, (speed, _) in self.calls],
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import bperm.cli

    if not Path(bperm.cli.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"imported bperm from {bperm.cli.__file__}, not from {source}")
    plan = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="memo-")
    memo_path = os.path.join(scratch, "counts.memo")
    setup_s = time.perf_counter() - start
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = bench_trace.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        clock = PassClock()
        elapsed = time.perf_counter()
        try:
            # Look `main` up at each call, so the tracer's binding is used.
            results = workloads.run_plan(
                plan, lambda argv: bperm.cli.main(argv), memo_path, clock.timed
            )
        finally:
            if tracer:
                tracer.uninstall()
        result = {
            "setup_s": setup_s,
            "elapsed_s": time.perf_counter() - elapsed,
            **clock.metrics(),
            "peak_rss_mb": peak_rss_mb(),
            "attempted": len(results),
            "failures": [failure for failure in results if failure is not None],
        }
        if tracer:
            result["layers"] = tracer.metrics()
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write_spans(str(spans))
            result["spans_file"] = str(spans.relative_to(ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
