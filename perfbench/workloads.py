"""
The benchmark's workloads: inputs built from the seed, and a closed loop
that sends them through `bperm.cli.main` and checks every result.

* verify       -- `bperm verify --format json --jobs 2` at default caps; one
                  operation per check.
* count-sparse -- global counts of n = 1..7 for two dihedral images each of
                  {321} and {132, 123}, in a seed-chosen order, jobs 2, a
                  cold memo pass then a warm one; one operation per
                  (pattern set, n).
* count-dense  -- jobs 1, n = 1..7: the global set {3412, 4231} and the
                  classical 11-pattern list characterizing the same class,
                  in a seed-chosen order.

README.md says why each workload exists and which layers it exercises.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass
from typing import Callable

import reference

WORKLOADS = ("verify", "count-sparse", "count-dense")
SIZES = tuple(range(1, 8))
SIZE_RANGE = f"{SIZES[0]}..{SIZES[-1]}"


def dihedral_image(word: tuple[int, ...], symmetry: int) -> tuple[int, ...]:
    """
    Image of a permutation's graph under one of the 8 symmetries of the
    square: bit 2 inverts, bit 0 reverses, bit 1 complements.
    """
    m = len(word)
    if symmetry & 4:
        inverse = [0] * m
        for position, value in enumerate(word, start=1):
            inverse[value - 1] = position
        word = tuple(inverse)
    if symmetry & 1:
        word = word[::-1]
    if symmetry & 2:
        word = tuple(m + 1 - value for value in word)
    return word


def distinct_images(words) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct dihedral images of a pattern set, each sorted."""
    return sorted({
        tuple(sorted(dihedral_image(word, symmetry) for word in words))
        for symmetry in range(8)
    })


def pattern_text(words) -> str:
    return ";".join(",".join(map(str, word)) for word in words)


@dataclass(frozen=True)
class Call:
    """One `bperm` command line; each of its operations is checked."""

    label: str
    argv: tuple[str, ...]
    memo: bool = False
    expected_counts: tuple[int, ...] = ()  # for n in SIZES; empty for verify


@dataclass(frozen=True)
class Plan:
    workload: str
    jobs: int
    calls: tuple[Call, ...]


def default_jobs() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def build(workload: str, seed: int) -> Plan:
    """The workload's command lines; the same seed gives the same plan."""
    rng = random.Random(seed)
    if workload == "verify":
        jobs = default_jobs()
        argv = ("verify", "--format", "json", "--jobs", str(jobs))
        return Plan(workload, jobs, (Call("verify", argv),))
    if workload == "count-sparse":
        jobs = default_jobs()
        # Both images of {321}, and a seed-chosen image of {132, 123} with its
        # reverse-complement, which has the same avoiders.  The images of
        # {132, 123} differ in cost, but each image and its
        # reverse-complement cost about the same together as the other pair.
        sparse = rng.choice(distinct_images([(1, 3, 2), (1, 2, 3)]))
        reflected = tuple(sorted(dihedral_image(word, 3) for word in sparse))
        classes = [(pattern_text(image), reference.central_binomial)
                   for image in distinct_images([(3, 2, 1)])]
        classes += [(pattern_text(image), reference.fib_like_count)
                    for image in (sparse, reflected)]
        rng.shuffle(classes)
        calls = tuple(
            Call(
                f"{memo_state} {patterns}",
                ("count", "--mode", "global", "--format", "json", "--jobs", str(jobs),
                 f"--patterns={patterns}", "--n", SIZE_RANGE),
                memo=True,
                expected_counts=tuple(formula(n) for n in SIZES),
            )
            for memo_state in ("cold", "warm")
            for patterns, formula in classes
        )
        return Plan(workload, jobs, calls)
    if workload == "count-dense":
        # The seed orders the two halves but keeps the pattern set: the
        # other image, {1324, 2143}, costs about 25% less at n = 7, which
        # would make run-to-run spread depend on the seed.
        halves = [("global", "3,4,1,2;4,2,3,1"), ("classical", reference.SMOOTH_BC_CLASSICAL)]
        rng.shuffle(halves)
        calls = tuple(
            Call(
                f"{mode} {text}",
                ("count", "--mode", mode, "--format", "json", "--jobs", "1",
                 f"--patterns={text}", "--n", SIZE_RANGE),
                expected_counts=reference.SMOOTH_BC_COUNTS,
            )
            for mode, text in halves
        )
        return Plan(workload, 1, calls)
    raise ValueError(f"unknown workload {workload!r}")


def invoke(main: Callable, argv: tuple[str, ...]) -> tuple[str, object, str | None]:
    """Run one command line in-process: its stdout, exit status, and error."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the run goes on; the operations count as failed
        return buffer.getvalue(), None, traceback.format_exc(limit=3).strip()
    return buffer.getvalue(), code or 0, None


def check_counts(call: Call, output: str) -> list[str | None]:
    """One entry per size: None if the count is right, else what went wrong."""
    try:
        observed = {int(row["n"]): row["count"] for row in json.loads(output)}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{call.label}: unreadable output ({exc})"] * len(SIZES)
    results = []
    for n, expected in zip(SIZES, call.expected_counts):
        got = observed.get(n)
        ok = got == str(expected)
        results.append(None if ok else f"{call.label} n={n}: expected {expected}, got {got}")
    return results


def check_verify(output: str) -> list[str | None]:
    """One entry per check: status, cap and every row against the reference."""
    try:
        reports = {report["check"]: report for report in json.loads(output)}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify: unreadable output ({exc})"] * len(reference.CHECK_CAPS)
    results = []
    for check in sorted(reference.CHECK_CAPS):
        report = reports.pop(check, None)
        if report is None:
            results.append(f"{check}: missing from the report")
            continue
        problems = []
        if report.get("status") != reference.EXPECTED_STATUS[check]:
            problems.append(f"status {report.get('status')}, expected {reference.EXPECTED_STATUS[check]}")
        if report.get("max_n") != reference.CHECK_CAPS[check]:
            problems.append(f"max_n {report.get('max_n')}, expected {reference.CHECK_CAPS[check]}")
        rows = [[row.get("n"), row.get("expected"), row.get("observed")]
                for row in report.get("rows", [])]
        if rows != reference.VERIFY_ROWS[check]:
            problems.append("rows differ from the reference")
        if check == "thm-central-binomial":
            for n, expected, observed in rows[:7]:
                if not expected == observed == str(reference.central_binomial(n)):
                    problems.append(f"n={n}: C(2n,n) is {reference.central_binomial(n)}")
        results.append(f"{check}: " + "; ".join(problems) if problems else None)
    results.extend(f"{check}: unexpected check" for check in sorted(reports))
    return results


def operation_count(plan: Plan) -> int:
    per_call = len(reference.CHECK_CAPS) if plan.workload == "verify" else len(SIZES)
    return per_call * len(plan.calls)


def run_plan(
    plan: Plan, main: Callable, memo_path: str, timed: Callable = lambda run: run()
) -> list[str | None]:
    """
    Run every call in order (a closed loop) and return one entry per
    operation: None when correct, else the failure.  `timed(run)` runs one
    command line and returns what `run()` returns; the caller times it there.
    """
    results: list[str | None] = []
    per_call = operation_count(plan) // len(plan.calls)
    for call in plan.calls:
        if call.memo:
            os.environ["BPERM_CACHE"] = memo_path
        else:
            os.environ.pop("BPERM_CACHE", None)
        output, code, error = timed(lambda: invoke(main, call.argv))
        failed_call = [f"{call.label}: {error or f'exit status {code}'}"] * per_call
        if error is not None:
            results.extend(failed_call)
        elif plan.workload == "verify":
            # Exit status 1 means a theorem failed, which check_verify reports.
            checked = check_verify(output)
            if code != 0 and all(result is None for result in checked):
                checked.append(f"{call.label}: exit status {code}")
            results.extend(checked)
        elif code != 0:
            results.extend(failed_call)
        else:
            results.extend(check_counts(call, output))
    os.environ.pop("BPERM_CACHE", None)
    return results
