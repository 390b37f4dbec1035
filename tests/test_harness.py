import json
import multiprocessing
import re
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import FunctionType

import pytest

import bperm.enumeration
import bperm.harness
from bperm.classes import NotColayeredError
from bperm.enumeration import SizeCapExceededError
from bperm.harness import (
    CHECKS,
    CheckReport,
    CheckRow,
    UnknownCheckError,
    _set_rows,
    any_theorem_failed,
    run_all,
    run_check,
)

# Every check's status and rows from run_all(3).  Reshaping the harness code
# must leave them as they are, so any change to a row shows up here.
ROW_SNAPSHOT = Path(__file__).with_name("verify_rows_max_n_3.json")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def desk_reports():
    return run_all(3)


class TestRegistry:
    def test_expected_checks_registered(self):
        expected = {
            "thm-vexillary",
            "thm-boolean",
            "thm-free",
            "thm-smooth-bc",
            "thm-central-binomial",
            "thm-greene-counts",
            "thm-fib-like",
            "thm-binomial-sum",
            "prop-es-unsigned",
            "prop-es-signed",
            "lemma-symmetry",
            "cor-iota",
            "prop-gl-basis",
            "conj-grassmannian",
            "conj-smooth-count",
            "oq-gao-hanni",
            "oq-a115197",
            "oq-two-boolean",
        }
        assert expected == set(CHECKS)

    def test_ids_unique_and_caps_bounded(self):
        for check_id, check in CHECKS.items():
            assert check.id == check_id
            assert 0 < check.max_n <= 8

    def test_each_check_is_one_named_function(self):
        # A check is declared once, as a decorated function of the module;
        # a partial or lambda in the registry would be a second declaration.
        runs = [check.run for check in CHECKS.values()]
        for run in runs:
            assert type(run) is FunctionType
            assert run.__module__ == "bperm.harness"
            assert getattr(bperm.harness, run.__name__) is run
        assert len(set(runs)) == len(runs)

    def test_readme_lists_exactly_the_registered_checks(self):
        section = README.read_text(encoding="utf-8").split("## The checks", 1)[1]
        section = section.split("\n## ", 1)[0]
        id_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        documented = [check_id for cell in id_cells for check_id in re.findall(r"`(.+?)`", cell)]
        assert sorted(documented) == sorted(CHECKS)

    def test_kinds(self):
        assert CHECKS["thm-free"].kind == "theorem"
        assert CHECKS["prop-es-signed"].kind == "theorem"
        assert CHECKS["lemma-symmetry"].kind == "theorem"
        assert CHECKS["cor-iota"].kind == "theorem"
        assert CHECKS["conj-grassmannian"].kind == "conjecture"
        assert CHECKS["oq-a115197"].kind == "conjecture"


class TestRunCheck:
    def test_central_binomial_rows(self):
        report = run_check("thm-central-binomial", 5)
        assert report.status == "pass"
        count_rows = [row for row in report.rows if "B=" not in row.expected]
        assert [(row.n, row.expected) for row in count_rows] == [
            (1, "2"),
            (2, "6"),
            (3, "20"),
            (4, "70"),
            (5, "252"),
        ]

    def test_vexillary_passes(self):
        report = run_check("thm-vexillary", 4)
        assert report.status == "pass"
        assert report.max_n == 4

    def test_gao_hanni_holds(self):
        report = run_check("oq-gao-hanni", 4)
        assert report.status == "conjecture-holds"
        assert [row.observed for row in report.rows] == ["2", "7", "33", "183"]

    def test_a115197_prefix(self):
        report = run_check("oq-a115197", 4)
        assert report.status == "conjecture-holds"
        assert [row.expected for row in report.rows] == ["2", "6", "22", "90"]

    def test_two_boolean_is_informational_counterexample(self):
        # The longest element of the rank-2 group: every reduced word uses
        # each generator exactly twice, yet the mirror word is a 4321 pattern.
        report = run_check("oq-two-boolean", 2)
        assert report.status == "conjecture-fails"
        assert any(row.expected != row.observed for row in report.rows)

    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            run_check("thm-nonexistent", 3)

    def test_size_cap(self):
        with pytest.raises(SizeCapExceededError):
            run_check("thm-vexillary", 9)
        with pytest.raises(ValueError):
            run_check("thm-vexillary", -1)

    def test_max_n_zero_is_rejected(self):
        # A check that compared no size has shown nothing, so it may not pass.
        with pytest.raises(ValueError, match="max_n 0 checks nothing"):
            run_check("thm-vexillary", 0)

    @pytest.mark.parametrize(
        "check_id, status", [("thm-binomial-sum", "fail"), ("oq-a115197", "conjecture-fails")]
    )
    def test_crashing_check_fails_with_a_row_naming_the_error(
        self, monkeypatch, check_id, status
    ):
        def crash(max_n):
            raise NotColayeredError("3,1,4,2 is not colayered")

        monkeypatch.setitem(CHECKS, check_id, replace(CHECKS[check_id], run=crash))
        report = run_check(check_id, 3)
        assert report.status == status
        assert report.max_n == 3
        assert report.rows[-1].expected == "no error"
        assert report.rows[-1].observed == "NotColayeredError: 3,1,4,2 is not colayered"

    def test_failing_status_requires_mismatching_row(self):
        for check_id in CHECKS:
            report = run_check(check_id, 2)
            mismatches = [row for row in report.rows if row.expected != row.observed]
            if report.status in ("fail", "conjecture-fails"):
                assert mismatches
            else:
                assert not mismatches

    @pytest.mark.parametrize(
        "check_id, structural, expected_calls",
        [
            ("thm-boolean", "boolean_elements", 1),
            ("thm-free", "free_elements", 1),
            ("conj-grassmannian", "grassmannian_elements", 1),
            ("thm-smooth-bc", "is_smooth_BC", 2 + 8),  # every element of B_1 and B_2
        ],
        ids=["thm-boolean", "thm-free", "conj-grassmannian", "thm-smooth-bc"],
    )
    def test_structural_route_is_looked_up_at_call_time(
        self, monkeypatch, check_id, structural, expected_calls
    ):
        # Tracers and mutation tests rebind module names; a generator or
        # predicate bound into the registry when it was built would never see
        # the rebinding.
        original = getattr(bperm.harness, structural)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bperm.harness, structural, counting)
        assert run_check(check_id, 2).ok()
        assert len(calls) == expected_calls

    @pytest.mark.parametrize(
        "check_id, max_n, walks",
        [
            # Two pattern routes, {3412, 4231} and the classical 11-list, each
            # first fitting at size 2, so walked from B_1 to size max_n - 1;
            # the structural route walks nothing.
            ("thm-smooth-bc", 5, 2),
            # One route per nonempty set of S_3 patterns, 63 in all, from size 2.
            ("lemma-symmetry", 4, 63),
        ],
    )
    def test_each_pattern_route_is_grown_once(self, monkeypatch, check_id, max_n, walks):
        walked = Counter()
        original = bperm.enumeration.walk

        def counted(start, top, whole, anchored):
            walked[start, top] += 1
            return original(start, top, whole, anchored)

        monkeypatch.setattr(bperm.enumeration, "walk", counted)
        assert run_check(check_id, max_n).status == "pass"
        assert walked == {(1, max_n - 1): walks}

    def test_iota_draws_first_halves_not_all_of_s_2n(self, monkeypatch):
        # The 30 test patterns of sizes 3 and 4, then P(2n, n) first halves of
        # rc-invariant words for n = 1..4; all of S_2n would be 41,096 tuples.
        drawn = 0
        original = bperm.harness.iter_permutations

        def counted(*args):
            nonlocal drawn
            for word in original(*args):
                drawn += 1
                yield word

        monkeypatch.setattr(bperm.harness, "iter_permutations", counted)
        assert run_check("cor-iota", 4).status == "pass"
        assert drawn == 30 + 2 + 12 + 120 + 1680


class TestRowBuilders:
    def test_set_rows_name_each_differing_alternate_in_alternate_order(self):
        reference = {1: {(1,)}, 2: {(1, 2), (2, 1)}, 3: set()}
        alternates = {
            "zeta": {1: {(1,)}, 2: {(1, 2)}, 3: set()},
            "alpha": {1: {(-1,)}, 2: {(1, 2), (2, 1), (-1, 2)}, 3: set()},
        }
        assert _set_rows(reference, alternates) == [
            CheckRow(1, "1", "1 mismatch[alpha:1(delta=2)]"),
            CheckRow(2, "2", "2 mismatch[zeta:1(delta=1),alpha:3(delta=1)]"),
            CheckRow(3, "0", "0"),
        ]


class TestRunAll:
    def test_runs_everything_in_id_order(self):
        reports = run_all(2)
        assert [r.check for r in reports] == sorted(CHECKS)
        assert all(r.max_n <= 2 for r in reports)

    def test_no_theorem_failures_at_desk_scale(self, desk_reports):
        theorem_reports = [r for r in desk_reports if CHECKS[r.check].kind == "theorem"]
        assert all(r.status == "pass" for r in theorem_reports)
        assert not any_theorem_failed(desk_reports)

    def test_rows_match_snapshot(self, desk_reports):
        snapshot = json.loads(ROW_SNAPSHOT.read_text(encoding="utf-8"))
        observed = {
            r.check: {
                "status": r.status,
                "rows": [[row.n, row.expected, row.observed] for row in r.rows],
            }
            for r in desk_reports
        }
        assert observed == snapshot

    def test_jobs_do_not_change_the_report(self):
        # Cap 5 is POOL_MIN_SIZE, the first size at which a count may pool:
        # each check runs in its worker as it runs alone, starting no pool.
        serial = run_all(5, jobs=1)
        pooled = run_all(5, jobs=2)
        assert multiprocessing.active_children() == []
        assert [replace(r, millis=0) for r in pooled] == [replace(r, millis=0) for r in serial]

    def test_pool_has_at_most_one_process_per_check(self, monkeypatch):
        asked = []

        class InlinePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def starmap(self, func, tasks, chunksize):
                return [func(*task) for task in tasks]

        monkeypatch.setattr(bperm.harness, "Pool", InlinePool)
        pooled = run_all(2, jobs=64)
        assert asked == [len(CHECKS)]
        assert [replace(r, millis=0) for r in pooled] == [replace(r, millis=0) for r in run_all(2)]

    def test_max_n_zero_is_rejected(self):
        with pytest.raises(ValueError, match="max_n 0 checks nothing"):
            run_all(0)

    def test_max_n_above_the_size_cap_is_rejected_before_any_check_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(bperm.harness, "run_check", lambda *args: ran.append(args))
        with pytest.raises(SizeCapExceededError, match="max_n 99 exceeds cap 8"):
            run_all(99)
        assert ran == []


class TestReportSerialization:
    def test_json_schema(self):
        report = run_check("oq-a115197", 3)
        data = json.loads(json.dumps(asdict(report)))
        assert set(data) == {"check", "status", "max_n", "rows", "millis"}
        assert data["check"] == "oq-a115197"
        assert isinstance(data["max_n"], int)
        assert isinstance(data["millis"], int)
        for row in data["rows"]:
            assert set(row) == {"n", "expected", "observed"}
            assert isinstance(row["n"], int)
            assert isinstance(row["expected"], str)
            assert isinstance(row["observed"], str)

    def test_counts_serialized_as_strings(self):
        report = run_check("thm-central-binomial", 3)
        data = asdict(report)
        assert all(isinstance(row["expected"], str) for row in data["rows"])

    def test_manual_report_round_trip(self):
        report = CheckReport(
            check="demo",
            status="fail",
            max_n=2,
            rows=(CheckRow(1, "1", "2"),),
            millis=5,
        )
        assert json.loads(json.dumps(asdict(report))) == {
            "check": "demo",
            "status": "fail",
            "max_n": 2,
            "rows": [{"n": 1, "expected": "1", "observed": "2"}],
            "millis": 5,
        }
        assert not report.ok()
