import json
import re
from dataclasses import asdict, replace
from pathlib import Path
from types import FunctionType

import pytest

import bperm.harness
from bperm.classes import NotColayeredError
from bperm.enumeration import SizeCapExceededError
from bperm.harness import (
    CHECKS,
    CheckReport,
    CheckRow,
    UnknownCheckError,
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
        def crash(max_n, jobs):
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
        "check_id, predicate", [("thm-boolean", "is_boolean"), ("thm-free", "is_free")]
    )
    def test_structural_predicate_is_looked_up_at_call_time(
        self, monkeypatch, check_id, predicate
    ):
        # Tracers and mutation tests rebind module names; a predicate bound
        # into the registry when it was built would never see the rebinding.
        original = getattr(bperm.harness, predicate)
        calls = []

        def counting(w):
            calls.append(w)
            return original(w)

        monkeypatch.setattr(bperm.harness, predicate, counting)
        assert run_check(check_id, 2).status == "pass"
        assert len(calls) == 2 + 8  # every element of B_1 and B_2

    @pytest.mark.parametrize(
        "check_id", ["thm-central-binomial", "thm-fib-like", "thm-binomial-sum"]
    )
    def test_jobs_do_not_change_report(self, check_id):
        # Size 5 is the first that `_count_exhaustive` sends to the pool.
        serial = run_check(check_id, 5, jobs=1)
        parallel = run_check(check_id, 5, jobs=2)
        assert serial.rows == parallel.rows
        assert serial.status == parallel.status == "pass"


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
