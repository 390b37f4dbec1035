import json
from dataclasses import replace

import pytest

from bperm.classes import (
    is_bigrassmannian,
    is_boolean,
    is_free,
    is_grassmannian,
    is_smooth_B,
    is_smooth_BC,
    is_smooth_C,
    is_vexillary,
)
from bperm.cli import PROPERTIES, main, parse_size_range
from bperm.core import signed_permutations

# Each `list` property's predicate, tested on every element: a route apart
# from the pattern list that `list` walks.
PREDICATES = {
    "vexillary": is_vexillary,
    "boolean": is_boolean,
    "free": is_free,
    "smooth-b": is_smooth_B,
    "smooth-c": is_smooth_C,
    "smooth-bc": is_smooth_BC,
    "grassmannian": is_grassmannian,
    "bigrassmannian": is_bigrassmannian,
}

# `tableaux` output, one tableau per line in generation order.
STANDARD_LISTINGS = {
    "3,2": "1,2,3/4,5\n1,2,4/3,5\n1,2,5/3,4\n1,3,4/2,5\n1,3,5/2,4\n",
    "2,2,1": "1,2/3,4/5\n1,2/3,5/4\n1,3/2,4/5\n1,3/2,5/4\n1,4/2,5/3\n",
    "3,1,1": "1,2,3/4/5\n1,2,4/3/5\n1,2,5/3/4\n1,3,4/2/5\n1,3,5/2/4\n1,4,5/2/3\n",
}

# `tableaux --domino` output, one tableau per line in generation order.
DOMINO_LISTINGS = {
    "4,2": "1,1,2,2/3,3\n1,1,3,3/2,2\n1,2,3,3/1,2\n",
    "3,3": "1,1,3/2,2,3\n1,2,2/1,3,3\n1,2,3/1,2,3\n",
    "4,2,2": (
        "1,1,2,2/3,3/4,4\n1,1,2,2/3,4/3,4\n1,1,3,3/2,2/4,4\n1,1,4,4/2,2/3,3\n"
        "1,1,3,3/2,4/2,4\n1,1,4,4/2,3/2,3\n1,2,3,3/1,2/4,4\n1,2,4,4/1,2/3,3\n"
    ),
    "3,3,1,1": (
        "1,1,3/2,2,3/4/4\n1,1,4/2,2,4/3/3\n1,2,2/1,3,3/4/4\n1,2,2/1,4,4/3/3\n"
        "1,2,3/1,2,3/4/4\n1,2,4/1,2,4/3/3\n1,3,3/1,4,4/2/2\n1,3,4/1,3,4/2/2\n"
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParseSizeRange:
    def test_range(self):
        assert list(parse_size_range("1..4")) == [1, 2, 3, 4]

    def test_single(self):
        assert list(parse_size_range("3")) == [3]

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            parse_size_range("4..1")
        with pytest.raises(ValueError):
            parse_size_range("x")


class TestCount:
    def test_csv_contract(self, capsys):
        code, out = run_cli(
            capsys, "count", "--patterns", "3,2,1", "--mode", "global", "--n", "1..4"
        )
        assert code == 0
        assert out == "n,count\n1,2\n2,6\n3,20\n4,70\n"

    def test_json_counts_are_strings(self, capsys):
        code, out = run_cli(
            capsys, "count", "--patterns", "3,2,1", "--n", "1..3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {"n": 1, "count": "2"},
            {"n": 2, "count": "6"},
            {"n": 3, "count": "20"},
        ]

    def test_classical_mode(self, capsys):
        code, out = run_cli(
            capsys, "count", "--patterns", "-1", "--mode", "classical", "--n", "1..3"
        )
        assert code == 0
        assert out == "n,count\n1,1\n2,2\n3,6\n"

    def test_jobs_flag_matches_serial(self, capsys):
        _, serial = run_cli(capsys, "count", "--patterns", "1,3,2", "--n", "1..5")
        _, parallel = run_cli(
            capsys, "count", "--patterns", "1,3,2", "--n", "1..5", "--jobs", "2"
        )
        assert serial == parallel

    def test_sequence_alias_renders_table(self, capsys):
        code, out = run_cli(capsys, "sequence", "--patterns", "3,2,1", "--n", "1..3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# 3,2,1 (global, brute-force)"
        assert [line.split() for line in lines[1:]] == [
            ["1", "2"],
            ["2", "6"],
            ["3", "20"],
        ]

    def test_cache_env_used(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "memo.txt"
        monkeypatch.setenv("BPERM_CACHE", str(cache))
        code, first = run_cli(capsys, "count", "--patterns", "3,2,1", "--n", "1..3")
        assert code == 0
        assert cache.exists()
        text = cache.read_text()
        assert "3,2,1|global|3|20" in text
        code, second = run_cli(capsys, "count", "--patterns", "3,2,1", "--n", "1..3")
        assert second == first

    def test_malformed_memo_lines_are_skipped_and_recomputed(
        self, capsys, tmp_path, monkeypatch
    ):
        cache = tmp_path / "memo.txt"
        cache.write_text("garbage\n3,2,1|global|1|2\n3,2,1|global|2|notanint\n")
        monkeypatch.setenv("BPERM_CACHE", str(cache))
        code = main(["count", "--patterns", "3,2,1", "--n", "1..3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "n,count\n1,2\n2,6\n3,20\n"
        assert captured.err.count("\n") == 1 and "skipped 2 malformed line(s)" in captured.err
        memo = "3,2,1|global|1|2\n3,2,1|global|2|6\n3,2,1|global|3|20\n"
        assert cache.read_text() == memo
        # With every requested count present the bad line still goes at once,
        # so the run after it warns nothing.
        cache.write_text(memo + "garbage\n")
        for warnings in (1, 0):
            code = main(["count", "--patterns", "3,2,1", "--n", "1..3"])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.out == "n,count\n1,2\n2,6\n3,20\n"
            assert captured.err.count("\n") == warnings
            assert cache.read_text() == memo

    def test_memo_path_naming_a_directory_is_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BPERM_CACHE", str(tmp_path))
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "--patterns", "3,2,1", "--n", "1..3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == f"bperm: memo {tmp_path}: cannot read (Is a directory)\n"

    def test_memo_path_beneath_a_file_is_usage_error(self, capsys, tmp_path, monkeypatch):
        plain = tmp_path / "plain"
        plain.write_text("")
        memo = plain / "memo.txt"
        monkeypatch.setenv("BPERM_CACHE", str(memo))
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "--patterns", "3,2,1", "--n", "1..3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == f"bperm: memo {memo}: cannot read (Not a directory)\n"

    def test_internal_key_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # `--check` and `--property` are guarded by argparse choices, so a
        # KeyError past parsing is a fault in the program and must propagate.
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr("bperm.cli.count_sequence", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["count", "--patterns", "3,2,1", "--n", "1..3"])
        assert capsys.readouterr().err == ""


class TestListBasisTableaux:
    def test_list_free_elements(self, capsys):
        code, out = run_cli(capsys, "list", "--property", "free", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["-1,2", "1,2", "2,1"]

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_list_is_the_lexicographic_whole_group_filter(self, capsys, name):
        assert set(PREDICATES) == set(PROPERTIES)
        for n in range(6):
            code, out = run_cli(capsys, "list", "--property", name, "--n", str(n))
            assert code == 0
            predicate = PREDICATES[name]
            assert out == "".join(f"{w}\n" for w in signed_permutations(n) if predicate(w))

    @pytest.mark.parametrize(
        "name, lines",
        [("free", 55), ("boolean", 1597), ("grassmannian", 6553), ("bigrassmannian", 415)],
    )
    def test_list_at_size_8_walks_only_the_class(self, capsys, name, lines):
        # A whole-group scan of B_8 (10,321,920 elements) would take minutes.
        code, out = run_cli(capsys, "list", "--property", name, "--n", "8")
        assert code == 0
        assert len(out.splitlines()) == lines

    @pytest.mark.parametrize("n", ["-1", "9"])
    def test_list_size_out_of_range_is_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as excinfo:
            main(["list", "--property", "free", "--n", n])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == f"bperm: --n must be between 0 and 8, not {n}\n"

    def test_basis_output(self, capsys):
        code, out = run_cli(capsys, "basis", "--patterns", "2,1,4,3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0] == "2,1"

    def test_tableaux_standard(self, capsys):
        code, out = run_cli(capsys, "tableaux", "--shape", "2,1")
        assert code == 0
        assert sorted(out.splitlines()) == ["1,2/3", "1,3/2"]

    def test_tableaux_domino_count(self, capsys):
        code, out = run_cli(
            capsys, "tableaux", "--shape", "2,2", "--domino", "--count"
        )
        assert code == 0
        assert out.strip() == "2"

    @pytest.mark.parametrize("shape", STANDARD_LISTINGS)
    def test_tableaux_standard_listing(self, capsys, shape):
        out = run_cli(capsys, "tableaux", "--shape", shape)
        assert out == (0, STANDARD_LISTINGS[shape])

    @pytest.mark.parametrize("shape", DOMINO_LISTINGS)
    def test_tableaux_domino_listing(self, capsys, shape):
        out = run_cli(capsys, "tableaux", "--shape", shape, "--domino")
        assert out == (0, DOMINO_LISTINGS[shape])

    @pytest.mark.parametrize("shape", ["", "1", "2,1", "3,2", "2,2,1", "4,2", "3,3"])
    @pytest.mark.parametrize("domino", [False, True])
    def test_tableaux_count_matches_listing(self, capsys, shape, domino):
        argv = ["tableaux", "--shape", shape] + (["--domino"] if domino else [])
        _, listing = run_cli(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--count")
        assert code == 0
        assert out == f"{len(listing.splitlines())}\n"

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["--shape", ""], 1),
            (["--shape", "2,1", "--domino"], 0),
            (["--shape", "20,20"], 6564120420),
            (["--shape", "12,12,12", "--domino"], 2450448),
        ],
    )
    def test_tableaux_count_values(self, capsys, argv, count):
        code, out = run_cli(capsys, "tableaux", *argv, "--count")
        assert code == 0
        assert out == f"{count}\n"

    def test_occurrences(self, capsys):
        code, out = run_cli(
            capsys, "occurrences", "--pattern", "2,1,3", "--window=-2,1,3,-4"
        )
        assert code == 0
        assert out.strip() == "4"


class TestVerify:
    def test_single_check_text(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--check", "thm-central-binomial", "--max-n", "3"
        )
        assert code == 0
        assert out.startswith("PASS")
        assert "thm-central-binomial" in out

    def test_conjecture_failure_keeps_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--check", "oq-two-boolean", "--max-n", "2")
        assert code == 0
        assert "CONJECTURE-FAILS" in out

    def test_json_format_round_trips(self, capsys):
        code, out = run_cli(
            capsys,
            "verify",
            "--check",
            "prop-es-signed",
            "--max-n",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["check"] == "prop-es-signed"
        assert payload[0]["status"] == "pass"

    def test_all_checks_at_tiny_size(self, capsys):
        code, out = run_cli(capsys, "verify", "--max-n", "1")
        assert code == 0
        assert len(out.strip().splitlines()) >= 18

    def test_theorem_failure_exits_one(self, capsys, monkeypatch):
        # Install a synthetic always-failing theorem check to pin the contract.
        from bperm.harness import CHECKS, Check, CheckRow

        failing = Check(
            "thm-synthetic-failure",
            "always fails",
            2,
            lambda max_n, jobs: [CheckRow(1, "0", "1")],
        )
        monkeypatch.setitem(CHECKS, failing.id, failing)
        code = main(["verify", "--check", failing.id])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "expected 0, observed 1" in out

    def test_crashing_check_fails_and_the_others_still_run(self, capsys, monkeypatch):
        # The exception is a ValueError, which the CLI otherwise reports as a
        # usage error (exit 2) with every other check's report lost.
        from bperm.classes import NotColayeredError
        from bperm.harness import CHECKS

        def crash(max_n, jobs):
            raise NotColayeredError("3,1,4,2 is not colayered")

        crashing = replace(CHECKS["thm-binomial-sum"], run=crash)
        monkeypatch.setitem(CHECKS, crashing.id, crashing)
        code, out = run_cli(capsys, "verify", "--max-n", "2", "--format", "json")
        assert code == 1
        reports = {report["check"]: report for report in json.loads(out)}
        assert sorted(reports) == sorted(CHECKS)
        assert {check for check, report in reports.items() if report["status"] == "fail"} == {
            "thm-binomial-sum"
        }
        assert reports["thm-binomial-sum"]["rows"][-1]["observed"] == (
            "NotColayeredError: 3,1,4,2 is not colayered"
        )

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--check", "thm-bogus"])
        assert excinfo.value.code == 2

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "--patterns", "3,2,1"])  # missing --n
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--patterns", "3,2,1", "--n", "1..3"],
            ["sequence", "--patterns", "3,2,1", "--n", "1..3"],
            ["verify", "--check", "thm-free", "--max-n", "2"],
        ],
    )
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, argv, jobs):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", jobs])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == f"bperm: --jobs must be at least 1, not {jobs}\n"

    def test_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--check", "thm-free", "--max-n", "-3"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == "bperm: max_n -3 is negative\n"

    @pytest.mark.parametrize("argv", [["verify"], ["verify", "--check", "thm-free"]])
    def test_max_n_zero_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--max-n", "0"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == "bperm: max_n 0 checks nothing\n"

    @pytest.mark.parametrize("argv", [["verify"], ["verify", "--check", "thm-free"]])
    def test_max_n_above_the_size_cap_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--max-n", "99"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err == "bperm: max_n 99 exceeds cap 8\n"

    def test_bad_range_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["count", "--patterns", "3,2,1", "--n", "4..1"])
        assert excinfo.value.code == 2
