"""
Command-line interface.

Subcommands:

* count / sequence -- exact avoider counts over a size range
* list             -- elements of a characterized family at one size
* basis            -- classical basis of a global avoidance class
* tableaux         -- standard Young or domino tableaux of a shape
* occurrences      -- global occurrences of one pattern in one element
* verify           -- run the theorem/conjecture checks

Pattern sets use the shared grammar: patterns separated by ";", entries by
",".  Counts honor the BPERM_CACHE environment variable as an on-disk memo.
Exit status: 0 on success, 1 if a theorem check failed, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import partial
from typing import Callable, Sequence

from . import fixtures
from .classes import bigrassmannian_elements, grassmannian_elements
from .core import Permutation, SignedPermutation, format_window
from .enumeration import MAX_SIGNED_SIZE, avoiders, sequence as count_sequence
from .harness import CHECKS, any_theorem_failed, run_all, run_check
from .patterns import (
    count_global_occurrences,
    global_basis,
    parse_signed_patterns,
    parse_unsigned_patterns,
)
from .tableaux import (
    domino_count,
    domino_tableaux,
    parse_partition,
    standard_tableaux,
    syt_count,
)

# Each family's members {n: windows} at the sizes asked for: the class of its
# pattern list, or, for the two families with no stored pattern list, generated.
PROPERTIES: dict[str, Callable[[Sequence[int]], dict]] = {
    "vexillary": partial(avoiders, fixtures.VEXILLARY_GLOBAL),
    "boolean": partial(avoiders, fixtures.BOOLEAN_GLOBAL),
    "free": partial(avoiders, fixtures.FREE_GLOBAL),
    "smooth-b": partial(avoiders, fixtures.SMOOTH_B_CLASSICAL),
    "smooth-c": partial(avoiders, fixtures.SMOOTH_C_CLASSICAL),
    "smooth-bc": partial(avoiders, fixtures.SMOOTH_BC_GLOBAL),
    "grassmannian": grassmannian_elements,
    "bigrassmannian": bigrassmannian_elements,
}


def parse_size_range(text: str) -> range:
    """Parse "A..B" (inclusive) or a single size "N"."""
    low_text, dots, high_text = text.partition("..")
    try:
        low = int(low_text)
        high = int(high_text) if dots else low
    except ValueError as exc:
        raise ValueError(f"bad size range {text!r}") from exc
    if low < 0 or high < low:
        raise ValueError(f"bad size range {text!r}")
    return range(low, high + 1)


def _cmd_count(args: argparse.Namespace) -> int:
    parse = parse_unsigned_patterns if args.mode == "global" else parse_signed_patterns
    counts = count_sequence(
        parse(args.patterns),
        parse_size_range(args.n),
        jobs=args.jobs,
        cache_path=os.environ.get("BPERM_CACHE"),
    )
    if args.command == "sequence" and args.format == "csv":
        width = max(len(str(n)) for n in counts)
        print(f"# {args.patterns} ({args.mode}, brute-force)")
        for n, count in counts.items():
            print(f"{n:>{width}}  {count}")
    elif args.format == "json":
        payload = [{"n": n, "count": str(count)} for n, count in counts.items()]
        print(json.dumps(payload))
    else:
        print("n,count")
        for n, count in counts.items():
            print(f"{n},{count}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if not 0 <= args.n <= MAX_SIGNED_SIZE:
        raise ValueError(f"--n must be between 0 and {MAX_SIGNED_SIZE}, not {args.n}")
    for window in sorted(PROPERTIES[args.property]([args.n])[args.n]):
        print(format_window(window))
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    patterns = parse_unsigned_patterns(args.patterns)
    for signed_pattern in global_basis(patterns):
        print(signed_pattern)
    return 0


def _cmd_tableaux(args: argparse.Namespace) -> int:
    shape = parse_partition(args.shape)
    if args.count:
        print(domino_count(shape) if args.domino else syt_count(shape))
    else:
        for rows in (domino_tableaux if args.domino else standard_tableaux)(shape):
            print("/".join(",".join(str(v) for v in row) for row in rows))
    return 0


def _cmd_occurrences(args: argparse.Namespace) -> int:
    w = SignedPermutation.from_text(args.window)
    p = Permutation.from_text(args.pattern)
    print(count_global_occurrences(w, p))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.check is not None:
        reports = [run_check(args.check, args.max_n)]
    else:
        reports = run_all(args.max_n, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps([asdict(report) for report in reports], indent=2))
    else:
        for report in reports:
            flag = report.status.upper()
            print(f"{flag:17} {report.check} (max_n={report.max_n}, {report.millis} ms)")
            if not report.ok():
                for row in report.rows:
                    if row.expected != row.observed:
                        print(f"    n={row.n}: expected {row.expected}, observed {row.observed}")
    return 1 if any_theorem_failed(reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bperm",
        description="signed permutations: pattern avoidance, tableaux, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("count", "CSV/JSON avoider counts over a size range"),
        ("sequence", "like count, with aligned table output"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--patterns", required=True, help="pattern set, e.g. '3,2,1' or '2,1,4,3;1,2,3,4'")
        p.add_argument("--mode", choices=["global", "classical"], default="global")
        p.add_argument("--n", required=True, help="size range A..B or single size")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument(
            "--format",
            choices=["csv", "json"],
            default="csv",
            help="output format (the sequence alias renders csv as a table)",
        )
        p.set_defaults(run=_cmd_count)

    p = sub.add_parser("list", help="windows of one characterized family")
    p.add_argument("--property", required=True, choices=sorted(PROPERTIES))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_list)

    p = sub.add_parser("basis", help="classical basis of a global avoidance class")
    p.add_argument("--patterns", required=True)
    p.set_defaults(run=_cmd_basis)

    p = sub.add_parser("tableaux", help="standard Young or domino tableaux of a shape")
    p.add_argument("--shape", required=True, help="partition, e.g. '4,2'")
    p.add_argument("--domino", action="store_true", help="domino tableaux instead of SYT")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(run=_cmd_tableaux)

    p = sub.add_parser("occurrences", help="global occurrences of a pattern in a window")
    p.add_argument("--pattern", required=True, help="unsigned pattern, e.g. '2,1,3'")
    p.add_argument(
        "--window",
        required=True,
        help="signed window; use the = form for leading minus, e.g. --window=-2,1,3,-4",
    )
    p.set_defaults(run=_cmd_occurrences)

    p = sub.add_parser("verify", help="run the theorem/conjecture checks")
    p.add_argument("--check", choices=sorted(CHECKS), help="run one check only")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--jobs", type=int, default=1, help="checks side by side; a --check runs alone")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, not {args.jobs}")
        return args.run(args)
    except ValueError as exc:
        parser.exit(2, f"bperm: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
