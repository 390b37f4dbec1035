"""
The avoidance-class engine, closed-form counting formulas, and the memo.

`avoiders(patterns, sizes)` answers "which windows of size n avoid P?" and
`sequence(patterns, sizes)` "how many?", each for every size it is asked for
in one pass; both check the sizes with `_valid_sizes` before growing
anything.  The pattern type picks the containment order (unsigned: global,
signed: classical).  Where no pattern fits (`_fits`) every window avoids, and
nothing is grown or searched.

Both walk the class depth first (`core.walk`, a generating tree) from
B_(m-1), m the first size at which some pattern fits, to the avoiders one
size below the top, and filter the children of those avoiders at their sites.
Counts store no avoider.  A window's site a or -a is where its child appends
a or -a.  Unsigned counts walk S_n as the classical class of -1, whose
negative sites close at the root.  From size 5 the count can hand the nodes
one size below the top to a process pool and still merge deterministically
(an integer sum).  An optional on-disk memo keyed by normalized pattern set,
order, and size caches counts between runs.

All counts are exact arbitrary-precision integers.
"""
from __future__ import annotations

import os
import sys
import tempfile
from math import comb, factorial
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .core import (
    Permutation, SignedPermutation, format_window, grown_at, iter_windows, signed_group_order,
    walk,
)
from .patterns import _avoidance_test, _containment_order, _fits
from .tableaux import domino_count, syt_count

MAX_SIGNED_SIZE = 8
MAX_UNSIGNED_SIZE = 9
# A 2-process pool takes about 10-20 ms to start, and counts only the top size.  Jobs 1 -> 2,
# medians of 5, four runs on a shared 2-vCPU VM: {3412,4231} n=5 4-7 -> 16-24 ms, n=6 20-31
# -> 34-51 ms, n=7 97-140 -> 111-173 ms; {321} n=7 30-48 -> 48-77 ms; {132,123} n=7 1 -> 10-17
# ms.  Size 8 gains ({3412,4231} 0.57-0.70 -> 0.47 s), but perfbench/test_perfbench.py needs a
# pool at n=5 to see pool metrics.
POOL_MIN_SIZE = 5


class SizeCapExceededError(ValueError):
    """Exhaustive enumeration was requested beyond the supported size."""


def fib_like(k: int, i: int) -> int:
    """
    Order-k recurrent sequence: 1 at index floor(k/2) + 1, 0 at the other
    indices up to k, and the sum of the previous k terms afterwards.
    For k = 2 this is the Fibonacci sequence.
    """
    if k < 1 or i < 1:
        raise ValueError("k and i must be positive")
    values = [0] * (k + 1)  # values[1..k]
    values[k // 2 + 1] = 1
    if i <= k:
        return values[i]
    values = values[1:]
    for _ in range(k + 1, i + 1):
        values.append(sum(values[-k:]))
    return values[-1]


def count_gav_132_and_increasing(n: int, k: int) -> int:
    """
    Number of signed permutations of size n globally avoiding 132 and the
    increasing pattern of size k + 1.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return fib_like(k, n + k + 1)


def count_gav_132_and_decreasing(n: int, k: int) -> int:
    """
    Number of signed permutations of size n globally avoiding 132 and the
    decreasing pattern of size k + 1.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return sum(comb(n - 1, (j - 1) // 2) for j in range(1, k + 1))


def palindromic_compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All compositions of `total` that read the same in both directions."""
    if total < 0:
        raise ValueError("total must be nonnegative")

    if total == 0:
        yield ()
        return
    yield (total,)
    for outer in range(1, total // 2 + 1):
        for inner in palindromic_compositions(total - 2 * outer):
            yield (outer,) + inner + (outer,)


def palindromic_composition_count(total: int) -> int:
    return sum(1 for _ in palindromic_compositions(total))


def es_bound(k: int, j: int, signed: bool) -> int:
    """
    Largest size at which permutations can avoid both the increasing pattern
    of size k + 1 and the decreasing pattern of size j + 1: kj for unsigned
    permutations, floor(kj/2) for signed permutations avoiding globally.
    """
    if k < 1 or j < 1:
        raise ValueError("k and j must be positive")
    return (k * j) // 2 if signed else k * j


def es_extremal_count(k: int, j: int, signed: bool) -> int:
    """
    Number of (signed) permutations of the extremal size avoiding both
    monotone patterns: the square of a tableau count of rectangular or
    near-rectangular shape.
    """
    if k < 1 or j < 1:
        raise ValueError("k and j must be positive")
    if not signed:
        return syt_count((k,) * j) ** 2
    if (k * j) % 2 == 0:
        return domino_count((k,) * j) ** 2
    shape = tuple(p for p in (k,) * (j - 1) + (k - 1,) if p > 0)
    return domino_count(shape) ** 2


def _valid_sizes(sizes: Iterable[int], cap: int = MAX_SIGNED_SIZE) -> list[int]:
    """The distinct sizes, ascending, refused at the first one below 0 or above `cap`."""
    distinct = set()
    for n in sizes:
        if n < 0:
            raise ValueError("sizes must be nonnegative")
        if n > cap:
            raise SizeCapExceededError(f"sizes beyond {cap} are not supported")
        distinct.add(n)
    return sorted(distinct)


def avoiders(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation], sizes: Iterable[int]
) -> dict[int, frozenset[tuple[int, ...]]]:
    """
    `{n: windows of size n avoiding every pattern}` in ascending n: globally
    for unsigned patterns, classically for signed ones.  The class is walked
    once, up to the largest size.  All of B_8, where no pattern fits, is refused.
    """
    wanted = _valid_sizes(sizes)
    patterns = tuple(patterns)
    top = max(wanted, default=0)
    if not _fits(patterns, top) or not wanted:
        if top == MAX_SIGNED_SIZE:
            raise SizeCapExceededError(
                f"no pattern fits, so the answer is all of B_{MAX_SIGNED_SIZE}; `sequence` counts it"
            )
        return {n: frozenset(iter_windows(n)) for n in wanted}
    m = next(k for k in range(top + 1) if _fits(patterns, k))
    whole, anchored = _avoidance_test(patterns), _avoidance_test(patterns, anchored=True)
    members = {n: [] for n in wanted}
    for window, sites, test in walk(m - 1, top - 1, whole, anchored):
        if len(window) in members:
            members[len(window)].append(window)
        if len(window) == top - 1:
            members[top] += filter(test, grown_at(window, sites))
    # Below the walk's roots, B_(m-1), no pattern fits.
    return {n: frozenset(iter_windows(n) if n < m - 1 else found) for n, found in members.items()}


def _branch_count(task: tuple) -> int:
    """
    The number of avoiders among the children of the task's nodes at their sites,
    by a test built here: pool tasks are pickled, and avoidance tests are closures.
    """
    n, patterns, nodes = task
    test = _avoidance_test(patterns, anchored=_fits(patterns, n - 1))
    return sum(sum(map(test, grown_at(window, sites))) for window, sites in nodes)


def _count_exhaustive(
    n: int, patterns: Sequence[Permutation] | Sequence[SignedPermutation], *, jobs: int = 1
) -> list[int]:
    """
    The avoider counts of sizes 0..n in one walk (`core.walk`) from B_(m-1),
    m the first size at which some pattern fits: the order of B_k at every
    size k below it.  The nodes of size n - 1 are handed to `_branch_count`:
    serially when jobs <= 1 or n < POOL_MIN_SIZE, with nothing stored,
    otherwise on a pool of up to `jobs` processes, one task per strided slice
    of the sorted nodes: 2n slices, so at most 2n processes for any `jobs`.
    """
    if not _fits(patterns, n):
        return [signed_group_order(k) for k in range(n + 1)]
    m = next(k for k in range(n + 1) if _fits(patterns, k))
    counts = [signed_group_order(k) if k < m - 1 else 0 for k in range(n + 1)]
    walked = walk(m - 1, n - 1, _avoidance_test(patterns), _avoidance_test(patterns, anchored=True))
    nodes = _tally(walked, n - 1, counts)
    if jobs <= 1 or n < POOL_MIN_SIZE:
        counts[n] = _branch_count((n, patterns, nodes))
        return counts
    ordered = sorted(nodes)
    tasks = [(n, patterns, ordered[start::2 * n]) for start in range(2 * n)]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        counts[n] = sum(pool.map(_branch_count, tasks))
    return counts


def _tally(nodes: Iterator[tuple], top: int, counts: list[int]) -> Iterator:
    """The `nodes` of size `top` with their sites, adding those of each size k to `counts[k]`."""
    for window, sites, _ in nodes:
        counts[len(window)] += 1
        if len(window) == top:
            yield window, sites


def normalized_pattern_key(pattern_words: Iterable[Sequence[int]]) -> str:
    return ";".join(map(format_window, sorted(tuple(w) for w in pattern_words)))


def load_cache(path: str) -> dict[str, int]:
    """
    Read a memo file of "patterns|order|n|count" lines.  Malformed lines, a
    negative n or count included, are skipped with one warning on stderr;
    their counts are recomputed, and `sequence` rewrites the file without
    them.  A missing file is an empty memo; any other unreadable path raises
    ValueError.
    """
    cache: dict[str, int] = {}
    skipped = 0
    try:
        # Decoded line by line, so a line that is not UTF-8 is one malformed line.
        with open(path, "rb") as handle:
            for line in handle.read().splitlines():
                try:
                    line = line.decode("utf-8").strip()
                    if line:
                        patterns, order, n, count = line.rsplit("|", 3)
                        if int(n) < 0 or int(count) < 0:
                            raise ValueError("negative size or count")
                        cache[f"{patterns}|{order}|{int(n)}"] = int(count)
                except ValueError:  # UnicodeDecodeError is a ValueError
                    skipped += 1
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ValueError(f"memo {path}: cannot read ({exc.strerror})") from exc
    if skipped:
        print(f"bperm: memo {path}: skipped {skipped} malformed line(s)", file=sys.stderr)
    return cache


def _memo_text(cache: dict[str, int]) -> str:
    return "".join(f"{key}|{cache[key]}\n" for key in sorted(cache))


def _memo_is_clean(path: str, cache: dict[str, int]) -> bool:
    """Whether the memo file holds exactly the lines of `cache`, and no malformed one."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read() == _memo_text(cache)
    except FileNotFoundError:
        return not cache
    except UnicodeDecodeError:
        return False


def store_cache(path: str, cache: dict[str, int]) -> None:
    """Rewrite the memo file atomically, keeping its mode; ValueError if it cannot."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        os.makedirs(directory, exist_ok=True)
        os.umask(umask := os.umask(0))  # read the umask: a new memo gets 0o666 less it
        mode = os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".bperm-cache-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_memo_text(cache))
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except OSError as exc:
        raise ValueError(
            f"memo {path}: cannot write to {directory} ({exc.strerror})"
        ) from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)


def sequence(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
    sizes: Iterable[int],
    jobs: int = 1,
    cache_path: str | None = None,
) -> dict[int, int]:
    """
    Exact avoider counts `{n: count}` in ascending n, by exhaustive
    enumeration: global avoidance for unsigned patterns, classical for signed
    ones.  The sizes the memo lacks are counted in one pass up to the largest
    of them.  The result is independent of `jobs`.  A negative size, or one
    above `MAX_SIGNED_SIZE`, is rejected before anything is grown.
    """
    pattern_objects = tuple(patterns)
    pattern_words = tuple(p.oneline if isinstance(p, Permutation) else p.window
                          for p in pattern_objects)
    sizes = _valid_sizes(sizes)
    order = _containment_order(pattern_objects)
    key_base = f"{normalized_pattern_key(pattern_words)}|{order}"
    cache = load_cache(cache_path) if cache_path else {}
    missing = [n for n in sizes if f"{key_base}|{n}" not in cache]
    if missing:
        counts = _count_exhaustive(missing[-1], pattern_objects, jobs=jobs)
        cache.update((f"{key_base}|{n}", counts[n]) for n in missing)
    if cache_path and (missing or not _memo_is_clean(cache_path, cache)):
        store_cache(cache_path, cache)
    return {n: cache[f"{key_base}|{n}"] for n in sizes}


def unsigned_sequence(patterns: Iterable[Permutation], sizes: Iterable[int]) -> dict[int, int]:
    """
    `{n: count}` of unsigned permutations avoiding every pattern, sizes as in
    `sequence` but up to 9.  S_n, the windows classically avoiding -1, is
    walked once to the largest size as `sequence` walks a class, with the
    patterns that fit as signed; where none fits, the counts are n!.
    """
    sizes = _valid_sizes(sizes, MAX_UNSIGNED_SIZE)
    top = max(sizes, default=0)
    fitting = tuple(SignedPermutation(p.oneline) for p in patterns if p.size <= top)
    counts = (_count_exhaustive(top, (SignedPermutation((-1,)), *fitting)) if fitting
              else [factorial(n) for n in range(top + 1)])
    return {n: counts[n] for n in sizes}
