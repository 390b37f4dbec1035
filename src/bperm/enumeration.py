"""
Closed-form counting formulas and the exhaustive counting engine.

`sequence` counts every size it is asked for in one pass: it grows the
levels A_0..A_(N-1) of `patterns._levels` once, for the largest size N that
the memo lacks, reads each smaller size as the size of its level, and counts
N by the pruned walk, which searches only whole windows.  The pattern type
picks the containment order (unsigned: global, signed: classical).  The walk
at N is partitioned over the 2n possible first window entries, one pruned
subtree each (of unequal sizes), so from size 5 it can fan out to a process
pool, each task carrying the levels, and still merge deterministically (an
integer sum).  An optional on-disk memo keyed by normalized pattern set,
order, and size caches counts between runs.

All counts are exact arbitrary-precision integers.
"""
from __future__ import annotations

import os
import sys
import tempfile
from math import comb
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .core import Permutation, SignedPermutation, format_window, iter_windows, signed_group_order
from .patterns import _containment_order, _levels, _prefix_test, word_contains
from .tableaux import domino_count, syt_count

MAX_SIGNED_SIZE = 8
MAX_UNSIGNED_SIZE = 9
# On a shared 2-vCPU VM a 2-process pool takes about 17 ms to start.  Jobs 1 -> 2, two runs:
# {3412,4231} n=5 16-20 -> 34-49 ms, n=6 149-170 -> 153-192 ms, n=7 767-860 -> 503-562 ms;
# {321} n=7 245-262 -> 179-185 ms; {132,123} n=7 14-19 -> 22-25 ms.  Only size 7 of a dense
# class gains, but perfbench/test_perfbench.py needs a pool at n=5 to see pool metrics.
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


def _branch_count(args: tuple) -> int:
    n, patterns, first, levels = args
    return sum(1 for _ in iter_windows(n, first=first, keep=_prefix_test(patterns, levels)))


def _count_exhaustive(
    n: int,
    patterns: Sequence[Permutation] | Sequence[SignedPermutation],
    *,
    levels: Sequence[frozenset | None],
    jobs: int = 1,
) -> int:
    """
    Size-n avoider count, given the levels A_0..A_(n-1) of `patterns._levels`,
    one branch per first entry: serial when jobs <= 1 or n < POOL_MIN_SIZE,
    otherwise on a pool of up to `jobs` processes, each task carrying the levels.
    """
    if n == 0:
        return _branch_count((0, patterns, None, levels))
    tasks = [(n, patterns, first, levels) for first in range(-n, n + 1) if first != 0]
    if jobs <= 1 or n < POOL_MIN_SIZE:
        return sum(_branch_count(task) for task in tasks)
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return sum(pool.map(_branch_count, tasks))


def normalized_pattern_key(pattern_words: Iterable[Sequence[int]]) -> str:
    return ";".join(map(format_window, sorted(tuple(w) for w in pattern_words)))


def load_cache(path: str) -> dict[str, int]:
    """
    Read a memo file of "patterns|order|n|count" lines.  Malformed lines are
    skipped with one warning on stderr and dropped from the file at once, so
    their counts are recomputed and later reads do not warn again.  A missing
    file is an empty memo; any other unreadable path raises ValueError.
    """
    cache: dict[str, int] = {}
    skipped = 0
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    patterns, order, n, count = line.rsplit("|", 3)
                    cache[f"{patterns}|{order}|{int(n)}"] = int(count)
                except ValueError:
                    skipped += 1
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise ValueError(f"memo {path}: cannot read ({exc.strerror})") from exc
    if skipped:
        print(f"bperm: memo {path}: skipped {skipped} malformed line(s)", file=sys.stderr)
        store_cache(path, cache)
    return cache


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
            for key in sorted(cache):
                handle.write(f"{key}|{cache[key]}\n")
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
    n_range: Iterable[int],
    jobs: int = 1,
    cache_path: str | None = None,
) -> dict[int, int]:
    """
    Exact avoider counts `{n: count}` in ascending n, by exhaustive
    enumeration: global avoidance for unsigned patterns, classical for signed
    ones.  The sizes the memo lacks are counted in one pass up to the largest
    of them.  The result is independent of `jobs`; sizes above the hard cap
    are rejected.
    """
    pattern_objects = tuple(patterns)
    pattern_words = tuple(p.oneline if isinstance(p, Permutation) else p.window
                          for p in pattern_objects)
    sizes = sorted(set(n_range))
    if any(n < 0 for n in sizes):
        raise ValueError("sizes must be nonnegative")
    if any(n > MAX_SIGNED_SIZE for n in sizes):
        raise SizeCapExceededError(f"sizes beyond {MAX_SIGNED_SIZE} are not supported")
    order = _containment_order(pattern_objects)
    key_base = f"{normalized_pattern_key(pattern_words)}|{order}"
    cache = load_cache(cache_path) if cache_path else {}
    missing = [n for n in sizes if f"{key_base}|{n}" not in cache]
    if missing:
        # The levels up to the largest missing size hold every smaller one.
        top = missing.pop()
        levels = _levels(pattern_objects, top)
        for n in missing:
            level = levels[n]
            cache[f"{key_base}|{n}"] = signed_group_order(n) if level is None else len(level)
        cache[f"{key_base}|{top}"] = _count_exhaustive(
            top, pattern_objects, levels=levels, jobs=jobs
        )
        if cache_path:
            store_cache(cache_path, cache)
    return {n: cache[f"{key_base}|{n}"] for n in sizes}


def unsigned_avoider_count(n: int, patterns: Iterable[Permutation]) -> int:
    """Number of unsigned permutations of size n avoiding every pattern."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > MAX_UNSIGNED_SIZE:
        raise SizeCapExceededError(f"sizes beyond {MAX_UNSIGNED_SIZE} are not supported")
    from itertools import permutations as iter_permutations

    words = tuple(p.oneline for p in patterns)
    count = 0
    for word in iter_permutations(range(1, n + 1)):
        if not any(word_contains(word, p) for p in words):
            count += 1
    return count
