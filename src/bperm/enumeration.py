"""
The avoidance-class engine, closed-form counting formulas, and the memo.

`avoiders(patterns, sizes)` answers "which windows of size n avoid P?" and
`sequence(patterns, sizes)` "how many?", each for every size it is asked for
in one pass; both check the sizes with `_valid_sizes` before growing
anything.  The pattern type picks the containment order (unsigned: global,
signed: classical).  Deleting the last entry of a window and re-ranking the
rest gives a window of size n - 1 that occurs in it, as a classical pattern
and in the middle of its mirror word, so each avoider of size n grows from an
avoider of size n - 1 (a generating tree, West 1995).  `core.grown` yields
the children of the avoiders of size n - 1, and the avoidance test searches
each whole child once; the generator `_levels` yields the classes
A_0..A_(n-1) that way, each grown from the one before it.  Where no pattern
fits (`_fits`) every window avoids: that level is None, and nothing is grown
or stored.

`avoiders` keeps the levels it is asked for.  `sequence` keeps the size of
each, up to the largest size N that the memo lacks, and counts N by growing
it from A_(N-1) without storing it, as `unsigned_avoider_count` counts S_n.
From size 5 that growth can fan out to a process pool, each task growing a
strided slice of A_(N-1), and still merge deterministically (an integer
sum).  An optional on-disk memo keyed by normalized pattern set, order, and
size caches counts between runs.

All counts are exact arbitrary-precision integers.
"""
from __future__ import annotations

import os
import sys
import tempfile
from math import comb
from multiprocessing import Pool
from typing import Iterable, Iterator, Sequence

from .core import (
    Permutation, SignedPermutation, format_window, grown, iter_windows, signed_group_order,
)
from .patterns import _avoidance_test, _containment_order
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


def _fits(
    patterns: tuple[Permutation, ...] | tuple[SignedPermutation, ...], k: int
) -> bool:
    """
    Whether some pattern fits in a window of size k: one of size at most 2k
    globally, at most k classically.  Where none fits, every window avoids.
    Only the empty pattern fits at size 0, and no window avoids it.
    """
    reach = 2 if _containment_order(patterns) == "global" else 1
    return any(p.size <= reach * k for p in patterns)


def _levels(
    patterns: tuple[Permutation, ...] | tuple[SignedPermutation, ...], n: int
) -> Iterator[frozenset | None]:
    """
    A_0..A_(n-1), one at a time: for each size k < n, the set of size-k
    windows avoiding every pattern, grown from the level before it; None
    where no pattern fits.
    """
    test = _avoidance_test(patterns)
    level = None
    for k in range(n):
        level = frozenset(filter(test, grown(level, k))) if _fits(patterns, k) else None
        yield level


def _valid_sizes(sizes: Iterable[int]) -> list[int]:
    """The distinct sizes, ascending, if none is negative or above MAX_SIGNED_SIZE."""
    sizes = sorted(set(sizes))
    if sizes and sizes[0] < 0:
        raise ValueError("sizes must be nonnegative")
    if sizes and sizes[-1] > MAX_SIGNED_SIZE:
        raise SizeCapExceededError(f"sizes beyond {MAX_SIGNED_SIZE} are not supported")
    return sizes


def avoiders(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation], sizes: Iterable[int]
) -> dict[int, frozenset[tuple[int, ...]]]:
    """
    `{n: windows of size n avoiding every pattern}` in ascending n: globally
    for unsigned patterns, classically for signed ones.  The class is grown
    once, up to the largest size.  All of B_8, where no pattern fits, is refused.
    """
    wanted = _valid_sizes(sizes)
    patterns = tuple(patterns)
    if MAX_SIGNED_SIZE in wanted and not _fits(patterns, MAX_SIGNED_SIZE):
        raise SizeCapExceededError(
            f"no pattern fits, so the answer is all of B_{MAX_SIGNED_SIZE}; `sequence` counts it"
        )
    levels = _levels(patterns, wanted[-1] + 1 if wanted else 0)
    return {
        n: frozenset(iter_windows(n)) if level is None else level
        for n, level in enumerate(levels)
        if n in wanted
    }


def _branch_count(args: tuple) -> int:
    n, patterns, chunk = args
    return sum(map(_avoidance_test(patterns), grown(chunk, n)))


def _count_exhaustive(
    n: int,
    patterns: Sequence[Permutation] | Sequence[SignedPermutation],
    *,
    previous: frozenset | None,
    jobs: int = 1,
) -> int:
    """
    Size-n avoider count, grown from `previous`, the level A_(n-1) of
    `_levels`; with no pattern fitting at n, the order of B_n.
    Serial when jobs <= 1, n < POOL_MIN_SIZE or A_(n-1) is None, otherwise
    on a pool of up to `jobs` processes, one task per strided slice of the
    sorted A_(n-1): 2n slices, so at most 2n processes for any `jobs`.
    """
    if not _fits(patterns, n):
        return signed_group_order(n)
    if jobs <= 1 or n < POOL_MIN_SIZE or previous is None:
        return _branch_count((n, patterns, previous))
    ordered = sorted(previous)
    tasks = [(n, patterns, ordered[start::2 * n]) for start in range(2 * n)]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return sum(pool.map(_branch_count, tasks))


def normalized_pattern_key(pattern_words: Iterable[Sequence[int]]) -> str:
    return ";".join(map(format_window, sorted(tuple(w) for w in pattern_words)))


def load_cache(path: str) -> dict[str, int]:
    """
    Read a memo file of "patterns|order|n|count" lines.  Malformed lines are
    skipped with one warning on stderr; their counts are recomputed, and
    `sequence` rewrites the file without them.  A missing file is an empty
    memo; any other unreadable path raises ValueError.
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
        # The levels below the largest missing size hold every smaller one.
        *below, top = missing
        level = None  # ends as A_(top - 1); None also at top 0
        for n, level in enumerate(_levels(pattern_objects, top)):
            if n in below:
                cache[f"{key_base}|{n}"] = signed_group_order(n) if level is None else len(level)
        cache[f"{key_base}|{top}"] = _count_exhaustive(
            top, pattern_objects, previous=level, jobs=jobs
        )
    if cache_path and (missing or not _memo_is_clean(cache_path, cache)):
        store_cache(cache_path, cache)
    return {n: cache[f"{key_base}|{n}"] for n in sizes}


def unsigned_avoider_count(n: int, patterns: Iterable[Permutation]) -> int:
    """
    Number of unsigned permutations of size n avoiding every pattern.  S_n is
    the set of windows classically avoiding -1, so it is counted as `sequence`
    counts its top size (but past 8), each pattern no longer than n as signed.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > MAX_UNSIGNED_SIZE:
        raise SizeCapExceededError(f"sizes beyond {MAX_UNSIGNED_SIZE} are not supported")
    signed = (SignedPermutation((-1,)),
              *(SignedPermutation(p.oneline) for p in patterns if p.size <= n))
    *_, level = None, *_levels(signed, n)  # A_(n - 1); None at n = 0
    return _count_exhaustive(n, signed, previous=level)
