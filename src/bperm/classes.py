"""
Characterized families of signed permutations.

Each predicate here takes one route, the family's definition: a criterion on
length and support (boolean, free; the support is read off the window by
parabolic subgroups) or on descents (Grassmannian), smoothness in type B
and in type C by Billey's classical lists (smooth in both types), or the
defining patterns (vexillary: global 2143; colayered: 132 and 213).  The
other characterizations are pattern lists in `bperm.fixtures`, whose classes
`enumeration.avoiders(patterns, sizes)` grows; the harness compares each class,
size by size, with a structural route: generated from the definition for the
boolean, free and (bi)Grassmannian families (`boolean_elements` and the like,
which read no support or descent set), else the predicate's members filtered
from the whole group.

A colayered permutation (one avoiding 132 and 213) decomposes into increasing
runs on strictly descending value blocks; recording the run lengths maps the
globally 132-avoiding signed permutations bijectively onto palindromic
compositions.
"""
from __future__ import annotations

from itertools import combinations, product
from operator import mul
from typing import Iterable

from . import fixtures
from .core import (Permutation, SignedPermutation, window_apply_generator, window_inverse,
                   window_length)
from .patterns import classical_contains, global_contains, unsigned_contains


class NotColayeredError(ValueError):
    """Run-length compositions are only defined for colayered permutations."""


class Not132AvoidingError(ValueError):
    """Palindromic compositions are only defined on the global 132-avoiders."""


def is_vexillary(w: SignedPermutation) -> bool:
    """Vexillary signed permutations: no global 2143."""
    return not any(global_contains(w, p) for p in fixtures.VEXILLARY_GLOBAL)


def is_boolean(w: SignedPermutation) -> bool:
    """
    Boolean signed permutations (principal Bruhat ideal a boolean lattice):
    no repeated generator in any reduced word.
    """
    # All reduced words share one support, so no word repeats a letter
    # exactly when a word's length equals the size of that support.
    return w.length() == len(w.support())


def is_free(w: SignedPermutation) -> bool:
    """
    Free signed permutations (all generators in reduced words commute):
    boolean, with no two consecutive indices in the support.
    """
    support = w.support()
    if any(i + 1 in support for i in support):
        return False
    return w.length() == len(support)


def is_smooth_B(w: SignedPermutation) -> bool:
    """Indexes a smooth Schubert variety of type B (classical 17-pattern list)."""
    return not any(classical_contains(w, q) for q in fixtures.SMOOTH_B_CLASSICAL)


def is_smooth_C(w: SignedPermutation) -> bool:
    """Indexes a smooth Schubert variety of type C (classical 17-pattern list)."""
    return not any(classical_contains(w, q) for q in fixtures.SMOOTH_C_CLASSICAL)


def is_smooth_BC(w: SignedPermutation) -> bool:
    """Indexes smooth Schubert varieties in types B and C simultaneously."""
    return is_smooth_B(w) and is_smooth_C(w)


def is_grassmannian(w: SignedPermutation) -> bool:
    """
    At most one descent.  This keeps the identity inside the class, matching
    its description as a pattern class; see the README for the convention.
    """
    return len(w.descent_set()) <= 1


def is_bigrassmannian(w: SignedPermutation) -> bool:
    """Both the permutation and its inverse are Grassmannian."""
    return is_grassmannian(w) and is_grassmannian(w.inverse())


def boolean_elements(sizes: Iterable[int]) -> dict[int, set[tuple[int, ...]]]:
    """
    Per size n, the products of distinct generators whose length is their
    number of letters.  All reduced words of an element use the letters of its
    support, so each element is extended once, by each letter it lacks.
    """
    members = {}
    for n in sizes:
        letters = {tuple(range(1, n + 1)): frozenset()}
        stack = list(letters)
        while stack:
            window = stack.pop()
            used = letters[window]
            for i in set(range(n)) - used:
                child = window_apply_generator(window, i)
                if child not in letters and window_length(child) == len(used) + 1:
                    letters[child] = used | {i}
                    stack.append(child)
        members[n] = set(letters)
    return members


def free_elements(sizes: Iterable[int]) -> dict[int, set[tuple[int, ...]]]:
    """Per size n, the product of each set of generators no two adjacent (s_0, s_1 too)."""
    members = {n: set() for n in sizes}
    for n, windows in members.items():
        stack = [(tuple(range(1, n + 1)), 0)]  # a product, and its next letter's least index
        while stack:
            window, low = stack.pop()
            windows.add(window)
            stack += ((window_apply_generator(window, i), i + 2) for i in range(low, n))
    return members


def grassmannian_elements(sizes: Iterable[int]) -> dict[int, set[tuple[int, ...]]]:
    """
    Per size n, the windows with at most one descent: for d = 0..n, entries
    0 < w(1) < ... < w(d), then w(d+1) < ... < w(n) of any signs.
    """
    members = {n: set() for n in sizes}
    for n, windows in members.items():
        for d in range(n + 1):
            for head in combinations(range(1, n + 1), d):
                tail = [v for v in range(1, n + 1) if v not in head]
                for signs in product((-1, 1), repeat=n - d):
                    windows.add(head + tuple(sorted(map(mul, signs, tail))))
    return members


def bigrassmannian_elements(sizes: Iterable[int]) -> dict[int, set[tuple[int, ...]]]:
    """Per size n, the generated Grassmannian windows whose inverse is generated too."""
    return {
        n: {w for w in windows if window_inverse(w) in windows}
        for n, windows in grassmannian_elements(sizes).items()
    }


def increasing_runs(v: Permutation) -> tuple[tuple[int, ...], ...]:
    """Maximal increasing runs of the one-line word."""
    runs: list[list[int]] = []
    for value in v.oneline:
        if runs and runs[-1][-1] < value:
            runs[-1].append(value)
        else:
            runs.append([value])
    return tuple(tuple(run) for run in runs)


def is_colayered(v: Permutation) -> bool:
    """Colayered permutations: avoiding both 132 and 213."""
    return not any(unsigned_contains(v, p) for p in fixtures.COLAYERED_UNSIGNED)


def composition_of(v: Permutation) -> tuple[int, ...]:
    """Increasing-run lengths of a colayered permutation."""
    if not is_colayered(v):
        raise NotColayeredError(f"{v} is not colayered")
    return tuple(len(run) for run in increasing_runs(v))


def signed_composition(w: SignedPermutation) -> tuple[int, ...]:
    """
    The palindromic composition attached to a globally 132-avoiding signed
    permutation: run lengths of the order-isomorphic copy of its mirror word.
    """
    if global_contains(w, fixtures.PATTERN_132):
        raise Not132AvoidingError(f"{w} globally contains 132")
    return composition_of(w.iota())
