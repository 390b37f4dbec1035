"""
Characterized families of signed permutations.

Each predicate here is implemented by at least two independent routes --
global pattern avoidance, classical pattern avoidance against the published
lists, and (where available) a structural criterion on reduced words or
descents -- so that the equivalences between routes can be tested as
set equalities over whole groups.

A colayered permutation (one avoiding 132 and 213) decomposes into increasing
runs on strictly descending value blocks; recording the run lengths maps the
globally 132-avoiding signed permutations bijectively onto palindromic
compositions.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from . import fixtures
from .core import Permutation, SignedPermutation
from .patterns import _avoidance_test, global_contains, unsigned_contains


class Method(str, Enum):
    """Which route a predicate should take; all routes agree."""

    GLOBAL = "global"
    CLASSICAL = "classical"
    STRUCTURAL = "structural"


class UnsupportedMethodError(ValueError):
    """The predicate has no implementation for the requested method."""


class NotColayeredError(ValueError):
    """Run-length compositions are only defined for colayered permutations."""


class Not132AvoidingError(ValueError):
    """Palindromic compositions are only defined on the global 132-avoiders."""


def _avoids(
    w: SignedPermutation,
    patterns: Sequence[Permutation] | Sequence[SignedPermutation],
) -> bool:
    """Avoidance of every pattern, globally or classically by the pattern type."""
    return _avoidance_test(patterns)(w.window)


def is_vexillary(w: SignedPermutation, method: Method = Method.GLOBAL) -> bool:
    """Vexillary signed permutations: no global 2143, equivalently the 9-pattern list."""
    if method is Method.GLOBAL:
        return _avoids(w, fixtures.VEXILLARY_GLOBAL)
    if method is Method.CLASSICAL:
        return _avoids(w, fixtures.VEXILLARY_CLASSICAL)
    raise UnsupportedMethodError("vexillarity has no structural criterion here")


def is_boolean(w: SignedPermutation, method: Method = Method.GLOBAL) -> bool:
    """
    Boolean signed permutations (principal Bruhat ideal a boolean lattice):
    no repeated generator in any reduced word; globally, avoiding 321 and 3412.
    """
    if method is Method.GLOBAL:
        return _avoids(w, fixtures.BOOLEAN_GLOBAL)
    if method is Method.CLASSICAL:
        return _avoids(w, fixtures.BOOLEAN_CLASSICAL)
    if method is Method.STRUCTURAL:
        # All reduced words share one support, so no word repeats a letter
        # exactly when a word's length equals the size of that support.
        return w.length() == len(w.support())
    raise UnsupportedMethodError(f"unknown method {method!r}")


def is_free(w: SignedPermutation, method: Method = Method.GLOBAL) -> bool:
    """
    Free signed permutations (all generators in reduced words commute):
    support without consecutive indices; globally, avoiding 231, 312, 321.
    """
    if method is Method.GLOBAL:
        return _avoids(w, fixtures.FREE_GLOBAL)
    if method is Method.CLASSICAL:
        return _avoids(w, fixtures.FREE_CLASSICAL)
    if method is Method.STRUCTURAL:
        support = w.support()
        if any(i + 1 in support for i in support):
            return False
        return w.length() == len(support)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def is_smooth_B(w: SignedPermutation) -> bool:
    """Indexes a smooth Schubert variety of type B (classical 17-pattern list)."""
    return _avoids(w, fixtures.SMOOTH_B_CLASSICAL)


def is_smooth_C(w: SignedPermutation) -> bool:
    """Indexes a smooth Schubert variety of type C (classical 17-pattern list)."""
    return _avoids(w, fixtures.SMOOTH_C_CLASSICAL)


def is_smooth_BC(w: SignedPermutation, method: Method = Method.GLOBAL) -> bool:
    """
    Indexes smooth Schubert varieties in types B and C simultaneously:
    globally, avoiding 3412 and 4231.
    """
    if method is Method.GLOBAL:
        return _avoids(w, fixtures.SMOOTH_BC_GLOBAL)
    if method is Method.CLASSICAL:
        return _avoids(w, fixtures.SMOOTH_BC_CLASSICAL)
    if method is Method.STRUCTURAL:
        return is_smooth_B(w) and is_smooth_C(w)
    raise UnsupportedMethodError(f"unknown method {method!r}")


def is_grassmannian(w: SignedPermutation) -> bool:
    """
    At most one descent.  This keeps the identity inside the class, matching
    its description as a pattern class; see the README for the convention.
    """
    return len(w.descent_set()) <= 1


def is_bigrassmannian(w: SignedPermutation) -> bool:
    """Both the permutation and its inverse are Grassmannian."""
    return is_grassmannian(w) and is_grassmannian(w.inverse())


def is_grassmannian_conjectured(w: SignedPermutation) -> bool:
    """Global avoidance of the conjectured Grassmannian pattern list."""
    return _avoids(w, fixtures.GRASSMANNIAN_GLOBAL)


def is_bigrassmannian_conjectured(w: SignedPermutation) -> bool:
    """Global avoidance of the conjectured list together with its inverses."""
    return _avoids(w, fixtures.BIGRASSMANNIAN_GLOBAL)


def increasing_runs(v: Permutation) -> tuple[tuple[int, ...], ...]:
    """Maximal increasing runs of the one-line word."""
    runs: list[list[int]] = []
    for value in v.oneline:
        if runs and runs[-1][-1] < value:
            runs[-1].append(value)
        else:
            runs.append([value])
    return tuple(tuple(run) for run in runs)


def is_colayered(v: Permutation, method: Method = Method.CLASSICAL) -> bool:
    """
    Colayered permutations: increasing runs whose value blocks strictly
    descend; equivalently, avoiding both 132 and 213.
    """
    if method is Method.CLASSICAL:
        return not any(
            unsigned_contains(v, p) for p in fixtures.COLAYERED_UNSIGNED
        )
    if method is Method.STRUCTURAL:
        top = v.size
        for run in increasing_runs(v):
            if run != tuple(range(top - len(run) + 1, top + 1)):
                return False
            top -= len(run)
        return True
    raise UnsupportedMethodError("colayeredness has no global form")


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
