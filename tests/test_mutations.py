"""
Planted bugs, one per case, each failing a pinned set of checks.

The harness compares independent routes: global patterns, classical lists
and structural criteria.  If two compared routes ran through the function a
bug is planted in, they would agree by construction and the check comparing
them would go on passing.  Each case replaces one function in every bperm
module that binds it, runs the registry at max_n 3 and pins exactly which
checks fail: a check that stops failing has lost an independent route, and
one that starts failing has gained a dependency.
"""
import sys

import pytest

from bperm import classes, core, enumeration, patterns, tableaux
from bperm.core import DihedralSymmetry, Permutation
from bperm.harness import run_all


def _patch_everywhere(monkeypatch, original, replacement):
    """Rebind each bperm module name bound to `original`; return how many."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "bperm" or name.startswith("bperm.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                rebound += 1
    return rebound


def _word_contains_ignoring_last_letter(monkeypatch):
    original = patterns.word_contains
    return _patch_everywhere(
        monkeypatch, original, lambda word, pattern: original(word[:-1], pattern)
    )


def _mirror_without_reversal(monkeypatch):
    return _patch_everywhere(
        monkeypatch,
        core.mirror_of_window,
        lambda window: tuple(-v for v in window) + tuple(window),
    )


def _signed_kernel_ignoring_signs(monkeypatch):
    original = patterns.signed_word_contains
    return _patch_everywhere(
        monkeypatch,
        original,
        lambda window, pattern: original([abs(v) for v in window], [abs(v) for v in pattern]),
    )


def _global_anchor_only_at_w_k(monkeypatch):
    # Every pattern reads as its own reverse-complement, so the anchored test
    # searches no reverse-complement at the appended entry z: no occurrence
    # through -z.
    return _patch_everywhere(monkeypatch, patterns._reverse_complement, lambda pattern: pattern)


def _rc_rule_by_reverse(monkeypatch):
    return _patch_everywhere(
        monkeypatch, patterns._reverse_complement, lambda pattern: pattern[::-1]
    )


def _classical_anchor_ignoring_its_sign(monkeypatch):
    # The classical node test's searches read the pinned w(k) with the sign
    # of the pattern entry it stands for, so they find occurrences whose
    # second-to-last entry has the wrong sign.
    original = patterns._compiled

    def compiled(pattern, signed, pinned, count, first=0):
        search = original(pattern, signed, pinned, count, first)
        if not (signed and pinned == 2):
            return search
        sign = 1 if pattern[1] > 0 else -1
        return lambda v0, v1, *rest: search(v0, sign * abs(v1), *rest)

    return _patch_everywhere(monkeypatch, original, compiled)


def _reverse_sending_132_to_123(monkeypatch):
    original = Permutation.apply_symmetry

    def apply_symmetry(self, symmetry):
        if symmetry is DihedralSymmetry.REVERSE and self.oneline == (1, 3, 2):
            return Permutation((1, 2, 3))
        return original(self, symmetry)

    monkeypatch.setattr(Permutation, "apply_symmetry", apply_symmetry)
    return 1


def _rc_reduce_by_reverse(monkeypatch):
    def rc_reduce(patterns_):
        return frozenset(
            min(p, Permutation(p.oneline[::-1]), key=lambda q: q.oneline) for p in patterns_
        )

    return _patch_everywhere(monkeypatch, patterns.rc_reduce, rc_reduce)


def _length_ignoring_negative_entries(monkeypatch):
    original = core.window_length
    return _patch_everywhere(
        monkeypatch, original, lambda window: original(window) - sum(v < 0 for v in window)
    )


def _inverse_without_signs(monkeypatch):
    original = core.window_inverse
    return _patch_everywhere(
        monkeypatch, original, lambda window: tuple(abs(v) for v in original(window))
    )


def _generated_only(original, keep):
    """A generator standing in for `original` that keeps only the windows `keep` accepts."""
    return lambda sizes: {n: set(filter(keep, ws)) for n, ws in original(sizes).items()}


def _boolean_generator_without_s0(monkeypatch):
    # s_0 is the one generator that makes an entry negative.
    original = classes.boolean_elements
    replacement = _generated_only(original, lambda w: all(v > 0 for v in w))
    return _patch_everywhere(monkeypatch, original, replacement)


def _free_generator_with_s0_s1(monkeypatch):
    original = classes.free_elements

    def free_elements(sizes):
        members = original(sizes)
        for n, windows in members.items():
            if n >= 2:
                windows.add((2, -1, *range(3, n + 1)))  # s_0 s_1
        return members

    return _patch_everywhere(monkeypatch, original, free_elements)


def _grassmannian_generator_without_d0(monkeypatch):
    # d = 0 alone gives the windows with w(1) < 0.
    original = classes.grassmannian_elements
    replacement = _generated_only(original, lambda w: not w or w[0] > 0)
    return _patch_everywhere(monkeypatch, original, replacement)


def _bigrassmannian_generator_without_inverses(monkeypatch):
    return _patch_everywhere(
        monkeypatch, classes.bigrassmannian_elements, classes.grassmannian_elements
    )


def _rank_word_reversed(monkeypatch):
    original = core.rank_word
    return _patch_everywhere(
        monkeypatch, original, lambda word: tuple(len(word) + 1 - r for r in original(word))
    )


def _growth_without_negative_last_entry(monkeypatch):
    original = core.grown_at
    return _patch_everywhere(
        monkeypatch,
        original,
        lambda window, sites: (
            child for child in original(window, sites) if child[-1] != -len(child)
        ),
    )


def _syt_count_plus_one_past_one_row(monkeypatch):
    original = tableaux.syt_count
    return _patch_everywhere(
        monkeypatch, original, lambda shape: original(shape) + (len(shape) > 1)
    )


def _domino_count_plus_one_past_one_row(monkeypatch):
    original = tableaux.domino_count
    return _patch_everywhere(
        monkeypatch, original, lambda shape: original(shape) + (len(shape) > 1)
    )


def _two_core_always_empty(monkeypatch):
    return _patch_everywhere(monkeypatch, tableaux.two_core, lambda shape: ())


def _fib_like_shifted(monkeypatch):
    original = enumeration.fib_like
    return _patch_everywhere(
        monkeypatch, original, lambda k, i: original(k, i - 1) if i > k + 2 else original(k, i)
    )


def _palindromes_without_the_whole(monkeypatch):
    original = enumeration.palindromic_compositions

    def palindromic_compositions(total):
        return (parts for parts in original(total) if total < 3 or parts != (total,))

    return _patch_everywhere(monkeypatch, original, palindromic_compositions)


# The checks that fail under no mutation at max_n 3.
BASELINE = {"oq-two-boolean"}

# The checks that both unsigned mutations below fail.  thm-binomial-sum fails
# by raising: the broken kernel lets through a 132-avoider that is not colayered.
_UNSIGNED = {
    "conj-grassmannian", "conj-smooth-count", "lemma-symmetry", "oq-a115197",
    "oq-gao-hanni", "thm-binomial-sum", "thm-boolean", "thm-central-binomial",
    "thm-fib-like", "thm-free", "thm-greene-counts", "thm-smooth-bc", "thm-vexillary",
}
# The checks comparing a global class with a classical list or basis.
_CLASSICAL = {"prop-gl-basis", "thm-boolean", "thm-free", "thm-smooth-bc", "thm-vexillary"}

MUTATIONS = {
    # Unsigned counts grow S_n as the classical class of -1, so they run on the
    # signed kernel: prop-es-unsigned reads this unsigned kernel no more, and
    # fails with the signed one below.  cor-iota reads iota(w)'s patterns off
    # its index subsets, so only the mirror-word side runs this kernel.
    # global_basis decides each candidate's deletions by pinned searches, not
    # by this kernel, which decides the global class's members of the first
    # size at which a pattern fits: prop-gl-basis compares the two.  The
    # baseline's oq-two-boolean passes: the kernel lets (-1,-2), which holds
    # 4321, into {3421,4312,4321,456123} at size 2, and the anchored test,
    # whose precondition that breaks, lets in four of its children, the four
    # windows the predicate side holds beyond the class at size 3.
    "word_contains ignores the last letter": (
        _word_contains_ignoring_last_letter,
        _UNSIGNED | {"cor-iota", "prop-es-signed", "prop-gl-basis"},
    ),
    # The anchored test reads the mirror word's antisymmetry: it finds the
    # occurrences through -z, the negated appended entry, as those of the
    # reverse-complements through z.  Without the reversal -z sits in the
    # middle of the word, and the pinned letters are not where the test reads them, so
    # checks whose sets are closed under reverse-complement (the smooth and
    # extremal monotone ones) fail too.  oq-gao-hanni passes, as {2143} and
    # {1234} both count 39 at size 3 (33 is right).
    "mirror word without reversal": (
        _mirror_without_reversal,
        BASELINE | _UNSIGNED - {"oq-gao-hanni"} | {"cor-iota", "prop-es-signed", "prop-gl-basis"},
    ),
    "signed kernel ignores signs": (
        _signed_kernel_ignoring_signs,
        BASELINE | _CLASSICAL | {"conj-smooth-count", "prop-es-unsigned"},
    ),
    # The anchored test probes every child of an avoider in a walk.  A mirror
    # word is its own reverse-complement, so an occurrence of p on -z (the
    # negated appended entry) reflects to one of p's reverse-complement on z:
    # searching the set alone at z still decides sets closed under reverse-complement
    # (boolean, free, smooth, vexillary), and fails the checks of other sets.
    "global anchor searches only the w(k) end": (
        _global_anchor_only_at_w_k,
        BASELINE | {"conj-grassmannian", "lemma-symmetry", "thm-binomial-sum", "thm-fib-like"},
    ),
    # The anchored test searches the set and its reverses at z, not its
    # reverse-complements: it misses the occurrences through -z, or finds
    # false ones, in every set whose reverses and reverse-complements differ,
    # such as {3412, 4231} (reverses 2143 and 1324) or {132}.  Only the
    # checks whose sets are closed under both, as {2413, 3142} of oq-a115197
    # is, or that grow no global class are left, and oq-gao-hanni, as {2143}
    # and {1234} both count 24 at size 3 (33 is right).
    "the rule computes rc as reverse only": (
        _rc_rule_by_reverse,
        BASELINE | _UNSIGNED - {"oq-a115197", "oq-gao-hanni"} | {"prop-gl-basis"},
    ),
    # Unsigned classes, walked as the classical class of -1, have no
    # negative w(k), so conj-smooth-count and prop-es-unsigned are unharmed.
    "classical anchor ignores the pinned entry's sign": (
        _classical_anchor_ignoring_its_sign,
        BASELINE | _CLASSICAL,
    ),
    "REVERSE sends 132 to 123": (_reverse_sending_132_to_123, BASELINE | {"lemma-symmetry"}),
    "rc_reduce by reverse": (_rc_reduce_by_reverse, BASELINE | {"lemma-symmetry"}),
    # Below, the structural routes: each planted bug fails only the checks
    # that read the broken function on one compared side.  The boolean, free
    # and Grassmannian families are generated, so no check reads a support or
    # a descent set: planting a bug in either fails no check, and
    # tests/test_classes.py catches it by holding each generator against its
    # predicate.  The boolean generator reads lengths and the free one does
    # not, so only thm-boolean fails with lengths.
    "length ignores negative entries": (
        _length_ignoring_negative_entries,
        BASELINE | {"thm-boolean"},
    ),
    # The bigrassmannian generator inverts each generated Grassmannian element.
    "inverse drops signs": (_inverse_without_signs, BASELINE | {"conj-grassmannian"}),
    "boolean generator never applies s_0": (
        _boolean_generator_without_s0,
        BASELINE | {"thm-boolean"},
    ),
    "free generator takes s_0 s_1": (_free_generator_with_s0_s1, BASELINE | {"thm-free"}),
    # The bigrassmannian generator filters the Grassmannian one, so both fail.
    "grassmannian generator drops d = 0": (
        _grassmannian_generator_without_d0,
        BASELINE | {"conj-grassmannian"},
    ),
    "bigrassmannian generator skips the inverse test": (
        _bigrassmannian_generator_without_inverses,
        BASELINE | {"conj-grassmannian"},
    ),
    "rank_word reverses ranks": (_rank_word_reversed, BASELINE | {"cor-iota", "thm-binomial-sum"}),
    # Growth serves both sides of most pattern comparisons: the walk's step
    # (`core.step`) builds every child it keeps, and the roots' whole node
    # test every child it searches, through `grown_at`.  The bug is caught
    # against formulas, stored terms, predicate scans and unsigned counts
    # (unsigned windows never end in -k, so prop-es-unsigned is unharmed), and
    # by lemma-symmetry, as dropping -k is not symmetric.
    "growth never appends -k": (
        _growth_without_negative_last_entry,
        BASELINE | _UNSIGNED | {"prop-es-signed", "prop-gl-basis"},
    ),
    # The closed forms.  Each planted bug fires on inputs that max_n 3 reaches;
    # one that fires only on larger shapes or indices would fail nothing here.
    "syt_count + 1 past one row": (
        _syt_count_plus_one_past_one_row,
        BASELINE | {"prop-es-unsigned", "thm-greene-counts"},
    ),
    "domino_count + 1 past one row": (
        _domino_count_plus_one_past_one_row,
        BASELINE | {"prop-es-signed", "thm-greene-counts"},
    ),
    "two_core always empty": (_two_core_always_empty, BASELINE | {"thm-greene-counts"}),
    "fib_like shifted past k + 2": (_fib_like_shifted, BASELINE | {"thm-fib-like"}),
    "palindromes drop the one-part composition": (
        _palindromes_without_the_whole,
        BASELINE | {"thm-binomial-sum"},
    ),
}


def failing_checks(reports):
    return {report.check for report in reports if not report.ok()}


def test_no_mutation_fails_only_the_baseline():
    assert failing_checks(run_all(3)) == BASELINE


@pytest.mark.parametrize("case", list(MUTATIONS))
def test_planted_bug_fails_exactly_the_pinned_checks(case, monkeypatch):
    install, failing = MUTATIONS[case]
    assert install(monkeypatch) > 0
    reports = {report.check: report for report in run_all(3)}
    assert failing_checks(reports.values()) == failing
    if case in ("word_contains ignores the last letter", "mirror word without reversal"):
        # The check raised; it is reported as failed, not lost.
        last = reports["thm-binomial-sum"].rows[-1]
        assert last.observed.startswith("NotColayeredError: ")
