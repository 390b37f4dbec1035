import pytest

from bperm import patterns


@pytest.fixture
def probes(monkeypatch):
    """
    Every containment probe made while the test runs, in order, as (search,
    word): calls to `word_contains` and `signed_word_contains`, by name, and
    calls to the pinned `_compiled` searches that an anchored node test
    fetched, as "anchored", with a copy of the word as that probe saw it.
    """
    calls = []
    for name in ("word_contains", "signed_word_contains"):
        def whole(word, pattern, name=name, original=getattr(patterns, name)):
            calls.append((name, word))
            return original(word, pattern)

        monkeypatch.setattr(patterns, name, whole)
    compile_ = patterns._compiled

    def compiled(pattern, signed, pinned, count, first=0):
        search = compile_(pattern, signed, pinned, count, first)
        if not pinned:
            return search

        def anchored(*args):
            # The word follows the pinned letters; a node test rewrites it per site.
            calls.append(("anchored", tuple(args[pinned])))
            return search(*args)

        return anchored

    monkeypatch.setattr(patterns, "_compiled", compiled)
    return calls
