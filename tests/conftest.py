import pytest

from bperm import patterns


@pytest.fixture
def probes(monkeypatch):
    """
    Every containment probe made while the test runs, in order, as (search,
    word): calls to `word_contains` and `signed_word_contains`, by name, and
    calls to the pinned `_compiled` searches that an anchored avoidance test
    fetched, as "anchored".
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

        def anchored(v0, word, start, end):
            calls.append(("anchored", word))
            return search(v0, word, start, end)

        return anchored

    monkeypatch.setattr(patterns, "_compiled", compiled)
    return calls
