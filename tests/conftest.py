import pytest

from bperm import patterns


@pytest.fixture
def probes(monkeypatch):
    """
    Every containment probe made while the test runs, in order, as (search,
    word): calls to `word_contains` and `signed_word_contains`, by name, and
    calls to the searches that `_anchored_search` returns, as "anchored".
    """
    calls = []
    for name in ("word_contains", "signed_word_contains"):
        def whole(word, pattern, name=name, original=getattr(patterns, name)):
            calls.append((name, word))
            return original(word, pattern)

        monkeypatch.setattr(patterns, name, whole)
    build = patterns._anchored_search

    def anchored_search(pattern, signed):
        search = build(pattern, signed)

        def anchored(word):
            calls.append(("anchored", word))
            return search(word)

        return anchored

    monkeypatch.setattr(patterns, "_anchored_search", anchored_search)
    return calls
