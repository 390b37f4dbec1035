"""The test suite's one way to grow a window at every site."""
from bperm.core import grown_at


def every_site(window):
    """The sites of `window`, +a and -a for a = 1..len(window) + 1."""
    return [site for a in range(1, len(window) + 2) for site in (a, -a)]


def every_child(window):
    """The children of `window` at every site, each once: B_(k-1) grows B_k once."""
    return grown_at(window, every_site(window))
