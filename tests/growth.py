"""The test suite's one way to grow a window at every site."""
from bperm.core import grown_at


def every_child(window):
    """The children of `window` at every site, each once: B_(k-1) grows B_k once."""
    k = len(window) + 1
    return grown_at(window, [site for a in range(1, k + 1) for site in (a, -a)])
