"""
Per-layer tracing of bperm from outside the program.

`Tracer.install()` replaces, in every loaded bperm module, each name bound to
a traced function, so a call is seen wherever the name is looked up: bperm
binds names with `from .x import y`, and wrapping only the defining module
would miss calls from the others.  `uninstall()` restores every binding.

Hot leaf calls (window generation, mirror words, kernel probes, predicates)
only update counters.  Coarser calls (the CLI, checks, counts, branches,
bases, memo reads and writes) also record spans, which stay in memory until
`write_spans` is called at the end of the run.  A branch that `enumeration`
fans out to a process pool returns its counter deltas and spans inside its
result, and the parent adds them up, so every count is the same at any
`--jobs`.  Times are summed over processes: with a pool they are busy time
and can exceed wall time.
"""
from __future__ import annotations

import functools
import inspect
import json
import multiprocessing
import os
import sys
import threading
import time

from reference import CHECK_CAPS

clock = time.perf_counter
_END = object()

# Counters that a pool branch sends back to the parent as deltas.
ADDITIVE = (
    "windows", "windows_s", "mirror_s", "probes", "probe_hits", "kernel_s",
    "avoiders", "enum_windows", "predicate_calls", "predicate_s",
    "tableaux_calls", "tableaux_s", "basis_s",
)

# The per-layer metrics a traced run reports: name, unit, better.
LAYER_METRICS = [
    ("core.windows", "count", "lower"),
    ("core.windows_s", "s", "lower"),
    ("core.mirror_s", "s", "lower"),
    ("patterns.probes", "count", "lower"),
    ("patterns.probe_hits", "count", "lower"),
    ("patterns.kernel_s", "s", "lower"),
    ("patterns.basis_s", "s", "lower"),
    ("enumeration.avoiders_per_window", "ratio", "higher"),
    ("enumeration.branch_imbalance", "ratio", "lower"),
    ("enumeration.pool_utilization", "ratio", "higher"),
    ("enumeration.memo_hits", "count", "higher"),
    ("enumeration.memo_misses", "count", "lower"),
    ("enumeration.memo_s", "s", "lower"),
    *[(f"harness.{check}_s", "s", "lower") for check in sorted(CHECK_CAPS)],
    ("harness.repeat_class_calls", "count", "lower"),
    ("classes.predicate_calls", "count", "lower"),
    ("classes.predicate_s", "s", "lower"),
    ("tableaux.calls", "count", "lower"),
    ("tableaux.s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
]
COUNTER_METRICS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]

# The tracer of this process.  It is module state because pool branches
# reach it through `_traced_branch_count`, which is pickled by reference.
_ACTIVE: Tracer | None = None


class _CountingCache(dict):
    """The memo dict `load_cache` returns, counting lookups as hits or misses."""

    tracer: Tracer

    def __contains__(self, key: object) -> bool:
        found = dict.__contains__(self, key)
        if found:
            self.tracer.memo_hits += 1
        else:
            self.tracer.memo_misses += 1
        return found


class _ChildCount(int):
    """A pool branch's count, carrying its counters back to the parent."""

    payload: dict

    def __reduce__(self):
        return _absorb, (int(self), self.payload)


def _absorb(value: int, payload: dict) -> int:
    """Unpickled in the parent: add a branch's counters, return its count."""
    if _ACTIVE is not None:
        _ACTIVE.absorb(payload)
    return value


def _traced_branch_count(task):
    """Stands in for `enumeration._branch_count`, in-process and in pool workers."""
    tracer = _ACTIVE
    before = {name: getattr(tracer, name) for name in ADDITIVE}
    first_span = len(tracer.spans)
    cpu = time.process_time()
    with tracer.span("enumeration.branch"):
        start = clock()
        result = tracer.original_branch(task)
        elapsed = clock() - start
    if multiprocessing.parent_process() is None:
        tracer.branch_times.append(elapsed)
        return result
    count = _ChildCount(result)
    count.payload = {
        "counters": {name: getattr(tracer, name) - before[name] for name in ADDITIVE},
        "branch_s": elapsed,
        "cpu_s": time.process_time() - cpu,
        "spans": tracer.spans[first_span:],
    }
    return count


class Tracer:
    """Counters, timings and spans of one traced run."""

    def __init__(self) -> None:
        for name in ADDITIVE:
            setattr(self, name, 0)
        self.memo_hits = self.memo_misses = 0
        self.memo_s = 0.0
        self.check_s: dict[str, float] = {}
        self.class_keys: set = set()
        self.repeat_class_calls = 0
        self.branch_times: list[float] = []
        self.branch_max_sum = self.branch_mean_sum = 0.0
        self.pool_capacity_s = self.child_cpu_s = 0.0
        self.cli_main_s = self.cli_calls_s = 0.0
        self.enum_depth = self.predicate_depth = self.tableaux_depth = 0
        self.cli_depth = 0
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.span_count = 0
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self.original_branch = None

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, detail: str = ""):
        return _Span(self, name, detail)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "detail", "start_s", "end_s", "pid"],
                    "spans": self.spans,
                },
                handle,
            )

    # -- pool branches -------------------------------------------------------

    def absorb(self, payload: dict) -> None:
        with self._lock:
            for name, delta in payload["counters"].items():
                setattr(self, name, getattr(self, name) + delta)
            self.branch_times.append(payload["branch_s"])
            self.child_cpu_s += payload["cpu_s"]
            self.spans.extend(payload["spans"])

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        values = {
            "core.windows": self.windows,
            "core.windows_s": self.windows_s,
            "core.mirror_s": self.mirror_s,
            "patterns.probes": self.probes,
            "patterns.probe_hits": self.probe_hits,
            "patterns.kernel_s": self.kernel_s,
            "patterns.basis_s": self.basis_s,
            "enumeration.avoiders_per_window": (
                self.avoiders / self.enum_windows if self.enum_windows else 0.0
            ),
            "enumeration.branch_imbalance": (
                self.branch_max_sum / self.branch_mean_sum if self.branch_mean_sum else 0.0
            ),
            "enumeration.pool_utilization": (
                self.child_cpu_s / self.pool_capacity_s if self.pool_capacity_s else 0.0
            ),
            "enumeration.memo_hits": self.memo_hits,
            "enumeration.memo_misses": self.memo_misses,
            "enumeration.memo_s": self.memo_s,
            "harness.repeat_class_calls": self.repeat_class_calls,
            "classes.predicate_calls": self.predicate_calls,
            "classes.predicate_s": self.predicate_s,
            "tableaux.calls": self.tableaux_calls,
            "tableaux.s": self.tableaux_s,
            "cli.overhead_s": self.cli_main_s - self.cli_calls_s,
        }
        for check in CHECK_CAPS:
            values[f"harness.{check}_s"] = self.check_s.get(check, 0.0)
        return {name: values[name] for name, _, _ in LAYER_METRICS}

    # -- installation --------------------------------------------------------

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        global _ACTIVE
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "bperm" or name.startswith("bperm."))
        }
        wrappers = {}
        for module_name, function_name, factory in self._targets(modules):
            original = getattr(modules.get(module_name), function_name, None)
            if original is not None:
                wrappers[original] = factory(original)
        cli = modules.get("bperm.cli")
        for module in modules.values():
            for name, value in list(vars(module).items()):
                replacement = wrappers.get(value) if inspect.isfunction(value) else None
                if module is cli and _is_layer_function(value):
                    replacement = self._cli_call(replacement or value)
                if replacement is not None:
                    self._restore.append((module, name, value))
                    setattr(module, name, replacement)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _targets(self, modules):
        classes = modules.get("bperm.classes")
        predicates = [
            name for name, value in vars(classes).items()
            if name.startswith("is_") and inspect.isfunction(value)
            and value.__module__ == "bperm.classes"
        ] if classes else []
        return [
            ("bperm.core", "iter_windows", self._windows),
            ("bperm.core", "mirror_of_window", self._mirror),
            ("bperm.patterns", "word_contains", self._kernel),
            ("bperm.patterns", "signed_word_contains", self._kernel),
            ("bperm.patterns", "global_basis", self._spanned("patterns.global_basis", "basis_s")),
            ("bperm.patterns", "count_avoiders", self._count_avoiders),
            ("bperm.patterns", "gav", functools.partial(self._class_stream, "global")),
            ("bperm.patterns", "classical_avoiders",
             functools.partial(self._class_stream, "classical")),
            ("bperm.patterns", "gav_count", self._gav_count),
            ("bperm.enumeration", "_count_exhaustive", self._count_exhaustive),
            ("bperm.enumeration", "_branch_count", self._branch),
            ("bperm.enumeration", "load_cache", self._load_cache),
            ("bperm.enumeration", "store_cache", self._spanned("enumeration.store_cache", "memo_s")),
            ("bperm.enumeration", "sequence", self._spanned("enumeration.sequence")),
            *[("bperm.classes", name, self._outermost("predicate")) for name in predicates],
            ("bperm.tableaux", "domino_count", self._outermost("tableaux")),
            ("bperm.tableaux", "is_domino_tileable", self._outermost("tableaux")),
            ("bperm.tableaux", "partitions", lambda original: self._outermost("tableaux")(_eager(original))),
            ("bperm.harness", "run_check", self._run_check),
            ("bperm.cli", "main", self._cli_main),
        ]

    # -- wrappers ------------------------------------------------------------

    def _windows(self, original):
        tracer = self

        @functools.wraps(original)
        def iter_windows(*args, **kwargs):
            windows = iter(original(*args, **kwargs))
            while True:
                start = clock()
                window = next(windows, _END)
                tracer.windows_s += clock() - start
                if window is _END:
                    return
                tracer.windows += 1
                if tracer.enum_depth:
                    tracer.enum_windows += 1
                yield window

        return iter_windows

    def _mirror(self, original):
        tracer = self

        @functools.wraps(original)
        def mirror_of_window(window):
            start = clock()
            mirror = original(window)
            tracer.mirror_s += clock() - start
            return mirror

        return mirror_of_window

    def _kernel(self, original):
        tracer = self

        @functools.wraps(original)
        def kernel(word, pattern):
            start = clock()
            hit = original(word, pattern)
            tracer.kernel_s += clock() - start
            tracer.probes += 1
            if hit:
                tracer.probe_hits += 1
            return hit

        return kernel

    def _count_avoiders(self, original):
        tracer = self

        @functools.wraps(original)
        def count_avoiders(*args, **kwargs):
            tracer.enum_depth += 1
            try:
                count = original(*args, **kwargs)
            finally:
                tracer.enum_depth -= 1
            tracer.avoiders += count
            return count

        return count_avoiders

    def _note_class(self, route: str, n: int, patterns: tuple) -> None:
        key = (route, n, tuple(sorted(str(p) for p in patterns)))
        if key in self.class_keys:
            self.repeat_class_calls += 1
        else:
            self.class_keys.add(key)

    def _class_stream(self, route, original):
        tracer = self

        def stream(members):
            while True:
                tracer.enum_depth += 1
                try:
                    member = next(members, _END)
                finally:
                    tracer.enum_depth -= 1
                if member is _END:
                    return
                tracer.avoiders += 1
                yield member

        @functools.wraps(original)
        def class_members(n, patterns):
            patterns = tuple(patterns)
            tracer._note_class(route, n, patterns)
            return stream(iter(original(n, patterns)))

        return class_members

    def _gav_count(self, original):
        tracer = self

        @functools.wraps(original)
        def gav_count(n, patterns):
            patterns = tuple(patterns)
            tracer._note_class("global", n, patterns)
            return original(n, patterns)

        return gav_count

    def _count_exhaustive(self, original):
        tracer = self

        @functools.wraps(original)
        def count_exhaustive(*args, **kwargs):
            names = ("n", "pattern_words", "mode", "jobs")
            bound = dict(zip(names, args), **kwargs)
            outer = tracer.branch_times
            tracer.branch_times = branch_times = []
            start = clock()
            try:
                with tracer.span("enumeration.count", f"n={bound.get('n')}"):
                    count = original(*args, **kwargs)
            finally:
                tracer.branch_times = outer
            elapsed = clock() - start
            if branch_times:
                tracer.branch_max_sum += max(branch_times)
                tracer.branch_mean_sum += sum(branch_times) / len(branch_times)
            jobs = bound.get("jobs", 1)
            if jobs > 1 and bound.get("n", 0) > 0:
                tracer.pool_capacity_s += jobs * elapsed
            return count

        return count_exhaustive

    def _branch(self, original):
        self.original_branch = original
        return _traced_branch_count

    def _load_cache(self, original):
        @functools.wraps(original)
        def load_cache(*args, **kwargs):
            cache = _CountingCache(original(*args, **kwargs))
            cache.tracer = self
            return cache

        return self._spanned("enumeration.load_cache", "memo_s")(load_cache)

    def _spanned(self, name: str, seconds: str | None = None):
        """Record a span around each call, and add its time to `seconds`."""
        tracer = self

        def factory(original):
            @functools.wraps(original)
            def spanned(*args, **kwargs):
                start = clock()
                try:
                    with tracer.span(name):
                        return original(*args, **kwargs)
                finally:
                    if seconds:
                        setattr(tracer, seconds, getattr(tracer, seconds) + clock() - start)

            return spanned

        return factory

    def _outermost(self, layer: str):
        """Count every call into `layer`; time those not nested in another."""
        tracer = self
        calls, seconds, depth = f"{layer}_calls", f"{layer}_s", f"{layer}_depth"

        def factory(original):
            @functools.wraps(original)
            def call(*args, **kwargs):
                setattr(tracer, calls, getattr(tracer, calls) + 1)
                if getattr(tracer, depth):
                    return original(*args, **kwargs)
                setattr(tracer, depth, 1)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(tracer, seconds, getattr(tracer, seconds) + clock() - start)
                    setattr(tracer, depth, 0)

            return call

        return factory

    def _run_check(self, original):
        tracer = self

        @functools.wraps(original)
        def run_check(check_id, *args, **kwargs):
            start = clock()
            with tracer.span("harness.run_check", str(check_id)):
                report = original(check_id, *args, **kwargs)
            tracer.check_s[check_id] = tracer.check_s.get(check_id, 0.0) + clock() - start
            return report

        return run_check

    def _cli_main(self, original):
        tracer = self

        @functools.wraps(original)
        def main(*args, **kwargs):
            tracer.cli_depth += 1
            start = clock()
            try:
                with tracer.span("cli.main"):
                    return original(*args, **kwargs)
            finally:
                tracer.cli_depth -= 1
                if not tracer.cli_depth:
                    tracer.cli_main_s += clock() - start

        return main

    def _cli_call(self, function):
        """Time a call the CLI makes into another layer (not CLI overhead)."""
        tracer = self

        @functools.wraps(function)
        def layer_call(*args, **kwargs):
            if tracer.cli_depth != 1:
                return function(*args, **kwargs)
            tracer.cli_depth += 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                tracer.cli_calls_s += clock() - start
                tracer.cli_depth -= 1

        return layer_call


def _eager(generator_function):
    """Build a generator's items inside the call, so that the call can be timed."""
    @functools.wraps(generator_function)
    def eager(*args, **kwargs):
        return iter(list(generator_function(*args, **kwargs)))

    return eager


def _is_layer_function(value) -> bool:
    """A function of another bperm module, bound in the CLI's namespace."""
    module = getattr(value, "__module__", "") if inspect.isfunction(value) else ""
    return module.startswith("bperm.") and module != "bperm.cli"


class _Span:
    __slots__ = ("tracer", "name", "detail", "start", "id")

    def __init__(self, tracer: Tracer, name: str, detail: str) -> None:
        self.tracer, self.name, self.detail = tracer, name, detail

    def __enter__(self):
        tracer = self.tracer
        tracer.span_count += 1
        self.id = f"{os.getpid()}.{tracer.span_count}"
        tracer.stack.append(self.id)
        self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        end = clock()
        stack = self.tracer.stack
        stack.pop()
        self.tracer.spans.append(
            (self.id, stack[-1] if stack else None, self.name, self.detail,
             self.start, end, os.getpid())
        )
