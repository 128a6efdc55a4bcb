"""Spans around calls into optpat's modules, installed from outside `src/`.

Each traced function is replaced, at every binding its callers look up, by a
wrapper that records a span. Spans are aggregated per (name, parent name)
into a count, a total and a self time, so millions of calls stay bounded in
memory. A span's self time is its duration minus that of its child spans.

Recursive functions (`evaluation.evaluate`, `pattern.serialize_pattern`) are
wrapped only where other modules call them, never at the binding their own
recursion looks up: a wrapper there would add a stack frame per OPT level and
move the depth at which deep chains overflow.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

# (span name, module, function, recursive). A non-recursive function is also
# rebound inside its own module, where sibling functions look it up.
SPANS = [
    ("core.parse_graph", "optpat.core", "parse_graph", False),
    ("core.serialize_graph", "optpat.core", "serialize_graph", False),
    ("pattern.parse", "optpat.pattern", "parse_pattern", False),
    ("pattern.serialize", "optpat.pattern", "serialize_pattern", True),
    ("pattern.classify", "optpat.pattern", "is_well_designed", False),
    ("pattern.classify", "optpat.pattern", "is_weakly_well_designed", False),
    ("analysis.search", "optpat.analysis", "find_subsumption_counterexample", False),
    ("analysis.search", "optpat.analysis", "find_containment_counterexample", False),
    ("analysis.search", "optpat.analysis", "find_equivalence_counterexample", False),
    ("analysis.check", "optpat.analysis", "check_subsumed_on", False),
    ("analysis.check", "optpat.analysis", "check_contained_on", False),
    ("analysis.check", "optpat.analysis", "check_equivalent_on", False),
    ("evaluation.evaluate", "optpat.evaluation", "evaluate", True),
    ("evaluation.match_basic", "optpat.evaluation", "match_basic", False),
    ("evaluation.join", "optpat.evaluation", "left_outer_join", False),
    ("tiling.find_periodic", "optpat.tiling", "find_periodic", False),
    ("tiling.certify_untileable", "optpat.tiling", "certify_untileable", False),
    ("tiling.find_rectangle", "optpat.tiling", "find_rectangle", False),
    ("reduction.build_p_prime", "optpat.reduction", "build_p_prime", False),
    ("reduction.build_witness", "optpat.reduction", "build_witness", False),
    ("reduction.verify_witness", "optpat.reduction", "verify_witness", False),
]

ROOT = "cli"
MODULES = ("cli", "core", "pattern", "evaluation", "analysis", "tiling", "reduction")


class Tracer:
    """Aggregated spans and counters for the ops run while it is installed."""

    def __init__(self, ignore: tuple[type[BaseException], ...] = ()):
        self.stats: dict[tuple[str, str | None], list[float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._ignore = ignore
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list, duration: float) -> None:
        self._stack.pop()
        name = frame[0]
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        key = (name, parent[0] if parent is not None else None)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]

    def _charge(self, name: str, exc: BaseException) -> None:
        # Charge an exception once, to the innermost span it escaped from.
        # SystemExit and click's usage errors carry exit codes, not faults.
        if isinstance(exc, (SystemExit, *self._ignore)) or hasattr(exc, "exit_code"):
            return
        if getattr(exc, "_perfbench_charged", False):
            return
        try:
            exc._perfbench_charged = True
        except AttributeError:
            pass
        self.errors[(name, type(exc).__name__)] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; used for the per-op root span."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self._charge(name, exc)
            raise
        finally:
            self._exit(frame, time.perf_counter() - start)

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._charge(name, exc)
                raise
            finally:
                tracer._exit(frame, time.perf_counter() - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters fed from arguments and results --------------------------

    def _after_hooks(self) -> dict[str, object]:
        c = self.counters

        def searched(args, verdict):
            c["analysis.candidates_examined"] += verdict.candidates_examined or 0

        def evaluated(args, solutions):
            c["evaluation.solutions"] += len(solutions)
            if self._active["analysis.search"]:
                c["analysis.evals_in_search"] += 1

        def joined(args, solutions):
            c["evaluation.join_pairs"] += len(args[0]) * len(args[1])
            c["evaluation.join_out"] += len(solutions)

        def parsed(args, pattern):
            c["pattern.leaves"] += str(args[0]).count("{")

        def serialized(args, text):
            c["pattern.leaves"] += text.count("{")

        return {
            "analysis.search": searched,
            "evaluation.evaluate": evaluated,
            "evaluation.join": joined,
            "pattern.parse": parsed,
            "pattern.serialize": serialized,
        }

    # -- installation -----------------------------------------------------

    def install(self, cli_main) -> None:
        """Rebind every traced function in optpat's modules and in the
        closures of the CLI's command callbacks."""
        hooks = self._after_hooks()
        table: dict[int, object] = {}
        recursive_home: dict[int, str] = {}
        for name, module_name, attr, recursive in SPANS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not isinstance(fn, types.FunctionType):
                self.missing.append(f"{module_name}.{attr}")
                continue
            table[id(fn)] = self.wrap(name, fn, hooks.get(name))
            if recursive:
                recursive_home[id(fn)] = module_name
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "optpat" or module_name.startswith("optpat.")):
                continue
            for attr, value in list(vars(module).items()):
                key = id(value)
                if key in table and recursive_home.get(key) != module_name:
                    setattr(module, attr, table[key])
                    self._undo.append(functools.partial(setattr, module, attr, value))
        seen: set[int] = set()
        for command in getattr(cli_main, "commands", {}).values():
            _rebind_cells(command.callback, table, seen, self._undo)

    def uninstall(self) -> None:
        """Restore every binding that install() replaced."""
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(sum(v[0] for (n, _), v in self.stats.items() if n == name))

    def outer_calls(self, name: str) -> int:
        return int(sum(v[0] for (n, p), v in self.stats.items() if n == name and p != name))

    def total(self, name: str) -> float:
        """Time inside the span, not double-counting nested spans of the same name."""
        return sum(v[1] for (n, p), v in self.stats.items() if n == name and p != name)

    def self_time(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    def observed(self, name: str) -> bool:
        return self.calls(name) > 0

    def snapshot(self) -> tuple[dict, dict, dict]:
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counters), dict(self.errors)

    def since(self, snap: tuple[dict, dict, dict]) -> "Tracer":
        """A tracer holding only what was recorded after `snap` was taken."""
        stats, counters, errors = snap
        out = Tracer()
        for key, value in self.stats.items():
            base = stats.get(key, (0, 0.0, 0.0))
            if value[0] != base[0]:
                out.stats[key] = [value[i] - base[i] for i in range(3)]
        for key, value in self.counters.items():
            out.counters[key] = value - counters.get(key, 0.0)
        for key, value in self.errors.items():
            if value != errors.get(key, 0):
                out.errors[key] = value - errors.get(key, 0)
        return out


def _rebind_cells(fn, table: dict[int, object], seen: set[int], undo: list) -> None:
    if not isinstance(fn, types.FunctionType) or id(fn) in seen:
        return
    seen.add(id(fn))
    for cell in fn.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if id(value) in table:
            cell.cell_contents = table[id(value)]
            undo.append(functools.partial(setattr, cell, "cell_contents", value))
        else:
            _rebind_cells(value, table, seen, undo)


def per_layer(t: Tracer) -> tuple[dict[str, tuple[float, str, str]], list[str]]:
    """Per-layer metrics as name -> (value, unit, span it depends on), and the
    metric names whose span saw no call ("not observed")."""
    c = t.counters
    candidates = c["analysis.candidates_examined"]
    pairs = c["evaluation.join_pairs"]
    search_s = t.total("analysis.search")
    metrics: dict[str, tuple[float, str, str]] = {
        "cli.self_s": (t.self_time(ROOT), "s", ROOT),
        "core.parse_graph_s": (t.total("core.parse_graph"), "s", "core.parse_graph"),
        "core.serialize_graph_s": (t.total("core.serialize_graph"), "s", "core.serialize_graph"),
        "pattern.parse_s": (t.total("pattern.parse"), "s", "pattern.parse"),
        "pattern.serialize_s": (t.total("pattern.serialize"), "s", "pattern.serialize"),
        "pattern.classify_s": (t.total("pattern.classify"), "s", "pattern.classify"),
        "pattern.leaves": (c["pattern.leaves"], "count", "pattern.parse"),
        "analysis.search_s": (search_s, "s", "analysis.search"),
        "analysis.stream_self_s": (t.self_time("analysis.search"), "s", "analysis.search"),
        "analysis.check_calls": (t.outer_calls("analysis.check"), "count", "analysis.check"),
        "analysis.check_s": (t.total("analysis.check"), "s", "analysis.check"),
        "analysis.candidates_examined": (candidates, "count", "analysis.search"),
        "analysis.evals_per_candidate": (
            c["analysis.evals_in_search"] / candidates if candidates else 0.0,
            "ratio",
            "analysis.search",
        ),
        "analysis.candidates_per_s": (
            candidates / search_s if search_s else 0.0, "1/s", "analysis.search"
        ),
        "evaluation.evaluate_calls": (t.outer_calls("evaluation.evaluate"), "count", "evaluation.evaluate"),
        "evaluation.evaluate_s": (t.total("evaluation.evaluate"), "s", "evaluation.evaluate"),
        "evaluation.match_basic_calls": (t.calls("evaluation.match_basic"), "count", "evaluation.match_basic"),
        "evaluation.match_basic_s": (t.total("evaluation.match_basic"), "s", "evaluation.match_basic"),
        "evaluation.join_calls": (t.calls("evaluation.join"), "count", "evaluation.join"),
        "evaluation.join_s": (t.total("evaluation.join"), "s", "evaluation.join"),
        "evaluation.join_pairs": (pairs, "count", "evaluation.join"),
        "evaluation.join_yield": (
            c["evaluation.join_out"] / pairs if pairs else 0.0, "ratio", "evaluation.join"
        ),
        "evaluation.solutions": (c["evaluation.solutions"], "count", "evaluation.evaluate"),
        "tiling.find_periodic_s": (t.total("tiling.find_periodic"), "s", "tiling.find_periodic"),
        "tiling.certify_untileable_s": (
            t.total("tiling.certify_untileable"), "s", "tiling.certify_untileable"
        ),
        "tiling.find_rectangle_calls": (t.calls("tiling.find_rectangle"), "count", "tiling.find_rectangle"),
        "reduction.build_p_prime_s": (t.total("reduction.build_p_prime"), "s", "reduction.build_p_prime"),
        "reduction.build_witness_s": (t.total("reduction.build_witness"), "s", "reduction.build_witness"),
        "reduction.verify_witness_s": (t.total("reduction.verify_witness"), "s", "reduction.verify_witness"),
    }
    for module in MODULES:
        count = sum(n for (span, _), n in t.errors.items() if span.split(".")[0] == module)
        metrics[f"{module}.errors"] = (count, "count", "")
    unobserved = [m for m, (_, _, span) in metrics.items() if span and not t.observed(span)]
    return metrics, unobserved
