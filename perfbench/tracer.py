"""Outside-in tracer: wraps termalg's public functions from the benchmark.

Nothing under src/termalg changes. Each span name stands for one public
function; installing replaces every binding of that function object in
the termalg modules, so from-imports (cli.load_algebra,
semantics.induced_operation, ...) and module-global calls
(complexity.clone_level inside the census, semantics.ess inside
is_separable) go through the wrapper too. Direct recursion
(print_term calling itself) is one span.

Spans are aggregated in memory per name: calls and self time (span time
minus the time of the spans opened inside it). A few counters record
work at the same boundaries.
"""

import functools
import sys
import time
from collections import defaultdict

SPANS = [
    ("termalg.cli", "main", "cli.main"),
    ("termalg.terms", "parse", "terms.parse"),
    ("termalg.terms", "print_term", "terms.print"),
    ("termalg.algebra", "load_algebra", "algebra.load"),
    ("termalg.algebra", "induced_operation", "algebra.tabulate"),
    ("termalg.kernels", "compose", "kernels.compose"),
    ("termalg.kernels", "cp3_counts", "kernels.cp3_counts"),
    ("termalg.kernels", "essential_mask", "kernels.essential_mask"),
    ("termalg.kernels", "restrict", "kernels.restrict"),
    ("termalg.semantics", "ess", "semantics.ess"),
    ("termalg.semantics", "sep_sets", "semantics.sep_sets"),
    ("termalg.semantics", "is_separable", "semantics.is_separable"),
    ("termalg.semantics", "is_subterm", "semantics.is_subterm"),
    ("termalg.semantics", "satisfies_identity", "semantics.identity"),
    ("termalg.complexity", "clone_level", "complexity.clone_level"),
    ("termalg.complexity", "algebra_n_complexity", "complexity.census_cp3"),
    ("termalg.complexity", "cp3_set", "complexity.cp3_set"),
    ("termalg.complexity", "cp3_total", "complexity.cp3_total"),
]

# metric name -> unit
METRICS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "terms.parse_calls": "count",
    "terms.parse_s": "s",
    "terms.print_calls": "count",
    "terms.print_s": "s",
    "algebra.load_s": "s",
    "algebra.tabulate_calls": "count",
    "algebra.tabulate_s": "s",
    "algebra.table_entries": "count",
    "kernels.compose_calls": "count",
    "kernels.compose_s": "s",
    "kernels.compose_entries": "count",
    "kernels.cp3_counts_calls": "count",
    "kernels.cp3_counts_s": "s",
    "kernels.essential_mask_calls": "count",
    "kernels.essential_mask_s": "s",
    "kernels.restrict_calls": "count",
    "kernels.restrict_s": "s",
    "semantics.ess_s": "s",
    "semantics.sep_sets_s": "s",
    "semantics.is_separable_s": "s",
    "semantics.is_subterm_s": "s",
    "semantics.identity_s": "s",
    "semantics.subterm_tabulations": "count",
    "complexity.clone_level_s": "s",
    "complexity.clone_members": "count",
    "complexity.closure_yield": "ratio",
    "complexity.census_cp3_s": "s",
    "complexity.cp3_set_s": "s",
    "complexity.cp3_total_s": "s",
    "trace.overhead_frac": "ratio",
}


class _Span:
    __slots__ = ("calls", "self")

    def __init__(self):
        self.calls = 0
        self.self = 0.0


class Tracer:
    """Install, run a pass, `snapshot()`, `reset()`, `uninstall()`."""

    def __init__(self):
        self.patched = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        self.spans = defaultdict(_Span)
        self.counters = defaultdict(int)
        self._stack = []  # [span name, child time] of the open spans
        self._open = defaultdict(int)

    def install(self):
        modules = [
            m
            for name, m in list(sys.modules.items())
            if (name == "termalg" or name.startswith("termalg."))
            and not name.rsplit(".", 1)[-1].startswith("_")
        ]
        for module_name, attr, span in SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self.patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, original in reversed(self.patched):
            setattr(m, key, original)
        self.patched = []

    def _wrap(self, span, fn):
        stack, opened, clock = self._stack, self._open, time.perf_counter
        stats = self.spans
        counters = self.counters
        count = _COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            opened[span] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[span] -= 1
                if stack:
                    stack[-1][1] += elapsed
                s = stats[span]
                s.calls += 1
                s.self += elapsed - frame[1]
            if count is not None:
                count(counters, opened, args, kwargs, result)
            return result

        return traced

    def snapshot(self):
        """Per-layer metrics (all but trace.overhead_frac) since `reset`."""
        s, c = self.spans, self.counters
        out = {
            "cli.calls": s["cli.main"].calls,
            "cli.self_s": s["cli.main"].self,
            "terms.parse_calls": s["terms.parse"].calls,
            "terms.parse_s": s["terms.parse"].self,
            "terms.print_calls": s["terms.print"].calls,
            "terms.print_s": s["terms.print"].self,
            "algebra.load_s": s["algebra.load"].self,
            "algebra.tabulate_calls": s["algebra.tabulate"].calls,
            "algebra.tabulate_s": s["algebra.tabulate"].self,
            "algebra.table_entries": c["table_entries"],
            "kernels.compose_entries": c["compose_entries"],
            "semantics.subterm_tabulations": c["subterm_tabulations"],
            "complexity.clone_level_s": s["complexity.clone_level"].self,
            "complexity.clone_members": c["clone_members"],
            "complexity.closure_yield": (
                c["closure_new"] / c["closure_compose"] if c["closure_compose"] else 0.0
            ),
            "complexity.census_cp3_s": s["complexity.census_cp3"].self,
            "complexity.cp3_set_s": s["complexity.cp3_set"].self,
            "complexity.cp3_total_s": s["complexity.cp3_total"].self,
        }
        for k in ("compose", "cp3_counts", "essential_mask", "restrict"):
            out[f"kernels.{k}_calls"] = s[f"kernels.{k}"].calls
            out[f"kernels.{k}_s"] = s[f"kernels.{k}"].self
        for k in ("ess", "sep_sets", "is_separable", "is_subterm", "identity"):
            out[f"semantics.{k}_s"] = s[f"semantics.{k}"].self
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_tabulate(counters, opened, args, kwargs, result):
    counters["table_entries"] += len(result.values)
    if opened["semantics.is_subterm"]:
        counters["subterm_tabulations"] += 1


def _count_compose(counters, opened, args, kwargs, result):
    counters["compose_entries"] += _arg(args, kwargs, 4, "size")
    if opened["complexity.clone_level"]:
        counters["closure_compose"] += 1


def _count_clone(counters, opened, args, kwargs, result):
    # every member beyond the n projections came out of a compose call
    counters["clone_members"] += result.size
    counters["closure_new"] += result.size - _arg(args, kwargs, 1, "n")


_COUNTERS = {
    "algebra.tabulate": _count_tabulate,
    "kernels.compose": _count_compose,
    "complexity.clone_level": _count_clone,
}
