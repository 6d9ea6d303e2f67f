"""Outside-in tracer for the spanflats layers.

The tracer wraps public functions of the spanflats modules by name, from
outside the package: every module attribute that holds the original function
(including the copies that ``cli`` and other modules imported by name) is
replaced by a timing wrapper. A name that no longer exists raises
``MissingTarget``, so moving a function to another module cannot silently
drop its metric.

Each wrapped call records its inclusive time; its self time is the inclusive
time minus the time of the wrapped calls made inside it. The wrapper's own
bookkeeping is charged to neither, and shows only in the traced wall time.
Spans are kept in memory (up to ``MAX_SPANS``; aggregates are always
complete) and written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from math import comb
from time import perf_counter_ns

# Spans kept per run; calls beyond it are still counted in the aggregates.
MAX_SPANS = 50_000

# Public names wrapped, per spanflats module. "Flat.contains" is the method;
# the free kernel.contains delegates to it.
TARGETS = {
    "kernel": ("Flat.contains", "int_rref", "affine_rank"),
    "spans": (
        "spanned_flats",
        "is_r_degenerate",
        "max_degenerate_subset",
        "max_cover_plane_or_two_lines",
    ),
    "incidence": ("count_bichromatic",),
    "constructions": (
        "bichromatic_lower_construction",
        "theta_mk_construction",
        "purdy_counterexample",
        "verify_covering_lines",
    ),
    "formulas": (
        "purdy_counts",
        "purdy_crossover",
        "pigeonhole_check",
        "floor_scaled_power",
        "ceil_scaled_power",
    ),
    "cli": ("main", "emit_table", "beck3_instance"),
}

COVER = ("spans.is_r_degenerate", "spans.max_degenerate_subset",
         "spans.max_cover_plane_or_two_lines")
GENERATORS = ("constructions.bichromatic_lower_construction",
              "constructions.theta_mk_construction",
              "constructions.purdy_counterexample")

# Metrics that count work; they must repeat exactly between runs of the
# same input.
COUNT_METRICS = (
    "kernel.contains.calls",
    "kernel.int_rref.calls",
    "kernel.affine_rank.calls",
    "spans.spanned_flats.calls",
    "spans.subsets_scanned",
    "spans.flats_found",
    "incidence.pairs_tested",
    "constructions.purdy_attempts",
    "cli.beck3_instance.attempts",
)


class MissingTarget(LookupError):
    """A traced name is gone from the module the tracer expects it in."""


def _short(label: str) -> str:
    """'kernel.Flat.contains' -> 'kernel.contains' (metric names)."""
    module, *rest = label.split(".")
    return f"{module}.{rest[-1]}"


class Tracer:
    """Call counts, inclusive and self times, parent->child call counts and
    a bounded in-memory span log for the wrapped functions."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counters: Counter = Counter()
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, t0, t1
        self.dropped_spans = 0
        self._stack: list[list] = []  # [name, span id, child_ns]
        self._next_id = 0
        self._seen_spans: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self._spanned_sig = None

    # -------------------------------------------------------------- wrapping

    def wrap(self, name: str, fn, after=None):
        """A wrapper timing ``fn`` under ``name``; ``after(args, kwargs,
        result)`` runs on return, outside the timed interval."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        edges = self.edges

        def wrapper(*args, **kwargs):
            enter = perf_counter_ns()
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, self._next_id, 0]
            stack.append(frame)
            try:
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    stack.pop()
                    stats[0] += 1
                    stats[1] += t1 - t0
                    stats[2] += t1 - t0 - frame[2]
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append(
                            (frame[1], parent[1] if parent else 0, name, t0, t1)
                        )
                    else:
                        self.dropped_spans += 1
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                if parent is not None:
                    edges[(parent[0], name)] += 1
                    parent[2] += perf_counter_ns() - enter

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in TARGETS; raises MissingTarget if one is gone."""
        import spanflats.cli  # noqa: F401  (imports every spanflats module)
        from spanflats import spans

        self._spanned_sig = inspect.signature(spans.spanned_flats)

        modules = [m for k, m in list(sys.modules.items())
                   if k == "spanflats" or k.startswith("spanflats.")]
        hooks = {
            "spans.spanned_flats": self._after_spanned_flats,
            "incidence.count_bichromatic": self._after_count_bichromatic,
        }
        for modname, names in TARGETS.items():
            module = sys.modules.get(f"spanflats.{modname}")
            if module is None:
                raise MissingTarget(f"module spanflats.{modname} is gone")
            for dotted in names:
                owner = module
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, attr, None)):
                    raise MissingTarget(
                        f"spanflats.{modname}.{dotted} is gone; update bench TARGETS"
                    )
                original = getattr(owner, attr)
                metric = _short(f"{modname}.{dotted}")
                wrapper = self.wrap(metric, original, hooks.get(metric))
                self._replace(owner, attr, original, wrapper)
                if not path:  # module-level function: replace imported copies
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._replace(other, key, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -------------------------------------------------------------- counters

    def _after_spanned_flats(self, args, kwargs, result) -> None:
        bound = self._spanned_sig.bind(*args, **kwargs).arguments
        points, f = bound["points"], bound["f"]
        key = (tuple(points), f)
        if key in self._seen_spans:
            self.counters["spanned_flats.repeats"] += 1
        else:
            self._seen_spans.add(key)
        c = self.counters
        c["subsets_scanned"] += comb(len(dict.fromkeys(points)), f + 1)
        c["flats_found"] += result.count
        c["attach_tests"] += result.count * len(points)
        c["attach_hits"] += sum(len(idxs) for idxs in result.per_flat_points)

    def _after_count_bichromatic(self, args, kwargs, result) -> None:
        arrangement = args[0] if args else kwargs["a"]
        self.counters["pairs_tested"] += arrangement.m * arrangement.n

    # -------------------------------------------------------------- metrics

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name (times in seconds)."""

        def calls(name):
            return self.stats.get(name, (0, 0, 0))[0]

        def incl(name):
            return self.stats.get(name, (0, 0, 0))[1] / 1e9

        def self_s(*names):
            return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        formulas = [n for n in self.stats if n.startswith("formulas.")]
        return {
            "kernel.contains.calls": calls("kernel.contains"),
            "kernel.contains.time_s": incl("kernel.contains"),
            "kernel.int_rref.calls": calls("kernel.int_rref"),
            "kernel.int_rref.time_s": incl("kernel.int_rref"),
            "kernel.affine_rank.calls": calls("kernel.affine_rank"),
            "kernel.affine_rank.time_s": incl("kernel.affine_rank"),
            "spans.spanned_flats.calls": calls("spans.spanned_flats"),
            "spans.spanned_flats.self_s": self_s("spans.spanned_flats"),
            "spans.spanned_flats.repeat_frac": ratio(
                c["spanned_flats.repeats"], calls("spans.spanned_flats")),
            "spans.subsets_scanned": c["subsets_scanned"],
            "spans.flats_found": c["flats_found"],
            "spans.attach_useful_frac": ratio(c["attach_hits"], c["attach_tests"]),
            "spans.cover.self_s": self_s(*COVER),
            "incidence.count_bichromatic.self_s": self_s("incidence.count_bichromatic"),
            "incidence.pairs_tested": c["pairs_tested"],
            "constructions.generate.self_s": self_s(*GENERATORS),
            "constructions.verify_covering_lines.self_s": self_s(
                "constructions.verify_covering_lines"),
            "constructions.purdy_attempts": self.edges[
                ("constructions.purdy_counterexample",
                 "constructions.verify_covering_lines")],
            "cli.beck3_instance.time_s": incl("cli.beck3_instance"),
            "cli.beck3_instance.attempts": self.edges[
                ("cli.beck3_instance", "kernel.affine_rank")],
            "formulas.time_s": self_s(*formulas),
            "cli.emit_table.time_s": incl("cli.emit_table"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def dump(self) -> dict:
        """Everything recorded, as a JSON-ready dict."""
        return {
            "stats": {n: {"calls": s[0], "incl_ns": s[1], "self_ns": s[2]}
                      for n, s in sorted(self.stats.items())},
            "edges": [[p, ch, n] for (p, ch), n in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

