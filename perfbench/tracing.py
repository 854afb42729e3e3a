"""Per-layer tracing of strata-lab, installed from outside the package.

`install` wraps the public functions of each strata-lab module (the
layers) and rebinds every name that refers to them, in every strata-lab
module that imported them by name, so internal calls are seen too.  Each
wrapped call is a span: self time is its duration minus the time of the
wrapped calls it made.  Spans are aggregated per function (calls, total,
self); calls made once per tree, relation or row (`PER_ITEM`) are only
aggregated, the others are also kept one by one for the trace file.

Counts are taken at the same boundaries:

* `ModEchelon.add_rows` is split by what it does.  On an empty echelon
  in natural column order it is an elimination (`exact_linalg.eliminate`,
  with rows in, rows kept as pivots and fill, the summed pivot-row
  length); on an empty key-ordered echelon it is the block-kernel
  elimination (`exact_linalg.eliminate_keyed`, inside
  `block_kernel_rows`); on a non-empty echelon it extends a cloned one
  (`exact_linalg.extend`).
* `prime_stream` counts the primes drawn and the streams opened.  Every
  certification loop opens one stream, so streams count certified values.
  The loops themselves (`certified_value`, `rank_exact`) are left
  unwrapped, so the work of the closures they evaluate is charged to the
  caller that asked for the value.
* The cache functions compare the cache directory before and after each
  lookup: a lookup that wrote a file is a miss.

The package is imported by `install`, never at module import, so run.py
can use `layer_metrics` without loading strata-lab.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "exact_linalg", "relations", "trees", "wtilde", "homology",
    "psets", "characters", "cache", "cli",
)
PER_ITEM = frozenset({
    "exact_linalg.is_probable_prime", "exact_linalg.lift_symmetric",
    "trees.filtration_level", "trees.valence_partition", "trees.vertex_flags",
    "trees.canonical_form", "trees.apply_permutation", "trees.split_vertex",
    "trees.contract_edge", "trees.decompose_two_vertex", "trees.forget_mark",
    "relations.expand_relation",
    "wtilde.w_map", "wtilde.level1_partition", "wtilde.e_pi", "wtilde.wtilde",
    "wtilde.wtilde_relation", "wtilde.rewrite_to_standard",
    "wtilde.standard_tree", "wtilde.apply_move",
    "psets.inner_level",
})
# certification loops: wrapping them would charge their callers' work to
# exact_linalg
UNWRAPPED = frozenset({"exact_linalg.certified_value", "exact_linalg.rank_exact"})
SHAPE = ("trees.filtration_level", "trees.decompose_two_vertex", "trees.forget_mark")
MAX_SPANS = 50_000


class Tracer:
    """Span stack, per-function aggregates and counts of one worker process."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.eliminations: list[dict] = []
        self._ids = 0
        self._enumerated: set = set()
        self._cache_claimed: set = set()
        self.overhead = 0.0

    def enter(self, name: str) -> list:
        self._ids += 1
        frame = [name, 0.0, 0.0, self._ids]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        entry = self.agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if name not in PER_ITEM and len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[3] if parent else None, name, start, end))
        return dur

    def charge(self, began: float, dur: float) -> None:
        """Book a wrapper's own time (since `began`, less its span) as
        overhead, and out of its caller's self time."""
        extra = perf_counter() - began - dur
        self.overhead += extra
        if self.stack:
            self.stack[-1][2] += extra

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def export(self) -> dict:
        return {
            "agg": self.agg,
            "counts": dict(self.counts),
            "eliminations": self.eliminations,
            "spans": self.spans,
            "overhead": self.overhead,
        }


def _timed(tracer: Tracer, name: str, fn, after=None, failed=None):
    """Wrap fn in a span; after(args, kwargs, result) and failed() add counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        began = perf_counter()
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            dur = tracer.exit(frame)
            if failed is not None:
                failed()
            tracer.charge(began, dur)
            raise
        dur = tracer.exit(frame)
        if after is not None:
            after(args, kwargs, result)
        tracer.charge(began, dur)
        return result

    return traced


def _counted_stream(tracer: Tracer, fn):
    @functools.wraps(fn)
    def prime_stream(*args, **kwargs):
        tracer.counts["exact_linalg.streams"] += 1
        for p in fn(*args, **kwargs):
            tracer.counts["exact_linalg.primes_drawn"] += 1
            yield p

    return prime_stream


def _traced_add_rows(tracer: Tracer, fn):
    @functools.wraps(fn)
    def add_rows(self, rows, presorted=False):
        began = perf_counter()
        rows = list(rows)
        fresh = not self.pivots
        parent = tracer.parent_name()
        if not fresh:
            name = "exact_linalg.extend"
        elif self.key is None:
            name = "exact_linalg.eliminate"
        else:
            name = "exact_linalg.eliminate_keyed"
        frame = tracer.enter(name)
        try:
            added = fn(self, rows, presorted)
        finally:
            dur = tracer.exit(frame)
        if name == "exact_linalg.eliminate":
            fill = sum(len(r) for r in self.pivots.values())
            tracer.counts["exact_linalg.rows_in"] += len(rows)
            tracer.counts["exact_linalg.rows_independent"] += added
            tracer.counts["exact_linalg.fill"] += fill
            tracer.eliminations.append({
                "parent": parent, "prime": self.p, "rows_in": len(rows),
                "rank": self.rank, "fill": fill, "seconds": dur,
            })
        tracer.charge(began, dur)
        return added

    return add_rows


def _cache_files(directory) -> dict:
    try:
        with os.scandir(directory) as entries:
            files = [e for e in entries if e.is_file()]
    except FileNotFoundError:
        return {}
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in files}


def _traced_lookup(tracer: Tracer, name: str, fn, default_dir):
    @functools.wraps(fn)
    def lookup(n, k, cache_dir=None):
        began = perf_counter()
        directory = cache_dir or default_dir()
        before = _cache_files(directory)
        frame = tracer.enter(name)
        try:
            result = fn(n, k, cache_dir)
        finally:
            dur = tracer.exit(frame)
        written = {
            (f, st) for f, st in _cache_files(directory).items()
            if before.get(f) != st
        } - tracer._cache_claimed
        tracer._cache_claimed |= written
        tracer.counts["cache.lookups"] += 1
        if written:
            tracer.counts["cache.misses"] += 1
            tracer.counts["cache.bytes_written"] += sum(st[1] for _, st in written)
        else:
            tracer.counts["cache.hits"] += 1
        tracer.charge(began, dur)
        return result

    return lookup


def _count(tracer: Tracer, key: str, measure):
    def after(args, kwargs, result):
        tracer.counts[key] += measure(result)

    return after


def _wrapper(tracer: Tracer, name: str, fn, modules: dict):
    counts = tracer.counts
    if name == "exact_linalg.prime_stream":
        return _counted_stream(tracer, fn)
    if name in ("cache.cached_strata", "cache.cached_relation_entries"):
        return _traced_lookup(tracer, name, fn, modules["cache"].default_cache_dir)
    after = failed = None
    if name == "relations.generate_relations":
        def after(args, kwargs, rels):
            counts["relations.relations"] += len(rels)
            counts["relations.terms"] += sum(len(r.terms) for r in rels)
    elif name == "trees.enumerate_strata":
        def after(args, kwargs, strata):
            key = (args, tuple(sorted(kwargs.items())))
            if key not in tracer._enumerated:
                tracer._enumerated.add(key)
                counts["trees.strata"] += len(strata)
    elif name == "wtilde.verify_relations_killed":
        after = _count(tracer, "wtilde.relations_checked", lambda rep: rep.relations)
    elif name == "wtilde.verify_forgetful_square":
        after = _count(tracer, "wtilde.squares_checked", lambda rep: rep.checked)
    elif name == "wtilde.rewrite_to_standard":
        after = _count(tracer, "wtilde.moves", lambda res: len(res[1]))

        def failed():
            counts["wtilde.rewrite_failed"] += 1
    return _timed(tracer, name, fn, after, failed)


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, wherever it is bound."""
    import strata_lab  # noqa: F401
    import strata_lab.cache  # noqa: F401
    import strata_lab.cli  # noqa: F401

    # sys.modules, not attribute access: the package attribute `wtilde`
    # is the function of that name, not the module
    modules = {layer: sys.modules[f"strata_lab.{layer}"] for layer in LAYERS}
    wrapped: dict[int, tuple] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
                or name in UNWRAPPED
            ):
                continue
            wrapped[id(obj)] = (obj, _wrapper(tracer, name, obj, modules))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "strata_lab" and not mod_name.startswith("strata_lab."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    echelon = modules["exact_linalg"].ModEchelon
    echelon.add_rows = _traced_add_rows(tracer, echelon.add_rows)


def merge(traces: list[dict]) -> dict:
    """Sum the aggregates and counts of several workers' exported traces."""
    agg: dict[str, list] = {}
    counts: Counter = Counter()
    overhead = 0.0
    for tr in traces:
        overhead += tr["overhead"]
        for name, (calls, total, own) in tr["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        counts.update(tr["counts"])
    return {"agg": agg, "counts": counts, "overhead": overhead}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(merged: dict, n8k3_echelons: list[dict]) -> dict[str, float]:
    """Per-layer metrics from merged traces.

    `n8k3_echelons` are the natural-order eliminations of the (8,3)
    relation matrix, one per prime, as picked out by the caller.
    """
    agg, c = merged["agg"], merged["counts"]

    def total(*names):
        return sum(agg[n][1] for n in names if n in agg)

    def own(*names):
        return sum(agg[n][2] for n in names if n in agg)

    def calls(*names):
        return sum(agg[n][0] for n in names if n in agg)

    homology = [n for n in agg if n.startswith("homology.")]
    first = n8k3_echelons[0] if n8k3_echelons else {}
    return {
        "exact_linalg.eliminate_s": total("exact_linalg.eliminate"),
        "exact_linalg.rows_in": c["exact_linalg.rows_in"],
        "exact_linalg.rows_independent": c["exact_linalg.rows_independent"],
        "exact_linalg.useful_row_ratio": _ratio(
            c["exact_linalg.rows_independent"], c["exact_linalg.rows_in"]),
        "exact_linalg.fill": c["exact_linalg.fill"],
        "exact_linalg.extend_s": total("exact_linalg.extend"),
        "exact_linalg.block_kernel_s": total("exact_linalg.block_kernel_rows"),
        "exact_linalg.quotient_basis_s": own("exact_linalg.quotient_basis"),
        "exact_linalg.primes_drawn": c["exact_linalg.primes_drawn"],
        "exact_linalg.values_certified": c["exact_linalg.streams"],
        "exact_linalg.certify_ratio": _ratio(
            c["exact_linalg.streams"], c["exact_linalg.primes_drawn"]),
        "exact_linalg.n8k3_echelons": len(n8k3_echelons),
        "exact_linalg.n8k3_rows_in": first.get("rows_in", 0),
        "exact_linalg.n8k3_rank": first.get("rank", 0),
        "exact_linalg.n8k3_fill": first.get("fill", 0),
        "relations.generate_s": total("relations.generate_relations"),
        "relations.relations": c["relations.relations"],
        "relations.terms": c["relations.terms"],
        "trees.enumerate_s": total("trees.enumerate_strata"),
        "trees.strata": c["trees.strata"],
        "trees.shape_s": total(*SHAPE),
        "trees.shape_calls": calls(*SHAPE),
        "wtilde.killed_s": total("wtilde.verify_relations_killed"),
        "wtilde.relations_checked": c["wtilde.relations_checked"],
        "wtilde.rewrite_s": total("wtilde.rewrite_to_standard"),
        "wtilde.rewrites": calls("wtilde.rewrite_to_standard"),
        "wtilde.rewrite_failed": c["wtilde.rewrite_failed"],
        "wtilde.moves": c["wtilde.moves"],
        "wtilde.square_s": total("wtilde.verify_forgetful_square"),
        "wtilde.squares_checked": c["wtilde.squares_checked"],
        "homology.self_s": own(*homology),
        "homology.calls": calls(*homology),
        "psets.self_s": own(*(n for n in agg if n.startswith("psets."))),
        "cache.lookup_s": own("cache.cached_strata", "cache.cached_relation_entries"),
        "cache.lookups": c["cache.lookups"],
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.hit_ratio": _ratio(c["cache.hits"], c["cache.lookups"]),
        "cache.bytes_written": c["cache.bytes_written"],
        "trace.overhead_s": merged["overhead"],
    }
