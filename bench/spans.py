"""In-memory spans around the public functions of every tukeyseg layer, for the traced run only.

``Tracer.install`` wraps each public function defined in ``tukeyseg.<layer>``
and re-binds the wrapper under every name that refers to that function in
any loaded tukeyseg module, so a call is traced in whatever namespace makes
it. ``Tracer.uninstall`` puts the originals back. Nothing in the package is
edited; the spans stay in memory until the run reads them.

A span records the function (``layer.name``), the span that was open when
it was called, start and end ``perf_counter`` times, whether it raised, and
for a few functions a small value taken from the arguments or result (bytes
decoded, arrays held, table sizes). Work fanned out by
``parallel.parallel_map`` runs in ``parallel.item`` spans whose parent is the
map's span, so spans made in worker threads keep their caller.

Timings follow one rule: the median, the tail, and the sample count. The
tail is the highest of the 75th, 90th, 95th and 99th nearest-rank
percentiles that has at least ten samples beyond it; with fewer than 40
samples none has, and the tail is the maximum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from spec import COMPUTED, LAYERS, TIMED

ITEM = "parallel.item"
_DECODERS = {"io.read_ppm": "ppm", "io.read_flo": "flo", "io.read_saliency_pgm": "sal",
             "io.read_pgm16": "pgm16"}
_SEGMENT_SCANS = ("stats.quartiles", "stats.outlier_set", "stats.outlier_scale")


def _files_by_kind(seq) -> dict[str, int]:
    frames = seq.num_frames
    return {"ppm": frames, "flo": seq.flow_count, "sal": frames * seq.has_saliency,
            "pgm16": frames * seq.has_labels, "masks": frames * len(seq.mask_methods)}


def _fusion_weights(result) -> tuple[int, int, int]:
    fused, records = result
    return sum(r.alpha == 0 for r in records), len(records), len(fused)


# Small values kept per span: (args, result) -> value. Never keep the arrays themselves.
_VALUES = {
    **{name: (lambda args, result: len(args[0])) for name in _DECODERS},
    "io.open_sequence": lambda args, seq: _files_by_kind(seq),
    "segment.segment_sequence": lambda args, r: sum(f.nbytes for f in r.foregroundness),
    "refine.rgb_to_lab": lambda args, lab: lab.nbytes,
    "refine.normalize_lab": lambda args, frames: sum(f.nbytes for f in frames),
    "refine.build_consensus": lambda args, table: len(table.ids),
    "fusion.fuse_sequence": lambda args, result: _fusion_weights(result),
    "parallel.parallel_map": lambda args, result: args[2] if len(args) > 2 else 1,
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    ok: bool
    value: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, first_id: int = 0):
        self.spans: list[Span] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, span_id, name, parent, fn, args, kwargs):
        stack = self._stack()
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            value = _VALUES[name](args, result) if ok and name in _VALUES else None
            self.spans.append(Span(span_id, name, parent, start, end, ok, value))
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            if name == "parallel.parallel_map":
                args = (self._item(args[0], span_id), *args[1:])
            return self._call(span_id, name, stack[-1] if stack else None, fn, args, kwargs)

        return traced

    def _item(self, fn, map_id):
        def item(x):
            return self._call(next(self._ids), ITEM, map_id, fn, (x,), {})

        return item

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tukeyseg.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tukeyseg" and not mod_name.startswith("tukeyseg."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def tail(sorted_values) -> float:
    """The highest percentile level with at least ten samples beyond it (see module docstring)."""
    n = len(sorted_values)
    for level in (99, 95, 90, 75):
        rank = math.ceil(level / 100 * n)
        if n - rank >= 10:
            return sorted_values[rank - 1]
    return sorted_values[-1]


class SpanIndex:
    """Parent/child lookups over the spans of one or more traced passes."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def caller_layer(self, span) -> str | None:
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name == ITEM:
            parent = self.by_id.get(parent.parent)
        return parent.layer if parent else None

    def root(self, span) -> Span:
        while span.parent is not None:
            span = self.by_id[span.parent]
        return span

    def self_seconds(self, span) -> float:
        covered, cursor = 0.0, span.start
        for start, end in sorted((c.start, c.end) for c in self.children[span.id]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.seconds - covered


def timed_samples(index: SpanIndex, t) -> list[float]:
    spans = [s for s in index.by_name[t.span]
             if t.parent_layer is None or index.caller_layer(s) == t.parent_layer]
    return sorted(index.self_seconds(s) if t.self_time else s.seconds for s in spans)


def _values(index, name) -> list:
    return [s.value for s in index.by_name[name]]


def _ratio(numerator, denominator, what) -> float:
    if not denominator:
        raise ValueError(f"{what}: nothing to divide by (the wrapped function was never called)")
    return numerator / denominator


def computed_metrics(index: SpanIndex, passes: int, output_mb: float, overhead_s: float) -> dict:
    """Per-layer counts and ratios; see spec.COMPUTED for units and what each should move."""
    opened = _values(index, "io.open_sequence")
    decodes = defaultdict(lambda: defaultdict(int))  # root span id -> kind -> decodes
    files = {}                                       # root span id -> kind -> files
    for name, kind in _DECODERS.items():
        for s in index.by_name[name]:
            decodes[index.root(s).id][kind] += 1
    for s in index.by_name["io.open_sequence"]:
        files.setdefault(index.root(s).id, s.value)
    decoded_files = sum(files.get(root, {}).get(kind, 0)
                        for root, kinds in decodes.items() for kind in kinds)
    zero, records, frames = (sum(col) for col in zip(*_values(index, "fusion.fuse_sequence")))
    n_svx = max(_values(index, "refine.build_consensus"))
    maps = index.by_name["parallel.parallel_map"]
    item_seconds = sum(c.seconds for m in maps for c in index.children[m.id])
    worker_seconds = sum(min(m.value, len(index.children[m.id])) * m.seconds if m.value > 1
                         else m.seconds for m in maps)
    scans = sum(1 for name in _SEGMENT_SCANS for s in index.by_name[name]
                if index.caller_layer(s) == "segment")
    metrics = {
        "io.files_validated": _ratio(sum(sum(v.values()) for v in opened), len(opened),
                                     "io.files_validated"),
        "io.decode_mb": sum(sum(_values(index, name)) for name in _DECODERS) / passes / 1e6,
        "io.decodes_per_file": _ratio(sum(sum(k.values()) for k in decodes.values()),
                                      decoded_files, "io.decodes_per_file"),
        "stats.finite_scans_per_measure": _ratio(
            scans, 4 * len(index.by_name["segment.frame_foregroundness"]),
            "stats.finite_scans_per_measure"),
        "segment.fore_mb_held": max(_values(index, "segment.segment_sequence")) / 1e6,
        "refine.lab_mb_held": _ratio(
            sum(_values(index, "refine.rgb_to_lab")) + sum(_values(index, "refine.normalize_lab")),
            len(index.by_name["refine.refine_sequence"]), "refine.lab_mb_held") / 1e6,
        "refine.n_supervoxels": n_svx,
        # build_consensus keeps ceil(n/100) neighbours per supervoxel (its documented rule).
        "refine.n_neighbors": math.ceil(n_svx / 100),
        "fusion.foreground_counts_per_frame": _ratio(
            len(index.by_name["fusion.foreground_counts"]), frames,
            "fusion.foreground_counts_per_frame"),
        "fusion.zero_weight_share": _ratio(zero, records, "fusion.zero_weight_share"),
        "parallel.items": sum(len(index.children[m.id]) for m in maps) / passes,
        "parallel.utilization": _ratio(item_seconds, worker_seconds, "parallel.utilization"),
        "cli.output_mb": output_mb,
        "trace.overhead_s": overhead_s,
    }
    return {c.name: metrics[c.name] for c in COMPUTED}


def layer_metrics(index: SpanIndex, passes: int, output_mb: float, overhead_s: float) -> dict:
    """Every per-layer metric of spec.per_layer_metrics(), by name.

    Raises ValueError when a function named in spec.TIMED recorded no call:
    its wrapper was never reached, which makes the traced run invalid.
    """
    metrics = {}
    for t in TIMED:
        samples = timed_samples(index, t)
        if not samples:
            raise ValueError(f"{t.name}: no call recorded for {t.span}"
                             + (f" from layer {t.parent_layer}" if t.parent_layer else ""))
        metrics[t.name] = statistics.median(samples)
        metrics[t.tail] = tail(samples)
        metrics[t.calls] = len(samples)
    metrics.update(computed_metrics(index, passes, output_mb, overhead_s))
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(1 for s in index.spans if s.layer == layer and not s.ok)
    return metrics


def function_table(index: SpanIndex) -> list[tuple[str, int, int, float]]:
    """(span name, calls, errors, median seconds) for every function that was called."""
    rows = []
    for name in sorted(index.by_name):
        spans = index.by_name[name]
        rows.append((name, len(spans), sum(not s.ok for s in spans),
                     statistics.median(s.seconds for s in spans)))
    return rows
