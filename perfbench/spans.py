"""Spans around the calls into each module's stage functions.

``Tracer.install`` replaces every module-level binding of a stage
function inside the ``tileupb`` package (and the CLI's family table)
with a wrapper that records one span per call: name, start, end, parent
span, and the operation and pass it belongs to.  Per-pair helpers such
as ``inner_product`` and ``tile_basis`` are left alone, so their time
falls into their caller's self time.  Counters are read from each
call's arguments and result, outside the span's own time.  While
``alloc`` is set, ``tracemalloc`` runs for each outermost ``ppt`` and
``locc`` span alone and its peak is recorded; it is off everywhere
else, because it slows the allocation-heavy subset enumeration by
orders of magnitude.  Spans stay in memory until written out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

# span name -> (defining module, function name)
STAGES = {
    "cli.main": ("tileupb.cli", "main"),
    "grid.parse_tile_grid": ("tileupb.grid", "parse_tile_grid"),
    "grid.validate": ("tileupb.grid", "validate"),
    "families.example1": ("tileupb.families", "example1"),
    "families.fig2": ("tileupb.families", "fig2"),
    "families.prop2": ("tileupb.families", "prop2"),
    "families.prop3": ("tileupb.families", "prop3"),
    "families.five_tile": ("tileupb.families", "five_tile"),
    "rectangles.is_u_tile": ("tileupb.rectangles", "is_u_tile"),
    "rectangles.enumerate": ("tileupb.rectangles", "enumerate_special_rectangles"),
    "rectangles.extension_witness": ("tileupb.rectangles", "extension_witness"),
    "states.build_upb": ("tileupb.states", "build_upb"),
    "verify.check_upb": ("tileupb.verify", "check_upb"),
    "verify.check_orthogonal_set": ("tileupb.verify", "check_orthogonal_set"),
    "verify.complement_basis": ("tileupb.verify", "complement_basis"),
    "verify.seesaw_search": ("tileupb.verify", "seesaw_search"),
    "ppt.ppt_report": ("tileupb.ppt", "ppt_report"),
    "ppt.build_ppt_state": ("tileupb.ppt", "build_ppt_state"),
    "locc.build": ("tileupb.locc", "build_theorem3_protocol"),
    "locc.attach": ("tileupb.locc", "attach_resource"),
    "locc.verify": ("tileupb.locc", "verify_protocol"),
}

ALLOC_LAYERS = ("ppt", "locc")

# per-layer metric -> (unit, better), in the order they are reported
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "grid.self_s": ("s", "lower"),
    "grid.calls": ("count", "lower"),
    "families.self_s": ("s", "lower"),
    "rectangles.self_s": ("s", "lower"),
    "rectangles.is_u_tile_s": ("s", "lower"),
    "rectangles.enumerate_s": ("s", "lower"),
    "rectangles.extension_witness_s": ("s", "lower"),
    "rectangles.subsets_examined": ("count", "lower"),
    "rectangles.special_rects": ("count", "lower"),
    "states.self_s": ("s", "lower"),
    "states.build_upb_s": ("s", "lower"),
    "states.states_built": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.check_orthogonal_set_s": ("s", "lower"),
    "verify.gram_pairs": ("count", "lower"),
    "verify.complement_basis_s": ("s", "lower"),
    "verify.seesaw_search_s": ("s", "lower"),
    "verify.seesaw_restarts": ("count", "lower"),
    "verify.seesaw_converged": ("count", "higher"),
    "ppt.self_s": ("s", "lower"),
    "ppt.build_ppt_state_s": ("s", "lower"),
    "ppt.ppt_report_s": ("s", "lower"),
    "ppt.dim_sum": ("count", "lower"),
    "ppt.peak_alloc_mb": ("MB", "lower"),
    "locc.self_s": ("s", "lower"),
    "locc.build_s": ("s", "lower"),
    "locc.attach_s": ("s", "lower"),
    "locc.verify_s": ("s", "lower"),
    "locc.branches": ("count", "lower"),
    "locc.operator_mb": ("MB", "lower"),
    "locc.peak_alloc_mb": ("MB", "lower"),
}

# inclusive time of these spans is reported as its own metric
INCLUSIVE = {
    "rectangles.is_u_tile": "rectangles.is_u_tile_s",
    "rectangles.enumerate": "rectangles.enumerate_s",
    "rectangles.extension_witness": "rectangles.extension_witness_s",
    "states.build_upb": "states.build_upb_s",
    "verify.check_orthogonal_set": "verify.check_orthogonal_set_s",
    "verify.complement_basis": "verify.complement_basis_s",
    "verify.seesaw_search": "verify.seesaw_search_s",
    "ppt.build_ppt_state": "ppt.build_ppt_state_s",
    "ppt.ppt_report": "ppt.ppt_report_s",
    "locc.build": "locc.build_s",
    "locc.attach": "locc.attach_s",
    "locc.verify": "locc.verify_s",
}

MB = 1e6


def protocol_size(node) -> tuple[int, int]:
    """Branch nodes and bytes of distinct projector operators in a tree,
    counted by walking it."""
    branches, seen, stack = 0, {}, [node]
    while stack:
        node = stack.pop()
        outcomes = getattr(node, "outcomes", None)
        if outcomes is None:
            continue
        branches += 1
        for proj, child in outcomes:
            seen[id(proj.operator)] = proj.operator.nbytes
            stack.append(child)
    return branches, sum(seen.values())


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _counters(name: str, args, kwargs, result) -> dict[str, float]:
    """Work done by one call, read from its arguments and result."""
    if name == "rectangles.enumerate":
        s = _first(args, kwargs, "ts").tile_count
        return {"rectangles.subsets_examined": 2**s - 1, "rectangles.special_rects": len(result)}
    if name == "states.build_upb":
        return {"states.states_built": len(result.states)}
    if name == "verify.check_orthogonal_set":
        k = len(_first(args, kwargs, "states"))
        return {"verify.gram_pairs": k * (k - 1) // 2}
    if name == "verify.seesaw_search":
        return {"verify.seesaw_restarts": result.restarts_run,
                "verify.seesaw_converged": result.converged_restarts}
    if name == "ppt.ppt_report":
        upb = _first(args, kwargs, "upb")
        return {"ppt.dim_sum": upb.m * upb.n}
    if name == "locc.build":
        branches, nbytes = protocol_size(result)
        return {"locc.branches": branches, "locc.operator_mb": nbytes / MB}
    return {}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    pass_no: int
    counted: bool = True
    end: float = 0.0
    excluded: float = 0.0          # tracer bookkeeping inside [start, end]
    children: float = 0.0          # net time of direct children
    counters: dict = field(default_factory=dict)
    alloc_mb: float | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def net(self) -> float:
        return self.end - self.start - self.excluded

    @property
    def self_time(self) -> float:
        return self.net - self.children


class Tracer:
    """Records spans of stage-function calls made in this process."""

    def __init__(self, alloc: bool = True):
        self.alloc = alloc               # trace allocations of ppt and locc spans
        self.spans: list[Span] = []
        self.op = -1
        self.pass_no = -1
        self.counted = True              # False for the repeats of a call in a pass
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = self._stack[-1] if self._stack else None
            measure = self.alloc and layer in ALLOC_LAYERS and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span = Span(name, 0.0, parent, self.op, self.pass_no, self.counted)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if measure:
                    span.alloc_mb = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                if result is not None:
                    span.counters = _counters(name, args, kwargs, result)
                done = perf_counter()
                for i in self._stack:
                    self.spans[i].excluded += (span.start - entered) + (done - span.end)
                if parent is not None:
                    self.spans[parent].children += span.net

        return traced

    def install(self) -> None:
        """Rebind every stage function wherever a tileupb module holds it."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "tileupb" or key.startswith("tileupb.")]
        for name, (module, attr) in STAGES.items():
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.unbound.append(name)
                continue
            wrapper = self.wrap(name, original)
            self._wrapped[id(original)] = wrapper
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        families = getattr(sys.modules.get("tileupb.cli"), "FAMILIES", None)
        if isinstance(families, dict):
            patched = {
                key: (self._wrapped.get(id(entry[0]), entry[0]),) + tuple(entry[1:])
                for key, entry in families.items()
            }
            self._rebind(sys.modules["tileupb.cli"], "FAMILIES", patched)

    def _rebind(self, mod, key: str, value) -> None:
        self._restore.append((mod, key, getattr(mod, key)))
        setattr(mod, key, value)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def entry(self, name: str):
        """The wrapped form of a stage function, for calling it directly."""
        module, attr = STAGES[name]
        original = getattr(importlib.import_module(module), attr)
        return self._wrapped.get(id(original), original)

    def layer_metrics(self, output_bytes: dict[int, int], alloc_passes) -> dict[str, float]:
        """Per-layer metrics of one pass, as the median over passes.

        A pass counts each instance once, like ``pass_s``: spans of the
        repeats of a call are left out.  ``output_bytes`` maps a pass to
        the bytes the CLI wrote in it.  Allocation peaks come from
        ``alloc_passes``, every other metric from the remaining passes,
        which ran without ``tracemalloc``.
        """
        per_pass: dict[int, dict[str, float]] = {}
        for p, nbytes in output_bytes.items():
            per_pass[p] = {key: 0.0 for key in METRICS}
            per_pass[p]["cli.output_bytes"] = float(nbytes)
        for span in self.spans:
            totals = per_pass.get(span.pass_no)
            if totals is None or not span.counted:
                continue
            totals[f"{span.layer}.self_s"] += span.self_time
            if span.layer == "grid":
                totals["grid.calls"] += 1
            if span.name in INCLUSIVE:
                totals[INCLUSIVE[span.name]] += span.net
            for key, value in span.counters.items():
                totals[key] += value
            if span.alloc_mb is not None:
                key = f"{span.layer}.peak_alloc_mb"
                totals[key] = max(totals[key], span.alloc_mb)
        metrics = {}
        for key in METRICS:
            values = [totals[key] for p, totals in per_pass.items()
                      if (p in alloc_passes) == key.endswith("peak_alloc_mb")]
            metrics[key] = statistics.median(values) if values else 0.0
        return metrics

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "op": s.op, "pass": s.pass_no, "counted": s.counted, "self_s": s.self_time,
                "counters": s.counters, "alloc_mb": s.alloc_mb,
            }
            for s in self.spans
        ]
