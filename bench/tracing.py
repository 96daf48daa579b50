"""Spans at the package's module boundaries, for the traced run only.

A span is recorded around each call the benchmark makes into the package
and around each function one package module imported from another (for
example ``cli.heron_sqrt`` or ``constants.normalize_float``).  Spans are
kept in memory and written out at the end.  Calls inside one module, and
methods of the value classes, are not wrapped: their time counts as the
caller's self time.
"""

import statistics
import sys
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("exact", "glyphs", "floating", "algorithms", "constants", "cli")

# exact spans by the direction of the work they do
EXACT_CATEGORY = {
    "exact.from_sexagesimal": "radix_in",
    "exact.parse_decimal": "radix_in",
    "exact.to_sexagesimal": "radix_out",
    "exact.to_sexagesimal[repetend]": "period",
    "exact.to_decimal": "period",
}
ALGORITHMS_CATEGORY = {
    "algorithms.heron_sqrt": "heron",
    "algorithms.heron_area": "heron",
    "algorithms.reconstruct_table": "plimpton",
    "algorithms.plimpton_row_compute": "plimpton",
    "algorithms.triple_from_generators": "plimpton",
    "algorithms.load_table": "plimpton",
    "algorithms.nontrivial_divisors": "divisors",
    "algorithms.is_regular": "divisors",
}
RADIX_SIZES = ("d1k", "d3k", "d10k", "d30k")


def _layer(dotted: str) -> str | None:
    head, _, tail = dotted.rpartition(".")
    return tail if head == "sexagesimal" and tail in LAYERS else None


def layer_of(fn) -> str | None:
    """The package module a function was defined in."""
    return _layer(getattr(fn, "__module__", None) or "")


def _span_name(name: str, args, kwargs) -> str:
    if name == "exact.to_sexagesimal" and kwargs.get("detect_repetend", args[3] if len(args) > 3 else False):
        return name + "[repetend]"
    return name


def _expansion_digits(e) -> int:
    return len(e.int_digits) + len(e.frac_digits) + len(e.period)


def _note_search(counters, e):
    counters["exact.period_steps"] += len(e.frac_digits) + len(e.period)
    if not e.terminates:
        counters["period_searches"] += 1
        counters["period_resolved"] += e.complete


def _note(counters, name, args, result):
    """Counters read from public result fields at the span's boundary."""
    if name == "exact.to_sexagesimal" or name == "exact.to_sexagesimal[repetend]":
        number, info = result
        counters["exact.digits"] += len(number.digits)
        if name.endswith("[repetend]"):
            counters["exact.digits"] += _expansion_digits(info)
            _note_search(counters, info)
    elif name == "exact.to_decimal":
        counters["exact.digits"] += _expansion_digits(result)
        _note_search(counters, result)
    elif name == "exact.from_sexagesimal":
        counters["exact.digits"] += len(args[0].digits)
    elif name == "exact.parse_decimal":
        counters["exact.digits"] += sum(c.isdigit() for c in args[0])
    elif name in ("glyphs.decode_glyphs", "glyphs.decode_canonical"):
        counters["glyphs.chars"] += len(args[0])
    elif name in ("glyphs.encode_glyphs", "glyphs.encode_canonical"):
        counters["glyphs.chars"] += len(result)
    elif name == "constants.verify_table":
        counters["constants.entries"] += len(result.statuses)
    elif name == "constants.verify_constant":
        counters["constants.entries"] += 1
    elif name == "algorithms.heron_sqrt":
        counters["algorithms.heron_iterations"] += result.iterations
        bits = result.residual.denominator.bit_length()
        counters["algorithms.heron_max_bits"] = max(counters["algorithms.heron_max_bits"], bits)


class Tracer:
    """Installs wrappers, records spans ``[name, start, end, parent, op_id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counters = defaultdict(int)
        self.raised = defaultdict(int)
        self.peak_alloc = 0
        self._undo: list[tuple] = []

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name = _span_name(name, args, kwargs)
            index = len(spans)
            record = [span_name, clock(), None, stack[-1] if stack else None, self.op_id]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name.split(".")[0]] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            _note(self.counters, span_name, args, result)
            return result

        return traced

    def _alloc_wrapper(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1] - base)

        return measured

    def install(self, api, alloc_only: bool = False):
        """Wrap the functions on ``api`` and every function one package
        module imported from another; ``alloc_only`` wraps exact ones with a
        tracemalloc peak probe instead of spans."""
        targets = [(api, name, None) for name in vars(api)]
        for module_name, module in list(sys.modules.items()):
            if _layer(module_name):
                targets += [(module, name, _layer(module_name)) for name in vars(module)]
        for owner, name, owner_layer in targets:
            fn = getattr(owner, name)
            layer = layer_of(fn)
            if not isinstance(fn, types.FunctionType) or layer in (None, owner_layer):
                continue
            if alloc_only and layer != "exact":
                continue
            span = f"{layer}.{fn.__name__}"
            wrapper = self._alloc_wrapper(fn) if alloc_only else self._span_wrapper(fn, span)
            self._undo.append((owner, name, fn))
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def dump(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "op_id": o}
                for n, s, e, p, o in self.spans]

    def layer_metrics(self, op_sizes: dict[int, str]) -> dict[str, float]:
        """Calls, busy and self time per layer, and the category splits."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        category = defaultdict(float)
        radix_out = defaultdict(list)
        for index, (name, start, end, parent, op_id) in enumerate(self.spans):
            layer = name.split(".")[0]
            duration = end - start
            calls[layer] += 1
            self_time[layer] += duration - child_time[index]
            outermost = True
            while parent is not None:
                if self.spans[parent][0].split(".")[0] == layer:
                    outermost = False
                    break
                parent = self.spans[parent][3]
            if not outermost:
                continue
            busy[layer] += duration
            kind = EXACT_CATEGORY.get(name) or ALGORITHMS_CATEGORY.get(name)
            if kind:
                category[kind] += duration
            if kind == "radix_out" and op_sizes.get(op_id) in RADIX_SIZES:
                radix_out[op_sizes[op_id]].append(duration)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = self_time[layer]
        out["cli.busy_ms"] = 1000 * busy["cli"]
        out["cli.self_ms"] = 1000 * self_time["cli"]
        for kind in ("radix_in", "radix_out", "period"):
            out[f"exact.{kind}_s"] = category[kind]
        for kind in ("heron", "plimpton", "divisors"):
            out[f"algorithms.{kind}_s"] = category[kind]
        for size in RADIX_SIZES:
            samples = radix_out[size]
            out[f"exact.radix_out_ms.{size}"] = 1000 * statistics.median(samples) if samples else 0.0
        c = self.counters
        for key in ("exact.digits", "exact.period_steps", "glyphs.chars", "constants.entries",
                    "algorithms.heron_iterations", "algorithms.heron_max_bits"):
            out[key] = c[key]
        searches = c["period_searches"]
        out["exact.period_resolved_ratio"] = c["period_resolved"] / searches if searches else 0.0
        return out
