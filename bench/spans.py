"""Out-of-package tracing for the benchmark's traced run.

``Tracer.active(dq)`` replaces every public function of the seven
``deltaquant`` modules at every module attribute that refers to it (for
example ``deltaquant.search.rtn_quantize`` and ``deltaquant.quant.rtn_quantize``
get the same wrapper), so calls between modules are seen as well as the
benchmark's own calls. A wrapper records a span (name, start, end, parent)
in memory, passes arguments and results through untouched, and the
originals are restored when the context ends. Nothing inside ``src/`` is
edited.

``layer_metrics`` turns the spans of one pipeline pass into the per-layer
metrics named in ``BENCHMARK.json``. Every ``*_s`` metric is self time (a
span's duration minus the time its traced children cover) summed over the
functions listed in ``SELF_TIME``. Byte and flop counts are computed from
argument shapes and file sizes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
from time import perf_counter

MODULES = ("container", "toy", "signals", "search", "quant", "evaluate", "cli")

# per-layer time metric -> functions whose self time it sums
SELF_TIME = {
    "container.load_s": ("container.load_container",),
    "container.save_s": ("container.save_container",),
    "signals.delta_s": ("signals.compute_delta", "signals.global_delta_stats"),
    "signals.importance_s": (
        "signals.importance", "signals.importance_all", "signals.map_both_ends",
        "signals.map_both_ends_zero", "signals.map_mid",
        "signals.count_zeros_per_channel", "signals.importances_to_map",
        "signals.importances_from_map",
    ),
    "search.search_scale_s": (
        "search.search_scale", "search.normalize_scale", "search.quantize_model",
        "search.report_lines",
    ),
    "search.quant_loss_s": ("search.quant_loss",),
    "quant.rtn_quantize_s": ("quant.rtn_quantize",),
    "quant.dequantize_s": ("quant.dequantize",),
    "quant.pack_s": ("quant.pack_codes", "quant.artifact_to_map"),
    "quant.unpack_s": ("quant.unpack_codes", "quant.artifact_from_map"),
    "evaluate.layer_report_s": ("evaluate.layer_report", "evaluate.reconstruction_mse"),
    "evaluate.ablate_s": ("evaluate.ablate_signals", "evaluate.ablation_csv"),
    "evaluate.curve_s": ("evaluate.pseudo_ft_curve", "evaluate.curve_csv"),
    "toy.train_s": ("toy.train", "toy.gradients", "toy.checkpoint_map", "toy.init_model"),
    "toy.forward_s": ("toy.forward",),
    "cli.self_s": ("cli.main",),
}

CALLS = {
    "container.load_calls": "container.load_container",
    "container.save_calls": "container.save_container",
    "signals.delta_stats_calls": "signals.global_delta_stats",
    "signals.importance_calls": "signals.importance",
    "search.quant_loss_calls": "search.quant_loss",
    "quant.rtn_quantize_calls": "quant.rtn_quantize",
    "quant.dequantize_calls": "quant.dequantize",
    "toy.forward_calls": "toy.forward",
}

# per-layer count metric -> (function, computed quantity it sums)
TOTALS = {
    "container.bytes_read": ("container.load_container", "bytes"),
    "container.bytes_written": ("container.save_container", "bytes"),
    "search.loss_matmul_flops": ("search.quant_loss", "flops"),
    "quant.weights_quantized": ("quant.rtn_quantize", "weights"),
    "quant.bytes_moved": (("quant.rtn_quantize", "quant.dequantize"), "bytes"),
}

# per-module re-quantization inside a stage: metric -> parent function
REQUANTIZE = {
    "evaluate.report_requantize_per_module": "evaluate.layer_report",
    "evaluate.ablate_quantize_per_module": "evaluate.ablate_signals",
}

# metric-name suffix -> unit, first match wins
UNITS = (
    ("_per_s", "steps/s"), ("_per_module", "calls/module"), ("_calls", "count"),
    ("_flops", "flop"), ("_read", "B"), ("_written", "B"), ("_moved", "B"),
    ("_quantized", "count"), ("_s", "s"),
)

COMPUTED_NOTE = (
    "search.loss_matmul_flops (2*n*in*out per quant_loss call), quant.bytes_moved "
    "(arrays read once plus arrays written once by rtn_quantize/dequantize) and "
    "container.bytes_read/bytes_written (file sizes) are computed, not measured. "
    "No bandwidth ratio is reported: a DRAM bandwidth figure needs arrays of at "
    "least 4x the last-level cache (300 MiB L3 on the 2-core reference host), "
    "which is beyond the memory a shared benchmark host can spare."
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _quantize_counts(args, kwargs, result):
    out_f, in_f = result.codes.shape
    groups = result.scales.shape[1]
    # f32 weight read; u8 codes, f32 scales and u8 zero-points written
    return {"weights": out_f * in_f, "bytes": 5 * out_f * in_f + 5 * out_f * groups}


def _dequantize_counts(args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    out_f, in_f = q.codes.shape
    groups = q.scales.shape[1]
    # u8 codes, f32 scales and u8 zero-points read; f32 reconstruction written
    return {"bytes": 5 * out_f * in_f + 5 * out_f * groups}


def _loss_flops(args, kwargs, result):
    out_f, in_f = _arg(args, kwargs, 0, "weight").shape
    return {"flops": 2 * len(_arg(args, kwargs, 1, "calib_inputs")) * in_f * out_f}


# function -> (args, kwargs, result) -> computed counts recorded on its span
EXTRAS = {
    "container.load_container": lambda args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))
    },
    "container.save_container": lambda args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))
    },
    "search.quant_loss": _loss_flops,
    "quant.rtn_quantize": _quantize_counts,
    "quant.dequantize": _dequantize_counts,
    "toy.train": lambda args, kwargs, result: {"steps": _arg(args, kwargs, 1, "cfg").steps},
    "evaluate.layer_report": lambda args, kwargs, result: {
        "modules": len(_arg(args, kwargs, 1, "artifact"))
    },
    "evaluate.ablate_signals": lambda args, kwargs, result: {
        "modules": sum(n.endswith(".weight") for n in _arg(args, kwargs, 1, "post").names())
    },
}


class Tracer:
    """Collects spans from wrapped ``deltaquant`` functions.

    A span is a tuple ``(name, start, end, parent_index, extra)``; ``extra``
    holds the computed counts from ``EXTRAS`` or None. Tuples of plain values
    are not tracked by the garbage collector, which keeps a long trace from
    slowing collections down.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if extra:
                spans[index] = (name, start, end, parent, extra(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, dq):
        """Wrap every public deltaquant function for the duration of the block."""
        namespaces = [dq] + [importlib.import_module(f"{dq.__name__}.{m}") for m in MODULES]
        wrappers: dict = {}
        saved = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith(f"{dq.__name__}.")
                ):
                    continue
                if value not in wrappers:
                    short = value.__module__.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(f"{short}.{value.__name__}", value)
                saved.append((ns, attr, value))
                setattr(ns, attr, wrappers[value])
        try:
            yield self
        finally:
            for ns, attr, value in saved:
                setattr(ns, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, extra in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent}
                rec.update(extra or {})
                f.write(json.dumps(rec) + "\n")


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS:
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def better_of(metric: str) -> str:
    """Rates are better higher; times, calls, bytes and flops lower."""
    return "higher" if metric.endswith("_per_s") else "lower"


def layer_metrics(spans: list[tuple], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the pass whose spans are ``spans[first:]``."""
    spans = [(n, s, e, p - first if p >= 0 else -1, x) for n, s, e, p, x in spans[first:]]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], float] = {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            sums[name, key] = sums.get((name, key), 0) + value

    metrics: dict[str, float] = {}
    for metric, fns in SELF_TIME.items():
        metrics[metric] = sum(self_time.get(fn, 0.0) for fn in fns)
    for metric, fn in CALLS.items():
        metrics[metric] = calls.get(fn, 0)
    for metric, (fns, key) in TOTALS.items():
        fns = (fns,) if isinstance(fns, str) else fns
        metrics[metric] = sum(sums.get((fn, key), 0) for fn in fns)
    for metric, parent_fn in REQUANTIZE.items():
        modules = sums.get((parent_fn, "modules"), 0)
        inside = sum(
            1 for i, span in enumerate(spans)
            if span[0] == "quant.rtn_quantize" and _has_ancestor(spans, i, parent_fn)
        )
        metrics[metric] = inside / modules if modules else 0.0
    train_time = sum(end - start for name, start, end, _, _ in spans if name == "toy.train")
    steps = sums.get(("toy.train", "steps"), 0)
    metrics["toy.train_steps_per_s"] = steps / train_time if train_time > 0 else 0.0
    return metrics


def _has_ancestor(spans: list[tuple], index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
