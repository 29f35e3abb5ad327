"""Spans around calls into the program's modules, for the traced run.

Tracing swaps module and class attributes of ``cmixer`` for timing
wrappers while a ``Tracer`` is installed, and puts the originals back on
exit. Every span records its layer, start, end and the span that was
open when it began, so a layer's self time is its duration minus the
time of its direct children. Nothing inside the program is edited; a
call the program makes to a wrapped name (``model.forward`` calling
``mixer_block_forward``) is seen because the name is looked up at call
time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter

# Layer names in report order, with the unit of their per-call time.
LAYERS = {
    "engine.backward": "ms",
    "engine.complex_affine": "ms",
    "model.forward": "ms",
    "model.forward_nograd": "ms",
    "model.block": "ms",
    "model.incentive": "ms",
    "model.checkpoint": "ms",
    "train.loop": "ms",
    "train.optimizer": "ms",
    "train.ema": "ms",
    "train.clip": "ms",
    "train.loss": "ms",
    "data.augment": "ms",
    "data.mask": "ms",
    "data.layout": "ms",
    "metrics.evaluate": "ms",
    "metrics.auc": "ms",
    "estimator.fit": "s",
    "estimator.predict": "ms",
}

ROOT = "bench.unit"
GRAPH = "trace.graph"  # the tracer's own graph walks; taken out of every share


def _targets(cm):
    """(owner, attribute, layer) for every wrapped name.

    A function imported into a second module is wrapped in each
    namespace it is called through.
    """
    engine, model, train = cm.engine, cm.model, cm.train
    metrics, estimator = cm.metrics, cm.estimator
    clf = estimator.CMixerClassifier
    return [
        (engine, "complex_affine", "engine.complex_affine"),
        (model, "complex_affine", "engine.complex_affine"),
        (model, "mixer_block_forward", "model.block"),
        (model, "sample_incentive", "model.incentive"),
        (model, "save_checkpoint", "model.checkpoint"),
        (model, "load_checkpoint", "model.checkpoint"),
        (train, "pretrain", "train.loop"),
        (train, "finetune", "train.loop"),
        (estimator, "pretrain", "train.loop"),
        (estimator, "finetune", "train.loop"),
        (train, "adamw_step", "train.optimizer"),
        (train, "sgd_momentum_step", "train.optimizer"),
        (train, "ema_update", "train.ema"),
        (train, "clip_global_norm", "train.clip"),
        (train, "ssl_loss", "train.loss"),
        (train, "loss_for_task", "train.loss"),
        (train, "augment_target", "data.augment"),
        (train, "random_mask", "data.mask"),
        (train, "_to_model_layout", "data.layout"),
        (metrics, "evaluate", "metrics.evaluate"),
        (metrics, "auc_task", "metrics.auc"),
        (metrics, "auc_binary", "metrics.auc"),
        (clf, "fit", "estimator.fit"),
        (clf, "predict", "estimator.predict"),
    ]


def graph_size(engine, root) -> tuple[int, int]:
    """Node count and bytes of the distinct buffers the graph keeps alive."""
    nodes = engine.topo_order(root)
    owners = {}
    for node in nodes:
        arr = node.data
        base = arr if arr.base is None else arr.base
        owners[id(base)] = getattr(base, "nbytes", arr.nbytes)
    return len(nodes), sum(owners.values())


class Tracer:
    """Records spans in memory while installed over a ``cmixer`` import."""

    def __init__(self, cm):
        self.cm = cm
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.graphs: dict[str, list[tuple[int, int]]] = {"loss": [], "nograd": []}
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        idx = self.open(layer)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_forward(self, fn):
        engine = self.cm.engine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            taped = kwargs.get("tape") is not None
            idx = self.open("model.forward" if taped else "model.forward_nograd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if not taped:
                with self.span(GRAPH):
                    self.graphs["nograd"].append(graph_size(engine, out))
            return out

        return traced

    def _wrap_backward(self, fn):
        engine = self.cm.engine

        @functools.wraps(fn)
        def traced(tape, loss, *args, **kwargs):
            with self.span(GRAPH):
                self.graphs["loss"].append(graph_size(engine, loss))
            idx = self.open("engine.backward")
            try:
                return fn(tape, loss, *args, **kwargs)
            finally:
                self.close(idx)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore them on exit."""
        cm = self.cm
        saved = []
        plan = [(owner, attr, self._wrap(layer, vars(owner)[attr]))
                for owner, attr, layer in _targets(cm)]
        plan.append((cm.model.CMixerModel, "forward",
                     self._wrap_forward(vars(cm.model.CMixerModel)["forward"])))
        plan.append((cm.engine.Tape, "backward",
                     self._wrap_backward(vars(cm.engine.Tape)["backward"])))
        try:
            for owner, attr, wrapper in plan:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, units: int) -> dict[str, float]:
        """Per-layer metrics over ``units`` traced units.

        ``<layer>_ms`` is the median duration of one outermost call
        (nested calls of the same layer are inside it), ``<layer>_calls``
        the calls per unit, ``<layer>_self_frac`` the layer's self time
        over the wall time of the traced units. The graph walks are
        children of the span they run in, so they leave its self time,
        and they are taken out of the wall time too.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        wall = sum(end - start for layer, start, end, _ in spans if layer == ROOT)
        wall -= sum(end - start for layer, start, end, _ in spans if layer == GRAPH)
        self_time = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        outer = {layer: [] for layer in LAYERS}
        for i, (layer, start, end, parent) in enumerate(spans):
            if layer in (ROOT, GRAPH):
                continue
            self_time[layer] += (end - start) - children[i]
            calls[layer] += 1
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p < 0:
                outer[layer].append(end - start)
        out: dict[str, float] = {}
        for layer, unit in LAYERS.items():
            scale = 1.0 if unit == "s" else 1e3
            out[f"{layer}_{unit}"] = statistics.median(outer[layer]) * scale if outer[layer] else 0.0
            out[f"{layer}_calls"] = calls[layer] / units
            out[f"{layer}_self_frac"] = self_time[layer] / wall if wall else 0.0
        out["trace.coverage_frac"] = sum(self_time.values()) / wall if wall else 0.0
        out["trace.spans_per_unit"] = sum(calls.values()) / units
        for kind, prefix in (("loss", "engine.nodes_per_step"), ("nograd", "engine.nograd_nodes")):
            sizes = self.graphs[kind]
            out[prefix] = statistics.median(n for n, _ in sizes) if sizes else 0.0
        for kind, name in (("loss", "engine.graph_mb"), ("nograd", "engine.nograd_graph_mb")):
            sizes = self.graphs[kind]
            out[name] = statistics.median(b for _, b in sizes) / 1e6 if sizes else 0.0
        return out


def per_layer_units() -> dict[str, str]:
    """Every metric name ``Tracer.summary`` and the runner report, with its unit."""
    units = {}
    for layer, unit in LAYERS.items():
        units[f"{layer}_{unit}"] = unit
        units[f"{layer}_calls"] = "count"
        units[f"{layer}_self_frac"] = "frac"
    units.update({
        "engine.nodes_per_step": "count",
        "engine.graph_mb": "MB",
        "engine.nograd_nodes": "count",
        "engine.nograd_graph_mb": "MB",
        "trace.coverage_frac": "frac",
        "trace.spans_per_unit": "count",
        "trace.overhead_ms": "ms",
        "trace.overhead_frac": "frac",
    })
    return units
