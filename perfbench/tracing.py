"""Span tracing for the traced benchmark run.

The tracer wraps the public functions each workload reaches by rebinding
the names their callers look up (for example
``lattisketch.trainer.build_adjacency``), so the program itself carries no
tracing code. Spans (name, start, end, parent, op id) are kept in memory
and written out when the run ends. A span's self time is its duration
minus the durations of its direct children; with one thread, children
never overlap. A wrapped name that a later version no longer has is
skipped, and its layer reports zero.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute the callers look up, layer span name)
TARGETS = (
    ("lattisketch.sketch_data", "rasterize", "sketch_data.rasterize"),
    ("lattisketch.trainer", "rasterize", "sketch_data.rasterize"),
    ("lattisketch.trainer", "sample_lattice", "lattice.sample"),
    ("lattisketch.pipeline_eval", "sample_lattice", "lattice.sample"),
    ("lattisketch.trainer", "mask_lattice", "lattice.mask"),
    ("lattisketch.pipeline_eval", "mask_lattice", "lattice.mask"),
    ("lattisketch.trainer", "build_adjacency", "graph_builder.build"),
    ("lattisketch.pipeline_eval", "build_adjacency", "graph_builder.build"),
    ("lattisketch.encoder", "encode_graphs", "encoder.forward"),
    ("lattisketch.encoder", "encode", "encoder.forward"),
    ("lattisketch.encoder", "encode_graphs_backward", "encoder.backward"),
    ("lattisketch.encoder", "reparameterize", "encoder.latent"),
    ("lattisketch.encoder", "reparameterize_backward", "encoder.latent"),
    ("lattisketch.decoder", "teacher_forced_nll", "decoder.teacher_forced"),
    ("lattisketch.decoder", "teacher_forced_backward", "decoder.teacher_forced_backward"),
    ("lattisketch.pipeline_eval", "generate", "decoder.generate"),
    ("lattisketch.trainer", "clip_gradients", "trainer.clip"),
    ("lattisketch.trainer", "adam_update", "trainer.adam"),
    ("lattisketch.trainer", "train_step", "trainer.step"),
    ("lattisketch.trainer", "prepare_items", "trainer.prepare_items"),
    ("lattisketch.trainer", "save_checkpoint", "params.save"),
    ("lattisketch.trainer", "load_checkpoint", "params.load"),
    ("lattisketch.pipeline_eval", "heal", "pipeline_eval.heal"),
    ("lattisketch.pipeline_eval", "encode_raster", "pipeline_eval.encode_raster"),
)

# Self time of these layers is reported per timed operation ...
OP_LAYERS = {
    "lattice.mask": "lattice.mask_ms",
    "lattice.sample": "lattice.sample_op_ms",
    "graph_builder.build": "graph_builder.build_ms",
    "encoder.forward": "encoder.forward_ms",
    "encoder.backward": "encoder.backward_ms",
    "encoder.latent": "encoder.latent_ms",
    "decoder.teacher_forced": "decoder.teacher_forced_ms",
    "decoder.teacher_forced_backward": "decoder.teacher_forced_backward_ms",
    "decoder.generate": "decoder.generate_ms",
    "trainer.clip": "trainer.clip_ms",
    "trainer.adam": "trainer.adam_ms",
    "trainer.step": "trainer.step_self_ms",
    "pipeline_eval.heal": "pipeline_eval.heal_self_ms",
    "pipeline_eval.encode_raster": "pipeline_eval.encode_raster_self_ms",
    "op": "bench.op_self_ms",
}
# ... and of these per set-up, since they move setup_s; bench.setup_other_ms
# is the rest of a set-up (making inputs, initialising and calibrating the model).
SETUP_LAYERS = {
    "sketch_data.rasterize": "sketch_data.rasterize_ms",
    "lattice.sample": "lattice.sample_ms",
    "trainer.prepare_items": "trainer.prepare_items_ms",
    "params.save": "params.save_ms",
    "params.load": "params.load_ms",
}

COUNT_SPAN = "trace.count"  # the tracer's own counting work, kept out of layer self time


def _graph_counts(graph):
    """(stored adjacency entries, linked off-diagonal pairs), dense or scipy sparse."""
    adj = getattr(graph, "adjacency", None)
    if adj is None:
        return None
    if hasattr(adj, "nnz"):
        nonzero, stored = adj.count_nonzero(), adj.nnz
    else:
        adj = np.asarray(adj)
        nonzero, stored = np.count_nonzero(adj), adj.size
    return stored, nonzero - np.count_nonzero(adj.diagonal())


class Tracer:
    """Records spans while installed; each span belongs to the current op id."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, op id]
        self.counts = []      # (op id, counter, value)
        self.op = None
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "graph_builder.build":
                counts = self.call(COUNT_SPAN, _graph_counts, result)
                if counts is not None:
                    self.counts.append((self.op, "graph_builder.calls", 1))
                    self.counts.append((self.op, "graph_builder.stored_entries", counts[0]))
                    self.counts.append((self.op, "graph_builder.linked_pairs", counts[1]))
            elif name == "decoder.generate":
                self.counts.append((self.op, "decoder.sampled_steps",
                                    getattr(result, "n_steps", 0)))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def summarize(self, op_ids, setup_ids) -> dict:
        """Per-layer metrics: self ms per op (or per set-up) and counts per op."""
        op_ids, setup_ids = set(op_ids), set(setup_ids)
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op, per_setup = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            if op in op_ids:
                per_op[name] += own
            elif op in setup_ids:
                per_setup[name] += own
        n_ops, n_setups = max(len(op_ids), 1), max(len(setup_ids), 1)
        out = {metric: 1000.0 * per_op[layer] / n_ops for layer, metric in OP_LAYERS.items()}
        out.update({metric: 1000.0 * per_setup[layer] / n_setups
                    for layer, metric in SETUP_LAYERS.items()})
        setup_total = sum(end - start for name, start, end, _parent, op in self.spans
                          if name == "setup" and op in setup_ids)
        listed = sum(per_setup[layer] for layer in SETUP_LAYERS) + per_setup[COUNT_SPAN]
        out["bench.setup_other_ms"] = 1000.0 * (setup_total - listed) / n_setups
        totals = defaultdict(float)
        for op, key, value in self.counts:
            if op in op_ids:
                totals[key] += value
        out["graph_builder.calls"] = totals["graph_builder.calls"] / n_ops
        out["graph_builder.stored_entries"] = totals["graph_builder.stored_entries"] / n_ops
        stored = totals["graph_builder.stored_entries"]
        out["graph_builder.edge_fraction"] = (
            totals["graph_builder.linked_pairs"] / stored if stored else 0.0)
        out["decoder.sampled_steps"] = totals["decoder.sampled_steps"] / n_ops
        steps = totals["decoder.sampled_steps"]
        out["decoder.step_us"] = 1e6 * per_op["decoder.generate"] / steps if steps else 0.0
        out["trace.count_ms"] = 1000.0 * per_op[COUNT_SPAN] / n_ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
