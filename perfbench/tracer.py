"""Layer spans recorded from outside the program.

:meth:`Tracer.install` replaces named functions of the ``metadetector``
modules with timing wrappers, in the defining module and in every module
that imported the name, and wraps the backward closure on the tensors some
ops return. Spans stay in memory as ``[name, parent, start, end]`` until
:meth:`Tracer.write`. A name that no longer exists is kept in ``missing``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, hook on the result)
TARGETS = [
    ("text", "tokenize", "text.tokenize", None),
    ("text", "build_vocab", "text.build_vocab", None),
    ("text", "choose_k", "text.choose_k", None),
    ("text", "encode", "text.encode", None),
    ("text", "embed", "text.embed", None),
    ("text", "load_pretrained_vectors", "text.load_pretrained_vectors", None),
    ("text", "load_corpus", "text.load_corpus", None),
    ("mmd", "shift_gate", "mmd.shift_gate", None),
    ("mmd", "corpus_representations", "mmd.corpus_representations", None),
    ("mmd", "median_bandwidths", "mmd.median_bandwidths", None),
    ("mmd", "mmd_squared", "mmd.mmd_squared", None),
    ("mmd", "_pairwise_sq_dists", "mmd.pairwise_sq_dists", "cells"),
    ("model", "init_model", "model.init_model", None),
    ("model", "extract_features", "model.extract_features", "rows"),
    ("model", "detect", "model.detect", None),
    ("model", "discriminate_event", "model.discriminate_event", None),
    ("model", "pseudo_discriminate", "model.pseudo_discriminate", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("autodiff", "conv_text", "autodiff.conv_text", "bwd"),
    ("autodiff", "max_pool_full", "autodiff.max_pool_full", "bwd"),
    ("autodiff", "embedding_lookup", "autodiff.embedding_lookup", "bwd"),
    ("autodiff", "matmul", "autodiff.matmul", None),
    ("autodiff", "concat", "autodiff.concat", None),
    ("autodiff", "relu", "autodiff.relu", None),
    ("autodiff", "sigmoid", "autodiff.sigmoid", None),
    ("autodiff", "softmax_rows", "autodiff.softmax_rows", None),
    ("autodiff", "dropout", "autodiff.dropout", None),
    ("autodiff", "grl", "autodiff.grl", None),
    ("training", "train", "training.train", "close_tail"),
    ("training", "sgd_step", "training.sgd_step", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "export_weights", "evaluation.export_weights", None),
]

LAYERS = ("text", "mmd", "model", "autodiff", "training", "evaluation", "cli")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._tail_start = None

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            rec = [ix, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(name, out)
            return out

        return traced

    def _hook_cells(self, name, out):
        self.counters["mmd.distance_cells"] += out.size

    def _hook_rows(self, name, out):
        self.counters["model.extract_features_rows"] += out.shape[0]

    def _hook_bwd(self, name, out):
        out._backward = self.wrap(name + ".bwd", out._backward)

    def _hook_close_tail(self, name, out):
        self._close_tail()

    def _close_tail(self):
        if self._tail_start is not None:
            self.counters["training.epoch_tail_s"] += self.clock() - self._tail_start
            self.counters["training.epoch_tails"] += 1
            self._tail_start = None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            fn = getattr(sys.modules.get(f"metadetector.{module}"), attr, None)
            if fn is None:
                self.missing.append(f"metadetector.{module}.{attr}")
                continue
            rebind(fn, self.wrap(name, fn, getattr(self, f"_hook_{hook}", None)))
        self._install_make_batches()
        self._install_backward()
        self._install_grad_counter()

    def _install_make_batches(self):
        """An epoch's tail runs from the end of its batch loop to the next loop."""
        fn = getattr(sys.modules.get("metadetector.training"), "make_batches", None)
        if fn is None:
            self.missing.append("metadetector.training.make_batches")
            return

        def batches(*args, **kwargs):
            self._close_tail()
            yield from fn(*args, **kwargs)
            self._tail_start = self.clock()

        rebind(fn, batches)

    def _install_backward(self):
        autodiff = sys.modules.get("metadetector.autodiff")
        fn = getattr(autodiff, "backward", None)
        if fn is None:
            self.missing.append("metadetector.autodiff.backward")
            return
        timed = self.wrap("autodiff.backward", fn)
        counters = self.counters

        def backward(seed, *args, **kwargs):
            counters["autodiff.graph_nodes"] += _graph_size(seed)
            counters["autodiff.backward_calls"] += 1
            return timed(seed, *args, **kwargs)

        rebind(fn, backward)

    def _install_grad_counter(self):
        tensor = getattr(sys.modules.get("metadetector.autodiff"), "Tensor", None)
        if tensor is None:
            self.missing.append("metadetector.autodiff.Tensor")
            return
        init, counters = tensor.__init__, self.counters

        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            grad = getattr(obj, "grad", None)
            if grad is not None:
                counters["autodiff.grad_bytes"] += grad.nbytes

        tensor.__init__ = counted_init

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and inclusive seconds, per-layer self seconds, counters."""
        totals: dict[str, list] = {}
        child = [0.0] * len(self.spans)
        for ix, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, (ix, parent, start, end) in enumerate(self.spans):
            name = self.names[ix]
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child[i]
        return {"totals": totals, "self": layer_self, "counters": dict(self.counters),
                "spans": len(self.spans), "missing": list(self.missing)}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def rebind(old, new) -> None:
    """Point every metadetector module attribute that holds ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if modname == "metadetector" or modname.startswith("metadetector."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _graph_size(seed) -> int:
    seen, stack = {id(seed)}, [seed]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
