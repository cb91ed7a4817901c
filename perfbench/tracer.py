"""Outside-in tracing of the library's layers.

The tracer replaces public module attributes (and ``Tensor.backward``) with
wrappers that record a span per call: name, start, end, parent span and run
id. The library resolves every wrapped name through module lookup, so calls
made inside the library are traced too. Tensor ops are only counted; a span
per op would cost more than the op. Every replaced attribute is put back on
exit. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import defaultdict
from time import perf_counter

from structattn import attention, checkpoint, data, encoder, heads, model, training, viz
from structattn import tensor as T

# metric name -> (owner, public entry points); self time excludes nested spans,
# so checkpoint.io excludes model.build and training.loss excludes
# attention.penalty. Each layer is called by every workload in BENCHMARK.json.
LAYERS = {
    "tensor.backward": (T.Tensor, ("backward",)),
    "encoder.embed": (encoder, ("embed",)),
    "encoder.bilstm": (encoder, ("bilstm",)),
    "attention.attend": (attention, ("attend",)),
    "attention.pool": (attention, ("pool",)),
    "attention.penalty": (attention, ("penalty",)),
    "attention.diag": (attention, ("penalty_value", "mean_pairwise_overlap")),
    "heads.forward": (heads, ("mlp_forward", "pruned_forward", "gated_encode")),
    "training.loss": (training, ("total_loss",)),
    "training.optim": (training, ("sgd_step", "adagrad_step", "clip_grads")),
    "model.build": (model, ("build_model",)),
    "checkpoint.io": (checkpoint, ("save_model", "restore_model")),
    "data.load": (data, ("corpus_tokens", "build_vocab", "load_dataset")),
    "data.batch": (data, ("batch",)),
    "viz.render": (viz, ("render_html", "render_csv", "render_embedding_csv")),
}

# Every public function of the tensor module except the two that are not ops.
TENSOR_OPS = tuple(
    name for name, fn in vars(T).items()
    if inspect.isfunction(fn) and fn.__module__ == T.__name__
    and not name.startswith("_") and name not in ("no_grad", "grad_check"))


def _batch_padding(batches):
    """(padded positions, all positions) over the masks of ``data.batch`` output."""
    padded = positions = 0
    for b in batches:
        masks = (b.hyp_mask, b.prem_mask) if isinstance(b, data.PairBatch) else (b.mask,)
        for m in masks:
            padded += int((~m).sum())
            positions += m.size
    return padded, positions


class Tracer:
    """Context manager that traces the layers while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.run = 0
        self.ops = defaultdict(int)  # run id -> tensor op calls
        self.padding = defaultdict(lambda: [0, 0])  # run id -> [padded, positions]
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.run]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.ops[self.run] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _padding_tally(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            padded, positions = _batch_padding(batches)
            tally = self.padding[self.run]
            tally[0] += padded
            tally[1] += positions
            return batches
        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already active")
        try:
            for name in TENSOR_OPS:
                self._replace(T, name, self._counted(getattr(T, name)))
            for metric, (owner, attrs) in LAYERS.items():
                for attr in attrs:
                    fn = getattr(owner, attr)
                    if metric == "data.batch":
                        fn = self._padding_tally(fn)
                    self._replace(owner, attr, self._spanned(metric, fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, run):
        """{span name: [self seconds, calls]} for one run id.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, so the self times of a
        run sum to the duration of its root spans.
        """
        child = defaultdict(float)
        for name, start, end, parent, run_id in self.spans:
            if run_id == run and parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, parent, run_id) in enumerate(self.spans):
            if run_id == run:
                out[name][0] += end - start - child[index]
                out[name][1] += 1
        return dict(out)
