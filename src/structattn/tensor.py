"""Dense 1-D/2-D/3-D tensors with reverse-mode automatic differentiation.

Forward arithmetic runs on numpy arrays; every differentiable op attaches a
backward closure to its output, and ``Tensor.backward()`` replays the closures
in reverse topological order. Graphs are rebuilt on every forward pass
(define-by-run), so the same parameter tensors can be reused across passes.

Two precisions are in play: float32 is the training default, float64 is used
wherever gradients are compared against finite differences (float32 has too
little headroom for central differences at eps=1e-5).
"""

from __future__ import annotations

import contextlib
import contextvars
import math

import numpy as np

DEFAULT_DTYPE = np.float32

# Masked softmax logits get this instead of -inf so that finite inputs always
# produce finite outputs; exp() underflows it to exactly 0.
MASK_SENTINEL = -1e30

# Full-size passes over large weights (init draws, the L2 term) work
# on row blocks of about this many elements, so their temporaries stay small.
_BLOCK = 1 << 16


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class MaskError(ValueError):
    """A position mask excludes every position."""


class LabelError(ValueError):
    """Class label lies outside the logit range."""


# A context variable, not a global: a thread (or task) inside ``no_grad``
# switches graph building off for itself only.
_grad_enabled = contextvars.ContextVar("structattn_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward evaluation)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    Values are immutable by convention once the tensor has entered a graph;
    optimizers update leaf ``data`` in place only between graphs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def _acc(self, g, fresh=False):
        """Add ``g`` into this tensor's gradient.

        ``fresh`` marks an array the op's backward has just made and holds
        nowhere else; the first gradient of that kind, with this tensor's shape
        and dtype, is adopted as is. Everything else (the upstream gradient
        passed through, views of it, numpy scalars) is copied, so no two
        gradients ever share memory.
        """
        if self.grad is None:
            if fresh and type(g) is np.ndarray and g.shape == self.data.shape and g.dtype == self.data.dtype:
                self.grad = g
                return
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Backpropagate from a scalar and return {leaf tensor: gradient}.

        Every reachable leaf with ``requires_grad`` receives a gradient of the
        same shape as its data. Deterministic for identical graphs.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones((), dtype=self.data.dtype)
        leaves = {}
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            elif node.requires_grad and not node._prev:
                leaves[id(node)] = (node, node.grad)
        return {node: grad for node, grad in leaves.values()}


def _toposort(root):
    order = []
    visited = {id(root)}
    stack = [(root, 0)]
    while stack:
        node, idx = stack[-1]
        if idx < len(node._prev):
            stack[-1] = (node, idx + 1)
            child = node._prev[idx]
            if id(child) not in visited:
                visited.add(id(child))
                stack.append((child, 0))
        else:
            stack.pop()
            order.append(node)
    return order


def _builds_graph(parents):
    """Whether an op on ``parents`` records a backward node (see ``_from_op``)."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _from_op(data, parents, backward_fn):
    out = Tensor(data)
    if _builds_graph(parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def _row_blocks(x):
    """Slices of ``x`` along its first axis of about ``_BLOCK`` elements each.

    Each slice is a view; a 0-d array is one block, ``...``.
    """
    if x.ndim == 0:
        return [...]
    step = max(1, _BLOCK // (math.prod(x.shape[1:]) or 1))
    return [slice(s, s + step) for s in range(0, x.shape[0], step)]


def uniform(rng, low, high, shape, dtype=DEFAULT_DTYPE, requires_grad=True):
    """Uniform draws in [low, high), made block by block straight into ``dtype``.

    Block draws consume the generator's stream in order, so the values are
    the bits of one whole-array ``rng.uniform(...).astype(dtype)``, without
    its full-size float64 copy.
    """
    out = np.empty(shape, dtype)
    for rows in _row_blocks(out):
        out[rows] = rng.uniform(low, high, size=out[rows].shape)
    return Tensor(out, requires_grad=requires_grad)


def glorot(rng, shape, dtype=DEFAULT_DTYPE, requires_grad=True):
    """Uniform +/- sqrt(6/(fan_in+fan_out)); 3-D weights count their per-slice fans."""
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 3:
        fan_in, fan_out = shape[1], shape[2]
    else:
        raise ShapeError(f"glorot init expects a 2-D or 3-D shape, got {shape}")
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return uniform(rng, -limit, limit, shape, dtype, requires_grad)


def matmul(a, b):
    """Matrix product with numpy 1-D/2-D semantics; inner dimensions must agree."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != (b.shape[0] if b.ndim >= 1 else None):
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def bk(g):
        if a.ndim == 2 and b.ndim == 2:
            if a.requires_grad:
                a._acc(g @ b.data.T, fresh=True)
            if b.requires_grad:
                b._acc(a.data.T @ g, fresh=True)
        elif a.ndim == 1 and b.ndim == 2:
            if a.requires_grad:
                a._acc(b.data @ g, fresh=True)
            if b.requires_grad:
                b._acc(np.outer(a.data, g), fresh=True)
        elif a.ndim == 2 and b.ndim == 1:
            if a.requires_grad:
                a._acc(np.outer(g, b.data), fresh=True)
            if b.requires_grad:
                b._acc(a.data.T @ g, fresh=True)
        else:  # 1-D dot
            if a.requires_grad:
                a._acc(g * b.data, fresh=True)
            if b.requires_grad:
                b._acc(g * a.data, fresh=True)

    return _from_op(data, (a, b), bk)


def batched_dot(m, w):
    """Row-batched product: output row i is (row i of m) @ (slice i of w).

    m is r-by-c, w is r-by-c-by-k, result is r-by-k.
    """
    if m.ndim != 2 or w.ndim != 3 or w.shape[:2] != m.shape:
        raise ShapeError(f"batched_dot needs m r*c and w r*c*k, got {m.shape} and {w.shape}")
    # row-by-row matmul rather than einsum: bit-identical to the per-slice product
    data = np.stack([m.data[i] @ w.data[i] for i in range(m.shape[0])])

    def bk(g):
        if m.requires_grad:
            m._acc(np.einsum("rk,rck->rc", g, w.data), fresh=True)
        if w.requires_grad:
            w._acc(np.einsum("rc,rk->rck", m.data, g), fresh=True)

    return _from_op(data, (m, w), bk)


def softmax_rows(x, mask=None):
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction.

    ``mask`` is a boolean vector over columns; masked columns come out exactly
    zero and every row still sums to 1 over the surviving columns.
    """
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got shape {x.shape}")
    logits = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (x.shape[1],):
            raise ShapeError(f"mask shape {mask.shape} does not match {x.shape[1]} columns")
        if not mask.any():
            raise MaskError("mask excludes every position")
        logits = np.where(mask, logits, logits.dtype.type(MASK_SENTINEL))
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    if mask is not None:
        e = np.where(mask, e, e.dtype.type(0.0))
    s = e / e.sum(axis=1, keepdims=True)

    def bk(g):
        if x.requires_grad:
            x._acc((g - (g * s).sum(axis=1, keepdims=True)) * s, fresh=True)

    return _from_op(s, (x,), bk)


def tanh_elem(x):
    y = np.tanh(x.data)

    def bk(g):
        if x.requires_grad:
            x._acc(g * (1.0 - y * y), fresh=True)

    return _from_op(y, (x,), bk)


def _sigmoid(d):
    """Overflow-free logistic function of an array, in the array's dtype."""
    e = np.exp(-np.abs(d))
    denom = 1.0 + e
    return np.where(d >= 0, 1.0 / denom, e / denom).astype(d.dtype, copy=False)


def sigmoid(x):
    y = _sigmoid(x.data)

    def bk(g):
        if x.requires_grad:
            x._acc(g * y * (1.0 - y), fresh=True)

    return _from_op(y, (x,), bk)


def relu(x):
    y = np.maximum(x.data, 0)

    def bk(g):
        if x.requires_grad:
            x._acc(g * (x.data > 0), fresh=True)

    return _from_op(y, (x,), bk)


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.shape} and {b.shape}")


def add(a, b):
    _same_shape(a, b, "add")

    def bk(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(g)

    return _from_op(a.data + b.data, (a, b), bk)


def sub(a, b):
    _same_shape(a, b, "sub")

    def bk(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(-g, fresh=True)

    return _from_op(a.data - b.data, (a, b), bk)


def mul(a, b):
    _same_shape(a, b, "mul")

    def bk(g):
        if a.requires_grad:
            a._acc(g * b.data, fresh=True)
        if b.requires_grad:
            b._acc(g * a.data, fresh=True)

    return _from_op(a.data * b.data, (a, b), bk)


def scale(x, c):
    c = float(c)

    def bk(g):
        if x.requires_grad:
            x._acc(g * c, fresh=True)

    return _from_op(x.data * c, (x,), bk)


def frobenius_sq(x):
    """Sum of squared entries, as a scalar."""
    data = (x.data * x.data).sum()

    def bk(g):
        if x.requires_grad:
            x._acc(g * 2.0 * x.data, fresh=True)

    return _from_op(data, (x,), bk)


def sum_squares(ws, coeff):
    """``coeff`` times the summed squares of every tensor in ``ws``, as one scalar.

    The L2 term of many weights in one node, one memory pass per weight each
    way: the forward pass sums ``vdot`` of row blocks in float64, with no
    squared copy; the backward pass adds 2·coeff·g·w into each existing
    ``w.grad`` in place, a block at a time, and allocates a gradient only for
    a weight that has none yet.
    """
    ws = list(ws)
    coeff = float(coeff)
    total = 0.0
    for w in ws:
        for rows in _row_blocks(w.data):
            block = w.data[rows]
            total += float(np.vdot(block, block))
    dtype = np.result_type(*(w.data for w in ws)) if ws else DEFAULT_DTYPE
    data = np.asarray(coeff * total, dtype=dtype)

    def bk(g):
        c = 2.0 * coeff * float(g)
        for w in ws:
            if not w.requires_grad:
                continue
            if w.grad is None:
                w.grad = np.zeros_like(w.data)
            for rows in _row_blocks(w.data):
                w.grad[rows] += np.multiply(w.data[rows], c)

    return _from_op(data, tuple(ws), bk)


def sum_all(x):
    data = x.data.sum()

    def bk(g):
        if x.requires_grad:
            x._acc(np.full_like(x.data, g), fresh=True)

    return _from_op(data, (x,), bk)


def concat(parts, axis=0):
    """Concatenate same-rank tensors along an existing axis."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]

    def bk(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                p._acc(g[tuple(index)])
            offset += size

    return _from_op(data, tuple(parts), bk)


def concat_rows(parts):
    """Stack 1-D tensors as the rows of a matrix, or vstack 2-D tensors."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_rows of zero tensors")
    if parts[0].ndim == 1:
        data = np.stack([p.data for p in parts], axis=0)

        def bk(g):
            for i, p in enumerate(parts):
                if p.requires_grad:
                    p._acc(g[i])

        return _from_op(data, tuple(parts), bk)
    return concat(parts, axis=0)


def transpose(x):
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {x.shape}")

    def bk(g):
        if x.requires_grad:
            x._acc(g.T)

    return _from_op(x.data.T, (x,), bk)


def reshape(x, shape):
    data = x.data.reshape(shape)

    def bk(g):
        if x.requires_grad:
            x._acc(g.reshape(x.data.shape))

    return _from_op(data, (x,), bk)


def flatten(x):
    """Row-major flattening to 1-D."""
    return reshape(x, (-1,))


def gather_rows(x, ids):
    """Select rows of a 2-D tensor; gradients accumulate across repeated ids."""
    ids = np.asarray(ids)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got shape {x.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[0]):
        raise IndexError(f"row id out of range [0, {x.shape[0]}): {ids.min()}..{ids.max()}")
    data = x.data[ids]

    def bk(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, ids, g)

    return _from_op(data, (x,), bk)


def row(x, i):
    """Row i of a 2-D tensor, as a 1-D tensor."""
    if x.ndim != 2:
        raise ShapeError(f"row expects a 2-D tensor, got shape {x.shape}")
    if not 0 <= i < x.shape[0]:
        raise IndexError(f"row {i} out of range [0, {x.shape[0]})")

    def bk(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[i] += g

    return _from_op(x.data[i], (x,), bk)


def slice_rows(x, start, stop):
    """Contiguous range of rows (2-D) or elements (1-D)."""
    if x.ndim not in (1, 2):
        raise ShapeError(f"slice_rows expects a 1-D/2-D tensor, got shape {x.shape}")
    if not 0 <= start < stop <= x.shape[0]:
        raise ShapeError(f"slice [{start}:{stop}] out of range for {x.shape[0]} rows")

    def bk(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[start:stop] += g

    return _from_op(x.data[start:stop], (x,), bk)


def dropout(x, rate, rng, train):
    """Inverted dropout: survivors scale by 1/(1-rate); identity at eval time."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    data = x.data * keep

    def bk(g):
        if x.requires_grad:
            x._acc(g * keep, fresh=True)

    return _from_op(data, (x,), bk)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of ``labels`` under stabilized log-softmax.

    B-by-C logits take B labels; 1-D logits take one label, the B = 1 case.
    """
    if logits.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy expects 1-D or 2-D logits, got shape {logits.shape}")
    classes = logits.shape[-1]
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    z = logits.data.reshape(-1, classes)
    if labels.shape != (z.shape[0],):
        raise ShapeError(f"cross_entropy needs {z.shape[0]} labels, got {labels.size}")
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise LabelError(f"label {int(bad[0])} out of range for {classes} classes")
    rows = np.arange(z.shape[0])
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    data = (lse - z[rows, labels]).mean()

    def bk(g):
        if logits.requires_grad:
            p = np.exp(z - lse[:, None])
            p[rows, labels] -= 1.0
            logits._acc(((g / len(rows)) * p).reshape(logits.shape), fresh=True)

    return _from_op(data, (logits,), bk)


def linear(x, w, b):
    """Affine map of the rows of ``x``: ``x @ wᵀ + b`` as one GEMM.

    ``x`` is B-by-k, ``w`` n-by-k and ``b`` an n-vector. The backward pass
    computes dW = gᵀx, db = the column sums of g and dx = g·w, one call each,
    so neither a transposed copy of ``w`` nor a per-row outer product of its
    size enters the graph.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(f"linear needs x B*k, w n*k and b n, got {x.shape}, {w.shape} and {b.shape}")
    data = x.data @ w.data.T + b.data

    def bk(g):
        if w.requires_grad:
            w._acc(g.T @ x.data, fresh=True)
        if b.requires_grad:
            b._acc(g.sum(axis=0), fresh=True)
        if x.requires_grad:
            x._acc(g @ w.data, fresh=True)

    return _from_op(data, (x, w, b), bk)


def lstm_scan(x, w_x, w_h, bias, reverse=False):
    """Hidden states of one LSTM direction over the rows of ``x``, as one op.

    ``x`` is n-by-d, ``w_x`` 4u-by-d, ``w_h`` 4u-by-u and ``bias`` 4u, gates
    stacked input/forget/cell/output. Row t of the n-by-u result is the state
    after consuming row t, starting from zero state; ``reverse`` scans from
    the last row to the first. Every row's input projection is one GEMM ahead
    of the recurrence, and the backward pass is hand-written backpropagation
    through time (Appleyard et al. 2016, arXiv:1604.01946).
    """
    if x.ndim != 2 or x.shape[0] == 0 or w_h.ndim != 2:
        raise ShapeError(f"lstm_scan needs non-empty 2-D x and w_h, got {x.shape} and {w_h.shape}")
    n = x.shape[0]
    four_u, u = w_h.shape
    if four_u != 4 * u or w_x.shape != (four_u, x.shape[1]) or bias.shape != (four_u,):
        raise ShapeError(f"inconsistent lstm_scan shapes: x {x.shape}, w_x {w_x.shape}, "
                         f"w_h {w_h.shape}, bias {bias.shape}")
    parents = (x, w_x, w_h, bias)
    record = _builds_graph(parents)
    xw = x.data @ w_x.data.T
    wh, b = w_h.data, bias.data
    dtype = np.result_type(xw, wh, b)
    order = range(n - 1, -1, -1) if reverse else range(n)
    hs = np.empty((n, u), dtype)
    if record:
        gates = np.empty((n, four_u), dtype)
        cells = np.empty((n, u), dtype)
        tanh_cells = np.empty((n, u), dtype)
    h = np.zeros(u, x.dtype)
    c = np.zeros(u, x.dtype)
    for t in order:
        z = (xw[t] + wh @ h) + b
        a = _sigmoid(z)
        a[2 * u:3 * u] = np.tanh(z[2 * u:3 * u])
        c = a[u:2 * u] * c + a[:u] * a[2 * u:3 * u]
        tc = np.tanh(c)
        h = a[3 * u:] * tc
        hs[t] = h
        if record:
            gates[t], cells[t], tanh_cells[t] = a, c, tc

    def previous(states):
        """Row t holds the state the scan carried into step t (zero at its start)."""
        out = np.zeros_like(states)
        if reverse:
            out[:-1] = states[1:]
        else:
            out[1:] = states[:-1]
        return out

    def bk(g):
        # derivative of each gate's activation with respect to its logit
        act = gates * (1.0 - gates)
        act[:, 2 * u:3 * u] = 1.0 - gates[:, 2 * u:3 * u] * gates[:, 2 * u:3 * u]
        dtanh_c = 1.0 - tanh_cells * tanh_cells
        c_prev = previous(cells)
        dz = np.empty((n, four_u), dtype)
        dh = np.zeros(u, dtype)
        dc = np.zeros(u, dtype)
        for k, t in enumerate(reversed(order)):
            i, f = gates[t, :u], gates[t, u:2 * u]
            cand, o = gates[t, 2 * u:3 * u], gates[t, 3 * u:]
            dh = g[t] + dh
            dc = dh * o * dtanh_c[t] + dc
            dz[t, :u] = dc * cand
            dz[t, u:2 * u] = dc * c_prev[t]
            dz[t, 2 * u:3 * u] = dc * i
            dz[t, 3 * u:] = dh * tanh_cells[t]
            dz[t] *= act[t]
            dc = dc * f
            if k < n - 1:
                dh = wh.T @ dz[t]
        if w_h.requires_grad:
            w_h._acc(dz.T @ previous(hs), fresh=True)
        if w_x.requires_grad:
            w_x._acc(dz.T @ x.data, fresh=True)
        if bias.requires_grad:
            bias._acc(dz.sum(axis=0), fresh=True)
        if x.requires_grad:
            x._acc(dz @ w_x.data, fresh=True)

    return _from_op(hs, parents, bk)


def grad_check(fn, inputs, eps=1e-5):
    """Max relative error of backprop gradients against central differences.

    ``fn`` maps the given tensors to a scalar Tensor. Inputs are copied to
    float64 with requires_grad; relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    xs = [Tensor(np.asarray(t.data, dtype=np.float64).copy(), requires_grad=True) for t in inputs]
    fn(*xs).backward()
    worst = 0.0
    for x in xs:
        analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = fn(*xs).item()
                flat[i] = orig - eps
                lo = fn(*xs).item()
                flat[i] = orig
                numeric[i] = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        err = np.abs(a - numeric) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst
