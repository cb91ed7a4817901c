"""Dense 1-D/2-D/3-D tensors with reverse-mode automatic differentiation.

Forward arithmetic runs on numpy arrays; every differentiable op attaches a
backward closure to its output, and ``Tensor.backward()`` replays the closures
in reverse topological order. Graphs are rebuilt on every forward pass
(define-by-run), so the same parameter tensors can be reused across passes.
The ops take the shapes the model uses: ``matmul`` multiplies two matrices,
and ``cross_entropy`` is the mean loss of a B-by-C batch of logits.

Two precisions are in play: float32 is the training default, float64 is used
wherever gradients are compared against finite differences (float32 has too
little headroom for central differences at eps=1e-5).

A leaf's gradient lives in its ``grad``. It is an ndarray, except that it may
be lazy. A leaf that only ``gather_rows`` has read (an embedding table) gets a
``RowGrad``, which holds the rows a backward touched and nothing else. A leaf
that only one ``linear`` has read as its weight (plus ``sum_squares``) gets a
``ProductGrad``, which holds that op's (g, x) and makes gᵀx a row block at a
time, so the optimizer never allocates a weight-sized gradient. Either way
``np.asarray(p.grad)`` is the dense gradient, with the bits an eager backward
would give, and a second contribution to the same leaf makes it dense first.
A lazy gradient is made by a backward, then read densely with ``np.asarray``
or spent by the optimizer; only ``sum_squares`` records into one (its L2
term), and nothing writes into it.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

DEFAULT_DTYPE = np.float32

# Full-size passes over large weights (init draws, the L2 term) work
# on row blocks of about this many elements, so their temporaries stay small.
_BLOCK = 1 << 16


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


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
        nowhere else, or a ``ProductGrad``; the first gradient of that kind,
        with this tensor's shape and dtype, is adopted as is. A leaf keeps a
        ``ProductGrad`` lazy; an inner node adopts its array, since its own
        backward reads it. Everything else (the upstream gradient passed
        through, views of it, numpy scalars) is copied, so no two gradients
        ever share memory; a lazy gradient is made dense before it is added to.
        """
        if self.grad is None and fresh and type(g) in (np.ndarray, ProductGrad) \
                and g.shape == self.data.shape and g.dtype == self.data.dtype:
            self.grad = g if self._backward is None else np.asarray(g)
            return
        self._dense_grad()
        self.grad += g

    def _dense_grad(self):
        """This tensor's gradient as an ndarray: zeros if there is none yet, and
        a lazy gradient turned into the dense array it stands for."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif type(self.grad) is not np.ndarray:
            self.grad = np.asarray(self.grad)
        return self.grad

    def backward(self):
        """Backpropagate from a scalar, filling in ``grad``.

        Every reachable leaf with ``requires_grad`` receives a gradient of the
        same shape as its data: an ndarray, a ``RowGrad`` for a leaf read only
        through ``gather_rows``, or a ``ProductGrad`` for a leaf read only as
        one ``linear``'s weight; ``np.asarray(p.grad)`` is the dense gradient.
        Deterministic for identical graphs. Each call adds one pass into the
        leaves: a second call on the same graph first clears the gradients the
        first left on its inner nodes.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        for node in order:
            if node._backward is not None:
                node.grad = None
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class RowGrad:
    """The gradient of a 2-D leaf as the rows that backward touched.

    ``gather_rows`` adds each contribution ``(ids, g)``, the ids it read and
    the gradient of those rows, in the order the backward pass makes them.
    ``touched()`` sums them into sorted unique ids and their rows, with one
    ``np.add.at`` per contribution in that order: the adds that ``np.add.at``
    into a zero table makes, so each touched row has the bits of the dense
    gradient and every other row is zero. ``np.asarray`` gives the dense
    gradient. Contributions are held as given and never written to; the
    sums go into new arrays on each call.
    """

    __slots__ = ("shape", "dtype", "_parts")

    def __init__(self, shape, dtype):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._parts = []

    def add(self, ids, g):
        self._parts.append((ids, g))

    def touched(self):
        """``(ids, rows)``: the sorted unique touched ids and their summed rows."""
        ids = np.unique(np.concatenate([i.reshape(-1) for i, _ in self._parts]))
        rows = np.zeros((ids.size, *self.shape[1:]), self.dtype)
        for i, g in self._parts:
            np.add.at(rows, np.searchsorted(ids, i), g)
        return ids, rows

    def __array__(self, dtype=None, copy=None):
        ids, rows = self.touched()
        dense = np.zeros(self.shape, self.dtype)
        dense[ids] = rows
        return dense if dtype is None else dense.astype(dtype, copy=False)


class ProductGrad:
    """The weight gradient gᵀx of ``linear``, kept as the pair (g, x).

    ``self[rows]`` makes a row block fresh: the block's own product
    ``g[:, rows]ᵀ x``, then each L2 term ``sum_squares`` recorded
    (``add_scaled``), added to the block as the eager gradient got it.
    ``np.asarray`` makes the whole product, then adds the L2 terms a row
    block at a time (``_row_blocks``), the order of the eager backward. A
    block of two or more rows is a GEMM whose rows have the bits of the whole
    product's; a one-row block is a GEMV, whose bits differ, so the optimizer
    never makes one from a larger weight. x is copied: when x is a parameter
    too, the same step may update it before this gradient is spent.
    """

    __slots__ = ("shape", "dtype", "_g", "_x", "_l2")

    def __init__(self, g, x):
        self._g, self._x = g, x.copy()
        self.shape = (g.shape[1], x.shape[1])
        self.dtype = np.result_type(g, x)
        self._l2 = []

    def add_scaled(self, w, c):
        """Record ``+= c·w`` (w an array of this shape), added a row block at a time."""
        self._l2.append((w, c))

    def _add_l2(self, gb, rows):
        for w, c in self._l2:
            np.add(gb, np.multiply(w[rows], c), out=gb)
        return gb

    def __getitem__(self, rows):
        return self._add_l2(self._g[:, rows].T @ self._x, rows)

    def __array__(self, dtype=None, copy=None):
        dense = self._g.T @ self._x
        for rows in _row_blocks(dense):
            self._add_l2(dense[rows], rows)
        return dense if dtype is None else dense.astype(dtype, copy=False)


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
    # the backward is attached only when a parent requires a gradient, so a
    # one-parent op's backward never needs to ask
    out = Tensor(data)
    if _builds_graph(parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def zeros(shape, dtype=DEFAULT_DTYPE):
    return Tensor(np.zeros(shape, dtype=dtype))


def _row_blocks(x):
    """Slices of ``x`` along its first axis of about ``_BLOCK`` elements each.

    Each slice is a view; a 0-d array is one block, ``...``.
    """
    if x.ndim == 0:
        return [...]
    step = max(1, _BLOCK // (math.prod(x.shape[1:]) or 1))
    return [slice(s, s + step) for s in range(0, x.shape[0], step)]


def _usable_cores():
    return len(os.sched_getaffinity(0))


def uniform(rng, low, high, shape, dtype=DEFAULT_DTYPE):
    """Uniform draws in [low, high), made block by block straight into ``dtype``.

    The values are the bits of one whole-array ``rng.uniform(...).astype(dtype)``,
    without its full-size float64 copy, and ``rng`` (a PCG64 generator) is
    left where that draw leaves it. The row blocks are split into one
    contiguous share per usable core. The calling thread draws share 0 with
    ``rng``; share i is drawn in a helper thread from a copy of the bit
    generator ``advance``d past the draws of the shares before it (a float64
    uniform takes one 64-bit draw, and numpy fills without the GIL). So every
    element gets the draw the serial order gives it. Then ``rng`` is advanced
    past the other shares, and the buffered 32-bit half that ``advance``
    clears, which a float64 draw never reads, is put back. One block or one
    core is one share, and starts no thread.
    """
    out = np.empty(shape, dtype)
    blocks = _row_blocks(out)
    n = max(1, min(_usable_cores(), len(blocks)))
    shares = [blocks[len(blocks) * i // n:len(blocks) * (i + 1) // n] for i in range(n)]
    starts = [0]
    for share in shares:
        starts.append(starts[-1] + sum(out[rows].size for rows in share))

    def fill(gen, share):
        for rows in share:
            out[rows] = gen.uniform(low, high, size=out[rows].shape)

    bits = rng.bit_generator
    state = bits.state
    helpers = []
    for start in starts[1:-1]:
        ahead = np.random.PCG64()
        ahead.state = state
        helpers.append(np.random.Generator(ahead.advance(start)))
    with ThreadPoolExecutor(max_workers=max(1, n - 1)) as pool:
        drawn = [pool.submit(fill, gen, share) for gen, share in zip(helpers, shares[1:])]
        fill(rng, shares[0])
        for future in drawn:
            future.result()
    bits.advance(starts[-1] - starts[1])
    bits.state = {**bits.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return Tensor(out, requires_grad=True)


def glorot(rng, shape, dtype=DEFAULT_DTYPE):
    """Uniform +/- sqrt(6/(fan_in+fan_out)); 3-D weights count their per-slice fans."""
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 3:
        fan_in, fan_out = shape[1], shape[2]
    else:
        raise ShapeError(f"glorot init expects a 2-D or 3-D shape, got {shape}")
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return uniform(rng, -limit, limit, shape, dtype)


def matmul(a, b):
    """Product of two matrices; inner dimensions must agree."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs two matrices with matching inner dimensions, got {a.shape} and {b.shape}")
    data = a.data @ b.data

    def bk(g):
        if a.requires_grad:
            a._acc(g @ b.data.T, fresh=True)
        if b.requires_grad:
            b._acc(a.data.T @ g, fresh=True)

    return _from_op(data, (a, b), bk)


def batched_dot(m, w):
    """Row-batched product: output row i is (row i of m) @ (slice i of w).

    m is r-by-c, or B-by-r-by-c for a batch; w is r-by-c-by-k; the result is
    r-by-k, or B-by-r-by-k.
    """
    if m.ndim not in (2, 3) or w.ndim != 3 or w.shape[:2] != m.shape[-2:]:
        raise ShapeError(f"batched_dot needs m r*c or B*r*c and w r*c*k, got {m.shape} and {w.shape}")
    # one vector-matrix product per row, broadcast over rows and examples:
    # every example gets the bits of its own r-by-c product
    data = np.matmul(m.data[..., None, :], w.data)[..., 0, :]

    def bk(g):
        if m.requires_grad:
            m._acc(np.einsum("...rk,rck->...rc", g, w.data), fresh=True)
        if w.requires_grad:
            # an r-by-c m is a batch of one; summed over the batch from the last
            # example to the first, the order in which per-example products
            # would reach w.grad in a backward pass (ascending moves the low bits)
            mb, gb = m.data.reshape(-1, *w.shape[:2]), g.reshape(-1, *g.shape[-2:])
            w._acc(np.einsum("brc,brk->rck", mb[::-1], gb[::-1]), fresh=True)

    return _from_op(data, (m, w), bk)


def softmax_rows(x):
    """Row-wise softmax of a 2-D tensor, stabilized by row-max subtraction."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got shape {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=1, keepdims=True)

    def bk(g):
        x._acc((g - (g * s).sum(axis=1, keepdims=True)) * s, fresh=True)

    return _from_op(s, (x,), bk)


def tanh_elem(x):
    y = np.tanh(x.data)

    def bk(g):
        x._acc(g * (1.0 - y * y), fresh=True)

    return _from_op(y, (x,), bk)


def _sigmoid(d, out=None):
    """Overflow-free logistic function of a float array, in the array's dtype.

    With e = exp(-|d|), it is 1/(1+e) where d >= 0 and e/(1+e) elsewhere:
    max(e, 1) is 1 and max(e, 0) is e, since 0 <= e <= 1.
    """
    e = np.exp(-np.abs(d))
    return np.divide(np.maximum(e, d >= 0), e + 1.0, out=out)


def sigmoid(x):
    y = _sigmoid(x.data)

    def bk(g):
        x._acc(g * y * (1.0 - y), fresh=True)

    return _from_op(y, (x,), bk)


def relu(x):
    y = np.maximum(x.data, 0)

    def bk(g):
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
        x._acc(g * c, fresh=True)

    return _from_op(x.data * c, (x,), bk)


def frobenius_sq(x):
    """Sum of squared entries, as a scalar."""
    data = (x.data * x.data).sum()

    def bk(g):
        x._acc(g * 2.0 * x.data, fresh=True)

    return _from_op(data, (x,), bk)


def sum_squares(ws, coeff):
    """``coeff`` times the summed squares of every tensor in ``ws``, as one scalar.

    The L2 term of many weights in one node, one memory pass per weight each
    way: the forward pass sums ``vdot`` of row blocks in float64, with no
    squared copy; the backward pass adds 2·coeff·g·w into each existing
    ``w.grad`` in place, a block at a time, and allocates a gradient only for
    a weight that has none yet. A ``ProductGrad`` (``linear``'s weight) only
    records the add, which the optimizer makes block by block as it spends
    the gradient, so no pass over the weight is made here.
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
            if type(w.grad) is ProductGrad:
                w.grad.add_scaled(w.data, c)
                continue
            grad = w._dense_grad()
            for rows in _row_blocks(w.data):
                grad[rows] += np.multiply(w.data[rows], c)

    return _from_op(data, tuple(ws), bk)


def sum_all(x):
    data = x.data.sum()

    def bk(g):
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


def transpose(x):
    """Swap the last two axes: the transpose of a matrix, or of each matrix of a batch."""
    if x.ndim not in (2, 3):
        raise ShapeError(f"transpose expects a 2-D or 3-D tensor, got shape {x.shape}")

    def bk(g):
        x._acc(np.swapaxes(g, -1, -2))

    return _from_op(np.swapaxes(x.data, -1, -2), (x,), bk)


def reshape(x, shape):
    try:
        data = x.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}") from err

    def bk(g):
        x._acc(g.reshape(x.data.shape))

    return _from_op(data, (x,), bk)


def gather_rows(x, ids):
    """Select rows of a 2-D tensor; gradients accumulate across repeated ids.

    A scalar id selects one row, as a 1-D tensor. A leaf's gradient is a
    ``RowGrad`` of the rows read, unless another op has made it dense first.
    """
    ids = np.asarray(ids)
    if x.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got shape {x.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[0]):
        raise IndexError(f"row id out of range [0, {x.shape[0]}): {ids.min()}..{ids.max()}")
    data = x.data[ids]

    def bk(g):
        if x._backward is None and (x.grad is None or type(x.grad) is RowGrad):
            # a leaf read by row (an embedding table) keeps only the rows read
            if x.grad is None:
                x.grad = RowGrad(x.data.shape, x.data.dtype)
            x.grad.add(ids, g)
        else:
            np.add.at(x._dense_grad(), ids, g)

    return _from_op(data, (x,), bk)


def dropout(x, rate, rng):
    """Inverted dropout: survivors scale by 1/(1-rate); identity without an ``rng`` (at eval time)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / x.dtype.type(1.0 - rate)
    data = x.data * keep

    def bk(g):
        x._acc(g * keep, fresh=True)

    return _from_op(data, (x,), bk)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of B ``labels`` under the stabilized
    log-softmax of B-by-C ``logits``."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects B-by-C logits, got shape {logits.shape}")
    z = logits.data
    classes = z.shape[1]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise ShapeError(f"cross_entropy needs {z.shape[0]} labels, got shape {labels.shape}")
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise LabelError(f"label {int(bad[0])} out of range for {classes} classes")
    rows = np.arange(z.shape[0])
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    data = (lse - z[rows, labels]).mean()

    def bk(g):
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1.0
        logits._acc((g / len(rows)) * p, fresh=True)

    return _from_op(data, (logits,), bk)


def linear(x, w, b):
    """Affine map of the rows of ``x``: ``x @ wᵀ + b`` as one GEMM.

    ``x`` is B-by-k, ``w`` n-by-k and ``b`` an n-vector. The backward pass
    computes db = the column sums of g and dx = g·w, one call each, and
    records dW = gᵀx as a ``ProductGrad`` of (g, x), which the optimizer
    makes a row block at a time as it updates ``w``. So neither a transposed
    copy of ``w``, nor a per-row outer product, nor a gradient of its size is
    made.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(f"linear needs x B*k, w n*k and b n, got {x.shape}, {w.shape} and {b.shape}")
    data = x.data @ w.data.T + b.data

    def bk(g):
        if w.requires_grad:
            w._acc(ProductGrad(g, x.data), fresh=True)
        if b.requires_grad:
            b._acc(g.sum(axis=0), fresh=True)
        if x.requires_grad:
            x._acc(g @ w.data, fresh=True)

    return _from_op(data, (x, w, b), bk)


def _scan_schedule(lengths, reverse):
    """The step-by-step order of a packed batch, for ``lstm_scan``.

    Sentences run longest first (a stable sort), so the b_t sentences still
    running at step t are a prefix of that order. Returns the lengths and
    each sentence's first packed row, as arrays; b_t for each step t, and
    offsets that give step t the positions ``offsets[t]:offsets[t + 1]`` of
    a time-major array, as lists; and ``rows``, the packed row that each
    time-major position reads.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths[order[0]])[:, None]
    running = lengths[order] > steps
    # the row within its sentence that step t reads
    offset = lengths[order] - 1 - steps if reverse else steps
    rows = (starts[order] + offset)[running]
    active = running.sum(axis=1).tolist()
    return lengths, starts, active, [0, *np.cumsum(active).tolist()], rows


def lstm_scan(x, lengths, w_x, w_h, bias, reverse=False):
    """Hidden states of one LSTM direction over a packed batch, as one op.

    ``x`` is N-by-d: the rows of B sentences one after another, sentence i
    ``lengths[i]`` rows long. ``w_x`` is 4u-by-d, ``w_h`` 4u-by-u and ``bias``
    4u, gates stacked input/forget/cell/output. Row r of the N-by-u result is
    the state of row r's sentence after consuming row r, starting from zero
    state; ``reverse`` scans each sentence from its last row to its first.

    The batch runs batch-major (Appleyard et al. 2016, arXiv:1604.01946),
    sentences sorted by length (Khomenko et al. 2017, arXiv:1708.05604):
    every row's input projection is one GEMM ahead of the recurrence, and
    step t advances only the b_t sentences still running, with one broadcast
    ``np.matmul`` of ``w_h`` by their states: b_t GEMVs in one call. The
    backward pass is hand-written backpropagation through time, b_t wide in
    the same way. Every sentence gets the bits of a scan over it alone: a
    GEMV and the elementwise gate math do not depend on the batch, and the
    weight and input gradients, whose bits depend on a sentence's length,
    are each sentence's own GEMM or sum, added into the gradients from the
    last sentence to the first, the order in which separate scans' backward
    passes would add them.
    """
    if x.ndim != 2 or w_h.ndim != 2 or np.ndim(lengths) != 1 or len(lengths) == 0 \
            or min(lengths) < 1 or sum(lengths) != x.shape[0]:
        raise ShapeError(f"lstm_scan needs 2-D x and w_h and positive lengths summing to the rows of x, "
                         f"got {x.shape}, {w_h.shape} and {list(lengths)}")
    four_u, u = w_h.shape
    if four_u != 4 * u or w_x.shape != (four_u, x.shape[1]) or bias.shape != (four_u,):
        raise ShapeError(f"inconsistent lstm_scan shapes: x {x.shape}, w_x {w_x.shape}, "
                         f"w_h {w_h.shape}, bias {bias.shape}")
    parents = (x, w_x, w_h, bias)
    record = _builds_graph(parents)
    lengths, starts, active, offsets, rows = _scan_schedule(lengths, reverse)
    n_seq = len(lengths)
    xs = x.data[rows]
    xw = xs @ w_x.data.T
    # numpy computes a one-row product as a GEMV, whose bits differ from a
    # GEMM row's; a one-row sentence (last in the order, at step 0) gets it
    n_multi = int(np.count_nonzero(lengths > 1))
    if n_multi < n_seq:
        xw[n_multi:n_seq] = np.matmul(xs[n_multi:n_seq, None, :], w_x.data.T)[:, 0]
    wh, b = w_h.data, bias.data
    dtype = np.result_type(xw, wh, b)
    n = x.shape[0]
    # time-major: step t's rows are offsets[t]:offsets[t + 1], longest sentence
    # first; the gates and cells of every step are kept only for a backward pass
    hs = np.empty((n, u), dtype)
    kept = n if record else n_seq
    gates = np.empty((kept, four_u), dtype)
    cells = np.empty((kept, u), dtype)
    tanh_cells = np.empty((kept, u), dtype)
    h = c = np.zeros((n_seq, u), dtype)  # the zero start state, only read
    z = np.empty((n_seq, four_u), dtype)
    cand = slice(2 * u, 3 * u)
    for t, k in enumerate(active):
        at = slice(offsets[t], offsets[t + 1])
        keep = at if record else slice(k)
        zt = z[:k]
        np.matmul(wh, h[:k, :, None], out=zt[:, :, None])
        np.add(xw[at], zt, out=zt)
        zt += b
        a = _sigmoid(zt, out=gates[keep])
        np.tanh(zt[:, cand], out=a[:, cand])
        c = np.multiply(a[:, u:2 * u], c[:k], out=cells[keep])
        c += a[:, :u] * a[:, cand]
        tc = np.tanh(c, out=tanh_cells[keep])
        h = np.multiply(a[:, 3 * u:], tc, out=hs[at])
    out = np.empty((n, u), dtype)
    out[rows] = hs

    def previous(states):
        """Row t of one sentence's states holds the state the scan carried into
        step t (zero at its start)."""
        carried = np.zeros_like(states)
        if reverse:
            carried[:-1] = states[1:]
        else:
            carried[1:] = states[:-1]
        return carried

    def bk(g):
        # dz starts as each gate activation's derivative with respect to its
        # logit; step t multiplies its rows into the gradient of the logits
        dz = 1.0 - gates
        dz *= gates
        dz[:, cand] = 1.0 - gates[:, cand] * gates[:, cand]
        d_act = np.empty((n_seq, four_u), dtype)
        dh = np.zeros((n_seq, u), dtype)
        dc = np.zeros((n_seq, u), dtype)
        for t in range(len(active) - 1, -1, -1):
            k = active[t]
            at = slice(offsets[t], offsets[t + 1])
            a, tc, dht, dct, da = gates[at], tanh_cells[at], dh[:k], dc[:k], d_act[:k]
            c_prev = cells[offsets[t - 1]:offsets[t - 1] + k] if t else 0.0
            dht += g[rows[at]]
            dct += dht * a[:, 3 * u:] * (1.0 - tc * tc)
            np.multiply(dct, a[:, cand], out=da[:, :u])
            np.multiply(dct, c_prev, out=da[:, u:2 * u])
            np.multiply(dct, a[:, :u], out=da[:, cand])
            np.multiply(dht, tc, out=da[:, 3 * u:])
            dzt = dz[at]
            dzt *= da
            dct *= a[:, u:2 * u]
            if t:
                np.matmul(wh.T, dzt[:, :, None], out=dht[:, :, None])
        # the time-major position of each packed row
        pos = np.empty_like(rows)
        pos[rows] = np.arange(n)
        dx = np.empty(x.shape, dtype) if x.requires_grad else None
        for i in range(n_seq - 1, -1, -1):
            r = slice(starts[i], starts[i] + lengths[i])
            dz_i = dz[pos[r]]
            if w_h.requires_grad:
                w_h._acc(dz_i.T @ previous(out[r]), fresh=True)
            if w_x.requires_grad:
                w_x._acc(dz_i.T @ x.data[r], fresh=True)
            if bias.requires_grad:
                bias._acc(dz_i.sum(axis=0), fresh=True)
            if dx is not None:
                dx[r] = dz_i @ w_x.data
        if dx is not None:
            x._acc(dx, fresh=True)

    return _from_op(out, parents, bk)
