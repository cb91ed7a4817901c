"""Finite-difference verification of every op and of the full model loss.

Each check compares backprop gradients against central differences in 64-bit
mode and reports the max relative error; thresholds follow the one used
throughout: 1e-4 at eps=1e-5.

The references live here too, on no model path: the single-step LSTM cell
``lstm_step`` and the single-hop ``attend_vector``, which the op checks and
the tests hold the fused scan and ``attention.attend`` against, and the
extended-precision forward of the full-model check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention, heads, model as model_mod, training
from . import tensor as T
from .config import RunConfig

TOLERANCE = 1e-4
EPS = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    passed: bool


def _rand(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), dtype=np.float64)


def _op_checks(rng):
    """(name, fn, inputs) triples covering every differentiable op."""
    def dropout_fixed(x):
        return T.sum_all(T.mul(T.dropout(x, 0.4, np.random.default_rng(3)), x))

    checks = [
        ("matmul", lambda a, b: T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))),
         [_rand(rng, 3, 4), _rand(rng, 4, 2)]),
        # a one-row product, the way ``attend_vector`` scores the rows of H
        ("matmul_vec", lambda a, b: T.sum_all(T.matmul(T.reshape(a, (1, 4)), b)),
         [_rand(rng, 4), _rand(rng, 4, 2)]),
        ("batched_dot", lambda m, w: T.frobenius_sq(T.batched_dot(m, w)),
         [_rand(rng, 3, 2), _rand(rng, 3, 2, 4)]),
        ("softmax_rows", lambda x: T.frobenius_sq(T.softmax_rows(x)), [_rand(rng, 3, 4)]),
        # a padded sentence's A, as ``Classifier.encode`` builds it
        ("softmax_rows_padded", lambda x: T.frobenius_sq(
            T.concat([T.softmax_rows(x), T.zeros((3, 1), x.dtype)], axis=1)), [_rand(rng, 3, 4)]),
        ("tanh_elem", lambda x: T.sum_all(T.tanh_elem(x)), [_rand(rng, 3, 3)]),
        ("sigmoid", lambda x: T.sum_all(T.sigmoid(x)), [_rand(rng, 5)]),
        ("relu", lambda x: T.sum_all(T.mul(T.relu(x), x)),
         [T.Tensor(rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.5, 6), dtype=np.float64)]),
        ("add", lambda a, b: T.frobenius_sq(T.add(a, b)),
         [_rand(rng, 2, 3), _rand(rng, 2, 3)]),
        # a graph tensor plus a constant, the way ``attention.penalty`` adds -I
        ("add_const", lambda a, b: T.frobenius_sq(T.mul(T.add(a, T.Tensor(-np.eye(2, 3))), b)),
         [_rand(rng, 2, 3), _rand(rng, 2, 3)]),
        ("mul", lambda a, b: T.frobenius_sq(T.mul(a, b)),
         [_rand(rng, 2, 3), _rand(rng, 2, 3)]),
        ("scale", lambda x: T.sum_all(T.scale(x, 0.37)), [_rand(rng, 4)]),
        ("frobenius_sq", T.frobenius_sq, [_rand(rng, 3, 3)]),
        ("sum_all", T.sum_all, [_rand(rng, 2, 5)]),
        ("concat", lambda a, b: T.frobenius_sq(T.reshape(T.concat([a, b]), (1, -1))),
         [_rand(rng, 3), _rand(rng, 2)]),
        # pieces stacked along a new leading axis, the way ``forward_batch`` stacks
        # each example's 1×r×2u matrix embedding into the B×r×2u batch
        ("concat_stack", lambda a, b: T.frobenius_sq(T.concat([T.reshape(a, (1, 4)), T.reshape(b, (1, 4))])),
         [_rand(rng, 4), _rand(rng, 4)]),
        ("transpose", lambda x: T.frobenius_sq(T.transpose(x)), [_rand(rng, 2, 4)]),
        ("reshape", lambda x: T.frobenius_sq(T.reshape(x, (3, 2))), [_rand(rng, 2, 3)]),
        ("gather_rows", lambda x: T.frobenius_sq(T.gather_rows(x, np.array([0, 2, 2, 1]))),
         [_rand(rng, 3, 2)]),
        ("gather_rows_one", lambda x: T.sum_all(T.mul(T.gather_rows(x, 1), T.gather_rows(x, 1))),
         [_rand(rng, 3, 4)]),
        # a contiguous run of rows, the way ``encode_batch`` splits the packed H
        # into its sentences
        ("gather_rows_run", lambda x: T.frobenius_sq(T.gather_rows(T.reshape(x, (6, 1)), np.arange(1, 4))),
         [_rand(rng, 6)]),
        ("dropout", dropout_fixed, [_rand(rng, 8)]),
        ("cross_entropy", lambda x: T.cross_entropy(T.reshape(x, (1, 5)), [2]), [_rand(rng, 5)]),
        ("lstm_step", _lstm_step_loss, _lstm_step_inputs(rng)),
        ("lstm_scan", _lstm_scan_loss, _lstm_scan_inputs(rng)),
        ("attend_pool", _attend_pool_loss, _attend_pool_inputs(rng)),
        ("penalty", lambda x: attention.penalty(T.softmax_rows(x)), [_rand(rng, 3, 5)]),
        ("mlp_head", _mlp_loss, _mlp_inputs(rng)),
        ("pruned_head", _pruned_loss, _pruned_inputs(rng)),
        ("gated_encode", lambda mh, mp, wfh, wfp: T.frobenius_sq(heads.gated_encode(mh, mp, wfh, wfp)),
         [_rand(rng, 3, 4), _rand(rng, 3, 4), _rand(rng, 3, 4, 2), _rand(rng, 3, 4, 2)]),
        ("linear", lambda x, w, b: T.frobenius_sq(T.linear(x, w, b)),
         [_rand(rng, 3, 4), _rand(rng, 2, 4), _rand(rng, 2)]),
        ("cross_entropy_batch", lambda x: T.cross_entropy(x, np.array([2, 0, 2])), [_rand(rng, 3, 5)]),
        # the tanh path gives ``a`` a gradient first, so both the in-place add
        # and the allocating branch of the backward are checked
        ("sum_squares", lambda a, b: T.add(T.sum_squares([a, b], 0.37), T.sum_all(T.tanh_elem(a))),
         [_rand(rng, 3, 4), _rand(rng, 5)]),
        ("batched_dot_batch", lambda m, w: T.frobenius_sq(T.batched_dot(m, w)),
         [_rand(rng, 2, 3, 2), _rand(rng, 3, 2, 4)]),
        ("transpose_batch", lambda x, y: T.sum_all(T.mul(T.transpose(x), y)),
         [_rand(rng, 2, 3, 4), _rand(rng, 2, 4, 3)]),
        # two reads of one leaf, ids repeated within and across them, and rows
        # 2 and 4 never read: the leaf's gradient is a two-part ``RowGrad``
        ("gather_rows_leaf_twice", lambda x: T.add(
            T.frobenius_sq(T.gather_rows(x, np.array([3, 1, 3]))),
            T.sum_all(T.tanh_elem(T.gather_rows(x, np.array([1, 0, 1, 3]))))),
         [_rand(rng, 5, 2)]),
        # a packed batch of three sentences, one of them a single row
        ("lstm_scan_packed", _lstm_scan_packed_loss, _lstm_scan_packed_inputs(rng)),
    ]
    return checks


def _lstm_step_inputs(rng):
    d, u = 3, 4
    return [_rand(rng, d), _rand(rng, u), _rand(rng, u),
            _rand(rng, 4 * u, d), _rand(rng, 4 * u, u), _rand(rng, 4 * u)]


def _lstm_step_loss(x, h0, c0, w_x, w_h, b):
    h, c = lstm_step(x, h0, c0, w_x, w_h, b)
    return T.sum_all(T.mul(h, c))


def _lstm_scan_inputs(rng):
    n, d, u = 3, 3, 4
    return [_rand(rng, n, d), _rand(rng, 4 * u, d), _rand(rng, 4 * u, u), _rand(rng, 4 * u)]


def _lstm_scan_loss(x, w_x, w_h, b, lengths=(3,)):
    """Couples both scan directions so each one's gradient depends on the other."""
    return T.sum_all(T.mul(T.lstm_scan(x, lengths, w_x, w_h, b),
                           T.lstm_scan(x, lengths, w_x, w_h, b, reverse=True)))


_PACKED_LENGTHS = (2, 1, 3)


def _lstm_scan_packed_inputs(rng):
    d, u = 3, 4
    return [_rand(rng, sum(_PACKED_LENGTHS), d), _rand(rng, 4 * u, d), _rand(rng, 4 * u, u), _rand(rng, 4 * u)]


def _lstm_scan_packed_loss(x, w_x, w_h, b):
    return _lstm_scan_loss(x, w_x, w_h, b, _PACKED_LENGTHS)


def _attend_pool_inputs(rng):
    n, width, d_a, r = 4, 6, 3, 2
    return [_rand(rng, n, width), _rand(rng, d_a, width), _rand(rng, r, d_a)]


def _attend_pool_loss(h, w1, w2):
    a = attention.attend(h, w1, w2)
    return T.frobenius_sq(attention.pool(a, h))


def _mlp_inputs(rng):
    return [_rand(rng, 2, 3), _rand(rng, 4, 6), _rand(rng, 4), _rand(rng, 3, 4), _rand(rng, 3)]


def _mlp_loss(m, w1, b1, w2, b2):
    return T.cross_entropy(heads.mlp_forward(T.reshape(m, (1, *m.shape)), w1, b1, w2, b2), [1])


def _pruned_inputs(rng):
    r, width, p, q, classes = 2, 4, 3, 2, 3
    return [_rand(rng, r, width), _rand(rng, r, width, p), _rand(rng, width, r, q),
            _rand(rng, classes, r * p + width * q), _rand(rng, classes)]


def _pruned_loss(m, w_v, w_h, w_out, b_out):
    return T.cross_entropy(heads.pruned_forward(T.reshape(m, (1, *m.shape)), w_v, w_h, w_out, b_out), [0])


def _max_rel_err(loss, arrays, grads, eps):
    """Worst relative error of ``grads`` against central differences of ``loss``.

    Each element of each array is moved by +/-``eps`` in place and restored;
    ``loss()`` recomputes the scalar from the arrays as they stand, a
    gradient is read densely through ``np.asarray``, and None stands for zeros. The error
    per coordinate is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8),
    and one NaN error makes the result NaN, so it never passes.
    """
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        a_flat = np.zeros(flat.size) if grad is None else np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss()
            flat[i] = orig - eps
            lo = loss()
            flat[i] = orig
            numeric = float((hi - lo) / (2 * eps))
            err = float(abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8))
            if math.isnan(err):
                return err
            worst = max(worst, err)
    return worst


def grad_check(fn, inputs):
    """Max relative error of backprop gradients against central differences.

    ``fn`` maps the given tensors to a scalar Tensor. Inputs are copied to
    float64 with requires_grad, and perturbed by ``EPS``.
    """
    xs = [T.Tensor(np.asarray(t.data, dtype=np.float64).copy(), requires_grad=True) for t in inputs]
    fn(*xs).backward()
    with T.no_grad():
        return _max_rel_err(lambda: fn(*xs).item(), [x.data for x in xs], [x.grad for x in xs], EPS)


def run_op_checks(seed=0):
    """Gradient-check every op."""
    rng = np.random.default_rng(seed)
    results = []
    for name, fn, inputs in _op_checks(rng):
        err = grad_check(fn, inputs)
        results.append(CheckResult(name, err, err < TOLERANCE))
    return results


def lstm_step(x_t, h_prev, c_prev, w_x, w_h, bias):
    """One LSTM recurrence as a graph of elementary ops: the reference for
    ``tensor.lstm_scan``. Sigmoid input/forget/output gates, tanh candidate.

    Gates are stacked input/forget/cell/output along the rows of ``w_x``,
    ``w_h`` and ``bias``.
    """
    def times(w, v):  # w times the column vector v
        return T.reshape(T.matmul(w, T.reshape(v, (-1, 1))), (-1,))

    z = T.add(T.add(times(w_x, x_t), times(w_h, h_prev)), bias)
    gates = T.reshape(z, (4, w_h.shape[1]))
    i = T.sigmoid(T.gather_rows(gates, 0))
    f = T.sigmoid(T.gather_rows(gates, 1))
    g = T.tanh_elem(T.gather_rows(gates, 2))
    o = T.sigmoid(T.gather_rows(gates, 3))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh_elem(c))
    return h, c


def attend_vector(h, w1, w2_row):
    """Single-hop attention, a weight vector over the n rows of H: the
    reference ``attention.attend`` must equal at r = 1."""
    scores = T.matmul(T.reshape(w2_row, (1, -1)), T.tanh_elem(T.matmul(w1, T.transpose(h))))
    return T.gather_rows(T.softmax_rows(scores), 0)


# Extended precision for the finite-difference side of the full-model check.
# At eps=1e-5 a float64 loss evaluation carries ~ulp(loss)/2eps ~ 3e-11 of
# noise per numeric gradient, which the ~100 coordinates with gradients below
# 3e-7 cannot absorb at tolerance 1e-4; the 80-bit oracle can.
_LD = np.longdouble


def _sigmoid_ld(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _oracle_sentence(p, cfg, tokens):
    """Independent longdouble forward of encoder + attention for one sentence."""
    u = cfg.u
    s = p["embedding.table"][tokens]
    n = len(tokens)
    halves = []
    for part, order in (("lstm_fwd", range(n)), ("lstm_bwd", range(n - 1, -1, -1))):
        w_x, w_h, b = p[f"{part}.w_x"], p[f"{part}.w_h"], p[f"{part}.bias"]
        h = np.zeros(u, _LD)
        c = np.zeros(u, _LD)
        out = [None] * n
        for t in order:
            z = w_x @ s[t] + w_h @ h + b
            i, f = _sigmoid_ld(z[:u]), _sigmoid_ld(z[u:2 * u])
            g, o = np.tanh(z[2 * u:3 * u]), _sigmoid_ld(z[3 * u:])
            c = f * c + i * g
            h = o * np.tanh(c)
            out[t] = h
        halves.append(np.stack(out))
    hh = np.concatenate(halves, axis=1)
    scores = p["attention.w2"] @ np.tanh(p["attention.w1"] @ hh.T)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    return a, a @ hh


def _oracle_loss(p, cfg, scenario):
    """The composite loss recomputed with plain numpy in extended precision."""
    tokens, label, l2_names = scenario["tokens"], scenario["label"], scenario["l2"]
    mats = []
    if cfg.head == "gated-pair":
        a_h, m_h = _oracle_sentence(p, cfg, tokens)
        a_p, m_p = _oracle_sentence(p, cfg, scenario["tokens2"])
        mats = [a_h, a_p]
        f_r = np.einsum("rc,rck->rk", m_h, p["gated.w_fh"]) * np.einsum("rc,rck->rk", m_p, p["gated.w_fp"])
        hidden = np.maximum(p["head.w1"] @ f_r.reshape(-1) + p["head.b1"], 0)
        logits = p["head.w2"] @ hidden + p["head.b2"]
    elif cfg.head == "pruned":
        a, m = _oracle_sentence(p, cfg, tokens)
        mats = [a]
        mv = np.maximum(np.einsum("rc,rck->rk", m, p["head.w_v"]), 0)
        mh = np.maximum(np.einsum("rc,rck->rk", m.T, p["head.w_h"]), 0)
        feats = np.concatenate([mv.reshape(-1), mh.reshape(-1)])
        logits = p["head.w_out"] @ feats + p["head.b_out"]
    else:
        a, m = _oracle_sentence(p, cfg, tokens)
        mats = [a]
        hidden = np.maximum(p["head.w1"] @ m.reshape(-1) + p["head.b1"], 0)
        logits = p["head.w2"] @ hidden + p["head.b2"]
    z = logits - logits.max()
    loss = np.log(np.exp(z).sum()) - z[label]
    for a in mats:
        gram = a @ a.T - np.eye(a.shape[0], dtype=_LD)
        loss = loss + (1.0 / len(mats)) * (gram * gram).sum()
    for name in l2_names:
        loss = loss + 1e-4 * (p[name] * p[name]).sum()
    return loss


def full_model_check(cfg: RunConfig, seed=0):
    """Finite differences through the whole loss against every trainable scalar.

    Analytic gradients come from the 64-bit graph; the numeric side perturbs
    an independent extended-precision forward so the oracle noise stays far
    below the tolerance even for near-zero gradient coordinates.
    """
    rng = np.random.default_rng(seed)
    vocab_size = 12
    net = model_mod.build_model(cfg, vocab_size, rng, dtype=np.float64)
    tokens = rng.integers(2, vocab_size, size=5)
    label = int(rng.integers(cfg.classes))

    params = net.named_parameters()
    scenario = {
        "tokens": tokens,
        "tokens2": tokens[::-1].copy(),
        "label": label,
        "l2": [name for name in params if name in model_mod.L2_PARAMS],
    }

    logits, attns = net.forward_batch([tokens], [scenario["tokens2"]])
    training.total_loss(logits, [label], attns, coeff=1.0, l2_coeff=1e-4,
                        l2_params=net.l2_parameters())[0].backward()
    oracle_params = {name: p.data.astype(_LD) for name, p in params.items()}
    worst = _max_rel_err(lambda: _oracle_loss(oracle_params, cfg, scenario),
                         list(oracle_params.values()), [p.grad for p in params.values()], _LD(EPS))
    return CheckResult("full_model_loss", worst, worst < TOLERANCE)


def run_all_checks(cfg: RunConfig, seed=0):
    results = run_op_checks(seed)
    results.append(full_model_check(cfg, seed))
    return results
