"""Loss assembly, optimizers, the training loop, and evaluation.

Each batch runs through the model and the loss once: the mean cross-entropy,
the attention penalty averaged per example and added with its coefficient,
and L2 over attention and head weight matrices only, added once per batch as
one fused node. A step passes over each full-size weight once, a row block
at a time. A ``linear`` weight's gradient (the dense head's ``head.w1``) is
never made whole: ``linear`` records it as (g, x) and L2 records its
coefficient, and each block's product, L2 add, clip and update (SGD or
AdaGrad) are made together. Any other weight's gradient is adopted from the
op that made it and L2 adds into it in place. The embedding table's gradient
holds only the rows the batch read, and only those rows are clipped and
updated. Training keeps the parameters of the best dev epoch and stops early
after ``patience`` epochs without improvement.
The best epoch's parameters are copied only when a later epoch is about to
overwrite them. The penalties an epoch reports are read from the loss's own
penalty nodes, so each is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, data
from . import tensor as T
from .config import RunConfig


class TrainingDiverged(RuntimeError):
    pass


def _matrices(attn):
    """An example's annotation matrices: one, or the pair of a pair model."""
    return attn if isinstance(attn, tuple) else (attn,)


def total_loss(logits, labels, attns, coeff, l2_coeff, l2_params):
    """Batch loss: mean cross-entropy, plus coeff times the mean penalty, plus
    l2 times the sum of squared weights, once; returned with each example's
    penalty as ``(loss, penalties)``.

    ``logits`` is B-by-C with B ``labels``; ``attns`` holds each example's
    annotation matrix, or a tuple of them for pair models. Each matrix gets
    one penalty node, added into the loss only with a nonzero coefficient;
    ``penalties`` holds each example's mean over its matrices, read from
    those nodes as a float. The L2 node is the first operand of the last
    add, so its backward runs after every other gradient of the weights
    exists: it adds into them in place, or records its coefficient in a
    ``linear`` weight's lazy gradient.
    """
    loss = T.cross_entropy(logits, labels)
    penalties = []
    for attn in attns:
        terms = [attention.penalty(a) for a in _matrices(attn)]
        penalties.append(float(np.mean([t.item() for t in terms])))
        if coeff:
            for t in terms:
                loss = T.add(loss, T.scale(t, coeff / (len(terms) * len(attns))))
    if l2_coeff:
        loss = T.add(T.sum_squares(l2_params, l2_coeff), loss)
    return loss, penalties


ADAGRAD_EPS = 1e-8  # the eps of AdaGrad's sqrt(acc) + eps


def clip_grads(params, clip):
    """Clamp every component of each ``p.grad`` to [-clip, +clip] in place;
    a lazy gradient is first made the dense ndarray it stands for.

    No command calls it: ``perfbench``'s tracer keeps it by wrapping its
    name, and it goes with ROADMAP item 12 step 3."""
    for p in params.values():
        if p.grad is not None and clip is not None:
            p.grad = np.asarray(p.grad)
            p.grad.clip(-clip, clip, out=p.grad)


def _spend(p, clip, *state):
    """Spend ``p.grad`` a row block at a time: yield each gradient block,
    clipped to [-clip, +clip] in place, with the matching blocks of ``p.data``
    and of each ``state`` array to update in place. A ``RowGrad`` yields the
    blocks of its touched rows only (``touched()``), and those rows of
    ``p.data`` and the state are written back once every block is spent.
    Anything else yields ``g[rows]``: a view of an ndarray, or a block a
    ``ProductGrad`` makes as it is reached, its product and then its L2 add
    from the block of ``p.data`` not yet updated. The blocks are those of
    ``_row_blocks``, except that a one-row last block joins the one before
    it: its product would be a GEMV, whose bits differ from a GEMM's."""
    ids, g = p.grad.touched() if type(p.grad) is T.RowGrad else (None, p.grad)
    arrays = (p.data, *state)
    views = arrays if ids is None else [x[ids] for x in arrays]
    blocks = T._row_blocks(views[0])
    if len(blocks) > 1 and blocks[-1].start == len(views[0]) - 1:
        blocks[-2:] = [slice(blocks[-2].start, None)]
    for rows in blocks:
        gb = g[rows]
        if clip is not None:
            np.clip(gb, -clip, clip, out=gb)
        yield (gb, *(v[rows] for v in views))
    if ids is not None:
        for x, v in zip(arrays, views):
            x[ids] = v
    p.grad = None


def sgd_step(params, lr, clip=None):
    """In-place SGD update from each ``p.grad``, which is spent.

    One pass per gradient (``_spend``): each block is made (a ``linear``
    weight's product and L2 add), clipped, scaled by ``lr`` and subtracted,
    with the elementwise expressions of whole-array clipping and
    ``p -= lr * g``, so the bits are those of the whole dense gradient's. Rows
    a ``RowGrad`` did not touch would get p - lr * 0 = p. So ``clip_grads``
    (which makes a lazy gradient dense) and then a step without ``clip`` give
    the bits of the step with it.
    """
    for p in params.values():
        if p.grad is not None:
            for gb, wb in _spend(p, clip):
                np.multiply(gb, lr, out=gb)
                wb -= gb


def adagrad_step(params, state, lr, clip=None):
    """AdaGrad from each ``p.grad``, which is spent: accumulate squared
    gradients, scale steps by 1/sqrt(acc).

    Like ``sgd_step``, one blocked pass per gradient that clips, then updates
    with the whole-array expressions ``acc += g * g`` and
    ``p -= lr * g / (sqrt(acc) + eps)``; its temporaries are one block in size.
    A ``RowGrad`` updates only its touched rows of ``p`` and ``acc``; every
    other row would add 0 to ``acc`` and subtract 0 / (sqrt(acc) + eps) = 0.
    """
    for name, p in params.items():
        if p.grad is None:
            continue
        acc = state.get(name)
        if acc is None:
            acc = state[name] = np.zeros_like(p.data)
        for gb, wb, ab in _spend(p, clip, acc):
            ab += gb * gb
            denom = np.sqrt(ab)
            denom += ADAGRAD_EPS
            np.multiply(gb, lr, out=gb)
            gb /= denom
            wb -= gb


def _dev_stats(model, examples):
    """Accuracy, the mean pairwise attention overlap, and whether every logit
    was finite; dropout off, parameters untouched.

    Predicts ``cfg.batch_size`` examples at a time, one head GEMM per chunk.
    """
    if not examples:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    overlaps = []
    finite = True
    with T.no_grad():
        for b in data.batch(examples, model.cfg.batch_size):
            logits, attns = model.forward_batch(*b.inputs())
            finite = finite and bool(np.isfinite(logits.data).all())
            correct += int((np.argmax(logits.data, axis=1) == b.labels).sum())
            for attn in attns:
                overlaps.extend(attention.mean_pairwise_overlap(a) for a in _matrices(attn))
    return correct / len(examples), float(np.mean(overlaps)), finite


def evaluate(model, examples):
    """Fraction of argmax-correct predictions; dropout off, parameters untouched."""
    return _dev_stats(model, examples)[0]


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_acc: float
    mean_penalty: float
    mean_overlap: float


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_dev_acc: float
    # name -> array snapshot at the best dev epoch; {} when the best epoch is
    # the last one trained, whose parameters the model still holds
    best_params: dict


def train(model, train_set, dev_set, cfg: RunConfig, log=None):
    """Seeded epoch loop; returns the history and the best dev epoch.

    An improving epoch records its number and accuracy only. Its parameters
    are copied into ``best_params`` at the start of the next epoch, before
    that epoch's first step changes them. So when the best epoch is the last
    one trained, nothing is copied, ``best_params`` is ``{}``, and the model
    already holds the best parameters; ``restore_params(model, {})`` leaves it
    as it is. A non-finite batch loss, or a non-finite logit in an epoch's dev
    pass, raises ``TrainingDiverged`` before that epoch is recorded.
    """
    if not train_set or not dev_set:
        raise ValueError("training and dev sets must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    params = model.named_parameters()
    l2_params = model.l2_parameters()
    adagrad_state = {}
    history = []
    best = TrainResult(history, best_epoch=0, best_dev_acc=-1.0, best_params={})
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        if epoch > 1 and best.best_epoch == epoch - 1:
            # The parameters are still the best epoch's; this epoch's first step would overwrite them.
            best.best_params = {name: p.data.copy() for name, p in params.items()}
        loss_sum = 0.0
        penalty_sum = 0.0
        n_seen = 0
        for bi, b in enumerate(data.batch(train_set, cfg.batch_size, rng)):
            logits, attns = model.forward_batch(*b.inputs(), rng=rng)
            batch_loss, penalties = total_loss(logits, b.labels, attns, cfg.penalty_coeff, cfg.l2, l2_params)
            for p in penalties:  # one at a time: a batch subtotal would round differently
                penalty_sum += p
            if not np.isfinite(batch_loss.item()):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bi}")
            batch_loss.backward()
            if cfg.optimizer == "sgd":
                sgd_step(params, cfg.learning_rate, clip=cfg.clip)
            else:
                adagrad_step(params, adagrad_state, cfg.learning_rate, clip=cfg.clip)
            loss_sum += batch_loss.item() * len(b)
            n_seen += len(b)

        dev_acc, dev_overlap, finite = _dev_stats(model, dev_set)
        if not finite:
            # the loss is checked before each step, so this is where a last
            # step that made the weights non-finite shows
            raise TrainingDiverged(f"non-finite dev logits after epoch {epoch}")
        record = EpochRecord(epoch, loss_sum / n_seen, dev_acc, penalty_sum / n_seen, dev_overlap)
        history.append(record)
        if log:
            log(record)
        if dev_acc > best.best_dev_acc:
            best.best_dev_acc = dev_acc
            best.best_epoch = epoch
            best.best_params = {}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best


def restore_params(model, snapshot):
    """Load a parameter snapshot (name -> array) back into a model, in place."""
    params = model.named_parameters()
    for name, arr in snapshot.items():
        p = params[name]
        if p.data.shape != arr.shape:
            raise T.ShapeError(f"snapshot shape {arr.shape} does not match {p.data.shape} for {name}")
        np.copyto(p.data, arr)
