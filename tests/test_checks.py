import hashlib
import inspect

import numpy as np

from structattn import checks, cli
from structattn import tensor as T
from structattn.config import RunConfig

from support import CONFIG_DIR


def toy_cfg(head="dense"):
    return RunConfig(d=8, u=8, d_a=8, r=4, head=head, classes=2, b=8, p=4, q=3, k=6,
                     seed=0).validate()


def test_all_op_checks_pass():
    results = checks.run_op_checks(seed=0)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing


def test_report_lists_every_op():
    names = {r.name for r in checks.run_op_checks(seed=0)}
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")}
    expected = (ops - {"zeros", "uniform", "glorot", "no_grad"}) | {
        "softmax_rows_padded", "cross_entropy_batch", "lstm_step", "attend_pool", "penalty",
        "mlp_head", "pruned_head", "gated_encode", "lstm_scan_packed"}
    assert expected <= names, expected - names


def test_op_checks_reach_every_tensor_function(monkeypatch):
    """Every public function of ``tensor`` but the two init draws runs inside
    ``run_op_checks``, so no op goes without a finite-difference check."""
    public = [name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")]
    reached = set()

    def counted(name, fn):
        def call(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return call

    for name in public:
        monkeypatch.setattr(T, name, counted(name, getattr(T, name)))
    checks.run_op_checks(seed=0)
    assert {"uniform", "glorot"} <= set(public)
    missing = set(public) - {"uniform", "glorot"} - reached
    assert not missing, sorted(missing)


# SHA-256 of each ``_op_checks`` entry's name and input bytes, in order, at seeds 0-29.
OP_CHECK_INPUTS_SHA256 = "24ebc83bdbe5b8199f058ea64ce12acef377c177edb567957184e0aa283b6758"


def test_op_check_inputs_are_the_recorded_draws():
    """Every op check keeps its inputs. One draw inserted or dropped moves each
    later check onto new inputs, and which checks fail at the 1e-8 floor of
    ``_max_rel_err`` depends on them, so a change that means to move them
    records the new value and says so."""
    h = hashlib.sha256()
    for seed in range(30):
        for name, _, inputs in checks._op_checks(np.random.default_rng(seed)):
            h.update(name.encode("utf-8"))
            for t in inputs:
                h.update(t.data.tobytes())
    assert h.hexdigest() == OP_CHECK_INPUTS_SHA256


def wrong_double(backward_factor, nan_at=None):
    """A loss through an op that doubles its input but whose backward claims
    ``backward_factor``, and NaN at coordinate ``nan_at`` if one is given."""
    def op(x):
        def bk(g):
            grad = g * backward_factor * np.ones_like(x.data)
            if nan_at is not None:
                grad[nan_at] = np.nan
            x._acc(grad)
        return T._from_op(x.data * 2.0, (x,), bk)
    return lambda x: T.sum_all(op(x))


def test_corrupted_backward_rule_is_reported():
    err = checks.grad_check(wrong_double(2.5), [T.Tensor(np.ones(3))])
    assert not err < checks.TOLERANCE


def test_nan_gradient_is_never_a_pass(monkeypatch, capsys):
    """A backward 2x wrong everywhere and NaN on one coordinate: the NaN error
    is not dropped in favour of the finite ones, and ``gradcheck`` fails."""
    loss = wrong_double(4.0, nan_at=1)
    err = checks.grad_check(loss, [T.Tensor(np.ones(3))])
    assert type(err) is float and np.isnan(err)
    monkeypatch.setattr(checks, "_op_checks", lambda rng: [("nan_double", loss, [T.Tensor(np.ones(3))])])
    assert cli.main(["gradcheck", "--config", str(CONFIG_DIR / "gradcheck.cfg")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["nan_double", "nan", "FAIL"]
    assert out[-1].startswith("1 of 2 checks FAILED")


def test_full_model_check_dense():
    result = checks.full_model_check(toy_cfg("dense"), seed=0)
    assert result.passed, result.max_rel_err


def test_full_model_check_other_heads():
    for head in ("pruned", "gated-pair"):
        result = checks.full_model_check(toy_cfg(head), seed=0)
        assert result.passed, (head, result.max_rel_err)


def test_run_all_checks_appends_full_model():
    results = checks.run_all_checks(toy_cfg(), seed=0)
    assert results[-1].name == "full_model_loss"
    assert all(r.passed for r in results)
