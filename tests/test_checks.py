import numpy as np

from structattn import checks
from structattn import tensor as T
from structattn.config import RunConfig


def toy_cfg(head="dense"):
    return RunConfig(d=8, u=8, d_a=8, r=4, head=head, classes=2, b=8, p=4, q=3, k=6,
                     seed=0).validate()


def test_all_op_checks_pass():
    results = checks.run_op_checks(seed=0)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing


def test_report_lists_every_op():
    names = {r.name for r in checks.run_op_checks(seed=0)}
    expected = {"matmul", "batched_dot", "softmax_rows", "softmax_rows_masked", "tanh_elem",
                "sigmoid", "relu", "add", "sub", "mul",
                "scale", "frobenius_sq", "sum_all", "concat", "concat_rows", "transpose",
                "reshape", "gather_rows", "row", "slice_rows", "dropout", "cross_entropy",
                "lstm_step", "lstm_scan", "attend_pool", "penalty", "mlp_head", "pruned_head", "gated_encode",
                "linear", "cross_entropy_batch", "sum_squares"}
    assert expected <= names


def test_corrupted_backward_rule_is_reported():
    def broken_double(x):
        data = x.data * 2.0

        def bk(g):
            x._acc(g * 2.5)  # wrong: forward doubles, backward claims 2.5x
        return T._from_op(data, (x,), bk)

    extra = [("broken_double", lambda x: T.sum_all(broken_double(x)),
              [T.Tensor(np.ones(3))])]
    results = checks.run_op_checks(seed=0, extra=extra)
    by_name = {r.name: r for r in results}
    assert not by_name["broken_double"].passed
    assert by_name["matmul"].passed


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
