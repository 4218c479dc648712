"""Battery-level gradient checking: every block is covered and reports
every parameter, and the checker itself provably can fail."""

import inspect

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Parameter, Tensor
from ptmfnet.gradcheck import grad_check, run_battery, worst

EXPECTED_MODULES = ["lstm", "lstm_grouped", "asp", "co_attention", "transformer_fusion",
                    "ptmfim", "classifier_head"]


def test_battery_covers_all_blocks_once():
    assert list(run_battery(seed=0)) == EXPECTED_MODULES


def test_battery_reports_every_parameter():
    for block, errors in run_battery(seed=1).items():
        assert errors, block
        for rel, scaled in errors.values():
            assert np.isfinite(rel) and np.isfinite(scaled)


def test_checker_flags_disagreement():
    # relu has a kink at 0: the tape reports slope 0 there while the central
    # difference reports 1/2, so a healthy checker must fail loudly
    w = Parameter("w", Tensor(np.zeros(3), requires_grad=True))
    report = grad_check(lambda: ad.tsum(ad.relu(w.tensor)), [w])
    assert min(report["w"]) > 0.1
    assert not worst(report) <= 1e-4


def test_block_scaled_error_registers_what_atol_hides():
    # a VJP off by 5e-9 on a gradient of 1e-6 is 0.5% wrong; the relative
    # error's atol of 1e-8 swallows the difference, the block-scaled one does not
    x = Tensor(np.ones(3), requires_grad=True)

    def f():
        out = ad._result(x.data * 1e-6, x.requires_grad)
        return ad.tsum(ad._record(out, (x,), lambda g: (g * 1e-6 + 5e-9,)))

    rel, scaled = grad_check(f, [Parameter("x", x)])["x"]
    assert rel == 0.0
    assert scaled == pytest.approx(5e-9 / (1e-6 + 5e-9), rel=1e-3)


def test_checker_perturbs_non_contiguous_parameters():
    # a transposed view is not C-contiguous, so reshape(-1) of it is a copy;
    # the perturbation must still reach the parameter's own data
    for data in (np.arange(6.0).reshape(2, 3).T, np.arange(6.0).reshape(3, 2)):
        x = Tensor(data, requires_grad=True)
        report = grad_check(lambda: ad.tsum(ad.mul(x, x)), [Parameter("x", x)])
        assert worst(report) <= 1e-8, (data.flags.c_contiguous, report)


# source edits of the lstm VJP: drop the cell-state carry to the step before,
# or scale one returned gradient (the first stream's dW, the last one's db)
LSTM_MUTATIONS = {
    "dc_carry_dropped": ("dc = dc * f", "dc = np.zeros_like(dc)"),
    "first_dW_scaled": ("return tuple(grads)", "grads[1] = grads[1] * (1 + 1e-3); return tuple(grads)"),
    "last_db_scaled": ("return tuple(grads)", "grads[-1] = grads[-1] * (1 + 1e-3); return tuple(grads)"),
}


@pytest.mark.parametrize("mutation", sorted(LSTM_MUTATIONS))
def test_battery_fails_on_a_broken_lstm_vjp(monkeypatch, mutation):
    old, new = LSTM_MUTATIONS[mutation]
    source = inspect.getsource(ad.lstm)
    assert source.count(old) == 1, "the mutated line is no longer in ad.lstm"
    namespace = dict(vars(ad))
    exec(compile("from __future__ import annotations\n" + source.replace(old, new), ad.__file__, "exec"),
         namespace)
    monkeypatch.setattr(ad, "lstm", namespace["lstm"])
    blocks = run_battery(seed=0)
    failed = sorted(block for block, errors in blocks.items() if worst(errors) > 1e-4)
    assert failed == ["lstm", "lstm_grouped"], {b: worst(e) for b, e in blocks.items()}
