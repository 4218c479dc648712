"""Battery-level gradient checking: every block is covered and reports
every parameter, and the checker itself provably can fail."""

import inspect

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet import gradcheck
from ptmfnet.autodiff import Parameter, Tensor
from ptmfnet.gradcheck import grad_check, run_battery, worst
from test_autodiff import BATCHED_OPS, batched_grad_check
from test_encoders import _grouped_lstm, _one_stream_lstm, _tape_free_lstm

EXPECTED_MODULES = ["lstm", "lstm_grouped", "asp", "co_attention", "transformer_fusion",
                    "ptmfim", "classifier_head", "loss"]


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


def _mutate(monkeypatch, name, old, new):
    """Replace ad.<name> by a copy compiled from its source with `old`, which
    must occur there once, replaced by `new`; returns the copy."""
    source = inspect.getsource(getattr(ad, name))
    assert source.count(old) == 1, f"the mutated line is no longer in ad.{name}"
    namespace = dict(vars(ad))
    exec(compile("from __future__ import annotations\n" + source.replace(old, new), ad.__file__, "exec"),
         namespace)
    monkeypatch.setattr(ad, name, namespace[name])
    return namespace[name]


# source edits of the lstm VJP: drop the cell-state carry to the step before,
# leave out the square of tanh(c) or of g in a precomputed derivative table,
# or scale one returned gradient (the first stream's dW, the last one's db);
# and one of the forward, which the VJP no longer matches: swap the halves of
# the cell update's one multiply, [i, f] * [c_prev, g]
LSTM_MUTATIONS = {
    "dc_carry_dropped": ("dc *= f_t", "dc[...] = 0.0"),
    "tanh_c_slope_unsquared": ("dtc = 1.0 - tc * tc", "dtc = 1.0 - tc"),
    "g_slope_unsquared": ("d_pre[..., k:] = 1.0 - g * g", "d_pre[..., k:] = 1.0 - g"),
    "first_dW_scaled": ("return tuple(grads)", "grads[1] = grads[1] * (1 + 1e-3); return tuple(grads)"),
    "last_db_scaled": ("return tuple(grads)", "grads[-1] = grads[-1] * (1 + 1e-3); return tuple(grads)"),
    "cell_update_halves_swapped": ("np.multiply(if_t, gc_t, out=ig_fc)", "np.multiply(if_t, gc_t[::-1], out=ig_fc)"),
}


@pytest.mark.parametrize("mutation", sorted(LSTM_MUTATIONS))
def test_battery_fails_on_a_broken_lstm_vjp(monkeypatch, mutation):
    _mutate(monkeypatch, "lstm", *LSTM_MUTATIONS[mutation])
    blocks = run_battery(seed=0)
    failed = sorted(block for block, errors in blocks.items() if worst(errors) > 1e-4)
    assert failed == ["lstm", "lstm_grouped"], {b: worst(e) for b, e in blocks.items()}


def test_one_stream_oracle_fails_on_swapped_cell_update_halves(monkeypatch):
    _mutate(monkeypatch, "lstm", *LSTM_MUTATIONS["cell_update_halves_swapped"])
    rng = np.random.default_rng(3)
    lens, h_dim = [6, 4], 4
    stream = (rng.normal(size=(12, 3)), rng.normal(size=(3, 4 * h_dim)), rng.normal(size=(h_dim, 4 * h_dim)),
              rng.normal(size=(1, 4 * h_dim)))
    probe = rng.normal(size=(12, h_dim))
    ref_out, _ = _one_stream_lstm(stream[0], lens, *stream[1:], probe)
    (taped,), _ = _grouped_lstm([stream], [lens], [probe])
    (tape_free,) = _tape_free_lstm([stream], [lens])
    assert not np.array_equal(taped, ref_out) and not np.array_equal(tape_free, ref_out)


# one-line source edits of the other hand-written VJPs and of backward's
# routing of a multi-output node's gradients: (function, old, new, the
# battery blocks and batched-table ops that must fail)
VJP_MUTATIONS = {
    "attentive_stats_tanh_slope_unsquared": (
        "attentive_stats", "(1.0 - proj * proj)", "(1.0 - proj)", {"asp", "batched attentive_stats"}),
    "attention_scale_dropped": (
        "attention", "attn, axis=-1) * c", "attn, axis=-1)", {"transformer_fusion", "ptmfim", "batched attention"}),
    "layer_norm_xhat_term_dropped": (
        "layer_norm", " - xhat * (h * xhat).mean(axis=-1, keepdims=True)", "", {"transformer_fusion"}),
    "cross_entropy_mean_dropped": (
        "cross_entropy", "gc = g[0, 0] * c", "gc = g[0, 0]", {"loss", "batched cross_entropy"}),
    "tmean_scale_dropped": ("tmean", "np.repeat(g * c, n, axis=0)", "np.repeat(g, n, axis=0)", {"ptmfim"}),
    "backward_routes_first_output_only": (
        "backward", "[flows.pop(id(o), None) for o in node.out]",
        "[flows.pop(id(node.out[0]), None)] + [None] * (len(node.out) - 1)",
        {"lstm_grouped", "batched lstm_three_streams"}),
    "matmul_bias_grad_scaled": (
        "matmul", "_unbroadcast(g, bias.shape)", "_unbroadcast(g, bias.shape) * (1 + 1e-3)",
        {"co_attention", "transformer_fusion", "ptmfim", "classifier_head", "loss", "batched matmul_bias"}),
}


@pytest.mark.parametrize("mutation", sorted(VJP_MUTATIONS))
def test_gradient_checks_fail_on_a_broken_vjp(monkeypatch, mutation):
    name, old, new, expected = VJP_MUTATIONS[mutation]
    mutant = _mutate(monkeypatch, name, old, new)
    if name == "backward":  # the checker calls backward through its own import
        monkeypatch.setattr(gradcheck, "backward", mutant)
    errors = {block: worst(e) for block, e in run_battery(seed=0).items()}
    errors.update((f"batched {op}", worst(batched_grad_check(op))) for op in BATCHED_OPS)
    assert {check for check, err in errors.items() if err > 1e-4} == expected, errors
