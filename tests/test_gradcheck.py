"""Battery-level gradient checking: every block is covered and reports
every parameter, and the checker itself provably can fail."""

import numpy as np

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Parameter, Tensor
from ptmfnet.gradcheck import grad_check, run_battery

EXPECTED_MODULES = ["lstm", "asp", "co_attention", "transformer_fusion",
                    "ptmfim", "classifier_head"]


def test_battery_covers_all_blocks_once():
    assert list(run_battery(seed=0)) == EXPECTED_MODULES


def test_battery_reports_every_parameter():
    for block, errors in run_battery(seed=1).items():
        assert errors, block
        for err in errors.values():
            assert np.isfinite(err)


def test_checker_flags_disagreement():
    # relu has a kink at 0: the tape reports slope 0 there while the central
    # difference reports 1/2, so a healthy checker must fail loudly
    w = Parameter("w", Tensor(np.zeros(3), requires_grad=True))
    report = grad_check(lambda: ad.tsum(ad.relu(w.tensor)), [w])
    assert report["w"] > 0.1
    assert not max(report.values()) <= 1e-4


def test_checker_perturbs_non_contiguous_parameters():
    # a transposed view is not C-contiguous, so reshape(-1) of it is a copy;
    # the perturbation must still reach the parameter's own data
    for data in (np.arange(6.0).reshape(2, 3).T, np.arange(6.0).reshape(3, 2)):
        x = Tensor(data, requires_grad=True)
        report = grad_check(lambda: ad.tsum(ad.mul(x, x)), [Parameter("x", x)])
        assert report["x"] <= 1e-8, (data.flags.c_contiguous, report)
