"""Finite-difference gradient battery over every differentiable block.

Each case builds one block with small dimensions, fixes its inputs, and
compares tape gradients of a random linear functional of the output against
central differences. The random projection (rather than a plain sum) keeps
gradients from cancelling across symmetric outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckReport, Tensor, collect_parameters, grad_check
from .encoders import AspPooling, LstmEncoder
from .fusion import CoAttentionFusion, FusedRepresentation, TransformerFusion
from .model import ClassifierHead
from .ptmfim import Ptmfim

DEFAULT_TOL = 1e-4
DEFAULT_SEEDS = (0, 1, 2)


@dataclass
class BatteryCase:
    module: str
    report: GradCheckReport

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.report.passed(tol)


def _projected(out: Tensor, rng: np.random.Generator) -> Tensor:
    r = rng.standard_normal(out.shape)
    return ad.tsum(ad.mul(out, ad.constant(r)))


def run_battery(seed: int, tol: float = DEFAULT_TOL) -> list[BatteryCase]:
    """Gradient-check every block once with weights/inputs drawn from `seed`."""
    rng = np.random.default_rng(seed)
    cases = []

    def check(name, module, f):
        params = collect_parameters(module)
        cases.append(BatteryCase(name, grad_check(f, params, tol=tol)))

    lstm = LstmEncoder(3, 4, rng)
    x_seq = Tensor(rng.standard_normal((5, 3)))
    check("lstm", lstm, lambda: _projected(lstm.forward(x_seq), np.random.default_rng(101)))

    asp = AspPooling(4, 3, rng)
    h_seq = Tensor(rng.standard_normal((6, 4)))
    check("asp", asp, lambda: _projected(asp.forward(h_seq), np.random.default_rng(102)))

    coatt = CoAttentionFusion(3, 3, 4, 3, 3, 4, dropout=0.0, rng=rng)
    lld = Tensor(rng.standard_normal((4, 3)))
    mfcc = Tensor(rng.standard_normal((4, 3)))
    w2v = Tensor(rng.standard_normal((4, 4)))
    check("co_attention", coatt,
          lambda: _projected(coatt.forward(lld, mfcc, w2v), np.random.default_rng(103)))

    tx = TransformerFusion(d_audio=6, d_visual=6, d_model=8, n_layers=2,
                           n_heads=2, d_ffn=12, dropout=0.0, rng=rng)
    u_a = Tensor(rng.standard_normal((1, 6)))
    u_v = Tensor(rng.standard_normal((1, 6)))
    check("transformer_fusion", tx,
          lambda: _projected(tx.forward(u_a, u_v).f_star, np.random.default_rng(104)))

    pim = Ptmfim(d_personality=5, d_multimodal=6, d_h=8, n_p=2, rng=rng)
    pers = Tensor(rng.standard_normal((1, 5)))
    tok_a = Tensor(rng.standard_normal((1, 6)))
    tok_v = Tensor(rng.standard_normal((1, 6)))

    def ptmfim_loss():
        fused = FusedRepresentation(f_star=ad.concat([tok_a, tok_v], axis=1),
                                    audio_token=tok_a, visual_token=tok_v)
        return _projected(pim.forward(pers, fused).out, np.random.default_rng(105))

    check("ptmfim", pim, ptmfim_loss)

    head = ClassifierHead(6, 5, 3, rng)
    x_head = Tensor(rng.standard_normal((1, 6)))
    check("classifier_head", head,
          lambda: _projected(head.forward(x_head), np.random.default_rng(106)))

    return cases


@dataclass
class BatterySummary:
    seeds: tuple
    tol: float
    cases: list  # (seed, BatteryCase)
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return all(case.passed(self.tol) for _, case in self.cases)

    def worst(self) -> tuple:
        seed, case = max(self.cases, key=lambda sc: sc[1].report.max_rel_err)
        return seed, case.module, case.report.max_rel_err


def run_full_battery(seeds=DEFAULT_SEEDS, tol: float = DEFAULT_TOL) -> BatterySummary:
    start = time.perf_counter()
    cases = [(seed, case) for seed in seeds for case in run_battery(seed, tol)]
    return BatterySummary(seeds=tuple(seeds), tol=tol, cases=cases,
                          elapsed_s=time.perf_counter() - start)
