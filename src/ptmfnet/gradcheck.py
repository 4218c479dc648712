"""Finite-difference gradient checking, of one closure and of a battery over
every differentiable block. Both map each parameter name to its error; a
check passes when every error is at most the caller's tolerance.

Each battery case builds one block with small dimensions, fixes a batch of
inputs (sequences of mixed lengths where the block pools over frames), and
checks a random linear functional of the output. The random projection
(rather than a plain sum) keeps gradients from cancelling across symmetric
outputs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, backward, collect_parameters
from .encoders import AspPooling, LstmEncoder
from .fusion import CoAttentionFusion, TransformerFusion
from .model import ClassifierHead
from .ptmfim import Ptmfim


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    atol: float = 1e-8,
) -> dict[str, float]:
    """Compare tape gradients of scalar f() against central finite differences.

    f must be deterministic (dropout off, fixed inputs); this is verified by
    evaluating it twice. Returns, per parameter name,
    max(|analytic - numeric| - atol, 0) / max(|analytic|, |numeric|, 1e-8).
    atol absorbs central-difference roundoff (~1e-11 at eps=1e-5) on
    parameters whose true gradient is identically zero, e.g. a key bias
    that cancels inside softmax.
    """
    v1 = f()
    v2 = f()
    if not np.array_equal(v1.data, v2.data):
        raise RuntimeError("grad_check requires a deterministic closure (repeated evaluations differ)")

    for p in params:
        p.tensor.zero_grad()
    with Tape():
        loss = f()
        backward(loss)
    analytic = {p.name: p.tensor.grad.copy() for p in params}

    errors = {}
    for p in params:
        buf = p.tensor.data  # perturbed through .flat, which also writes into non-contiguous data
        numeric = np.empty(buf.size)
        for i in range(buf.size):
            orig = buf.flat[i]
            buf.flat[i] = orig + eps
            hi = f().item()
            buf.flat[i] = orig - eps
            lo = f().item()
            buf.flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
        numeric = numeric.reshape(buf.shape)
        a = analytic[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        err = np.maximum(np.abs(a - numeric) - atol, 0.0) / denom
        errors[p.name] = float(np.max(err))
    return errors


def _projected(out: Tensor, seed: int) -> Tensor:
    r = np.random.default_rng(seed).standard_normal(out.shape)
    return ad.tsum(ad.mul(out, Tensor(r)))


def run_battery(seed: int) -> dict[str, dict[str, float]]:
    """Gradient-check every block once with weights/inputs drawn from `seed`;
    returns block -> parameter -> error."""
    rng = np.random.default_rng(seed)
    lstm = LstmEncoder(3, 4, rng)
    x_seq = Tensor(rng.standard_normal((3 * 5, 3)))  # three sequences padded to T = 5
    asp = AspPooling(4, 3, rng)
    h_seq = Tensor(rng.standard_normal((3 * 6, 4)))
    coatt = CoAttentionFusion(3, 3, 4, 3, 3, 4, dropout=0.0, rng=rng)
    lld = Tensor(rng.standard_normal((4, 3)))
    mfcc = Tensor(rng.standard_normal((4, 3)))
    w2v = Tensor(rng.standard_normal((4, 4)))
    tx = TransformerFusion(d_audio=6, d_visual=6, d_model=8, n_layers=2,
                           n_heads=2, d_ffn=12, dropout=0.0, rng=rng)
    u_a = Tensor(rng.standard_normal((2, 6)))
    u_v = Tensor(rng.standard_normal((2, 6)))
    pim = Ptmfim(d_personality=5, d_multimodal=6, d_h=8, n_p=2, rng=rng)
    pers = Tensor(rng.standard_normal((2, 5)))
    tokens = Tensor(rng.standard_normal((4, 6)))
    head = ClassifierHead(6, 5, 3, rng)
    x_head = Tensor(rng.standard_normal((2, 6)))
    cases = {
        "lstm": (lstm, lambda: _projected(lstm.forward(x_seq, [5, 2, 4]), 101)),
        "asp": (asp, lambda: _projected(asp.forward(h_seq, [6, 1, 3]), 102)),
        "co_attention": (coatt, lambda: _projected(coatt.forward(lld, mfcc, w2v), 103)),
        "transformer_fusion": (tx, lambda: _projected(tx.forward(u_a, u_v), 104)),
        "ptmfim": (pim, lambda: _projected(pim.forward(pers, tokens), 105)),
        "classifier_head": (head, lambda: _projected(head.forward(x_head), 106)),
    }
    return {name: grad_check(f, collect_parameters(module)) for name, (module, f) in cases.items()}
