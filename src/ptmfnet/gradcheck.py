"""Finite-difference gradient checking, of one closure and of a battery over
every differentiable block. Both map each parameter name to two errors, and
a check passes when every error is at most the caller's tolerance (`worst`).

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
) -> dict[str, tuple[float, float]]:
    """Compare tape gradients of scalar f() against central finite differences.

    f must be deterministic (dropout off, fixed inputs); this is verified by
    evaluating it twice. Returns, per parameter name, two errors of the
    analytic gradient a against the numeric one n:
    - relative: max(|a - n| - atol, 0) / max(|a|, |n|, 1e-8), elementwise.
      atol absorbs central-difference roundoff (~1e-11 at eps=1e-5) on
      parameters whose true gradient is identically zero, e.g. a key bias
      that cancels inside softmax; it also hides any |a - n| below it;
    - block-scaled: max |a - n| over the largest |a| or |n| of any of
      `params`, which has no floor, so it registers every disagreement.
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

    errors, scale = {}, 0.0  # name -> (relative error, max |a - n|); largest |a| or |n|
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
        big = np.maximum(np.abs(a), np.abs(numeric))
        err = np.maximum(np.abs(a - numeric) - atol, 0.0) / np.maximum(big, 1e-8)
        errors[p.name] = (float(np.max(err)), float(np.max(np.abs(a - numeric))))
        scale = max(scale, float(np.max(big)))
    scale = max(scale, np.finfo(float).tiny)  # all-zero gradients: every difference is 0 too
    return {name: (rel, diff / scale) for name, (rel, diff) in errors.items()}


def worst(errors: dict[str, tuple[float, float]]) -> float:
    """The largest error of a `grad_check` result, either kind: the check
    passes at tolerance tol when this is at most tol."""
    return max(max(pair) for pair in errors.values())


def _projected(out: Tensor, seed: int) -> Tensor:
    r = np.random.default_rng(seed).standard_normal(out.shape)
    return ad.tsum(ad.mul(out, Tensor(r)))


def run_battery(seed: int) -> dict[str, dict[str, tuple[float, float]]]:
    """Gradient-check every block and the loss once, with weights/inputs drawn
    from `seed`; returns block -> parameter -> (relative, block-scaled) error."""
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
    # four LSTMs of one H in one op, as the model runs them: three "audio"
    # streams padded to T = 4 and a "visual" one padded to T = 6, longer
    # than its audio for the first sequence and shorter for the last
    grouped = ad.Module()
    grouped.lstm = [LstmEncoder(d, 3, rng) for d in (2, 5, 3, 4)]
    grouped_x = [Tensor(rng.standard_normal((3 * t, d))) for d, t in ((2, 4), (5, 4), (3, 4), (4, 6))]
    grouped_len = [[4, 1, 3]] * 3 + [[6, 1, 2]]
    # drawn after every other block, so their draws do not depend on it
    loss_head = ClassifierHead(4, 5, 3, rng)
    x_loss = Tensor(rng.standard_normal((3, 4)))

    def grouped_forward():
        (enc, x, lengths), *peers = zip(grouped.lstm, grouped_x, grouped_len)
        return ad.concat(enc.forward(x, lengths, peers=peers), axis=0)

    cases = {
        "lstm": (lstm, lambda: _projected(lstm.forward(x_seq, [5, 2, 4]), 101)),
        "lstm_grouped": (grouped, lambda: _projected(grouped_forward(), 107)),
        "asp": (asp, lambda: _projected(asp.forward(h_seq, [6, 1, 3]), 102)),
        "co_attention": (coatt, lambda: _projected(coatt.forward(lld, mfcc, w2v), 103)),
        "transformer_fusion": (tx, lambda: _projected(tx.forward(u_a, u_v), 104)),
        "ptmfim": (pim, lambda: _projected(pim.forward(pers, tokens), 105)),
        "classifier_head": (head, lambda: _projected(head.forward(x_head), 106)),
        "loss": (loss_head, lambda: ad.cross_entropy(loss_head.forward(x_loss), [2, 0, 1])),
    }
    return {name: grad_check(f, collect_parameters(module)) for name, (module, f) in cases.items()}
