"""Sequence encoders: LSTM over frame features and attentive statistics
pooling (ASP) from frame level to utterance level.

Both take a batch of B zero-padded sequences as (B*T, D) tape rows,
batch-major, with one length per sequence, and return rows. Each block is
one fused autodiff op, `lstm` and `attentive_stats`, so it records one tape
node per batch, whatever B and T are. `run_lstms` runs several LSTMs over
streams of the same sequences (the audio streams of a batch) as one `lstm`
node with one output per stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError


class LstmEncoder(Module):
    """Single-layer unidirectional LSTM returning every hidden state.

    The four gates are stored fused, in the layout the forward pass reads:
    W (D x 4H), U (H x 4H) and b (1 x 4H), gate columns in the order
    i|f|o|g, which is what `autodiff.lstm` takes: one input projection for
    all steps, then one recurrent matmul per step. Forget bias starts at
    1.0, everything else uniform in +/- 1/sqrt(H).
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        if input_dim < 1 or hidden_dim < 1:
            raise ValidationError(f"dims must be positive, got D={input_dim} H={hidden_dim}")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        bound = 1.0 / np.sqrt(hidden_dim)
        # drawn per gate, (H x D), (H x H), (H,), so a seed gives the same
        # initial weights as the per-gate layout of format v1
        w, u, b = [], [], []
        for gate in self.GATES:
            w.append(rng.uniform(-bound, bound, size=(hidden_dim, input_dim)))
            u.append(rng.uniform(-bound, bound, size=(hidden_dim, hidden_dim)))
            bias = rng.uniform(-bound, bound, size=hidden_dim)
            b.append(np.ones(hidden_dim) if gate == "f" else bias)
        self.W = Tensor(np.concatenate(w).T.copy(), requires_grad=True)
        self.U = Tensor(np.concatenate(u).T.copy(), requires_grad=True)
        self.b = Tensor(np.concatenate(b)[None, :], requires_grad=True)

    def forward(self, x: Tensor, lengths) -> Tensor:
        """x: (B*T, D) padded rows with lengths (B,) -> hidden rows (B*T, H),
        zero past each sequence's length."""
        return run_lstms([self], [x], lengths)[0]


def run_lstms(encoders: Sequence[LstmEncoder], xs: Sequence[Tensor], lengths) -> tuple[Tensor, ...]:
    """Encoder s over input rows xs[s], all (B*T, D_s) padded rows of the
    same B sequences with lengths (B,), in one `lstm` op -> one (B*T, H)
    hidden-row tensor per encoder. The encoders must share H."""
    for enc, x in zip(encoders, xs, strict=True):
        if x.shape[-1] != enc.input_dim:
            raise ValidationError(f"input dim {x.shape[-1]} does not match encoder dim {enc.input_dim}")
    return ad.lstm(xs, lengths, [e.W for e in encoders], [e.U for e in encoders], [e.b for e in encoders])


class AspPooling(Module):
    """Attentive statistics pooling: weighted mean and weighted std.

    Scores e_t = tanh(h_t W + b) v feed a softmax over time; the output
    row is concat(mu, s) with s = sqrt(relu(E[h^2] - mu^2) + eps), so the
    std half is never below sqrt(eps). The whole block is the fused
    `autodiff.attentive_stats` op.
    """

    def __init__(self, hidden_dim: int, attn_dim: int, rng: np.random.Generator, eps: float = 1e-6):
        if eps <= 0:
            raise ValidationError("eps must be positive")
        self.hidden_dim = hidden_dim
        self.eps = eps
        bound = 1.0 / np.sqrt(hidden_dim)
        # W is drawn as (A x H) and stored transposed, as the forward reads it
        self.W = Tensor(rng.uniform(-bound, bound, size=(attn_dim, hidden_dim)).T.copy(),
                        requires_grad=True)
        self.b = ad.uniform_init(rng, (1, attn_dim), bound)
        self.v = ad.uniform_init(rng, (attn_dim, 1), bound)

    def forward(self, h: Tensor, lengths, trace=None) -> Tensor:
        """h: (B*T, H) padded rows with lengths (B,) -> (B, 2H) rows of
        weighted mean then weighted std. `trace` gets the (B, T) frame
        weights, zero on padded frames, and one std row per sequence."""
        if h.shape[-1] != self.hidden_dim:
            raise ValidationError(f"hidden dim {h.shape[-1]} does not match pooling dim {self.hidden_dim}")
        out, alpha = ad.attentive_stats(h, lengths, self.W, self.b, self.v, self.eps)
        if trace is not None:
            trace.attention_rows.append(alpha.copy())
            trace.asp_std.extend(out.data[:, self.hidden_dim:].copy())
        return out
