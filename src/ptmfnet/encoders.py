"""Sequence encoders: LSTM over frame features and attentive statistics
pooling (ASP) from frame level to utterance level.

Both take a batch of B zero-padded sequences as (B*T, D) tape rows,
batch-major, with one length per sequence, and return rows. Each block is
one fused autodiff op, `lstm` and `attentive_stats`, so it records one tape
node per batch, whatever B and T are. `run_lstms` groups the LSTMs of a
batch by hidden width and runs each group as one `lstm` node with one
output per stream, each stream with its own lengths.
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

    def forward(self, x: Tensor, lengths, peers=()):
        """x: (B*T, D) padded rows with lengths (B,) -> hidden rows (B*T, H),
        zero past each sequence's length. `peers` are (encoder, x, lengths)
        triples of other encoders of the same H over their own padded rows
        of the same B sequences; with peers, all of them run in one `lstm`
        op and the result is the tuple of hidden rows, this encoder's first."""
        runs = [(self, x, lengths), *peers]
        for enc, rows, _ in runs:
            if rows.shape[-1] != enc.input_dim:
                raise ValidationError(f"input dim {rows.shape[-1]} does not match encoder dim {enc.input_dim}")
        encs, xs, lens = zip(*runs)
        outs = ad.lstm(xs, lens, [e.W for e in encs], [e.U for e in encs], [e.b for e in encs])
        return outs if peers else outs[0]


def run_lstms(runs: Sequence[tuple]) -> list[Tensor]:
    """(encoder, x, lengths) triples -> one hidden-row tensor per triple, in
    order. Encoders of the same hidden width run as one `lstm` op, through
    the first one's `forward`."""
    groups: dict[int, list[int]] = {}
    for j, (enc, _, _) in enumerate(runs):
        groups.setdefault(enc.hidden_dim, []).append(j)
    outs: list = [None] * len(runs)
    for members in groups.values():
        (enc, x, lengths), *peers = (runs[j] for j in members)
        hidden = enc.forward(x, lengths, peers=peers)
        for j, h in zip(members, hidden if peers else (hidden,)):
            outs[j] = h
    return outs


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
