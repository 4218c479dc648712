"""Shared network building blocks: `Linear`, multi-head `attention` (one fused op), `ForwardTrace`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor


class Linear(Module):
    """Affine map on row vectors: (T, d_in) -> (T, d_out), x @ weight + bias
    with weight (d_in, d_out) and bias (1, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(d_in)
        # drawn as (d_out, d_in) and stored transposed, as the forward reads it
        self.weight = Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)).T.copy(),
                             requires_grad=True)
        self.bias = ad.uniform_init(rng, (1, d_out), bound)

    def forward(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, self.bias)


def attention(q: Tensor, k: Tensor, v: Tensor, trace=None, n_heads: int = 1,
              batch: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention within each of `batch`
    samples, the fused `autodiff.attention` op; each (sample, head)
    attention matrix (one row per query) goes to `trace`, sample by sample
    and in head order, when one is given."""
    out, attn = ad.attention(q, k, v, n_heads, batch)
    if trace is not None:
        trace.attention_rows.extend(attn.reshape(-1, *attn.shape[2:]).copy())
    return out


@dataclass
class ForwardTrace:
    """Per-forward diagnostics captured when a trace object is passed in.

    attention_rows holds matrices whose rows must each sum to 1 (softmax
    outputs: one (B, T) matrix of ASP frame weights per pooling call, one
    matrix per sample and head per attention call); gates holds one row of
    raw gate activations per sample; asp_std holds one std half of an ASP
    output per sequence.
    """

    attention_rows: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    asp_std: list = field(default_factory=list)
