"""Shared network building blocks."""

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
        return ad.add(ad.matmul(x, self.weight), self.bias)


def attention(q: Tensor, k: Tensor, v: Tensor, trace=None) -> Tensor:
    """Scaled dot-product attention softmax(q k^T / sqrt(q.shape[1])) v; the
    attention matrix (one row per query) goes to `trace` when one is given."""
    attn = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(q.shape[1])), axis=-1)
    if trace is not None:
        trace.attention_rows.append(attn.data.copy())
    return ad.matmul(attn, v)


@dataclass
class ForwardTrace:
    """Per-forward diagnostics captured when a trace object is passed in.

    attention_rows holds matrices whose rows must each sum to 1 (softmax
    outputs, with ASP frame weights stored transposed); gates holds raw
    gate activations; asp_std holds the std halves of ASP outputs.
    """

    attention_rows: list = field(default_factory=list)
    gates: list = field(default_factory=list)
    asp_std: list = field(default_factory=list)
