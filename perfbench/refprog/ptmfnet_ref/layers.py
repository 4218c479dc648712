"""Shared network building blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor


class Linear(Module):
    """Affine map on row vectors: (T, d_in) -> (T, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(d_in)
        self.weight = ad.uniform_init(rng, (d_out, d_in), bound)
        self.bias = ad.uniform_init(rng, (d_out,), bound)

    def forward(self, x: Tensor) -> Tensor:
        out_dim = self.weight.shape[0]
        return ad.add(ad.matmul(x, ad.transpose(self.weight)), ad.reshape(self.bias, (1, out_dim)))


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
