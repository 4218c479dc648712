"""Personality/multimodal interaction module.

Three stages: cross-attention from personality tokens onto the two
multimodal tokens (binary correlation), a second attention using the
first stage's output as keys and values (triple interaction), and a
sigmoid gate that blends the result back onto the pooled personality
representation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError
from .layers import Linear, attention


class Ptmfim(Module):
    """Binary correlation attends from the personality tokens (queries) onto
    the multimodal tokens (keys and values)."""

    def __init__(self, d_personality: int, d_multimodal: int, d_h: int, n_p: int,
                 rng: np.random.Generator):
        if n_p < 1 or d_h < 1:
            raise ValidationError(f"need n_p >= 1 and d_h >= 1, got n_p={n_p} d_h={d_h}")
        self.d_h = d_h
        self.n_p = n_p
        self.pers_proj = Linear(d_personality, n_p * d_h, rng)
        self.mm_proj = Linear(d_multimodal, d_h, rng)
        bound = 1.0 / np.sqrt(d_h)
        for name in ("Q_b", "K_b", "V_b", "Q_t", "K_t", "V_t"):
            setattr(self, name, ad.uniform_init(rng, (d_h, d_h), bound))
        self.W_g = ad.uniform_init(rng, (2 * d_h, d_h), bound)
        self.b_g = ad.uniform_init(rng, (1, d_h), bound)

    def personality_tokens(self, embedding: Tensor) -> Tensor:
        """(B, d_p) embeddings -> (B*n_p, d_h) token rows, n_p per sample."""
        return ad.reshape(self.pers_proj.forward(embedding), (-1, self.d_h))

    def binary_correlation(self, p_tok: Tensor, m_tok: Tensor, trace=None) -> Tensor:
        return attention(ad.matmul(p_tok, self.Q_b), ad.matmul(m_tok, self.K_b),
                         ad.matmul(m_tok, self.V_b), trace, batch=p_tok.shape[0] // self.n_p)

    def triple_interaction(self, p_tok: Tensor, bca: Tensor, trace=None) -> Tensor:
        return attention(ad.matmul(p_tok, self.Q_t), ad.matmul(bca, self.K_t),
                         ad.matmul(bca, self.V_t), trace, batch=p_tok.shape[0] // self.n_p)

    def gate(self, bca: Tensor, tia: Tensor, p_pooled: Tensor, trace=None) -> Tensor:
        """(B, d_h) g * mean(tia) + p_pooled, means taken per sample; each
        sample's gate row g goes to `trace` if given."""
        b_bar = ad.tmean(bca, self.n_p)
        t_bar = ad.tmean(tia, self.n_p)
        pre = ad.matmul(ad.concat([b_bar, t_bar], axis=1), self.W_g, self.b_g)
        g = ad.sigmoid(pre)
        if trace is not None:
            trace.gates.extend(g.data.copy())
        return ad.add(ad.mul(g, t_bar), p_pooled)

    def forward(self, personality_embedding: Tensor, tokens: Tensor, trace=None) -> Tensor:
        """(B, d_p) embeddings and the (2B, d_multimodal) audio/visual token
        rows, two per sample -> the (B, d_h) classifier input rows."""
        p_tok = self.personality_tokens(personality_embedding)
        m_tok = self.mm_proj.forward(tokens)
        bca = self.binary_correlation(p_tok, m_tok, trace)
        tia = self.triple_interaction(p_tok, bca, trace)
        return self.gate(bca, tia, ad.tmean(p_tok, self.n_p), trace)
