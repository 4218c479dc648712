"""Personality/multimodal interaction module.

Three stages: cross-attention from personality tokens onto the two
multimodal tokens (binary correlation), a second attention using the
first stage's output as keys and values (triple interaction), and a
sigmoid gate that blends the result back onto the pooled personality
representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError
from .fusion import FusedRepresentation
from .layers import Linear


@dataclass
class PtmfimOutput:
    out: Tensor          # (1, d_h), classifier input
    gate_values: Tensor  # (1, d_h), strictly inside (0, 1)
    bca_tokens: Tensor   # binary correlation output
    tia_tokens: Tensor   # triple interaction output


class Ptmfim(Module):
    """personality_query selects the cross-attention direction: True uses
    personality tokens as queries over the multimodal tokens (default),
    False reverses it."""

    def __init__(self, d_personality: int, d_multimodal: int, d_h: int, n_p: int,
                 rng: np.random.Generator, personality_query: bool = True):
        if n_p < 1 or d_h < 1:
            raise ValidationError(f"need n_p >= 1 and d_h >= 1, got n_p={n_p} d_h={d_h}")
        self.d_h = d_h
        self.n_p = n_p
        self.personality_query = personality_query
        self.pers_proj = Linear(d_personality, n_p * d_h, rng)
        self.mm_proj = Linear(d_multimodal, d_h, rng)
        bound = 1.0 / np.sqrt(d_h)
        for name in ("Q_b", "K_b", "V_b", "Q_t", "K_t", "V_t"):
            setattr(self, name, ad.uniform_init(rng, (d_h, d_h), bound))
        self.W_g = ad.uniform_init(rng, (2 * d_h, d_h), bound)
        self.b_g = ad.uniform_init(rng, (d_h,), bound)

    def _attend(self, q_src: Tensor, kv_src: Tensor, q_w: Tensor, k_w: Tensor,
                v_w: Tensor, trace) -> Tensor:
        q = ad.matmul(q_src, q_w)
        k = ad.matmul(kv_src, k_w)
        v = ad.matmul(kv_src, v_w)
        attn = ad.softmax(ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(self.d_h)), axis=-1)
        if trace is not None:
            trace.attention_rows.append(attn.data.copy())
        return ad.matmul(attn, v)

    def personality_tokens(self, embedding: Tensor) -> Tensor:
        """(1, d_p) embedding -> (n_p, d_h) token matrix."""
        return ad.reshape(self.pers_proj.forward(embedding), (self.n_p, self.d_h))

    def binary_correlation(self, p_tok: Tensor, m_tok: Tensor, trace=None) -> Tensor:
        if self.personality_query:
            return self._attend(p_tok, m_tok, self.Q_b, self.K_b, self.V_b, trace)
        return self._attend(m_tok, p_tok, self.Q_b, self.K_b, self.V_b, trace)

    def triple_interaction(self, p_tok: Tensor, bca: Tensor, trace=None) -> Tensor:
        return self._attend(p_tok, bca, self.Q_t, self.K_t, self.V_t, trace)

    def gate(self, bca: Tensor, tia: Tensor, p_pooled: Tensor, trace=None) -> PtmfimOutput:
        b_bar = ad.tmean(bca, axis=0, keepdims=True)
        t_bar = ad.tmean(tia, axis=0, keepdims=True)
        pre = ad.add(ad.matmul(ad.concat([b_bar, t_bar], axis=1), self.W_g),
                     ad.reshape(self.b_g, (1, self.d_h)))
        g = ad.sigmoid(pre)
        if trace is not None:
            trace.gates.append(g.data[0].copy())
        out = ad.add(ad.mul(g, t_bar), p_pooled)
        return PtmfimOutput(out=out, gate_values=g, bca_tokens=bca, tia_tokens=tia)

    def forward(self, personality_embedding: Tensor, fused: FusedRepresentation,
                trace=None) -> PtmfimOutput:
        p_tok = self.personality_tokens(personality_embedding)
        m_tok = self.mm_proj.forward(ad.concat([fused.audio_token, fused.visual_token], axis=0))
        bca = self.binary_correlation(p_tok, m_tok, trace)
        tia = self.triple_interaction(p_tok, bca, trace)
        p_pooled = ad.tmean(p_tok, axis=0, keepdims=True)
        return self.gate(bca, tia, p_pooled, trace)
