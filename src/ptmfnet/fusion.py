"""Fusion stages: frame alignment across streams, audio co-attention, and
the 2-token transformer that merges both branches into token rows.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError
from .layers import Linear, attention


def align_streams(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Resample every (T_i, D_i) array to the bundle's minimum T by
    nearest-frame index selection: frame k is row k (T_i - 1) / (t_min - 1)
    rounded half to even, as `np.round(np.linspace(...))` computes it.
    Streams already at min T pass through unchanged."""
    t_min = min(a.shape[0] for a in arrays)
    out = []
    for a in arrays:
        if a.shape[0] == t_min:
            out.append(a)
        else:
            idx = np.rint(np.arange(t_min) * ((a.shape[0] - 1) / max(t_min - 1, 1))).astype(int)
            out.append(a.take(idx, axis=0))
    return out


class CoAttentionFusion(Module):
    """Weighted fusion of the three audio streams.

    Each stream runs through Linear -> Dropout -> ReLU; the concatenated
    LLD/MFCC transform is projected onto the Wav2Vec channel width and
    multiplies it elementwise. Output frame layout: weighted block, then
    lld', then mfcc'.
    """

    def __init__(self, d_lld: int, d_mfcc: int, d_w2v: int,
                 d_lld_out: int, d_mfcc_out: int, d_w2v_out: int,
                 dropout: float, rng: np.random.Generator):
        self.lld = Linear(d_lld, d_lld_out, rng)
        self.mfcc = Linear(d_mfcc, d_mfcc_out, rng)
        self.w2v = Linear(d_w2v, d_w2v_out, rng)
        bound = 1.0 / np.sqrt(d_lld_out + d_mfcc_out)
        self.P = ad.uniform_init(rng, (d_lld_out + d_mfcc_out, d_w2v_out), bound)
        self.dropout = dropout
        self.out_dim = d_w2v_out + d_lld_out + d_mfcc_out

    def _transform(self, x: Tensor, proj: Linear, rng) -> Tensor:
        return ad.relu(ad.dropout(proj.forward(x), self.dropout, rng))

    def forward(self, lld_seq: Tensor, mfcc_seq: Tensor, w2v_seq: Tensor,
                rng: np.random.Generator | None = None, weighting: bool = True) -> Tensor:
        frames = {"lld": lld_seq.shape[0], "mfcc": mfcc_seq.shape[0], "wav2vec": w2v_seq.shape[0]}
        if len(set(frames.values())) > 1:
            detail = ", ".join(f"{name}: T={t}" for name, t in frames.items())
            raise ValidationError(f"frame-count mismatch across streams ({detail})")
        lld_t = self._transform(lld_seq, self.lld, rng)
        mfcc_t = self._transform(mfcc_seq, self.mfcc, rng)
        w2v_t = self._transform(w2v_seq, self.w2v, rng)
        if not weighting:
            return ad.concat([w2v_t, lld_t, mfcc_t], axis=1)
        c = ad.concat([lld_t, mfcc_t], axis=1)
        weighted = ad.mul(ad.matmul(c, self.P), w2v_t)
        return ad.concat([weighted, lld_t, mfcc_t], axis=1)


class TransformerLayer(Module):
    """Pre-norm encoder layer: x + MHSA(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, d_model: int, n_heads: int, d_ffn: int, dropout: float,
                 rng: np.random.Generator):
        if d_model % n_heads:
            raise ValidationError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        self.ln1_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln1_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.q = Linear(d_model, d_model, rng)
        self.k = Linear(d_model, d_model, rng)
        self.v = Linear(d_model, d_model, rng)
        self.o = Linear(d_model, d_model, rng)
        self.ln2_gain = Tensor(np.ones(d_model), requires_grad=True)
        self.ln2_bias = Tensor(np.zeros(d_model), requires_grad=True)
        self.ffn1 = Linear(d_model, d_ffn, rng)
        self.ffn2 = Linear(d_ffn, d_model, rng)
        self.dropout = dropout

    def _attend(self, x: Tensor, batch: int, trace) -> Tensor:
        heads = attention(self.q.forward(x), self.k.forward(x), self.v.forward(x), trace,
                          self.n_heads, batch)
        return self.o.forward(heads)

    def forward(self, x: Tensor, batch: int, rng, trace=None) -> Tensor:
        """x: the token rows of `batch` samples, each sample's in turn; a token
        attends only to its own sample's tokens. Dropout draws from `rng`."""
        attn = self._attend(ad.layer_norm(x, self.ln1_gain, self.ln1_bias), batch, trace)
        x = ad.add(x, ad.dropout(attn, self.dropout, rng))
        ffn = self.ffn2.forward(ad.relu(self.ffn1.forward(
            ad.layer_norm(x, self.ln2_gain, self.ln2_bias))))
        return ad.add(x, ad.dropout(ffn, self.dropout, rng))


class TransformerFusion(Module):
    """Projects the two utterance vectors of each sample to d_model, tags
    them with modality embeddings, and runs a 2-token pre-norm encoder stack.
    The output is the (2B, d_model) token rows: audio row, then visual row,
    for each sample in turn."""

    def __init__(self, d_audio: int, d_visual: int, d_model: int, n_layers: int,
                 n_heads: int, d_ffn: int, dropout: float, rng: np.random.Generator):
        self.proj_a = Linear(d_audio, d_model, rng)
        self.proj_v = Linear(d_visual, d_model, rng)
        bound = 1.0 / np.sqrt(d_model)
        self.m_a = ad.uniform_init(rng, (1, d_model), bound)
        self.m_v = ad.uniform_init(rng, (1, d_model), bound)
        self.layers = [TransformerLayer(d_model, n_heads, d_ffn, dropout, rng)
                       for _ in range(n_layers)]

    def forward(self, u_a: Tensor, u_v: Tensor, rng: np.random.Generator | None = None,
                trace=None) -> Tensor:
        """u_a: (B, d_audio) and u_v: (B, d_visual) rows -> (2B, d_model)."""
        batch, d_model = u_a.shape[0], self.m_a.shape[1]
        tok_a = ad.add(self.proj_a.forward(u_a), self.m_a)
        tok_v = ad.add(self.proj_v.forward(u_v), self.m_v)
        x = ad.reshape(ad.concat([tok_a, tok_v], axis=1), (2 * batch, d_model))
        for layer in self.layers:
            x = layer.forward(x, batch, rng, trace)
        return x
