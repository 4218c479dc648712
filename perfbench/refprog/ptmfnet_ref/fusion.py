"""Fusion stages: audio co-attention, visual concatenation, and the
2-token transformer that merges both branches into one representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError
from .layers import Linear


def align_streams(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Resample every (T_i, D_i) array to the bundle's minimum T by
    nearest-frame index selection. Streams already at min T pass through
    unchanged."""
    t_min = min(a.shape[0] for a in arrays)
    out = []
    for a in arrays:
        if a.shape[0] == t_min:
            out.append(a)
        else:
            idx = np.round(np.linspace(0.0, a.shape[0] - 1, t_min)).astype(int)
            out.append(a[idx])
    return out


def _check_equal_t(named_seqs: list[tuple[str, int]]) -> None:
    t0 = named_seqs[0][1]
    if any(t != t0 for _, t in named_seqs):
        detail = ", ".join(f"{name}: T={t}" for name, t in named_seqs)
        raise ValidationError(f"frame-count mismatch across streams ({detail})")


def visual_concat(openface: np.ndarray, resnet: np.ndarray, densenet: np.ndarray) -> np.ndarray:
    """Frame-wise concatenation in fixed stream order."""
    _check_equal_t([("openface", openface.shape[0]), ("resnet", resnet.shape[0]),
                    ("densenet", densenet.shape[0])])
    return np.concatenate([openface, resnet, densenet], axis=1)


class CoAttentionFusion(Module):
    """Weighted fusion of the three audio streams.

    Each stream runs through Linear -> Dropout -> ReLU; the concatenated
    LLD/MFCC transform is projected onto the Wav2Vec channel width and
    multiplies it elementwise. Output frame layout: weighted block, then
    lld', then mfcc'.
    """

    def __init__(self, d_lld: int, d_mfcc: int, d_w2v: int,
                 d_lld_out: int, d_mfcc_out: int, d_w2v_out: int,
                 dropout: float, rng: np.random.Generator, sigmoid_weighting: bool = False):
        self.lld = Linear(d_lld, d_lld_out, rng)
        self.mfcc = Linear(d_mfcc, d_mfcc_out, rng)
        self.w2v = Linear(d_w2v, d_w2v_out, rng)
        bound = 1.0 / np.sqrt(d_lld_out + d_mfcc_out)
        self.P = ad.uniform_init(rng, (d_lld_out + d_mfcc_out, d_w2v_out), bound)
        self.dropout = dropout
        self.sigmoid_weighting = sigmoid_weighting
        self.out_dim = d_w2v_out + d_lld_out + d_mfcc_out

    def _transform(self, x: Tensor, proj: Linear, training: bool, rng) -> Tensor:
        return ad.relu(ad.dropout(proj.forward(x), self.dropout, training, rng))

    def forward(self, lld_seq: Tensor, mfcc_seq: Tensor, w2v_seq: Tensor,
                training: bool = False, rng: np.random.Generator | None = None,
                weighting: bool = True) -> Tensor:
        _check_equal_t([("lld", lld_seq.shape[0]), ("mfcc", mfcc_seq.shape[0]),
                        ("wav2vec", w2v_seq.shape[0])])
        lld_t = self._transform(lld_seq, self.lld, training, rng)
        mfcc_t = self._transform(mfcc_seq, self.mfcc, training, rng)
        w2v_t = self._transform(w2v_seq, self.w2v, training, rng)
        if not weighting:
            return ad.concat([w2v_t, lld_t, mfcc_t], axis=1)
        c = ad.concat([lld_t, mfcc_t], axis=1)
        gate = ad.matmul(c, self.P)
        if self.sigmoid_weighting:
            gate = ad.sigmoid(gate)
        weighted = ad.mul(gate, w2v_t)
        return ad.concat([weighted, lld_t, mfcc_t], axis=1)


class TransformerLayer(Module):
    """Pre-norm encoder layer: x + MHSA(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, d_model: int, n_heads: int, d_ffn: int, dropout: float,
                 rng: np.random.Generator):
        if d_model % n_heads:
            raise ValidationError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
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

    def _attend(self, x: Tensor, trace) -> Tensor:
        q, k, v = self.q.forward(x), self.k.forward(x), self.v.forward(x)
        heads = []
        for h in range(self.n_heads):
            sl = lambda t: ad.narrow(t, 1, h * self.d_head, self.d_head)
            scores = ad.scale(ad.matmul(sl(q), ad.transpose(sl(k))), 1.0 / np.sqrt(self.d_head))
            attn = ad.softmax(scores, axis=-1)
            if trace is not None:
                trace.attention_rows.append(attn.data.copy())
            heads.append(ad.matmul(attn, sl(v)))
        return self.o.forward(ad.concat(heads, axis=1))

    def forward(self, x: Tensor, training: bool, rng, trace=None) -> Tensor:
        attn = self._attend(ad.layer_norm(x, self.ln1_gain, self.ln1_bias), trace)
        x = ad.add(x, ad.dropout(attn, self.dropout, training, rng))
        ffn = self.ffn2.forward(ad.relu(self.ffn1.forward(
            ad.layer_norm(x, self.ln2_gain, self.ln2_bias))))
        return ad.add(x, ad.dropout(ffn, self.dropout, training, rng))


@dataclass
class FusedRepresentation:
    f_star: Tensor       # (1, 2*d_model)
    audio_token: Tensor  # (1, d_model)
    visual_token: Tensor


class TransformerFusion(Module):
    """Projects the two utterance vectors to d_model, tags them with
    modality embeddings, and runs a 2-token pre-norm encoder stack."""

    def __init__(self, d_audio: int, d_visual: int, d_model: int, n_layers: int,
                 n_heads: int, d_ffn: int, dropout: float, rng: np.random.Generator):
        self.proj_a = Linear(d_audio, d_model, rng)
        self.proj_v = Linear(d_visual, d_model, rng)
        bound = 1.0 / np.sqrt(d_model)
        self.m_a = ad.uniform_init(rng, (d_model,), bound)
        self.m_v = ad.uniform_init(rng, (d_model,), bound)
        self.layers = [TransformerLayer(d_model, n_heads, d_ffn, dropout, rng)
                       for _ in range(n_layers)]
        self.d_model = d_model

    def forward(self, u_a: Tensor, u_v: Tensor, training: bool = False,
                rng: np.random.Generator | None = None, trace=None) -> FusedRepresentation:
        tok_a = ad.add(self.proj_a.forward(u_a), ad.reshape(self.m_a, (1, self.d_model)))
        tok_v = ad.add(self.proj_v.forward(u_v), ad.reshape(self.m_v, (1, self.d_model)))
        x = ad.concat([tok_a, tok_v], axis=0)
        for layer in self.layers:
            x = layer.forward(x, training, rng, trace)
        audio_token = ad.narrow(x, 0, 0, 1)
        visual_token = ad.narrow(x, 0, 1, 1)
        return FusedRepresentation(
            f_star=ad.concat([audio_token, visual_token], axis=1),
            audio_token=audio_token,
            visual_token=visual_token,
        )
