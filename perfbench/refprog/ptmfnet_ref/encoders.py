"""Sequence encoders: LSTM over frame features and attentive statistics
pooling (ASP) from frame level to utterance level.

Everything operates on (T, D) tape tensors and returns row vectors or
sequences; batching is handled one sample at a time by the trainer.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Tensor
from .errors import ValidationError


class LstmEncoder(Module):
    """Single-layer unidirectional LSTM returning every hidden state.

    Gate parameters are stored per gate (W_*: H x D, U_*: H x H, b_*: H)
    and concatenated once per forward pass so each step needs only one
    recurrent matmul. Forget bias starts at 1.0, everything else uniform
    in +/- 1/sqrt(H).
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        if input_dim < 1 or hidden_dim < 1:
            raise ValidationError(f"dims must be positive, got D={input_dim} H={hidden_dim}")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        bound = 1.0 / np.sqrt(hidden_dim)
        for gate in self.GATES:
            setattr(self, f"W_{gate}", ad.uniform_init(rng, (hidden_dim, input_dim), bound))
            setattr(self, f"U_{gate}", ad.uniform_init(rng, (hidden_dim, hidden_dim), bound))
            bias = rng.uniform(-bound, bound, size=hidden_dim)
            if gate == "f":
                bias = np.ones(hidden_dim)
            setattr(self, f"b_{gate}", Tensor(bias, requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        """x: (T, D) -> hidden sequence (T, H)."""
        t_len, d = x.shape
        if d != self.input_dim:
            raise ValidationError(f"input dim {d} does not match encoder dim {self.input_dim}")
        h_dim = self.hidden_dim

        w = ad.concat([getattr(self, f"W_{g}") for g in self.GATES], axis=0)
        u = ad.concat([getattr(self, f"U_{g}") for g in self.GATES], axis=0)
        b = ad.reshape(ad.concat([getattr(self, f"b_{g}") for g in self.GATES], axis=0), (1, 4 * h_dim))

        # input contributions for all steps at once
        xw = ad.add(ad.matmul(x, ad.transpose(w)), b)
        u_t = ad.transpose(u)

        h = ad.constant(np.zeros((1, h_dim)))
        c = ad.constant(np.zeros((1, h_dim)))
        outputs = []
        for t in range(t_len):
            pre = ad.add(ad.narrow(xw, 0, t, 1), ad.matmul(h, u_t))
            # i|f|o share the sigmoid, g is the tanh candidate
            gates = ad.sigmoid(ad.narrow(pre, 1, 0, 3 * h_dim))
            i = ad.narrow(gates, 1, 0, h_dim)
            f = ad.narrow(gates, 1, h_dim, h_dim)
            o = ad.narrow(gates, 1, 2 * h_dim, h_dim)
            g = ad.tanh(ad.narrow(pre, 1, 3 * h_dim, h_dim))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
            outputs.append(h)
        return ad.concat(outputs, axis=0)


class AspPooling(Module):
    """Attentive statistics pooling: weighted mean and weighted std.

    Scores e_t = v . tanh(W h_t + b) feed a softmax over time; the output
    row is concat(mu, s) with s = sqrt(relu(E[h^2] - mu^2) + eps), so the
    std half is never below sqrt(eps).
    """

    def __init__(self, hidden_dim: int, attn_dim: int, rng: np.random.Generator, eps: float = 1e-6):
        if eps <= 0:
            raise ValidationError("eps must be positive")
        self.hidden_dim = hidden_dim
        self.eps = eps
        bound = 1.0 / np.sqrt(hidden_dim)
        self.W = ad.uniform_init(rng, (attn_dim, hidden_dim), bound)
        self.b = ad.uniform_init(rng, (attn_dim,), bound)
        self.v = ad.uniform_init(rng, (attn_dim,), bound)

    def attention(self, h: Tensor) -> Tensor:
        """Frame weights (T, 1); positive, summing to 1."""
        proj = ad.tanh(ad.add(ad.matmul(h, ad.transpose(self.W)),
                              ad.reshape(self.b, (1, self.b.shape[0]))))
        scores = ad.matmul(proj, ad.reshape(self.v, (self.v.shape[0], 1)))
        return ad.softmax(scores, axis=0)

    def forward(self, h: Tensor, trace=None) -> Tensor:
        """h: (T, H) -> (1, 2H) row of weighted mean then weighted std."""
        if h.shape[1] != self.hidden_dim:
            raise ValidationError(f"hidden dim {h.shape[1]} does not match pooling dim {self.hidden_dim}")
        alpha = self.attention(h)
        mu = ad.tsum(ad.mul(alpha, h), axis=0, keepdims=True)
        second = ad.tsum(ad.mul(alpha, ad.square(h)), axis=0, keepdims=True)
        var = ad.relu(ad.sub(second, ad.square(mu)))
        s = ad.sqrt(ad.add(var, ad.constant(np.full((1, self.hidden_dim), self.eps))))
        if trace is not None:
            trace.attention_rows.append(alpha.data.T.copy())
            trace.asp_std.append(s.data[0].copy())
        return ad.concat([mu, s], axis=1)
