"""Shared building blocks: scaled dot-product attention against a plain-loop
oracle, at the two score shapes the model uses."""

import math

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Parameter, Tensor
from ptmfnet.gradcheck import grad_check
from ptmfnet.layers import ForwardTrace, attention


def _ref_attention(q, k, v):
    """Row-by-row loop: weights exp(s_ij) / sum_j exp(s_ij), s_ij = q_i . k_j / sqrt(d)."""
    d = q.shape[1]
    weights = np.zeros((q.shape[0], k.shape[0]))
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = [sum(q[i, c] * k[j, c] for c in range(d)) / math.sqrt(d) for j in range(k.shape[0])]
        top = max(scores)
        exps = [math.exp(s - top) for s in scores]
        for j in range(k.shape[0]):
            weights[i, j] = exps[j] / sum(exps)
            out[i] += weights[i, j] * v[j]
    return out, weights


# (2, 2): the transformer's two tokens attending to each other (one head);
# (n_p, 2): personality queries attending over the two multimodal tokens
@pytest.mark.parametrize("n_q,d,d_v", [(2, 4, 4), (3, 5, 5), (4, 2, 6)])
def test_attention_matches_loop_oracle(n_q, d, d_v):
    rng = np.random.default_rng(n_q * 10 + d)
    q, k, v = rng.normal(size=(n_q, d)), rng.normal(size=(2, d)), rng.normal(size=(2, d_v))
    trace = ForwardTrace()
    out = attention(Tensor(q), Tensor(k), Tensor(v), trace)
    ref_out, ref_weights = _ref_attention(q, k, v)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12)
    assert len(trace.attention_rows) == 1
    np.testing.assert_allclose(trace.attention_rows[0], ref_weights, atol=1e-12)


def test_attention_output_independent_of_trace():
    rng = np.random.default_rng(5)
    q, k, v = (Tensor(rng.normal(size=(2, 3))) for _ in range(3))
    np.testing.assert_array_equal(attention(q, k, v).data, attention(q, k, v, ForwardTrace()).data)


def test_attention_gradcheck():
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((3, 4), (2, 4), (2, 5)))
    probe = Tensor(rng.normal(size=(3, 5)))

    def f():
        return ad.tsum(ad.mul(attention(q, k, v), probe))

    report = grad_check(f, [Parameter("q", q), Parameter("k", k), Parameter("v", v)], eps=1e-5)
    assert max(report.values()) <= 1e-4, report


@pytest.mark.parametrize("n_heads", [2, 4])
def test_multi_head_attention_is_per_head_oracle_side_by_side(n_heads):
    # head j attends with column block j of q, k and v, scaled by its own width;
    # the outputs sit side by side and the trace holds one matrix per head, in order
    rng = np.random.default_rng(7 + n_heads)
    q, k, v = rng.normal(size=(3, 8)), rng.normal(size=(2, 8)), rng.normal(size=(2, 4 * n_heads))
    trace = ForwardTrace()
    out = attention(Tensor(q), Tensor(k), Tensor(v), trace, n_heads=n_heads)
    assert out.shape == (3, 4 * n_heads)
    assert len(trace.attention_rows) == n_heads
    d, d_v = 8 // n_heads, 4
    for j in range(n_heads):
        ref_out, ref_weights = _ref_attention(q[:, j * d:(j + 1) * d], k[:, j * d:(j + 1) * d],
                                              v[:, j * d_v:(j + 1) * d_v])
        np.testing.assert_allclose(out.data[:, j * d_v:(j + 1) * d_v], ref_out, atol=1e-12)
        np.testing.assert_allclose(trace.attention_rows[j], ref_weights, atol=1e-12)


def test_batched_attention_is_per_sample_oracle():
    # a sample's queries attend only to its own keys; the trace holds one
    # matrix per sample and head, sample by sample
    rng = np.random.default_rng(12)
    q, k, v = rng.normal(size=(3 * 4, 6)), rng.normal(size=(3 * 2, 6)), rng.normal(size=(3 * 2, 4))
    trace = ForwardTrace()
    out = attention(Tensor(q), Tensor(k), Tensor(v), trace, n_heads=2, batch=3)
    assert out.shape == (12, 4) and len(trace.attention_rows) == 6
    for b in range(3):
        qb, kb, vb = q[4 * b:4 * b + 4], k[2 * b:2 * b + 2], v[2 * b:2 * b + 2]
        for j in range(2):
            ref_out, ref_weights = _ref_attention(qb[:, 3 * j:3 * j + 3], kb[:, 3 * j:3 * j + 3],
                                                  vb[:, 2 * j:2 * j + 2])
            np.testing.assert_allclose(out.data[4 * b:4 * b + 4, 2 * j:2 * j + 2], ref_out, atol=1e-12)
            np.testing.assert_allclose(trace.attention_rows[2 * b + j], ref_weights, atol=1e-12)
