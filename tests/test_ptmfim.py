import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Tensor, collect_parameters
from ptmfnet.errors import ValidationError
from ptmfnet.gradcheck import grad_check, worst
from ptmfnet.layers import ForwardTrace
from ptmfnet.ptmfim import Ptmfim


def _tokens(tok_a, tok_v):
    """(2, d) token matrix as the transformer fusion emits it: audio row, visual row."""
    return Tensor(np.stack([np.asarray(tok_a, dtype=float), np.asarray(tok_v, dtype=float)]))


def _module(d_p=5, d_m=6, d_h=4, n_p=3, seed=0):
    return Ptmfim(d_p, d_m, d_h, n_p, np.random.default_rng(seed))


def _stages(mod, emb, tokens):
    """Binary correlation and triple interaction outputs, each stage called on
    its own as `forward` calls it."""
    p_tok = mod.personality_tokens(emb)
    bca = mod.binary_correlation(p_tok, mod.mm_proj.forward(tokens))
    return bca, mod.triple_interaction(p_tok, bca)


def _ref_forward(mod, emb, tok_a, tok_v):
    """Loop oracle over the whole module."""

    def lin(x, layer):
        return x @ layer.weight.data + layer.bias.data

    p_tok = lin(emb[None, :], mod.pers_proj).reshape(mod.n_p, mod.d_h)
    m_tok = lin(np.stack([tok_a, tok_v]), mod.mm_proj)

    def attend(q_src, kv_src, q_w, k_w, v_w):
        q, k, v = q_src @ q_w.data, kv_src @ k_w.data, kv_src @ v_w.data
        out = np.zeros((q.shape[0], v.shape[1]))
        for i in range(q.shape[0]):
            scores = np.array([q[i] @ k[j] for j in range(k.shape[0])]) / np.sqrt(mod.d_h)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            out[i] = sum(alpha[j] * v[j] for j in range(v.shape[0]))
        return out

    bca = attend(p_tok, m_tok, mod.Q_b, mod.K_b, mod.V_b)
    tia = attend(p_tok, bca, mod.Q_t, mod.K_t, mod.V_t)
    b_bar, t_bar = bca.mean(axis=0), tia.mean(axis=0)
    g = 1.0 / (1.0 + np.exp(-(np.concatenate([b_bar, t_bar]) @ mod.W_g.data + mod.b_g.data[0])))
    return g * t_bar + p_tok.mean(axis=0), g, bca, tia


# ---------------------------------------------------------------------------
# binary correlation attention


def test_equal_multimodal_tokens_collapse_bca():
    mod = _module()
    rng = np.random.default_rng(1)
    tok = rng.normal(size=6)
    emb = Tensor(rng.normal(size=(1, 5)))
    p_tok = mod.personality_tokens(emb)
    m_tok = mod.mm_proj.forward(Tensor(np.stack([tok, tok])))
    bca = mod.binary_correlation(p_tok, m_tok)
    # convex combination of two identical values is that value
    expected = m_tok.data[0] @ mod.V_b.data
    for row in bca.data:
        np.testing.assert_allclose(row, expected, atol=1e-12)


def test_bca_single_token_hand_case():
    mod = _module(d_h=2, n_p=1, seed=2)
    rng = np.random.default_rng(3)
    p_tok = Tensor(rng.normal(size=(1, 2)))
    m_tok = Tensor(rng.normal(size=(2, 2)))
    got = mod.binary_correlation(p_tok, m_tok).data

    q = p_tok.data @ mod.Q_b.data
    k = m_tok.data @ mod.K_b.data
    v = m_tok.data @ mod.V_b.data
    s = (q @ k.T)[0] / np.sqrt(2.0)
    e = np.exp(s - s.max())
    alpha = e / e.sum()
    np.testing.assert_allclose(got[0], alpha[0] * v[0] + alpha[1] * v[1], atol=1e-12)


def test_attention_rows_stochastic():
    mod = _module()
    rng = np.random.default_rng(4)
    trace = ForwardTrace()
    mod.forward(Tensor(rng.normal(size=(1, 5))), _tokens(rng.normal(size=6), rng.normal(size=6)),
                trace=trace)
    assert len(trace.attention_rows) == 2  # one BCA, one TIA
    assert trace.attention_rows[0].shape == (3, 2)
    assert trace.attention_rows[1].shape == (3, 3)
    for attn in trace.attention_rows:
        assert np.all(attn > 0)
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(attn.shape[0]), atol=1e-9)


def test_bca_rows_on_value_segment():
    mod = _module(seed=5)
    rng = np.random.default_rng(6)
    emb = Tensor(rng.normal(size=(1, 5)))
    m_tok = mod.mm_proj.forward(Tensor(rng.normal(size=(2, 6))))
    bca = mod.binary_correlation(mod.personality_tokens(emb), m_tok).data
    v0, v1 = m_tok.data @ mod.V_b.data
    span = v0 - v1
    for row in bca:
        lam = float((row - v1) @ span / (span @ span))
        assert -1e-9 <= lam <= 1.0 + 1e-9
        np.testing.assert_allclose(row, lam * v0 + (1.0 - lam) * v1, atol=1e-9)


# ---------------------------------------------------------------------------
# triple interaction attention


def test_tia_single_personality_token_degenerates():
    mod = _module(n_p=1, seed=7)
    rng = np.random.default_rng(8)
    p_tok = Tensor(rng.normal(size=(1, 4)))
    bca = Tensor(rng.normal(size=(1, 4)))
    got = mod.triple_interaction(p_tok, bca).data
    np.testing.assert_allclose(got, bca.data @ mod.V_t.data, atol=1e-12)


def test_tia_equal_bca_rows_collapse():
    mod = _module(seed=9)
    rng = np.random.default_rng(10)
    p_tok = Tensor(rng.normal(size=(3, 4)))
    row = rng.normal(size=4)
    bca = Tensor(np.tile(row, (3, 1)))
    got = mod.triple_interaction(p_tok, bca).data
    expected = row @ mod.V_t.data
    for r in got:
        np.testing.assert_allclose(r, expected, atol=1e-12)


def test_tia_matches_loop_oracle():
    mod = _module(seed=11)
    rng = np.random.default_rng(12)
    p_tok = rng.normal(size=(3, 4))
    bca = rng.normal(size=(3, 4))
    got = mod.triple_interaction(Tensor(p_tok), Tensor(bca)).data

    q, k, v = p_tok @ mod.Q_t.data, bca @ mod.K_t.data, bca @ mod.V_t.data
    for i in range(3):
        s = np.array([q[i] @ k[j] for j in range(3)]) / 2.0
        e = np.exp(s - s.max())
        alpha = e / e.sum()
        np.testing.assert_allclose(got[i], sum(alpha[j] * v[j] for j in range(3)), atol=1e-12)


# ---------------------------------------------------------------------------
# gate regulator


def test_gate_zero_weights_is_half():
    mod = _module(seed=13)
    mod.W_g.data[...] = 0.0
    mod.b_g.data[...] = 0.0
    rng = np.random.default_rng(14)
    bca = Tensor(rng.normal(size=(3, 4)))
    tia = Tensor(rng.normal(size=(3, 4)))
    p_pooled = Tensor(rng.normal(size=(1, 4)))
    trace = ForwardTrace()
    out = mod.gate(bca, tia, p_pooled, trace)
    np.testing.assert_array_equal(trace.gates, [np.full(4, 0.5)])
    np.testing.assert_allclose(
        out.data, 0.5 * tia.data.mean(axis=0, keepdims=True) + p_pooled.data, atol=1e-12)


def test_gate_closes_at_large_negative_bias():
    mod = _module(seed=15)
    mod.b_g.data[...] = -30.0
    rng = np.random.default_rng(16)
    bca = Tensor(rng.normal(size=(3, 4)))
    tia = Tensor(rng.normal(size=(3, 4)))
    p_pooled = Tensor(rng.normal(size=(1, 4)))
    trace = ForwardTrace()
    out = mod.gate(bca, tia, p_pooled, trace)
    np.testing.assert_allclose(out.data, p_pooled.data, atol=1e-9)
    assert np.all(trace.gates[0] > 0.0)


def test_gate_strictly_open_interval():
    rng = np.random.default_rng(17)
    for seed in range(20):
        mod = _module(seed=seed)
        trace = ForwardTrace()
        mod.forward(Tensor(rng.normal(size=(1, 5)) * 10),
                    _tokens(rng.normal(size=6) * 10, rng.normal(size=6) * 10), trace)
        (g,) = trace.gates
        assert np.all(g > 0.0) and np.all(g < 1.0)


# ---------------------------------------------------------------------------
# full module


def test_forward_matches_loop_oracle():
    mod = _module(d_p=5, d_m=6, d_h=4, n_p=3, seed=18)
    rng = np.random.default_rng(19)
    emb = rng.normal(size=5)
    tok_a, tok_v = rng.normal(size=6), rng.normal(size=6)
    trace = ForwardTrace()
    out = mod.forward(Tensor(emb[None, :]), _tokens(tok_a, tok_v), trace)
    bca, tia = _stages(mod, Tensor(emb[None, :]), _tokens(tok_a, tok_v))
    ref_out, ref_g, ref_bca, ref_tia = _ref_forward(mod, emb, tok_a, tok_v)
    assert out.shape == (1, 4)
    np.testing.assert_allclose(out.data[0], ref_out, atol=1e-12)
    np.testing.assert_allclose(trace.gates[0], ref_g, atol=1e-12)
    np.testing.assert_allclose(bca.data, ref_bca, atol=1e-12)
    np.testing.assert_allclose(tia.data, ref_tia, atol=1e-12)


def test_batched_forward_matches_each_sample_alone():
    mod = _module(d_p=5, d_m=6, d_h=4, n_p=3, seed=25)
    rng = np.random.default_rng(26)
    emb = rng.normal(size=(3, 5))
    tok = rng.normal(size=(3, 2, 6))  # audio, visual token per sample
    trace = ForwardTrace()
    out = mod.forward(Tensor(emb), Tensor(tok.reshape(6, 6)), trace).data
    assert out.shape == (3, 4) and len(trace.gates) == 3
    assert len(trace.attention_rows) == 6  # BCA then TIA, one per sample each
    for b in range(3):
        ref_out, ref_g, _, _ = _ref_forward(mod, emb[b], tok[b, 0], tok[b, 1])
        np.testing.assert_allclose(out[b], ref_out, atol=1e-12)
        np.testing.assert_allclose(trace.gates[b], ref_g, atol=1e-12)


def test_zero_embedding_zero_bias_uniform_attention():
    mod = _module(seed=20)
    mod.pers_proj.bias.data[...] = 0.0
    rng = np.random.default_rng(21)
    trace = ForwardTrace()
    emb, tokens = Tensor(np.zeros((1, 5))), _tokens(rng.normal(size=6), rng.normal(size=6))
    out = mod.forward(emb, tokens, trace=trace)
    np.testing.assert_allclose(trace.attention_rows[0], np.full((3, 2), 0.5), atol=1e-12)
    # p_pooled vanishes, so the output is exactly the gated tia mean
    t_bar = _stages(mod, emb, tokens)[1].data.mean(axis=0)
    np.testing.assert_allclose(out.data[0], trace.gates[0] * t_bar, atol=1e-12)


def test_zero_multimodal_keeps_personality_residual():
    mod = _module(seed=22)
    mod.mm_proj.bias.data[...] = 0.0
    rng = np.random.default_rng(23)
    emb = rng.normal(size=(1, 5))
    out = mod.forward(Tensor(emb), _tokens(np.zeros(6), np.zeros(6)))
    p_pooled = mod.personality_tokens(Tensor(emb)).data.mean(axis=0)
    # bca and tia collapse to zero, so only the residual path remains
    np.testing.assert_allclose(out.data[0], p_pooled, atol=1e-12)
    assert np.any(out.data != 0.0)


def test_output_dims_across_configs():
    rng = np.random.default_rng(24)
    for d_h, n_p in ((2, 1), (4, 3), (8, 4)):
        mod = _module(d_p=5, d_m=6, d_h=d_h, n_p=n_p, seed=d_h + n_p)
        trace = ForwardTrace()
        out = mod.forward(Tensor(rng.normal(size=(1, 5))),
                          _tokens(rng.normal(size=6), rng.normal(size=6)), trace)
        assert out.shape == (1, d_h)
        assert trace.gates[0].shape == (d_h,)


def test_ptmfim_gradcheck():
    mod = _module(d_p=4, d_m=5, d_h=3, n_p=2, seed=27)
    rng = np.random.default_rng(28)
    emb = Tensor(rng.normal(size=(1, 4)))
    tokens = _tokens(rng.normal(size=5), rng.normal(size=5))
    probe = Tensor(rng.normal(size=(1, 3)))

    def f():
        return ad.tsum(ad.mul(mod.forward(emb, tokens), probe))

    report = grad_check(f, collect_parameters(mod), eps=1e-5)
    assert worst(report) <= 1e-4, report


def test_rejects_bad_dims():
    with pytest.raises(ValidationError):
        _module(n_p=0)
