import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet import fusion
from ptmfnet.autodiff import Tensor, collect_parameters
from ptmfnet.errors import ValidationError
from ptmfnet.gradcheck import grad_check, worst
from ptmfnet.layers import ForwardTrace, Linear
from ptmfnet.fusion import CoAttentionFusion, TransformerFusion


# ---------------------------------------------------------------------------
# alignment


def test_align_identity_when_equal():
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(5, 3)), rng.normal(size=(5, 2))]
    out = fusion.align_streams(arrays)
    assert out[0] is arrays[0] and out[1] is arrays[1]


def test_align_nearest_frame():
    a = np.arange(10)[:, None].astype(float)
    short = np.zeros((4, 1))
    out = fusion.align_streams([a, short])
    # rounded linspace over 0..9 at 4 points: 0, 3, 6, 9
    np.testing.assert_array_equal(out[0][:, 0], [0, 3, 6, 9])
    assert out[1].shape == (4, 1)


def test_align_to_single_frame():
    a = np.arange(6)[:, None].astype(float)
    out = fusion.align_streams([a, np.zeros((1, 1))])
    np.testing.assert_array_equal(out[0], [[0.0]])


def test_align_index_is_rounded_linspace():
    # every pair up to 300 frames, then seeded pairs up to 200 000
    frames = np.arange(200_000)[:, None]
    rng = np.random.default_rng(84)
    long_t = rng.integers(2, 200_001, 2000)
    pairs = [(t, t_min) for t in range(2, 301) for t_min in range(1, t)]
    pairs += [(int(t), int(rng.integers(1, t))) for t in long_t]
    for t, t_min in pairs:
        idx = fusion.align_streams([frames[:t], frames[:t_min]])[0][:, 0]
        assert np.array_equal(idx, np.round(np.linspace(0.0, t - 1, t_min)).astype(int)), (t, t_min)


# ---------------------------------------------------------------------------
# co-attention


def _coatt(rng=None, **kw):
    rng = rng or np.random.default_rng(2)
    args = dict(d_lld=3, d_mfcc=3, d_w2v=4, d_lld_out=3, d_mfcc_out=3, d_w2v_out=4,
                dropout=0.0, rng=rng)
    args.update(kw)
    return CoAttentionFusion(**args)


def _ref_coatt(mod, lld, mfcc, w2v):
    def transform(x, lin):
        return np.maximum(x @ lin.weight.data + lin.bias.data, 0.0)

    l_t, m_t, w_t = transform(lld, mod.lld), transform(mfcc, mod.mfcc), transform(w2v, mod.w2v)
    rows = []
    for t in range(l_t.shape[0]):
        c = np.concatenate([l_t[t], m_t[t]])
        g = c @ mod.P.data
        rows.append(np.concatenate([g * w_t[t], l_t[t], m_t[t]]))
    return np.stack(rows)


def test_coatt_zero_w2v_annihilates_weighted_block():
    mod = _coatt()
    mod.w2v.weight.data[...] = 0.0
    mod.w2v.bias.data[...] = 0.0
    rng = np.random.default_rng(3)
    out = mod.forward(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3))),
                      Tensor(rng.normal(size=(4, 4)))).data
    np.testing.assert_array_equal(out[:, :4], np.zeros((4, 4)))
    assert np.any(out[:, 4:] != 0.0)


def test_coatt_zero_projection_zeroes_weighted_block():
    mod = _coatt()
    mod.P.data[...] = 0.0
    rng = np.random.default_rng(4)
    out = mod.forward(Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3))),
                      Tensor(rng.normal(size=(4, 4)))).data
    np.testing.assert_array_equal(out[:, :4], np.zeros((4, 4)))


def test_coatt_matches_loop_oracle_identity_padding():
    mod = _coatt()
    # identity-like projection: first 4 rows of I, zero padding below
    mod.P.data[...] = np.vstack([np.eye(4), np.zeros((2, 4))])
    rng = np.random.default_rng(5)
    lld, mfcc, w2v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))
    got = mod.forward(Tensor(lld), Tensor(mfcc), Tensor(w2v)).data
    np.testing.assert_allclose(got, _ref_coatt(mod, lld, mfcc, w2v), atol=1e-12)


def test_coatt_matches_loop_oracle_random_p():
    mod = _coatt(rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    lld, mfcc, w2v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    got = mod.forward(Tensor(lld), Tensor(mfcc), Tensor(w2v)).data
    np.testing.assert_allclose(got, _ref_coatt(mod, lld, mfcc, w2v), atol=1e-12)


def test_coatt_output_dim_and_plain_concat():
    mod = _coatt()
    rng = np.random.default_rng(10)
    lld, mfcc, w2v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(4, 4))
    full = mod.forward(Tensor(lld), Tensor(mfcc), Tensor(w2v))
    assert full.shape == (4, mod.out_dim) == (4, 10)
    plain = mod.forward(Tensor(lld), Tensor(mfcc), Tensor(w2v), weighting=False)
    assert plain.shape == (4, 10)
    # without weighting the w2v block is the bare transform
    ref = np.maximum(w2v @ mod.w2v.weight.data + mod.w2v.bias.data, 0.0)
    np.testing.assert_allclose(plain.data[:, :4], ref, atol=1e-12)


def test_coatt_frame_mismatch():
    mod = _coatt()
    with pytest.raises(ValidationError, match="frame-count mismatch"):
        mod.forward(Tensor(np.zeros((4, 3))), Tensor(np.zeros((3, 3))), Tensor(np.zeros((4, 4))))


def test_coatt_dropout_scales_in_training():
    mod = _coatt(dropout=0.5)
    x = [Tensor(np.ones((30, 3))), Tensor(np.ones((30, 3))), Tensor(np.ones((30, 4)))]
    out_eval = mod.forward(*x).data
    out_train = mod.forward(*x, rng=np.random.default_rng(11)).data
    assert np.any(out_train != out_eval)


def test_coatt_gradcheck():
    mod = _coatt(rng=np.random.default_rng(12))
    rng = np.random.default_rng(13)
    lld = Tensor(rng.normal(size=(3, 3)))
    mfcc = Tensor(rng.normal(size=(3, 3)))
    w2v = Tensor(rng.normal(size=(3, 4)))
    probe = Tensor(rng.normal(size=(3, 10)))

    def f():
        return ad.tsum(ad.mul(mod.forward(lld, mfcc, w2v), probe))

    report = grad_check(f, collect_parameters(mod), eps=1e-5)
    assert worst(report) <= 1e-4, report


# ---------------------------------------------------------------------------
# transformer fusion


def _tx(n_layers=2, d_model=8, seed=20, **kw):
    args = dict(d_audio=5, d_visual=5, d_model=d_model, n_layers=n_layers, n_heads=2,
                d_ffn=2 * d_model, dropout=0.0, rng=np.random.default_rng(seed))
    args.update(kw)
    return TransformerFusion(**args)


def test_tx_empty_stack_is_projection_plus_embedding():
    mod = _tx(n_layers=0)
    rng = np.random.default_rng(21)
    u_a, u_v = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
    out = mod.forward(Tensor(u_a), Tensor(u_v))
    ref_a = u_a @ mod.proj_a.weight.data + mod.proj_a.bias.data + mod.m_a.data
    ref_v = u_v @ mod.proj_v.weight.data + mod.proj_v.bias.data + mod.m_v.data
    assert out.shape == (2, 8)
    np.testing.assert_allclose(out.data[0], ref_a[0], atol=1e-12)
    np.testing.assert_allclose(out.data[1], ref_v[0], atol=1e-12)


def test_tx_swap_equivariance_without_modality_embeddings():
    mod = _tx(n_layers=2)
    # tie the input projections and silence the modality tags
    mod.proj_v.weight.data[...] = mod.proj_a.weight.data
    mod.proj_v.bias.data[...] = mod.proj_a.bias.data
    mod.m_a.data[...] = 0.0
    mod.m_v.data[...] = 0.0
    rng = np.random.default_rng(23)
    u_a, u_v = Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=(1, 5)))
    fwd = mod.forward(u_a, u_v)
    swapped = mod.forward(u_v, u_a)
    # equality holds to the ULP: attn @ v uses FMA, and the token swap flips
    # which product lands in the fused (unrounded) operand slot
    np.testing.assert_allclose(fwd.data[0], swapped.data[1], rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(fwd.data[1], swapped.data[0], rtol=1e-14, atol=1e-15)


def test_tx_modality_embeddings_break_symmetry():
    mod = _tx(n_layers=1)
    mod.proj_v.weight.data[...] = mod.proj_a.weight.data
    mod.proj_v.bias.data[...] = mod.proj_a.bias.data
    rng = np.random.default_rng(24)
    u = Tensor(rng.normal(size=(1, 5)))
    out = mod.forward(u, u)
    assert np.any(out.data[0] != out.data[1])


def test_tx_attention_rows_stochastic():
    mod = _tx(n_layers=2)
    rng = np.random.default_rng(25)
    trace = ForwardTrace()
    mod.forward(Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=(1, 5))), trace=trace)
    # 2 layers x 2 heads
    assert len(trace.attention_rows) == 4
    for attn in trace.attention_rows:
        assert attn.shape == (2, 2)
        assert np.all(attn > 0)
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(2), atol=1e-9)


def test_tx_deterministic_without_dropout():
    mod = _tx(dropout=0.3)
    rng = np.random.default_rng(26)
    u_a, u_v = Tensor(rng.normal(size=(1, 5))), Tensor(rng.normal(size=(1, 5)))
    a = mod.forward(u_a, u_v).data
    b = mod.forward(u_a, u_v).data
    np.testing.assert_array_equal(a, b)


def test_tx_batched_rows_match_each_sample_alone():
    # rows come out audio, visual per sample in turn, and no token attends
    # to another sample's tokens
    mod = _tx(n_layers=2)
    rng = np.random.default_rng(29)
    u_a, u_v = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    trace = ForwardTrace()
    out = mod.forward(Tensor(u_a), Tensor(u_v), trace=trace).data
    assert out.shape == (6, 8)
    assert len(trace.attention_rows) == 2 * 3 * 2  # layers x samples x heads
    for b in range(3):
        alone = mod.forward(Tensor(u_a[b:b + 1]), Tensor(u_v[b:b + 1])).data
        np.testing.assert_allclose(out[2 * b:2 * b + 2], alone, rtol=1e-12, atol=1e-15)


def test_tx_rejects_indivisible_heads():
    with pytest.raises(ValidationError):
        _tx(d_model=9)


def test_tx_gradcheck_two_layers():
    mod = _tx(n_layers=2, d_model=6, d_ffn=12, seed=27)
    rng = np.random.default_rng(28)
    u_a = Tensor(rng.normal(size=(1, 5)))
    u_v = Tensor(rng.normal(size=(1, 5)))
    probe = Tensor(rng.normal(size=(2, 6)))

    def f():
        return ad.tsum(ad.mul(mod.forward(u_a, u_v), probe))

    report = grad_check(f, collect_parameters(mod), eps=1e-5)
    assert worst(report) <= 1e-4, report


def test_tx_parameter_names_cover_layers():
    mod = _tx(n_layers=2)
    names = {p.name for p in collect_parameters(mod)}
    assert "proj_a.weight" in names
    assert "m_a" in names and "m_v" in names
    assert "layers.0.q.weight" in names
    assert "layers.1.ffn2.bias" in names
