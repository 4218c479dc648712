import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Tensor, collect_parameters
from ptmfnet.encoders import AspPooling, LstmEncoder, run_lstms
from ptmfnet.errors import ValidationError
from ptmfnet.gradcheck import grad_check
from ptmfnet.layers import ForwardTrace


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _zero_params(module):
    for p in module.named_parameters():
        p.tensor.data[...] = 0.0


def _gate_arrays(enc):
    """Per-gate (H x D, H x H, H) arrays sliced out of the fused i|f|o|g columns."""
    h = enc.hidden_dim
    cols = {g: slice(k * h, (k + 1) * h) for k, g in enumerate(LstmEncoder.GATES)}
    return {g: (enc.W.data[:, c].T, enc.U.data[:, c].T, enc.b.data[0, c]) for g, c in cols.items()}


def _ref_lstm(enc, x, out_gates=None):
    """Plain-numpy recurrence for comparison; appends each step's output
    gate to `out_gates` when a list is given."""
    gates = _gate_arrays(enc)
    h = np.zeros(enc.hidden_dim)
    c = np.zeros(enc.hidden_dim)
    out = []
    for x_t in x:
        i = _sigmoid(gates["i"][0] @ x_t + gates["i"][1] @ h + gates["i"][2])
        f = _sigmoid(gates["f"][0] @ x_t + gates["f"][1] @ h + gates["f"][2])
        o = _sigmoid(gates["o"][0] @ x_t + gates["o"][1] @ h + gates["o"][2])
        g = np.tanh(gates["g"][0] @ x_t + gates["g"][1] @ h + gates["g"][2])
        c = f * c + i * g
        h = o * np.tanh(c)
        out.append(h.copy())
        if out_gates is not None:
            out_gates.append(o)
    return np.stack(out)


def _tanh(x):
    """Taped elementwise tanh; only the oracle below needs it."""
    out = ad._result(np.tanh(x.data), x.requires_grad)
    t = out.data
    return ad._record(out, (x,), lambda g: (g * (1.0 - t * t),))


def _narrow(x, axis, start, length):
    """Taped contiguous slice of `length` extents along one axis of a 2-D tensor."""
    idx = [slice(None), slice(None)]
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = ad._result(x.data[idx].copy(), x.requires_grad)

    def vjp(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return ad._record(out, (x,), vjp)


def _taped_lstm(enc, x):
    """The op-by-op recurrence the fused `ad.lstm` replaced (15 recorded ops a
    frame, plus 3 a call), kept as an oracle in the same expression order."""
    h_dim = enc.hidden_dim
    xw = ad.add(ad.matmul(x, enc.W), enc.b)
    h = Tensor(np.zeros((1, h_dim)))
    c = Tensor(np.zeros((1, h_dim)))
    outputs = []
    for t in range(x.shape[0]):
        pre = ad.add(_narrow(xw, 0, t, 1), ad.matmul(h, enc.U))
        gates = ad.sigmoid(_narrow(pre, 1, 0, 3 * h_dim))
        i = _narrow(gates, 1, 0, h_dim)
        f = _narrow(gates, 1, h_dim, h_dim)
        o = _narrow(gates, 1, 2 * h_dim, h_dim)
        g = _tanh(_narrow(pre, 1, 3 * h_dim, h_dim))
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, _tanh(c))
        outputs.append(h)
    return ad.concat(outputs, axis=0)


def _one(x):
    """Lengths of a single sequence holding every row of x."""
    return [x.shape[0]]


# ---------------------------------------------------------------------------
# LSTM


def test_zero_weights_zero_input_fixed_point():
    enc = LstmEncoder(2, 3, np.random.default_rng(0))
    _zero_params(enc)
    h = enc.forward(Tensor(np.zeros((8, 2))), [4, 1])
    np.testing.assert_array_equal(h.data, np.zeros((8, 3)))


def test_single_step_matches_hand_cell():
    enc = LstmEncoder(2, 2, np.random.default_rng(1))
    x = np.array([[0.3, -0.7]])
    got = enc.forward(Tensor(x), _one(x)).data
    expected = _ref_lstm(enc, x)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sequence_matches_reference_recurrence():
    rng = np.random.default_rng(2)
    enc = LstmEncoder(3, 4, rng)
    x = rng.normal(size=(6, 3))
    np.testing.assert_allclose(enc.forward(Tensor(x), _one(x)).data, _ref_lstm(enc, x), atol=1e-12)


def test_forget_bias_initialized_to_one():
    enc = LstmEncoder(5, 7, np.random.default_rng(3))
    np.testing.assert_array_equal(enc.b.data[0, 7:14], np.ones(7))
    bound = 1.0 / math.sqrt(7)
    for g in ("i", "o", "g"):
        w, u, b = _gate_arrays(enc)[g]
        assert np.all(np.abs(b) <= bound)
        assert np.all(np.abs(w) <= bound)


def test_init_draws_per_gate_in_order():
    # the fused layout holds the same numbers as per-gate draws in i|f|o|g
    # order, so a seed keeps giving the same initial weights
    enc = LstmEncoder(3, 4, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    bound = 1.0 / math.sqrt(4)
    for g in LstmEncoder.GATES:
        w, u, b = _gate_arrays(enc)[g]
        np.testing.assert_array_equal(w, rng.uniform(-bound, bound, size=(4, 3)))
        np.testing.assert_array_equal(u, rng.uniform(-bound, bound, size=(4, 4)))
        drawn = rng.uniform(-bound, bound, size=4)
        np.testing.assert_array_equal(b, np.ones(4) if g == "f" else drawn)


def test_parameter_shapes_and_names():
    enc = LstmEncoder(3, 4, np.random.default_rng(4))
    params = collect_parameters(enc)
    assert [p.name for p in params] == ["W", "U", "b"]
    assert enc.W.shape == (3, 16)
    assert enc.U.shape == (4, 16)
    assert enc.b.shape == (1, 16)


def test_dimension_mismatch_rejected():
    enc = LstmEncoder(3, 4, np.random.default_rng(5))
    with pytest.raises(ValidationError):
        enc.forward(Tensor(np.zeros((5, 2))), [5])


@given(st.integers(0, 2**31))
@example(10780)  # saturates: o and tanh(c) both round to 1.0, so one h is exactly 1.0
@settings(max_examples=10, deadline=None)
def test_hidden_states_strictly_bounded(seed):
    rng = np.random.default_rng(seed)
    enc = LstmEncoder(2, 3, rng)
    # inflate weights to push the recurrence toward saturation
    for p in enc.named_parameters():
        p.tensor.data[...] *= 20.0
    x = rng.normal(size=(50, 2)) * 5.0
    h = np.abs(enc.forward(Tensor(x), _one(x)).data)
    assert np.all(h <= 1.0)
    # float64 keeps |h| < 1 wherever the output gate stays below 1: fl(o * t) <= o < 1
    out_gates = []
    _ref_lstm(enc, x, out_gates)
    unsaturated = np.stack(out_gates) < 1.0
    assert np.all(h[unsaturated] < 1.0)


def test_lstm_gradcheck_five_steps():
    rng = np.random.default_rng(6)
    enc = LstmEncoder(2, 3, rng)
    x = Tensor(rng.normal(size=(5, 2)))
    probe = Tensor(rng.normal(size=(5, 3)))

    def f():
        return ad.tsum(ad.mul(enc.forward(x, [5]), probe))

    report = grad_check(f, collect_parameters(enc), eps=1e-5)
    assert max(report.values()) <= 1e-4, report


def _lstm_out_and_grads(run, enc, x, probe):
    for t in (enc.W, enc.U, enc.b, x):
        t.zero_grad()
    with ad.Tape():
        out = run(x)
        ad.backward(ad.tsum(ad.mul(out, probe)))
    return out.data, {"W": enc.W.grad.copy(), "U": enc.U.grad.copy(),
                      "b": enc.b.grad.copy(), "x": x.grad.copy()}


@pytest.mark.parametrize("t_len", [1, 2, 37])
def test_fused_lstm_matches_taped_recurrence(t_len):
    rng = np.random.default_rng(40 + t_len)
    enc = LstmEncoder(3, 5, rng)
    x = Tensor(rng.normal(size=(t_len, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(t_len, 5)))
    out, grads = _lstm_out_and_grads(lambda v: enc.forward(v, [t_len]), enc, x, probe)
    ref_out, ref = _lstm_out_and_grads(lambda v: _taped_lstm(enc, v), enc, x, probe)
    np.testing.assert_array_equal(out, ref_out)
    for name in ("W", "b", "x"):
        np.testing.assert_array_equal(grads[name], ref[name], err_msg=name)
    # U's per-step terms are summed as one matmul instead of one by one
    assert np.max(np.abs(grads["U"] - ref["U"])) <= 1e-12 * np.max(np.abs(ref["U"]))


@pytest.mark.parametrize("t_len", [1, 50, 2000])
def test_lstm_forward_records_one_tape_node(t_len):
    enc = LstmEncoder(2, 3, np.random.default_rng(13))
    with ad.Tape() as tape:
        enc.forward(Tensor(np.random.default_rng(14).normal(size=(2 * t_len, 2))), [t_len, 1])
    assert len(tape.nodes) == 1


def test_lstm_gradcheck_input():
    rng = np.random.default_rng(15)
    enc = LstmEncoder(2, 3, rng)
    x = ad.Parameter("x", Tensor(rng.normal(size=(6, 2)), requires_grad=True))
    probe = Tensor(rng.normal(size=(6, 3)))

    def f():
        return ad.tsum(ad.mul(enc.forward(x.tensor, [6]), probe))

    report = grad_check(f, [x], eps=1e-5)
    assert max(report.values()) <= 1e-4, report


def test_fused_lstm_rejects_empty_sequence_and_bad_shapes():
    enc = LstmEncoder(2, 3, np.random.default_rng(16))
    wide = LstmEncoder(2, 4, np.random.default_rng(16))
    x = Tensor(np.zeros((4, 2)))
    with pytest.raises(ad.ShapeError):
        ad.lstm([Tensor(np.zeros((0, 2)))], [0], [enc.W], [enc.U], [enc.b])
    with pytest.raises(ad.ShapeError):
        ad.lstm([x], [4], [enc.W], [enc.W], [enc.b])
    with pytest.raises(ad.ShapeError):
        ad.lstm([x], [2, 3], [enc.W], [enc.U], [enc.b])  # a length past T = 2
    with pytest.raises(ad.ShapeError):
        ad.lstm([x], [4.0], [enc.W], [enc.U], [enc.b])  # lengths must be integers
    with pytest.raises(ad.ShapeError):
        ad.lstm([], [4], [], [], [])  # no stream
    with pytest.raises(ad.ShapeError):
        ad.lstm([x, x], [4], [enc.W], [enc.U], [enc.b])  # one weight set for two inputs
    with pytest.raises(ad.ShapeError):
        ad.lstm([x, Tensor(np.zeros((6, 2)))], [4], [enc.W] * 2, [enc.U] * 2, [enc.b] * 2)  # rows differ
    with pytest.raises(ad.ShapeError):
        ad.lstm([x, x], [4], [enc.W, wide.W], [enc.U, wide.U], [enc.b, wide.b])  # H differs
    with pytest.raises(ValidationError, match="input dim"):
        run_lstms([enc, wide], [x, Tensor(np.zeros((4, 3)))], [4])


def _padded(seqs, fill=0.0):
    """Sequences padded to the longest with `fill`, as (B*T, D) rows, and their lengths."""
    t_max = max(len(x) for x in seqs)
    rows = np.concatenate([np.pad(x, ((0, t_max - len(x)), (0, 0)), constant_values=fill) for x in seqs])
    return rows, [len(x) for x in seqs]


def test_batched_lstm_matches_each_sequence_alone():
    rng = np.random.default_rng(17)
    enc = LstmEncoder(3, 4, rng)
    seqs = [rng.normal(size=(t, 3)) for t in (1, 9, 4)]
    rows, lengths = _padded(seqs)
    out = enc.forward(Tensor(rows), lengths).data.reshape(3, 9, 4)
    for b, x in enumerate(seqs):
        alone = enc.forward(Tensor(x), _one(x)).data
        assert np.max(np.abs(out[b, : len(x)] - alone)) <= 1e-12 * np.max(np.abs(alone))
        assert np.all(out[b, len(x):] == 0.0)


def _one_stream_lstm(x, lengths, W, U, b, gy):
    """One stream's LSTM loop, forward and backpropagation through time,
    on plain arrays, in the op's expression order: the oracle for `ad.lstm`
    with any number of streams. Returns the (B*T, H) hidden rows and the
    gradients (dx, dW, dU, db) for the output gradient gy."""
    valid = (np.arange(len(x) // len(lengths)) < np.asarray(lengths)[:, None])[:, :, None]
    (n_seq, t_len, _), h_dim = valid.shape, U.shape[0]
    k = 3 * h_dim
    xw = (x @ W + b).reshape(n_seq, t_len, 4 * h_dim).transpose(1, 0, 2)
    gates = np.empty((t_len, n_seq, 4 * h_dim))
    per_gate = gates.reshape(t_len, n_seq, 4, h_dim).transpose(0, 2, 1, 3)
    c, h = np.zeros((2, t_len + 1, n_seq, h_dim))
    tc = np.empty((t_len, n_seq, h_dim))
    for t in range(t_len):
        pre = xw[t] + h[t] @ U
        gates[t, :, :k] = ad._sigmoid(pre[:, :k])
        np.tanh(pre[:, k:], out=gates[t, :, k:])
        i, f, o, g = per_gate[t]
        c[t + 1] = f * c[t] + i * g
        np.tanh(c[t + 1], out=tc[t])
        np.multiply(o, tc[t], out=h[t + 1])
    out = (h[1:].transpose(1, 0, 2) * valid).reshape(-1, h_dim)
    gy = (gy.reshape(n_seq, t_len, h_dim) * valid).transpose(1, 0, 2)
    d_pre = np.empty_like(gates)
    dh = dc = np.zeros((n_seq, h_dim))
    for t in range(t_len - 1, -1, -1):
        i, f, o, g = per_gate[t]
        dh = gy[t] + dh
        dc = dc + dh * o * (1.0 - tc[t] * tc[t])
        d_ifo = np.concatenate([dc * g, dc * c[t], dh * tc[t]], axis=1)
        d_pre[t, :, :k] = d_ifo * gates[t, :, :k] * (1.0 - gates[t, :, :k])
        d_pre[t, :, k:] = dc * i * (1.0 - g * g)
        dh = d_pre[t] @ U.T
        dc = dc * f
    d_rows = d_pre.transpose(1, 0, 2).reshape(-1, 4 * h_dim)
    h_prev = h[:-1].transpose(1, 0, 2).reshape(-1, h_dim)
    return out, (d_rows @ W.T, x.T @ d_rows, h_prev.T @ d_rows, d_rows.sum(axis=0, keepdims=True))


def _grouped_lstm(streams, lengths, probes):
    """ad.lstm over `streams` [(x, W, U, b)] in one call, with the loss
    sum_s <h_s, probe_s>; returns the outputs and each stream's
    (dx, dW, dU, db)."""
    tensors = [[Tensor(a, requires_grad=True) for a in stream] for stream in streams]
    with ad.Tape():
        xs, ws, us, bs = zip(*tensors)
        outs = ad.lstm(xs, lengths, ws, us, bs)
        loss = ad.tsum(ad.mul(outs[0], Tensor(probes[0])))
        for h, probe in zip(outs[1:], probes[1:]):
            loss = ad.add(loss, ad.tsum(ad.mul(h, Tensor(probe))))
        ad.backward(loss)
    return [h.data for h in outs], [tuple(t.grad for t in stream) for stream in tensors]


@pytest.mark.parametrize("t_len", [1, 200])
@pytest.mark.parametrize("n_seq", [1, 8])
@pytest.mark.parametrize("h_dim", [4, 8])
@pytest.mark.parametrize("widths", [(2,), (2, 13, 7)], ids=["S1", "S3"])
def test_grouped_lstm_matches_one_stream_calls_bitwise(widths, h_dim, n_seq, t_len):
    # B = 8 mixes lengths, one of them a single frame (all of them at T = 1)
    lengths = [t_len] if n_seq == 1 else np.minimum([t_len, 1, 57, 133, 2, t_len, 99, 7], t_len).tolist()
    rng = np.random.default_rng(1000 * len(widths) + 10 * h_dim + n_seq + t_len)
    rows = n_seq * t_len
    streams = [(rng.normal(size=(rows, d)), rng.normal(size=(d, 4 * h_dim)) * 0.5,
                rng.normal(size=(h_dim, 4 * h_dim)) * 0.5, rng.normal(size=(1, 4 * h_dim)))
               for d in widths]
    probes = [rng.normal(size=(rows, h_dim)) for _ in widths]
    outs, grads = _grouped_lstm(streams, lengths, probes)
    for s, (stream, probe) in enumerate(zip(streams, probes)):
        ref_out, ref_grads = _one_stream_lstm(stream[0], lengths, *stream[1:], probe)
        alone_out, (alone_grads,) = _grouped_lstm([stream], lengths, [probe])
        for got, ref in ((outs[s], ref_out), (outs[s], alone_out[0])):
            np.testing.assert_array_equal(got, ref, err_msg=f"stream {s} output")
        for name, got, ref, alone in zip(("dx", "dW", "dU", "db"), grads[s], ref_grads, alone_grads):
            np.testing.assert_array_equal(got, ref, err_msg=f"stream {s} {name} vs the one-stream loop")
            np.testing.assert_array_equal(got, alone, err_msg=f"stream {s} {name} vs a one-stream call")


def test_run_lstms_records_one_node_with_one_output_per_encoder():
    rng = np.random.default_rng(19)
    encoders = [LstmEncoder(d, 3, rng) for d in (2, 5, 4)]
    xs = [Tensor(rng.normal(size=(6, d))) for d in (2, 5, 4)]
    with ad.Tape() as tape:
        outs = run_lstms(encoders, xs, [3, 1])
    (node,) = tape.nodes
    assert node.out == outs and [h.shape for h in outs] == [(6, 3)] * 3
    assert node.vjp.__qualname__.split(".")[0] == "lstm"
    for enc, x, h in zip(encoders, xs, outs):
        np.testing.assert_array_equal(h.data, enc.forward(x, [3, 1]).data)


# ---------------------------------------------------------------------------
# ASP


def test_batched_asp_matches_each_sequence_alone():
    rng = np.random.default_rng(18)
    pool = AspPooling(3, 2, rng)
    seqs = [rng.normal(size=(t, 3)) for t in (6, 1, 3)]
    rows, lengths = _padded(seqs, fill=7.0)  # padded frames must not count, whatever they hold
    trace = ForwardTrace()
    out = pool.forward(Tensor(rows), lengths, trace).data
    (alpha,) = trace.attention_rows
    assert alpha.shape == (3, 6) and len(trace.asp_std) == 3
    for b, h in enumerate(seqs):
        np.testing.assert_allclose(out[b], _ref_asp(pool, h), rtol=1e-12, atol=1e-15)
        assert np.all(alpha[b, len(h):] == 0.0)
        np.testing.assert_array_equal(trace.asp_std[b], out[b, 3:])


def _ref_asp(pool, h):
    """Loop oracle for attentive statistics pooling."""
    w, b, v = pool.W.data, pool.b.data[0], pool.v.data[:, 0]
    scores = np.array([np.tanh(h_t @ w + b) @ v for h_t in h])
    exp = np.exp(scores - scores.max())
    alpha = exp / exp.sum()
    mu = sum(a * h_t for a, h_t in zip(alpha, h))
    second = sum(a * h_t * h_t for a, h_t in zip(alpha, h))
    s = np.sqrt(np.maximum(second - mu * mu, 0.0) + pool.eps)
    return np.concatenate([mu, s])


def test_asp_constant_sequence():
    pool = AspPooling(3, 2, np.random.default_rng(7), eps=1e-6)
    u = np.array([0.4, -1.2, 2.0])
    out = pool.forward(Tensor(np.tile(u, (5, 1))), [5]).data[0]
    np.testing.assert_allclose(out[:3], u, atol=1e-12)
    np.testing.assert_allclose(out[3:], math.sqrt(1e-6) * np.ones(3), atol=1e-12)


def test_asp_single_frame():
    pool = AspPooling(4, 3, np.random.default_rng(8), eps=1e-6)
    h = np.random.default_rng(9).normal(size=(1, 4))
    out = pool.forward(Tensor(h), [1]).data[0]
    np.testing.assert_allclose(out[:4], h[0], atol=1e-12)
    np.testing.assert_allclose(out[4:], math.sqrt(1e-6) * np.ones(4), atol=1e-12)


def test_asp_matches_loop_oracle():
    rng = np.random.default_rng(10)
    pool = AspPooling(4, 3, rng)
    h = rng.normal(size=(7, 4))
    got = pool.forward(Tensor(h), _one(h)).data[0]
    np.testing.assert_allclose(got, _ref_asp(pool, h), atol=1e-12)


@given(st.integers(1, 40), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_asp_weights_simplex_and_std_floor(t_len, seed):
    rng = np.random.default_rng(seed)
    pool = AspPooling(3, 2, rng, eps=1e-6)
    h = rng.normal(size=(t_len, 3)) * 3.0
    trace = ForwardTrace()
    out = pool.forward(Tensor(h), _one(h), trace).data[0]
    (alpha,) = trace.attention_rows
    assert alpha.shape == (1, t_len)
    assert np.all(alpha > 0)
    assert abs(alpha.sum() - 1.0) <= 1e-9
    assert np.all(out[3:] >= math.sqrt(1e-6) - 1e-15)
    np.testing.assert_array_equal(trace.asp_std, [out[3:]])


def test_asp_mean_within_per_dim_envelope():
    rng = np.random.default_rng(11)
    pool = AspPooling(3, 4, rng)
    h = rng.normal(size=(9, 3))
    mu = pool.forward(Tensor(h), _one(h)).data[0, :3]
    assert np.all(mu >= h.min(axis=0) - 1e-12)
    assert np.all(mu <= h.max(axis=0) + 1e-12)


def test_asp_gradcheck():
    rng = np.random.default_rng(12)
    pool = AspPooling(3, 2, rng)
    h = Tensor(rng.normal(size=(5, 3)))
    probe = Tensor(rng.normal(size=(1, 6)))

    def f():
        return ad.tsum(ad.mul(pool.forward(h, [5]), probe))

    report = grad_check(f, collect_parameters(pool), eps=1e-5)
    assert max(report.values()) <= 1e-4, report


def test_asp_rejects_bad_eps_and_dims():
    with pytest.raises(ValidationError):
        AspPooling(3, 2, np.random.default_rng(0), eps=0.0)
    pool = AspPooling(3, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        pool.forward(Tensor(np.zeros((4, 5))), [4])
