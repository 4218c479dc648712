import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Parameter, ShapeError, Tape, Tensor
from ptmfnet.errors import ValidationError
from ptmfnet.gradcheck import grad_check, worst


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3))
    out = ad.matmul(t(np.eye(3)), t(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_case():
    out = ad.matmul(t([[1, 2], [3, 4]]), t([[0], [1]]))
    np.testing.assert_array_equal(out.data, [[2], [4]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


@pytest.mark.parametrize("rows", [1, 5])
def test_matmul_with_bias_is_matmul_then_add_bitwise(rows):
    # one node for x @ W + b gives the bytes of the matmul and add it stands
    # for, output and all three gradients; x feeds three biased matmuls, as a
    # LayerNorm output feeds q, k and v, so its flows add up across nodes
    rng = np.random.default_rng(12 + rows)
    x0 = rng.normal(size=(rows, 4))
    wb0 = [(rng.normal(size=(4, 3)), rng.normal(size=(1, 3))) for _ in range(3)]
    probe = t(rng.normal(size=(rows, 9)))

    def run(affine):
        x = t(x0, rg=True)
        wb = [(t(w, rg=True), t(b, rg=True)) for w, b in wb0]
        with Tape() as tape:
            out = ad.concat([affine(x, w, b) for w, b in wb], axis=1)
            ad.backward(ad.tsum(ad.mul(out, probe)))
        return len(tape.nodes), [out.data, x.grad] + [p.grad for pair in wb for p in pair]

    n_fused, fused = run(ad.matmul)
    n_pairs, pairs = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
    assert n_pairs - n_fused == 3
    for got, want in zip(fused, pairs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("bias_shape", [(3,), (2, 3), (1, 4), (3, 1)])
def test_matmul_bias_of_the_wrong_shape_names_the_shapes(bias_shape):
    with pytest.raises(ShapeError, match=re.escape(f"{bias_shape} does not fit (2, 4) @ (4, 3)")):
        ad.matmul(t(np.zeros((2, 4))), t(np.zeros((4, 3))), t(np.zeros(bias_shape)))


@pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matmul_rows_do_not_depend_on_the_row_count(n, bias):
    # with fewer than four output columns, OpenBLAS computes the last M % 4
    # rows of a product another way; every M >= 2 must give each row the
    # bits of the same row in a taller product (M = 1 takes matrix-vector
    # kernels and is not covered)
    rng = np.random.default_rng(20 + n)
    for k in (3, 16, 64):
        a, b = rng.normal(size=(40, k)), t(rng.normal(size=(k, n)))
        c = t(rng.normal(size=(1, n))) if bias else None
        tall = ad.matmul(t(a), b, c).data
        for m in range(2, 41):
            assert np.array_equal(ad.matmul(t(a[:m]), b, c).data, tall[:m]), (k, m)


@pytest.mark.parametrize("h_dim", [1, 5])
def test_attentive_stats_of_a_sequence_do_not_depend_on_its_batch(h_dim):
    # the same sequence pooled beside others, padded to a longer T, and in
    # another place of the batch gives the same bits; B = 1 is not covered.
    # With H = 1 the frames of a sequence lie contiguous in memory.
    rng = np.random.default_rng(23)
    a_dim = 4
    w, b, v = t(rng.normal(size=(h_dim, a_dim))), t(rng.normal(size=(1, a_dim))), t(rng.normal(size=(a_dim, 1)))
    seqs = [rng.normal(size=(n, h_dim)) for n in (11, 3, 30, 1, 17)]

    def pool(members):
        t_len = max(len(seqs[j]) for j in members)
        rows = np.zeros((len(members), t_len, h_dim))
        for row, j in zip(rows, members):
            row[: len(seqs[j])] = seqs[j]
        out, alpha = ad.attentive_stats(t(rows.reshape(-1, h_dim)), [len(seqs[j]) for j in members],
                                        w, b, v, eps=1e-6)
        return {j: (out.data[i], alpha[i, : len(seqs[j])]) for i, j in enumerate(members)}

    ref = pool([0, 1])
    ref.update(pool([3, 2, 4]))
    for members in ([1, 0], [0, 2], [4, 0, 3], [2, 1, 0, 4, 3], [3, 0], [0, 1, 2, 3, 4]):
        for j, (out, alpha) in pool(members).items():
            assert np.array_equal(out, ref[j][0]) and np.array_equal(alpha, ref[j][1]), (members, j)


def _pooling_weights(values):
    """attentive_stats frame weights for frames h_t = values[t] with W = 1,
    b = 0 and v = 1000, i.e. for scores 1000 tanh(values[t])."""
    h = t(np.asarray(values, dtype=np.float64).reshape(-1, 1))
    _, alpha = ad.attentive_stats(h, [h.shape[0]], t([[1.0]]), t([[0.0]]), t([[1000.0]]), eps=1e-6)
    return alpha[0]


def _attention_weights(scores):
    """ad.attention weights of one query whose scores are `scores`: q = [1]
    and k = scores as a column (d = 1, so the scale is 1)."""
    k = t(np.asarray(scores, dtype=np.float64).reshape(-1, 1))
    _, attn = ad.attention(t([[1.0]]), k, t(np.zeros((k.shape[0], 1))))
    return attn[0, 0, 0]


def test_softmax_symmetry():
    # equal scores give equal weights in both fused ops
    np.testing.assert_allclose(_attention_weights([0.0, 0.0]), [0.5, 0.5])
    q = t(np.ones((2, 4)))
    _, attn = ad.attention(q, t(np.ones((3, 4))), t(np.zeros((3, 4))), n_heads=2)
    np.testing.assert_allclose(attn, np.full((1, 2, 2, 3), 1 / 3))
    h = t(np.ones((4, 3)))  # a constant sequence scores every frame the same
    _, alpha = ad.attentive_stats(h, [4], t(np.ones((3, 2))), t(np.zeros((1, 2))), t(np.ones((2, 1))),
                                  eps=1e-6)
    np.testing.assert_allclose(alpha, np.full((1, 4), 0.25))


def test_softmax_large_inputs_no_overflow():
    np.testing.assert_allclose(_attention_weights([1000.0] * 3), [1 / 3] * 3)
    np.testing.assert_allclose(_pooling_weights([1000.0] * 3), [1 / 3] * 3)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20))
def test_softmax_rows_sum_to_one(values):
    for weights in (_attention_weights(values), _pooling_weights(values)):
        assert weights.min() >= 0.0
        assert abs(weights.sum() - 1.0) <= 1e-9


def test_sigmoid_at_zero():
    assert ad.sigmoid(t([[0.0]])).item() == 0.5


def _two_branch_sigmoid(d):
    """The masked-indexing form the sigmoid used before: 1 / (1 + exp(-d)) on
    d >= 0 and exp(d) / (1 + exp(d)) elsewhere."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bitwise_equal_to_two_branch_form():
    rng = np.random.default_rng(60)
    d = np.concatenate([rng.normal(size=200_000) * 20.0,
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0]])
    got = ad.sigmoid(t(d[None, :])).data[0]
    want = _two_branch_sigmoid(d)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigmoid_extreme_inputs_stable():
    out = ad.sigmoid(t([[-700.0, 700.0]]))
    np.testing.assert_allclose(out.data, [[0.0, 1.0]], atol=1e-12)


def test_relu_definition():
    out = ad.relu(t([[-3.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 3.0]])


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(t([[5.0, 5.0, 5.0]]), t(np.ones(3)), t(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)))


def test_layer_norm_moments():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(4, 32)) * 3.0)
    out = ad.layer_norm(x, t(np.ones(32)), t(np.zeros(32)))
    assert np.abs(out.data.mean(axis=1)).max() <= 1e-10
    np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=10 * ad.LN_EPS)


def test_dropout_degenerate_cases():
    rng = np.random.default_rng(2)
    x = t(np.arange(6.0).reshape(2, 3))
    assert ad.dropout(x, 0.0, rng) is x
    assert ad.dropout(x, 0.9, None) is x  # no generator: inference
    for gen in (rng, None):
        with pytest.raises(ValidationError):
            ad.dropout(x, 1.0, gen)


def test_dropout_monte_carlo():
    rng = np.random.default_rng(3)
    x = t(np.ones(100_000).reshape(1, -1))
    out = ad.dropout(x, 0.5, rng)
    survivors = np.count_nonzero(out.data) / x.size
    assert abs(survivors - 0.5) <= 0.01
    assert abs(out.data.mean() - 1.0) <= 0.02


def test_tmean_is_each_row_groups_mean_as_one_node():
    # forward and VJP bitwise a reshape to (m, n, d), a sum over the n rows
    # times 1/n, and that gradient spread back over each group's rows
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(12, 5)), rg=True)
    g = rng.normal(size=(4, 5))
    with Tape() as tape:
        out = ad.tmean(x, 3)
    assert len(tape.nodes) == 1
    np.testing.assert_array_equal(out.data, x.data.reshape(4, 3, 5).sum(axis=1) * (1.0 / 3))
    (dx,) = tape.nodes[0].vjp(g)
    np.testing.assert_array_equal(dx, np.broadcast_to((g * (1.0 / 3))[:, None], (4, 3, 5)).reshape(12, 5))
    np.testing.assert_array_equal(ad.tmean(x, 1).data, x.data)


@pytest.mark.parametrize("shape,n", [((12, 5), 5), ((12, 5), 0), ((12,), 3), ((2, 6, 5), 2)])
def test_tmean_rejects_rows_that_do_not_split_into_groups(shape, n):
    with pytest.raises(ShapeError, match="tmean"):
        ad.tmean(t(np.zeros(shape)), n)


def test_broadcast_restricted_to_unit_axes():
    a = t(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ad.add(a, t(np.zeros(3)))  # rank promotion refused
    with pytest.raises(ShapeError):
        ad.add(a, t(np.zeros((2, 2))))
    out = ad.add(a, t(np.ones((1, 3))))
    np.testing.assert_array_equal(out.data, np.ones((2, 3)))


def test_non_finite_input_rejected():
    with pytest.raises(ValidationError):
        Tensor(np.array([np.nan]))


def test_debug_mode_catches_op_overflow(monkeypatch):
    big = t(np.array([1e308]))
    with np.errstate(over="ignore"):
        monkeypatch.setattr(ad, "DEBUG_CHECKS", False)  # PTMFNET_DEBUG=1 turns it on at import
        assert np.isinf(ad.mul(big, big).data[0])  # silent by default
        monkeypatch.setattr(ad, "DEBUG_CHECKS", True)
        with pytest.raises(FloatingPointError):
            ad.mul(big, big)


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_sum_of_squares_analytic():
    x = t([[1.0, -2.0, 3.0]], rg=True)
    with Tape():
        loss = ad.tsum(ad.mul(x, x))
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_backward_disconnected_parameter_stays_zero():
    x = t([[1.0, 2.0]], rg=True)
    unused = t([[5.0]], rg=True)
    with Tape():
        loss = ad.tsum(ad.mul(x, x))
        ad.backward(loss)
    np.testing.assert_array_equal(unused.grad, np.zeros((1, 1)))


def test_backward_requires_scalar():
    x = t([[1.0, 2.0]], rg=True)
    with Tape():
        y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            ad.backward(y)


def test_backward_without_tape_raises():
    x = t([[1.0]], rg=True)
    with pytest.raises(RuntimeError):
        ad.backward(x)


def test_backward_is_additive():
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(3, 2)), rg=True)
    w = t(rng.normal(size=(2, 2)), rg=True)
    with Tape():
        y = ad.matmul(x, w)
        loss = ad.tsum(ad.mul(y, y))
        ad.backward(loss)
        first = (x.grad.copy(), w.grad.copy())
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * first[0])
    np.testing.assert_array_equal(w.grad, 2.0 * first[1])


def test_backward_diamond_graph():
    # y = x*x + x*x reuses x twice on two paths; d/dx = 4x.
    x = t([[3.0]], rg=True)
    with Tape():
        loss = ad.add(ad.mul(x, x), ad.mul(x, x))
        ad.backward(loss)
    np.testing.assert_allclose(x.grad, [[12.0]])


def test_tape_topological_order_and_single_traversal():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(2, 3)), rg=True)
    w = t(rng.normal(size=(3, 3)), rg=True)
    with Tape() as tape:
        h = ad.relu(ad.matmul(x, w))
        loss = ad.tsum(ad.mul(h, h))
        produced = {}
        for i, node in enumerate(tape.nodes):
            for inp in node.inputs:
                if id(inp) in produced:
                    assert produced[id(inp)] < i
            produced[id(node.out)] = i
        calls = {i: 0 for i in range(len(tape.nodes))}
        for i, node in enumerate(tape.nodes):
            orig = node.vjp

            def counted(g, i=i, orig=orig):
                calls[i] += 1
                return orig(g)

            node.vjp = counted
        ad.backward(loss)
    assert all(c <= 1 for c in calls.values())
    assert sum(calls.values()) == len(tape.nodes)


def _split_columns(x, at):
    """A two-output op: the columns of x before `at` and from `at` on."""
    outs = tuple(ad._result(part.copy(), x.requires_grad) for part in (x.data[:, :at], x.data[:, at:]))
    seen = []

    def vjp(gs):
        seen.append(gs)
        return (np.concatenate(gs, axis=1),)

    return ad._record(outs, (x,), vjp), seen


def test_multi_output_node_gets_zeros_for_an_output_that_feeds_nothing():
    rng = np.random.default_rng(7)
    x = t(rng.normal(size=(3, 5)), rg=True)
    probe = rng.normal(size=(3, 2))
    with Tape() as tape:
        (left, right), seen = _split_columns(x, 2)
        ad.backward(ad.tsum(ad.mul(left, t(probe))))
    assert len(tape.nodes) == 3 and tape.nodes[0].out == (left, right)
    ((g_left, g_right),) = seen
    np.testing.assert_array_equal(g_left, probe)
    assert g_right.shape == (3, 3) and np.all(g_right == 0.0)
    np.testing.assert_array_equal(x.grad, np.concatenate([probe, np.zeros((3, 3))], axis=1))


def test_multi_output_nodes_that_feed_nothing_are_skipped():
    # neither the split's outputs nor a two-stream lstm's reach the loss:
    # their VJPs never run and no parameter gradient moves
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(3, 5)), rg=True)
    streams = [[t(rng.normal(size=s), rg=True) for s in ((4, 2), (2, 8), (2, 8), (1, 8))] for _ in range(2)]
    with Tape() as tape:
        _, seen = _split_columns(x, 2)
        xs, ws, us, bs = zip(*streams)
        ad.lstm(xs, [[2, 2]] * 2, ws, us, bs)
        lstm_node = tape.nodes[-1]
        lstm_node.vjp = lambda g: seen.append(g)
        ad.backward(ad.tsum(ad.mul(x, x)))
    assert seen == []
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    assert all(np.all(p.grad == 0.0) for stream in streams for p in stream)


def test_forward_backward_bitwise_reproducible():
    def run():
        rng = np.random.default_rng(11)
        x = t(rng.normal(size=(4, 3)), rg=True)
        w = t(rng.normal(size=(3, 2)), rg=True)
        with Tape():
            h = ad.dropout(ad.sigmoid(ad.matmul(x, w)), 0.3, rng)
            loss = ad.tsum(ad.mul(h, h))
            ad.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# finite-difference checks: every differentiable op, >= 3 random shapes
# ---------------------------------------------------------------------------


def _mixed_lengths(rows):
    """Two sequences, the second one frame long, when `rows` splits evenly;
    one full-length sequence otherwise."""
    return [rows // 2, 1] if rows % 2 == 0 else [rows]


def _pool(x, lengths=None):
    """attentive_stats of the sequence rows x (one sequence unless `lengths`
    says otherwise), with fixed weights (A = 2)."""
    rng = np.random.default_rng(x.shape[1])
    w, b, v = (t(rng.normal(size=s)) for s in ((x.shape[1], 2), (1, 2), (2, 1)))
    return ad.attentive_stats(x, [x.shape[0]] if lengths is None else lengths, w, b, v, eps=1e-6)[0]


def _lstm(x):
    """ad.lstm over the rows of x as _mixed_lengths sequences, with fixed weights (H = 2)."""
    rng = np.random.default_rng(x.shape[1] + 1)
    w, u, b = (t(rng.normal(size=s)) for s in ((x.shape[1], 8), (2, 8), (1, 8)))
    return ad.lstm([x], [_mixed_lengths(x.shape[0])], [w], [u], [b])[0]


def _cross_attention(x):
    """ad.attention from four fixed queries onto keys and values x."""
    return ad.attention(t(np.random.default_rng(x.shape[1]).normal(size=(4, x.shape[1]))), x, x)[0]


UNARY_OPS = [
    ad.sigmoid,
    _lstm,
    _pool,
    lambda x: ad.attention(x, x, x)[0],
    lambda x: ad.cross_entropy(x, np.arange(x.shape[0]) % x.shape[1]),
    lambda x: ad.mul(x, t([[1.7]])),
    lambda x: ad.reshape(x, (x.size, 1)),
    _cross_attention,
    lambda x: _pool(x, _mixed_lengths(x.shape[0])),
    ad.tsum,
    lambda x: ad.tmean(x, 2 if x.shape[0] % 2 == 0 else x.shape[0]),  # groups of two rows, or one group
]

SHAPES = [(2, 3), (4, 2), (3, 5)]


@pytest.mark.parametrize("op_idx", range(len(UNARY_OPS)))
@pytest.mark.parametrize("shape", SHAPES)
def test_gradcheck_unary_ops(op_idx, shape):
    op = UNARY_OPS[op_idx]
    rng = np.random.default_rng(op_idx * 10 + shape[0])
    x = t(rng.normal(size=shape), rg=True)
    probe = t(rng.normal(size=op(x).shape))

    def f():
        return ad.tsum(ad.mul(op(x), probe))

    report = grad_check(f, [Parameter("x", x)], eps=1e-5)
    assert worst(report) <= 1e-4, report


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_relu_sqrt(seed):
    # Positive-domain / kink-free inputs for relu, and for the std half
    # sqrt(relu(var) + eps) of attentive_stats, the one sqrt in the graph:
    # distinct frames keep var away from 0.
    rng = np.random.default_rng(seed)
    x = t(rng.uniform(0.5, 2.0, size=(3, 4)), rg=True)
    for op in (ad.relu, _pool):
        # the pooling probe reads only the std half [4:] of [mu | s]
        probe = t(rng.normal(size=(3, 4)) if op is ad.relu
                  else np.concatenate([np.zeros((1, 4)), rng.normal(size=(1, 4))], axis=1))

        def f(op=op, probe=probe):
            return ad.tsum(ad.mul(op(x), probe))

        report = grad_check(f, [Parameter("x", x)], eps=1e-6)
        assert worst(report) <= 1e-4, (op, report)


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 3), (1, 3)), ((4, 1), (4, 5))])
@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_gradcheck_binary_ops_with_broadcast(op, shapes):
    rng = np.random.default_rng(hash((shapes, op.__name__)) % 2**32)
    a = t(rng.normal(size=shapes[0]), rg=True)
    b = t(rng.normal(size=shapes[1]), rg=True)
    out_shape = np.broadcast_shapes(*shapes)
    probe = t(rng.normal(size=out_shape))

    def f():
        return ad.tsum(ad.mul(op(a, b), probe))

    report = grad_check(f, [Parameter("a", a), Parameter("b", b)], eps=1e-5)
    assert worst(report) <= 1e-4, report


def test_gradcheck_matmul_against_finite_differences():
    rng = np.random.default_rng(7)
    a = t(rng.normal(size=(4, 5)), rg=True)
    b = t(rng.normal(size=(5, 3)), rg=True)
    probe = t(rng.normal(size=(4, 3)))

    def f():
        return ad.tsum(ad.mul(ad.matmul(a, b), probe))

    report = grad_check(f, [Parameter("a", a), Parameter("b", b)], eps=1e-5)
    assert worst(report) <= 1e-6, report


@pytest.mark.parametrize("shape", SHAPES)
def test_gradcheck_layer_norm(shape):
    rng = np.random.default_rng(shape[1])
    x = t(rng.normal(size=shape), rg=True)
    gain = t(rng.normal(size=shape[-1]), rg=True)
    bias = t(rng.normal(size=shape[-1]), rg=True)
    probe = t(rng.normal(size=shape))

    def f():
        return ad.tsum(ad.mul(ad.layer_norm(x, gain, bias), probe))

    params = [Parameter("x", x), Parameter("gain", gain), Parameter("bias", bias)]
    report = grad_check(f, params, eps=1e-5)
    # width-2 rows have near-singular variance, which inflates the
    # finite-difference truncation term; 1e-4 is the module-wide bar
    assert worst(report) <= 1e-4, report


@pytest.mark.parametrize("t_len", [1, 6])
def test_gradcheck_attentive_stats(t_len):
    rng = np.random.default_rng(30 + t_len)
    h, w, b, v = (t(rng.normal(size=s), rg=True) for s in ((t_len, 3), (3, 2), (1, 2), (2, 1)))
    probe = t(rng.normal(size=(1, 6)))

    def f():
        return ad.tsum(ad.mul(ad.attentive_stats(h, [t_len], w, b, v, eps=1e-6)[0], probe))

    params = [Parameter(name, x) for name, x in zip(("h", "W", "b", "v"), (h, w, b, v))]
    report = grad_check(f, params, eps=1e-5)
    assert worst(report) <= 1e-4, report


@pytest.mark.parametrize("n_heads", [1, 2])
def test_gradcheck_attention(n_heads):
    # three queries onto two keys, values wider than queries and keys
    rng = np.random.default_rng(40 + n_heads)
    q, k, v = (t(rng.normal(size=s), rg=True) for s in ((3, 4), (2, 4), (2, 6)))
    probe = t(rng.normal(size=(3, 6)))

    def f():
        return ad.tsum(ad.mul(ad.attention(q, k, v, n_heads)[0], probe))

    params = [Parameter("q", q), Parameter("k", k), Parameter("v", v)]
    report = grad_check(f, params, eps=1e-5)
    assert worst(report) <= 1e-4, report


# the widened ops on a batch of three samples: sequences of mixed lengths
# padded to T = 4, or one row of logits each
MIXED = [4, 1, 3]


def _batched_lstm(params):
    x, w, u, b = (p.tensor for p in params)
    return ad.lstm([x], [MIXED], [w], [u], [b])[0]


def _three_stream_lstm(params):
    """Three streams of input widths 2, 13 and 7 in one lstm op, their
    hidden rows side by side."""
    xs, ws, us, bs = ([p.tensor for p in params[k::4]] for k in range(4))
    return ad.concat(ad.lstm(xs, [MIXED] * 3, ws, us, bs), axis=1)


def _batched_pool(params):
    h, w, b, v = (p.tensor for p in params)
    return ad.attentive_stats(h, MIXED, w, b, v, eps=1e-6)[0]


def _batched_attention(params):
    q, k, v = (p.tensor for p in params)
    return ad.attention(q, k, v, n_heads=2, batch=3)[0]


BATCHED_OPS = {
    # op -> (input shapes, forward)
    "lstm": (((12, 2), (2, 12), (3, 12), (1, 12)), _batched_lstm),
    "lstm_three_streams": (tuple(shape for d in (2, 13, 7) for shape in ((12, d), (d, 12), (3, 12), (1, 12))),
                           _three_stream_lstm),
    "attentive_stats": (((12, 3), (3, 2), (1, 2), (2, 1)), _batched_pool),
    "attention": (((6, 4), (9, 4), (9, 6)), _batched_attention),  # 2 queries onto 3 keys per sample
    "cross_entropy": (((3, 4),), lambda params: ad.cross_entropy(params[0].tensor, [2, 0, 3])),
    "matmul_bias": (((12, 3), (3, 5), (1, 5)), lambda params: ad.matmul(*(p.tensor for p in params))),
}


def batched_grad_check(op):
    """grad_check of BATCHED_OPS[op] under a fixed random projection."""
    shapes, forward = BATCHED_OPS[op]
    rng = np.random.default_rng(len(op))
    params = [Parameter(f"in{i}", t(rng.normal(size=s), rg=True)) for i, s in enumerate(shapes)]
    probe = t(rng.normal(size=forward(params).shape))

    def f():
        return ad.tsum(ad.mul(forward(params), probe))

    return grad_check(f, params, eps=1e-5)


@pytest.mark.parametrize("op", sorted(BATCHED_OPS))
def test_gradcheck_batched_ops_with_mixed_lengths(op):
    report = batched_grad_check(op)
    assert worst(report) <= 1e-4, report


def test_padded_steps_and_frames_pass_nothing():
    # outputs past a length are zero and pass back no gradient; a padded
    # frame gets pooling weight exactly 0, whatever values sit in it
    rng = np.random.default_rng(61)
    x = t(rng.normal(size=(12, 3)) * 5.0, rg=True)
    w, u, b = (t(rng.normal(size=s)) for s in ((3, 8), (2, 8), (1, 8)))
    with Tape():
        (h,) = ad.lstm([x], [MIXED], [w], [u], [b])
        ad.backward(ad.tsum(ad.mul(h, t(rng.normal(size=h.shape)))))
    _, alpha = ad.attentive_stats(x, MIXED, *(t(rng.normal(size=s)) for s in ((3, 2), (1, 2), (2, 1))),
                                  eps=1e-6)
    pad = np.arange(4) >= np.array(MIXED)[:, None]
    assert np.all(h.data[pad.reshape(-1)] == 0.0) and np.all(x.grad[pad.reshape(-1)] == 0.0)
    assert np.all(alpha[pad] == 0.0) and np.all(alpha[~pad] > 0.0)
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=1e-12)


def test_fused_pooling_and_attention_record_one_node_each():
    rng = np.random.default_rng(50)
    h, w, b, v = (t(rng.normal(size=s), rg=True) for s in ((9, 3), (3, 2), (1, 2), (2, 1)))
    with Tape() as tape:
        pooled, alpha = ad.attentive_stats(h, [3, 1, 2], w, b, v, eps=1e-6)
        out, attn = ad.attention(h, h, h, n_heads=3, batch=3)
    assert len(tape.nodes) == 2
    assert pooled.shape == (3, 6) and alpha.shape == (3, 3)
    assert out.shape == (9, 3) and attn.shape == (3, 3, 3, 3)


def test_fused_pooling_and_attention_reject_bad_shapes():
    z = lambda *shape: t(np.zeros(shape))
    with pytest.raises(ShapeError):
        ad.attentive_stats(z(0, 3), [0], z(3, 2), z(1, 2), z(2, 1), eps=1e-6)  # empty sequence
    with pytest.raises(ShapeError):
        ad.attentive_stats(z(4, 3), [4], z(2, 2), z(1, 2), z(2, 1), eps=1e-6)
    with pytest.raises(ShapeError):
        ad.attentive_stats(z(6, 3), [2, 4], z(3, 2), z(1, 2), z(2, 1), eps=1e-6)  # a length past T = 3
    with pytest.raises(ShapeError):
        ad.attentive_stats(z(5, 3), [2, 2], z(3, 2), z(1, 2), z(2, 1), eps=1e-6)  # 5 rows, 2 sequences
    with pytest.raises(ValidationError):
        ad.attentive_stats(z(4, 3), [4], z(3, 2), z(1, 2), z(2, 1), eps=0.0)
    with pytest.raises(ShapeError):
        ad.attention(z(2, 4), z(3, 4), z(2, 4))  # a key without a value
    with pytest.raises(ShapeError):
        ad.attention(z(2, 4), z(2, 4), z(2, 3), n_heads=2)  # d_v not split evenly
    with pytest.raises(ShapeError):
        ad.attention(z(2, 4), z(2, 4), z(2, 4), n_heads=0)
    with pytest.raises(ShapeError):
        ad.attention(z(3, 4), z(2, 4), z(2, 4), batch=2)  # 3 queries do not split into 2 samples


@pytest.mark.parametrize("shape", SHAPES)
def test_gradcheck_concat(shape):
    rng = np.random.default_rng(shape[0] * 7)
    a = t(rng.normal(size=shape), rg=True)
    b = t(rng.normal(size=shape), rg=True)
    probe = t(rng.normal(size=(shape[0], 2 * shape[1])))

    def f():
        return ad.tsum(ad.mul(ad.concat([a, b], axis=1), probe))

    report = grad_check(f, [Parameter("a", a), Parameter("b", b)])
    assert worst(report) <= 1e-4, report


def test_gradcheck_dropout_fixed_mask():
    # Deterministic closure: rebuild the generator inside f so the mask repeats.
    base = np.random.default_rng(13)
    x = t(base.normal(size=(3, 4)), rg=True)
    probe = t(base.normal(size=(3, 4)))

    def f():
        rng = np.random.default_rng(99)
        return ad.tsum(ad.mul(ad.dropout(x, 0.4, rng), probe))

    report = grad_check(f, [Parameter("x", x)])
    assert worst(report) <= 1e-4, report


# ---------------------------------------------------------------------------
# grad_check contract
# ---------------------------------------------------------------------------


def test_grad_check_quadratic_is_exact():
    rng = np.random.default_rng(21)
    x = t(rng.normal(size=(3, 1)), rg=True)
    q = rng.normal(size=(3, 3))
    q = t(q @ q.T)

    def f():  # x^T q x
        return ad.tsum(ad.mul(x, ad.matmul(q, x)))

    report = grad_check(f, [Parameter("x", x)], eps=1e-5)
    assert worst(report) <= 1e-8


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}
    x = t([[1.0]], rg=True)

    def f():
        state["n"] += 1
        return ad.mul(x, t([[float(state["n"])]]))

    with pytest.raises(RuntimeError, match="deterministic"):
        grad_check(f, [Parameter("x", x)])


# ---------------------------------------------------------------------------
# module / parameter naming
# ---------------------------------------------------------------------------


def test_named_parameters_mirror_nesting():
    class Leaf(ad.Module):
        def __init__(self):
            self.weight = t(np.zeros((2, 2)), rg=True)
            self.frozen = t(np.zeros(2))

    class Root(ad.Module):
        def __init__(self):
            self.gate = Leaf()
            self.enc = {"lld": Leaf(), "mfcc": Leaf()}
            self.stack = [Leaf()]

    names = [p.name for p in Root().named_parameters()]
    assert names == ["gate.weight", "enc.lld.weight", "enc.mfcc.weight", "stack.0.weight"]


def test_collect_parameters_rejects_duplicates():
    class Bad(ad.Module):
        def __init__(self):
            shared = t(np.zeros(2), rg=True)
            self.enc = {"a": {"weight": shared}}

        def named_parameters(self, prefix=""):
            w = t(np.zeros(2), rg=True)
            yield Parameter("w", w)
            yield Parameter("w", w)

    with pytest.raises(ValidationError):
        ad.collect_parameters(Bad())
