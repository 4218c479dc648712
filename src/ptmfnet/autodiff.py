"""Dense float64 tensors with reverse-mode differentiation.

Everything runs define-by-run on an explicit tape: ops append nodes while a
Tape is active, backward() takes them off once, in reverse. Broadcasting
is restricted to 1-extent axes of equal-rank operands; there is no implicit
rank promotion.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# Debug mode re-checks every op output for NaN/Inf (set PTMFNET_DEBUG=1 or
# flip at runtime); the Tensor constructor always checks user-supplied data.
DEBUG_CHECKS = bool(os.environ.get("PTMFNET_DEBUG"))
LN_EPS = 1e-5  # added to the variance in layer_norm


class ShapeError(ValidationError):
    """Operand shapes are incompatible."""


class NonFiniteError(ValidationError, FloatingPointError):
    """An op produced NaN or Inf (checked only when DEBUG_CHECKS is on)."""


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """A dense f64 array, optionally carrying a same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, requires_grad: bool) -> Tensor:
    # Internal constructor for op outputs. Finiteness here is a debug-mode
    # assertion (the Tensor constructor still hard-checks user data): the
    # per-op isfinite sweep costs ~20% of training time. Gradient buffers
    # stay unallocated; backward adds flows into leaves' buffers as VJPs return them.
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad
    t.grad = None
    t._tape = None
    if DEBUG_CHECKS and not np.all(np.isfinite(data)):
        frame = sys._getframe(1)
        while frame.f_code.co_name[0] in "_<":  # helpers and generator expressions run for an op
            frame = frame.f_back
        raise NonFiniteError(f"op {frame.f_code.co_name} produced non-finite values")
    return t


@dataclass
class Node:
    """One executed op: output, inputs, and the local vector-Jacobian product."""

    out: Tensor | tuple[Tensor, ...]  # a tuple for a multi-output op
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]  # takes a tuple of arrays for a tuple `out`


@dataclass
class Tape:
    """Ordered record of executed ops for one forward pass."""

    nodes: list[Node] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def _record(out, inputs: tuple[Tensor, ...], vjp):
    outs = out if isinstance(out, tuple) else (out,)
    if outs[0].requires_grad and _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        tape.nodes.append(Node(out, inputs, vjp))
        for o in outs:
            o._tape = tape
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dt into .grad of every requires_grad tensor feeding loss.

    Gradients add onto existing buffers; the caller zeroes between steps. A
    multi-output node gets one gradient per output, zeros for an output that
    fed nothing, and is skipped only when none of its outputs fed the loss.
    One backward per tape: it takes each node off the tape and drops each
    output's gradient once the node's VJP has run, freeing both as it goes.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise RuntimeError("loss was not recorded on a tape (no operations to traverse)")
    if not tape.nodes:
        raise RuntimeError("loss's tape was consumed by an earlier backward (one backward per tape)")
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while tape.nodes:
        node = tape.nodes.pop()
        if isinstance(node.out, tuple):
            g_outs = [flows.pop(id(o), None) for o in node.out]
            if all(g is None for g in g_outs):
                continue
            g_out = tuple(np.zeros_like(o.data) if g is None else g for o, g in zip(node.out, g_outs))
        else:
            g_out = flows.pop(id(node.out), None)
            if g_out is None:
                continue
        for t, g in zip(node.inputs, node.vjp(g_out)):
            if g is None or not t.requires_grad:
                continue
            if t.grad is not None:
                t.grad += g
            else:
                k = id(t)
                flows[k] = flows[k] + g if k in flows else g


# ---------------------------------------------------------------------------
# Broadcasting helpers (1-extent axes only, equal rank)
# ---------------------------------------------------------------------------


def _check_broadcast(sa: tuple[int, ...], sb: tuple[int, ...]) -> None:
    if len(sa) != len(sb):
        raise ShapeError(f"rank mismatch: {sa} vs {sb} (no implicit rank promotion)")
    for a, b in zip(sa, sb):
        if a != b and a != 1 and b != 1:
            raise ShapeError(f"cannot broadcast {sa} with {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    return g.sum(axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def _row_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D operands, each output row's bits the same whatever other
    rows `a` has, for two rows or more. With fewer than four columns, the
    BLAS computes the last a.shape[0] % 4 rows another way, so b is
    zero-padded to four columns and the product sliced back."""
    n = b.shape[1]
    if n > 3:
        return a @ b
    wide = np.zeros((b.shape[0], 4))
    wide[:, :n] = b
    return (a @ wide)[:, :n]


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus a (1, n) bias row on every output row when one is given;
    one node either way. Each output row's bits depend only on its own row
    of a, when a has two rows or more (see `_row_matmul`)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if bias is None:
        out = _result(_row_matmul(a.data, b.data), a.requires_grad or b.requires_grad)
        return _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
    if bias.shape != (1, b.shape[1]):
        raise ShapeError(f"matmul bias {bias.shape} does not fit {a.shape} @ {b.shape}; it must be (1, {b.shape[1]})")
    out = _result(_row_matmul(a.data, b.data) + bias.data,
                  a.requires_grad or b.requires_grad or bias.requires_grad)
    return _record(out, (a, b, bias), lambda g: (g @ b.data.T, a.data.T @ g, _unbroadcast(g, bias.shape)))


def _binary(a: Tensor, b: Tensor, fwd, vjp_pair) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = _result(fwd(a.data, b.data), a.requires_grad or b.requires_grad)

    def vjp(g):
        ga, gb = vjp_pair(g, a.data, b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # exp of -|d| never overflows; the quotient is 1 / (1 + exp(-d)) for
    # d >= 0 and exp(d) / (1 + exp(d)) below, both to the last bit
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    out = _result(_sigmoid(x.data), x.requires_grad)
    s = out.data
    return _record(out, (x,), lambda g: (g * s * (1.0 - s),))


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0), x.requires_grad)
    mask = x.data > 0
    return _record(out, (x,), lambda g: (g * mask,))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = _result(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def vjp(g):
        h = g * gain.data
        dx = inv * (h - h.mean(axis=-1, keepdims=True) - xhat * (h * xhat).mean(axis=-1, keepdims=True))
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), vjp)


def _valid_frames(x: Tensor, lengths, op: str) -> np.ndarray:
    """Check B zero-padded sequences stacked as (B*T, D) rows against their
    lengths (B,); returns the (B, T, 1) mask of frames within each length."""
    lengths = np.asarray(lengths)
    n_seq = lengths.size
    if x.data.ndim != 2 or lengths.ndim != 1 or n_seq < 1 or x.shape[0] % n_seq:
        raise ShapeError(f"{op}: {x.shape} rows do not split into {lengths.shape} sequences")
    t_len = x.shape[0] // n_seq
    if lengths.dtype.kind not in "iu" or lengths.min() < 1 or lengths.max() > t_len:
        raise ShapeError(f"{op}: lengths {lengths.tolist()} must lie in [1, {t_len}]")
    return (np.arange(t_len) < lengths[:, None])[:, :, None]


def lstm(xs: Sequence[Tensor], lengths: Sequence, Ws: Sequence[Tensor], Us: Sequence[Tensor],
         bs: Sequence[Tensor]) -> tuple[Tensor, ...]:
    """S LSTM layers over the same B sequences, as one op.

    Stream s reads its own input rows xs[s] (B*T_s, D_s), each sequence
    zero-padded to T_s frames, batch-major (row b*T_s + t is step t of
    sequence b), with its own lengths[s] (B,), through its own Ws[s]
    (D_s x 4H), Us[s] (H x 4H) and bs[s] (1 x 4H), gate columns i|f|o|g;
    all streams share B and H. Returns the S hidden-state tensors in the
    same (B*T_s, H) layouts, zero past each sequence's length. h and c start
    at zero. The streams run in one loop over max_s T_s steps with (S, B, .)
    state: each step is one stacked (S, B, H) @ (S, H, 4H) matmul, which
    computes every stream's product as a call with that stream alone would.
    A stream's input projection, outputs and gradient reductions read only
    its own T_s steps, so outputs and gradients are bitwise those of S
    single-stream calls. The forward's per-step buffers are gate-major, so
    every elementwise operand of a step is one contiguous array: the input
    projection is written into a (T, 4, S, B, H) table, and a step's only
    strided read is adding the matmul's (S, B, 4H) product to its row. A
    step takes the sigmoid of the i, f and o gates with one exp, bitwise
    `_sigmoid`, and updates the cell with one multiply of [i, f] by
    [g, c_prev] and one add of the two halves, bitwise f * c_prev + i * g.
    It writes into buffers allocated before the loop; when no node will be
    recorded (no tape, or no input needs a gradient) it keeps no per-step
    state for a VJP. The VJP runs backpropagation through time, O(T) steps
    and memory, for all streams in one reverse loop in the (S, B, 4H)
    column layout, with the factors that do not depend on the carried
    gradients computed for all steps before it; it zeroes output gradients
    past each length, so every padded step passes back exactly 0.
    """
    n_streams = len(xs)
    if not n_streams or not len(lengths) == len(Ws) == len(Us) == len(bs) == n_streams:
        raise ShapeError(f"lstm needs one lengths array, W, U and b per input, got {n_streams} inputs, "
                         f"{len(lengths)} lengths, {len(Ws)} W, {len(Us)} U and {len(bs)} b")
    valids = [_valid_frames(x, lens, "lstm") for x, lens in zip(xs, lengths)]
    n_seq, h_dim = valids[0].shape[0], Us[0].shape[0]
    t_lens = [valid.shape[1] for valid in valids]
    t_len = max(t_lens)
    for x, valid, W, U, b in zip(xs, valids, Ws, Us, bs):
        if valid.shape[0] != n_seq or W.shape != (x.shape[1], 4 * h_dim) \
                or U.shape != (h_dim, 4 * h_dim) or b.shape != (1, 4 * h_dim):
            raise ShapeError(f"lstm shapes disagree: x {x.shape} as {valid.shape[0]} sequences "
                             f"(not {n_seq}), W {W.shape}, U {U.shape}, b {b.shape}")
    u = np.stack([U.data for U in Us])
    # time-major and gate-major, so each step reads one (4, S, B, H) block;
    # zero past a stream's T_s
    xw = np.zeros((t_len, 4, n_streams, n_seq, h_dim))
    for s, (x, W, b, t_s) in enumerate(zip(xs, Ws, bs, t_lens)):
        xw[:t_s, :, s] = (x.data @ W.data + b.data).reshape(n_seq, t_s, 4, h_dim).transpose(1, 2, 0, 3)
    inputs = tuple(p for stream in zip(xs, Ws, Us, bs) for p in stream)
    needs_grad = any(p.requires_grad for p in inputs)
    record = needs_grad and bool(_TAPE_STACK)
    # Row t of `cell` holds step t's gates i, f, o, g and the c it starts
    # from, so [i, f] and [g, c_prev] are contiguous pairs and the cell
    # update is one multiply; step t writes its c into row t + 1. With a
    # node to record, every step keeps its rows, and tanh(c) in row t of
    # tc, for the VJP; without one, every step reuses row 0 and c carries
    # over in place. h is the output and is always kept. The loops iterate
    # over the tables, which yields each step's rows for less than indexing
    # them.
    n_kept = t_len if record else 1
    cell = np.empty((n_kept + 1, 5, n_streams, n_seq, h_dim))
    cell[0, 4] = 0.0
    tc = np.empty((n_kept, n_streams, n_seq, h_dim))
    h = np.zeros((t_len + 1, n_streams, n_seq, h_dim))  # row t + 1 holds the state after step t
    if record:
        kept = zip(cell[:-1, :3], cell[:-1, :2], cell[:-1, 2], cell[:-1, 3], cell[:-1, 3:], cell[1:, 4], tc)
    else:
        kept = itertools.repeat((cell[0, :3], cell[0, :2], cell[0, 2], cell[0, 3], cell[0, 3:], cell[0, 4],
                                 tc[0]), t_len)
    pre = np.empty((n_streams, n_seq, 4 * h_dim))
    pre_gates = pre.reshape(n_streams, n_seq, 4, h_dim).transpose(2, 0, 1, 3)
    act_in = np.empty_like(xw[0])
    ifo_in, g_in = act_in[:3], act_in[3]
    # _sigmoid of the i|f|o gates with one exp: where(d >= 0, 1, e) is
    # exp(min(d, 0)) and e = exp(-|d|) is exp(copysign(d, -1)), to the bit
    num_den = np.empty((2, *ifo_in.shape))
    num, den = num_den
    ig_fc = np.empty((2, n_streams, n_seq, h_dim))
    ig, fc = ig_fc
    for h_prev, h_t, xw_t, (ifo_t, if_t, o_t, g_t, gc_t, c_t, tc_t) in zip(h[:-1], h[1:], xw, kept):
        np.matmul(h_prev, u, out=pre)
        np.add(pre_gates, xw_t, out=act_in)
        np.minimum(ifo_in, 0.0, out=num)
        np.copysign(ifo_in, -1.0, out=den)
        np.exp(num_den, out=num_den)
        den += 1.0
        np.divide(num, den, out=ifo_t)
        np.tanh(g_in, out=g_t)
        np.multiply(if_t, gc_t, out=ig_fc)
        np.add(ig, fc, out=c_t)  # i * g + f * c_prev: addition commutes, so the bits of f * c_prev + i * g
        np.tanh(c_t, out=tc_t)
        np.multiply(o_t, tc_t, out=h_t)
    outs = tuple(_result((h[1:t_s + 1, s].transpose(1, 0, 2) * valid).reshape(-1, h_dim), needs_grad)
                 for s, (t_s, valid) in enumerate(zip(t_lens, valids)))
    if not record:
        return outs

    def vjp(gys):
        gy = np.zeros((t_len, n_streams, n_seq, h_dim))
        for s, (g_s, t_s, valid) in enumerate(zip(gys, t_lens, valids)):
            gy[:t_s, s] = (g_s.reshape(n_seq, t_s, h_dim) * valid).transpose(1, 0, 2)
        u_t = u.transpose(0, 2, 1)
        k = 3 * h_dim  # the i|f|o columns
        i, f, o, g, c_prev = cell[:-1].transpose(1, 0, 2, 3, 4)
        # The factors that do not depend on dh or dc, for all steps at once,
        # in the (S, B, 4H) column layout of the loop's matmul. A step's dc
        # gains dh * o * (1 - tanh(c)^2), and its d_pre is
        # [dc, dc, dh, dc] * [g, c_prev, tanh(c), i], then times the gates
        # (i|f|o only), then times 1 - gates with 1 - g^2 in the g block,
        # which d_pre holds before the loop.
        dtc = 1.0 - tc * tc
        mult = np.concatenate([g, c_prev, tc, i], axis=-1)
        ifo = cell[:-1, :3].transpose(0, 2, 3, 1, 4).reshape(t_len, n_streams, n_seq, k)  # a copy
        d_pre = np.empty_like(mult)
        np.subtract(1.0, ifo, out=d_pre[..., :k])
        d_pre[..., k:] = 1.0 - g * g
        # dh, dc and the step's buffers are updated in place
        dh, dc, d_dc = np.zeros((3, n_streams, n_seq, h_dim))
        d_step = np.empty_like(pre)
        d_state = d_step.reshape(n_streams, n_seq, 4, h_dim)
        dc_each, dh_block, d_step_ifo = dc[:, :, None], d_state[:, :, 2], d_step[..., :k]
        for gy_t, o_t, dtc_t, mult_t, ifo_t, f_t, d_pre_t in zip(
                *(a[::-1] for a in (gy, o, dtc, mult, ifo, f, d_pre))):
            dh += gy_t
            np.multiply(dh, o_t, out=d_dc)
            d_dc *= dtc_t
            dc += d_dc
            d_state[...] = dc_each
            dh_block[...] = dh
            d_step *= mult_t
            d_step_ifo *= ifo_t
            d_pre_t *= d_step
            np.matmul(d_pre_t, u_t, out=dh)
            dc *= f_t
        # free the loop's tables before the reductions (its last step's rows
        # would keep them)
        del gy, dtc, mult, ifo, gy_t, dtc_t, mult_t, ifo_t
        grads = []
        for s, (x, W, t_s) in enumerate(zip(xs, Ws, t_lens)):
            d_rows = d_pre[:t_s, s].transpose(1, 0, 2).reshape(-1, 4 * h_dim)  # back to batch-major rows
            h_prev = h[:t_s, s].transpose(1, 0, 2).reshape(-1, h_dim)
            grads += [d_rows @ W.data.T, x.data.T @ d_rows, h_prev.T @ d_rows,
                      d_rows.sum(axis=0, keepdims=True)]
        return tuple(grads)

    return _record(outs, inputs, vjp)


def _sum_frames(x: np.ndarray) -> np.ndarray:
    """Sum of (B, T, ...) over t, adding one frame at a time for B >= 2, so a
    zero-padded frame adds an exact 0 whatever T is: a column sum of the
    time-major copy. A sum along a contiguous t would split into partial
    sums whose grouping depends on T."""
    return np.ascontiguousarray(np.moveaxis(x, 1, 0)).sum(axis=0)


def attentive_stats(h: Tensor, lengths, W: Tensor, b: Tensor, v: Tensor,
                    eps: float) -> tuple[Tensor, np.ndarray]:
    """Attentive statistics pooling of B zero-padded sequences, as one op.

    h holds the sequences as (B*T, H) rows, batch-major, and lengths (B,)
    their frame counts. Frame weights alpha = softmax over the valid t of
    tanh(h W + b) v, with W (H x A), b (1 x A) and v (A x 1); a padded
    frame's score is -inf before the max shift, so its weight is exactly 0.
    They give the weighted mean mu and the weighted std
    s = sqrt(relu(sum_t alpha_t h_t^2 - mu^2) + eps). Returns the (B, 2H)
    rows [mu | s] and the (B, T) weights as a plain array. For B >= 2, a
    sequence's outputs are bitwise the same whatever other sequences share
    the batch and however far they pad T: every sum over t adds one frame
    at a time, and the score matmul is `_row_matmul`.
    """
    valid = _valid_frames(h, lengths, "attentive_stats")
    (n_seq, t_len, _), h_dim, a_dim = valid.shape, h.shape[1], W.shape[-1]
    if W.shape != (h_dim, a_dim) or b.shape != (1, a_dim) or v.shape != (a_dim, 1):
        raise ShapeError(f"attentive_stats shapes disagree: h {h.shape}, W {W.shape}, b {b.shape}, v {v.shape}")
    if eps <= 0:
        raise ValidationError("attentive_stats eps must be positive")
    hs = h.data.reshape(n_seq, t_len, h_dim)
    proj = np.tanh(h.data @ W.data + b.data)
    scores = np.where(valid[:, :, 0], _row_matmul(proj, v.data).reshape(n_seq, t_len), -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = (e / _sum_frames(e)[:, None])[:, :, None]
    mu = _sum_frames(alpha * hs)
    sq = hs * hs
    diff = _sum_frames(alpha * sq) - mu * mu
    s = np.sqrt(np.maximum(diff, 0.0) + eps)
    out = _result(np.concatenate([mu, s], axis=1), any(t.requires_grad for t in (h, W, b, v)))

    def vjp(g):
        g_diff = (g[:, h_dim:] * 0.5 / s * (diff > 0))[:, None]
        g_mu = g[:, None, :h_dim] - g_diff * 2.0 * mu[:, None]
        d_alpha = (g_diff * sq).sum(axis=2, keepdims=True) + (g_mu * hs).sum(axis=2, keepdims=True)
        d_scores = _softmax_vjp(d_alpha, alpha, axis=1).reshape(-1, 1)
        d_pre = d_scores @ v.data.T * (1.0 - proj * proj)
        dh = (g_diff * alpha * 2.0 * hs + g_mu * alpha).reshape(-1, h_dim) + d_pre @ W.data.T
        return dh, h.data.T @ d_pre, d_pre.sum(axis=0, keepdims=True), proj.T @ d_scores

    return _record(out, (h, W, b, v), vjp), alpha[:, :, 0]


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int = 1,
              batch: int = 1) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention within each of `batch`
    samples, as one op.

    q (batch*n_q, d), k (batch*n_k, d) and v (batch*n_k, d_v) hold each
    sample's rows in turn; a sample's queries attend only to its own keys.
    The columns split into n_heads equal blocks; head j computes
    softmax(q_j k_j^T / sqrt(d / n_heads)) v_j, and the heads' outputs sit
    side by side in head order. Returns the (batch*n_q, d_v) output and the
    (batch, n_heads, n_q, n_k) weights as a plain array.
    """
    if q.data.ndim != 2 or v.data.ndim != 2 or k.shape != (v.shape[0], q.shape[1]) \
            or n_heads < 1 or q.shape[1] % n_heads or v.shape[1] % n_heads \
            or batch < 1 or q.shape[0] % batch or k.shape[0] % batch:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"{n_heads} heads, batch {batch}")

    def split(x, width):  # (batch * n, n_heads * width) -> (batch, n_heads, n, width)
        return np.ascontiguousarray(x.reshape(batch, -1, n_heads, width).transpose(0, 2, 1, 3))

    def join(x):  # (batch, n_heads, n, width) -> (batch * n, n_heads * width)
        return x.transpose(0, 2, 1, 3).reshape(batch * x.shape[2], -1)

    def tr(x):  # swap the last two axes
        return x.transpose(0, 1, 3, 2)

    d, d_v = q.shape[1] // n_heads, v.shape[1] // n_heads  # per head
    qh, vh = split(q.data, d), split(v.data, d_v)
    k_t = np.ascontiguousarray(tr(split(k.data, d)))
    c = 1.0 / np.sqrt(d)
    attn = _softmax(qh @ k_t * c, axis=-1)
    out = _result(join(attn @ vh), q.requires_grad or k.requires_grad or v.requires_grad)

    def vjp(g):
        gh = split(g, d_v)
        d_scores = _softmax_vjp(gh @ tr(vh), attn, axis=-1) * c
        return join(d_scores @ tr(k_t)), join(tr(tr(qh) @ d_scores)), join(tr(attn) @ gh)

    return _record(out, (q, k, v), vjp), attn


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the rows of (B, C) logits of -log softmax(row)[label], as
    one op returning a (1, 1) tensor; labels (B,) are ints in [0, C).
    Log-sum-exp keeps huge logits finite."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != logits.shape[:1] or not labels.size \
            or labels.dtype.kind not in "iu":
        raise ValidationError(f"need one integer label per row of logits {logits.shape}, got {labels.tolist()}")
    n_rows, n_cls = logits.shape
    if labels.min() < 0 or labels.max() >= n_cls:
        raise ValidationError(f"label out of range for {n_cls} classes: {labels.tolist()}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n_rows)
    c = 1.0 / n_rows
    out = _result(np.array([[-log_p[rows, labels].sum() * c]]), logits.requires_grad)

    def vjp(g):
        gc = g[0, 0] * c
        d = np.exp(log_p) * gc
        d[rows, labels] -= gc
        return (d,)

    return _record(out, (logits,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Zero elements with probability `rate`, drawn from `rng`, and rescale survivors; `rng` None is inference."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    out = _result(x.data * keep * factor, x.requires_grad)
    return _record(out, (x,), lambda g: (g * keep * factor,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    rank = tensors[0].data.ndim
    ax = axis % rank
    for t in tensors[1:]:
        if t.data.ndim != rank:
            raise ShapeError("concat rank mismatch")
        for i in range(rank):
            if i != ax and t.shape[i] != tensors[0].shape[i]:
                raise ShapeError(f"concat extent mismatch on axis {i}: {t.shape} vs {tensors[0].shape}")
    out = _result(np.concatenate([t.data for t in tensors], axis=ax), any(t.requires_grad for t in tensors))
    cuts = np.cumsum([t.shape[ax] for t in tensors[:-1]])
    return _record(out, tuple(tensors), lambda g: tuple(np.split(g, cuts, axis=ax)))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _result(x.data.reshape(shape), x.requires_grad)
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def tsum(x: Tensor) -> Tensor:
    out = _result(x.data.sum(), x.requires_grad)
    return _record(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def tmean(x: Tensor, n: int) -> Tensor:
    """The mean of each n consecutive rows of a 2-D tensor, as one node:
    (m*n, d) -> (m, d)."""
    if x.data.ndim != 2 or n < 1 or x.shape[0] % n:
        raise ShapeError(f"tmean: {x.shape} rows do not split into groups of {n}")
    c = 1.0 / n
    out = _result(x.data.reshape(-1, n, x.shape[1]).sum(axis=1) * c, x.requires_grad)
    return _record(out, (x,), lambda g: (np.repeat(g * c, n, axis=0),))


# ---------------------------------------------------------------------------
# Parameters and modules
# ---------------------------------------------------------------------------


class Parameter(NamedTuple):
    name: str
    tensor: Tensor


class Module:
    """Base for components holding trainable tensors.

    named_parameters() walks instance attributes (tensors, sub-modules, dicts,
    lists/tuples) in insertion order, building dotted name paths that mirror
    the nesting, e.g. "enc.lld.lstm.W".
    """

    def named_parameters(self, prefix: str = "") -> Iterator[Parameter]:
        for attr, val in vars(self).items():
            yield from _walk_params(f"{prefix}{attr}", val)


def _walk_params(name: str, val) -> Iterator[Parameter]:
    if isinstance(val, Tensor):
        if val.requires_grad:
            yield Parameter(name, val)
    elif isinstance(val, Module):
        yield from val.named_parameters(prefix=name + ".")
    elif isinstance(val, dict):
        for k, v in val.items():
            yield from _walk_params(f"{name}.{k}", v)
    elif isinstance(val, (list, tuple)):
        for i, v in enumerate(val):
            yield from _walk_params(f"{name}.{i}", v)


def collect_parameters(module: Module) -> list[Parameter]:
    """named_parameters as a list, with a uniqueness check."""
    params = list(module.named_parameters())
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"duplicate parameter names: {dupes}")
    return params


def flatten(params: Sequence[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the parameters' values into one f64 vector and their gradients
    into a second, then rebind each tensor's data and grad to views of its
    own slice, so an in-place update of either vector reaches every tensor."""
    data = np.concatenate([t.data.ravel() for _, t in params])
    grad = np.concatenate([t.grad.ravel() for _, t in params])
    offset = 0
    for _, t in params:
        part = slice(offset, offset + t.size)
        t.data, t.grad = data[part].reshape(t.shape), grad[part].reshape(t.shape)
        offset = part.stop
    return data, grad


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

