"""Dense float64 tensors with reverse-mode differentiation.

Everything runs define-by-run on an explicit tape: ops append nodes while a
Tape is active, backward() walks the node list once in reverse. Broadcasting
is restricted to 1-extent axes of equal-rank operands; there is no implicit
rank promotion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# Debug mode re-checks every op output for NaN/Inf (set PTMFNET_DEBUG=1 or
# flip at runtime); the Tensor constructor always checks user-supplied data.
DEBUG_CHECKS = bool(os.environ.get("PTMFNET_DEBUG"))


class ShapeError(ValidationError):
    """Operand shapes are incompatible."""


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

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)


def _result(data: np.ndarray, requires_grad: bool) -> Tensor:
    # Internal constructor for op outputs. Finiteness here is a debug-mode
    # assertion (the Tensor constructor still hard-checks user data): the
    # per-op isfinite sweep costs ~20% of training time. Gradient buffers
    # stay unallocated; backward folds flows only into leaf tensors.
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad
    t.grad = None
    t._tape = None
    if DEBUG_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError("op produced non-finite values")
    return t


@dataclass
class Node:
    """One executed op: output, inputs, and the local vector-Jacobian product."""

    out: Tensor
    inputs: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]


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


def _record(out: Tensor, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    if out.requires_grad and _TAPE_STACK:
        tape = _TAPE_STACK[-1]
        tape.nodes.append(Node(out, inputs, vjp))
        out._tape = tape
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/dt into .grad of every requires_grad tensor feeding loss.

    Gradients add onto existing buffers; the caller zeroes between steps.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None or not tape.nodes:
        raise RuntimeError("loss was not recorded on a tape (no operations to traverse)")
    flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        g_out = flows.get(id(node.out))
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.vjp(g_out)):
            if g is None or not t.requires_grad:
                continue
            k = id(t)
            if k in flows:
                flows[k] = flows[k] + g
            else:
                flows[k] = g
                holders[k] = t
    for k, g in flows.items():
        t = holders[k]
        if t.grad is not None:
            t.grad += g


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = _result(a.data @ b.data, a.requires_grad or b.requires_grad)

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _record(out, (a, b), vjp)


def _binary(a: Tensor, b: Tensor, fwd, vjp_pair) -> Tensor:
    _check_broadcast(a.shape, b.shape)
    out = _result(fwd(a.data, b.data), a.requires_grad or b.requires_grad)

    def vjp(g):
        ga, gb = vjp_pair(g, a.data, b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient for c)."""
    out = _result(x.data * c, x.requires_grad)
    return _record(out, (x,), lambda g: (g * c,))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out_data = np.empty_like(d)
    pos = d >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out_data[~pos] = e / (1.0 + e)
    out = _result(out_data, x.requires_grad)
    s = out.data
    return _record(out, (x,), lambda g: (g * s * (1.0 - s),))


def tanh(x: Tensor) -> Tensor:
    out = _result(np.tanh(x.data), x.requires_grad)
    t = out.data
    return _record(out, (x,), lambda g: (g * (1.0 - t * t),))


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0), x.requires_grad)
    mask = x.data > 0
    return _record(out, (x,), lambda g: (g * mask,))


def square(x: Tensor) -> Tensor:
    out = _result(x.data * x.data, x.requires_grad)
    return _record(out, (x,), lambda g: (g * 2.0 * x.data,))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise ValidationError("sqrt of negative values")
    out = _result(np.sqrt(x.data), x.requires_grad)
    r = out.data
    return _record(out, (x,), lambda g: (g * 0.5 / r,))


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise ValidationError("log of non-positive values")
    out = _result(np.log(x.data), x.requires_grad)
    return _record(out, (x,), lambda g: (g / x.data,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = _result(e / e.sum(axis=axis, keepdims=True), x.requires_grad)
    s = out.data

    def vjp(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _record(out, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = _result(shifted - lse, x.requires_grad)
    s = np.exp(out.data)

    def vjp(g):
        return (g - s * g.sum(axis=axis, keepdims=True),)

    return _record(out, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then apply affine."""
    if eps <= 0:
        raise ValidationError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = _result(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def vjp(g):
        h = g * gain.data
        dx = inv * (h - h.mean(axis=-1, keepdims=True) - xhat * (h * xhat).mean(axis=-1, keepdims=True))
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), vjp)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Zero elements with probability `rate` and rescale survivors; identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
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
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        pieces = []
        for i in range(len(sizes)):
            idx = [slice(None)] * rank
            idx[ax] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(idx)])
        return tuple(pieces)

    return _record(out, tuple(tensors), vjp)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` extents along one axis."""
    rank = x.data.ndim
    ax = axis % rank
    if start < 0 or start + length > x.shape[ax]:
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for axis {ax} of {x.shape}")
    idx = [slice(None)] * rank
    idx[ax] = slice(start, start + length)
    out = _result(x.data[tuple(idx)].copy(), x.requires_grad)

    def vjp(g):
        full = np.zeros_like(x.data)
        full[tuple(idx)] = g
        return (full,)

    return _record(out, (x,), vjp)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _result(x.data.reshape(shape), x.requires_grad)
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {x.shape}")
    out = _result(x.data.T.copy(), x.requires_grad)
    return _record(out, (x,), lambda g: (g.T,))


def tsum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = _result(x.data.sum(axis=axis, keepdims=keepdims), x.requires_grad)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).copy(),)

    return _record(out, (x,), vjp)


def tmean(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return scale(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def constant(data, like: Tensor | None = None) -> Tensor:
    """A non-differentiable tensor (convenience for literals in graphs)."""
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=False)


# ---------------------------------------------------------------------------
# Parameters and containers
# ---------------------------------------------------------------------------


class Parameter(NamedTuple):
    name: str
    tensor: Tensor


class Module:
    """Base for components holding trainable tensors.

    named_parameters() walks instance attributes (tensors, sub-modules, dicts,
    lists/tuples) in insertion order, building dotted name paths that mirror
    the nesting, e.g. "enc.lld.lstm.W_i".
    """

    def named_parameters(self, prefix: str = "") -> Iterator[Parameter]:
        for attr, val in vars(self).items():
            yield from _walk_params(f"{prefix}{attr}", val)

    def parameters(self) -> list[Tensor]:
        return [p.tensor for p in self.named_parameters()]


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


class Container(Module):
    """Anonymous grouping module; attribute names become name-path segments."""

    def __init__(self, **modules):
        vars(self).update(modules)


def collect_parameters(module: Module) -> list[Parameter]:
    """named_parameters as a list, with a uniqueness check."""
    params = list(module.named_parameters())
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValidationError(f"duplicate parameter names: {dupes}")
    return params


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def passed(self, tol: float) -> bool:
        return self.max_rel_err <= tol


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Parameter],
    eps: float = 1e-5,
    tol: float = 1e-4,
    atol: float = 1e-8,
) -> GradCheckReport:
    """Compare tape gradients of scalar f() against central finite differences.

    f must be deterministic (dropout off, fixed inputs); this is verified by
    evaluating it twice. Reports per parameter
    max(|analytic - numeric| - atol, 0) / max(|analytic|, |numeric|, 1e-8).
    atol absorbs central-difference roundoff (~1e-11 at eps=1e-5) on
    parameters whose true gradient is identically zero, e.g. a key bias
    that cancels inside softmax.
    """
    v1 = f()
    v2 = f()
    if not np.array_equal(v1.data, v2.data):
        raise RuntimeError("grad_check requires a deterministic closure (repeated evaluations differ)")

    for p in params:
        p.tensor.zero_grad()
    with Tape():
        loss = f()
        backward(loss)
    analytic = {p.name: p.tensor.grad.copy() for p in params}

    entries = []
    for p in params:
        buf = p.tensor.data
        numeric = np.zeros_like(buf)
        flat = buf.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * eps)
        a = analytic[p.name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        err = np.maximum(np.abs(a - numeric) - atol, 0.0) / denom
        entries.append(GradCheckEntry(p.name, float(np.max(err))))
    return GradCheckReport(entries)
