"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every op records its parents and a closure that routes the output gradient
back to them; ``backward`` on a scalar walks the recorded graph once in
reverse topological order. ``TapeFree`` runs the same forward arithmetic
on plain arrays and records nothing, for passes that are never
differentiated. All arithmetic stays in float64 and all reductions run
in a fixed order, so identical seeds and inputs reproduce forward and
backward results bitwise.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class WindowTooLargeError(ShapeError):
    """Sliding window is wider than the sequence it slides over."""


class NoTapeError(RuntimeError):
    """backward was called on a tensor with no recorded computation."""


class Tensor:
    """A float64 array plus the bookkeeping needed to differentiate it.

    ``parents`` and ``grad_fn`` are set by ops; leaves have neither.
    Gradients accumulate across backward passes until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "parents", "grad_fn", "frozen_rows")

    def __init__(self, data, parents: tuple = (), grad_fn: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.grad_fn = grad_fn
        self.frozen_rows: tuple[int, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        """Reset gradient accumulation."""
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Each node is visited once, parents after children, so gradients
        over shared subgraphs accumulate correctly.
        """
        if self.grad_fn is None and not self.parents:
            raise NoTapeError("tensor has no recorded computation to differentiate")
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.shape}")
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(_topo_order(self)):
            if node.grad_fn is not None:
                node.grad_fn(node.grad)


def _topo_order(root: Tensor) -> list[Tensor]:
    # iterative postorder: parents land in the list before their children
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents if id(parent) not in seen)
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # collapse gradient of a broadcast operand back to its own shape
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- forward values ------------------------------------------------------
# Each op's arithmetic and checks live once, over plain arrays (numpy's own
# for add and tanh): the taped op of the same name and ``TapeFree`` both
# call it.


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 1:
        raise ShapeError(f"matmul needs a matrix or batch on the left, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0 if b.ndim == 1 else -2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def _reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return x.reshape(shape)


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays, axis=-1)


def _unfold(x: np.ndarray, m: int) -> np.ndarray:
    if x.ndim < 2:
        raise ShapeError(f"unfold needs a matrix or batch of them, got shape {x.shape}")
    if m < 1:
        raise ShapeError(f"window width must be positive, got {m}")
    if m > x.shape[-2]:
        raise WindowTooLargeError(f"window {m} exceeds sequence length {x.shape[-2]}")
    T = x.shape[-2] - m + 1
    return np.concatenate([x[..., j : j + T, :] for j in range(m)], axis=-1)


def _lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if table.ndim != 2:
        raise ShapeError(f"lookup table must be 2-D, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"ids out of range for table with {table.shape[0]} rows")
    return table[ids]


def _max_rows(x: np.ndarray) -> np.ndarray:
    if x.ndim < 2:
        raise ShapeError(f"max_rows needs a matrix or batch of them, got shape {x.shape}")
    return x.max(axis=-2)


def _softmax(x: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a nonempty last axis, got shape {x.shape}")
    x = x if valid is None else np.where(valid, x, -np.inf)
    # the reductions behind .max and .sum, called without their Python wrappers
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


class TapeFree:
    """The forward ops over plain float64 arrays, recording no tape.

    A pass written over an ops namespace differentiates when given this
    module and only computes when given this class, with the same bits
    and checks. ``param`` and ``constant`` say how a parameter tensor
    and a data array enter the pass.
    """

    lookup = staticmethod(_lookup)
    unfold = staticmethod(_unfold)
    matmul = staticmethod(_matmul)
    add = staticmethod(np.add)
    relu = staticmethod(_relu)
    tanh = staticmethod(np.tanh)
    softmax = staticmethod(_softmax)
    reshape = staticmethod(_reshape)
    concat = staticmethod(_concat)
    max_rows = staticmethod(_max_rows)

    @staticmethod
    def param(t: Tensor) -> np.ndarray:
        return t.data

    @staticmethod
    def constant(x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


# -- taped ops -------------------------------------------------------------


def param(t: Tensor) -> Tensor:
    """A trainable tensor as the taped ops take it: the tensor itself."""
    return t


def constant(x) -> Tensor:
    """A data array the pass does not differentiate, as a leaf tensor."""
    return Tensor(x)


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(np.add(a.data, b.data), (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    if _RELU_TRACE is not None:
        _RELU_TRACE.append(x.data.copy())
    mask = x.data > 0.0

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return Tensor(_relu(x.data), (x,), grad_fn)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * (1.0 - y * y))

    return Tensor(y, (x,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, batched like numpy's ``@``.

    ``a`` is a matrix or a batch of them. ``b`` is a vector, a matrix
    shared by the whole batch, or a batch of matrices.
    """
    A, Bd = a.data, b.data

    def grad_fn(g: np.ndarray) -> None:
        if Bd.ndim <= 2:  # shared: one product over all batch rows, a vector as a column
            Bm = Bd.reshape(Bd.shape[0], -1)
            g2 = g.reshape(-1, Bm.shape[1])
            _accumulate(a, (g2 @ Bm.T).reshape(A.shape))
            _accumulate(b, (A.reshape(-1, A.shape[-1]).T @ g2).reshape(Bd.shape))
        else:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(Bd, -1, -2), A.shape))
            _accumulate(b, _unbroadcast(np.swapaxes(A, -1, -2) @ g, Bd.shape))

    return Tensor(_matmul(A, Bd), (a, b), grad_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g.reshape(x.shape))

    return Tensor(_reshape(x.data, shape), (x,), grad_fn)


def concat(ts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    ends = np.cumsum([t.shape[-1] for t in ts])[:-1]

    def grad_fn(g: np.ndarray) -> None:
        for t, part in zip(ts, np.split(g, ends, axis=-1)):
            _accumulate(t, part)

    return Tensor(_concat([t.data for t in ts]), tuple(ts), grad_fn)


def unfold(x: Tensor, m: int) -> Tensor:
    """Stack the ``m``-row sliding windows of each L x k matrix as rows.

    ``x`` is (..., L, k); the output is (..., L - m + 1, m * k), and
    window ``i`` is rows i..i+m-1 flattened.
    """
    windows = _unfold(x.data, m)
    T, k = windows.shape[-2], x.shape[-1]

    def grad_fn(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        for j in range(m):
            gx[..., j : j + T, :] += g[..., j * k : (j + 1) * k]
        _accumulate(x, gx)

    return Tensor(windows, (x,), grad_fn)


def lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather table rows for an id array of any shape; the gradient scatter-adds back."""
    ids = np.asarray(ids)

    def grad_fn(g: np.ndarray) -> None:
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)

    return Tensor(_lookup(table.data, ids), (table,), grad_fn)


def max_rows(x: Tensor) -> Tensor:
    """Column-wise max over each (T, F) matrix's rows; the gradient goes to the first max."""
    pooled = _max_rows(x.data)
    idx = np.expand_dims(np.argmax(x.data, axis=-2), -2)

    def grad_fn(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g[..., None, :], axis=-2)
        _accumulate(x, gx)

    return Tensor(pooled, (x,), grad_fn)


def softmax(v: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax over the last axis.

    Where the boolean array ``valid`` (broadcast against ``v``) is False
    the logit counts as -inf: that weight is exactly 0 and the others
    still sum to one. Each row needs at least one valid entry.
    """
    y = _softmax(v.data, valid)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(v, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Tensor(y, (v,), grad_fn)


def mean_nll(probs: Tensor, labels: np.ndarray, clamp: float = 1e-12) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under rows of probabilities.

    Each picked probability is clamped below at ``clamp`` so the loss
    stays finite; a clamped entry passes no gradient.
    """
    labels = np.asarray(labels)
    if probs.data.ndim != 2 or labels.shape != probs.shape[:1] or labels.size == 0:
        raise ShapeError(f"mean_nll needs (B, C) probabilities and B labels, "
                         f"got {probs.shape} and {labels.shape}")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError(f"labels out of range for {probs.shape[1]} classes")
    rows = np.arange(labels.size)
    p = probs.data[rows, labels]

    def grad_fn(g: np.ndarray) -> None:
        share = float(g) * (1.0 / labels.size)
        gp = np.zeros_like(probs.data)
        gp[rows, labels] = np.where(p > clamp, -share / np.maximum(p, clamp), 0.0)
        _accumulate(probs, gp)

    # np.maximum propagates NaN, so a poisoned forward pass stays visible
    return Tensor(np.mean(-np.log(np.maximum(p, clamp))), (probs,), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``p``, rescale rest."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return Tensor(x.data * mask, (x,), grad_fn)


# -- gradient checking ---------------------------------------------------

_RELU_TRACE: list[np.ndarray] | None = None


@contextmanager
def record_relu_inputs():
    """Collect every relu pre-activation array evaluated in the block."""
    global _RELU_TRACE
    prev = _RELU_TRACE
    _RELU_TRACE = []
    try:
        yield _RELU_TRACE
    finally:
        _RELU_TRACE = prev


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient comparison."""

    max_rel_error: float
    checked: int
    excluded: list[tuple[int, int]] = field(default_factory=list)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` rebuilds the scalar loss from ``params`` on every call. The
    relative error per coordinate is |analytic - numeric| /
    max(1, |analytic|, |numeric|). A coordinate is excluded when its
    perturbation drives some relu pre-activation within 10 * eps of the
    kink, or flips a relu gate between the two perturbed passes: the
    central difference is unreliable there.
    """
    loss = f()
    for p in params:
        p.zero_grad()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_err = 0.0
    checked = 0
    excluded: list[tuple[int, int]] = []
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + eps
            with record_relu_inputs() as trace_hi:
                y_hi = f().item()
            hi = np.concatenate([t.reshape(-1) for t in trace_hi]) if trace_hi else np.empty(0)
            flat[ci] = orig - eps
            with record_relu_inputs() as trace_lo:
                y_lo = f().item()
            lo = np.concatenate([t.reshape(-1) for t in trace_lo]) if trace_lo else np.empty(0)
            flat[ci] = orig

            if hi.size != lo.size:
                raise RuntimeError("f must evaluate the same relu units on every call")
            influenced = hi != lo
            near_kink = np.minimum(np.abs(hi), np.abs(lo)) < 10.0 * eps
            gate_flip = (hi > 0.0) != (lo > 0.0)
            if np.any(gate_flip | (influenced & near_kink)):
                excluded.append((pi, ci))
                continue

            numeric = (y_hi - y_lo) / (2.0 * eps)
            a = float(analytic[pi].reshape(-1)[ci])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_err = max(max_err, err)
            checked += 1

    return GradCheckReport(max_rel_error=max_err, checked=checked, excluded=excluded)
