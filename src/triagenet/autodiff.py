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


class NoTapeError(RuntimeError):
    """backward was called on a tensor with no recorded computation."""


class Tensor:
    """A float64 array plus the bookkeeping needed to differentiate it.

    ``parents`` and ``grad_fn`` are set by ops; leaves have neither.
    A leaf's gradient accumulates across backward passes until
    ``zero_grad``; an op's output hands its gradient on to its parents
    during ``backward`` and keeps none.
    """

    __slots__ = ("data", "grad", "parents", "grad_fn")

    def __init__(self, data, parents: tuple = (), grad_fn: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.grad_fn = grad_fn

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
                # released first: the parents may adopt it, or views of it
                g, node.grad = node.grad, None
                node.grad_fn(g)


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
    # The first gradient t receives becomes t.grad, with no zero fill. An
    # op hands each parent an array no other tensor holds: a new one, or
    # its own released gradient or disjoint views of it.
    if t.grad is None:
        t.grad = g
    else:
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
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul needs a matrix times a matrix or vector, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def _reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return x.reshape(shape)


def _concat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays, axis=-1)


def _lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    if table.ndim != 2:
        raise ShapeError(f"lookup table must be 2-D, got shape {table.shape}")
    if ids.size and np.minimum.reduce(ids, axis=None) < 0:
        raise IndexError("ids must be nonnegative")
    return table[ids]  # an id past the table raises IndexError here


def _softmax(x: np.ndarray) -> np.ndarray:
    if x.ndim < 1 or x.shape[-1] == 0:
        raise ShapeError(f"softmax needs a nonempty last axis, got shape {x.shape}")
    # the reductions behind .max and .sum, called without their Python wrappers
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _check_rows(x: np.ndarray, seg: Segments, ndim: int) -> None:
    if x.ndim != ndim or x.shape[0] != seg.owner.size:
        raise ShapeError(f"segment op needs {ndim}-D input with {seg.owner.size} rows, got {x.shape}")


def _segment_softmax(v: np.ndarray, seg: Segments) -> np.ndarray:
    _check_rows(v, seg, 1)
    e = np.exp(v - np.maximum.reduceat(v, seg.starts)[seg.owner])
    return e / np.add.reduceat(e, seg.starts)[seg.owner]


def _segment_sum(w: np.ndarray, x: np.ndarray, seg: Segments) -> np.ndarray:
    _check_rows(w, seg, 1)
    _check_rows(x, seg, 2)
    return np.add.reduceat(w[:, None] * x, seg.starts, axis=0)


def _segment_max(x: np.ndarray, seg: Segments) -> np.ndarray:
    _check_rows(x, seg, 2)
    return np.maximum.reduceat(x, seg.starts, axis=0)


class Segments:
    """Rows cut into consecutive nonempty runs, one run per segment.

    ``counts`` holds each run's length. ``starts`` is each run's first row
    and ``owner`` each row's run. One instance serves every segment op
    over the same rows.
    """

    __slots__ = ("starts", "owner")

    def __init__(self, counts):
        counts = np.asarray(counts)
        if counts.ndim != 1 or counts.size == 0 or np.minimum.reduce(counts) < 1:
            raise ShapeError(f"segments need a nonempty list of positive lengths, got {counts}")
        self.starts = np.add.accumulate(counts) - counts
        self.owner = np.arange(counts.size).repeat(counts)


class TapeFree:
    """The forward ops over plain float64 arrays, recording no tape.

    A pass written over an ops namespace differentiates when given this
    module and only computes when given this class, with the same bits
    and checks. ``param`` and ``constant`` say how a parameter tensor
    and a data array enter the pass.
    """

    lookup = staticmethod(_lookup)
    matmul = staticmethod(_matmul)
    add = staticmethod(np.add)
    relu = staticmethod(_relu)
    tanh = staticmethod(np.tanh)
    softmax = staticmethod(_softmax)
    reshape = staticmethod(_reshape)
    concat = staticmethod(_concat)
    segment_softmax = staticmethod(_segment_softmax)
    segment_sum = staticmethod(_segment_sum)
    segment_max = staticmethod(_segment_max)

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
        ga, gb = _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        _accumulate(a, ga)
        _accumulate(b, gb.copy() if gb is ga else gb)

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
        gx = y * y
        np.subtract(1.0, gx, out=gx)
        gx *= g
        _accumulate(x, gx)

    return Tensor(y, (x,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` of a matrix and a matrix or vector."""
    A, Bd = a.data, b.data

    def grad_fn(g: np.ndarray) -> None:
        Bm = Bd.reshape(Bd.shape[0], -1)  # a vector as a column
        g2 = g.reshape(-1, Bm.shape[1])
        _accumulate(a, g2 @ Bm.T)
        _accumulate(b, (A.T @ g2).reshape(Bd.shape))

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


def lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather table rows for an id array of any shape; the gradient scatter-adds back."""
    ids = np.asarray(ids)

    def grad_fn(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        # one 1-D scatter-add over (row, column) cells: numpy's fast path for ufunc.at
        k = table.shape[1]
        cells = (ids[..., None] * k + np.arange(k)).reshape(-1)
        np.add.at(table.grad.reshape(-1), cells, g.reshape(-1))

    return Tensor(_lookup(table.data, ids), (table,), grad_fn)


def softmax(v: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    y = _softmax(v.data)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(v, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Tensor(y, (v,), grad_fn)


def segment_softmax(v: Tensor, seg: Segments) -> Tensor:
    """Softmax of a vector within each segment of ``seg``: each run sums to one."""
    y = _segment_softmax(v.data, seg)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(v, y * (g - np.add.reduceat(g * y, seg.starts)[seg.owner]))

    return Tensor(y, (v,), grad_fn)


def segment_sum(w: Tensor, x: Tensor, seg: Segments) -> Tensor:
    """Per-segment weighted sum of rows: row s of the (S, F) result is sum_r w[r] x[r] over run s."""
    W, X = w.data, x.data

    def grad_fn(g: np.ndarray) -> None:
        g_rows = g.take(seg.owner, axis=0)
        _accumulate(w, np.einsum("rf,rf->r", X, g_rows))
        g_rows *= W[:, None]
        _accumulate(x, g_rows)

    return Tensor(_segment_sum(W, X, seg), (w, x), grad_fn)


def segment_max(x: Tensor, seg: Segments) -> Tensor:
    """Column-wise max over each segment's rows of ``x``, (S, F) from (N, F).

    The gradient goes to the first maximal row of each segment and column.
    """
    X = x.data
    out = _segment_max(X, seg)

    def grad_fn(g: np.ndarray) -> None:
        rows = np.arange(X.shape[0])
        hits = np.where(X == out[seg.owner], rows[:, None], X.shape[0])
        first = np.minimum.reduceat(hits, seg.starts, axis=0)
        gx = np.zeros_like(X)
        gx[first, np.arange(X.shape[1])] = g
        _accumulate(x, gx)

    return Tensor(out, (x,), grad_fn)


NLL_FLOOR = 1e-12  # mean_nll's lower clamp on a picked probability


def mean_nll(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under rows of probabilities.

    Each picked probability is clamped below at ``NLL_FLOOR`` so the loss
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
        gp[rows, labels] = np.where(p > NLL_FLOOR, -share / np.maximum(p, NLL_FLOOR), 0.0)
        _accumulate(probs, gp)

    # np.maximum propagates NaN, so a poisoned forward pass stays visible
    return Tensor(np.mean(-np.log(np.maximum(p, NLL_FLOOR))), (probs,), grad_fn)


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
