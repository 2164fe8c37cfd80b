"""A reverse-mode tape over the model's ops: the oracle for its hand-written backward.

Every op records its parents and a closure that routes the output
gradient back to them; ``backward`` on a scalar walks the recorded graph
once in reverse topological order. Each op computes its value with the
model's own array kernel, so a pass over the tape has the forward's bits,
and its gradients are reverse mode's, op by op. ``forward_graph`` and
``loss_and_grads`` are the model's pass written over these ops, with the
same contracts as ``triagenet.model``'s.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from triagenet.model import (
    NLL_FLOOR,
    ModelParams,
    ShapeError,
    _conv,
    _leading_columns,
    _lookup,
    _matmul,
    _segment_max,
    _segment_softmax,
    _segment_sum,
    _softmax,
    _tanh_affine,
    doc_lengths,
    window_rows,
)


class Tensor:
    """A float64 array plus the bookkeeping needed to differentiate it.

    ``parents`` and ``grad_fn`` are set by ops; leaves have neither.
    A leaf's gradient accumulates across backward passes until
    ``zero_grad``; an op's output hands its gradient on to its parents
    during ``backward`` and keeps none.
    """

    __slots__ = ("data", "grad", "parents", "grad_fn")

    def __init__(self, data, parents: tuple = (), grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.grad_fn = grad_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Backpropagate from this scalar; each node runs once, after all its consumers."""
        if self.grad_fn is None:
            raise RuntimeError("tensor has no recorded computation to differentiate")
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
    # the first gradient t receives becomes t.grad; an op hands each parent
    # an array no other tensor holds
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


def add(a: Tensor, b: Tensor) -> Tensor:
    def grad_fn(g):
        ga, gb = _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
        _accumulate(a, ga)
        _accumulate(b, gb.copy() if gb is ga else gb)

    return Tensor(np.add(a.data, b.data), (a, b), grad_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0

    def grad_fn(g):
        _accumulate(x, g * mask)

    return Tensor(np.maximum(x.data, 0.0), (x,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` of a matrix and a matrix or vector."""
    A, Bd = a.data, b.data

    def grad_fn(g):
        Bm = Bd.reshape(Bd.shape[0], -1)  # a vector as a column
        g2 = g.reshape(-1, Bm.shape[1])
        _accumulate(a, g2 @ Bm.T)
        _accumulate(b, (A.T @ g2).reshape(Bd.shape))

    return Tensor(_matmul(A, Bd), (a, b), grad_fn)


def conv(windows: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(X @ w + b) over an (N, M, k) window block; the gradient adds into the
    block gradient's leading columns, the first filter back zeroing the rest."""
    X = _leading_columns(windows.data, w.data)
    W = w.data
    out = _conv(windows.data, W, b.data)

    def grad_fn(g):
        g *= out > 0.0
        _accumulate(w, X.T @ g)
        _accumulate(b, g.sum(axis=0))
        if windows.grad is None:
            windows.grad = np.empty_like(windows.data)
            rows = windows.grad.reshape(len(X), -1)
            np.matmul(g, W.T, out=rows[:, : W.shape[0]])
            rows[:, W.shape[0] :] = 0.0
        else:
            windows.grad.reshape(len(X), -1)[:, : W.shape[0]] += g @ W.T

    return Tensor(out, (windows, w, b), grad_fn)


def tanh_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """tanh(x @ w + b)."""
    A, W = x.data, w.data
    y = _tanh_affine(A, W, b.data)

    def grad_fn(g):
        ga = y * y
        np.subtract(1.0, ga, out=ga)
        ga *= g
        _accumulate(b, ga.sum(axis=0))
        _accumulate(x, ga @ W.T)
        _accumulate(w, A.T @ ga)

    return Tensor(y, (x, w, b), grad_fn)


def concat(ts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    ends = np.cumsum([t.shape[-1] for t in ts])[:-1]

    def grad_fn(g):
        for t, part in zip(ts, np.split(g, ends, axis=-1)):
            _accumulate(t, part)

    return Tensor(np.concatenate([t.data for t in ts], axis=-1), tuple(ts), grad_fn)


def lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather table rows for an id array of any shape; the gradient scatter-adds back."""
    ids = np.asarray(ids)

    def grad_fn(g):
        k = table.shape[1]
        cells = (ids[..., None] * k + np.arange(k)).reshape(-1)
        _accumulate(table, np.bincount(cells, weights=g.reshape(-1),
                                       minlength=table.data.size).reshape(table.shape))

    return Tensor(_lookup(table.data, ids), (table,), grad_fn)


def softmax(v: Tensor) -> Tensor:
    y = _softmax(v.data)

    def grad_fn(g):
        _accumulate(v, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Tensor(y, (v,), grad_fn)


def segment_softmax(v: Tensor, seg) -> Tensor:
    y = _segment_softmax(v.data, seg)

    def grad_fn(g):
        _accumulate(v, y * (g - np.add.reduceat(g * y, seg.starts)[seg.owner]))

    return Tensor(y, (v,), grad_fn)


def segment_sum(w: Tensor, x: Tensor, seg) -> Tensor:
    W, X = w.data, x.data

    def grad_fn(g):
        g_rows = g.take(seg.owner, axis=0)
        _accumulate(w, np.einsum("rf,rf->r", X, g_rows))
        g_rows *= W[:, None]
        _accumulate(x, g_rows)

    return Tensor(_segment_sum(W, X, seg), (w, x), grad_fn)


def segment_max(x: Tensor, seg) -> Tensor:
    """The gradient goes to the first maximal row of each segment and column."""
    X = x.data
    out = _segment_max(X, seg)

    def grad_fn(g):
        rows = np.arange(X.shape[0])
        hits = np.where(X == out[seg.owner], rows[:, None], X.shape[0])
        first = np.minimum.reduceat(hits, seg.starts, axis=0)
        gx = np.zeros_like(X)
        gx[first, np.arange(X.shape[1])] = g
        _accumulate(x, gx)

    return Tensor(out, (x,), grad_fn)


def mean_nll(probs: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood; a picked probability clamped at NLL_FLOOR passes
    no gradient."""
    labels = np.asarray(labels)
    if probs.data.ndim != 2 or labels.shape != probs.shape[:1] or labels.size == 0:
        raise ShapeError(f"mean_nll needs (B, C) probabilities and B labels, "
                         f"got {probs.shape} and {labels.shape}")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError(f"labels out of range for {probs.shape[1]} classes")
    rows = np.arange(labels.size)
    p = probs.data[rows, labels]

    def grad_fn(g):
        share = float(g) * (1.0 / labels.size)
        gp = np.zeros_like(probs.data)
        gp[rows, labels] = np.where(p > NLL_FLOOR, -share / np.maximum(p, NLL_FLOOR), 0.0)
        _accumulate(probs, gp)

    return Tensor(np.mean(-np.log(np.maximum(p, NLL_FLOOR))), (probs,), grad_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``p``, rescale the rest."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def grad_fn(g):
        _accumulate(x, g * mask)

    return Tensor(x.data * mask, (x,), grad_fn)


# -- the model over the tape -----------------------------------------------------


def leaves(params: ModelParams) -> dict[str, Tensor]:
    """One leaf per model tensor, sharing its array."""
    return {name: Tensor(a) for name, a in params.tensors.items()}


def forward_graph(params: ModelParams, ids, demographics, *, dropout_rng=None, tensors=None):
    """``model.forward_graph`` over the tape: (probs, attention, lengths), the first two
    tensors of one graph over ``tensors`` (fresh ``leaves`` by default)."""
    cfg = params.config
    t = leaves(params) if tensors is None else tensors
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ShapeError(f"ids must have shape (B, {cfg.max_len}), got {ids.shape}")
    lengths = doc_lengths(ids)
    L = ids.shape[1]
    counts = lengths + (cfg.arch == "kimcnn")
    longest = int(np.maximum.reduce(counts))
    keys = {m: min(L - m + 1, longest) for m in cfg.widths}
    layouts = {}
    for key in dict.fromkeys(keys.values()):
        widest = max(m for m in cfg.widths if keys[m] == key)
        seg, first = window_rows(counts, key, L)
        layouts[key] = seg, lookup(t["embedding"], ids.ravel()[first[:, None] + np.arange(widest)])
    pooled, attention = [], {}
    for m in cfg.widths:
        seg, block = layouts[keys[m]]
        conv_w, conv_b, attn_w, attn_b, context = cfg.tensor_names[0][m]
        feats = conv(block, t[conv_w], t[conv_b])
        if cfg.arch == "kimcnn":
            pooled.append(segment_max(feats, seg))
            continue
        u = tanh_affine(feats, t[attn_w], t[attn_b])
        attention[m] = segment_softmax(matmul(u, t[context]), seg)
        pooled.append(segment_sum(attention[m], feats, seg))
    h = concat(pooled + [Tensor(demographics)])
    *hidden, (w, b) = cfg.tensor_names[1]
    for hidden_w, hidden_b in hidden:
        h = relu(add(matmul(h, t[hidden_w]), t[hidden_b]))
        if dropout_rng is not None:
            h = dropout(h, cfg.dropout, dropout_rng)
    return softmax(add(matmul(h, t[w]), t[b])), attention, lengths


def loss_and_grads(params: ModelParams, ids, demographics, labels, dropout_rng=None,
                   forward=forward_graph):
    """``model.loss_and_grads`` by backpropagating through ``forward``'s taped graph."""
    tensors = leaves(params)
    probs, _, _ = forward(params, ids, demographics, dropout_rng=dropout_rng, tensors=tensors)
    loss = mean_nll(probs, labels)
    loss.backward()
    return loss.item(), {name: t.grad for name, t in tensors.items() if t.grad is not None}
