"""Attention-pooled multi-width text CNN for three-class triage.

For each window width m the document embedding matrix runs through a
valid convolution with full-width filters into a feature map of
L - m + 1 rows. The "acnn" architecture pools those rows with learned
additive attention (so every window position gets a weight); "kimcnn"
replaces the pooling with a per-column max. Pooled vectors from all
widths, concatenated with a small demographics vector, feed a relu MLP
with a softmax head.

Only real windows are computed: a batch's windows that start before
their document's end are packed one document after another, and
attention and pooling run over each document's run of rows. Widths whose
windows fit every document share one packing. Its windows of the widest
such width are gathered from the embedding table once, as one block, and
each width's convolution (``_conv``) reads the block's leading m tokens:
im2col's shared unfolding. kimcnn's max pool also sees a document's
first all-padding window, where it has one, as its last row. Padding is
this module's concern: ``predict_attention`` gives windows that start in
padding attention weight zero, and training keeps the padding embedding
row at zero, so an all-padding window convolves to relu(bias).

One forward pass over float64 arrays, ``forward_graph``, serves training
and inference. It takes a batch of documents as a (B, max_len) id array.
``loss_and_grads`` runs it keeping its intermediates, then the model's
backward, written out layer by layer. All reductions run in a fixed
order, so identical seeds and inputs reproduce every value bit for bit.
``grad_check`` compares any such gradient with central differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .artifact import ChecksumError, read_artifact, write_artifact
from .config import ConfigError, Schema
from .corpus import LABELS, PAD_ID, DataContract, EncodedCase, Vocabulary, stack_cases
from .embedding import EmbeddingTable

FORMAT_NAME = "triagenet-model"
FORMAT_VERSION = 5
DEMOGRAPHICS_DIM = 3
ARCHITECTURES = ("acnn", "kimcnn")
PREDICT_CHUNK = 64  # cases per inference forward pass; bounds peak memory
NLL_FLOOR = 1e-12  # mean_nll's lower clamp on a picked probability


class ShapeError(ValueError):
    """Operands have incompatible or unsupported shapes."""


# -- array kernels -------------------------------------------------------------
# The forward's layers over plain float64 arrays, each checking its operands.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim not in (1, 2):
        raise ShapeError(f"matmul needs a matrix times a matrix or vector, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    return a @ b


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # x @ w + b, the bias added in the matmul's own output
    out = _matmul(x, w)
    if b.shape != out.shape[1:]:
        raise ShapeError(f"bias {b.shape} does not fit the product's rows {out.shape[1:]}")
    out += b
    return out


def _leading_columns(windows: np.ndarray, w: np.ndarray) -> np.ndarray:
    # the first w.shape[0] / k token vectors of each (M, k) window, as one row each
    if windows.ndim != 3 or w.ndim != 2:
        raise ShapeError(f"conv needs (N, M, k) windows and 2-D filters, got {windows.shape}, {w.shape}")
    n, widest, k = windows.shape
    if w.shape[0] % k or not 0 < w.shape[0] <= widest * k:
        raise ShapeError(f"filters of {w.shape[0]} rows do not span 1 to {widest} tokens of {k}")
    return windows.reshape(n, widest * k)[:, : w.shape[0]]  # a strided view, no copy


def _conv(windows: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(X @ w + b), one row per window, where X holds each (M, k) window's first
    w.shape[0] / k token vectors: filters of any width up to M read one block."""
    out = _affine(_leading_columns(windows, w), w, b)
    return np.maximum(out, 0.0, out=out)


def _tanh_affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _affine(x, w, b)
    return np.tanh(out, out=out)


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


def _check_rows(x: np.ndarray, seg: Segments, ndim: int) -> None:
    if x.ndim != ndim or x.shape[0] != seg.owner.size:
        raise ShapeError(f"segment op needs {ndim}-D input with {seg.owner.size} rows, got {x.shape}")


def _segment_softmax(v: np.ndarray, seg: Segments) -> np.ndarray:
    """Softmax of a vector within each segment: each run sums to one."""
    _check_rows(v, seg, 1)
    e = np.exp(v - np.maximum.reduceat(v, seg.starts)[seg.owner])
    return e / np.add.reduceat(e, seg.starts)[seg.owner]


def _segment_sum(w: np.ndarray, x: np.ndarray, seg: Segments) -> np.ndarray:
    """Row s of the (S, F) result is sum_r w[r] x[r] over run s."""
    _check_rows(w, seg, 1)
    _check_rows(x, seg, 2)
    return np.add.reduceat(w[:, None] * x, seg.starts, axis=0)


def _segment_max(x: np.ndarray, seg: Segments) -> np.ndarray:
    """Column-wise max over each segment's rows, (S, F) from (N, F)."""
    _check_rows(x, seg, 2)
    return np.maximum.reduceat(x, seg.starts, axis=0)


def _picked(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's index and its probability of its label."""
    if probs.ndim != 2 or labels.shape != probs.shape[:1] or labels.size == 0:
        raise ShapeError(f"mean_nll needs (B, C) probabilities and B labels, "
                         f"got {probs.shape} and {labels.shape}")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise IndexError(f"labels out of range for {probs.shape[1]} classes")
    rows = np.arange(labels.size)
    return rows, probs[rows, labels]


def mean_nll(probs: np.ndarray, labels) -> float:
    """Mean negative log-likelihood of ``labels`` under rows of probabilities.

    Each picked probability is clamped below at ``NLL_FLOOR`` so the loss
    stays finite; ``loss_and_grads`` passes a clamped entry no gradient.
    """
    _, p = _picked(probs, np.asarray(labels))
    # np.maximum propagates NaN, so a poisoned forward pass stays visible
    return float(np.mean(-np.log(np.maximum(p, NLL_FLOOR))))


@dataclass(frozen=True)
class ModelConfig(Schema):
    """Architecture shape knobs; the defaults are the desk-scale model the
    CLI trains, whose ``model`` config section starts from them.

    ``vocab_size`` comes from the corpus, and model files record it. The
    output layer has one unit per label of ``LABELS``.
    """

    section = "model"

    vocab_size: int
    max_len: int = 16
    embedding_dim: int = 32
    widths: tuple[int, ...] = (1, 2, 3)
    filters: int = 32
    attention_size: int = 24
    mlp_layers: tuple[int, ...] = (48,)
    dropout: float = 0.2
    arch: str = "acnn"

    def validate(self) -> None:
        super().validate()
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover padding and unknown ids")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if not self.widths or len(set(self.widths)) != len(self.widths):
            raise ConfigError("widths must be nonempty and unique")
        if any(m < 1 for m in self.widths):
            raise ConfigError("widths must be positive")
        if max(self.widths) > self.max_len:
            raise ConfigError(
                f"width {max(self.widths)} exceeds max_len {self.max_len}"
            )
        if self.embedding_dim < 1 or self.filters < 1 or self.attention_size < 1:
            raise ConfigError("embedding_dim, filters, attention_size must be >= 1")
        if any(h < 1 for h in self.mlp_layers):
            raise ConfigError("mlp layer sizes must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"arch must be one of {ARCHITECTURES}")

    @property
    def mlp_input_dim(self) -> int:
        return len(self.widths) * self.filters + DEMOGRAPHICS_DIM

    @cached_property
    def tensor_names(self) -> tuple[dict[int, tuple[str, ...]], tuple[tuple[str, str], ...]]:
        """``tensor_shapes``' names, looked up once per config: per width its conv filters,
        conv bias, attention projection, bias and context vector; then per MLP layer,
        output last, its weights and bias."""
        names = list(tensor_shapes(self))[1:]  # the embedding comes first
        n = 5 * len(self.widths)
        per_width = {m: tuple(names[5 * j : 5 * j + 5]) for j, m in enumerate(sorted(self.widths))}
        return per_width, tuple(zip(names[n::2], names[n + 1 :: 2]))


@dataclass
class ModelParams:
    """All trainable tensors, by name in file order (see ``tensor_shapes``), plus provenance."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    seed: int = 0
    data: DataContract | None = None  # what it was trained on; the CLI always sets it


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's name and shape, in file order: the model's one layout.

    The embedding table, then per width in ascending order the conv
    filters and bias and the attention projection, bias and context
    vector, then each MLP layer's weights and bias, the output layer last.
    """
    k, f, a = config.embedding_dim, config.filters, config.attention_size
    shapes = {"embedding": (config.vocab_size, k)}
    for m in sorted(config.widths):
        shapes.update({f"conv_w{m}": (m * k, f), f"conv_b{m}": (f,), f"attn_w{m}": (f, a),
                       f"attn_b{m}": (a,), f"attn_u{m}": (a,)})
    dims = [config.mlp_input_dim, *config.mlp_layers, len(LABELS)]
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        shapes.update({f"mlp_w{i}": (d_in, d_out), f"mlp_b{i}": (d_out,)})
    return shapes


@dataclass
class AttentionRecord:
    """Per-width attention weights for one document.

    Each vector has one entry per window position (max_len - m + 1);
    entries whose window lies fully in padding are zero and the rest
    sum to one.
    """

    alphas: dict[int, np.ndarray]
    n_tokens: int


@dataclass
class Prediction:
    """Inference output for one case; ``attention`` is None for kimcnn."""

    probs: np.ndarray
    predicted: int
    attention: AttentionRecord | None


def init_params(
    config: ModelConfig,
    seed: int,
    pretrained: EmbeddingTable | None = None,
) -> ModelParams:
    """Scaled-uniform init, deterministic in seed; padding row stays zero.

    Tensors are drawn in file order: the embedding uniform in ±0.05, every
    weight matrix (conv filters, attention projections, MLP layers) Glorot
    uniform over its two dimensions, each context vector uniform in
    ±sqrt(3 / attention_size), and biases zero. A pretrained embedding
    table replaces the random one after being rescaled to the
    initializer's root-mean-square entry size, so the layers above always
    start from inputs of the scale they expect.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    shapes = tensor_shapes(config)
    if pretrained is not None and pretrained.vectors.shape != shapes["embedding"]:
        raise ConfigError(
            f"pretrained table {pretrained.vectors.shape} does not match {shapes['embedding']}"
        )

    tensors = {}
    for name, shape in shapes.items():
        if name == "embedding" and pretrained is not None:
            values = pretrained.vectors.copy()
            # one global scalar brings the table to the scale the layers
            # above were initialized for; cosines and norm ratios survive
            rms = float(np.sqrt(np.mean(np.square(values[PAD_ID + 1 :]))))
            if rms > 0.0:
                values *= (0.05 / np.sqrt(3.0)) / rms
        elif name == "embedding":
            values = rng.uniform(-0.05, 0.05, size=shape)
        elif len(shape) == 2:
            limit = np.sqrt(6.0 / sum(shape))
            values = rng.uniform(-limit, limit, size=shape)
        elif name.startswith("attn_u"):
            values = rng.uniform(-np.sqrt(3.0 / shape[0]), np.sqrt(3.0 / shape[0]), size=shape)
        else:
            values = np.zeros(shape)
        tensors[name] = values
    tensors["embedding"][PAD_ID] = 0.0
    return ModelParams(config=config, tensors=tensors, seed=seed)


def doc_lengths(ids: np.ndarray) -> np.ndarray:
    """Number of leading non-padding positions in each row of ``ids``."""
    real = np.asarray(ids) != PAD_ID
    if not np.logical_and.reduce(np.logical_or.reduce(real, axis=1)):
        raise ShapeError("document contains no real tokens")
    return real.shape[1] - real[:, ::-1].argmax(axis=1)


def attend(
    params: ModelParams, feats: np.ndarray, seg: Segments, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Additive attention over each document's feature rows: returns (pooled, weights, projection).

    ``feats`` is (N, filters), the rows of each document one segment of
    ``seg``. Pooled is (B, filters); weights are (N,) and sum to one
    within each document; the projection tanh(feats @ w + b) is (N,
    attention_size), kept for the backward.
    """
    t = params.tensors
    w, b, context = params.config.tensor_names[0][m][2:]
    u = _tanh_affine(feats, t[w], t[b])
    alpha = _segment_softmax(_matmul(u, t[context]), seg)
    return _segment_sum(alpha, feats, seg), alpha, u


def window_rows(
    counts: np.ndarray, n_windows: int, row_len: int
) -> tuple[Segments, np.ndarray]:
    """A batch's windows, packed one document after another in row-major order.

    Document b keeps its first min(counts_b, n_windows) window starts;
    with counts the document lengths, those are the windows that start
    before its end and fit the max_len columns. Returns the documents as
    segments of rows, and each row's first token in the flattened ids,
    rows of ``row_len`` apart.
    """
    seg = Segments(np.minimum(counts, n_windows))
    doc = seg.owner
    return seg, doc * row_len + np.arange(doc.size) - seg.starts[doc]


def forward_graph(
    params: ModelParams,
    ids: np.ndarray,
    demographics: np.ndarray,
    *,
    dropout_rng: np.random.Generator | None = None,
    cache: dict | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
    """Forward pass for a batch of documents.

    ``ids`` is (B, max_len) and ``demographics`` (B, 3). Returns the
    (B, len(LABELS)) probabilities; for acnn, each width's attention over its
    packed rows, the first min(len_b, max_len - m + 1) window starts of
    each document b in turn, each document's run summing to one; and each
    document's length in tokens. Dropout runs after each hidden MLP layer
    exactly when ``dropout_rng`` is given, drawing from it. Given a dict
    as ``cache``, the pass leaves its intermediates there for the
    backward; ``cache["relu"]`` lists its relu outputs, each width's
    convolution in config order and then each hidden layer's.

    Only real windows are computed, plus for kimcnn one all-padding window
    per document that has one, last in its run so a real window wins ties.
    The row layout depends on the width only through max_len - m + 1, so
    widths whose windows all fit share one layout. Each layout's windows
    of its widest width are gathered from the embedding table once, as one
    (N, widest, embedding_dim) block; each width's convolution reads its
    leading m tokens. Attention and pooling run per document over segments
    of the rows.
    """
    cfg, t = params.config, params.tensors
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ShapeError(f"ids must have shape (B, {cfg.max_len}), got {ids.shape}")
    lengths = doc_lengths(ids)

    L = ids.shape[1]
    counts = lengths + (cfg.arch == "kimcnn")  # kimcnn also pools one all-padding window
    longest = int(np.maximum.reduce(counts))
    keys = {m: min(L - m + 1, longest) for m in cfg.widths}  # every longer cap gives the same rows
    layouts = {}
    for key in dict.fromkeys(keys.values()):
        widest = max(m for m in cfg.widths if keys[m] == key)
        seg, first = window_rows(counts, key, L)
        windows = ids.ravel()[first[:, None] + np.arange(widest)]  # key <= L - widest + 1: in row
        layouts[key] = seg, windows, _lookup(t["embedding"], windows)
    pooled, attention, conv_relu, projected = [], {}, [], {}
    for m in cfg.widths:
        seg, _, block = layouts[keys[m]]
        w, b = cfg.tensor_names[0][m][:2]
        feats = _conv(block, t[w], t[b])
        if cfg.arch == "kimcnn":
            pooled.append(_segment_max(feats, seg))
            u = None
        else:
            s, attention[m], u = attend(params, feats, seg, m)
            pooled.append(s)
        if cache is not None:
            conv_relu.append(feats)
            projected[m] = u
        del feats, u  # without a cache, freed before the next width's convolution allocates

    h = np.concatenate(pooled + [np.asarray(demographics, dtype=np.float64)], axis=-1)
    inputs, hidden_relu, masks = [h], [], []
    *hidden, (w, b) = cfg.tensor_names[1]
    for hidden_w, hidden_b in hidden:
        h = _affine(h, t[hidden_w], t[hidden_b])
        hidden_relu.append(np.maximum(h, 0.0, out=h))
        mask = None
        if dropout_rng is not None and cfg.dropout > 0.0:  # inverted dropout
            mask = (dropout_rng.random(h.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            h = h * mask
        masks.append(mask)
        inputs.append(h)
    probs = _softmax(_affine(h, t[w], t[b]))
    if cache is not None:
        cache.update(layouts=layouts, keys=keys, relu=conv_relu + hidden_relu, pooled=pooled,
                     projected=projected, inputs=inputs, masks=masks)
    return probs, attention, lengths


def loss_and_grads(
    params: ModelParams,
    ids: np.ndarray,
    demographics: np.ndarray,
    labels: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The batch's ``mean_nll`` and its gradient for each tensor, by name.

    Runs ``forward_graph`` keeping its intermediates, then the backward:
    the loss and softmax, the MLP from the top, each width in config
    order, and each layout's window gather once its last width is done.
    Each layer's gradient is the arithmetic of reverse mode over the
    forward's ops, step by step, so the values are those of a general
    tape to the bit. kimcnn's attention tensors get no entry. The padding
    embedding row gets its true gradient; ``train`` zeroes it.
    """
    cfg, t = params.config, params.tensors
    cache: dict = {}
    probs, attention, _ = forward_graph(params, ids, demographics,
                                        dropout_rng=dropout_rng, cache=cache)
    labels = np.asarray(labels)
    loss = mean_nll(probs, labels)
    rows, p = _picked(probs, labels)
    g = np.zeros_like(probs)  # a clamped probability passes no gradient
    g[rows, labels] = np.where(p > NLL_FLOOR, -(1.0 / labels.size) / np.maximum(p, NLL_FLOOR), 0.0)
    g = probs * (g - (g * probs).sum(axis=-1, keepdims=True))

    grads: dict[str, np.ndarray] = {}
    per_width, mlp = cfg.tensor_names
    relu, n_widths = cache["relu"], len(cfg.widths)
    for i in reversed(range(len(mlp))):
        w, b = mlp[i]
        grads[b] = g.sum(axis=0)
        grads[w] = cache["inputs"][i].T @ g
        g = g @ t[w].T
        if i:  # back through the hidden layer below: its dropout, then its relu
            if cache["masks"][i - 1] is not None:
                g *= cache["masks"][i - 1]
            g *= relu[n_widths + i - 1] > 0.0

    keys, layouts = cache["keys"], cache["layouts"]
    last = {key: m for m, key in keys.items()}  # each layout's last width in config order
    block_grads: dict[int, np.ndarray] = {}
    emb, k, f = t["embedding"], cfg.embedding_dim, cfg.filters
    for j, m in enumerate(cfg.widths):
        key = keys[m]
        seg, windows, block = layouts[key]
        conv_w, conv_b, attn_w, attn_b, context = per_width[m]
        feats, g_pooled = relu[j], g[:, j * f : (j + 1) * f]
        if cfg.arch == "kimcnn":  # to the first maximal row of each document and column
            hits = np.where(feats == cache["pooled"][j][seg.owner],
                            np.arange(len(feats))[:, None], len(feats))
            g_feats = np.zeros_like(feats)
            g_feats[np.minimum.reduceat(hits, seg.starts, axis=0), np.arange(f)] = g_pooled
        else:
            alpha, u = attention[m], cache["projected"][m]
            g_feats = g_pooled.take(seg.owner, axis=0)
            g_alpha = np.einsum("rf,rf->r", feats, g_feats)
            g_feats *= alpha[:, None]
            g_logits = alpha * (g_alpha - np.add.reduceat(g_alpha * alpha, seg.starts)[seg.owner])
            g_logits = g_logits.reshape(-1, 1)  # u @ context's backward, the vector as a column
            grads[context] = (u.T @ g_logits).reshape(t[context].shape)
            g_u = u * u  # through the tanh
            np.subtract(1.0, g_u, out=g_u)
            g_u *= g_logits @ t[context].reshape(-1, 1).T
            grads[attn_b] = g_u.sum(axis=0)
            g_feats += g_u @ t[attn_w].T
            grads[attn_w] = feats.T @ g_u
        g_feats *= feats > 0.0  # feats > 0 exactly where the pre-activation was
        W = t[conv_w]
        grads[conv_w] = _leading_columns(block, W).T @ g_feats
        grads[conv_b] = g_feats.sum(axis=0)
        if key not in block_grads:  # the first width back writes its columns and zeros the rest
            block_grads[key] = g_block = np.empty_like(block)
            g_rows = g_block.reshape(len(block), -1)
            np.matmul(g_feats, W.T, out=g_rows[:, : W.shape[0]])
            g_rows[:, W.shape[0] :] = 0.0
        else:
            block_grads[key].reshape(len(block), -1)[:, : W.shape[0]] += g_feats @ W.T
        if last[key] == m:  # the gather's gradient: one count over (row, column) cells
            cells = (windows[..., None] * k + np.arange(k)).reshape(-1)
            g_emb = np.bincount(cells, weights=block_grads.pop(key).reshape(-1),
                                minlength=emb.size).reshape(emb.shape)
            if "embedding" in grads:
                grads["embedding"] += g_emb
            else:
                grads["embedding"] = g_emb
    return loss, grads


def _forward_chunks(params: ModelParams, ids: np.ndarray, demographics: np.ndarray):
    """The forward over a batch, PREDICT_CHUNK cases per pass, keeping no intermediates.

    Yields each chunk's rows of the batch, an index array, or ``slice(None)``
    when one pass takes the whole batch in order, with ``forward_graph``'s
    outputs for those rows. A batch that fills more than one chunk is
    sorted by length first: packing computes the same rows in any order,
    but chunks of like lengths measured about 6% faster on fulltext
    documents. A case's outputs do not depend on its batch mates beyond
    float rounding: each document's windows are computed and pooled on
    their own rows.
    """
    if len(ids) <= PREDICT_CHUNK:  # one pass in the caller's order, or none
        if len(ids):
            yield slice(None), *forward_graph(params, ids, demographics)
        return
    order = np.argsort(doc_lengths(ids), kind="stable")
    for start in range(0, len(ids), PREDICT_CHUNK):
        rows = order[start : start + PREDICT_CHUNK]
        yield rows, *forward_graph(params, ids[rows], demographics[rows])


def predict_probs(params: ModelParams, ids: np.ndarray, demographics: np.ndarray) -> np.ndarray:
    """Class probabilities, (B, len(LABELS)), for (B, max_len) ids and (B, 3) demographics:
    ``predict_attention``'s chunked forward, without the attention."""
    probs = np.empty((len(ids), len(LABELS)))
    for rows, chunk_probs, _, _ in _forward_chunks(params, ids, demographics):
        probs[rows] = chunk_probs
    return probs


def _batch_outputs(cfg: ModelConfig, n: int):
    """Unfilled probabilities, attention and lengths for a batch of ``n`` cases."""
    attention = ({m: np.empty((n, cfg.max_len - m + 1)) for m in cfg.widths}
                 if cfg.arch == "acnn" else {})
    return np.empty((n, len(LABELS))), attention, np.empty(n, dtype=np.int64)


def predict_attention(
    params: ModelParams, ids: np.ndarray, demographics: np.ndarray
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
    """The chunked forward with attention, in the caller's order.

    Takes (B, max_len) ids and (B, 3) demographics; returns the (B,
    len(LABELS)) probabilities, each width m's attention as a (B, max_len
    - m + 1) array of window positions, zero where a window starts in
    padding (none for kimcnn), and each case's length in tokens.
    """
    cfg = params.config
    out = None  # filled chunk by chunk when a pass covers part of the batch
    for rows, probs, attention, lengths in _forward_chunks(params, ids, demographics):
        starts_inside = np.arange(cfg.max_len) < lengths[:, None]
        for m, alpha in attention.items():
            attention[m] = dense = np.zeros((len(lengths), cfg.max_len - m + 1))
            dense[starts_inside[:, : dense.shape[1]]] = alpha  # the rows are packed row-major
        if isinstance(rows, slice):  # one pass over the whole batch, in its order
            return probs, attention, lengths
        out = out or _batch_outputs(cfg, len(ids))
        out[0][rows], out[2][rows] = probs, lengths
        for m, dense in attention.items():
            out[1][m][rows] = dense
    return out or _batch_outputs(cfg, 0)


def predict_batch(params: ModelParams, cases: list[EncodedCase]) -> list[Prediction]:
    """Inference over ``cases``, in the caller's order: one ``Prediction`` per case."""
    return _predictions(params, *stack_cases(cases)[:2])


def predict(params: ModelParams, case: EncodedCase) -> Prediction:
    """Inference-mode forward for one case: probabilities, label, attention."""
    # views of the case's arrays: the one-case request path skips predict_batch's copies
    return _predictions(params, case.ids[None], case.demographics[None])[0]


def _predictions(params: ModelParams, ids: np.ndarray, demographics: np.ndarray
                 ) -> list[Prediction]:
    """``predict_attention``'s probabilities, label and attention, one record per case."""
    probs, attention, lengths = predict_attention(params, ids, demographics)
    return [
        Prediction(probs=p, predicted=int(p.argmax()), attention=AttentionRecord(
            {m: a[i] for m, a in attention.items()}, n) if attention else None)
        for i, (p, n) in enumerate(zip(probs, lengths.tolist()))
    ]


# -- persistence -------------------------------------------------------------


def save_model(params: ModelParams, path) -> None:
    """One JSON header line, then every tensor as little-endian float64, in file order."""
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
              "config": asdict(params.config), "seed": params.seed}
    write_artifact(path, header, params.tensors, params.data)


def load_model(path) -> ModelParams:
    """Read a model file, its data record included (None if it was saved without one)."""
    header, arrays, data = read_artifact(path, FORMAT_NAME, FORMAT_VERSION,
                                         {"config": dict, "seed": int})
    try:  # a nested value of the wrong type surfaces here as TypeError or ValueError
        config = ModelConfig.from_dict(header["config"])
        if data is not None and len(Vocabulary(data.tokens)) != config.vocab_size:
            raise ChecksumError(f"data record's vocabulary does not fit {config.vocab_size} rows")
    except (TypeError, ValueError) as e:
        raise ChecksumError(f"malformed {FORMAT_NAME} header: {e}") from e
    if [(name, a.shape) for name, a in arrays.items()] != list(tensor_shapes(config).items()):
        raise ChecksumError("stored tensors do not match the model config's layout")
    return ModelParams(config=config, tensors=arrays, seed=header["seed"], data=data)


# -- gradient checking -------------------------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference gradient comparison; ``excluded`` lists
    (array name, flat index) pairs."""

    max_rel_error: float
    checked: int
    excluded: list[tuple[str, int]] = field(default_factory=list)


def _loss_and_relu(f: Callable[[], tuple[float, list[np.ndarray]]]) -> tuple[float, np.ndarray]:
    loss, relu = f()
    return float(loss), np.concatenate([r.reshape(-1) for r in relu]) if relu else np.empty(0)


def grad_check(
    f: Callable[[], tuple[float, list[np.ndarray]]],
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    eps: float = 1e-5,
) -> GradCheckReport:
    """Compare the analytic gradients ``grads`` against central differences of ``f``.

    ``f`` computes the scalar loss from the arrays of ``params``, which
    this perturbs in place one coordinate at a time, and returns it with
    the pass's relu outputs. A gradient missing from ``grads`` is zero.
    The relative error per coordinate is |analytic - numeric| /
    max(1, |analytic|, |numeric|). A coordinate is excluded when its
    perturbation flips a relu gate between the two perturbed passes, or
    moves a relu output that lies within 10 * eps of zero: the central
    difference is unreliable near the kink.
    """
    max_err = 0.0
    checked = 0
    excluded: list[tuple[str, int]] = []
    for name, p in params.items():
        analytic = grads[name].reshape(-1) if name in grads else np.zeros(p.size)
        for ci in range(p.size):
            orig = p.flat[ci]
            p.flat[ci] = orig + eps
            y_hi, hi = _loss_and_relu(f)
            p.flat[ci] = orig - eps
            y_lo, lo = _loss_and_relu(f)
            p.flat[ci] = orig

            if hi.size != lo.size:
                raise RuntimeError("f must evaluate the same relu units on every call")
            moved = hi != lo
            near_kink = np.minimum(np.abs(hi), np.abs(lo)) < 10.0 * eps
            gate_flip = (hi > 0.0) != (lo > 0.0)
            if np.any(gate_flip | (moved & near_kink)):
                excluded.append((name, ci))
                continue

            numeric = (y_hi - y_lo) / (2.0 * eps)
            a = float(analytic[ci])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_err = max(max_err, err)
            checked += 1

    return GradCheckReport(max_rel_error=max_err, checked=checked, excluded=excluded)
