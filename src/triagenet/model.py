"""Attention-pooled multi-width text CNN for three-class triage.

For each window width m the document embedding matrix runs through a
valid convolution with full-width filters into a feature map of
L - m + 1 rows. The "acnn" architecture pools those rows with learned
additive attention (so every window position gets a weight); "kimcnn"
replaces the pooling with a per-column max. Pooled vectors from all
widths, concatenated with a small demographics vector, feed a relu MLP
with a softmax head.

Only real windows are computed: a batch's windows that start before
their document's end are packed into one matrix of rows, gathered
straight from the embedding table, and attention and pooling run over
each document's run of rows. kimcnn's max pool also sees a document's
first all-padding window, where it has one, as its last row. Padding is
this module's concern: ``predict_attention`` gives windows that start in
padding attention weight zero, and training keeps the padding embedding
row at zero, so an all-padding window convolves to relu(bias).

One forward pass, ``forward_graph``, serves training and inference. It
takes a batch of documents as a (B, max_len) id array and is written
over an ops namespace: training passes ``autodiff`` and gets one graph
to differentiate; inference passes ``autodiff.TapeFree`` and gets plain
arrays from the same arithmetic, with no tape built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .artifact import ChecksumError, read_artifact, write_artifact
from .autodiff import Tensor
from .config import ConfigError, Schema
from .corpus import LABELS, PAD_ID, DataContract, EncodedCase, Vocabulary
from .embedding import EmbeddingTable

FORMAT_NAME = "triagenet-model"
FORMAT_VERSION = 5
DEMOGRAPHICS_DIM = 3
ARCHITECTURES = ("acnn", "kimcnn")
PREDICT_CHUNK = 64  # cases per inference forward pass; bounds peak memory

Activation = Tensor | np.ndarray  # a tensor in the taped pass, an array in the tape-free one


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
    tensors: dict[str, Tensor]
    seed: int = 0
    data: DataContract | None = None  # what it was trained on; the CLI always sets it

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()


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
        tensors[name] = Tensor(values)
    tensors["embedding"].data[PAD_ID] = 0.0
    return ModelParams(config=config, tensors=tensors, seed=seed)


def doc_lengths(ids: np.ndarray) -> np.ndarray:
    """Number of leading non-padding positions in each row of ``ids``."""
    real = np.asarray(ids) != PAD_ID
    if not np.logical_and.reduce(np.logical_or.reduce(real, axis=1)):
        raise ad.ShapeError("document contains no real tokens")
    return real.shape[1] - real[:, ::-1].argmax(axis=1)


def ngram_encode(params: ModelParams, windows: np.ndarray, ops=ad) -> Activation:
    """Relu convolution of token windows gathered straight from the embedding table.

    ``windows`` is an (N, m) id array, one window of width m per row; the
    result is (N, filters), one feature row per window.
    """
    p, t = ops.param, params.tensors
    n, m = windows.shape
    w, b = params.config.tensor_names[0][m][:2]
    rows = ops.reshape(ops.lookup(p(t["embedding"]), windows), (n, m * params.config.embedding_dim))
    return ops.relu(ops.add(ops.matmul(rows, p(t[w])), p(t[b])))


def attend(
    params: ModelParams, feats: Activation, seg: ad.Segments, m: int, ops=ad
) -> tuple[Activation, Activation]:
    """Additive attention over each document's feature rows: returns (pooled, weights).

    ``feats`` is (N, filters), the rows of each document one segment of
    ``seg``. Pooled is (B, filters); weights are (N,) and sum to one
    within each document.
    """
    p, t = ops.param, params.tensors
    w, b, context = params.config.tensor_names[0][m][2:]
    u = ops.tanh(ops.add(ops.matmul(feats, p(t[w])), p(t[b])))
    alpha = ops.segment_softmax(ops.matmul(u, p(t[context])), seg)
    return ops.segment_sum(alpha, feats, seg), alpha


def window_rows(
    counts: np.ndarray, n_windows: int, row_len: int
) -> tuple[ad.Segments, np.ndarray]:
    """A batch's windows, packed one document after another in row-major order.

    Document b keeps its first min(counts_b, n_windows) window starts;
    with counts the document lengths, those are the windows that start
    before its end and fit the max_len columns. Returns the documents as
    segments of rows, and each row's first token in the flattened ids,
    rows of ``row_len`` apart.
    """
    seg = ad.Segments(np.minimum(counts, n_windows))
    doc = seg.owner
    return seg, doc * row_len + np.arange(doc.size) - seg.starts[doc]


def forward_graph(
    params: ModelParams,
    ids: np.ndarray,
    demographics: np.ndarray,
    *,
    dropout_rng: np.random.Generator | None = None,
    ops=ad,
) -> tuple[Activation, dict[int, Activation], np.ndarray]:
    """Forward pass for a batch of documents, over the ops namespace ``ops``.

    ``ids`` is (B, max_len) and ``demographics`` (B, 3). Returns the
    (B, len(LABELS)) probabilities; for acnn, each width's attention over its
    packed rows, the first min(len_b, max_len - m + 1) window starts of
    each document b in turn, each document's run summing to one; and each
    document's length in tokens. With ``autodiff`` (the default) the first
    two are tensors of one differentiable graph; with ``autodiff.TapeFree``
    they are plain arrays with the same values. Dropout runs after each
    hidden MLP layer exactly when ``dropout_rng`` is given, drawing from it.

    Only real windows are computed, plus for kimcnn one all-padding window
    per document that has one, last in its run so a real window wins ties:
    those of each width are gathered from the embedding table as one packed
    batch of rows, and attention and pooling run per document over segments
    of those rows. The row layout depends on the width only through
    max_len - m + 1, so widths whose windows all fit share one layout.
    """
    cfg = params.config
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ad.ShapeError(f"ids must have shape (B, {cfg.max_len}), got {ids.shape}")
    lengths = doc_lengths(ids)

    B, L = ids.shape
    widest = max(cfg.widths)
    # padded so that every layout's rows can take windows of the widest width
    padded = np.zeros((B, L + widest - 1), dtype=ids.dtype)
    padded[:, :L] = ids
    counts = lengths + (cfg.arch == "kimcnn")  # kimcnn also pools one all-padding window
    longest = int(np.maximum.reduce(counts))
    layouts = {}
    p = ops.param
    pooled: list[Activation] = []
    attention: dict[int, Activation] = {}
    for m in cfg.widths:
        n_windows = L - m + 1
        key = min(n_windows, longest)  # every longer cap gives the same rows
        if key not in layouts:
            seg, first = window_rows(counts, n_windows, padded.shape[1])
            layouts[key] = seg, padded.ravel()[first[:, None] + np.arange(widest)]
        seg, windows = layouts[key]
        feats = ngram_encode(params, windows[:, :m], ops)
        if cfg.arch == "kimcnn":
            pooled.append(ops.segment_max(feats, seg))
            continue
        s, attention[m] = attend(params, feats, seg, m, ops)
        pooled.append(s)

    h = ops.concat(pooled + [ops.constant(demographics)])
    t = params.tensors
    *hidden, (w, b) = cfg.tensor_names[1]
    for hidden_w, hidden_b in hidden:
        h = ops.relu(ops.add(ops.matmul(h, p(t[hidden_w])), p(t[hidden_b])))
        if dropout_rng is not None:
            h = ops.dropout(h, cfg.dropout, dropout_rng)
    probs = ops.softmax(ops.add(ops.matmul(h, p(t[w])), p(t[b])))
    return probs, attention, lengths


def _forward_chunks(params: ModelParams, ids: np.ndarray, demographics: np.ndarray):
    """The tape-free forward over a batch, PREDICT_CHUNK cases per pass.

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
            yield slice(None), *forward_graph(params, ids, demographics, ops=ad.TapeFree)
        return
    order = np.argsort(doc_lengths(ids), kind="stable")
    for start in range(0, len(ids), PREDICT_CHUNK):
        rows = order[start : start + PREDICT_CHUNK]
        yield rows, *forward_graph(params, ids[rows], demographics[rows], ops=ad.TapeFree)


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
    return _predictions(params, np.array([c.ids for c in cases]),
                        np.array([c.demographics for c in cases]))


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
    arrays = {name: t.data for name, t in params.tensors.items()}
    write_artifact(path, header, arrays, params.data)


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
    tensors = {name: Tensor(a) for name, a in arrays.items()}
    return ModelParams(config=config, tensors=tensors, seed=header["seed"], data=data)
