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
this module's concern: ``predict_batch`` gives windows that start in
padding attention weight zero, and training keeps the padding embedding
row at zero, so an all-padding window convolves to relu(bias).

One forward pass, ``forward_graph``, serves training and inference. It
takes a batch of documents as a (B, max_len) id array and is written
over an ops namespace: training passes ``autodiff`` and gets one graph
to differentiate; inference passes ``autodiff.TapeFree`` and gets plain
arrays from the same arithmetic, with no tape built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .artifact import ChecksumError, read_artifact, write_artifact
from .autodiff import Tensor
from .config import ConfigError, Schema
from .corpus import LABELS, PAD_ID, DataContract, EncodedCase, Vocabulary
from .embedding import EmbeddingTable

FORMAT_NAME = "triagenet-model"
FORMAT_VERSION = 3
DEMOGRAPHICS_DIM = 3
ARCHITECTURES = ("acnn", "kimcnn")
PREDICT_CHUNK = 64  # cases per inference forward pass; bounds peak memory

Activation = Tensor | np.ndarray  # a tensor in the taped pass, an array in the tape-free one


@dataclass(frozen=True)
class ModelConfig(Schema):
    """Architecture shape knobs; defaults follow the full-scale setup.

    ``vocab_size`` comes from the corpus and ``n_classes`` is always
    ``len(LABELS)``; model files record both.
    """

    section = "model"

    vocab_size: int
    max_len: int
    embedding_dim: int = 200
    widths: tuple[int, ...] = (1, 2, 3, 4, 5)
    filters: int = 128
    attention_size: int = 100
    mlp_layers: tuple[int, ...] = (256, 64)
    dropout: float = 0.2
    n_classes: int = 3
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
        if self.n_classes != len(LABELS):
            raise ConfigError(f"n_classes must be {len(LABELS)}, one per label")
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"arch must be one of {ARCHITECTURES}")

    @property
    def mlp_input_dim(self) -> int:
        return len(self.widths) * self.filters + DEMOGRAPHICS_DIM


@dataclass
class ModelParams:
    """All trainable tensors plus provenance for serialization."""

    config: ModelConfig
    embedding: Tensor
    conv_w: dict[int, Tensor]
    conv_b: dict[int, Tensor]
    attn_w: dict[int, Tensor]
    attn_b: dict[int, Tensor]
    attn_u: dict[int, Tensor]
    mlp: list[tuple[Tensor, Tensor]]
    seed: int = 0
    data: DataContract | None = None  # what it was trained on; the CLI always sets it

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every tensor under a stable name; this order defines the file layout."""
        out = [("embedding", self.embedding)]
        for m in sorted(self.conv_w):
            out.append((f"conv_w{m}", self.conv_w[m]))
            out.append((f"conv_b{m}", self.conv_b[m]))
            out.append((f"attn_w{m}", self.attn_w[m]))
            out.append((f"attn_b{m}", self.attn_b[m]))
            out.append((f"attn_u{m}", self.attn_u[m]))
        for i, (w, b) in enumerate(self.mlp):
            out.append((f"mlp_w{i}", w))
            out.append((f"mlp_b{i}", b))
        return out

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()

    def n_parameters(self) -> int:
        return sum(t.data.size for _, t in self.parameters())


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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    config: ModelConfig,
    seed: int,
    pretrained: EmbeddingTable | None = None,
) -> ModelParams:
    """Scaled-uniform init, deterministic in seed; padding row stays zero.

    A pretrained embedding table replaces the random one after being
    rescaled to the initializer's root-mean-square entry size, so the
    layers above always start from inputs of the scale they expect.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    k, f, a = config.embedding_dim, config.filters, config.attention_size

    if pretrained is not None:
        if pretrained.vectors.shape != (config.vocab_size, k):
            raise ConfigError(
                f"pretrained table {pretrained.vectors.shape} does not match "
                f"({config.vocab_size}, {k})"
            )
        emb = pretrained.vectors.copy()
        # one global scalar brings the table to the scale the layers
        # above were initialized for; cosines and norm ratios survive
        rms = float(np.sqrt(np.mean(np.square(emb[PAD_ID + 1 :]))))
        if rms > 0.0:
            emb *= (0.05 / np.sqrt(3.0)) / rms
    else:
        emb = rng.uniform(-0.05, 0.05, size=(config.vocab_size, k))
    emb[PAD_ID] = 0.0
    embedding = Tensor(emb)

    conv_w, conv_b = {}, {}
    attn_w, attn_b, attn_u = {}, {}, {}
    for m in config.widths:
        conv_w[m] = Tensor(_glorot(rng, m * k, f, (m * k, f)))
        conv_b[m] = Tensor(np.zeros(f))
        attn_w[m] = Tensor(_glorot(rng, f, a, (f, a)))
        attn_b[m] = Tensor(np.zeros(a))
        attn_u[m] = Tensor(rng.uniform(-np.sqrt(3.0 / a), np.sqrt(3.0 / a), size=a))

    mlp: list[tuple[Tensor, Tensor]] = []
    dims = [config.mlp_input_dim, *config.mlp_layers, config.n_classes]
    for d_in, d_out in zip(dims, dims[1:]):
        mlp.append((Tensor(_glorot(rng, d_in, d_out, (d_in, d_out))), Tensor(np.zeros(d_out))))

    return ModelParams(
        config=config,
        embedding=embedding,
        conv_w=conv_w,
        conv_b=conv_b,
        attn_w=attn_w,
        attn_b=attn_b,
        attn_u=attn_u,
        mlp=mlp,
        seed=seed,
    )


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
    p = ops.param
    n, m = windows.shape
    rows = ops.reshape(ops.lookup(p(params.embedding), windows), (n, m * params.config.embedding_dim))
    return ops.relu(ops.add(ops.matmul(rows, p(params.conv_w[m])), p(params.conv_b[m])))


def attend(
    params: ModelParams, feats: Activation, seg: ad.Segments, m: int, ops=ad
) -> tuple[Activation, Activation]:
    """Additive attention over each document's feature rows: returns (pooled, weights).

    ``feats`` is (N, filters), the rows of each document one segment of
    ``seg``. Pooled is (B, filters); weights are (N,) and sum to one
    within each document.
    """
    p = ops.param
    u = ops.tanh(ops.add(ops.matmul(feats, p(params.attn_w[m])), p(params.attn_b[m])))
    alpha = ops.segment_softmax(ops.matmul(u, p(params.attn_u[m])), seg)
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
    (B, n_classes) probabilities; for acnn, each width's attention over its
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
    for w, b in params.mlp[:-1]:
        h = ops.relu(ops.add(ops.matmul(h, p(w)), p(b)))
        if dropout_rng is not None:
            h = ops.dropout(h, cfg.dropout, dropout_rng)
    w_out, b_out = params.mlp[-1]
    probs = ops.softmax(ops.add(ops.matmul(h, p(w_out)), p(b_out)))
    return probs, attention, lengths


def predict_batch(params: ModelParams, cases: list[EncodedCase]) -> list[Prediction]:
    """Inference over ``cases``: the tape-free forward, PREDICT_CHUNK cases per pass.

    Cases that fill more than one chunk are sorted by length first and
    the predictions come back in the caller's order. Packing computes
    the same rows in any order, but chunks of like lengths measured about
    6% faster on fulltext documents. A prediction does not depend on its
    batch mates beyond float rounding: each document's windows are
    computed and pooled on their own rows.
    """
    cfg = params.config
    order = range(len(cases))
    if len(cases) > PREDICT_CHUNK:
        order = np.argsort(doc_lengths(np.array([c.ids for c in cases])), kind="stable")
    preds: list[Prediction] = [None] * len(cases)
    for start in range(0, len(cases), PREDICT_CHUNK):
        rows = order[start : start + PREDICT_CHUNK]
        chunk = [cases[i] for i in rows]
        probs, attention, lengths = forward_graph(
            params,
            np.array([c.ids for c in chunk]),
            np.array([c.demographics for c in chunk]),
            ops=ad.TapeFree,
        )
        starts_inside = np.arange(cfg.max_len) < lengths[:, None]
        for m, alpha in attention.items():
            attention[m] = dense = np.zeros((len(chunk), cfg.max_len - m + 1))
            dense[starts_inside[:, : dense.shape[1]]] = alpha  # the rows are packed row-major
        for i, (row, p) in enumerate(zip(rows, probs)):
            record = None
            if cfg.arch == "acnn":
                record = AttentionRecord({m: a[i] for m, a in attention.items()}, int(lengths[i]))
            preds[row] = Prediction(probs=p, predicted=int(p.argmax()), attention=record)
    return preds


def predict(params: ModelParams, case: EncodedCase) -> Prediction:
    """Inference-mode forward for one case: probabilities, label, attention."""
    return predict_batch(params, [case])[0]


# -- persistence -------------------------------------------------------------


def save_model(params: ModelParams, path) -> None:
    """One JSON header line, then every parameter as little-endian float64."""
    named = params.parameters()
    blob = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes() for _, t in named)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": asdict(params.config),
        "seed": params.seed,
        "data": None if params.data is None else vars(params.data),
        "params": [[name, list(t.data.shape)] for name, t in named],
    }
    write_artifact(path, header, blob)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape under its name, in ``ModelParams.parameters`` order."""
    k, f, a = config.embedding_dim, config.filters, config.attention_size
    shapes = {"embedding": (config.vocab_size, k)}
    for m in sorted(config.widths):
        shapes.update({f"conv_w{m}": (m * k, f), f"conv_b{m}": (f,), f"attn_w{m}": (f, a),
                       f"attn_b{m}": (a,), f"attn_u{m}": (a,)})
    dims = [config.mlp_input_dim, *config.mlp_layers, config.n_classes]
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        shapes.update({f"mlp_w{i}": (d_in, d_out), f"mlp_b{i}": (d_out,)})
    return shapes


def load_model(path) -> ModelParams:
    """Read a model file, its data record included (None if it was saved without one)."""
    required = {"config": dict, "seed": int, "data": (dict, type(None)), "params": list}
    header, blob = read_artifact(path, FORMAT_NAME, FORMAT_VERSION, required)
    try:  # a nested value of the wrong type surfaces here as TypeError or ValueError
        config = ModelConfig.from_dict(header["config"])
        data = None if header["data"] is None else DataContract.from_dict(header["data"])
        stored = {name: tuple(shape) for name, shape in header["params"]}
        if data is not None and len(Vocabulary(data.tokens)) != config.vocab_size:
            raise ChecksumError(f"data record's vocabulary does not fit {config.vocab_size} rows")
    except (TypeError, ValueError) as e:
        raise ChecksumError(f"malformed {FORMAT_NAME} header: {e}") from e
    shapes = _param_shapes(config)
    if stored != shapes:
        raise ChecksumError("stored parameter shapes do not match the model config")
    expected_bytes = 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != expected_bytes:
        raise ChecksumError(f"blob holds {len(blob)} bytes, header implies {expected_bytes}")
    tensors, offset = {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape) * 8
        array = np.frombuffer(blob[offset : offset + n], dtype="<f8").reshape(shape)
        tensors[name] = Tensor(array.astype(np.float64))
        offset += n
    per_width = {
        kind: {m: tensors[f"{kind}{m}"] for m in config.widths}
        for kind in ("conv_w", "conv_b", "attn_w", "attn_b", "attn_u")
    }
    mlp = [(tensors[f"mlp_w{i}"], tensors[f"mlp_b{i}"]) for i in range(len(config.mlp_layers) + 1)]
    return ModelParams(config=config, embedding=tensors["embedding"], mlp=mlp,
                       seed=header["seed"], data=data, **per_width)
