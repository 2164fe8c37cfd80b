"""Skip-gram word vectors with negative sampling, trained from scratch.

The table aligns row-for-row with a Vocabulary: row 0 is the padding
slot and stays all-zero, row 1 is the unknown token. Training is
sequential SGD over shuffled (center, context) pairs, each center's
reach drawn afresh every iteration, with a linearly decaying step size,
deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import ChecksumError, read_artifact, write_artifact
from .config import ConfigError
from .corpus import PAD_ID, Corpus, DataContract, Vocabulary

FORMAT_NAME = "triagenet-embedding"
FORMAT_VERSION = 3
BLOCK = 4096  # steps whose index rows are built at once; bounds peak memory


@dataclass
class EmbeddingTable:
    """Dense word vectors, one row per vocabulary id."""

    vectors: np.ndarray
    seed: int
    data: DataContract | None = None  # what it was trained on; the CLI always sets it

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def init_table(vocab_size: int, dim: int, seed: int) -> EmbeddingTable:
    """Uniform(-0.05, 0.05) init with the padding row zeroed."""
    if vocab_size < 2 or dim < 1:
        raise ConfigError(f"bad table shape {vocab_size} x {dim}")
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
    vectors[PAD_ID] = 0.0
    return EmbeddingTable(vectors=vectors, seed=seed)


def _spans(lengths: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token's first context index and one past its last, in the
    concatenation of sequences of ``lengths``, within ``reach`` of it."""
    end = np.repeat(np.cumsum(lengths), lengths)  # one past each token's sequence
    i = np.arange(len(end))
    lo = np.maximum(end - np.repeat(lengths, lengths), i - reach)
    hi = np.minimum(end, i + reach + 1)
    return lo, hi


def _window_pairs(sequences: list[np.ndarray], reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) ids of every token with each token of its sequence
    within its own ``reach``: sequence by sequence, i then j ascending."""
    flat = np.concatenate(sequences)
    lengths = np.array([len(s) for s in sequences])
    lo, hi = (bound[:, None] for bound in _spans(lengths, reach))
    # no pair lies further apart than the longest sequence allows, however far a reach
    width = min(int(reach.max()), int(lengths.max()) - 1)
    i = np.arange(len(flat))[:, None]
    j = i + np.r_[-width:0, 1 : width + 1]
    keep = (j >= lo) & (j < hi)
    return flat[np.broadcast_to(i, j.shape)[keep]], flat[j[keep]]


def _reaches(seed: int, window: int, n_tokens: int, iters: int):
    """Every token's reach in each iteration, uniform in 1..window (word2vec's
    reduced window), from a generator apart from the shuffle and negatives."""
    rng = np.random.default_rng([seed, 1])
    return (rng.integers(1, window + 1, size=n_tokens) for _ in range(iters))


def train_skipgram(
    corpus: Corpus,
    vocab: Vocabulary,
    dim: int = 200,
    iters: int = 25,
    window: int = 5,
    negatives: int = 5,
    seed: int = 0,
    lr: float = 0.025,
) -> EmbeddingTable:
    """Train skip-gram vectors on the corpus; ``iters=0`` returns the init.

    Tokens outside the vocabulary train under the unknown id. Each
    iteration draws every token's reach uniformly from 1..``window``, as
    the original skip-gram does, and pairs the token with each token of
    its record within that reach: adjacent tokens always pair, far ones
    less often. On the README tour's corpus that is about a third fewer
    steps than a fixed window. The reaches fix every iteration's pair
    count in advance, so the step size decays linearly over the steps of
    all iterations, while each iteration's pairs are built only when it
    starts.

    The negative-sampling distribution is unigram count^0.75 over
    observed ids; padding is never sampled and its row never moves.
    Updates are applied one (center, context) pair at a time in shuffle
    order, so every step sees the effect of the one before it; batching
    the pairs instead would scale a frequent token's step by its
    duplicate count and diverge on Zipf-skewed corpora.

    Input vectors are rows [0, V) and output vectors rows [V, 2V) of one
    table. A step gathers its center, context and negative rows at once
    and gets every update, all from the rows as they were before the
    step, from one matmul with a matrix holding the scaled gradients in
    its first row and column. The logistic is tanh(s/2)/2 + 1/2, which
    cannot overflow. A negative that repeats the context or another
    negative gets the sum of its updates (``np.subtract.at``).
    """
    if iters < 0 or window < 1 or negatives < 1:
        raise ConfigError("iters must be >= 0, window and negatives >= 1")
    if len(vocab) < negatives + 1:
        raise ConfigError(f"vocabulary of {len(vocab)} cannot supply {negatives} negatives")
    table = init_table(len(vocab), dim, seed)
    sequences = [
        np.array([vocab.id_of(t) for t in r.tokens], dtype=np.int64)
        for r in corpus.records
        if r.tokens
    ]
    if iters == 0 or not sequences:
        return table
    flat = np.concatenate(sequences)
    lengths = np.array([len(s) for s in sequences])
    total_steps = 0  # the reaches are drawn twice: here to count the steps, then to train
    for reach in _reaches(seed, window, len(flat), iters):
        lo, hi = _spans(lengths, reach)
        total_steps += int((hi - lo - 1).sum())
    if not total_steps:
        return table

    counts = np.bincount(flat, minlength=len(vocab))
    pool = np.flatnonzero(counts)
    pool = pool[pool != PAD_ID]
    weights = counts[pool] ** 0.75
    cum = np.cumsum(weights / weights.sum())

    V = len(vocab)
    W = np.concatenate([table.vectors, np.zeros_like(table.vectors)])
    k = negatives + 2
    G = np.zeros((k, k))
    g, g_col = G[0, 1:], G[1:, 0]  # the scaled gradients, stored in both
    x, d = np.empty((k, dim)), np.empty((k, dim))
    center, outputs = x[0], x[1:]
    shift = np.r_[-1.0, np.ones(negatives)]  # sigma(s) - label = (tanh(s/2) + shift) / 2
    rng = np.random.default_rng(seed)
    done = 0
    for reach in _reaches(seed, window, len(flat), iters):
        centers, contexts = _window_pairs(sequences, reach)
        order = rng.permutation(len(centers))
        negs = pool[np.searchsorted(cum, rng.random((len(order), negatives)))]
        for start in range(0, len(order), BLOCK):
            pairs = order[start : start + BLOCK]
            rows = np.column_stack(
                [centers[pairs], V + contexts[pairs], V + negs[start : start + BLOCK]]
            )
            ranked = np.sort(rows[:, 1:], axis=1)
            distinct = (ranked[:, 1:] != ranked[:, :-1]).all(axis=1).tolist()
            n = len(rows)
            half_steps = 0.5 * lr * np.maximum(1.0 - np.arange(done, done + n) / total_steps, 1e-4)
            done += n
            for r, unique, half_step in zip(rows, distinct, half_steps.tolist()):
                # center, context, negatives before this step; "clip" lets take
                # write into x directly where the default mode buffers a copy
                W.take(r, axis=0, out=x, mode="clip")
                np.dot(outputs, center, out=g)
                g *= 0.5
                np.tanh(g, out=g)
                g += shift
                g *= half_step
                g_col[:] = g
                np.dot(G, x, out=d)
                if unique:
                    x -= d
                    W[r] = x
                else:
                    np.subtract.at(W, r, d)

    W[PAD_ID] = 0.0  # padding row never trains
    return EmbeddingTable(vectors=W[:V].copy(), seed=seed)


# -- persistence -------------------------------------------------------------


def save_table(table: EmbeddingTable, path) -> None:
    """One JSON header line, then row-major little-endian float64."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "vocab_size": table.vectors.shape[0],
        "dim": table.dim,
        "seed": table.seed,
        "data": None if table.data is None else vars(table.data),
    }
    write_artifact(path, header, np.ascontiguousarray(table.vectors, dtype="<f8").tobytes())


def load_table(path) -> EmbeddingTable:
    required = {"vocab_size": int, "dim": int, "seed": int, "data": (dict, type(None))}
    header, blob = read_artifact(path, FORMAT_NAME, FORMAT_VERSION, required)
    shape = (header["vocab_size"], header["dim"])
    if min(shape) < 1 or len(blob) != shape[0] * shape[1] * 8:
        raise ChecksumError(f"blob holds {len(blob)} bytes, header implies a {shape} table")
    try:
        data = None if header["data"] is None else DataContract.from_dict(header["data"])
    except (TypeError, ConfigError) as e:  # TypeError: a record field is absent
        raise ChecksumError(f"malformed {FORMAT_NAME} header: {e}") from e
    vectors = np.frombuffer(blob, dtype="<f8").reshape(shape)
    return EmbeddingTable(vectors=vectors.astype(np.float64), seed=header["seed"], data=data)
