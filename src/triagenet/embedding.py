"""Skip-gram word vectors with negative sampling, trained from scratch.

The table aligns row-for-row with a Vocabulary: row 0 is the padding
slot and stays all-zero, row 1 is the unknown token. Training is
sequential SGD over shuffled (center, context) pairs with a linearly
decaying step size, deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import ChecksumError, read_artifact, write_artifact
from .corpus import PAD_ID, Corpus, Vocabulary

FORMAT_NAME = "triagenet-embedding"
FORMAT_VERSION = 1


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


@dataclass
class EmbeddingTable:
    """Dense word vectors, one row per vocabulary id."""

    vectors: np.ndarray
    seed: int
    corpus_hash: str | None = None

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


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

    Tokens outside the vocabulary train under the unknown id. The
    negative-sampling distribution is unigram count^0.75 over observed
    ids; padding is never sampled and its row never moves. Updates are
    applied one (center, context) pair at a time in shuffle order, so
    every step sees the effect of the one before it; batching the pairs
    instead would scale a frequent token's step by its duplicate count
    and diverge on Zipf-skewed corpora.
    """
    if iters < 0 or window < 1 or negatives < 1:
        raise ConfigError("iters must be >= 0, window and negatives >= 1")
    if len(vocab) < negatives + 1:
        raise ConfigError(f"vocabulary of {len(vocab)} cannot supply {negatives} negatives")
    table = init_table(len(vocab), dim, seed)
    if iters == 0:
        return table

    sequences = [
        np.array([vocab.id_of(t) for t in r.tokens], dtype=np.int64)
        for r in corpus.records
        if r.tokens
    ]
    centers_list, contexts_list = [], []
    counts = np.zeros(len(vocab))
    for seq in sequences:
        for i, c in enumerate(seq):
            counts[c] += 1
            lo, hi = max(0, i - window), min(len(seq), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers_list.append(c)
                    contexts_list.append(seq[j])
    if not centers_list:
        return table
    centers = np.array(centers_list, dtype=np.int64)
    contexts = np.array(contexts_list, dtype=np.int64)

    pool = np.flatnonzero(counts)
    pool = pool[pool != PAD_ID]
    weights = counts[pool] ** 0.75
    cum = np.cumsum(weights / weights.sum())

    w_in = table.vectors
    w_out = np.zeros_like(w_in)
    rng = np.random.default_rng(seed)
    total_steps = iters * len(centers)
    done = 0
    for _ in range(iters):
        order = rng.permutation(len(centers))
        negs = pool[np.searchsorted(cum, rng.random((len(order), negatives)))]
        for i, pair in enumerate(order):
            c, o = centers[pair], contexts[pair]
            step = lr * max(1.0 - done / total_steps, 1e-4)
            done += 1

            h = w_in[c].copy()  # the center vector before this step
            v_pos = w_out[o]
            v_neg = w_out[negs[i]]

            g_pos = float(_sigmoid(h @ v_pos)) - 1.0
            g_neg = _sigmoid(v_neg @ h)

            w_in[c] -= step * (g_pos * v_pos + g_neg @ v_neg)
            w_out[o] -= step * g_pos * h
            np.subtract.at(w_out, negs[i], step * g_neg[:, None] * h)

    w_in[PAD_ID] = 0.0  # padding row never trains
    return EmbeddingTable(vectors=w_in, seed=seed)


# -- persistence -------------------------------------------------------------


def save_table(table: EmbeddingTable, path) -> None:
    """One JSON header line, then row-major little-endian float64."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "vocab_size": table.vectors.shape[0],
        "dim": table.dim,
        "seed": table.seed,
        "corpus_hash": table.corpus_hash,
    }
    write_artifact(path, header, np.ascontiguousarray(table.vectors, dtype="<f8").tobytes())


def load_table(path) -> EmbeddingTable:
    header, blob = read_artifact(
        path, FORMAT_NAME, FORMAT_VERSION, ("vocab_size", "dim", "seed", "corpus_hash")
    )
    expected = header["vocab_size"] * header["dim"] * 8
    if len(blob) != expected:
        raise ChecksumError(f"blob holds {len(blob)} bytes, header implies {expected}")
    vectors = np.frombuffer(blob, dtype="<f8").reshape(header["vocab_size"], header["dim"])
    return EmbeddingTable(
        vectors=vectors.astype(np.float64),
        seed=header["seed"],
        corpus_hash=header["corpus_hash"],
    )
