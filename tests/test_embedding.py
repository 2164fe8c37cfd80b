"""Tests for skip-gram embedding training and its file format."""

import json
import tracemalloc
import types

import numpy as np
import pytest

from triagenet import embedding
from triagenet.corpus import PAD_ID, CaseRecord, Corpus, DataContract, TELECARE, build_vocab
from triagenet.embedding import (
    ChecksumError,
    ConfigError,
    EmbeddingTable,
    init_table,
    load_table,
    save_table,
    train_skipgram,
)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def paired_corpus(n=300, seed=0):
    """'aa' and 'bb' always co-occur; 'cc' lives among disjoint tokens.

    The x/y noise groups never mix, so 'cc' shares no co-occurrence
    statistics with 'aa' at all — it is distributionally independent,
    not merely missing the partner token.
    """
    rng = np.random.default_rng(seed)
    x_noise = [f"x{i}" for i in range(10)]
    y_noise = [f"y{i}" for i in range(10)]
    records = []
    for i in range(n):
        if i % 2 == 0:
            pad = [x_noise[j] for j in rng.integers(0, 10, size=3)]
            records.append(CaseRecord(["aa", "bb"] + pad, TELECARE, 30, "male"))
        else:
            pad = [y_noise[j] for j in rng.integers(0, 10, size=3)]
            records.append(CaseRecord(["cc"] + pad, TELECARE, 30, "male"))
    return Corpus(records=records)


def nested_pairs(sequences, reach):
    """The pair order of the original nested loop: i ascending, then j.

    ``reach`` is one window for every token, or each token's own reach
    in the order of the concatenated sequences."""
    reach = iter(np.broadcast_to(reach, (sum(map(len, sequences)),)).tolist())
    centers, contexts = [], []
    for seq in sequences:
        for i, c in enumerate(seq):
            r = next(reach)
            for j in range(max(0, i - r), min(len(seq), i + r + 1)):
                if j != i:
                    centers.append(c)
                    contexts.append(seq[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def drawn_reaches(seed, window, n_tokens, iters):
    """word2vec's reduced window: each iteration draws every token's reach
    uniformly from 1..window, from a generator seeded [seed, 1]."""
    rng = np.random.default_rng([seed, 1])
    return [rng.integers(1, window + 1, size=n_tokens) for _ in range(iters)]


def per_pair_oracle(corpus, vocab, dim, iters, window=5, negatives=5, seed=0, lr=0.025):
    """The original per-pair loop: separate input and output tables, a
    clipped logistic, one small update per vector, over the pairs of the
    drawn reaches. Returns the input table, the number of steps whose
    output rows repeat, and the number of steps."""
    sequences = [
        np.array([vocab.id_of(t) for t in r.tokens], dtype=np.int64)
        for r in corpus.records
        if r.tokens
    ]
    n_tokens = sum(map(len, sequences))
    iteration_pairs = [nested_pairs(sequences, reach)
              for reach in drawn_reaches(seed, window, n_tokens, iters)]
    counts = np.zeros(len(vocab))
    for seq in sequences:
        for c in seq:
            counts[c] += 1
    pool = np.flatnonzero(counts)
    pool = pool[pool != PAD_ID]
    weights = counts[pool] ** 0.75
    cum = np.cumsum(weights / weights.sum())

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    w_in = init_table(len(vocab), dim, seed).vectors
    w_out = np.zeros_like(w_in)
    rng = np.random.default_rng(seed)
    total_steps = sum(len(centers) for centers, _ in iteration_pairs)
    done = repeats = 0
    for centers, contexts in iteration_pairs:
        order = rng.permutation(len(centers))
        negs = pool[np.searchsorted(cum, rng.random((len(order), negatives)))]
        for i, pair in enumerate(order):
            c, o = centers[pair], contexts[pair]
            step = lr * max(1.0 - done / total_steps, 1e-4)
            done += 1
            repeats += len(set(negs[i]) | {o}) < negatives + 1

            h = w_in[c].copy()
            v_pos = w_out[o]
            v_neg = w_out[negs[i]]
            g_pos = float(sigmoid(h @ v_pos)) - 1.0
            g_neg = sigmoid(v_neg @ h)
            w_in[c] -= step * (g_pos * v_pos + g_neg @ v_neg)
            w_out[o] -= step * g_pos * h
            np.subtract.at(w_out, negs[i], step * g_neg[:, None] * h)

    w_in[PAD_ID] = 0.0
    return w_in, repeats, total_steps


def counting_subtract_at(monkeypatch):
    """Make ``embedding`` see a numpy whose ``subtract.at`` counts its calls."""
    calls = []

    def at(*args):
        calls.append(1)
        np.subtract.at(*args)

    class Numpy:
        subtract = types.SimpleNamespace(at=at)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(embedding, "np", Numpy())
    return calls


def counting_tanh(monkeypatch):
    """Make ``embedding`` see a numpy whose ``tanh`` counts its calls: one per SGD step."""
    calls = []

    def tanh(*args, **kwargs):
        calls.append(1)
        return np.tanh(*args, **kwargs)

    class Numpy:
        def __getattr__(self, name):
            return tanh if name == "tanh" else getattr(np, name)

    monkeypatch.setattr(embedding, "np", Numpy())
    return calls


def tiny_vocab_corpus(n=40, seed=0):
    """Six tokens, so five negatives collide with the context and each other."""
    rng = np.random.default_rng(seed)
    tokens = ["t0", "t1", "t2", "t3", "t4", "t5"]
    return Corpus(records=[
        CaseRecord([tokens[j] for j in rng.integers(0, 6, size=5)], TELECARE, 30, "male")
        for _ in range(n)
    ])


class TestFusedStep:
    """The fused step against the original per-pair loop."""

    def test_matches_per_pair_loop_on_paired_corpus(self):
        corpus = paired_corpus(60)
        vocab = build_vocab(corpus.records)
        table = train_skipgram(corpus, vocab, dim=16, iters=3, seed=7)
        expected, _, _ = per_pair_oracle(corpus, vocab, dim=16, iters=3, seed=7)
        np.testing.assert_allclose(table.vectors, expected, rtol=0, atol=1e-12)

    def test_matches_per_pair_loop_when_negatives_collide(self, monkeypatch):
        corpus = tiny_vocab_corpus()
        vocab = build_vocab(corpus.records)
        expected, repeats, _ = per_pair_oracle(corpus, vocab, dim=8, iters=2, seed=3)
        calls = counting_subtract_at(monkeypatch)
        table = train_skipgram(corpus, vocab, dim=8, iters=2, seed=3)
        assert repeats > 0 and len(calls) == repeats
        np.testing.assert_allclose(table.vectors, expected, rtol=0, atol=1e-12)

    def test_matches_per_pair_loop_across_a_block_boundary(self):
        corpus = paired_corpus(500, seed=4)
        vocab = build_vocab(corpus.records)
        table = train_skipgram(corpus, vocab, dim=8, iters=2, seed=5)
        expected, _, steps = per_pair_oracle(corpus, vocab, dim=8, iters=2, seed=5)
        assert steps > 2 * embedding.BLOCK  # so an iteration crosses a block boundary
        np.testing.assert_allclose(table.vectors, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_window_pairs_keep_the_nested_loop_order(self, window):
        rng = np.random.default_rng(window)
        sequences = [rng.integers(2, 50, size=n) for n in (1, 2, 3, 7, 12, 1, 4)]
        got = embedding._window_pairs(sequences, np.full(30, window))
        expected = nested_pairs(sequences, window)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("top", [3, 12, 40], ids=["short", "longest", "past-longest"])
    def test_window_pairs_honour_each_tokens_reach(self, top):
        rng = np.random.default_rng(top)
        sequences = [rng.integers(2, 50, size=n) for n in (1, 2, 3, 7, 13, 1, 4)]
        reach = rng.integers(1, top + 1, size=31)
        got = embedding._window_pairs(sequences, reach)
        expected = nested_pairs(sequences, reach)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_window_pairs_memory_is_bounded_by_the_longest_sequence(self):
        rng = np.random.default_rng(0)
        sequences = [rng.integers(2, 50, size=7) for _ in range(300)]
        tracemalloc.start()
        try:
            got = embedding._window_pairs(sequences, np.full(2100, 20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for a, b in zip(got, nested_pairs(sequences, 6)):
            np.testing.assert_array_equal(a, b)

    def test_reaches_are_drawn_from_their_own_generator(self):
        got = list(embedding._reaches(4, 5, 1000, 3))
        for a, b in zip(got, drawn_reaches(4, 5, 1000, 3), strict=True):
            np.testing.assert_array_equal(a, b)
        assert all(set(r.tolist()) == {1, 2, 3, 4, 5} for r in got)
        assert not np.array_equal(got[0], got[1])
        np.testing.assert_array_equal(got[0], next(embedding._reaches(4, 5, 1000, 1)))
        assert not np.array_equal(got[0], next(embedding._reaches(5, 5, 1000, 1)))

    def test_one_step_per_pair_built_and_fewer_than_a_full_window(self, monkeypatch):
        corpus = paired_corpus(80)
        vocab = build_vocab(corpus.records)
        sequences = [np.array([vocab.id_of(t) for t in r.tokens]) for r in corpus.records]
        full = len(nested_pairs(sequences, 5)[0])
        built = []
        window_pairs = embedding._window_pairs

        def recording(*args):
            built.append(window_pairs(*args))
            return built[-1]

        monkeypatch.setattr(embedding, "_window_pairs", recording)
        steps = counting_tanh(monkeypatch)
        train_skipgram(corpus, vocab, dim=8, iters=3, seed=2)
        assert len(built) == 3
        assert len(steps) == sum(len(centers) for centers, _ in built) < 3 * full


class TestTraining:
    def test_zero_iters_equals_init(self):
        corpus = paired_corpus(20)
        vocab = build_vocab(corpus.records)
        table = train_skipgram(corpus, vocab, dim=8, iters=0, seed=5)
        np.testing.assert_array_equal(table.vectors, init_table(len(vocab), 8, 5).vectors)

    def test_padding_row_stays_zero(self):
        corpus = paired_corpus(50)
        vocab = build_vocab(corpus.records)
        table = train_skipgram(corpus, vocab, dim=8, iters=3, seed=1)
        np.testing.assert_array_equal(table.vectors[0], np.zeros(8))

    def test_deterministic_in_seed(self):
        corpus = paired_corpus(50)
        vocab = build_vocab(corpus.records)
        a = train_skipgram(corpus, vocab, dim=8, iters=2, seed=3)
        b = train_skipgram(corpus, vocab, dim=8, iters=2, seed=3)
        assert a.vectors.tobytes() == b.vectors.tobytes()
        c = train_skipgram(corpus, vocab, dim=8, iters=2, seed=4)
        assert a.vectors.tobytes() != c.vectors.tobytes()

    def test_trained_vectors_finite_with_moderate_norms(self):
        # zipf-skewed duplication must not blow the vectors up
        corpus = paired_corpus(200)
        vocab = build_vocab(corpus.records)
        table = train_skipgram(corpus, vocab, dim=16, iters=5, seed=2)
        assert np.all(np.isfinite(table.vectors))
        assert float(np.linalg.norm(table.vectors[1:], axis=1).max()) < 10.0

    def test_cooccurring_tokens_more_similar_across_seeds(self):
        corpus = paired_corpus(400)
        vocab = build_vocab(corpus.records)
        wins = 0
        for seed in range(5):
            table = train_skipgram(corpus, vocab, dim=16, iters=5, seed=seed)
            a = table.vectors[vocab.id_of("aa")]
            b = table.vectors[vocab.id_of("bb")]
            c = table.vectors[vocab.id_of("cc")]
            if cosine(a, b) > cosine(a, c):
                wins += 1
        assert wins >= 4

    def test_small_vocab_rejected(self):
        corpus = Corpus(records=[CaseRecord(["x", "y"], TELECARE, 1, "male")])
        vocab = build_vocab(corpus.records)
        with pytest.raises(ConfigError):
            train_skipgram(corpus, vocab, dim=4, negatives=10)

    def test_bad_knobs_rejected(self):
        corpus = paired_corpus(10)
        vocab = build_vocab(corpus.records)
        with pytest.raises(ConfigError):
            train_skipgram(corpus, vocab, dim=4, iters=-1)
        with pytest.raises(ConfigError):
            train_skipgram(corpus, vocab, dim=4, window=0)


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        table = init_table(30, 12, seed=9)
        table.data = DataContract("ab" * 32, (3, 0), (2,), (1,), ("x", "y"))
        path = tmp_path / "emb.bin"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.vectors.tobytes() == table.vectors.tobytes()
        assert loaded.seed == 9
        assert loaded.data == table.data

    def test_wrong_typed_data_record_detected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(init_table(10, 4, seed=0), path)
        header, newline, blob = path.read_bytes().partition(b"\n")
        record = {"corpus_sha256": "ab", "train": [0], "val": [], "test": ["1"], "tokens": []}
        fields = {**json.loads(header), "data": record}
        path.write_bytes(json.dumps(fields).encode() + newline + blob)
        with pytest.raises(ChecksumError, match=r"data.test\[0\] must be an integer"):
            load_table(path)

    @pytest.mark.parametrize(
        "edit",
        [{"test": [0]}, {"test": [2]}, {"test": [-1]}, {"tokens": None}],
        ids=["repeated-index", "index-past-the-end", "negative-index", "field-absent"],
    )
    def test_data_record_that_does_not_split_the_corpus_detected(self, tmp_path, edit):
        path = tmp_path / "emb.bin"
        save_table(init_table(10, 4, seed=0), path)
        header, newline, blob = path.read_bytes().partition(b"\n")
        record = {"corpus_sha256": "ab", "train": [0], "val": [], "test": [1], "tokens": [],
                  **edit}
        record = {key: value for key, value in record.items() if value is not None}
        fields = {**json.loads(header), "data": record}
        path.write_bytes(json.dumps(fields).encode() + newline + blob)
        with pytest.raises(ChecksumError, match="malformed triagenet-embedding header"):
            load_table(path)

    def test_corrupt_blob_detected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(init_table(10, 4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_table(path)

    def test_negative_shape_detected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_table(init_table(10, 4, seed=0), path)
        header, newline, blob = path.read_bytes().partition(b"\n")
        fields = {**json.loads(header), "vocab_size": -10, "dim": -4}
        path.write_bytes(json.dumps(fields).encode() + newline + blob)
        with pytest.raises(ChecksumError):
            load_table(path)

    def test_wrong_format_detected(self, tmp_path):
        path = tmp_path / "nope.bin"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ChecksumError):
            load_table(path)
