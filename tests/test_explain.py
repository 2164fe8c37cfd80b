"""Tests for feature scoring, drop experiments, and heatmap rendering."""

import dataclasses
from collections import Counter, defaultdict
from html.parser import HTMLParser

import numpy as np
import pytest

from triagenet import explain, model
from triagenet.corpus import (
    PAD_ID,
    UNK_ID,
    UNK_TOKEN,
    URGENT,
    CaseRecord,
    GeneratorSpec,
    Vocabulary,
    build_vocab,
    encode,
    encode_corpus,
    generate_corpus,
    id_matrix,
)
from triagenet.embedding import ConfigError
from triagenet.explain import (
    DropRow,
    PairSynergy,
    SymptomScore,
    drop_experiment,
    pair_synergy,
    render_heatmap,
    render_pair_table,
    render_score_table,
    score_features,
    score_grams,
)
from triagenet.model import (
    PREDICT_CHUNK,
    AttentionRecord,
    ModelConfig,
    init_params,
    predict,
    predict_batch,
)
from triagenet.training import HyperParams, derive_seed, evaluate, metrics_from, train


def brute_force_scores(params, records, vocab, class_name, n):
    """Straightforward recomputation: normalize per position, then average.

    Kept deliberately naive (lists of per-case values, max of ratios)
    so it shares no accumulation code with the implementation.
    """
    values: dict[str, list[float]] = {}
    for rec in records:
        if rec.label != class_name:
            continue
        pred = predict(params, encode(rec, vocab, params.config.max_len))
        n_tokens = pred.attention.n_tokens
        if n_tokens - n + 1 < 1:
            continue
        weights = pred.attention.alphas[n][: n_tokens - n + 1]
        case_max = max(float(w) for w in weights)
        ratios: dict[str, float] = {}
        for t, w in enumerate(weights):
            feat = " ".join(rec.tokens[t : t + n])
            ratio = float(w) / case_max
            if feat not in ratios or ratio > ratios[feat]:
                ratios[feat] = ratio
        for feat, ratio in ratios.items():
            values.setdefault(feat, []).append(ratio)
    return {feat: sum(v) / len(v) for feat, v in values.items()}, {
        feat: len(v) for feat, v in values.items()
    }


def make_vocab(records):
    return build_vocab(records)


@pytest.fixture(scope="module")
def scored_world():
    corpus = generate_corpus(GeneratorSpec(), 60, seed=5)
    vocab = make_vocab(corpus.records)
    config = ModelConfig(
        vocab_size=len(vocab),
        max_len=16,
        embedding_dim=8,
        widths=(1, 2),
        filters=6,
        attention_size=5,
        mlp_layers=(12,),
        dropout=0.0,
    )
    params = init_params(config, seed=3)
    return corpus.records, vocab, params


class TestScoreFeatures:
    def test_matches_brute_force_oracle(self, scored_world):
        records, vocab, params = scored_world
        for class_name in ("urgent_care", "general_practice", "telecare"):
            for n in (1, 2):
                scores = score_features(params, records, vocab, class_name, n)
                expected, counts = brute_force_scores(params, records, vocab, class_name, n)
                assert {s.feature for s in scores} == set(expected)
                for s in scores:
                    assert abs(s.score - expected[s.feature]) < 1e-12
                    assert s.occurrences == counts[s.feature]

    def test_scores_bounded_and_sorted(self, scored_world):
        records, vocab, params = scored_world
        scores = score_features(params, records, vocab, "urgent_care", 1)
        assert scores
        for s in scores:
            assert 0.0 <= s.score <= 1.0
            assert s.occurrences >= 1
            assert 0.0 < s.mean_attention <= s.mean_case_max <= 1.0
        keys = [(-s.score, -s.occurrences, s.feature) for s in scores]
        assert keys == sorted(keys)

    def test_per_case_argmax_token_scores_one(self):
        # disjoint token sets: every token occurs in exactly one case,
        # so each case's most-attended token must score exactly 1.0
        records = [
            CaseRecord(
                tokens=[f"t{i}{j}" for j in range(4)],
                label="urgent_care",
                age=30,
                gender="male",
            )
            for i in range(5)
        ]
        vocab = make_vocab(records)
        config = ModelConfig(
            vocab_size=len(vocab),
            max_len=6,
            embedding_dim=5,
            widths=(1,),
            filters=4,
            attention_size=3,
            mlp_layers=(8,),
            dropout=0.0,
        )
        params = init_params(config, seed=11)
        by_feature = {
            s.feature: s for s in score_features(params, records, vocab, "urgent_care", 1)
        }
        for rec in records:
            pred = predict(params, encode(rec, vocab, config.max_len))
            weights = pred.attention.alphas[1][: pred.attention.n_tokens]
            top = rec.tokens[int(np.argmax(weights))]
            assert by_feature[top].score == 1.0
            assert by_feature[top].occurrences == 1

    def test_single_token_document_scores_one(self, scored_world):
        _, _, params = scored_world
        records = [CaseRecord(tokens=["lonely"], label="telecare", age=50, gender="female")]
        vocab = make_vocab(records)
        config = ModelConfig(
            vocab_size=len(vocab),
            max_len=4,
            embedding_dim=5,
            widths=(1, 2),
            filters=4,
            attention_size=3,
            mlp_layers=(8,),
            dropout=0.0,
        )
        params = init_params(config, seed=2)
        scores = score_features(params, records, vocab, "telecare", 1)
        assert [s.feature for s in scores] == ["lonely"]
        assert scores[0].score == 1.0
        # too short for any width-2 window: nothing to score
        assert score_features(params, records, vocab, "telecare", 2) == []

    def test_absent_class_features_are_omitted(self, scored_world):
        records, vocab, params = scored_world
        urgent = {s.feature for s in score_features(params, records, vocab, "urgent_care", 1)}
        urgent_tokens = {t for r in records if r.label == "urgent_care" for t in r.tokens}
        other_tokens = {t for r in records if r.label != "urgent_care" for t in r.tokens}
        assert urgent <= urgent_tokens
        assert (other_tokens - urgent_tokens) & urgent == set()

    def test_rejects_bad_arguments(self, scored_world):
        records, vocab, params = scored_world
        with pytest.raises(ConfigError):
            score_features(params, records, vocab, "er", 1)
        with pytest.raises(ConfigError):
            score_features(params, records, vocab, "urgent_care", 3)


class TestPairSynergy:
    @staticmethod
    def uni(feature, score):
        return SymptomScore(feature, "urgent_care", score, 1, score, 1.0)

    @staticmethod
    def bi(feature, score):
        return SymptomScore(feature, "urgent_care", score, 1, score, 1.0)

    def test_margin_against_best_member(self):
        unis = [self.uni("a", 0.9), self.uni("b", 0.4)]
        pairs = pair_synergy(unis, [self.bi("a b", 1.0)])
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.first, p.second) == ("a", "b")
        assert p.margin == 1.0 - 0.9
        assert p.pair_score == 1.0 and p.first_score == 0.9 and p.second_score == 0.4

    def test_saturated_members_cannot_be_beaten(self):
        unis = [self.uni("a", 1.0), self.uni("b", 1.0)]
        pairs = pair_synergy(unis, [self.bi("a b", 0.97)])
        assert pairs[0].margin <= 0.0

    def test_sorted_by_margin(self):
        unis = [self.uni("a", 0.5), self.uni("b", 0.5), self.uni("c", 0.9)]
        pairs = pair_synergy(unis, [self.bi("a b", 0.95), self.bi("b c", 0.91)])
        assert [p.margin for p in pairs] == sorted((p.margin for p in pairs), reverse=True)
        assert (pairs[0].first, pairs[0].second) == ("a", "b")

    def test_rejects_mixed_classes_and_missing_members(self):
        other = SymptomScore("a", "telecare", 0.5, 1, 0.5, 1.0)
        with pytest.raises(ConfigError):
            pair_synergy([other], [self.bi("a b", 0.9)])
        with pytest.raises(ConfigError):
            pair_synergy([self.uni("a", 0.5)], [self.bi("a b", 0.9)])

    def test_end_to_end_consistency(self, scored_world):
        records, vocab, params = scored_world
        unis = score_features(params, records, vocab, "urgent_care", 1)
        bis = score_features(params, records, vocab, "urgent_care", 2)
        pairs = pair_synergy(unis, bis)
        assert len(pairs) == len(bis)
        uni_scores = {s.feature: s.score for s in unis}
        for p in pairs:
            assert p.margin == p.pair_score - max(uni_scores[p.first], uni_scores[p.second])

    def test_order_against_sorted(self):
        # equal margins leave the order to the member tokens, compared one by one:
        # "a" < "a\x00" although the joined "a\x00 b" < "a b", and a numpy str
        # array would read "a\x00" as "a"
        firsts, seconds = ("a\x01", "a", "a\x00"), ("b\x00", "b", "c")
        unis = [self.uni(t, score) for t, score in zip(firsts + seconds,
                                                        (0.5, 0.5, 0.5, 0.5, 0.25, 0.5))]
        bis = [self.bi(f"{a} {b}", 0.75 if (i + j) % 2 else 1.0)
               for i, a in enumerate(firsts) for j, b in enumerate(seconds)]
        by_token = {s.feature: s.score for s in unis}
        expected = sorted(((a, b, s.score - max(by_token[a], by_token[b]))
                           for s in bis for a, b in [s.feature.split(" ")]),
                          key=lambda row: (-row[2], row[0], row[1]))
        got = [(p.first, p.second, p.margin) for p in pair_synergy(unis, bis[::-1])]
        assert got == expected
        assert [row[:2] for row in got[:3]] == [("a", "b"), ("a\x00", "b\x00"), ("a\x00", "c")]


def rec(tokens, label="urgent_care", flags=()):
    return CaseRecord(tokens=list(tokens), label=label, age=40, gender="male",
                      planted_flags=list(flags))


def model_tokens(tokens, vocab):
    """The tokens as the model reads them: each outside the vocabulary as <unk>."""
    return [vocab.id_to_token[vocab.id_of(tok)] for tok in tokens]


def knowing(records, ranking=None):
    """A vocabulary that knows every token of the records and of the ranking."""
    return Vocabulary(sorted({t for r in records for t in r.tokens} | set(ranking or ())))


def per_id(ranking, vocab):
    """A token-to-score ranking as ``_drop_mask`` takes it: a score per vocabulary id,
    -inf for an unranked one."""
    if ranking is None:
        return None
    scores = np.full(len(vocab), -np.inf)
    for tok, score in ranking.items():
        scores[vocab.token_to_id[tok]] = score
    return scores


def drop_mask(records, drops, ranking=None, seed=0, vocab=None):
    """``_drop_mask`` over the records' untruncated ids, as ``drop_experiment`` calls it;
    by default every token is known."""
    vocab = vocab or knowing(records, ranking)
    return explain._drop_mask(id_matrix(records, vocab), drops, per_id(ranking, vocab), seed)


def kept_tokens(records, drops, ranking=None, seed=0):
    """Each record's tokens that ``_drop_mask`` keeps."""
    mask = drop_mask(records, drops, ranking, seed)
    return [[tok for tok, gone in zip(r.tokens, row) if not gone]
            for r, row in zip(records, mask.tolist())]


class TestDropDataset:
    """The deletions each drop condition makes, as the tokens each record keeps."""

    def test_ranked_drop_removes_top_present(self):
        ranking = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert kept_tokens([rec(["c", "a", "b"])], 1, ranking) == [["c", "b"]]

    def test_absent_top_falls_through_to_next_ranked(self):
        ranking = {"a": 3.0, "b": 2.0, "c": 1.0}
        assert kept_tokens([rec(["c", "x"])], 1, ranking) == [["x"]]

    def test_repeated_top_token_loses_both_instances(self):
        ranking = {"a": 3.0, "b": 1.0}
        assert kept_tokens([rec(["a", "b", "a"])], 2, ranking) == [["b"]]

    def test_conservation_and_never_empty(self):
        records = [rec(["a"]), rec(["a", "b"]), rec(["a", "b", "c", "d"])]
        ids = id_matrix(records, knowing(records))
        for ranking in (None, {"a": 1.0}):
            for k in (1, 2, 5):
                mask = drop_mask(records, k, ranking, seed=4)
                assert mask.shape == ids.shape and not mask[ids == PAD_ID].any()
                assert [len(toks) for toks in kept_tokens(records, k, ranking, seed=4)] == [
                    max(1, len(r.tokens) - k) for r in records]

    def test_random_is_seed_deterministic(self):
        records = [rec(list("abcdef")), rec(list("ghij"))]
        a = kept_tokens(records, 2, seed=9)
        assert kept_tokens(records, 2, seed=9) == a
        assert kept_tokens(records, 2, seed=10) != a

    def test_validation(self):
        for ranking in (None, {"a": 1.0}):
            with pytest.raises(ConfigError, match="drops must be >= 1"):
                drop_mask([rec(["a", "b"])], 0, ranking)


def per_record_drops(records, vocab, drops, ranking=None, seed=0):
    """The positions each record loses, from a loop that sorts or draws each record
    on its own, reading each token as the model does: the oracle of ``_drop_mask``."""
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, "drop-random"))
    out = []
    for r in records:
        n = len(r.tokens)
        n_drop = min(drops, n - 1)
        if n_drop <= 0:
            out.append(set())
        elif ranking is None:
            out.append(set(rng.choice(n, size=n_drop, replace=False).tolist()))
        else:
            tokens = model_tokens(r.tokens, vocab)
            order = sorted(range(n), key=lambda i: (-ranking.get(tokens[i], float("-inf")), i))
            out.append(set(order[:n_drop]))
    return out


def per_record_drop_dataset(records, vocab, drops, ranking=None, seed=0):
    """Each record without the tokens ``per_record_drops`` names (its planted flags,
    which encoding does not read, as they were)."""
    return [dataclasses.replace(r, tokens=[t for i, t in enumerate(r.tokens) if i not in drop])
            for r, drop in zip(records, per_record_drops(records, vocab, drops, ranking, seed))]


def per_record_drop_experiment(params, train_records, test_records, vocab, max_drops,
                               class_name="urgent_care", seed=0):
    """drop_experiment as dropped records, encoded per condition and tallied one
    Prediction per case: the oracle. Returns the rows and each condition's ids."""
    max_len = params.config.max_len
    freq_rank = {}
    for r in train_records:
        if r.label == class_name:
            for tok in model_tokens(r.tokens, vocab):
                freq_rank[tok] = freq_rank.get(tok, 0.0) + 1.0
    att_rank = {s.feature: s.score
                for s in score_features(params, train_records, vocab, class_name, gram_size=1)}

    def tally(records):
        cases = encode_corpus(records, vocab, max_len)
        preds = predict_batch(params, cases)
        ids.append(np.array([c.ids for c in cases]))
        return metrics_from([c.label for c in cases], [p.predicted for p in preds])

    ids = []
    rows = [DropRow("Baseline", "baseline", 0, tally(test_records))]
    for d in range(1, max_drops + 1):
        for kind, ranking in (("random", None), ("frequency", freq_rank),
                              ("attention", att_rank)):
            dropped = per_record_drop_dataset(test_records, vocab, d, ranking,
                                              seed=derive_seed(seed, f"drop-{d}"))
            word = kind.capitalize()
            label = f"{word} Drop" if d == 1 else f"{d} {word} Drops"
            rows.append(DropRow(label, kind, d, tally(dropped)))
    return rows, ids


class TestDropDatasetOracle:
    RECORDS = [
        rec(["a", "b", "c", "d", "e"], flags=[1, 3]),
        rec(["b"], flags=[0]),
        rec(["c", "a", "c", "a", "x"], label="telecare", flags=[4]),
        rec(["x", "y"]),
        rec(["d", "d", "d"], flags=[2]),
        rec(["y"]),
        rec(["e", "x", "b", "y", "a", "c", "d"], flags=[0, 6]),
    ]

    @pytest.mark.parametrize("ranking", [
        None,
        {},
        {"a": 3.0, "b": 2.0, "c": 1.0},
        {"a": 2.0, "b": 2.0, "c": 2.0, "d": 1.0},  # ties go to the earlier position
        {"x": 1.0, "y": 1.0, "e": -5.0},
    ], ids=["random", "unranked", "ranked", "tied", "negative"])
    @pytest.mark.parametrize("drops", [1, 2, 3, 9])
    def test_same_records_as_per_record_loop(self, ranking, drops):
        vocab = knowing(self.RECORDS, ranking)
        for seed in (0, 7, 12):
            mask = drop_mask(self.RECORDS, drops, ranking, seed=seed)
            assert ([set(np.flatnonzero(row).tolist()) for row in mask]
                    == per_record_drops(self.RECORDS, vocab, drops, ranking, seed=seed))

    @pytest.mark.parametrize("drops", [1, 2, 3, 9])
    def test_unknown_tokens_share_one_rank(self, drops):
        # d, e, x and y are all <unk>: one rank between a's and c's
        vocab = Vocabulary(["a", "b", "c"])
        ranking = {"a": 3.0, UNK_TOKEN: 2.0, "c": 1.0}
        for seed in (0, 7, 12):
            mask = drop_mask(self.RECORDS, drops, ranking, seed=seed, vocab=vocab)
            assert ([set(np.flatnonzero(row).tolist()) for row in mask]
                    == per_record_drops(self.RECORDS, vocab, drops, ranking, seed=seed))

    def test_empty_corpus(self):
        assert drop_mask([], 2).shape == (0, 0)
        assert drop_mask([], 2, {"a": 1.0}).shape == (0, 0)


def drop_world(max_len, min_count, extra=(), widths=(1, 2)):
    """A model trained two epochs on 130 records; the ``extra`` records join the 100
    test records, and their tokens the vocabulary."""
    corpus = generate_corpus(GeneratorSpec(), 230, seed=11)
    train_records, test_records = corpus.records[:130], corpus.records[130:] + list(extra)
    vocab = build_vocab(train_records + list(extra), min_count=min_count)
    config = ModelConfig(vocab_size=len(vocab), max_len=max_len, embedding_dim=8, widths=widths,
                         filters=6, attention_size=5, mlp_layers=(12,), dropout=0.0)
    params = init_params(config, seed=3)
    train(params, encode_corpus(train_records, vocab, max_len),
          encode_corpus(test_records[:20], vocab, max_len), HyperParams(lr=0.01, epochs=2), seed=2)
    return params, train_records, test_records, vocab


class TestDropExperimentOracle:
    """drop_experiment's rows and model inputs equal the per-record path's."""

    @staticmethod
    def check(world, max_drops, monkeypatch):
        params, train_records, test_records, vocab = world
        seen = []

        def capturing_predict_probs(params, ids, demographics):
            seen.append(ids)
            return predict_probs(params, ids, demographics)

        predict_probs = explain.predict_probs
        monkeypatch.setattr(explain, "predict_probs", capturing_predict_probs)
        rows = drop_experiment(params, train_records, test_records, vocab,
                               max_drops=max_drops, seed=4)
        monkeypatch.undo()
        expected, expected_ids = per_record_drop_experiment(
            params, train_records, test_records, vocab, max_drops, seed=4)
        assert rows == expected
        assert len(seen) == len(expected_ids) == 1 + 3 * max_drops
        for got, want in zip(seen, expected_ids):
            np.testing.assert_array_equal(got, want)
        # the rows tell the conditions apart, so equal rows are not vacuous
        assert len({str(r.metrics.confusion) for r in rows}) > 1
        assert len({a.tobytes() for a in seen}) == len(seen)

    def test_documents_longer_than_max_len(self, monkeypatch):
        world = drop_world(max_len=6, min_count=1)
        assert sum(len(r.tokens) > 6 + 2 for r in world[2]) > 10
        self.check(world, 2, monkeypatch)

    def test_unknown_tokens_rank_as_unk(self, monkeypatch):
        world = drop_world(max_len=16, min_count=2)
        params, train_records, test_records, vocab = world
        counts = Counter(t for r in train_records for t in r.tokens)
        urgent = {t for r in train_records if r.label == "urgent_care" for t in r.tokens}
        ranked_unknown = sorted(t for t in urgent if counts[t] == 1)
        unranked_known = sorted(t for t in counts if t not in urgent and counts[t] >= 2)
        assert ranked_unknown and len(unranked_known) >= 2
        assert {vocab.id_of(t) for t in ranked_unknown} == {UNK_ID}
        names = [s.feature for s in score_features(params, train_records, vocab, URGENT, 1)]
        assert names.count(UNK_TOKEN) == 1 and not set(ranked_unknown) & set(names)
        # a ranked <unk> between known tokens that no table ranks: the drop takes the <unk>
        crafted = [rec([unranked_known[0], t, unranked_known[1]], "telecare")
                   for t in ranked_unknown[:5]]
        self.check((params, train_records, test_records + crafted, vocab), 2, monkeypatch)

    def test_one_token_records_draw_nothing(self, monkeypatch):
        short = [rec([t], label) for t, label in (("mild00", "telecare"), ("crit01", "urgent_care"))]
        pairs = [rec(["mild01", "mild02"], "telecare"), rec(["crit02", "mild03"])]
        params, train_records, test_records, vocab = drop_world(max_len=16, min_count=1)
        # interleaved, so a draw for a one-token record would shift every later draw
        mixed = []
        for i, r in enumerate(test_records):
            mixed += [r, (short + pairs)[i % 4]]
        self.check((params, train_records, mixed, vocab), 3, monkeypatch)

    def test_tied_scores(self, monkeypatch):
        world = drop_world(max_len=8, min_count=1)
        params, train_records, test_records, vocab = world
        repeats = [rec(["mild00", "mild01", "mild00", "mild01", "mild02"]),
                   rec(["crit00", "crit00", "mild00"], "telecare")]
        self.check((params, train_records, test_records + repeats, vocab), 2, monkeypatch)

    def test_one_drop(self, monkeypatch):
        self.check(drop_world(max_len=10, min_count=1), 1, monkeypatch)


def per_window_attention(params, cases):
    """The attention records of the dense per-case predictions score_grams once read."""
    cfg = params.config
    ids = np.array([c.ids for c in cases])
    demographics = np.array([c.demographics for c in cases])
    records = [None] * len(cases)
    for rows, _, attention, lengths in model._forward_chunks(params, ids, demographics):
        rows = np.arange(len(cases))[rows]  # a slice when one pass takes the whole batch
        starts_inside = np.arange(cfg.max_len) < lengths[:, None]
        for m, alpha in attention.items():
            attention[m] = dense = np.zeros((len(rows), cfg.max_len - m + 1))
            dense[starts_inside[:, : dense.shape[1]]] = alpha
        for i, row in enumerate(rows):
            records[row] = AttentionRecord({m: a[i] for m, a in attention.items()}, int(lengths[i]))
    return records


def per_window_score_grams(params, records, vocab, class_name, gram_sizes):
    """score_grams as a loop over every case's valid windows: the oracle."""
    records = [r for r in records if r.label == class_name]
    attention = per_window_attention(params, encode_corpus(records, vocab, params.config.max_len))
    out = []
    for m in gram_sizes:
        f_sum, att_sum, max_sum = (defaultdict(float) for _ in range(3))
        count = defaultdict(int)
        for r, record in zip(records, attention):
            weights = record.alphas[m][: max(record.n_tokens - m + 1, 0)]
            if weights.size == 0:
                continue
            case_max = float(weights.max())
            tokens = model_tokens(r.tokens, vocab)
            best = {}
            for t, w in enumerate(weights):
                feat = " ".join(tokens[t : t + m])
                if feat not in best or w > best[feat]:
                    best[feat] = float(w)
            for feat, w in best.items():
                count[feat] += 1
                f_sum[feat] += w / case_max
                att_sum[feat] += w
                max_sum[feat] += case_max
        scores = [SymptomScore(feat, class_name, f_sum[feat] / n, n, att_sum[feat] / n,
                               max_sum[feat] / n) for feat, n in count.items()]
        scores.sort(key=lambda s: (-s.score, -s.occurrences, s.feature))
        out.append(scores)
    return out


class TestScoreGramsOracle:
    """score_grams equals the per-window loop, float for float."""

    GRAM_SIZES = [(1,), (2,), (1, 2), (3,)]

    @staticmethod
    def world(max_len, min_count, extra=()):
        params, train_records, test_records, vocab = drop_world(max_len, min_count,
                                                                widths=(1, 2, 3))
        return params, train_records + test_records + list(extra), vocab

    def check(self, world, class_name="urgent_care"):
        params, records, vocab = world
        for gram_sizes in self.GRAM_SIZES:
            got = score_grams(params, records, vocab, class_name, gram_sizes)
            assert got == per_window_score_grams(params, records, vocab, class_name, gram_sizes)
            assert all(got)  # not vacuous: every gram size scores something

    def test_documents_longer_than_max_len(self):
        world = self.world(max_len=6, min_count=1)
        assert sum(len(r.tokens) > 6 + 2 for r in world[1] if r.label == "urgent_care") > 10
        self.check(world)

    def test_more_than_one_chunk(self):
        world = self.world(max_len=16, min_count=1)
        for class_name in ("urgent_care", "telecare"):
            assert sum(r.label == class_name for r in world[1]) > PREDICT_CHUNK
            self.check(world, class_name)

    def test_repeated_tokens_count_their_best_occurrence(self, monkeypatch):
        repeats = [rec(["mild00", "mild01", "mild00", "crit00", "mild00"]),
                   rec(["crit00", "mild02", "crit00", "mild02", "crit00", "mild02"]),
                   rec(["mild03", "mild03", "mild03", "mild03"]),
                   rec(["mild04", "crit01", "mild05", "mild04", "crit01", "mild05"])]
        params, records, vocab = world = self.world(max_len=16, min_count=1, extra=repeats)
        forward_chunks = model._forward_chunks

        def uneven_chunks(params, ids, demographics):
            """Equal windows get equal attention; scaling each packed row apart makes the
            occurrences of a repeated feature differ, for both paths alike."""
            for rows, probs, attention, lengths in forward_chunks(params, ids, demographics):
                yield rows, probs, {m: a * (1.0 + 0.1 * (np.arange(a.size) % 7))
                                    for m, a in attention.items()}, lengths

        monkeypatch.setattr(model, "_forward_chunks", uneven_chunks)
        # not vacuous: some repeated token's best occurrence comes after its first
        urgent = [r for r in records if r.label == "urgent_care"]
        attention = per_window_attention(params, encode_corpus(urgent, vocab, 16))
        later = 0
        for r, att in zip(repeats, attention[-len(repeats) :]):
            weights = att.alphas[1][: len(r.tokens)]
            for tok in set(r.tokens):
                at = [i for i, t in enumerate(r.tokens) if t == tok]
                later += len(at) > 1 and weights[at].argmax() > 0
        assert later
        self.check(world)

    def test_one_token_records(self):
        short = [rec([t]) for t in ("crit00", "mild00", "crit01", "mild00")]
        world = self.world(max_len=16, min_count=1, extra=short)
        self.check(world)

    def test_names_with_characters_below_space(self):
        # one-token records score their token 1.0 once, two-token ones their bigram,
        # so the names alone order the ties. Joined, "c\x00 d" < "c\x01 d" < "c d",
        # where a per-token order puts "c d" first; "a\x00" comes first in the
        # records but sorts after "a", which a numpy str array would read it as.
        extra = [rec(tokens) for tokens in (["a\x00"], ["a\x01"], ["a"], ["c", "d"],
                                            ["c\x01", "d"], ["c\x00", "d"])]
        params, train_records, test_records, vocab = drop_world(16, 1, extra, widths=(1, 2, 3))
        assert UNK_ID not in id_matrix(extra, vocab)  # the vocabulary knows them
        records = train_records + test_records
        world = params, records, vocab
        self.check(world)
        unigrams, bigrams = score_grams(params, records, vocab, "urgent_care", (1, 2))
        tied = [s.feature for s in unigrams if s.score == 1.0 and s.occurrences == 1]
        assert [f for f in tied if f.startswith("a")] == ["a", "a\x00", "a\x01"]
        assert [s.feature for s in bigrams if s.feature.endswith(" d")] == [
            "c\x00 d", "c\x01 d", "c d"]

    def test_unknown_tokens_rank_as_unk(self):
        world = self.world(max_len=16, min_count=2)
        params, records, vocab = world
        unknown = {t for r in records if r.label == "urgent_care" for t in r.tokens
                   if vocab.id_of(t) == UNK_ID}
        assert len(unknown) >= 2
        self.check(world)
        names = [s.feature for s in score_features(params, records, vocab, "urgent_care", 1)]
        assert names.count(UNK_TOKEN) == 1 and not unknown & set(names)

    @pytest.mark.parametrize("n_codes", [3, 2**21, 2**40])
    def test_gram_keys_match_equal_windows_only(self, n_codes):
        # at 2**21 and above, three or more digits leave int64 unless renumbered first
        rng = np.random.default_rng(n_codes)
        rows = rng.integers(max(n_codes - 4, 0), n_codes, size=(300, 5))
        keys = explain._gram_keys(rows, n_codes)
        _, by_row = np.unique(rows, axis=0, return_inverse=True)
        _, by_key = np.unique(keys, return_inverse=True)
        np.testing.assert_array_equal(by_key, by_row)

    def test_class_with_no_records(self):
        params, records, vocab = self.world(max_len=16, min_count=1)
        others = [r for r in records if r.label != "telecare"]
        for gram_sizes in self.GRAM_SIZES:
            assert score_grams(params, others, vocab, "telecare", gram_sizes) == [
                [] for _ in gram_sizes] == per_window_score_grams(
                    params, others, vocab, "telecare", gram_sizes)


class TestModelTokens:
    """Score tables, pairs and drop rankings name only the tokens the model saw:
    every token outside the vocabulary is one <unk> row."""

    @staticmethod
    def worlds():
        params, train_records, test_records, vocab = drop_world(max_len=16, min_count=2)
        yield "min_count 2", params, train_records, vocab
        params, train_records, test_records, vocab = drop_world(max_len=16, min_count=1)
        yield "unseen tokens", params, test_records, vocab

    def test_unknown_tokens_are_one_unk_row(self, monkeypatch):
        rankings = []

        def capturing_drop_mask(ids, drops, ranking, seed):
            rankings.append(ranking)
            return drop_mask_(ids, drops, ranking, seed)

        drop_mask_ = explain._drop_mask
        monkeypatch.setattr(explain, "_drop_mask", capturing_drop_mask)
        for what, params, records, vocab in self.worlds():
            unknown = {t for r in records if r.label == URGENT for t in r.tokens
                       if t not in vocab.token_to_id}
            assert len(unknown) >= 2, what
            known = set(vocab.id_to_token)
            unigrams, bigrams = score_grams(params, records, vocab, URGENT, (1, 2))
            for s in unigrams + bigrams:
                assert set(s.feature.split(" ")) <= known, (what, s.feature)
            assert [s.feature for s in unigrams].count(UNK_TOKEN) == 1, what
            assert any(UNK_TOKEN in s.feature.split(" ") for s in bigrams), what
            for p in pair_synergy(unigrams, bigrams):
                assert {p.first, p.second} <= known, what

            # the rankings score vocabulary ids; <unk> counts every unknown token
            rankings.clear()
            drop_experiment(params, records, records[:20], vocab, max_drops=1)
            random, frequency, attention = rankings
            counts = Counter(vocab.id_of(t) for r in records if r.label == URGENT
                             for t in r.tokens)
            expected = np.full(len(vocab), -np.inf)
            expected[list(counts)] = list(counts.values())
            assert random is None
            np.testing.assert_array_equal(frequency, expected)
            assert frequency[UNK_ID] == sum(1 for r in records if r.label == URGENT
                                            for t in r.tokens if t in unknown)
            expected = np.full(len(vocab), -np.inf)
            expected[[vocab.token_to_id[s.feature] for s in unigrams]] = [
                s.score for s in unigrams]
            np.testing.assert_array_equal(attention, expected)
            assert frequency[PAD_ID] == attention[PAD_ID] == -np.inf
            assert attention[UNK_ID] > -np.inf


@pytest.fixture(scope="module")
def experiment(scored_world):
    records, vocab, params = scored_world
    train, test = records[:40], records[40:]
    rows = drop_experiment(params, train, test, vocab, max_drops=2, seed=1)
    return rows, params, vocab, test


class TestDropExperiment:
    def test_row_set_and_order(self, experiment):
        rows, *_ = experiment
        assert [r.label for r in rows] == [
            "Baseline",
            "Random Drop",
            "Frequency Drop",
            "Attention Drop",
            "2 Random Drops",
            "2 Frequency Drops",
            "2 Attention Drops",
        ]
        assert [(r.kind, r.drops) for r in rows[:4]] == [
            ("baseline", 0),
            ("random", 1),
            ("frequency", 1),
            ("attention", 1),
        ]

    def test_baseline_row_is_plain_evaluate(self, experiment):
        rows, params, vocab, test = experiment
        encoded = [encode(r, vocab, params.config.max_len) for r in test]
        assert rows[0].metrics == evaluate(params, encoded)

    def test_rows_serializable(self, experiment):
        rows, *_ = experiment
        d = dataclasses.asdict(rows[3])
        assert d["kind"] == "attention" and d["drops"] == 1
        assert "metrics" in d and "accuracy" in d["metrics"]


class _TagBalance(HTMLParser):
    def __init__(self):
        super().__init__()
        self.depth = 0
        self.opened = 0
        self.text = ""

    def handle_starttag(self, tag, attrs):
        self.depth += 1
        self.opened += 1

    def handle_endtag(self, tag):
        self.depth -= 1

    def handle_data(self, data):
        self.text += data


class TestHeatmap:
    @staticmethod
    def record(weights, n_tokens=None):
        w = np.asarray(weights, dtype=float)
        return AttentionRecord(alphas={1: w}, n_tokens=n_tokens or len(w))

    def test_html_is_balanced_and_escaped(self):
        out = render_heatmap(["<b>", "fever", "&pain"], self.record([0.2, 0.5, 0.3]))
        parser = _TagBalance()
        parser.feed(out)
        parser.close()
        assert parser.depth == 0
        assert parser.opened == 4  # one div plus one span per token
        assert "<b>fever" not in out
        assert "&lt;b&gt;" in out and "&amp;pain" in out

    def test_argmax_token_rendered_at_full_intensity(self):
        out = render_heatmap(["a", "b", "c"], self.record([0.1, 0.6, 0.3]))
        assert out.count("1.000") == 1
        darkest = [chunk for chunk in out.split("<span")[1:] if "1.000" in chunk]
        assert ">b</span>" in darkest[0]

    def test_uniform_attention_renders_uniformly(self):
        out = render_heatmap(["a", "b", "c", "d"], self.record([0.25] * 4))
        assert out.count("1.000") == 4

    def test_padding_positions_omitted(self):
        # weights padded out to max_len, but only 2 real tokens
        padded = self.record([0.4, 0.6, 0.0, 0.0], n_tokens=2)
        out = render_heatmap(["a", "b"], padded)
        parser = _TagBalance()
        parser.feed(out)
        assert parser.opened == 3

    def test_ansi_contains_reset_per_token(self):
        out = render_heatmap(["a", "b"], self.record([0.5, 0.5]), fmt="ansi")
        assert out.count("\x1b[0m") == 2 and "a" in out and "b" in out

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigError):
            render_heatmap(["a", "b", "c"], self.record([0.5, 0.5]))

    def test_unknown_format_raises(self):
        with pytest.raises(ConfigError):
            render_heatmap(["a"], self.record([1.0]), fmt="pdf")

    def test_needs_width_one_weights(self):
        record = AttentionRecord(alphas={2: np.array([1.0])}, n_tokens=2)
        with pytest.raises(ConfigError):
            render_heatmap(["a", "b"], record)


class TestRendering:
    def test_score_table_lists_top_rows(self):
        scores = [
            SymptomScore("brustschmerz", "urgent_care", 0.91, 12, 0.3, 0.33),
            SymptomScore("husten", "urgent_care", 0.42, 30, 0.1, 0.25),
        ]
        table = render_score_table(scores, top=1)
        assert "brustschmerz" in table and "husten" not in table
        assert "0.9100" in table and "12" in table

    def test_pair_table_includes_margin_sign(self):
        pairs = [PairSynergy("a", "b", 0.4, 0.3, 0.9, 0.5)]
        table = render_pair_table(pairs)
        assert "a b" in table and "+0.5000" in table
