"""Tests for feature scoring, drop experiments, and heatmap rendering."""

import dataclasses
from html.parser import HTMLParser

import numpy as np
import pytest

from triagenet.corpus import (
    CaseRecord,
    GeneratorSpec,
    Vocabulary,
    build_vocab,
    encode,
    generate_corpus,
)
from triagenet.embedding import ConfigError
from triagenet.explain import (
    DropStrategy,
    PairSynergy,
    SymptomScore,
    drop_dataset,
    drop_experiment,
    pair_synergy,
    render_heatmap,
    render_pair_table,
    render_score_table,
    score_features,
)
from triagenet.model import AttentionRecord, ModelConfig, init_params, predict
from triagenet.training import evaluate


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
        assert p.margin == pytest.approx(0.1)
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
            assert p.margin == pytest.approx(
                p.pair_score - max(uni_scores[p.first], uni_scores[p.second])
            )


def rec(tokens, label="urgent_care", flags=()):
    return CaseRecord(tokens=list(tokens), label=label, age=40, gender="male",
                      planted_flags=list(flags))


class TestDropDataset:
    def test_ranked_drop_removes_top_present(self):
        ranking = {"a": 3.0, "b": 2.0, "c": 1.0}
        strategy = DropStrategy(kind="attention", drops=1)
        out = drop_dataset([rec(["c", "a", "b"])], strategy, ranking)
        assert out[0].tokens == ["c", "b"]

    def test_absent_top_falls_through_to_next_ranked(self):
        ranking = {"a": 3.0, "b": 2.0, "c": 1.0}
        strategy = DropStrategy(kind="attention", drops=1)
        out = drop_dataset([rec(["c", "x"])], strategy, ranking)
        assert out[0].tokens == ["x"]

    def test_repeated_top_token_loses_both_instances(self):
        ranking = {"a": 3.0, "b": 1.0}
        out = drop_dataset([rec(["a", "b", "a"])], DropStrategy("attention", drops=2), ranking)
        assert out[0].tokens == ["b"]

    def test_frequency_ranking_behaves_like_attention_ranking(self):
        freq = {"common": 50.0, "rare": 2.0}
        out = drop_dataset([rec(["rare", "common", "z"])], DropStrategy("frequency", 1), freq)
        assert out[0].tokens == ["rare", "z"]

    def test_conservation_and_never_empty(self):
        records = [rec(["a"]), rec(["a", "b"]), rec(["a", "b", "c", "d"])]
        for kind, ranking in (("random", None), ("attention", {"a": 1.0})):
            for k in (1, 2, 5):
                out = drop_dataset(records, DropStrategy(kind, k, seed=4), ranking)
                assert len(out) == len(records)
                for before, after in zip(records, out):
                    assert len(after.tokens) == max(1, len(before.tokens) - k)
                    assert after.label == before.label
                    assert after.age == before.age

    def test_random_is_seed_deterministic(self):
        records = [rec(list("abcdef")), rec(list("ghij"))]
        a = drop_dataset(records, DropStrategy("random", 2, seed=9), None)
        b = drop_dataset(records, DropStrategy("random", 2, seed=9), None)
        c = drop_dataset(records, DropStrategy("random", 2, seed=10), None)
        assert [r.tokens for r in a] == [r.tokens for r in b]
        assert any(x.tokens != y.tokens for x, y in zip(a, c))

    def test_flag_indices_remapped(self):
        ranking = {"b": 9.0}
        out = drop_dataset([rec(["a", "b", "c"], flags=[0, 2])], DropStrategy("attention", 1), ranking)
        assert out[0].tokens == ["a", "c"]
        assert out[0].planted_flags == [0, 1]

    def test_dropped_flag_disappears(self):
        ranking = {"b": 9.0}
        out = drop_dataset([rec(["a", "b", "c"], flags=[1])], DropStrategy("attention", 1), ranking)
        assert out[0].planted_flags == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            DropStrategy("typo", 1).validate()
        with pytest.raises(ConfigError):
            DropStrategy("random", 0).validate()
        with pytest.raises(ConfigError):
            drop_dataset([rec(["a", "b"])], DropStrategy("attention", 1), None)


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
