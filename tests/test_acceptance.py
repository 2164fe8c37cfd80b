"""Acceptance suite: one test per headline property of the toolkit.

Runs the full desk-scale experiment once per session — a 5000-case
synthetic corpus, five independently seeded attention-CNN trainings,
and one max-pooling baseline — then checks gradient fidelity, attention
well-formedness, trainability, baseline parity, planted red-flag
recovery, pair synergy, drop-experiment ordering, confidence filtering,
pipeline determinism, and scoring-oracle equivalence. Expected wall
time for the module is about half a minute on a 2-core machine.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from triagenet.cli import main
from triagenet.corpus import (
    LABELS,
    EncodedCase,
    GeneratorSpec,
    build_lexicon,
    build_vocab,
    encode,
    encode_corpus,
    generate_corpus,
    split,
)
from triagenet.explain import drop_experiment, pair_synergy, score_features
from triagenet.model import (
    ModelConfig,
    forward_graph,
    grad_check,
    init_params,
    loss_and_grads,
    mean_nll,
    predict,
)
from triagenet.training import HyperParams, derive_seed, evaluate, train

CORPUS_SEED = 77
N_CASES = 5000
SEEDS = (0, 1, 2, 3, 4)
MAX_LEN = 16
URGENT = "urgent_care"


# -- shared experiment fixtures ---------------------------------------------


@pytest.fixture(scope="module")
def world():
    """Separable 5000-case corpus with stratified splits and train vocab."""
    spec = GeneratorSpec()
    corpus = generate_corpus(spec, N_CASES, seed=CORPUS_SEED)
    tr_i, va_i, te_i = split(
        corpus.records, (0.9, 0.05, 0.05), seed=derive_seed(CORPUS_SEED, "split")
    )
    train_records = [corpus.records[i] for i in tr_i]
    val_records = [corpus.records[i] for i in va_i]
    test_records = [corpus.records[i] for i in te_i]
    vocab = build_vocab(train_records)
    return SimpleNamespace(
        spec=spec,
        lexicon=build_lexicon(spec),
        train_records=train_records,
        test_records=test_records,
        vocab=vocab,
        train=encode_corpus(train_records, vocab, MAX_LEN),
        val=encode_corpus(val_records, vocab, MAX_LEN),
        test=encode_corpus(test_records, vocab, MAX_LEN),
    )


@pytest.fixture(scope="module")
def trained(world):
    """Five attention-CNN models trained from independent seeds."""
    config = ModelConfig(
        vocab_size=len(world.vocab),
        max_len=MAX_LEN,
        embedding_dim=32,
        widths=(1, 2, 3),
        filters=32,
        attention_size=24,
        mlp_layers=(48,),
        dropout=0.2,
    )
    hyper = HyperParams(lr=0.002, epochs=5, batch_size=64)
    t0 = time.perf_counter()
    models, best_val, test_f1 = {}, {}, {}
    for s in SEEDS:
        params = init_params(config, derive_seed(s, "init"))
        history = train(params, world.train, world.val, hyper, seed=derive_seed(s, "train"))
        models[s] = params
        best_val[s] = max(e.val_macro_f1 for e in history.epochs)
        test_f1[s] = evaluate(params, world.test).macro_f1
    seconds = time.perf_counter() - t0
    return SimpleNamespace(
        config=config,
        hyper=hyper,
        models=models,
        best_val=best_val,
        test_f1=test_f1,
        seconds=seconds,
    )


@pytest.fixture(scope="module")
def urgent_scores(world, trained):
    """Urgent-class unigram and bigram score tables for every seed."""
    uni = {s: score_features(trained.models[s], world.train_records, world.vocab, URGENT, 1)
           for s in SEEDS}
    bi = {s: score_features(trained.models[s], world.train_records, world.vocab, URGENT, 2)
          for s in SEEDS}
    return uni, bi


# -- 1: analytic gradients match central differences -------------------------


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    corpus = generate_corpus(GeneratorSpec(), 10, seed=5)
    vocab = build_vocab(corpus.records)
    config = ModelConfig(
        vocab_size=len(vocab),
        max_len=10,
        embedding_dim=5,
        widths=(1, 2, 3),
        filters=4,
        attention_size=3,
        mlp_layers=(6,),
        dropout=0.0,
    )
    params = init_params(config, seed=17)
    cases = encode_corpus(corpus.records[:2], vocab, config.max_len)
    ids = np.array([c.ids for c in cases])
    demographics = np.array([c.demographics for c in cases])

    labels = [c.label for c in cases]
    _, grads = loss_and_grads(params, ids, demographics, labels)

    def loss():
        cache = {}
        probs, _, _ = forward_graph(params, ids, demographics, cache=cache)
        return mean_nll(probs, labels), cache["relu"]

    report = grad_check(loss, params.tensors, grads, eps=1e-5)
    total = sum(t.size for t in params.tensors.values())
    assert report.checked + len(report.excluded) == total
    assert report.checked > 0.9 * total
    assert report.max_rel_error < 1e-4
    assert time.perf_counter() - t0 < 60.0


# -- 2: attention weights form a distribution over window positions ----------


def test_criterion_02_attention_well_formedness():
    config = ModelConfig(
        vocab_size=50,
        max_len=12,
        embedding_dim=8,
        widths=(1, 2, 3),
        filters=6,
        attention_size=5,
        mlp_layers=(10,),
        dropout=0.0,
    )
    params = init_params(config, seed=9)
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n_real = int(rng.integers(1, config.max_len + 1))
        ids = np.zeros(config.max_len, dtype=np.int64)
        ids[:n_real] = rng.integers(1, config.vocab_size, size=n_real)
        demo = np.array([rng.random(), 1.0, 0.0])
        case = EncodedCase(ids=ids, demographics=demo, label=0)
        attention = predict(params, case).attention
        assert attention.n_tokens == n_real
        for m in config.widths:
            alphas = attention.alphas[m]
            assert alphas.shape == (config.max_len - m + 1,)
            assert np.all(alphas >= 0.0)
            assert abs(float(alphas.sum()) - 1.0) <= 1e-9


# -- 3: the separable corpus is learnable within five epochs -----------------


def test_criterion_03_trainability(trained):
    reached = sum(1 for s in SEEDS if trained.best_val[s] >= 0.90)
    assert reached >= 4, f"validation macro-F1 by seed: {trained.best_val}"
    assert trained.seconds < 600.0


# -- 4: max-pooling baseline performs on par ---------------------------------


def test_criterion_04_baseline_parity(world, trained):
    config = dataclasses.replace(trained.config, arch="kimcnn")
    params = init_params(config, derive_seed(0, "init"))
    train(params, world.train, world.val, trained.hyper, seed=derive_seed(0, "train"))
    baseline_f1 = evaluate(params, world.test).macro_f1
    mean_attention_f1 = float(np.mean(list(trained.test_f1.values())))
    assert abs(baseline_f1 - mean_attention_f1) <= 0.05


# -- 5: planted red-flag singles top the urgent unigram ranking --------------


def test_criterion_05_red_flag_recovery(world, urgent_scores):
    uni, _ = urgent_scores
    red = set(world.lexicon.red_flags)
    hits = [len({x.feature for x in uni[s][:10]} & red) for s in SEEDS]
    assert float(np.mean(hits)) >= 8.0, f"top-10 red-flag hits by seed: {hits}"


# -- 6: planted pairs outscore both of their members -------------------------


def test_criterion_06_pair_synergy(world, urgent_scores):
    uni, bi = urgent_scores
    planted = {(a, b) for a, b in world.lexicon.pairs}
    for s in SEEDS:
        margins = {
            (p.first, p.second): p.margin
            for p in pair_synergy(uni[s], bi[s])
            if (p.first, p.second) in planted
        }
        assert set(margins) == planted, f"seed {s}: missing pairs {planted - set(margins)}"
        for pair, margin in margins.items():
            assert margin > 0.0, f"seed {s}: pair {pair} margin {margin}"


# -- 7: dropping attention-ranked tokens hurts urgent recall most ------------


def test_criterion_07_drop_ordering(world, trained):
    recalls = {label: [] for label in
               ("Baseline", "Random Drop", "Attention Drop", "2 Attention Drops")}
    for s in SEEDS:
        rows = drop_experiment(
            trained.models[s], world.train_records, world.test_records, world.vocab,
            max_drops=2, class_name=URGENT, seed=s,
        )
        by_label = {r.label: r.metrics.per_class[URGENT].recall for r in rows}
        for label in recalls:
            recalls[label].append(by_label[label])
    mean = {label: float(np.mean(v)) for label, v in recalls.items()}
    assert mean["Attention Drop"] < mean["Random Drop"] < mean["Baseline"], mean
    gap_one = mean["Baseline"] - mean["Attention Drop"]
    gap_two = mean["Baseline"] - mean["2 Attention Drops"]
    assert gap_two > gap_one, mean


# -- 8: confidence filtering never lowers urgent precision -------------------


def test_criterion_08_confidence_filter(world, trained):
    for s in SEEDS:
        unfiltered = evaluate(trained.models[s], world.test)
        filtered = evaluate(trained.models[s], world.test, threshold=0.6)
        assert filtered.retained_fraction is not None
        assert 0.0 < filtered.retained_fraction <= 1.0
        assert (filtered.per_class[URGENT].precision
                >= unfiltered.per_class[URGENT].precision), f"seed {s}"


# -- 9: the pipeline is reproducible byte for byte ---------------------------

PIPELINE_CONFIG = {
    "seed": 29,
    "cases": 300,
    "model": {
        "embedding_dim": 8,
        "filters": 6,
        "attention_size": 5,
        "mlp_layers": [10],
        "widths": [1, 2],
        "dropout": 0.1,
    },
    "training": {"epochs": 2, "lr": 0.005, "batch_size": 32},
    "embedding": {"iters": 1},
}

PIPELINE_FILES = (
    "corpus.jsonl",
    "embeddings.bin",
    "vocab.json",
    "model.bin",
    "metrics.json",
    f"scores_{URGENT}_1gram.json",
    "manifest_gen_data.json",
    "manifest_pretrain_embeddings.json",
    "manifest_train.json",
    "manifest_evaluate.json",
    "manifest_score_symptoms.json",
)


def test_criterion_09_pipeline_determinism(tmp_path, monkeypatch):
    def run_once(directory):
        directory.mkdir()
        monkeypatch.chdir(directory)
        (directory / "config.json").write_text(json.dumps(PIPELINE_CONFIG))
        for argv in (
            ["gen-data", "--config", "config.json"],
            ["pretrain-embeddings", "--config", "config.json"],
            ["train", "--config", "config.json", "--embeddings", "embeddings.bin"],
            ["evaluate", "--config", "config.json"],
            ["score-symptoms", "--config", "config.json", "--class", URGENT, "--gram", "1"],
        ):
            assert main(argv) == 0, argv

    run_once(tmp_path / "first")
    run_once(tmp_path / "second")
    for name in PIPELINE_FILES:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


# -- 10: emitted scores are bounded and equal a brute-force recount ----------


def slow_scores(params, records, vocab, class_name, width):
    """Straightforward recount of the per-class feature scores.

    Deliberately naive: one pass per record, python floats, dict of
    running lists. Returns {feature: (score, occurrences)}.
    """
    ratios: dict[str, list[float]] = {}
    for record in records:
        if record.label != class_name:
            continue
        pred = predict(params, encode(record, vocab, params.config.max_len))
        n_tokens = min(len(record.tokens), params.config.max_len)
        n_windows = n_tokens - width + 1
        if n_windows < 1:
            continue
        weights = [float(w) for w in pred.attention.alphas[width][:n_windows]]
        case_max = max(weights)
        best: dict[str, float] = {}
        for t in range(n_windows):
            gram = " ".join(record.tokens[t : t + width])
            ratio = weights[t] / case_max
            if ratio > best.get(gram, -1.0):
                best[gram] = ratio
        for gram, ratio in best.items():
            ratios.setdefault(gram, []).append(ratio)
    return {g: (sum(v) / len(v), len(v)) for g, v in ratios.items()}


def test_criterion_10_scoring_matches_brute_force():
    corpus = generate_corpus(GeneratorSpec(), 50, seed=21)
    vocab = build_vocab(corpus.records)
    config = ModelConfig(
        vocab_size=len(vocab),
        max_len=12,
        embedding_dim=8,
        widths=(1, 2, 3),
        filters=6,
        attention_size=5,
        mlp_layers=(10,),
        dropout=0.0,
    )
    params = init_params(config, seed=3)
    for class_name in LABELS:
        for width in config.widths:
            scores = score_features(params, corpus.records, vocab, class_name, width)
            expected = slow_scores(params, corpus.records, vocab, class_name, width)
            assert {s.feature for s in scores} == set(expected)
            assert scores, (class_name, width)
            for s in scores:
                assert 0.0 <= s.score <= 1.0
                value, occurrences = expected[s.feature]
                assert abs(s.score - value) < 1e-12, s.feature
                assert s.occurrences == occurrences, s.feature
