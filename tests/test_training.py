"""Tests for Adam, the training loop, metrics, and confidence filtering."""

import numpy as np
import pytest

from triagenet import model, training
from triagenet.corpus import (
    GeneratorSpec,
    build_vocab,
    encode_corpus,
    generate_corpus,
    split,
)
from triagenet.embedding import ConfigError
from triagenet.model import ModelConfig, doc_lengths, init_params, predict_batch
from triagenet.corpus import LABELS
from triagenet.training import (
    AdamState,
    ClassMetrics,
    EmptyRetainedError,
    HyperParams,
    Metrics,
    TrainingDivergedError,
    adam_step,
    confidence_filter,
    derive_seed,
    evaluate,
    grid_search,
    metrics_from,
    render_metrics_table,
    train,
)


@pytest.fixture(scope="module")
def tiny_task():
    corpus = generate_corpus(GeneratorSpec(), 150, seed=21)
    vocab = build_vocab(corpus.records)
    encoded = encode_corpus(corpus.records, vocab, max_len=12)
    tr, va, te = split(corpus.records, (0.7, 0.15, 0.15), seed=0)
    config = ModelConfig(
        vocab_size=len(vocab),
        max_len=12,
        embedding_dim=8,
        widths=(1, 2),
        filters=8,
        attention_size=6,
        mlp_layers=(16,),
        dropout=0.1,
    )
    return config, [encoded[i] for i in tr], [encoded[i] for i in va], [encoded[i] for i in te]


def allocating_adam_step(params, grads, state, hyper):
    """Adam with a fresh array for every intermediate, as the step was first written:
    the oracle for the in-place step."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name] if name in grads else np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= training.BETA1
        m += (1 - training.BETA1) * g
        v *= training.BETA2
        v += (1 - training.BETA2) * g * g
        m_hat = m / (1 - training.BETA1**t)
        v_hat = v / (1 - training.BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + training.EPS) + training.WEIGHT_DECAY * p
        p -= hyper.lr * update


class TestAdam:
    def test_in_place_step_matches_the_allocating_one(self):
        # 50 steps on every tensor of a fulltext-sized model (max_len 96, default sizes)
        rng = np.random.default_rng(31)
        shapes = model.tensor_shapes(ModelConfig(vocab_size=700, max_len=96))
        ours = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        theirs = {name: a.copy() for name, a in ours.items()}
        state, oracle_state = AdamState(ours), AdamState(theirs)
        hyper = HyperParams(lr=0.01)
        for step in range(50):
            # some steps leave a tensor without a gradient, as kimcnn's attention is
            grads = {name: rng.normal(size=a.shape) * rng.random() for name, a in ours.items()
                     if rng.random() >= 0.1}
            adam_step(ours, grads, state, hyper)
            allocating_adam_step(theirs, {name: g.copy() for name, g in grads.items()},
                                 oracle_state, hyper)
        assert state.t == oracle_state.t == 50
        for name in shapes:  # bit for bit
            for got, want in [(ours, theirs), (state.m, oracle_state.m), (state.v, oracle_state.v)]:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_zero_gradient_applies_only_decay(self):
        before = np.array([1.0, -2.0])
        params = {"w": before.copy()}
        hyper = HyperParams(lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, AdamState(params), hyper)
        np.testing.assert_array_equal(params["w"], before - hyper.lr * (training.WEIGHT_DECAY * before))

    def test_quadratic_converges(self):
        # f(theta) = theta^2 from theta=1, lr=0.1: near zero in 200 steps
        params = {"theta": np.array([1.0])}
        state = AdamState(params)
        hyper = HyperParams(lr=0.1)
        for _ in range(200):
            adam_step(params, {"theta": 2.0 * params["theta"]}, state, hyper)
        assert abs(float(params["theta"][0])) < 0.05

    def test_zero_row_with_zero_gradient_never_moves(self):
        # how train pins the padding embedding row: moments and decay stay zero there
        params = {"w": np.zeros((3, 2))}
        state = AdamState(params)
        for _ in range(3):
            g = np.ones((3, 2))
            g[0] = 0.0
            adam_step(params, {"w": g}, state, HyperParams(lr=0.05))
        assert params["w"][0].tobytes() == np.zeros(2).tobytes()
        assert np.all(params["w"][1:] != 0)

    def test_deterministic(self):
        def run():
            params = {"w": np.array([0.5, -1.5])}
            state = AdamState(params)
            for i in range(10):
                adam_step(params, {"w": np.array([1.0, -2.0]) * (i + 1)}, state, HyperParams())
            return params["w"].tobytes()

        assert run() == run()


class TestMetrics:
    def test_perfect_predictions(self):
        m = metrics_from([0, 1, 2, 0], [0, 1, 2, 0])
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0
        for cm in m.per_class.values():
            assert (cm.precision, cm.recall, cm.f1) == (1.0, 1.0, 1.0)

    def test_engineered_confusion(self):
        # true: 5 of each class; class-1 cases all predicted as class 2
        true = [0] * 5 + [1] * 5 + [2] * 5
        pred = [0] * 5 + [2] * 5 + [2] * 5
        m = metrics_from(true, pred)
        assert m.confusion == [[5, 0, 0], [0, 0, 5], [0, 0, 5]]
        c3 = m.per_class["telecare"]
        assert c3.precision == 0.5
        assert c3.recall == 1.0
        assert abs(c3.f1 - 2 / 3) < 1e-12
        c2 = m.per_class["general_practice"]
        assert (c2.precision, c2.recall, c2.f1) == (0.0, 0.0, 0.0)
        assert abs(m.accuracy - 10 / 15) < 1e-12

    def test_accuracy_is_trace_over_n(self):
        rng = np.random.default_rng(4)
        true = list(rng.integers(0, 3, size=200))
        pred = list(rng.integers(0, 3, size=200))
        m = metrics_from(true, pred)
        trace = sum(m.confusion[i][i] for i in range(3))
        assert m.accuracy == trace / 200

    def test_zero_support_flagged(self):
        m = metrics_from([0, 0], [0, 1])
        assert m.zero_support_classes == ["general_practice", "telecare"]
        assert m.per_class["general_practice"].recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            metrics_from([0, 1], [0])

    def test_render_table_contains_values(self):
        m = metrics_from([0, 1, 2], [0, 1, 2])
        text = render_metrics_table([("baseline", m)])
        assert "baseline" in text
        assert "100.0" in text


class TestConfidenceFilter:
    def test_minimum_threshold_keeps_everything(self):
        probs = np.array([[0.34, 0.33, 0.33], [0.4, 0.3, 0.3]])
        assert confidence_filter(probs, 1.0 / 3.0) == [0, 1]

    def test_thresholds_nest(self):
        rng = np.random.default_rng(9)
        raw = rng.random((50, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        kept_low = confidence_filter(probs, 0.4)
        kept_high = confidence_filter(probs, 0.6)
        assert set(kept_high) <= set(kept_low)

    def test_all_discarded_raises(self):
        probs = np.array([[0.34, 0.33, 0.33]])
        with pytest.raises(EmptyRetainedError):
            confidence_filter(probs, 0.99)

    def test_threshold_range_enforced(self):
        probs = np.array([[0.5, 0.25, 0.25]])
        with pytest.raises(ConfigError):
            confidence_filter(probs, 0.2)
        with pytest.raises(ConfigError):
            confidence_filter(probs, 1.0)


def tally_metrics(true_labels, predicted, retained_fraction=1.0):
    """metrics_from as a per-case tally into nested lists: the oracle."""
    n = len(LABELS)
    confusion = [[0] * n for _ in range(n)]
    for t, p in zip(true_labels, predicted):
        confusion[t][p] += 1
    per_class, zero_support, f1s = {}, [], []
    for i, name in enumerate(LABELS):
        support = sum(confusion[i])
        predicted_as = sum(row[i] for row in confusion)
        tp = confusion[i][i]
        precision = tp / predicted_as if predicted_as else 0.0
        recall = tp / support if support else 0.0
        if not support:
            zero_support.append(name)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[name] = ClassMetrics(precision, recall, f1, support)
        f1s.append(f1)
    return Metrics(per_class=per_class, confusion=confusion,
                   accuracy=float(np.trace(confusion) / np.sum(confusion)),
                   macro_f1=float(np.mean(f1s)), retained_fraction=retained_fraction,
                   zero_support_classes=zero_support)


def tally_evaluate(params, cases, threshold=None):
    """evaluate as one Prediction per case, filtered and tallied: the oracle."""
    preds = predict_batch(params, cases)
    kept = [i for i, p in enumerate(preds)
            if threshold is None or float(p.probs.max()) >= threshold]
    if not kept:
        raise EmptyRetainedError("nothing kept")
    retained = 1.0 if threshold is None else len(kept) / len(preds)
    return tally_metrics([cases[i].label for i in kept], [preds[i].predicted for i in kept],
                         retained)


class TestEvaluateOracle:
    def test_trained_model_at_and_around_the_gate(self, tiny_task):
        config, tr, va, te = tiny_task
        params = init_params(config, seed=8)
        train(params, tr, va, HyperParams(lr=0.03, epochs=3), seed=8)
        cases = tr + va + te  # over two chunks, so sorted by length
        confidence = sorted(float(p.probs.max()) for p in predict_batch(params, cases))
        at_gate = min(confidence, key=lambda c: abs(c - 0.6))  # one case exactly at the gate
        assert abs(at_gate - 0.6) < 0.05
        thresholds = [None]
        for gate in (0.6, at_gate):
            thresholds += [gate, np.nextafter(gate, 0.0), np.nextafter(gate, 1.0)]
        for threshold in thresholds:
            assert evaluate(params, cases, threshold) == tally_evaluate(params, cases, threshold)
        below = evaluate(params, cases, np.nextafter(at_gate, 1.0))
        assert evaluate(params, cases, at_gate).retained_fraction > below.retained_fraction

    def test_probability_exactly_at_the_gate(self, tiny_task, monkeypatch):
        config, _, _, te = tiny_task
        # each case's probabilities are set by its first token
        table = np.array([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [np.nextafter(0.6, 0.0), 0.3, 0.1],
                          [0.2, 0.2, 0.6], [0.1, 0.7, 0.2], [0.5, 0.25, 0.25]])

        def fixed_forward(params, ids, demographics, **kwargs):
            return table[ids[:, 0] % len(table)], {}, doc_lengths(ids)

        monkeypatch.setattr(model, "forward_graph", fixed_forward)
        params = init_params(config, seed=1)
        assert 0.6 in table[[c.ids[0] % len(table) for c in te]].max(axis=1)
        for threshold in (None, 0.6, np.nextafter(0.6, 0.0), np.nextafter(0.6, 1.0), 0.5):
            assert evaluate(params, te, threshold) == tally_evaluate(params, te, threshold)


    def test_retained_fraction_is_kept_over_total(self, tiny_task, monkeypatch):
        config, _, _, te = tiny_task
        probs = np.array([[0.9, 0.05, 0.05], [0.4, 0.3, 0.3], [0.5, 0.25, 0.25]])
        monkeypatch.setattr(training, "predict_probs", lambda params, ids, demographics: probs)
        metrics = evaluate(init_params(config, seed=1), te[:3], 0.6)
        assert metrics.retained_fraction == 1 / 3  # 1 - (1 - 1/3) is 0.33333333333333326


class TestTrain:
    def test_loss_decreases_and_history_shape(self, tiny_task):
        config, tr, va, te = tiny_task
        params = init_params(config, seed=1)
        history = train(params, tr, va, HyperParams(lr=0.01, epochs=3), seed=1)
        assert len(history.epochs) == 3
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_each_epoch_runs_every_case_forward_once(self, tiny_task, monkeypatch):
        config, tr, va, _ = tiny_task
        rows = []
        real_forward = model.forward_graph

        def counting(params, ids, *args, **kwargs):
            rows.append(len(ids))
            return real_forward(params, ids, *args, **kwargs)

        monkeypatch.setattr(model, "forward_graph", counting)  # training's pass calls it too
        history = train(init_params(config, seed=1), tr, va, HyperParams(epochs=2), seed=1)
        assert len(history.epochs) == 2
        assert sum(rows) == 2 * (len(tr) + len(va))

    def test_zero_lr_leaves_parameters_unchanged(self, tiny_task):
        config, tr, va, _ = tiny_task
        params = init_params(config, seed=2)
        before = [t.copy() for t in params.tensors.values()]
        train(params, tr, va, HyperParams(lr=0.0, epochs=1), seed=2)
        for b, t in zip(before, params.tensors.values(), strict=True):
            assert b.tobytes() == t.tobytes()

    def test_deterministic_in_seed(self, tiny_task):
        config, tr, va, _ = tiny_task

        def run(seed):
            params = init_params(config, seed=7)
            train(params, tr, va, HyperParams(lr=0.01, epochs=2), seed=seed)
            return b"".join(t.tobytes() for t in params.tensors.values())

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_padding_row_untouched_by_training(self, tiny_task):
        # from init_params, and with an embedding tensor built without it
        config, tr, va, _ = tiny_task
        table = np.random.default_rng(3).uniform(-1, 1, (config.vocab_size, config.embedding_dim))
        table[0] = 0.0
        by_hand = init_params(config, seed=3)
        by_hand.tensors["embedding"] = table.copy()
        for params in (init_params(config, seed=3), by_hand):
            emb = params.tensors["embedding"]
            before = emb.copy()
            train(params, tr, va, HyperParams(lr=0.01, epochs=1), seed=3)
            assert emb[0].tobytes() == np.zeros(config.embedding_dim).tobytes()
            assert np.all(emb[1:] != before[1:])

    def test_poisoned_parameters_abort(self, tiny_task):
        config, tr, va, _ = tiny_task
        params = init_params(config, seed=4)
        params.tensors["embedding"][2, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(params, tr, va, HyperParams(lr=0.01, epochs=1), seed=4)

    def test_exploding_lr_aborts(self, tiny_task):
        config, tr, va, _ = tiny_task
        params = init_params(config, seed=5)
        with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
            train(params, tr, va, HyperParams(lr=1e200, epochs=2), seed=5)

    def test_empty_sets_rejected(self, tiny_task):
        config, tr, va, _ = tiny_task
        params = init_params(config, seed=6)
        with pytest.raises(ConfigError):
            train(params, [], va, HyperParams(), seed=0)

    def test_evaluate_with_threshold_reports_retention(self, tiny_task):
        config, tr, va, te = tiny_task
        params = init_params(config, seed=8)
        train(params, tr, va, HyperParams(lr=0.01, epochs=2), seed=8)
        unfiltered = evaluate(params, te)
        assert unfiltered.retained_fraction == 1.0
        top = sorted(float(p.probs.max()) for p in predict_batch(params, te))
        assert top[0] < top[-1]
        # a cut inside the confidence range keeps some cases, drops others
        filtered = evaluate(params, te, threshold=(top[0] + top[-1]) / 2.0)
        assert 0.0 < filtered.retained_fraction < 1.0
        with pytest.raises(EmptyRetainedError):
            evaluate(params, te, threshold=float(np.nextafter(top[-1], 1.0)))

    def test_derive_seed_is_stable_and_split(self):
        assert derive_seed(7, "shuffle") == derive_seed(7, "shuffle")
        assert derive_seed(7, "shuffle") != derive_seed(7, "dropout")
        assert derive_seed(7, "shuffle") != derive_seed(8, "shuffle")


class TestGridSearch:
    def test_sweep_orders_by_validation_f1(self, tiny_task):
        config, tr, va, _ = tiny_task
        results = grid_search(
            config,
            tr[:40],
            va,
            HyperParams(epochs=1),
            {"lr": [0.01, 0.0], "dropout": [0.0]},
            seed=0,
        )
        assert len(results) == 2
        assert results[0]["val_macro_f1"] >= results[1]["val_macro_f1"]
        combos = {tuple(sorted(r["combo"].items())) for r in results}
        assert len(combos) == 2

    def test_unknown_key_rejected(self, tiny_task):
        config, tr, va, _ = tiny_task
        with pytest.raises(ConfigError):
            grid_search(config, tr, va, HyperParams(), {"momentum": [0.9]}, seed=0)

    def test_every_combination_checked_before_training(self, tiny_task, monkeypatch):
        config, tr, va, _ = tiny_task
        monkeypatch.setattr(training, "train", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="lr must be a number"):
            grid_search(config, tr, va, HyperParams(), {"lr": [0.01, "x"]}, seed=0)
        with pytest.raises(ConfigError, match="dropout must be a number"):
            grid_search(config, tr, va, HyperParams(), {"dropout": [0.1, "x"]}, seed=0)
        with pytest.raises(ConfigError, match="dropout must be in"):
            grid_search(config, tr, va, HyperParams(), {"dropout": [1.5]}, seed=0)

    @pytest.mark.parametrize("grid", [{}, {"lr": 0.01}, {"lr": []}, [["lr", [0.01]]]],
                             ids=["empty", "not-a-list", "empty-list", "not-an-object"])
    def test_grid_must_map_names_to_nonempty_lists(self, tiny_task, grid):
        config, tr, va, _ = tiny_task
        with pytest.raises(ConfigError, match="nonempty value lists"):
            grid_search(config, tr, va, HyperParams(), grid, seed=0)
