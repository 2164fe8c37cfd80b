"""Tests for the attention CNN model components."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape
from triagenet import model, training
from triagenet.corpus import LABELS, DataContract, EncodedCase
from triagenet.embedding import ChecksumError, ConfigError, init_table
from triagenet.model import (
    PREDICT_CHUNK,
    ModelConfig,
    Segments,
    ShapeError,
    attend,
    forward_graph,
    grad_check,
    init_params,
    load_model,
    loss_and_grads,
    mean_nll,
    predict,
    predict_batch,
    predict_probs,
    save_model,
    window_rows,
)


def tiny_config(**overrides):
    base = dict(
        vocab_size=12,
        max_len=5,
        embedding_dim=4,
        widths=(1, 2),
        filters=3,
        attention_size=3,
        mlp_layers=(6,),
        dropout=0.0,
        arch="acnn",
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_case(ids, max_len, age=40, gender_male=True):
    padded = np.zeros(max_len, dtype=np.int64)
    padded[: len(ids)] = ids
    demo = np.array([age / 110, 1.0 if gender_male else 0.0, 0.0 if gender_male else 1.0])
    return EncodedCase(ids=padded, demographics=demo, label=0)


def forward(params, cases, *args, **kwargs):
    return forward_graph(
        params,
        np.array([c.ids for c in cases]),
        np.array([c.demographics for c in cases]),
        *args,
        **kwargs,
    )


def training_pass(params, ids, demographics):
    """``loss_and_grads`` on labels of zero: the pass training runs, forward and backward."""
    return loss_and_grads(params, ids, demographics, np.zeros(len(ids), dtype=np.int64))


# the training pass, once taped, and the inference pass
PASSES = {"taped": training_pass, "tape-free": forward_graph}


def check_gradients(params, ids, demographics, labels):
    """``grad_check`` of ``loss_and_grads``' gradients over every model tensor."""
    _, grads = loss_and_grads(params, ids, demographics, labels)

    def f():
        cache = {}
        probs, _, _ = forward_graph(params, ids, demographics, cache=cache)
        return mean_nll(probs, labels), cache["relu"]

    return grad_check(f, params.tensors, grads)


def runs(alpha, lengths, n_windows):
    """Each document's run of packed attention weights, over its first window starts."""
    return np.split(alpha, np.cumsum(np.minimum(lengths, n_windows))[:-1])


def random_biases(params, rng):
    # a nonzero bias lets an all-padding window win the max pool
    t = params.tensors
    for m in params.config.widths:
        t[f"conv_b{m}"] = rng.normal(size=params.config.filters)
        t[f"attn_b{m}"] = rng.normal(size=params.config.attention_size)
    for name in [name for name in t if name.startswith("mlp_b")]:
        t[name] = rng.normal(size=t[name].shape)


def oracle_forward(params, case):
    """Plain-numpy forward of one document over all max_len positions.

    Returns the class probabilities and, for acnn, each width's weights
    over every window position, zero where a window starts in padding.
    """
    cfg = params.config
    t = params.tensors
    n_tokens = int(np.flatnonzero(case.ids)[-1]) + 1
    emb = t["embedding"][case.ids]
    pooled, alphas = [], {}
    for m in cfg.widths:
        n_windows = cfg.max_len - m + 1
        windows = np.array([emb[i : i + m].reshape(-1) for i in range(n_windows)])
        feats = np.maximum(windows @ t[f"conv_w{m}"] + t[f"conv_b{m}"], 0.0)
        if cfg.arch == "kimcnn":
            pooled.append(feats.max(axis=0))
            continue
        valid = feats[: min(n_windows, n_tokens)]
        u = np.tanh(valid @ t[f"attn_w{m}"] + t[f"attn_b{m}"])
        logits = u @ t[f"attn_u{m}"]
        e = np.exp(logits - logits.max())
        alphas[m] = np.zeros(n_windows)
        alphas[m][: len(valid)] = e / e.sum()
        pooled.append(alphas[m][: len(valid)] @ valid)
    h = np.concatenate(pooled + [case.demographics])
    for i in range(len(cfg.mlp_layers)):
        h = np.maximum(h @ t[f"mlp_w{i}"] + t[f"mlp_b{i}"], 0.0)
    out = len(cfg.mlp_layers)
    logits = h @ t[f"mlp_w{out}"] + t[f"mlp_b{out}"]
    e = np.exp(logits - logits.max())
    return e / e.sum(), alphas


def per_width_forward_graph(params, ids, demographics, *, dropout_rng=None, tensors=None):
    """``forward_graph`` as each width once ran it, over the tape: the oracle for the
    shared window block.

    Each width gathers its own (N, m) windows and convolves them; attention
    projects with ``tanh_affine``. Returns tensors of one graph over
    ``tensors`` (fresh leaves by default), as ``tape.forward_graph`` does.
    """
    cfg = params.config
    t = tape.leaves(params) if tensors is None else tensors
    lengths = model.doc_lengths(ids)
    L = ids.shape[1]
    counts = lengths + (cfg.arch == "kimcnn")
    pooled, attention = [], {}
    for m in cfg.widths:
        seg, first = window_rows(counts, L - m + 1, L)
        windows = ids.ravel()[first[:, None] + np.arange(m)]
        feats = tape.conv(tape.lookup(t["embedding"], windows), t[f"conv_w{m}"], t[f"conv_b{m}"])
        if cfg.arch == "kimcnn":
            pooled.append(tape.segment_max(feats, seg))
            continue
        u = tape.tanh_affine(feats, t[f"attn_w{m}"], t[f"attn_b{m}"])
        attention[m] = tape.segment_softmax(tape.matmul(u, t[f"attn_u{m}"]), seg)
        pooled.append(tape.segment_sum(attention[m], feats, seg))
    h = tape.concat(pooled + [tape.Tensor(demographics)])
    out = len(cfg.mlp_layers)
    for i in range(out):
        h = tape.relu(tape.add(tape.matmul(h, t[f"mlp_w{i}"]), t[f"mlp_b{i}"]))
        if dropout_rng is not None:
            h = tape.dropout(h, cfg.dropout, dropout_rng)
    probs = tape.softmax(tape.add(tape.matmul(h, t[f"mlp_w{out}"]), t[f"mlp_b{out}"]))
    return probs, attention, lengths


def glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def per_kind_init(config, seed, pretrained=None):
    """The draws of ``init_params`` as it made them kind by kind, before the named
    layout, keyed by tensor name: the oracle for the layout-driven init."""
    rng = np.random.default_rng(seed)
    k, f, a = config.embedding_dim, config.filters, config.attention_size
    if pretrained is not None:
        emb = pretrained.vectors.copy()
        rms = float(np.sqrt(np.mean(np.square(emb[1:]))))
        if rms > 0.0:
            emb *= (0.05 / np.sqrt(3.0)) / rms
    else:
        emb = rng.uniform(-0.05, 0.05, size=(config.vocab_size, k))
    emb[0] = 0.0
    tensors = {"embedding": emb}
    for m in config.widths:
        tensors[f"conv_w{m}"] = glorot(rng, m * k, f, (m * k, f))
        tensors[f"conv_b{m}"] = np.zeros(f)
        tensors[f"attn_w{m}"] = glorot(rng, f, a, (f, a))
        tensors[f"attn_b{m}"] = np.zeros(a)
        tensors[f"attn_u{m}"] = rng.uniform(-np.sqrt(3.0 / a), np.sqrt(3.0 / a), size=a)
    dims = [config.mlp_input_dim, *config.mlp_layers, len(LABELS)]
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        tensors[f"mlp_w{i}"] = glorot(rng, d_in, d_out, (d_in, d_out))
        tensors[f"mlp_b{i}"] = np.zeros(d_out)
    return tensors


class TestInit:
    @pytest.mark.parametrize(
        "overrides, pretrained",
        [({}, False), ({"arch": "kimcnn"}, False), ({"mlp_layers": ()}, False),
         ({"widths": (1, 2, 4), "mlp_layers": (7, 5)}, False), ({}, True)],
        ids=["acnn", "kimcnn", "no-hidden-layer", "two-hidden-layers", "pretrained"],
    )
    def test_same_bits_as_the_per_kind_init(self, overrides, pretrained):
        cfg = tiny_config(**overrides)
        table = init_table(cfg.vocab_size, cfg.embedding_dim, seed=8) if pretrained else None
        params = init_params(cfg, seed=31, pretrained=table)
        oracle = per_kind_init(cfg, seed=31, pretrained=table)
        assert list(params.tensors) == list(model.tensor_shapes(cfg))
        assert params.tensors.keys() == oracle.keys()
        for name, values in oracle.items():
            assert params.tensors[name].tobytes() == values.tobytes(), name

    @pytest.mark.parametrize("overrides", [{}, {"mlp_layers": ()},
                                           {"widths": (4, 1, 2), "mlp_layers": (7, 5)}])
    def test_tensor_names_group_the_layout(self, overrides):
        cfg = tiny_config(**overrides)
        per_width, mlp = cfg.tensor_names
        assert list(per_width) == sorted(cfg.widths)
        assert len(mlp) == len(cfg.mlp_layers) + 1
        grouped = ["embedding", *(n for m in per_width for n in per_width[m]),
                   *(n for layer in mlp for n in layer)]
        assert grouped == list(model.tensor_shapes(cfg))
        shapes = model.tensor_shapes(cfg)
        for m, (conv_w, conv_b, attn_w, attn_b, attn_u) in per_width.items():
            assert shapes[conv_w] == (m * cfg.embedding_dim, cfg.filters)
            assert shapes[attn_u] == (cfg.attention_size,)
        assert shapes[mlp[-1][1]] == (len(LABELS),)

    def test_deterministic_and_padding_zero(self):
        a = init_params(tiny_config(), seed=3)
        b = init_params(tiny_config(), seed=3)
        for ta, tb in zip(a.tensors.values(), b.tensors.values(), strict=True):
            np.testing.assert_array_equal(ta, tb)
        c = init_params(tiny_config(), seed=4)
        assert a.tensors["embedding"].tobytes() != c.tensors["embedding"].tobytes()
        np.testing.assert_array_equal(a.tensors["embedding"][0], np.zeros(4))

    def test_parameter_count_closed_form(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        V, k, f, a = cfg.vocab_size, cfg.embedding_dim, cfg.filters, cfg.attention_size
        expected = V * k
        for m in cfg.widths:
            expected += m * k * f + f  # conv filters and bias
            expected += f * a + a + a  # attention projection, bias, context vector
        dims = [len(cfg.widths) * f + 3, *cfg.mlp_layers, len(LABELS)]
        for d_in, d_out in zip(dims, dims[1:]):
            expected += d_in * d_out + d_out
        assert sum(t.size for t in params.tensors.values()) == expected

    def test_width_exceeding_max_len_rejected(self):
        with pytest.raises(ConfigError):
            init_params(tiny_config(widths=(1, 6)), seed=0)

    @pytest.mark.parametrize(
        "field, value",
        [("max_len", 5.0), ("filters", "3"), ("widths", 12), ("mlp_layers", ["6"]),
         ("dropout", "0.1")],
    )
    def test_wrong_typed_config_values_rejected(self, field, value):
        fields = {**dataclasses.asdict(tiny_config()), field: value}
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(fields)

    def test_bad_arch_rejected(self):
        with pytest.raises(ConfigError):
            init_params(tiny_config(arch="transformer"), seed=0)

    def test_pretrained_table_used_and_shape_checked(self):
        cfg = tiny_config()
        table = init_table(cfg.vocab_size, cfg.embedding_dim, seed=8)
        table.vectors[1:] *= 40.0  # arbitrary scale must not leak downstream
        params = init_params(cfg, seed=0, pretrained=table)
        emb = params.tensors["embedding"]
        target_rms = 0.05 / np.sqrt(3.0)
        assert np.isclose(np.sqrt(np.mean(np.square(emb[1:]))), target_rms)
        # geometry is untouched: one positive scalar maps table to emb
        scale = target_rms / np.sqrt(np.mean(np.square(table.vectors[1:])))
        np.testing.assert_allclose(emb, table.vectors * scale, atol=1e-12)
        bad = init_table(cfg.vocab_size, cfg.embedding_dim + 1, seed=8)
        with pytest.raises(ConfigError):
            init_params(cfg, seed=0, pretrained=bad)


def encode_windows(params, windows):
    """Width m's n-gram features as ``forward_graph`` computes them: the (N, m) windows
    gathered from the embedding table as one block, then the convolution."""
    t, m = params.tensors, windows.shape[1]
    return model._conv(model._lookup(t["embedding"], windows), t[f"conv_w{m}"], t[f"conv_b{m}"])


class TestNgramEncode:
    def test_feature_map_shape(self):
        params = init_params(tiny_config(), seed=1)
        windows = np.random.default_rng(0).integers(0, 12, size=(7, 2))
        feats = encode_windows(params, windows)
        assert feats.shape == (7, 3)

    def test_zero_embedding_zero_bias_gives_zeros(self):
        params = init_params(tiny_config(), seed=1)
        params.tensors["embedding"] = np.zeros((12, 4))
        feats = encode_windows(params, np.arange(10).reshape(10, 1))
        np.testing.assert_array_equal(feats, np.zeros((10, 3)))

    def test_single_filter_matches_numpy_convolution(self):
        cfg = tiny_config(filters=1)
        params = init_params(cfg, seed=2)
        emb = params.tensors["embedding"]
        ids = np.random.default_rng(1).integers(1, 12, size=(2, 5))
        windows = np.array([doc[i : i + 2] for doc in ids for i in range(4)])
        feats = encode_windows(params, windows)
        w = params.tensors["conv_w2"][:, 0].reshape(2, 4)
        b = params.tensors["conv_b2"][0]
        for doc in range(2):
            direct = [max(0.0, float(np.sum(w * emb[ids[doc, i : i + 2]])) + b) for i in range(4)]
            np.testing.assert_allclose(feats[4 * doc : 4 * doc + 4, 0], direct, atol=1e-15)


class TestAttend:
    def test_single_row_gets_full_weight(self):
        params = init_params(tiny_config(), seed=5)
        row = np.random.default_rng(2).normal(size=(1, 3))
        s, alpha, _ = attend(params, row, Segments([1]), 1)
        np.testing.assert_allclose(alpha, [1.0])
        np.testing.assert_allclose(s, row, atol=1e-15)

    def test_identical_rows_uniform(self):
        params = init_params(tiny_config(), seed=5)
        rows = np.random.default_rng(3).normal(size=(2, 3))
        feats = np.repeat(rows, [4, 2], axis=0)  # documents of 4 and 2 windows
        s, alpha, _ = attend(params, feats, Segments([4, 2]), 1)
        np.testing.assert_allclose(alpha, [0.25] * 4 + [0.5] * 2, atol=1e-12)
        np.testing.assert_allclose(s, rows, atol=1e-12)

    def test_engineered_log_odds(self):
        # u = tanh(v), logit = u * ln3/tanh(1): rows [0] and [1] give
        # logits [0, ln3], so weights must be [1/4, 3/4]
        cfg = tiny_config(filters=1, attention_size=1)
        params = init_params(cfg, seed=0)
        params.tensors["attn_w1"] = np.array([[1.0]])
        params.tensors["attn_b1"] = np.array([0.0])
        params.tensors["attn_u1"] = np.array([np.log(3.0) / np.tanh(1.0)])
        feats = np.array([[0.0], [1.0]])
        s, alpha, u = attend(params, feats, Segments([2]), 1)
        np.testing.assert_allclose(alpha, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(s, [[0.75]], atol=1e-12)
        np.testing.assert_allclose(u, np.tanh(feats), atol=1e-15)


class TestForward:
    def test_probabilities_form_a_simplex(self):
        params = init_params(tiny_config(), seed=7)
        probs, _, _ = forward(params, [make_case([2, 3, 4], 5), make_case([5], 5)])
        assert probs.shape == (2, 3)
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_padding_windows_get_zero_attention(self):
        params = init_params(tiny_config(), seed=7)
        cases = [make_case([2, 3], 5), make_case([2, 3, 4, 5, 6], 5), make_case([4], 5)]
        _, attention, lengths = forward(params, cases)
        np.testing.assert_array_equal(lengths, [2, 5, 1])
        for m, alpha in attention.items():  # one weight per window that starts in the document
            assert [len(r) for r in runs(alpha, lengths, 5 - m + 1)] == [2, 6 - m, 1]
        record = predict_batch(params, cases)[0].attention
        assert record.n_tokens == 2
        a1 = record.alphas[1]
        assert a1.shape == (5,)
        np.testing.assert_array_equal(a1[2:], np.zeros(3))
        assert abs(a1[:2].sum() - 1.0) < 1e-9
        a2 = record.alphas[2]
        assert a2.shape == (4,)
        np.testing.assert_array_equal(a2[2:], np.zeros(2))

    def test_attention_well_formed_on_random_inputs(self):
        params = init_params(tiny_config(), seed=11)
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 6, size=100)
        cases = [make_case(rng.integers(2, 12, size=n), 5) for n in lengths]
        for pred in predict_batch(params, cases):
            n = pred.attention.n_tokens
            for m, alpha in pred.attention.alphas.items():
                assert alpha.shape == (5 - m + 1,)
                assert np.all(alpha >= 0)
                assert np.all(alpha[n:] == 0.0)
                assert abs(alpha.sum() - 1.0) < 1e-9

    def test_inference_deterministic(self):
        params = init_params(tiny_config(), seed=7)
        cases = [make_case([2, 3, 4, 5], 5), make_case([6, 7], 5)]
        p1, _, _ = forward(params, cases)
        p2, _, _ = forward(params, cases)
        assert p1.tobytes() == p2.tobytes()

    def test_empty_document_rejected(self):
        params = init_params(tiny_config(), seed=7)
        ids = np.array([[2, 3, 0, 0, 0], [0, 0, 0, 0, 0]])
        with pytest.raises(ShapeError):
            forward_graph(params, ids, np.zeros((2, 3)))

    def test_width1_attention_is_permutation_equivariant(self):
        params = init_params(tiny_config(widths=(1,)), seed=13)
        ids = np.array([2, 5, 7, 9, 11])
        perm = np.array([3, 0, 4, 1, 2])
        _, att, _ = forward(params, [make_case(ids, 5), make_case(ids[perm], 5)])
        np.testing.assert_allclose(att[1][5:], att[1][:5][perm], atol=1e-12)

    def test_dropout_runs_exactly_when_a_generator_is_given(self):
        cases = [make_case([2, 3, 4], 5)] * 2
        params = init_params(tiny_config(dropout=0.5), seed=7)
        p0, _, _ = forward(params, cases)
        assert p0[0].tobytes() == p0[1].tobytes()
        assert forward(params, cases)[0].tobytes() == p0.tobytes()
        rng = np.random.default_rng(0)
        p1, _, _ = forward(params, cases, dropout_rng=rng)
        p2, _, _ = forward(params, cases, dropout_rng=rng)
        assert p1.tobytes() != p2.tobytes()
        # each row draws its own mask
        assert p1[0].tobytes() != p1[1].tobytes()
        # a zero rate draws nothing and leaves the forward as it is
        rng = np.random.default_rng(0)
        still, _, _ = forward(init_params(tiny_config(dropout=0.0), seed=7), cases, dropout_rng=rng)
        assert still.tobytes() == p0.tobytes()
        assert rng.random() == np.random.default_rng(0).random()

    def test_positional_train_flag_is_refused(self):
        params = init_params(tiny_config(dropout=0.5), seed=7)
        with pytest.raises(TypeError):
            forward_graph(params, np.array([[2, 3, 4, 0, 0]]), np.zeros((1, 3)), True)

    def test_gradients_match_finite_differences(self):
        params = init_params(tiny_config(), seed=17)
        cases = [make_case([2, 3, 4, 5, 6], 5), make_case([7], 5, age=70, gender_male=False)]
        ids = np.array([c.ids for c in cases])
        report = check_gradients(params, ids, np.array([c.demographics for c in cases]), [1, 1])
        assert report.max_rel_error < 1e-4
        assert report.checked > 0

    def test_kimcnn_gradients_where_the_padding_window_wins(self):
        params = init_params(tiny_config(arch="kimcnn"), seed=19)
        # filter 0 scores every real window below its bias alone, so in a
        # document with an all-padding window that window wins
        t = params.tensors
        t["embedding"] = np.abs(t["embedding"])
        for m in params.config.widths:
            t[f"conv_w{m}"][:, 0] = -np.abs(t[f"conv_w{m}"][:, 0])
            t[f"conv_b{m}"] = np.full(3, 0.5)
        cases = [make_case([2, 3, 4, 5, 6], 5), make_case([7, 8], 5, age=70)]

        short = t["embedding"][[7, 8, 0, 0, 0]]
        for m in params.config.widths:  # so relu(0.5) beats the short document's real windows
            scores = [short[i : i + m].reshape(-1) @ t[f"conv_w{m}"][:, 0] for i in range(2)]
            assert max(scores) < 0.0
        ids = np.array([c.ids for c in cases])
        report = check_gradients(params, ids, np.array([c.demographics for c in cases]), [1, 2])
        assert report.max_rel_error < 1e-4
        assert report.checked > 0

    def test_relu_record_holds_each_convolution_and_hidden_layer(self):
        # the units grad_check watches: every width's convolution, then the hidden layers
        cfg = tiny_config(max_len=8, widths=(3, 1, 2), mlp_layers=(6, 4))
        params = init_params(cfg, seed=23)
        random_biases(params, np.random.default_rng(23))
        cases = [make_case([2, 3, 4, 5, 6, 7, 8, 9], 8), make_case([7, 8], 8)]
        cache = {}
        forward(params, cases, cache=cache)
        relu, t = cache["relu"], params.tensors
        assert len(relu) == 3 + 2
        for feats, m in zip(relu, cfg.widths):
            want = [np.maximum(t["embedding"][c.ids[i : i + m]].reshape(-1) @ t[f"conv_w{m}"]
                               + t[f"conv_b{m}"], 0.0)
                    for c, n in zip(cases, (8, 2)) for i in range(min(n, 8 - m + 1))]
            np.testing.assert_allclose(feats, want, rtol=0, atol=1e-15)
        h = cache["inputs"][0]
        for i, hidden in enumerate(relu[3:]):
            np.testing.assert_array_equal(hidden, np.maximum(h @ t[f"mlp_w{i}"] + t[f"mlp_b{i}"], 0.0))
            h = hidden
        units = np.concatenate([r.reshape(-1) for r in relu])
        assert np.any(units == 0.0) and np.any(units > 0.0)  # both sides of the kink

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_batch_gradient_is_the_mean_of_per_case_gradients(self, arch):
        # a gradient leaking across document boundaries shows here, not in the forward pass
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=53)
        rng = np.random.default_rng(53)
        random_biases(params, rng)
        cases = [make_case(rng.integers(1, 12, size=n), 8, age=int(rng.integers(101)))
                 for n in (8, 2, 5, 1, 7)]
        labels = [0, 2, 1, 1, 0]

        def gradients(batch, batch_labels):
            _, grads = loss_and_grads(params, np.array([c.ids for c in batch]),
                                      np.array([c.demographics for c in batch]), batch_labels)
            return {name: grads.get(name, np.zeros_like(a)) for name, a in params.tensors.items()}

        together = gradients(cases, labels)
        alone = [gradients([c], [y]) for c, y in zip(cases, labels)]
        for name, g in together.items():
            np.testing.assert_allclose(g, np.mean([a[name] for a in alone], axis=0),
                                       rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("kind", ["taped", "tape-free"])
    def test_convolution_sees_real_windows_only(self, arch, kind, monkeypatch):
        # and kimcnn one all-padding window for each document that has one
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=59)
        rng = np.random.default_rng(59)
        lengths = np.array([8, 1, 3, 7, 2])
        cases = [make_case(rng.integers(1, 12, size=n), 8) for n in lengths]
        filters = {id(params.tensors[f"conv_w{m}"]): m for m in cfg.widths}
        rows = {}
        real_conv = model._conv

        def recording(windows, w, b):
            rows[filters[id(w)]] = windows.shape[0]
            return real_conv(windows, w, b)

        monkeypatch.setattr(model, "_conv", recording)
        PASSES[kind](params, np.array([c.ids for c in cases]), np.array([c.demographics for c in cases]))
        counts = lengths + (arch == "kimcnn")
        assert rows == {m: int(np.minimum(counts, 8 - m + 1).sum()) for m in cfg.widths}

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("kind", ["taped", "tape-free"])
    @pytest.mark.parametrize("lengths, widest", [
        ([3, 2, 5], {"acnn": [3], "kimcnn": [3]}),  # every width's windows fit every document
        ([6, 2], {"acnn": [3], "kimcnn": [2, 3]}),  # kimcnn's padding window: width 3 has one less
        ([8, 1, 3], {"acnn": [1, 2, 3], "kimcnn": [1, 2, 3]}),  # a document reaches max_len
    ], ids=["one-layout", "kimcnn-two", "three-layouts"])
    def test_one_window_gather_per_layout(self, arch, kind, lengths, widest, monkeypatch):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=61)
        rng = np.random.default_rng(61)
        cases = [make_case(rng.integers(1, 12, size=n), 8) for n in lengths]
        gathers = []
        real_lookup = model._lookup

        def recording(table, ids):
            gathers.append(ids)
            return real_lookup(table, ids)

        monkeypatch.setattr(model, "_lookup", recording)
        PASSES[kind](params, np.array([c.ids for c in cases]), np.array([c.demographics for c in cases]))
        assert sorted(ids.shape[1] for ids in gathers) == widest[arch]
        counts = np.array(lengths) + (arch == "kimcnn")
        for ids in gathers:  # each layout's rows: the windows of its widest width that fit
            m = ids.shape[1]
            assert len(ids) == int(np.minimum(counts, 8 - m + 1).sum())

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("kind", ["taped", "tape-free"])
    @pytest.mark.parametrize("lengths", [[5, 1, 3, 4, 2], [8, 1, 7, 3, 8, 6]],
                             ids=["one-layout", "three-layouts"])
    def test_same_bits_as_the_per_width_path(self, arch, kind, lengths):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=67)
        rng = np.random.default_rng(67)
        random_biases(params, rng)
        ids = np.array([make_case(rng.integers(1, 12, size=n), 8).ids for n in lengths])
        demographics = rng.random((len(lengths), 3))
        labels = rng.integers(0, 3, size=len(lengths))
        # the training pass keeps its intermediates and takes the loss from the same forward
        cache = {} if kind == "taped" else None
        probs, attention, got_lengths = forward_graph(params, ids, demographics, cache=cache)
        want, want_attention, want_lengths = per_width_forward_graph(params, ids, demographics)
        np.testing.assert_array_equal(probs, want.data)
        assert set(attention) == set(want_attention)
        for m in attention:
            np.testing.assert_array_equal(attention[m], want_attention[m].data)
        np.testing.assert_array_equal(got_lengths, want_lengths)
        if kind == "taped":
            loss, _ = loss_and_grads(params, ids, demographics, labels)
            assert loss == tape.mean_nll(want, labels).item()

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("lengths", [[5, 1, 3, 4, 2], [8, 1, 7, 3, 8, 6]],
                             ids=["one-layout", "three-layouts"])
    def test_gradients_match_the_per_width_path(self, arch, lengths):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch, dropout=0.3)
        params = init_params(cfg, seed=71)
        rng = np.random.default_rng(71)
        random_biases(params, rng)
        ids = np.array([make_case(rng.integers(1, 12, size=n), 8).ids for n in lengths])
        ids[0, :2] = 5  # a repeated token, so windows overlap on one embedding row
        demographics = rng.random((len(lengths), 3))
        labels = rng.integers(0, 3, size=len(lengths))

        _, got = loss_and_grads(params, ids, demographics, labels, np.random.default_rng(5))
        _, want = tape.loss_and_grads(params, ids, demographics, labels, np.random.default_rng(5),
                                      forward=per_width_forward_graph)
        assert got.keys() == want.keys()  # kimcnn's attention tensors get none
        assert len(got) == len(params.tensors) - 3 * 3 * (arch == "kimcnn")  # attn_w, attn_b, attn_u
        for name, g in got.items():
            np.testing.assert_allclose(g, want[name], rtol=0, atol=1e-12, err_msg=name)
        assert np.any(got["embedding"] != 0.0)  # the embedding gradient is compared, not zeros

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_training_matches_the_per_width_path(self, arch, monkeypatch):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch, dropout=0.2)
        rng = np.random.default_rng(73)
        cases = [make_case(rng.integers(1, 12, size=n), 8, age=int(rng.integers(101)))
                 for n in rng.integers(1, 9, size=48)]
        for c in cases:
            c.label = int(rng.integers(3))
        hyper = training.HyperParams(lr=0.01, epochs=3, batch_size=16)

        def trained():
            params = init_params(cfg, seed=73)
            training.train(params, cases[:40], cases[40:], hyper, seed=7)
            return params

        got = trained()
        monkeypatch.setattr(training, "loss_and_grads", functools.partial(
            tape.loss_and_grads, forward=per_width_forward_graph))
        want = trained()
        for name, t in got.tensors.items():
            np.testing.assert_allclose(t, want.tensors[name], rtol=0, atol=1e-12, err_msg=name)
        start = init_params(cfg, seed=73).tensors
        assert not np.array_equal(got.tensors["conv_w1"], start["conv_w1"])  # it trained

    @given(
        arch=st.sampled_from(["acnn", "kimcnn"]),
        seed=st.integers(min_value=0, max_value=2**16),
        full=st.booleans(),
        short=st.integers(min_value=1, max_value=2),
        lengths=st.lists(st.integers(min_value=1, max_value=8), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_case_numpy_oracle(self, arch, seed, full, short, lengths):
        # every batch holds a document shorter than the widest window,
        # half of them a full-length one, next to documents of any length
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        random_biases(params, rng)
        cases = [
            make_case(rng.integers(1, cfg.vocab_size, size=n), 8, age=int(rng.integers(101)))
            for n in [cfg.max_len] * full + [short, *lengths]
        ]
        probs, attention, lengths = forward(params, cases)
        for i, case in enumerate(cases):
            want_probs, want_alphas = oracle_forward(params, case)
            np.testing.assert_allclose(probs[i], want_probs, rtol=0, atol=1e-12)
            assert set(attention) == set(want_alphas)
            for m, alpha in attention.items():
                run = runs(alpha, lengths, 8 - m + 1)[i]
                np.testing.assert_allclose(run, want_alphas[m][: len(run)], rtol=0, atol=1e-12)
                assert np.all(want_alphas[m][len(run) :] == 0.0)

    def test_predict_equals_its_batch_row(self):
        params = init_params(tiny_config(max_len=8, widths=(1, 2, 3)), seed=31)
        rng = np.random.default_rng(4)
        cases = [make_case(rng.integers(2, 12, size=n), 8) for n in (8, 1, 3, 2, 6)]
        batch = predict_batch(params, cases)
        for case, row in zip(cases, batch):
            single = predict(params, case)
            assert single.predicted == row.predicted
            assert single.attention.n_tokens == row.attention.n_tokens
            np.testing.assert_allclose(single.probs, row.probs, rtol=0, atol=1e-12)
            for m, alpha in single.attention.alphas.items():
                np.testing.assert_allclose(alpha, row.attention.alphas[m], rtol=0, atol=1e-12)


def assert_same_bits_as_the_tape(params, ids, demographics, labels, dropout):
    """The forward's outputs, the loss and every gradient, bit for bit against the tape."""
    probs, attention, lengths = forward_graph(params, ids, demographics)
    taped, taped_attention, taped_lengths = tape.forward_graph(params, ids, demographics)
    assert probs.tobytes() == taped.data.tobytes()
    assert attention.keys() == taped_attention.keys()
    for m, alpha in attention.items():
        assert alpha.tobytes() == taped_attention[m].data.tobytes()
    np.testing.assert_array_equal(lengths, taped_lengths)
    rngs = [np.random.default_rng(9) if dropout else None for _ in range(2)]
    loss, grads = loss_and_grads(params, ids, demographics, labels, rngs[0])
    want_loss, want = tape.loss_and_grads(params, ids, demographics, labels, rngs[1])
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert g.tobytes() == want[name].tobytes(), name


class TestTapeFree:
    """The array forward and backward against the tape: the same bits and the same checks."""

    @given(
        arch=st.sampled_from(["acnn", "kimcnn"]),
        seed=st.integers(min_value=0, max_value=2**16),
        short=st.integers(min_value=1, max_value=2),
        sizes=st.lists(st.integers(min_value=1, max_value=8), max_size=5),
        dropout=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_taped_pass(self, arch, seed, short, sizes, dropout):
        # a document shorter than the widest window next to any others
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch, dropout=0.3 if dropout else 0.0)
        params = init_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        random_biases(params, rng)
        cases = [make_case(rng.integers(1, 12, size=n), 8, age=int(rng.integers(101)))
                 for n in [short, *sizes]]
        ids = np.array([c.ids for c in cases])
        labels = rng.integers(0, 3, size=len(cases))
        assert_same_bits_as_the_tape(params, ids, np.array([c.demographics for c in cases]),
                                     labels, dropout)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("lengths", [[5, 1, 3, 4, 2], [8, 1, 7, 3, 8, 6]],
                             ids=["one-layout", "three-layouts"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no-dropout", "dropout"])
    def test_loss_and_gradients_are_the_tapes_bit_for_bit(self, arch, lengths, dropout):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch, dropout=dropout,
                          mlp_layers=(6, 5))
        params = init_params(cfg, seed=79)
        rng = np.random.default_rng(79)
        random_biases(params, rng)
        ids = np.array([make_case(rng.integers(1, 12, size=n), 8).ids for n in lengths])
        ids[0, :2] = 5  # windows overlap on one embedding row
        labels = rng.integers(0, 3, size=len(lengths))
        assert_same_bits_as_the_tape(params, ids, rng.random((len(lengths), 3)), labels, dropout)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_shared_layouts_fold_into_the_embedding_in_the_tapes_order(self, arch):
        # widths (1, 5, 4, 2) over documents whose longest has 6 tokens: 1 and 2
        # share a layout, first of the three by its first width and last by its
        # last width; the gathers' gradients add in the order of each layout's last width
        cfg = tiny_config(max_len=8, widths=(1, 5, 4, 2), dropout=0.3, arch=arch)
        rng = np.random.default_rng(83)
        ids = np.array([make_case(rng.integers(1, 12, size=n), 8).ids for n in (6, 2, 5, 1)])
        cache = {}
        forward_graph(init_params(cfg, seed=0), ids, np.zeros((4, 3)), cache=cache)
        longest = 6 + (arch == "kimcnn")
        assert cache["keys"] == {1: longest, 5: 4, 4: 5, 2: longest}
        for seed in range(5):
            params = init_params(cfg, seed=seed)
            random_biases(params, rng)
            assert_same_bits_as_the_tape(params, ids, rng.random((4, 3)), [0, 1, 2, 0], True)

    def test_clamped_probability_passes_no_gradient(self):
        # a label whose probability sits below NLL_FLOOR: the loss is the
        # clamp's, and no gradient flows, as mean_nll's rule says
        params = init_params(tiny_config(), seed=97)
        params.tensors["mlp_b1"] = np.array([60.0, -60.0, 0.0])
        ids = np.array([make_case([2, 3, 4], 5).ids, make_case([5, 6], 5).ids])
        probs, _, _ = forward_graph(params, ids, np.zeros((2, 3)))
        assert np.all(probs[:, 1] < model.NLL_FLOOR)
        loss, grads = loss_and_grads(params, ids, np.zeros((2, 3)), [1, 1])
        assert loss == -np.log(model.NLL_FLOOR)
        assert all(not np.any(g) for g in grads.values())
        assert_same_bits_as_the_tape(params, ids, np.zeros((2, 3)), [1, 0], False)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_training_is_the_tapes_bit_for_bit(self, arch, monkeypatch):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch, dropout=0.2)
        rng = np.random.default_rng(89)
        cases = [make_case(rng.integers(1, 12, size=n), 8, age=int(rng.integers(101)))
                 for n in rng.integers(1, 9, size=48)]
        for c in cases:
            c.label = int(rng.integers(3))
        hyper = training.HyperParams(lr=0.01, epochs=3, batch_size=16)

        def trained():
            params = init_params(cfg, seed=89)
            training.train(params, cases[:40], cases[40:], hyper, seed=7)
            return params

        got = trained()
        monkeypatch.setattr(training, "loss_and_grads", tape.loss_and_grads)
        want = trained()
        for name, t in got.tensors.items():
            assert t.tobytes() == want.tensors[name].tobytes(), name

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_inference_builds_no_tape(self, arch, monkeypatch):
        # inference keeps no intermediates; only the training pass asks for them
        params = init_params(tiny_config(arch=arch), seed=3)
        cases = [make_case([2, 3, 4], 5), make_case([5], 5)] * PREDICT_CHUNK
        caches = []
        real_forward = model.forward_graph

        def recording(*args, cache=None, **kwargs):
            caches.append(cache)
            return real_forward(*args, cache=cache, **kwargs)

        monkeypatch.setattr(model, "forward_graph", recording)
        training_pass(params, np.array([c.ids for c in cases[:2]]), np.zeros((2, 3)))
        assert len(caches) == 1 and isinstance(caches[0], dict)  # the recorder sees training
        caches.clear()
        predict_batch(params, cases)
        predict(params, cases[0])
        assert len(caches) == 3 and caches == [None] * 3

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([[2, 3, 0, 0, 0], [0, 0, 0, 0, 0]], ShapeError),  # an empty document
            ([[2, 3, 0, 0]], ShapeError),  # not max_len columns
            ([[2, 12, 0, 0, 0]], IndexError),  # an id past the table
        ],
        ids=["empty", "shape", "id-range"],
    )
    def test_same_checks_as_the_taped_pass(self, ids, error):
        params = init_params(tiny_config(), seed=3)
        ids = np.array(ids)
        for run in (forward_graph, training_pass, tape.forward_graph):
            with pytest.raises(error):
                run(params, ids, np.zeros((len(ids), 3)))

    def test_window_wider_than_the_document_refused(self):
        # a width past max_len leaves a document no window to pack
        for n_windows in (0, -1):
            with pytest.raises(ShapeError):
                window_rows(np.array([2, 1]), n_windows, 2)


class TestPredictOrder:
    def test_sorted_chunks_come_back_in_the_callers_order(self, monkeypatch):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3))
        params = init_params(cfg, seed=37)
        rng = np.random.default_rng(37)
        random_biases(params, rng)
        n = 2 * PREDICT_CHUNK + 13
        cases = [make_case(rng.integers(1, 12, size=k), 8, age=int(rng.integers(101)))
                 for k in rng.integers(1, 9, size=n)]
        perm = rng.permutation(n)
        seen = []
        real_forward = model.forward_graph

        def recording(params, ids, *args, **kwargs):
            out = real_forward(params, ids, *args, **kwargs)
            seen.append(out[2])
            return out

        monkeypatch.setattr(model, "forward_graph", recording)
        straight = predict_batch(params, cases)
        permuted = predict_batch(params, [cases[i] for i in perm])
        # each pass got a run of the length order
        assert [len(chunk) for chunk in seen] == [PREDICT_CHUNK, PREDICT_CHUNK, 13] * 2
        passes = np.concatenate(seen[:3])
        np.testing.assert_array_equal(passes, np.sort(passes))
        for case, pred, again in zip(cases, straight, (permuted[j] for j in np.argsort(perm))):
            want_probs, want_alphas = oracle_forward(params, case)
            np.testing.assert_allclose(pred.probs, want_probs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(again.probs, pred.probs, rtol=0, atol=1e-15)
            assert again.predicted == pred.predicted
            n_tokens = pred.attention.n_tokens
            assert n_tokens == int(np.flatnonzero(case.ids)[-1]) + 1
            for m, alpha in pred.attention.alphas.items():
                assert np.all(alpha[n_tokens:] == 0.0)
                np.testing.assert_allclose(alpha, want_alphas[m], rtol=0, atol=1e-12)
                np.testing.assert_allclose(again.attention.alphas[m], alpha, rtol=0, atol=1e-15)

    def test_no_cases_no_predictions(self):
        assert predict_batch(init_params(tiny_config(), seed=3), []) == []

    def test_probs_are_predict_batchs_bit_for_bit(self):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3))
        params = init_params(cfg, seed=5)
        random_biases(params, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        cases = [make_case(rng.integers(1, 12, size=k), 8, age=int(rng.integers(101)))
                 for k in rng.integers(1, 9, size=2 * PREDICT_CHUNK + 13)]
        probs = predict_probs(params, np.array([c.ids for c in cases]),
                              np.array([c.demographics for c in cases]))
        assert probs.shape == (len(cases), len(LABELS))
        want = np.array([p.probs for p in predict_batch(params, cases)])
        assert probs.tobytes() == want.tobytes()
        assert predict_probs(params, np.zeros((0, 8), dtype=np.int64),
                             np.zeros((0, 3))).shape == (0, len(LABELS))


class TestKimCNN:
    def test_max_pool_matches_attention_at_single_window(self):
        # with one window position both pooling rules return that row
        cfg = tiny_config(widths=(2,), max_len=2)
        params = init_params(cfg, seed=19)
        kim = dataclasses.replace(params, config=dataclasses.replace(cfg, arch="kimcnn"))
        cases = [make_case([3, 4], 2), make_case([5, 6], 2, age=20)]
        p_acnn, att, _ = forward(params, cases)
        p_kim, _, _ = forward(kim, cases)
        np.testing.assert_array_equal(att[2], [1.0, 1.0])
        np.testing.assert_allclose(p_acnn, p_kim, atol=1e-15)

    def test_all_padding_window_competes_after_the_real_ones(self):
        # a real window that scores exactly relu(bias) ties the all-padding
        # window and keeps the gradient; one that scores below it loses it
        params = init_params(tiny_config(arch="kimcnn", widths=(1,), filters=1), seed=19)
        params.tensors["conv_w1"] = np.ones((4, 1))
        params.tensors["conv_b1"] = np.array([0.5])
        params.tensors["embedding"][3] = 0.0
        params.tensors["embedding"][4] = -1.0
        for token, padding_wins in ((3, False), (4, True)):
            case = make_case([token], 5)
            _, grads = loss_and_grads(params, case.ids[None], case.demographics[None], [0])
            grad = grads["embedding"]
            assert np.any(grad[token] != 0.0) != padding_wins
            assert np.any(grad[0] != 0.0) == padding_wins

    def test_prediction_has_no_attention(self):
        cfg = tiny_config(arch="kimcnn")
        params = init_params(cfg, seed=19)
        pred = predict(params, make_case([2, 3, 4], 5))
        assert pred.attention is None
        assert pred.probs.shape == (3,)


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(tiny_config(), seed=23)
        path = tmp_path / "model.bin"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.config == params.config
        assert loaded.seed == 23
        for (na, ta), (nb, tb) in zip(params.tensors.items(), loaded.tensors.items(), strict=True):
            assert na == nb
            assert ta.tobytes() == tb.tobytes()

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(init_params(tiny_config(), seed=23), path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert load_model(path).seed == 23

    def test_data_record_roundtrip(self, tmp_path):
        params = init_params(tiny_config(), seed=23)
        path = tmp_path / "model.bin"
        save_model(params, path)
        assert load_model(path).data is None
        tokens = tuple(f"t{i}" for i in range(params.config.vocab_size - 2))
        params.data = DataContract("ef" * 32, (4, 0, 2), (1,), (3,), tokens)
        save_model(params, path)
        assert load_model(path).data == params.data

    @pytest.mark.parametrize("tokens", [("a",), ("a",) * 10], ids=["too-few", "repeated"])
    def test_data_record_must_fit_the_embedding(self, tmp_path, tokens):
        params = init_params(tiny_config(vocab_size=12), seed=23)
        params.data = DataContract("ef" * 32, (0, 1), (), (2,), tokens)
        path = tmp_path / "model.bin"
        save_model(params, path)
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_save_load_save_is_stable(self, tmp_path):
        params = init_params(tiny_config(), seed=23)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(params, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_prediction_roundtrip_identical(self, tmp_path):
        params = init_params(tiny_config(), seed=29)
        case = make_case([2, 3, 4], 5)
        before = predict(params, case).probs
        path = tmp_path / "model.bin"
        save_model(params, path)
        after = predict(load_model(path), case).probs
        assert before.tobytes() == after.tobytes()
