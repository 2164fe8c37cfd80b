"""Tests for the attention CNN model components."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagenet import autodiff as ad
from triagenet import model, training
from triagenet.autodiff import Tensor
from triagenet.corpus import LABELS, DataContract, EncodedCase
from triagenet.embedding import ChecksumError, ConfigError, init_table
from triagenet.model import (
    PREDICT_CHUNK,
    ModelConfig,
    attend,
    forward_graph,
    init_params,
    load_model,
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


def runs(alpha, lengths, n_windows):
    """Each document's run of packed attention weights, over its first window starts."""
    return np.split(alpha, np.cumsum(np.minimum(lengths, n_windows))[:-1])


def random_biases(params, rng):
    # a nonzero bias lets an all-padding window win the max pool
    for m in params.config.widths:
        params.tensors[f"conv_b{m}"].data = rng.normal(size=params.config.filters)
        params.tensors[f"attn_b{m}"].data = rng.normal(size=params.config.attention_size)
    for name, t in params.tensors.items():
        if name.startswith("mlp_b"):
            t.data = rng.normal(size=t.shape)


def oracle_forward(params, case):
    """Plain-numpy forward of one document over all max_len positions.

    Returns the class probabilities and, for acnn, each width's weights
    over every window position, zero where a window starts in padding.
    """
    cfg = params.config
    t = {name: tensor.data for name, tensor in params.tensors.items()}
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


def per_width_forward_graph(params, ids, demographics, *, dropout_rng=None, ops=ad):
    """``forward_graph`` as each width once ran it: the oracle for the shared window
    block and the fused ops.

    Each width gathers its own (N, m) windows and runs lookup -> reshape ->
    matmul -> add -> relu; attention projects with tanh(add(matmul)).
    """
    cfg, t, p = params.config, params.tensors, ops.param
    lengths = model.doc_lengths(ids)
    L = ids.shape[1]
    counts = lengths + (cfg.arch == "kimcnn")
    pooled, attention = [], {}
    for m in cfg.widths:
        seg, first = window_rows(counts, L - m + 1, L)
        windows = ids.ravel()[first[:, None] + np.arange(m)]
        rows = ops.reshape(ops.lookup(p(t["embedding"]), windows), (len(windows), m * cfg.embedding_dim))
        feats = ops.relu(ops.add(ops.matmul(rows, p(t[f"conv_w{m}"])), p(t[f"conv_b{m}"])))
        if cfg.arch == "kimcnn":
            pooled.append(ops.segment_max(feats, seg))
            continue
        u = ops.tanh(ops.add(ops.matmul(feats, p(t[f"attn_w{m}"])), p(t[f"attn_b{m}"])))
        attention[m] = ops.segment_softmax(ops.matmul(u, p(t[f"attn_u{m}"])), seg)
        pooled.append(ops.segment_sum(attention[m], feats, seg))
    h = ops.concat(pooled + [ops.constant(demographics)])
    out = len(cfg.mlp_layers)
    for i in range(out):
        h = ops.relu(ops.add(ops.matmul(h, p(t[f"mlp_w{i}"])), p(t[f"mlp_b{i}"])))
        if dropout_rng is not None:
            h = ops.dropout(h, cfg.dropout, dropout_rng)
    probs = ops.softmax(ops.add(ops.matmul(h, p(t[f"mlp_w{out}"])), p(t[f"mlp_b{out}"])))
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
            assert params.tensors[name].data.tobytes() == values.tobytes(), name

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
            np.testing.assert_array_equal(ta.data, tb.data)
        c = init_params(tiny_config(), seed=4)
        assert a.tensors["embedding"].data.tobytes() != c.tensors["embedding"].data.tobytes()
        np.testing.assert_array_equal(a.tensors["embedding"].data[0], np.zeros(4))

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
        assert sum(t.data.size for t in params.tensors.values()) == expected

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
        emb = params.tensors["embedding"].data
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
    gathered from the embedding table as one block, then ``conv``."""
    t, m = params.tensors, windows.shape[1]
    return ad.conv(ad.lookup(t["embedding"], windows), t[f"conv_w{m}"], t[f"conv_b{m}"])


class TestNgramEncode:
    def test_feature_map_shape(self):
        params = init_params(tiny_config(), seed=1)
        windows = np.random.default_rng(0).integers(0, 12, size=(7, 2))
        feats = encode_windows(params, windows)
        assert feats.shape == (7, 3)

    def test_zero_embedding_zero_bias_gives_zeros(self):
        params = init_params(tiny_config(), seed=1)
        params.tensors["embedding"].data = np.zeros((12, 4))
        feats = encode_windows(params, np.arange(10).reshape(10, 1))
        np.testing.assert_array_equal(feats.data, np.zeros((10, 3)))

    def test_single_filter_matches_numpy_convolution(self):
        cfg = tiny_config(filters=1)
        params = init_params(cfg, seed=2)
        emb = params.tensors["embedding"].data
        ids = np.random.default_rng(1).integers(1, 12, size=(2, 5))
        windows = np.array([doc[i : i + 2] for doc in ids for i in range(4)])
        feats = encode_windows(params, windows)
        w = params.tensors["conv_w2"].data[:, 0].reshape(2, 4)
        b = params.tensors["conv_b2"].data[0]
        for doc in range(2):
            direct = [max(0.0, float(np.sum(w * emb[ids[doc, i : i + 2]])) + b) for i in range(4)]
            np.testing.assert_allclose(feats.data[4 * doc : 4 * doc + 4, 0], direct, atol=1e-15)


class TestAttend:
    def test_single_row_gets_full_weight(self):
        params = init_params(tiny_config(), seed=5)
        row = np.random.default_rng(2).normal(size=(1, 3))
        s, alpha = attend(params, Tensor(row), ad.Segments([1]), 1)
        np.testing.assert_allclose(alpha.data, [1.0])
        np.testing.assert_allclose(s.data, row, atol=1e-15)

    def test_identical_rows_uniform(self):
        params = init_params(tiny_config(), seed=5)
        rows = np.random.default_rng(3).normal(size=(2, 3))
        feats = Tensor(np.repeat(rows, [4, 2], axis=0))  # documents of 4 and 2 windows
        s, alpha = attend(params, feats, ad.Segments([4, 2]), 1)
        np.testing.assert_allclose(alpha.data, [0.25] * 4 + [0.5] * 2, atol=1e-12)
        np.testing.assert_allclose(s.data, rows, atol=1e-12)

    def test_engineered_log_odds(self):
        # u = tanh(v), logit = u * ln3/tanh(1): rows [0] and [1] give
        # logits [0, ln3], so weights must be [1/4, 3/4]
        cfg = tiny_config(filters=1, attention_size=1)
        params = init_params(cfg, seed=0)
        params.tensors["attn_w1"].data = np.array([[1.0]])
        params.tensors["attn_b1"].data = np.array([0.0])
        params.tensors["attn_u1"].data = np.array([np.log(3.0) / np.tanh(1.0)])
        feats = Tensor(np.array([[0.0], [1.0]]))
        s, alpha = attend(params, feats, ad.Segments([2]), 1)
        np.testing.assert_allclose(alpha.data, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(s.data, [[0.75]], atol=1e-12)


class TestForward:
    def test_probabilities_form_a_simplex(self):
        params = init_params(tiny_config(), seed=7)
        probs, _, _ = forward(params, [make_case([2, 3, 4], 5), make_case([5], 5)])
        assert probs.shape == (2, 3)
        assert np.all(probs.data > 0)
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_padding_windows_get_zero_attention(self):
        params = init_params(tiny_config(), seed=7)
        cases = [make_case([2, 3], 5), make_case([2, 3, 4, 5, 6], 5), make_case([4], 5)]
        _, attention, lengths = forward(params, cases)
        np.testing.assert_array_equal(lengths, [2, 5, 1])
        for m, alpha in attention.items():  # one weight per window that starts in the document
            assert [len(r) for r in runs(alpha.data, lengths, 5 - m + 1)] == [2, 6 - m, 1]
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
        assert p1.data.tobytes() == p2.data.tobytes()

    def test_empty_document_rejected(self):
        params = init_params(tiny_config(), seed=7)
        ids = np.array([[2, 3, 0, 0, 0], [0, 0, 0, 0, 0]])
        with pytest.raises(ad.ShapeError):
            forward_graph(params, ids, np.zeros((2, 3)))

    def test_width1_attention_is_permutation_equivariant(self):
        params = init_params(tiny_config(widths=(1,)), seed=13)
        ids = np.array([2, 5, 7, 9, 11])
        perm = np.array([3, 0, 4, 1, 2])
        _, att, _ = forward(params, [make_case(ids, 5), make_case(ids[perm], 5)])
        np.testing.assert_allclose(att[1].data[5:], att[1].data[:5][perm], atol=1e-12)

    def test_dropout_runs_exactly_when_a_generator_is_given(self):
        cases = [make_case([2, 3, 4], 5)] * 2
        params = init_params(tiny_config(dropout=0.5), seed=7)
        p0, _, _ = forward(params, cases)
        assert p0.data[0].tobytes() == p0.data[1].tobytes()
        assert forward(params, cases)[0].data.tobytes() == p0.data.tobytes()
        rng = np.random.default_rng(0)
        p1, _, _ = forward(params, cases, dropout_rng=rng)
        p2, _, _ = forward(params, cases, dropout_rng=rng)
        assert p1.data.tobytes() != p2.data.tobytes()
        # each row draws its own mask
        assert p1.data[0].tobytes() != p1.data[1].tobytes()
        # a zero rate draws nothing and leaves the forward as it is
        rng = np.random.default_rng(0)
        still, _, _ = forward(init_params(tiny_config(dropout=0.0), seed=7), cases, dropout_rng=rng)
        assert still.data.tobytes() == p0.data.tobytes()
        assert rng.random() == np.random.default_rng(0).random()

    def test_positional_train_flag_is_refused(self):
        params = init_params(tiny_config(dropout=0.5), seed=7)
        with pytest.raises(TypeError):
            forward_graph(params, np.array([[2, 3, 4, 0, 0]]), np.zeros((1, 3)), True)

    def test_gradients_match_finite_differences(self):
        params = init_params(tiny_config(), seed=17)
        cases = [make_case([2, 3, 4, 5, 6], 5), make_case([7], 5, age=70, gender_male=False)]

        def loss():
            probs, _, _ = forward(params, cases)
            return ad.mean_nll(probs, [1, 1])

        report = ad.grad_check(loss, list(params.tensors.values()))
        assert report.max_rel_error < 1e-4
        assert report.checked > 0

    def test_kimcnn_gradients_where_the_padding_window_wins(self):
        params = init_params(tiny_config(arch="kimcnn"), seed=19)
        # filter 0 scores every real window below its bias alone, so in a
        # document with an all-padding window that window wins
        t = params.tensors
        t["embedding"].data = np.abs(t["embedding"].data)
        for m in params.config.widths:
            t[f"conv_w{m}"].data[:, 0] = -np.abs(t[f"conv_w{m}"].data[:, 0])
            t[f"conv_b{m}"].data = np.full(3, 0.5)
        cases = [make_case([2, 3, 4, 5, 6], 5), make_case([7, 8], 5, age=70)]

        def loss():
            probs, _, _ = forward(params, cases)
            return ad.mean_nll(probs, [1, 2])

        short = t["embedding"].data[[7, 8, 0, 0, 0]]
        for m in params.config.widths:  # so relu(0.5) beats the short document's real windows
            scores = [short[i : i + m].reshape(-1) @ t[f"conv_w{m}"].data[:, 0] for i in range(2)]
            assert max(scores) < 0.0
        report = ad.grad_check(loss, list(params.tensors.values()))
        assert report.max_rel_error < 1e-4
        assert report.checked > 0

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
        tensors = list(params.tensors.values())

        def gradients(batch, batch_labels):
            params.zero_grad()
            probs, _, _ = forward(params, batch)
            ad.mean_nll(probs, batch_labels).backward()
            return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

        together = gradients(cases, labels)
        alone = [gradients([c], [y]) for c, y in zip(cases, labels)]
        for i, g in enumerate(together):
            np.testing.assert_allclose(g, np.mean([a[i] for a in alone], axis=0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    def test_convolution_sees_real_windows_only(self, arch, ops, monkeypatch):
        # and kimcnn one all-padding window for each document that has one
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=59)
        rng = np.random.default_rng(59)
        lengths = np.array([8, 1, 3, 7, 2])
        cases = [make_case(rng.integers(1, 12, size=n), 8) for n in lengths]
        filters = {id(ops.param(params.tensors[f"conv_w{m}"])): m for m in cfg.widths}
        rows = {}
        real_conv = ops.conv

        def recording(windows, w, b):
            rows[filters[id(w)]] = windows.shape[0]
            return real_conv(windows, w, b)

        monkeypatch.setattr(ops, "conv", staticmethod(recording) if ops is ad.TapeFree else recording)
        forward(params, cases, ops=ops)
        counts = lengths + (arch == "kimcnn")
        assert rows == {m: int(np.minimum(counts, 8 - m + 1).sum()) for m in cfg.widths}

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    @pytest.mark.parametrize("lengths, widest", [
        ([3, 2, 5], {"acnn": [3], "kimcnn": [3]}),  # every width's windows fit every document
        ([6, 2], {"acnn": [3], "kimcnn": [2, 3]}),  # kimcnn's padding window: width 3 has one less
        ([8, 1, 3], {"acnn": [1, 2, 3], "kimcnn": [1, 2, 3]}),  # a document reaches max_len
    ], ids=["one-layout", "kimcnn-two", "three-layouts"])
    def test_one_window_gather_per_layout(self, arch, ops, lengths, widest, monkeypatch):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=61)
        rng = np.random.default_rng(61)
        cases = [make_case(rng.integers(1, 12, size=n), 8) for n in lengths]
        gathers = []
        real_lookup = ops.lookup

        def recording(table, ids):
            gathers.append(ids)
            return real_lookup(table, ids)

        monkeypatch.setattr(ops, "lookup", staticmethod(recording) if ops is ad.TapeFree else recording)
        forward(params, cases, ops=ops)
        assert sorted(ids.shape[1] for ids in gathers) == widest[arch]
        counts = np.array(lengths) + (arch == "kimcnn")
        for ids in gathers:  # each layout's rows: the windows of its widest width that fit
            m = ids.shape[1]
            assert len(ids) == int(np.minimum(counts, 8 - m + 1).sum())

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    @pytest.mark.parametrize("lengths", [[5, 1, 3, 4, 2], [8, 1, 7, 3, 8, 6]],
                             ids=["one-layout", "three-layouts"])
    def test_same_bits_as_the_per_width_path(self, arch, ops, lengths):
        cfg = tiny_config(max_len=8, widths=(1, 2, 3), arch=arch)
        params = init_params(cfg, seed=67)
        rng = np.random.default_rng(67)
        random_biases(params, rng)
        ids = np.array([make_case(rng.integers(1, 12, size=n), 8).ids for n in lengths])
        demographics = rng.random((len(lengths), 3))
        probs, attention, got_lengths = forward_graph(params, ids, demographics, ops=ops)
        want, want_attention, want_lengths = per_width_forward_graph(params, ids, demographics, ops=ops)
        value = (lambda x: x) if ops is ad.TapeFree else (lambda x: x.data)
        np.testing.assert_array_equal(value(probs), value(want))
        assert set(attention) == set(want_attention)
        for m in attention:
            np.testing.assert_array_equal(value(attention[m]), value(want_attention[m]))
        np.testing.assert_array_equal(got_lengths, want_lengths)

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
        tensors = list(params.tensors.values())

        def gradients(forward_pass):
            params.zero_grad()
            probs, _, _ = forward_pass(params, ids, demographics, dropout_rng=np.random.default_rng(5))
            ad.mean_nll(probs, labels).backward()
            return [t.grad for t in tensors]

        got, want = gradients(forward_graph), gradients(per_width_forward_graph)
        for name, g, w in zip(params.tensors, got, want):
            if w is None:  # kimcnn has no attention
                assert g is None, name
            else:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)
        assert np.any(got[0] != 0.0)  # the embedding gradient is compared, not two zero arrays

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
        monkeypatch.setattr(training, "forward_graph", per_width_forward_graph)
        want = trained()
        for name, t in got.tensors.items():
            np.testing.assert_allclose(t.data, want.tensors[name].data, rtol=0, atol=1e-12,
                                       err_msg=name)
        start = init_params(cfg, seed=73).tensors
        assert not np.array_equal(got.tensors["conv_w1"].data, start["conv_w1"].data)  # it trained

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
            np.testing.assert_allclose(probs.data[i], want_probs, rtol=0, atol=1e-12)
            assert set(attention) == set(want_alphas)
            for m, alpha in attention.items():
                run = runs(alpha.data, lengths, 8 - m + 1)[i]
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


class TestTapeFree:
    @given(
        arch=st.sampled_from(["acnn", "kimcnn"]),
        seed=st.integers(min_value=0, max_value=2**16),
        short=st.integers(min_value=1, max_value=2),
        sizes=st.lists(st.integers(min_value=1, max_value=8), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_taped_pass(self, arch, seed, short, sizes):
        # a document shorter than the widest window next to any others
        params = init_params(tiny_config(max_len=8, widths=(1, 2, 3), arch=arch), seed=seed)
        rng = np.random.default_rng(seed)
        random_biases(params, rng)
        cases = [make_case(rng.integers(1, 12, size=n), 8, age=int(rng.integers(101)))
                 for n in [short, *sizes]]
        probs, attention, lengths = forward(params, cases)
        plain, plain_attention, plain_lengths = forward(params, cases, ops=ad.TapeFree)
        assert isinstance(plain, np.ndarray)
        assert plain.tobytes() == probs.data.tobytes()
        assert set(plain_attention) == set(attention) == ({1, 2, 3} if arch == "acnn" else set())
        for m, alpha in attention.items():
            assert plain_attention[m].tobytes() == alpha.data.tobytes()
        np.testing.assert_array_equal(plain_lengths, lengths)

    @pytest.mark.parametrize("arch", ["acnn", "kimcnn"])
    def test_inference_builds_no_tape(self, arch, monkeypatch):
        params = init_params(tiny_config(arch=arch), seed=3)
        cases = [make_case([2, 3, 4], 5), make_case([5], 5)] * PREDICT_CHUNK
        taped = []
        real_init = Tensor.__init__

        def counting_init(self, data, parents=(), grad_fn=None):
            if grad_fn is not None:
                taped.append(self)
            real_init(self, data, parents, grad_fn)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        forward(params, cases[:2])
        assert taped  # the counter sees the taped pass
        taped.clear()
        predict_batch(params, cases)
        predict(params, cases[0])
        assert taped == []

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([[2, 3, 0, 0, 0], [0, 0, 0, 0, 0]], ad.ShapeError),  # an empty document
            ([[2, 3, 0, 0]], ad.ShapeError),  # not max_len columns
            ([[2, 12, 0, 0, 0]], IndexError),  # an id past the table
        ],
        ids=["empty", "shape", "id-range"],
    )
    def test_same_checks_as_the_taped_pass(self, ids, error):
        params = init_params(tiny_config(), seed=3)
        ids = np.array(ids)
        for ops in (ad, ad.TapeFree):
            with pytest.raises(error):
                forward_graph(params, ids, np.zeros((len(ids), 3)), ops=ops)

    def test_window_wider_than_the_document_refused(self):
        # a width past max_len leaves a document no window to pack
        for n_windows in (0, -1):
            with pytest.raises(ad.ShapeError):
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
        np.testing.assert_array_equal(att[2].data, [1.0, 1.0])
        np.testing.assert_allclose(p_acnn.data, p_kim.data, atol=1e-15)

    def test_all_padding_window_competes_after_the_real_ones(self):
        # a real window that scores exactly relu(bias) ties the all-padding
        # window and keeps the gradient; one that scores below it loses it
        params = init_params(tiny_config(arch="kimcnn", widths=(1,), filters=1), seed=19)
        params.tensors["conv_w1"].data = np.ones((4, 1))
        params.tensors["conv_b1"].data = np.array([0.5])
        params.tensors["embedding"].data[3] = 0.0
        params.tensors["embedding"].data[4] = -1.0
        for token, padding_wins in ((3, False), (4, True)):
            params.zero_grad()
            probs, _, _ = forward(params, [make_case([token], 5)])
            ad.mean_nll(probs, [0]).backward()
            grad = params.tensors["embedding"].grad
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
            assert ta.data.tobytes() == tb.data.tobytes()

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
