"""Tests for the reverse-mode autodiff core.

Expected values are hand-derived or come from a test-local central
difference oracle that is independent of the library's own grad_check.
"""

import ast
import inspect
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triagenet import autodiff as ad
from triagenet.autodiff import (
    NoTapeError,
    Segments,
    ShapeError,
    Tensor,
    concat,
    conv,
    dropout,
    grad_check,
    lookup,
    matmul,
    mean_nll,
    record_relu_inputs,
    relu,
    segment_max,
    segment_softmax,
    segment_sum,
    softmax,
    tanh,
    tanh_affine,
)
from triagenet.model import window_rows


def tsum(x, weights=None):
    """Sum of the entries of ``x``, each times its weight (default 1), as a scalar tensor.

    Built from library ops: the flattened tensor as one row, times a
    constant column of weights.
    """
    n = x.data.size
    w = np.ones(n) if weights is None else np.broadcast_to(weights, x.shape).reshape(n)
    return ad.reshape(matmul(ad.reshape(x, (1, n)), Tensor(w)), ())


def central_difference(f, arrays, eps=1e-5):
    """Independent numeric gradient: perturb every coordinate of every array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def unfold(B, L, m):
    """Ids of every m-token window of B full documents of L tokens, row b * L + i for token i of b.

    The windows come packed as the model packs them, one document after
    another; a window wider than the documents is refused.
    """
    _, first = window_rows(np.full(B, L), L - m + 1, L)
    return first[:, None] + np.arange(m)


def conv_valid(x, w, b, m):
    """Valid convolution plus relu as the model builds it: a window gather, then ``conv``.

    ``x`` is (B, L, k), ``w`` holds the filters flattened to (m * k, f)
    and ``b`` is (f,). The windows are gathered from the rows of ``x``
    as from an embedding table; the result is (B, L - m + 1, f).
    """
    B, L, k = x.shape
    table = Tensor(x.data.reshape(B * L, k))
    feats = conv(lookup(table, unfold(B, L, m)), w, b)
    return ad.reshape(feats, (B, L - m + 1, -1))


class TestConvValid:
    def test_hand_computed_relu_affine(self):
        # filter [[2]], bias -3 over columns [1, 2, 3] and [0, 3, 1]: relu(2x - 3)
        x = Tensor([[[1.0], [2.0], [3.0]], [[0.0], [3.0], [1.0]]])
        out = conv_valid(x, Tensor([[2.0]]), Tensor([-3.0]), 1)
        np.testing.assert_array_equal(out.data[..., 0], [[0.0, 1.0, 3.0], [0.0, 3.0, 0.0]])

    def test_output_length(self):
        x = Tensor(np.ones((2, 4, 3)))
        out = conv_valid(x, Tensor(np.ones((6, 5))), Tensor(np.zeros(5)), 2)
        assert out.shape == (2, 3, 5)

    def test_zero_input_zero_filter(self):
        out = conv_valid(
            Tensor(np.zeros((2, 5, 2))), Tensor(np.zeros((6, 1))), Tensor(np.zeros(1)), 3
        )
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 1)))

    def test_column_mismatch_raises(self):
        # a 2 x 2 filter flattened to 4 rows cannot slide over 3 columns
        with pytest.raises(ShapeError):
            conv_valid(Tensor(np.ones((1, 4, 3))), Tensor(np.ones((4, 1))), Tensor(np.zeros(1)), 2)

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            conv_valid(
                Tensor(np.ones((1, 2, 3))), Tensor(np.ones((15, 1))), Tensor(np.zeros(1)), 5
            )

    @given(
        B=st.integers(min_value=1, max_value=4),
        L=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_length_property(self, B, L, k, data):
        m = data.draw(st.integers(min_value=1, max_value=L))
        x = Tensor(np.ones((B, L, k)))
        out = conv_valid(x, Tensor(np.ones((m * k, 2))), Tensor(np.zeros(2)), m)
        assert out.shape == (B, L - m + 1, 2)


class TestUnfold:
    def test_windows_content(self):
        x = np.arange(16.0).reshape(2, 4, 2)
        out = lookup(Tensor(x.reshape(8, 2)), unfold(2, 4, 2))
        expected = np.array(
            [[0.0, 1.0, 2.0, 3.0], [2.0, 3.0, 4.0, 5.0], [4.0, 5.0, 6.0, 7.0]]
        )
        np.testing.assert_array_equal(out.data.reshape(2, 3, 4), [expected, expected + 8.0])

    def test_gradient_overlap_accumulates(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        loss = tsum(lookup(x, unfold(1, 3, 2)))
        loss.backward()
        # middle row participates in both windows
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])


class TestFusedOps:
    """``conv`` and ``tanh_affine`` against the op chains they fuse."""

    def test_conv_matches_a_gather_per_width(self):
        # widths 1 and 3 read one gathered block of 3-token windows; ids repeat
        rng = np.random.default_rng(61)
        table = Tensor(rng.normal(size=(5, 2)))
        ids = rng.integers(0, 5, size=(6, 3))
        filters = {m: (Tensor(rng.normal(size=(2 * m, 4))), Tensor(rng.normal(size=4)))
                   for m in (1, 3)}
        weights = rng.normal(size=(6, 4))
        tensors = [table, *(t for pair in filters.values() for t in pair)]

        def fused():
            block = lookup(table, ids)
            return [conv(block, w, b) for w, b in filters.values()]

        def per_width():
            return [relu(ad.add(matmul(ad.reshape(lookup(table, ids[:, :m]), (6, 2 * m)), w), b))
                    for m, (w, b) in filters.items()]

        results = []
        for build in (fused, per_width):
            for t in tensors:
                t.zero_grad()
            outs = build()
            ad.add(tsum(outs[0], weights), tsum(outs[1], weights)).backward()
            results.append(([o.data for o in outs], [t.grad for t in tensors]))
        (got, got_grads), (want, want_grads) = results
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert np.any(w == 0.0) and np.any(w > 0.0)  # both sides of the kink
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    def test_tanh_affine_is_the_chain_bit_for_bit(self):
        rng = np.random.default_rng(67)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in [(5, 3), (3, 4), (4,)])
        weights = rng.normal(size=(5, 4))
        results = []
        for build in (lambda: tanh_affine(x, w, b), lambda: tanh(ad.add(matmul(x, w), b))):
            for t in (x, w, b):
                t.zero_grad()
            out = build()
            tsum(out, weights).backward()
            results.append([out.data, x.grad, w.grad, b.grad])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", ["conv", "tanh_affine"])
    def test_tape_free_twin_has_the_same_bits(self, op):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(4, 3, 2) if op == "conv" else (4, 4))
        w, b = rng.normal(size=(4, 5)), rng.normal(size=5)  # conv: the first 2 of 3 tokens
        taped = getattr(ad, op)(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_array_equal(getattr(ad.TapeFree, op)(x, w, b), taped)

    def test_conv_grad_check_with_two_widths_reading_one_block(self):
        rng = np.random.default_rng(73)
        table = Tensor(rng.normal(size=(5, 2)))
        ids = np.array([[1, 2, 1], [2, 1, 1], [1, 1, 3], [3, 0, 4], [4, 4, 2]])
        w1, b1 = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=3))
        w3, b3 = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=3))
        weights = rng.normal(size=(2, 5, 3))

        def f():
            block = lookup(table, ids)
            return ad.add(tsum(conv(block, w1, b1), weights[0]), tsum(conv(block, w3, b3), weights[1]))

        report = grad_check(f, [table, w1, b1, w3, b3])
        assert report.checked + len(report.excluded) == 10 + 6 + 3 + 18 + 3
        assert report.checked >= 30
        assert report.max_rel_error < 1e-8

    def test_tanh_affine_grad_check(self):
        rng = np.random.default_rng(79)
        x, w, b = (Tensor(rng.normal(size=shape)) for shape in [(4, 3), (3, 2), (2,)])
        weights = rng.normal(size=(4, 2))
        report = grad_check(lambda: tsum(tanh_affine(x, w, b), weights), [x, w, b])
        assert report.checked == 12 + 6 + 2
        assert report.max_rel_error < 1e-8

    def test_relu_trace_sees_conv_pre_activations(self):
        rng = np.random.default_rng(83)
        windows, w, b = rng.normal(size=(6, 3, 2)), rng.normal(size=(4, 3)), rng.normal(size=3)
        with record_relu_inputs() as trace:
            out = conv(Tensor(windows), Tensor(w), Tensor(b))
        pre = windows.reshape(6, 6)[:, :4] @ w + b
        assert len(trace) == 1
        np.testing.assert_array_equal(trace[0], pre)
        assert np.any(pre < 0.0)
        np.testing.assert_array_equal(out.data, np.maximum(pre, 0.0))

    def test_grad_check_excludes_conv_kinks(self):
        # zero filters and bias put every pre-activation on the kink, where
        # the central difference reads half the slope: nothing may be checked
        windows = Tensor(np.ones((3, 2, 1)))
        w, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros(2))
        report = grad_check(lambda: tsum(conv(windows, w, b)), [b])
        assert report.checked == 0
        assert report.excluded == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    @pytest.mark.parametrize("windows, w, b", [
        ((4, 6), (4, 2), (2,)),  # windows must be (N, M, k)
        ((4, 3, 2), (3, 2), (2,)),  # filter rows not whole tokens
        ((4, 3, 2), (8, 2), (2,)),  # filters wider than the windows
        ((4, 3, 2), (0, 2), (2,)),  # filters of no token
        ((4, 3, 2), (4, 2), (3,)),  # a bias per filter
    ], ids=["2-d", "partial-token", "too-wide", "empty", "bias"])
    def test_conv_refuses_misfit_shapes(self, ops, windows, w, b):
        args = [np.ones(windows), np.ones(w), np.ones(b)]
        with pytest.raises(ShapeError):
            ops.conv(*(args if ops is ad.TapeFree else map(Tensor, args)))

    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    @pytest.mark.parametrize("x, w, b", [((4, 3), (2, 5), (5,)), ((4, 3), (3, 5), (4,))],
                             ids=["inner", "bias"])
    def test_tanh_affine_refuses_misfit_shapes(self, ops, x, w, b):
        args = [np.ones(x), np.ones(w), np.ones(b)]
        with pytest.raises(ShapeError):
            ops.tanh_affine(*(args if ops is ad.TapeFree else map(Tensor, args)))


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_log_odds(self):
        # softmax([ln 1, ln 3]) = [1/4, 3/4]
        out = softmax(Tensor([np.log(1.0), np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.empty(0)))

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_simplex_and_shift_invariance(self, logits):
        v = np.array(logits)
        out = softmax(Tensor(v))
        assert np.all(out.data > 0)
        assert abs(out.data.sum() - 1.0) < 1e-12
        shifted = softmax(Tensor(v + 7.5))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


    def test_segment_softmax_is_softmax_per_run(self):
        # two documents' logits, [1, 2] and [0.5], attended per document
        v = Tensor([1.0, 2.0, 0.5])
        out = segment_softmax(v, Segments([2, 1]))
        np.testing.assert_allclose(out.data[:2], softmax(Tensor([1.0, 2.0])).data, atol=1e-15)
        assert out.data[2] == 1.0
        tsum(out, [0.0, 1.0, 2.0]).backward()
        y = out.data[:2]
        np.testing.assert_allclose(v.grad[:2], y * ([0.0, 1.0] - y[1]), atol=1e-15)
        assert v.grad[2] == 0.0  # a one-window document's weight is always 1


class TestCrossEntropy:
    def test_certain_correct_is_zero(self):
        assert mean_nll(Tensor([[1.0, 0.0, 0.0]]), [0]).item() == 0.0

    def test_even_split(self):
        loss = mean_nll(Tensor([[0.5, 0.5]]), [1])
        assert abs(loss.item() - np.log(2.0)) < 1e-15
        # the batch loss is the mean over rows
        loss = mean_nll(Tensor([[0.5, 0.5], [1.0, 0.0]]), [1, 0])
        assert abs(loss.item() - np.log(2.0) / 2) < 1e-15

    def test_zero_probability_clamped(self):
        probs = Tensor([[0.0, 1.0]])
        loss = mean_nll(probs, [0])
        assert np.isfinite(loss.item())
        assert abs(loss.item() - (-np.log(1e-12))) < 1e-9
        loss.backward()
        np.testing.assert_array_equal(probs.grad, [[0.0, 0.0]])

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            mean_nll(Tensor([[0.5, 0.5]]), [2])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_relu_gate(self):
        x = Tensor([-1.0, 2.0])
        tsum(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_diamond_graph_accumulates(self):
        x = Tensor([3.0])
        y = ad.add(x, x)
        z = ad.add(y, y)
        tsum(z).backward()
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_linearity_of_losses(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 3)))
        x1 = Tensor(rng.normal(size=3))
        x2 = Tensor(rng.normal(size=3))

        joint = ad.add(tsum(matmul(w, x1)), tsum(matmul(w, x2)))
        joint.backward()
        joint_grad = w.grad.copy()

        w.zero_grad()
        tsum(matmul(w, x1)).backward()
        tsum(matmul(w, x2)).backward()  # accumulates onto the first
        np.testing.assert_allclose(w.grad, joint_grad, atol=1e-12)

    def test_no_gradient_array_is_shared(self):
        rng = np.random.default_rng(29)
        x, y, z = (Tensor(rng.normal(size=(2, 3))) for _ in range(3))
        b = Tensor(rng.normal(size=3))
        weights = rng.normal(size=(2, 6))

        def loss():
            # add hands one array to both operands, reshape and concat views of theirs
            s = ad.add(ad.add(x, y), b)
            h = concat([s, ad.reshape(ad.reshape(z, (3, 2)), (2, 3))])
            return tsum(ad.add(h, h), weights)

        loss().backward()
        leaves = (x, y, z, b)
        for i, s in enumerate(leaves):
            for t in leaves[i + 1 :]:
                assert not np.shares_memory(s.grad, t.grad)
        first = [t.grad.copy() for t in leaves]
        loss().backward()
        for t, g in zip(leaves, first):
            np.testing.assert_array_equal(t.grad, 2.0 * g)
        np.testing.assert_array_equal(x.grad, y.grad)

    def test_non_scalar_raises(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ShapeError):
            relu(x).backward()

    def test_detached_raises(self):
        x = Tensor(5.0)
        with pytest.raises(NoTapeError):
            x.backward()
        y = Tensor(tsum(relu(Tensor([1.0, 2.0]))).data)  # a computed value, as a new leaf
        with pytest.raises(NoTapeError):
            y.backward()

    def test_mlp_matches_central_difference_oracle(self):
        rng = np.random.default_rng(11)
        w1 = Tensor(rng.normal(size=(3, 4)))
        b1 = Tensor(rng.normal(size=4))
        w2 = Tensor(rng.normal(size=(4, 2)))
        b2 = Tensor(rng.normal(size=2))
        x = np.array([[0.3, -1.2, 0.8], [-0.4, 0.9, 1.1]])

        def forward():
            h = relu(ad.add(matmul(Tensor(x), w1), b1))
            return tsum(tanh(ad.add(matmul(h, w2), b2)))

        loss = forward()
        loss.backward()
        analytic = [w1.grad, b1.grad, w2.grad, b2.grad]

        numeric = central_difference(
            lambda: forward().item(), [w1.data, b1.data, w2.data, b2.data]
        )
        for a, n in zip(analytic, numeric):
            err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            assert err.max() < 1e-4

    def test_forward_backward_deterministic(self):
        def run():
            rng = np.random.default_rng(3)
            w = Tensor(rng.normal(size=(4, 4)))
            x = Tensor(rng.normal(size=4))
            loss = tsum(relu(matmul(w, x)))
            loss.backward()
            return loss.data.tobytes(), w.grad.tobytes()

        assert run() == run()


class TestOps:
    def test_dot_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    @pytest.mark.parametrize("left, right",
                             [((3,), (3, 2)), ((2, 3, 4), (4, 2)), ((3, 4), (2, 4, 2))],
                             ids=["vector-left", "batch-left", "batch-right"])
    def test_matmul_refuses_anything_but_matrix_times_matrix_or_vector(self, ops, left, right):
        a, b = np.ones(left), np.ones(right)
        if ops is ad:
            a, b = Tensor(a), Tensor(b)
        with pytest.raises(ShapeError, match="matrix times a matrix or vector"):
            ops.matmul(a, b)

    def test_concat_roundtrip_grads(self):
        a = Tensor([[1.0, 2.0], [4.0, 5.0]])
        b = Tensor([[3.0], [6.0]])
        out = concat([a, b])
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        tsum(out, [1.0, 10.0, 100.0]).backward()
        np.testing.assert_array_equal(a.grad, [[1.0, 10.0], [1.0, 10.0]])
        np.testing.assert_array_equal(b.grad, [[100.0], [100.0]])

    def test_segment_max_routes_gradient_to_first_argmax(self):
        first = [[1.0, 5.0], [4.0, 2.0], [4.0, 5.0]]
        x = Tensor(first + [[0.0, 0.0], [0.0, 0.0], [2.0, -1.0]])
        y = segment_max(x, Segments([3, 3]))
        np.testing.assert_array_equal(y.data, [[4.0, 5.0], [2.0, 0.0]])
        tsum(y, [[1.0, 10.0], [100.0, 1000.0]]).backward()
        # ties break toward the first maximal row
        np.testing.assert_array_equal(
            x.grad,
            [[0.0, 10.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1000.0], [0.0, 0.0], [100.0, 0.0]],
        )

    def test_lookup_gathers_and_scatters(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        ids = np.array([[0, 0, 3], [3, 1, 0]])
        out = lookup(table, ids)
        np.testing.assert_array_equal(out.data[0], [[0.0, 1.0], [0.0, 1.0], [6.0, 7.0]])
        np.testing.assert_array_equal(out.data[1], [[6.0, 7.0], [2.0, 3.0], [0.0, 1.0]])
        tsum(out).backward()
        np.testing.assert_array_equal(
            table.grad, [[3.0, 3.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]
        )

    def test_lookup_gradient_sums_in_order_from_zero(self):
        # the same sums, in the same order, as a scatter-add into zeros
        rng = np.random.default_rng(89)
        table = Tensor(rng.normal(size=(6, 3)))
        ids = rng.integers(0, 6, size=(40, 4))
        g = rng.normal(size=(40, 4, 3))
        tsum(lookup(table, ids), g).backward()
        want = np.zeros((6, 3))
        np.add.at(want, ids, g)
        np.testing.assert_array_equal(table.grad, want)

    def test_lookup_out_of_range(self):
        with pytest.raises(IndexError):
            lookup(Tensor(np.ones((2, 2))), np.array([2]))

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_invalid_rate(self):
        with pytest.raises(ShapeError):
            dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_dropout_rescales_survivors(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones(1000))
        out = dropout(x, 0.5, rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < kept.size / 1000 < 0.6


class TestSegmentOps:
    def test_segment_softmax_and_pooling_grad_check(self):
        # three documents of 3, 1 and 2 windows: the middle one is a single row
        rng = np.random.default_rng(41)
        seg = Segments([3, 1, 2])
        x = Tensor(rng.normal(size=(6, 4)))
        u = Tensor(rng.normal(size=4))
        weights = rng.normal(size=(3, 4))

        def f():
            alpha = segment_softmax(tanh(matmul(x, u)), seg)
            return tsum(segment_sum(alpha, x, seg), weights)

        report = grad_check(f, [x, u])
        assert report.checked == 28
        assert report.max_rel_error < 1e-8

    def test_segment_max_grad_check_with_the_last_row_winning(self):
        # as kimcnn's all-padding window does when it ends a document's run
        rng = np.random.default_rng(43)
        seg = Segments([2, 1, 3])
        x = Tensor(rng.normal(size=(6, 3)))
        x.data[[1, 5], 0] = 5.0
        weights = rng.normal(size=(3, 3))
        y = segment_max(x, seg)
        assert y.data[0, 0] == y.data[2, 0] == 5.0

        report = grad_check(lambda: tsum(segment_max(x, seg), weights), [x])
        assert report.checked == 18
        assert report.max_rel_error < 1e-8

    def test_window_gather_with_repeated_ids_grad_check(self):
        # the windows of a document [1, 2, 1, 1] and of [3]: ids repeat across and within rows
        rng = np.random.default_rng(47)
        table = Tensor(rng.normal(size=(4, 2)))
        w = Tensor(rng.normal(size=(4, 3)))
        windows = np.array([[1, 2], [2, 1], [1, 1], [3, 0]])
        weights = rng.normal(size=(4, 3))

        def f():
            rows = ad.reshape(lookup(table, windows), (4, 4))
            return tsum(tanh(matmul(rows, w)), weights)

        report = grad_check(f, [table, w])
        assert report.checked == 20
        assert report.max_rel_error < 1e-8

    @pytest.mark.parametrize("ops", [ad, ad.TapeFree], ids=["taped", "tape-free"])
    def test_rows_must_fit_the_segments(self, ops):
        seg = Segments([2, 1])
        p = ops.param
        with pytest.raises(ShapeError):
            ops.segment_softmax(p(Tensor(np.zeros(4))), seg)
        with pytest.raises(ShapeError):
            ops.segment_sum(p(Tensor(np.zeros(3))), p(Tensor(np.zeros((2, 2)))), seg)
        with pytest.raises(ShapeError):
            ops.segment_max(p(Tensor(np.zeros((4, 2)))), seg)
        with pytest.raises(ShapeError):
            ops.segment_max(p(Tensor(np.zeros(3))), seg)

    @pytest.mark.parametrize("counts", [[], [2, 0], [[1, 2]]])
    def test_segments_need_positive_lengths(self, counts):
        with pytest.raises(ShapeError):
            Segments(counts)


class TestGradCheck:
    def test_quadratic_is_tight(self):
        x = Tensor([1.5, -0.5, 2.0])

        def f():  # the sum of squares, as x times itself
            return ad.reshape(matmul(ad.reshape(x, (1, 3)), x), ())

        report = grad_check(f, [x])
        assert report.max_rel_error < 1e-8
        assert report.checked == 3
        assert report.excluded == []

    def test_relu_kink_coordinate_excluded(self):
        x = Tensor([0.0, 1.0])

        def f():
            return tsum(relu(x))

        report = grad_check(f, [x])
        assert (0, 0) in report.excluded
        assert report.checked == 1
        assert report.max_rel_error < 1e-8

    def test_composite_network(self):
        rng = np.random.default_rng(19)
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=3))
        x = np.array([[0.5, -0.25, 1.0, 0.75], [-0.5, 0.3, 0.2, 1.5]])

        def f():
            h = relu(ad.add(matmul(Tensor(x), w), b))
            return mean_nll(softmax(h), [1, 0])

        report = grad_check(f, [w, b])
        assert report.max_rel_error < 1e-4


class TestNoTestOnlyCode:
    # the finite-difference oracle is the one part of the module only tests call
    ORACLES = {"grad_check", "record_relu_inputs", "GradCheckReport"}

    def test_every_public_function_is_used_in_src(self):
        """Each public function or method of autodiff is named by another module in src/.

        A use is ``alias.name`` (the ops namespaces are reached that way)
        or an import by name from ``.autodiff``.
        """
        src = Path(ad.__file__).parent
        used = set()
        for path in src.glob("*.py"):
            if path.name == "autodiff.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                    used.update(alias.name for alias in node.names)
        public = set()
        for name, obj in vars(ad).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != ad.__name__:
                continue
            if inspect.isfunction(obj):
                public.add(name)
            elif inspect.isclass(obj):
                public.update(
                    attr for attr, raw in vars(obj).items()
                    if not attr.startswith("_") and isinstance(raw, (staticmethod, FunctionType))
                )
        assert public >= {"add", "matmul", "softmax", "param", "backward"}
        assert sorted(public - used - self.ORACLES) == []
