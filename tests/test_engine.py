import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmixer import engine
from cmixer.engine import (
    ComplexTensor,
    Tape,
    Tensor,
    complex_affine,
    crelu,
    grad_check,
    grad_check_report,
    layernorm,
    topo_order,
)
from cmixer.errors import ContractError, DimensionError, DomainError, NumericError
from cmixer.gradcheck import run_suite


def ct(re, im):
    return ComplexTensor(Tensor(re), Tensor(im))


class TestComplexAffine:
    def test_identity_weight(self):
        out = complex_affine([[1.0]], [[0.0]], ct([[2.0]], [[3.0]]))
        assert out.re.data == pytest.approx(2.0)
        assert out.im.data == pytest.approx(3.0)

    def test_multiply_by_i_rotates(self):
        out = complex_affine([[0.0]], [[1.0]], ct([[1.0]], [[0.0]]))
        assert out.re.data == pytest.approx(0.0)
        assert out.im.data == pytest.approx(1.0)

    def test_one_plus_i_squared(self):
        out = complex_affine([[1.0]], [[1.0]], ct([[1.0]], [[1.0]]))
        assert out.re.data == pytest.approx(0.0)
        assert out.im.data == pytest.approx(2.0)

    def test_matches_direct_complex_multiplication(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n, k = rng.integers(1, 9, size=3)
            A = rng.standard_normal((m, n))
            B = rng.standard_normal((m, n))
            hre = rng.standard_normal((n, k))
            him = rng.standard_normal((n, k))
            bre = rng.standard_normal(m)
            bim = rng.standard_normal(m)
            got = complex_affine(A, B, ct(hre, him), bias=ct(bre, bim))
            want = (A + 1j * B) @ (hre + 1j * him) + (bre + 1j * bim)[:, None]
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got.re.data + 1j * got.im.data - want).max() / scale < 1e-12

    def test_reduces_to_real_matmul(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 4))
        h = rng.standard_normal((4, 2))
        out = complex_affine(A, np.zeros((3, 4)), ct(h, np.zeros((4, 2))))
        np.testing.assert_array_equal(out.re.data, A @ h)
        np.testing.assert_array_equal(out.im.data, np.zeros((3, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            complex_affine(np.ones((2, 3)), np.ones((2, 2)), ct(np.ones((3, 1)), np.ones((3, 1))))
        with pytest.raises(DimensionError):
            complex_affine(np.ones((2, 3)), np.ones((2, 3)), ct(np.ones((4, 1)), np.ones((4, 1))))

    def test_batched_input(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((3, 4))
        h = ct(rng.standard_normal((5, 4, 2)), rng.standard_normal((5, 4, 2)))
        out = complex_affine(A, B, h)
        assert out.shape == (5, 3, 2)
        want = (A + 1j * B) @ (h.re.data[0] + 1j * h.im.data[0])
        np.testing.assert_allclose(out.re.data[0] + 1j * out.im.data[0], want, atol=1e-12)

    @pytest.mark.parametrize("axis", [-2, -1])
    @pytest.mark.parametrize("strided", [False, True])
    def test_batched_matches_complex_product(self, axis, strided):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 4))
        B = rng.standard_normal((5, 4))
        bre, bim = rng.standard_normal(5), rng.standard_normal(5)
        shape = (3, 2, 4, 6) if axis == -2 else (3, 2, 6, 4)
        if strided:  # same shapes, built as swapped views of other arrays
            re = rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
            im = rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
            assert not re.flags.c_contiguous
        else:
            re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        got = complex_affine(A, B, ct(re, im), bias=ct(bre, bim), axis=axis)
        W, z, b = A + 1j * B, re + 1j * im, bre + 1j * bim
        want = W @ z + b[:, None] if axis == -2 else z @ W.T + b
        assert got.shape == want.shape
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got.re.data + 1j * got.im.data - want).max() / scale < 1e-12

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_one_used_part_still_backpropagates(self, part):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((2, 3, 2))

        def f(lv):
            out = complex_affine(lv["A"], lv["B"], ComplexTensor(lv["hre"], lv["him"]))
            return engine.mul(getattr(out, part), w).sum()

        leaves = {"A": rng.standard_normal((3, 4)), "B": rng.standard_normal((3, 4)),
                  "hre": rng.standard_normal((2, 4, 2)), "him": rng.standard_normal((2, 4, 2))}
        assert grad_check(f, leaves) < 1e-6

    def test_graph_is_freed_without_the_cycle_collector(self):
        # a reference cycle would keep every batch's graph alive until gc runs
        rng = np.random.default_rng(15)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        x = rng.standard_normal((2, 4, 5))
        gc.collect()
        gc.disable()
        try:
            out = crelu(complex_affine(A, B, ct(x, x)))
            out = layernorm(out.im, np.ones(5), np.zeros(5))
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nonfinite_output_raises_naming_op(self):
        big = np.full((2, 2), 1e308)
        with pytest.raises(NumericError, match="complex_affine"), np.errstate(over="ignore"):
            complex_affine(big, big, ct(np.full((2, 1), 10.0), np.zeros((2, 1))))


class TestCrelu:
    def test_examples(self):
        out = crelu(ct([1.0], [-2.0]))
        assert out.re.data == pytest.approx(1.0) and out.im.data == pytest.approx(0.0)
        out = crelu(ct([-1.0], [-1.0]))
        assert out.re.data == pytest.approx(0.0) and out.im.data == pytest.approx(0.0)
        out = crelu(ct([0.5], [0.5]))
        assert out.re.data == pytest.approx(0.5) and out.im.data == pytest.approx(0.5)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_idempotent(self, values):
        h = ct(values, values[::-1])
        once = crelu(h)
        twice = crelu(once)
        np.testing.assert_array_equal(once.re.data, twice.re.data)
        np.testing.assert_array_equal(once.im.data, twice.im.data)


class TestLayerNorm:
    def test_constant_slice_collapses_to_zero(self):
        out = layernorm(Tensor([5.0, 5.0, 5.0]), np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)

    def test_already_normalized(self):
        out = layernorm(Tensor([1.0, -1.0]), np.ones(2), np.zeros(2), eps=1e-12)
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_scale_and_shift(self):
        # independent oracle: plain numpy evaluation of (x-mu)/sqrt(var+eps)*g+b
        x = np.array([0.0, 2.0])
        expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5) * 2.0 + 1.0
        np.testing.assert_allclose(expected, [-1.0, 3.0], atol=1e-3)
        out = layernorm(Tensor(x), np.full(2, 2.0), np.full(2, 1.0), eps=1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_numpy_closed_form(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 5))
        x[1, 2] = 4.0  # a zero-variance slice
        gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
        out = layernorm(Tensor(x), gamma, beta)
        mu = x.mean(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * gamma + beta
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data[1, 2], beta, rtol=0, atol=1e-12)

    def test_inner_axis_gradients(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((2, 4, 3))
        leaves = {"x": rng.standard_normal((2, 4, 3)), "g": rng.standard_normal(4),
                  "b": rng.standard_normal(4)}
        f = lambda lv: engine.mul(layernorm(lv["x"], lv["g"], lv["b"], axis=1), w).sum()
        assert grad_check(f, leaves) < 1e-6

    def test_nonfinite_output_raises_naming_op(self):
        with pytest.raises(NumericError, match="layernorm"), np.errstate(over="ignore"):
            layernorm(Tensor([0.0, 1.0]), np.full(2, 1e308), np.full(2, 1e308))

    def test_zero_length_axis_raises(self):
        with pytest.raises(DimensionError):
            layernorm(Tensor(np.zeros((2, 0))), np.zeros(0), np.zeros(0))

    def test_bad_eps_raises(self):
        with pytest.raises(ContractError):
            layernorm(Tensor([1.0, 2.0]), np.ones(2), np.zeros(2), eps=0.0)

    def test_gamma_shape_raises(self):
        with pytest.raises(DimensionError):
            layernorm(Tensor([1.0, 2.0]), np.ones(3), np.zeros(2))


class TestScalarOps:
    def test_softmax_symmetry(self):
        out = engine.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_tanh_zero(self):
        assert engine.tanh(Tensor(0.0)).data == pytest.approx(0.0)

    def test_mean(self):
        assert engine.tmean(Tensor([1.0, 2.0, 3.0])).data == pytest.approx(2.0)

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            engine.log(Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            engine.log(Tensor([-1.0]))

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError):
            engine.exp(Tensor([1000.0]))

    def test_nan_input_is_numeric_error(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])

    @given(
        # float64 rounds softmax to exactly 1.0 once the logit spread
        # passes ~36; the open-interval property holds below saturation
        st.lists(st.floats(-18, 18), min_size=2, max_size=12).map(np.array),
    )
    @settings(max_examples=60)
    def test_softmax_sums_to_one_and_open_interval(self, values):
        out = engine.softmax(Tensor(values)).data
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_softmax_axis(self):
        x = np.arange(6.0).reshape(2, 3)
        out = engine.softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(DimensionError):
            engine.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        x = tape.leaf("x", np.arange(6.0).reshape(2, 3))
        grads = tape.backward(x.sum())
        np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))

    def test_square_sum(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        grads = tape.backward(engine.mul(x, x).sum())
        np.testing.assert_allclose(grads["x"], [2.0, 4.0])

    def test_nonscalar_loss_raises(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(3))
        with pytest.raises(ContractError):
            tape.backward(engine.mul(x, 2.0))

    def test_unused_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(3))
        y = tape.leaf("y", np.ones((2, 2)))
        grads = tape.backward(x.sum())
        np.testing.assert_array_equal(grads["y"], np.zeros((2, 2)))
        assert grads["y"].shape == (2, 2)

    def test_duplicate_leaf_raises(self):
        tape = Tape()
        tape.leaf("x", np.ones(1))
        with pytest.raises(ContractError):
            tape.leaf("x", np.ones(1))

    def test_topological_order_parents_first(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        y = engine.tanh(engine.mul(x, x))
        loss = y.sum()
        order = topo_order(loss)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_reused_subexpression_accumulates(self):
        tape = Tape()
        x = tape.leaf("x", np.array([3.0]))
        loss = engine.add(x, x).sum()
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads["x"], [2.0])


class TestNoGrad:
    def test_ops_keep_no_graph_and_same_values(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        h = ct(x, x[::-1].copy())
        taped = engine.layernorm(crelu(complex_affine(x[:2, :3], x[1:, 1:], h)).re,
                                 np.ones(4), np.zeros(4))
        with engine.no_grad():
            bare = engine.layernorm(crelu(complex_affine(x[:2, :3], x[1:, 1:], h)).re,
                                    np.ones(4), np.zeros(4))
        assert len(topo_order(taped)) > 1
        assert bare._parents == () and bare._backprop is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_ops_still_validate(self):
        with engine.no_grad(), pytest.raises(NumericError, match="exp"):
            engine.exp(np.array([1e308]))

    def test_leaf_inside_raises(self):
        tape = Tape()
        with engine.no_grad(), pytest.raises(ContractError, match="no_grad"):
            tape.leaf("x", np.ones(2))
        tape.leaf("x", np.ones(2))  # fine once the block is left

    def test_nested_blocks_restore_outer_state(self):
        with engine.no_grad():
            with engine.no_grad():
                assert engine.mul(np.ones(2), 2.0)._backprop is None
            assert engine.mul(np.ones(2), 2.0)._backprop is None
        assert engine.mul(np.ones(2), 2.0)._backprop is not None

    def test_state_restored_after_exception(self):
        with pytest.raises(DomainError):
            with engine.no_grad():
                engine.log(np.zeros(2))
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        grads = tape.backward(engine.mul(x, x).sum())
        np.testing.assert_array_equal(grads["x"], [2.0, 4.0])


class TestGradCheck:
    def test_tanh_closed_form(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4))

        err = grad_check(lambda lv: engine.tanh(lv["x"]).sum(), {"x": x})
        assert err < 1e-7
        # closed form 1 - tanh^2 agrees with the engine
        tape = Tape()
        t = tape.leaf("x", x)
        grads = tape.backward(engine.tanh(t).sum())
        np.testing.assert_allclose(grads["x"], 1.0 - np.tanh(x) ** 2, atol=1e-12)

    def test_crelu_affine_away_from_kink(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        hre = rng.standard_normal((3, 2)) + 0.5
        him = rng.standard_normal((3, 2)) + 0.5

        def f(lv):
            out = crelu(
                complex_affine(lv["A"], lv["B"], ComplexTensor(lv["hre"], lv["him"]))
            )
            return engine.add(out.re.sum(), out.im.sum())

        err = grad_check(f, {"A": A, "B": B, "hre": hre, "him": him})
        assert err < 1e-6

    def test_relu_kink_is_skipped_not_failed(self):
        x = np.array([0.0, 1.0, -1.0])
        report = grad_check_report(lambda lv: engine.relu(lv["x"]).sum(), {"x": x})
        assert report.skipped == 1
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("add", lambda lv: engine.add(lv["a"], lv["b"]).sum()),
            ("mul", lambda lv: engine.mul(lv["a"], lv["b"]).sum()),
            ("sub", lambda lv: engine.sub(lv["a"], lv["b"]).sum()),
            ("matmul", lambda lv: engine.matmul(lv["a"], lv["b"].transpose((1, 0))).sum()),
            ("tanh", lambda lv: engine.tanh(lv["a"]).sum()),
            ("exp", lambda lv: engine.exp(lv["a"]).sum()),
            ("softplus", lambda lv: engine.softplus(engine.mul(lv["a"], lv["b"])).sum()),
            ("mean", lambda lv: engine.tmean(engine.mul(lv["a"], lv["a"]), axis=1).sum()),
            ("softmax", lambda lv: engine.mul(engine.softmax(lv["a"], axis=1), lv["b"]).sum()),
            (
                "log_softmax",
                lambda lv: engine.mul(engine.log_softmax(lv["a"], axis=1), lv["b"]).sum(),
            ),
            (
                "layernorm",
                lambda lv: engine.mul(
                    layernorm(lv["a"], lv["g"], lv["be"], axis=1), lv["b"]
                ).sum(),
            ),
            ("pow", lambda lv: engine.pow_const(engine.exp(lv["a"]), -0.5).sum()),
            ("reshape", lambda lv: engine.mul(lv["a"].reshape((8, 2)), 3.0).sum()),
            (
                "transpose",
                lambda lv: engine.mul(lv["a"].transpose((1, 0)), lv["b"].transpose((1, 0))).sum(),
            ),
            ("log", lambda lv: engine.log(engine.add(engine.mul(lv["a"], lv["a"]), 0.1)).sum()),
            ("div", lambda lv: engine.div(lv["a"], engine.add(engine.mul(lv["b"], lv["b"]), 1.0)).sum()),
        ],
    )
    def test_every_op_matches_finite_differences(self, name, builder):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for trial in range(8):
            leaves = {
                "a": rng.standard_normal((4, 4)),
                "b": rng.standard_normal((4, 4)),
                "g": rng.standard_normal(4),
                "be": rng.standard_normal(4),
            }
            assert grad_check(builder, leaves) < 1e-4, f"{name} trial {trial}"

    def test_sampled_check_covers_all_leaves(self):
        rng = np.random.default_rng(11)
        leaves = {"a": rng.standard_normal((6, 6)), "b": rng.standard_normal((6, 6))}
        report = grad_check_report(
            lambda lv: engine.tanh(engine.matmul(lv["a"], lv["b"])).sum(),
            leaves,
            sample=5,
            rng=np.random.default_rng(0),
        )
        assert report.checked == 10
        assert report.max_rel_error < 1e-6

    def test_corrupted_fused_backward_fails_naming_op(self):
        result = run_suite(corrupt_op="complex_affine_strided")
        assert [r.name for r in result.results if not r.passed] == ["complex_affine_strided"]
