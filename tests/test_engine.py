import contextlib
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from cmixer.errors import ContractError, DimensionError, NumericError
from cmixer.gradcheck import run_suite
from cmixer.model import CMixerConfig, CMixerModel, _open_unit
from cmixer.train import cross_entropy, ssl_loss


def ct(re, im):
    return ComplexTensor(Tensor(re), Tensor(im))


class TestComplexAffine:
    def test_identity_weight(self):
        out = complex_affine(ct([[1.0]], [[0.0]]), ct([[2.0]], [[3.0]]))
        assert out.re.data == pytest.approx(2.0)
        assert out.im.data == pytest.approx(3.0)

    def test_multiply_by_i_rotates(self):
        out = complex_affine(ct([[0.0]], [[1.0]]), ct([[1.0]], [[0.0]]))
        assert out.re.data == pytest.approx(0.0)
        assert out.im.data == pytest.approx(1.0)

    def test_one_plus_i_squared(self):
        out = complex_affine(ct([[1.0]], [[1.0]]), ct([[1.0]], [[1.0]]))
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
            got = complex_affine(ct(A, B), ct(hre, him), bias=ct(bre, bim))
            want = (A + 1j * B) @ (hre + 1j * him) + (bre + 1j * bim)[:, None]
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got.re.data + 1j * got.im.data - want).max() / scale < 1e-12

    def test_reduces_to_real_matmul(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 4))
        h = rng.standard_normal((4, 2))
        out = complex_affine(ct(A, np.zeros((3, 4))), ct(h, np.zeros((4, 2))))
        np.testing.assert_array_equal(out.re.data, A @ h)
        np.testing.assert_array_equal(out.im.data, np.zeros((3, 2)))

    def test_shape_mismatch_raises(self):
        h3, h4 = ct(np.ones((3, 1)), np.ones((3, 1))), ct(np.ones((4, 1)), np.ones((4, 1)))
        with pytest.raises(DimensionError):
            complex_affine(ct(np.ones((2, 3)), np.ones((2, 2))), h3)
        with pytest.raises(DimensionError):
            complex_affine(ct(np.ones((2, 3)), np.ones((2, 3))), h4)
        with pytest.raises(DimensionError, match="matrices"):
            complex_affine(ct(np.ones(3), np.ones(3)), h3)

    def test_batched_input(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((3, 4))
        h = ct(rng.standard_normal((5, 4, 2)), rng.standard_normal((5, 4, 2)))
        out = complex_affine(ct(A, B), h)
        assert out.shape == (5, 3, 2)
        want = (A + 1j * B) @ (h.re.data[0] + 1j * h.im.data[0])
        np.testing.assert_allclose(out.re.data[0] + 1j * out.im.data[0], want, atol=1e-12)

    @pytest.mark.parametrize("axis", [-3, -2, -1])
    @pytest.mark.parametrize("strided", [False, True])
    def test_batched_matches_complex_product(self, axis, strided):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 4))
        B = rng.standard_normal((5, 4))
        bre, bim = rng.standard_normal(5), rng.standard_normal(5)
        shape = [3, 2, 6, 6]
        shape[axis] = 4
        shape = tuple(shape)
        if strided:  # same shapes, built as swapped views of other arrays
            re = rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
            im = rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
            assert not re.flags.c_contiguous
        else:
            re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        got = complex_affine(ct(A, B), ct(re, im), bias=ct(bre, bim), axis=axis)
        W, z, b = A + 1j * B, re + 1j * im, bre + 1j * bim
        want = np.moveaxis(np.moveaxis(z, axis, -1) @ W.T + b, -1, axis)
        assert got.shape == want.shape
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got.re.data + 1j * got.im.data - want).max() / scale < 1e-12

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_one_used_part_still_backpropagates(self, part):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((2, 3, 2))

        def f(lv):
            out = complex_affine(ComplexTensor(lv["A"], lv["B"]),
                                 ComplexTensor(lv["hre"], lv["him"]))
            return engine.mul(getattr(out, part), w).sum()

        leaves = {"A": rng.standard_normal((3, 4)), "B": rng.standard_normal((3, 4)),
                  "hre": rng.standard_normal((2, 4, 2)), "him": rng.standard_normal((2, 4, 2))}
        assert grad_check(f, leaves) < 1e-6

    def test_leading_axis_gradients(self):
        # axis 0 of a 3-D input: the rows come from a permutation that is not its own inverse
        rng = np.random.default_rng(19)
        w = rng.standard_normal((3, 3, 2, 2))

        def f(lv):
            out = complex_affine(ComplexTensor(lv["A"], lv["B"]), ComplexTensor.packed(lv["z"]),
                                 bias=ComplexTensor(lv["bre"], lv["bim"]), axis=0)
            return engine.mul(out.z, w).sum()

        leaves = {"A": rng.standard_normal((3, 4)), "B": rng.standard_normal((3, 4)),
                  "z": rng.standard_normal((4, 3, 2, 2)),
                  "bre": rng.standard_normal(3), "bim": rng.standard_normal(3)}
        assert grad_check(f, leaves) < 1e-6

    def test_graph_is_freed_without_the_cycle_collector(self):
        # a reference cycle would keep every batch's graph alive until gc runs
        rng = np.random.default_rng(15)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        x = rng.standard_normal((2, 4, 5))
        gc.collect()
        gc.disable()
        try:
            out = crelu(complex_affine(ct(A, B), ct(x, x)))
            out = layernorm(out.im, np.ones(5), np.zeros(5))
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nonfinite_output_raises_naming_op(self):
        big = np.full((2, 2), 1e308)
        with pytest.raises(NumericError, match="complex_affine"), np.errstate(over="ignore"):
            complex_affine(ct(big, big), ct(np.full((2, 1), 10.0), np.zeros((2, 1))))


class TestComplexTensor:
    def test_parts_round_trip_bitwise(self):
        rng = np.random.default_rng(16)
        re, im = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 5))
        h = ct(re, im)
        assert h.shape == (3, 4, 5) and h.z.shape == (3, 4, 2, 5)
        assert h.re.data.tobytes() == re.tobytes()
        assert h.im.data.tobytes() == im.tobytes()

    def test_gradient_through_one_part_lands_only_there(self):
        rng = np.random.default_rng(17)
        w = rng.standard_normal((2, 3))
        tape = Tape()
        re, im = tape.leaf("re", rng.standard_normal((2, 3))), tape.leaf("im", np.ones((2, 3)))
        grads = tape.backward(engine.mul(ComplexTensor(re, im).re, w).sum())
        np.testing.assert_array_equal(grads["re"], w)
        np.testing.assert_array_equal(grads["im"], np.zeros((2, 3)))
        tape = Tape()
        z = tape.leaf("z", rng.standard_normal((2, 2, 3)))
        grads = tape.backward(engine.mul(ComplexTensor.packed(z).im, w).sum())
        np.testing.assert_array_equal(grads["z"][:, 0], np.zeros((2, 3)))
        np.testing.assert_array_equal(grads["z"][:, 1], w)

    def test_packed_needs_a_pair_axis(self):
        with pytest.raises(DimensionError):
            ComplexTensor.packed(Tensor(np.zeros((2, 3, 4))))
        with pytest.raises(DimensionError):
            ComplexTensor(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("op", ["affine_token", "affine_channel", "crelu", "add", "mean",
                                    "layernorm", "affine_crelu"])
    def test_complex_op_builds_one_node(self, op):
        rng = np.random.default_rng(18)
        h = ComplexTensor.packed(Tensor(rng.standard_normal((2, 4, 2, 3))))
        inputs = [h.z]
        if op.startswith("affine"):
            n = 4 if op == "affine_token" else 3
            W = ComplexTensor.packed(Tensor(rng.standard_normal((5, 2, n))))
            bias = ComplexTensor.packed(Tensor(rng.standard_normal((2, 5))))
            out = complex_affine(W, h, bias=bias, axis=-2 if op == "affine_token" else -1,
                                 crelu=op == "affine_crelu")
            inputs += [W.z, bias.z]
        elif op == "crelu":
            out = crelu(h)
        elif op == "add":
            out = h + h
        elif op == "mean":
            out = h.mean(axis=1)
        else:
            g, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
            out = ComplexTensor.packed(layernorm(h.z, g, b))
            inputs += [g, b]
        nodes = topo_order(out.z)
        assert len(nodes) == 1 + len({id(t) for t in inputs})
        assert {id(p) for p in out.z._parents} == {id(t) for t in inputs}


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


class TestFusedCrelu:
    """``complex_affine(..., crelu=True)`` against ``crelu(complex_affine(...))``."""

    @staticmethod
    def _run(fused, axis, leaves, w):
        tape = Tape()
        lv = {k: tape.leaf(k, v) for k, v in leaves.items()}
        W, bias = ComplexTensor(lv["A"], lv["B"]), ComplexTensor(lv["bre"], lv["bim"])
        h = ComplexTensor.packed(lv["z"])
        if fused:
            out = complex_affine(W, h, bias=bias, axis=axis, crelu=True)
        else:
            out = crelu(complex_affine(W, h, bias=bias, axis=axis))
        value = out.z.data.copy()
        return value, tape.backward(engine.mul(out.z, w).sum())

    @pytest.mark.parametrize("axis", [-2, -1], ids=["token", "channel"])
    def test_bitwise_values_and_equal_gradients(self, axis):
        rng = np.random.default_rng(31)
        m, n = (5, 4) if axis == -2 else (5, 3)
        leaves = {"A": rng.standard_normal((m, n)), "B": rng.standard_normal((m, n)),
                  "z": rng.standard_normal((2, 4, 2, 3)),
                  "bre": rng.standard_normal(m), "bim": rng.standard_normal(m)}
        out_shape = (2, 5, 2, 3) if axis == -2 else (2, 4, 2, 5)
        w = rng.standard_normal(out_shape)
        fused, fused_grads = self._run(True, axis, leaves, w)
        plain, plain_grads = self._run(False, axis, leaves, w)
        assert fused.shape == out_shape and (fused == 0.0).any() and (fused > 0.0).any()
        assert fused.tobytes() == plain.tobytes()
        for name, g in plain_grads.items():
            assert np.array_equal(fused_grads[name], g), name

    def test_zero_pre_activation_gets_zero_gradient(self):
        tape = Tape()
        A = tape.leaf("A", np.zeros((2, 3)))
        z = tape.leaf("z", np.ones((4, 2, 3)))
        out = complex_affine(ComplexTensor(A, np.zeros((2, 3))), ComplexTensor.packed(z), axis=-1,
                             crelu=True)
        grads = tape.backward(out.z.sum())
        np.testing.assert_array_equal(grads["A"], np.zeros((2, 3)))
        np.testing.assert_array_equal(grads["z"], np.zeros((4, 2, 3)))

    def test_no_pre_activation_is_stored(self):
        rng = np.random.default_rng(32)
        h = ComplexTensor.packed(Tensor(rng.standard_normal((2, 4, 2, 3))))
        A, B = Tensor(rng.standard_normal((5, 3))), Tensor(rng.standard_normal((5, 3)))
        out = complex_affine(ComplexTensor(A, B), h, axis=-1, crelu=True)
        # the backward keeps no array but the output itself
        kept = [c.cell_contents for c in out.z._backprop.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert kept and all(np.shares_memory(a, out.z.data) for a in kept)


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

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            engine.mul(Tensor([1e308]), 10.0)

    @pytest.mark.parametrize("name, op", [
        ("softmax", lambda t: engine.softmax(t, axis=1)),
        ("log_softmax", lambda t: engine.log_softmax(t, axis=1)),
        ("sub", lambda t: engine.sub(t, Tensor(np.ones(3)))),
    ])
    def test_loss_ops_build_one_node(self, name, op):
        out = op(Tensor(np.arange(6.0).reshape(2, 3)))
        assert out._op == name
        assert all(p._parents == () for p in out._parents)

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
        for op in ("add", "sub", "mul"):
            with pytest.raises(DimensionError,
                               match=fr"^{op}: shapes \(2, 3\) and \(4,\) do not broadcast$"):
                getattr(engine, op)(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


# finite float64 arrays up to the largest magnitudes, where arithmetic overflows
finite_arrays = hnp.arrays(np.float64, st.sampled_from([(3,), (2, 3), (2, 2, 3)]),
                           elements=st.floats(allow_nan=False, allow_infinity=False))


@contextlib.contextmanager
def finite_checks():
    """Inside the block, record the op of every output the finite check sees."""
    seen = []
    check = engine._ensure_finite
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_ensure_finite", lambda arr, op: (seen.append(op), check(arr, op)))
        yield seen


class TestFiniteCheckExemptions:
    """Each op here skips the output check. It is sound because the op's input
    is a node, which passed its own check, and finite input gives finite output."""

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_relu(self, data):
        """max(x, 0) is x or 0: no arithmetic that can round to Inf."""
        x = Tensor(data)
        with finite_checks() as seen:
            out = engine.relu(x)
        assert seen == [] and out._op == "relu" and np.isfinite(out.data).all()

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_crelu(self, data):
        """crelu is one relu over z, so each part is x or 0."""
        h = ComplexTensor.packed(Tensor(np.stack((data, -data), axis=-2)))
        with finite_checks() as seen:
            out = crelu(h)
        assert seen == [] and out.z._op == "relu" and np.isfinite(out.z.data).all()

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_reshape(self, data):
        """A reshape is a view of the same values."""
        x = Tensor(data)
        with finite_checks() as seen:
            out = engine.reshape(x, (-1,))
        assert seen == [] and out.data.tobytes() == data.tobytes()

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_transpose(self, data):
        """A transpose is a view of the same values in another order."""
        x, axes = Tensor(data), tuple(reversed(range(data.ndim)))
        with finite_checks() as seen:
            out = engine.transpose(x, axes)
        assert seen == [] and np.array_equal(out.data, data.transpose(axes))

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_part_slices(self, data):
        """``.re`` and ``.im`` are views of one half of z's values."""
        h = ComplexTensor.packed(Tensor(np.stack((data, -data), axis=-2)))
        with finite_checks() as seen:
            re, im = h.re, h.im
        assert seen == []
        assert re.data.tobytes() == data.tobytes() and np.array_equal(im.data, -data)

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_packing(self, data):
        """``ComplexTensor(re, im)`` stacks the two parts' values unchanged."""
        x = Tensor(data)
        with finite_checks() as seen:
            out = ComplexTensor(x, x)
        assert seen == [] and out.z._op == "complex"
        assert out.z.data[..., 0, :].tobytes() == data.tobytes()

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_open_unit(self, data):
        """The head's clip to the open unit interval returns x or a bound just inside +-1."""
        x = Tensor(data)
        with finite_checks() as seen:
            out = _open_unit(x)
        assert seen == [] and out._op == "open_unit" and np.all(np.abs(out.data) < 1.0)

    def test_nan_constant_is_reported_as_const(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(2))
        with pytest.raises(NumericError, match="op 'const'"):
            engine.add(x, np.array([np.nan, 0.0]))

    def test_overflow_names_the_arithmetic_op_not_the_exempt_one_after_it(self):
        x = Tensor(np.full((2, 3), 1e308))
        with pytest.raises(NumericError, match="op 'add'"), np.errstate(over="ignore"):
            engine.relu(engine.reshape(engine.add(x, x), (6,)))
        with pytest.raises(NumericError, match="op 'mul'"), np.errstate(over="ignore"):
            ComplexTensor(engine.mul(x, 10.0), x).re

    def test_each_checked_op_checks_once(self):
        with finite_checks() as seen:
            engine.tanh(engine.relu(engine.mul(np.ones(3), 2.0)))
        assert seen == ["const", "const", "mul", "tanh"]


class TestFirstGradientArrival:
    def test_keeps_the_layout_of_data_and_maps_negative_zero(self):
        tape = Tape()
        x = tape.leaf("x", np.ones((3, 4)))
        t = engine.transpose(x, (1, 0))  # a Fortran-ordered view of x
        g = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, 3.0], [4.0, 5.0, -0.0], [6.0, 7.0, 8.0]])
        t._accumulate(g)
        assert t.grad.strides == t.data.strides and t.grad.strides != g.strides
        assert not np.signbit(t.grad[g == 0.0]).any()
        np.testing.assert_array_equal(t.grad, g)
        t._accumulate(g)  # later arrivals add in place
        np.testing.assert_array_equal(t.grad, 2 * g)

    def test_leaf_gradient_maps_negative_zero(self):
        tape = Tape()
        x = tape.leaf("x", np.asfortranarray(np.ones((2, 3))))
        c = np.array([[-0.0, 1.0, -0.0], [2.0, -0.0, 3.0]])
        grads = tape.backward(engine.mul(x, c).sum())
        assert grads["x"].strides == x.data.strides
        assert not np.signbit(grads["x"]).any()
        np.testing.assert_array_equal(grads["x"], c)


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


def reference_backward(tape, loss):
    """The walk before graph release: every node, closure and interior
    gradient stays alive until it returns."""
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backprop is None or node.grad is None:
            continue
        node._backprop(node.grad)
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in tape._leaves.items()}


def fit_tiny_config():
    return CMixerConfig.small(image_side=8, hidden=8, num_layers=2)


def breast_config():
    """The BreastMNIST-size model of acceptance criterion 10."""
    return CMixerConfig(
        num_layers=2, hidden=32, seq=49, patch=4, token_hidden=98,
        channel_hidden=64, num_classes=2, in_channels=1, image_side=28,
    )


def model_step(model, x, eps, head, walk):
    """One taped forward, its loss and ``walk`` over the graph."""
    tape = Tape()
    out = model.forward(x, eps=eps, tape=tape, head=head)
    if head == "classify":
        loss = cross_entropy(out, np.arange(x.shape[0]) % model.config.num_classes)
    else:
        loss = ssl_loss(out, np.linspace(-1.0, 1.0, out.size).reshape(out.shape))
    return walk(tape, loss)


class TestReleaseWalk:
    @pytest.mark.parametrize("make_config", [fit_tiny_config, breast_config],
                             ids=["fit_tiny", "breast"])
    @pytest.mark.parametrize("head", ["classify", "ssl"])
    def test_gradients_equal_the_reference_walk(self, make_config, head):
        config = make_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((6, config.in_channels, config.image_side, config.image_side))
        eps = rng.standard_normal(x.shape)
        released = model_step(model, x, eps, head, Tape.backward)
        kept = model_step(model, x, eps, head, reference_backward)
        assert released.keys() == kept.keys()
        for name, g in kept.items():
            assert np.array_equal(released[name], g), name

    def test_interior_nodes_are_released(self):
        rng = np.random.default_rng(30)
        tape = Tape()
        x = tape.leaf("x", rng.standard_normal((3, 4)))
        w = tape.leaf("w", rng.standard_normal((4, 2)))
        hidden = engine.tanh(engine.matmul(x, w))
        loss = engine.mul(hidden, hidden).sum()
        nodes = topo_order(loss)
        values = {id(n): n.data.copy() for n in nodes}
        grads = tape.backward(loss)
        interior = [n for n in nodes if n is not loss and n._op != "const"
                    and not n._op.startswith("leaf:")]
        assert len(interior) == 3  # matmul, tanh, mul
        for node in interior:
            assert node._parents == () and node.grad is None, node
            assert node._backprop is engine._walked, node
        for node in nodes:  # values stay readable
            assert node.data.tobytes() == values[id(node)].tobytes()
        assert loss.grad is not None and loss._parents == ()
        assert x.grad is grads["x"] and w.grad is grads["w"]

    def test_constants_drop_their_gradient(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(3))
        c = Tensor(np.full(3, 2.0))
        tape.backward(engine.mul(x, c).sum())
        assert c.grad is None

    def test_model_constants_take_no_gradient(self):
        """The packed image, the noise ``eps`` and the loss targets are
        constants: even a walk that releases nothing leaves them no gradient."""
        config = fit_tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        x = rng.random((4, config.in_channels, config.image_side, config.image_side))
        tape = Tape()
        loss = cross_entropy(model.forward(x, eps=rng.standard_normal(x.shape), tape=tape),
                             np.arange(4) % config.num_classes)
        nodes = topo_order(loss)
        reference_backward(tape, loss)
        constants = [n for n in nodes if n._parents == () and n._op == "const"]
        assert len(constants) >= 3
        assert all(n.grad is None for n in constants)
        leaves = [n for n in nodes if n._op.startswith("leaf:")]
        assert leaves and all(n.grad is not None for n in leaves)

    def test_second_walk_on_a_used_tape_raises(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        first = tape.backward(engine.mul(x, x).sum())
        with pytest.raises(ContractError, match="already run backward"):
            tape.backward(engine.mul(x, 3.0).sum())
        np.testing.assert_array_equal(first["x"], [2.0, 4.0])

    def test_second_walk_of_a_consumed_graph_raises(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        loss = engine.mul(x, x).sum()
        tape.backward(loss)
        with pytest.raises(ContractError, match="already consumed"):
            Tape().backward(loss)

    def test_walk_reaching_a_consumed_node_raises_before_any_work(self):
        tape = Tape()
        x = tape.leaf("x", np.array([1.0, 2.0]))
        shared = engine.tanh(x)
        other = engine.mul(shared, 2.0).sum()
        tape.backward(engine.mul(shared, shared).sum())
        with pytest.raises(ContractError, match="already consumed"):
            Tape().backward(other)
        assert other._backprop is not engine._walked  # nothing was walked

    def test_graph_is_freed_during_the_walk(self):
        """Memory scales with activations: on the BreastMNIST-size config at
        B=64 the forward-plus-backward peak of the releasing walk stays well
        below that of the walk that keeps the whole graph."""
        config = breast_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = rng.random((64, 1, 28, 28))
        eps = rng.standard_normal(x.shape)

        def peak(walk):
            tracemalloc.start()
            try:
                model_step(model, x, eps, "classify", walk)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kept = peak(reference_backward)
        released = peak(Tape.backward)
        assert released < 0.65 * kept, (released, kept)


class TestNoGrad:
    def test_ops_keep_no_graph_and_same_values(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        h = ct(x, x[::-1].copy())
        taped = engine.layernorm(crelu(complex_affine(ct(x[:2, :3], x[1:, 1:]), h)).re,
                                 np.ones(4), np.zeros(4))
        with engine.no_grad():
            bare = engine.layernorm(crelu(complex_affine(ct(x[:2, :3], x[1:, 1:]), h)).re,
                                    np.ones(4), np.zeros(4))
        assert len(topo_order(taped)) > 1
        assert bare._parents == () and bare._backprop is None
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_ops_still_validate(self):
        with engine.no_grad(), pytest.raises(NumericError, match="mul"), \
                np.errstate(over="ignore"):
            engine.mul(np.array([1e308]), 10.0)

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
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            with engine.no_grad():
                engine.mul(np.array([1e308]), 10.0)
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
            out = crelu(complex_affine(ComplexTensor(lv["A"], lv["B"]),
                                       ComplexTensor(lv["hre"], lv["him"])))
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
            ("sub_broadcast", lambda lv: engine.mul(engine.sub(lv["a"], lv["g"]), lv["b"]).sum()),
            ("matmul", lambda lv: engine.matmul(lv["a"], lv["b"].transpose((1, 0))).sum()),
            ("tanh", lambda lv: engine.tanh(lv["a"]).sum()),
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
            ("reshape", lambda lv: engine.mul(lv["a"].reshape((8, 2)), 3.0).sum()),
            (
                "transpose",
                lambda lv: engine.mul(lv["a"].transpose((1, 0)), lv["b"].transpose((1, 0))).sum(),
            ),
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
