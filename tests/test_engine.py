import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cmixer import engine, gradcheck
from cmixer.engine import (
    Tape,
    Tensor,
    complex_affine,
    complex_mlp,
    grad_check,
    grad_check_report,
    layernorm,
    topo_order,
)
from cmixer.errors import ContractError, DimensionError, NumericError
from cmixer.gradcheck import ENTRIES, run_suite
from cmixer.model import CMixerConfig, CMixerModel, Toggles, pearson_project
from cmixer.train import bce_with_logits, cross_entropy, softmax, ssl_loss


def pack(re, im):
    return np.stack((re, im), axis=-2)


def ct(re, im):
    """The packed complex tensor ``re + i*im``, of shape (..., 2, n)."""
    return Tensor(pack(re, im))


def cplx(t):
    """A packed tensor's values as a numpy complex array."""
    return t.data[..., 0, :] + 1j * t.data[..., 1, :]


class TestComplexAffine:
    def test_identity_weight(self):
        out = complex_affine(ct([[1.0]], [[0.0]]), ct([[2.0]], [[3.0]]))
        assert cplx(out) == pytest.approx(2.0 + 3.0j)

    def test_multiply_by_i_rotates(self):
        out = complex_affine(ct([[0.0]], [[1.0]]), ct([[1.0]], [[0.0]]))
        assert cplx(out) == pytest.approx(1.0j)

    def test_one_plus_i_squared(self):
        out = complex_affine(ct([[1.0]], [[1.0]]), ct([[1.0]], [[1.0]]))
        assert cplx(out) == pytest.approx(2.0j)

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
            assert np.abs(cplx(got) - want).max() / scale < 1e-12

    def test_reduces_to_real_matmul(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 4))
        h = rng.standard_normal((4, 2))
        out = complex_affine(ct(A, np.zeros((3, 4))), ct(h, np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data[:, 0], A @ h)
        np.testing.assert_array_equal(out.data[:, 1], np.zeros((3, 2)))

    def test_shape_mismatch_raises(self):
        h3, h4 = ct(np.ones((3, 1)), np.ones((3, 1))), ct(np.ones((4, 1)), np.ones((4, 1)))
        w = ct(np.ones((2, 3)), np.ones((2, 3)))
        assert complex_affine(w, h3).shape == (2, 2, 1)
        with pytest.raises(DimensionError, match="complex_affine: weight"):
            complex_affine(w, h4)
        with pytest.raises(DimensionError, match=r"weight needs shape \(m, 2, n\)"):
            complex_affine(ct(np.ones(3), np.ones(3)), h3)
        with pytest.raises(DimensionError, match="bias"):
            complex_affine(w, h3, bias=Tensor(np.ones(2)))

    @pytest.mark.parametrize("axis", [2, 5, -3, -7])
    def test_axis_out_of_range_raises(self, axis):
        W, h = ct(np.ones((2, 3)), np.ones((2, 3))), ct(np.ones((3, 3)), np.ones((3, 3)))
        with pytest.raises(DimensionError, match=f"complex_affine: axis {axis} is out of range"):
            complex_affine(W, h, axis=axis)

    def test_batched_input(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((3, 4))
        h = ct(rng.standard_normal((5, 4, 2)), rng.standard_normal((5, 4, 2)))
        out = complex_affine(ct(A, B), h)
        assert out.shape == (5, 3, 2, 2)
        want = (A + 1j * B) @ cplx(h)[0]
        np.testing.assert_allclose(cplx(out)[0], want, atol=1e-12)

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
        assert cplx(got).shape == want.shape
        scale = max(1.0, np.abs(want).max())
        assert np.abs(cplx(got) - want).max() / scale < 1e-12

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_one_used_part_still_backpropagates(self, part):
        rng = np.random.default_rng(12)
        w = np.zeros((2, 3, 2, 2))
        w[:, :, ["re", "im"].index(part)] = rng.standard_normal((2, 3, 2))

        def f(lv):
            return engine.mul(complex_affine(lv["W"], lv["h"]), w).sum()

        leaves = {"W": pack(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
                  "h": pack(rng.standard_normal((2, 4, 2)), rng.standard_normal((2, 4, 2)))}
        assert grad_check(f, leaves) < 1e-6

    def test_leading_axis_gradients(self):
        # axis 0 of a 3-D input: the rows come from a permutation that is not its own inverse
        rng = np.random.default_rng(19)
        w = rng.standard_normal((3, 3, 2, 2))

        def f(lv):
            out = complex_affine(lv["W"], lv["z"], bias=lv["bias"], axis=0)
            return engine.mul(out, w).sum()

        leaves = {"W": pack(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
                  "z": rng.standard_normal((4, 3, 2, 2)),
                  "bias": pack(rng.standard_normal(3), rng.standard_normal(3))}
        assert grad_check(f, leaves) < 1e-6

    def test_graph_is_freed_without_the_cycle_collector(self):
        # a reference cycle would keep every batch's graph alive until gc runs
        rng = np.random.default_rng(15)
        A, B = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        x = rng.standard_normal((2, 4, 5))
        gc.collect()
        gc.disable()
        try:
            out = engine.relu(complex_affine(ct(A, B), ct(x, x)))
            out = layernorm(out, np.ones(5), np.zeros(5))
            del out
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nonfinite_output_raises_naming_op(self):
        big = np.full((2, 2), 1e308)
        with pytest.raises(NumericError, match="complex_affine"), np.errstate(over="ignore"):
            complex_affine(ct(big, big), ct(np.full((2, 1), 10.0), np.zeros((2, 1))))


class TestPacked:
    """A complex value is one packed (..., 2, n) tensor: index 0 on the pair
    axis is the real part, index 1 the imaginary part."""

    def test_parts_round_trip_bitwise(self):
        """The identity weight returns each part to its own place, on the
        token axis (a transposed view) and on the last axis alike."""
        rng = np.random.default_rng(16)
        re, im = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 5))
        for axis in (-2, -1):
            n = re.shape[axis]
            out = complex_affine(ct(np.eye(n), np.zeros((n, n))), ct(re, im), axis=axis)
            assert out.shape == (3, 4, 2, 5)
            assert np.ascontiguousarray(out.data[..., 0, :]).tobytes() == re.tobytes()
            assert np.ascontiguousarray(out.data[..., 1, :]).tobytes() == im.tobytes()

    def test_gradient_through_one_part_lands_only_there(self):
        """The head reads the parts it keeps; the other part gets zeros."""
        rng = np.random.default_rng(17)
        w = rng.standard_normal((2, 3))
        for keep in (0, 1):
            tape = Tape()
            z = tape.leaf("z", rng.standard_normal((2, 2, 3)))
            out = pearson_project(z, use_real=keep == 0, use_imag=keep == 1)
            grads = tape.backward(engine.mul(out, w).sum())
            t = np.tanh(z.data[:, keep])
            assert not grads["z"][:, 1 - keep].any()
            np.testing.assert_array_equal(grads["z"][:, keep], w * (1.0 - t * t))

    def test_packed_needs_a_pair_axis(self):
        """complex_affine checks the pair axis of its input, weight and bias."""
        W, h, bias = Tensor(np.ones((3, 2, 4))), Tensor(np.ones((4, 2, 2))), Tensor(np.ones((2, 3)))
        assert complex_affine(W, h, bias=bias).shape == (3, 2, 2)
        for bad in (np.ones((4, 3, 2)), np.ones((4, 1, 2)), np.ones((2, 4))):
            with pytest.raises(DimensionError, match=r"input needs shape \(\.\.\., 2, n\)"):
                complex_affine(W, Tensor(bad), bias=bias)
        with pytest.raises(DimensionError, match=r"weight needs shape \(m, 2, n\)"):
            complex_affine(Tensor(np.ones((3, 3, 4))), h, bias=bias)
        with pytest.raises(DimensionError, match="bias has shape"):
            complex_affine(W, h, bias=Tensor(np.ones((3, 3))))

    def test_head_needs_a_pair_axis(self):
        assert pearson_project(Tensor(np.zeros((3, 2, 4)))).shape == (3, 4)
        for bad in (np.zeros((3, 3, 4)), np.zeros((3, 1, 4)), np.zeros(4)):
            with pytest.raises(DimensionError, match=r"pearson_project: input needs shape"):
                pearson_project(Tensor(bad))

    @pytest.mark.parametrize("op", ["affine_token", "affine_channel", "crelu", "mean",
                                    "layernorm", "mlp_token", "mlp_channel"])
    def test_complex_op_builds_one_node(self, op):
        rng = np.random.default_rng(18)
        h = Tensor(rng.standard_normal((2, 4, 2, 3)))
        inputs = [h]
        if op.startswith("affine"):
            n = 4 if op == "affine_token" else 3
            W = Tensor(rng.standard_normal((5, 2, n)))
            bias = Tensor(rng.standard_normal((2, 5)))
            out = complex_affine(W, h, bias=bias, axis=-2 if op == "affine_token" else -1)
            inputs += [W, bias]
        elif op.startswith("mlp"):
            n = 4 if op == "mlp_token" else 3
            W1, W2 = Tensor(rng.standard_normal((5, 2, n))), Tensor(rng.standard_normal((n, 2, 5)))
            norm = (Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))))
            out = complex_mlp(h, W1, W2, norm, axis=-2 if op == "mlp_token" else -1)
            inputs += [W1, W2, *norm]
        elif op == "crelu":
            out = engine.relu(h)
        elif op == "mean":
            out = engine.tmean(h, 1)
        else:
            g, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
            out = layernorm(h, g, b)
            inputs += [g, b]
        nodes = topo_order(out)
        assert len(nodes) == 1 + len({id(t) for t in inputs})
        assert {id(p) for p in out._parents} == {id(t) for t in inputs}


class TestCrelu:
    """The CReLU of a packed tensor is ``engine.relu``: each part is rectified on its own."""

    def test_examples(self):
        assert cplx(engine.relu(ct([1.0], [-2.0]))) == pytest.approx(1.0)
        assert cplx(engine.relu(ct([-1.0], [-1.0]))) == pytest.approx(0.0)
        assert cplx(engine.relu(ct([0.5], [0.5]))) == pytest.approx(0.5 + 0.5j)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_idempotent(self, values):
        once = engine.relu(ct(values, values[::-1]))
        twice = engine.relu(once)
        np.testing.assert_array_equal(once.data, twice.data)


def composed_mlp(h, W1, W2, g, b, axis):
    """``complex_mlp`` built from plain ops: ``layernorm``, ``complex_affine``,
    ``relu``, ``complex_affine``, then the skip as ``h - (-branch)``, which
    rounds as ``h + branch`` and passes ``h`` its gradient first."""
    hidden = engine.relu(complex_affine(W1, layernorm(h, g, b), axis=axis))
    return engine.sub(h, engine.mul(complex_affine(W2, hidden, axis=axis), -1.0))


def run_mlp(fused, leaves, axis, w, strided=False):
    """The output values and leaf gradients of ``complex_mlp`` (``fused``) or
    of ``composed_mlp`` on ``leaves``, under the loss ``sum(out * w)``; with
    ``strided`` the op reads a transposed view of the ``h`` leaf."""
    tape = Tape()
    lv = {k: tape.leaf(k, v) for k, v in leaves.items()}
    h = engine.transpose(lv["h"], (0, 3, 2, 1)) if strided else lv["h"]
    if fused:
        out = complex_mlp(h, lv["W1"], lv["W2"], (lv["g"], lv["b"]), axis=axis)
    else:
        out = composed_mlp(h, lv["W1"], lv["W2"], lv["g"], lv["b"], axis)
    return out.data, tape.backward(engine.mul(out, w).sum())


def assert_mlp_matches_composition(leaves, axis, w, strided=False):
    """``complex_mlp`` and ``composed_mlp`` agree bitwise in values and every
    gradient, and in the output's layout, which the next half's layer norm
    reads (a reduction's rounding follows the memory order)."""
    fused, fused_grads = run_mlp(True, leaves, axis, w, strided)
    plain, plain_grads = run_mlp(False, leaves, axis, w, strided)
    assert fused.shape == plain.shape and fused.strides == plain.strides
    assert fused.tobytes() == plain.tobytes()
    assert set(fused_grads) == set(plain_grads) == {"W1", "W2", "h", "g", "b"}
    for name, g in plain_grads.items():
        assert fused_grads[name].tobytes() == g.tobytes(), name


def mlp_leaves(rng, batch, seq, width, m, axis, strided=False):
    """Leaves of one mixing half: ``h`` (batch, seq, 2, width), stored
    transposed when ``strided``, weights of hidden width ``m`` along ``axis``."""
    n = seq if axis == -2 else width
    return {"h": rng.standard_normal((batch, width, 2, seq) if strided else (batch, seq, 2, width)),
            "W1": rng.standard_normal((m, 2, n)), "W2": rng.standard_normal((n, 2, m)),
            "g": rng.standard_normal((2, width)), "b": rng.standard_normal((2, width))}


def closure_arrays(t):
    """The arrays that a node's backward closure keeps, tuples unpacked."""
    return [a for c in t._backprop.__closure__
            for a in (c.cell_contents if isinstance(c.cell_contents, tuple) else (c.cell_contents,))
            if isinstance(a, np.ndarray)]


class TestFusedCrelu:
    """The CReLU inside ``complex_mlp``: the hidden layer is ``relu`` of the
    first affine's product, whose derivative at exactly 0 is 0."""

    @pytest.mark.parametrize("axis", [-2, -1], ids=["token", "channel"])
    def test_bitwise_values_and_equal_gradients(self, axis):
        """At the kink too: every other hidden unit has a zero weight row, so
        its pre-activation is exactly 0, and the fused mask agrees with ``relu``."""
        rng = np.random.default_rng(31)
        leaves = mlp_leaves(rng, 2, 4, 3, 6, axis)
        leaves["W1"][::2] = 0.0
        assert_mlp_matches_composition(leaves, axis, rng.standard_normal((2, 4, 2, 3)))

    def test_zero_pre_activation_gets_zero_gradient(self):
        tape = Tape()
        rng = np.random.default_rng(37)
        lv = {"W1": tape.leaf("W1", np.zeros((2, 2, 3))),
              "W2": tape.leaf("W2", rng.standard_normal((3, 2, 2))),
              "h": tape.leaf("h", rng.standard_normal((4, 2, 3))),
              "g": tape.leaf("g", np.ones((2, 3))), "b": tape.leaf("b", np.zeros((2, 3)))}
        out = complex_mlp(lv["h"], lv["W1"], lv["W2"], (lv["g"], lv["b"]), axis=-1)
        assert out.data.tobytes() == lv["h"].data.tobytes()  # a zero hidden adds nothing
        grads = tape.backward(out.sum())
        for name in ("W1", "W2", "g", "b"):
            np.testing.assert_array_equal(grads[name], np.zeros_like(lv[name].data))
        np.testing.assert_array_equal(grads["h"], np.ones((4, 2, 3)))  # the skip's alone

    def test_overflow_to_negative_infinity_raises_before_the_crelu(self):
        """Normalized rows of -1 against a weight of 1e308 overflow to -Inf,
        which the CReLU would map to 0; the product is checked first, so the
        composition names ``complex_affine`` and the fused op itself."""
        W1 = np.zeros((1, 2, 2))
        W1[:, 0] = 1e308
        h, W2 = np.ones((3, 2, 2)), np.ones((2, 2, 1))
        norm = (np.zeros((2, 2)), np.full((2, 2), -1.0))
        with pytest.raises(NumericError, match="op 'complex_affine'"), \
                np.errstate(over="ignore", invalid="ignore"):
            composed_mlp(Tensor(h), W1, W2, *norm, axis=-1)
        with pytest.raises(NumericError, match="op 'complex_mlp'"), \
                np.errstate(over="ignore", invalid="ignore"):
            complex_mlp(h, W1, W2, norm, axis=-1)

    def test_no_pre_activation_is_stored(self):
        """The closure keeps nothing of the hidden layer, before or after the CReLU."""
        rng = np.random.default_rng(32)
        leaves = mlp_leaves(rng, 2, 4, 3, 5, -1)
        out = complex_mlp(leaves["h"], leaves["W1"], leaves["W2"], (leaves["g"], leaves["b"]),
                          axis=-1)
        kept = closure_arrays(out)
        assert kept and all(a.size < 2 * 4 * 2 * 5 for a in kept), [a.shape for a in kept]


class TestFusedResidual:
    """The skip inside ``complex_mlp``: its output is ``np.add(h, branch)``, and
    ``h``'s gradient has the bits of the incoming one plus the layer norm's."""

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("axis", [-2, -1], ids=["token", "channel"])
    def test_bitwise_values_and_gradients(self, axis, strided):
        """Values, their layout, and the gradients of ``h``, ``W1``, ``W2``,
        ``gamma`` and ``beta``."""
        rng = np.random.default_rng(33)
        leaves = mlp_leaves(rng, 2, 4, 3, 5, axis, strided)
        assert_mlp_matches_composition(leaves, axis, rng.standard_normal((2, 4, 2, 3)), strided)

    def test_no_product_is_stored(self):
        """Nothing of the output's size is kept, so the second affine's product is freed."""
        rng = np.random.default_rng(34)
        leaves = mlp_leaves(rng, 2, 4, 3, 5, -2)
        out = complex_mlp(leaves["h"], leaves["W1"], leaves["W2"], (leaves["g"], leaves["b"]),
                          axis=-2)
        assert all(a.size < out.size and not np.shares_memory(a, out.data)
                   for a in closure_arrays(out))

    def test_residual_of_the_wrong_shape_raises_naming_op(self):
        """The skip needs a second weight that maps the hidden back to ``h``'s axis."""
        h, W1, norm = np.ones((3, 2, 2)), np.ones((4, 2, 2)), (np.ones((2, 2)), np.zeros((2, 2)))
        for W2 in (np.ones((3, 2, 4)), np.ones((2, 2, 3)), np.ones((2, 4))):
            with pytest.raises(DimensionError, match="complex_mlp: second weight"):
                complex_mlp(h, W1, W2, norm, axis=-1)

    def test_overflowing_sum_raises_naming_op(self):
        """A one-wide row normalizes to ``beta``, so the hidden is 1 and the
        product 1e308: finite, but the skip's sum is not."""
        h = Tensor(pack(np.array([[1e308]]), np.array([[0.0]])))
        W1, W2 = pack(np.ones((1, 1)), np.zeros((1, 1))), pack(np.full((1, 1), 1e308), np.zeros((1, 1)))
        norm = (np.ones((2, 1)), pack(np.ones(1), np.zeros(1)))
        branch = complex_affine(W2, engine.relu(complex_affine(W1, layernorm(h, *norm), axis=-1)),
                                axis=-1)
        assert np.isfinite(branch.data).all()
        with pytest.raises(NumericError, match="op 'complex_mlp'"), np.errstate(over="ignore"):
            complex_mlp(h, W1, W2, norm, axis=-1)


class TestFusedNorm:
    """The layer norm inside ``complex_mlp``: computed in ``h``'s layout, never stored."""

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3), seq=st.integers(1, 5),
           width=st.integers(1, 5), m=st.integers(1, 4), axis=st.sampled_from([-2, -1]),
           strided=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_values_and_gradients(self, seed, batch, seq, width, m, axis, strided):
        rng = np.random.default_rng(seed)
        leaves = mlp_leaves(rng, batch, seq, width, m, axis, strided)
        assert_mlp_matches_composition(leaves, axis, rng.standard_normal((batch, seq, 2, width)),
                                       strided)

    def test_keeps_only_two_scalars_per_row(self):
        """Besides views of the gain and shift, the closure keeps the per-row
        mean and inverse deviation; no normalized row is stored."""
        rng = np.random.default_rng(35)
        g, b = np.ones((2, 3)), np.zeros((2, 3))
        out = complex_mlp(rng.standard_normal((2, 4, 2, 3)), rng.standard_normal((5, 2, 4)),
                          rng.standard_normal((4, 2, 5)), (g, b), axis=-2)
        rows = [a for a in closure_arrays(out)
                if not (np.shares_memory(a, out._parents[3].data)
                        or np.shares_memory(a, out._parents[4].data))]
        assert [a.shape for a in rows] == [(2, 4, 2, 1), (2, 4, 2, 1)]

    def test_nonfinite_normalized_rows_raise_naming_the_affine(self):
        """The rows overflow inside the op, and its product check names it."""
        h = Tensor(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        with pytest.raises(NumericError, match="op 'complex_mlp'"), \
                np.errstate(over="ignore", invalid="ignore"):
            complex_mlp(h, np.ones((2, 2, 2)), np.ones((2, 2, 2)),
                        (np.full((2, 2), 1e308), np.full((2, 2), 1e308)), axis=-1)

    def test_gain_of_the_wrong_shape_raises_naming_op(self):
        h = Tensor(np.ones((4, 2, 3)))
        with pytest.raises(DimensionError, match="complex_mlp: gamma has shape"):
            complex_mlp(h, np.ones((2, 2, 3)), np.ones((3, 2, 2)), (np.ones(2), np.zeros(2)),
                        axis=-1)


class TestComplexMlp:
    """``complex_mlp`` as one op. Its CReLU, skip and layer norm, each checked
    bitwise against ``composed_mlp``, are covered by ``TestFusedCrelu``,
    ``TestFusedResidual`` and ``TestFusedNorm`` above."""

    @pytest.mark.parametrize("axis", [-2, -1], ids=["token", "channel"])
    def test_checks_its_values_once(self, axis):
        """The product in front of the CReLU and the output are each checked
        once, and the output tensor is not checked again."""
        rng = np.random.default_rng(36)
        leaves = {k: Tensor(v) for k, v in mlp_leaves(rng, 2, 4, 3, 5, axis).items()}
        with finite_checks() as seen:
            complex_mlp(leaves["h"], leaves["W1"], leaves["W2"], (leaves["g"], leaves["b"]),
                        axis=axis)
        assert seen == ["complex_mlp", "complex_mlp"]

    def test_leading_axis_matches_composition(self):
        """Axis 0 of a 3-D input, whose rows come from a permutation that is not its own inverse."""
        rng = np.random.default_rng(39)
        leaves = {"h": rng.standard_normal((4, 3, 2, 5)), "W1": rng.standard_normal((6, 2, 4)),
                  "W2": rng.standard_normal((4, 2, 6)), "g": rng.standard_normal((2, 5)),
                  "b": rng.standard_normal((2, 5))}
        assert_mlp_matches_composition(leaves, 0, rng.standard_normal((4, 3, 2, 5)))

    def test_hidden_gradient_overflow_raises_in_the_backward(self):
        """The hidden's gradient never becomes a node's gradient, so the op checks it itself."""
        tape = Tape()
        h = tape.leaf("h", np.random.default_rng(38).standard_normal((3, 2, 2)))
        W2 = np.full((2, 2, 2), 1e308)
        W2[:, 1] = 0.0
        out = complex_mlp(h, np.zeros((2, 2, 2)), W2, (np.ones((2, 2)), np.zeros((2, 2))), axis=-1)
        with pytest.raises(NumericError, match="op 'backward:complex_mlp'"), \
                np.errstate(over="ignore", invalid="ignore"):
            tape.backward(engine.mul(out, np.full(out.shape, 1e10)).sum())


class TestLayerNorm:
    def test_constant_slice_collapses_to_zero(self):
        out = layernorm(Tensor([5.0, 5.0, 5.0]), np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-12)

    def test_already_normalized(self):
        # unit variance already: only the 1e-5 variance floor scales it
        out = layernorm(Tensor([1.0, -1.0]), np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out.data, np.array([1.0, -1.0]) / np.sqrt(1.0 + 1e-5),
                                   rtol=0, atol=1e-15)

    def test_scale_and_shift(self):
        # independent oracle: plain numpy evaluation of (x-mu)/sqrt(var+eps)*g+b
        x = np.array([0.0, 2.0])
        expected = (x - x.mean()) / np.sqrt(x.var() + 1e-5) * 2.0 + 1.0
        np.testing.assert_allclose(expected, [-1.0, 3.0], atol=1e-3)
        out = layernorm(Tensor(x), np.full(2, 2.0), np.full(2, 1.0))
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

    def test_nonfinite_output_raises_naming_op(self):
        with pytest.raises(NumericError, match="layernorm"), np.errstate(over="ignore"):
            layernorm(Tensor([0.0, 1.0]), np.full(2, 1e308), np.full(2, 1e308))

    def test_zero_length_axis_raises(self):
        with pytest.raises(DimensionError):
            layernorm(Tensor(np.zeros((2, 0))), np.zeros(0), np.zeros(0))

    def test_gamma_shape_raises(self):
        with pytest.raises(DimensionError):
            layernorm(Tensor([1.0, 2.0]), np.ones(3), np.zeros(2))


class TestScalarOps:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_mean(self):
        assert engine.tmean(Tensor([1.0, 2.0, 3.0])).data == pytest.approx(2.0)

    @pytest.mark.parametrize("axis", [2, 5, -3, -7])
    def test_mean_axis_out_of_range_raises(self, axis):
        with pytest.raises(DimensionError, match=f"mean: axis {axis} is out of range for rank 2"):
            engine.tmean(Tensor(np.ones((2, 3))), axis=axis)

    @pytest.mark.parametrize("axis", [2, 5, -3, -7])
    def test_sum_axis_out_of_range_raises(self, axis):
        with pytest.raises(DimensionError, match=f"sum: axis {axis} is out of range for rank 2"):
            engine.tsum(Tensor(np.ones((2, 3))), axis=axis)

    def test_overflow_is_numeric_error(self):
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            engine.mul(Tensor([1e308]), 10.0)

    @pytest.mark.parametrize("name, op", [
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
        out = softmax(values)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_softmax_axis(self):
        x = np.arange(6.0).reshape(2, 3)
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)

    def test_broadcast_mismatch_raises(self):
        for op in ("sub", "mul"):
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


class TestFiniteChecks:
    """Every op checks its output once for NaN/Inf, and the error names it."""

    def test_nan_constant_is_reported_as_const(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(2))
        with pytest.raises(NumericError, match="op 'const'"):
            engine.sub(x, np.array([np.nan, 0.0]))

    def test_overflow_names_the_arithmetic_op_not_the_one_after_it(self):
        x = Tensor(np.full((2, 3), 1e308))
        with pytest.raises(NumericError, match="op 'sub'"), np.errstate(over="ignore"):
            engine.relu(engine.transpose(engine.sub(x, -x.data), (1, 0)))
        with pytest.raises(NumericError, match="op 'mul'"), np.errstate(over="ignore"):
            engine.relu(engine.mul(x, 10.0))

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_relu(self, data):
        """relu checks its own output once, like every other op."""
        x = Tensor(data)
        with finite_checks() as seen:
            out = engine.relu(x)
        assert seen == ["relu"] and np.array_equal(out.data, np.maximum(data, 0.0))

    @given(finite_arrays)
    @settings(max_examples=40)
    def test_transpose(self, data):
        """transpose checks its own output once, like every other op."""
        x, axes = Tensor(data), tuple(reversed(range(data.ndim)))
        with finite_checks() as seen:
            out = engine.transpose(x, axes)
        assert seen == ["transpose"] and np.array_equal(out.data, data.transpose(axes))

    def test_each_checked_op_checks_once(self):
        with finite_checks() as seen:
            engine.tmean(engine.relu(engine.transpose(engine.mul(np.ones((2, 3)), 2.0), (1, 0))))
        assert seen == ["const", "const", "mul", "transpose", "relu", "mean"]

    @pytest.mark.parametrize("form", ["plain", "bias"])
    def test_complex_affine_checks_once(self, form):
        """complex_affine checks its product, the bias added, once; the output
        tensor it returns is not checked again."""
        rng = np.random.default_rng(36)
        W, h = Tensor(rng.standard_normal((5, 2, 3))), Tensor(rng.standard_normal((2, 4, 2, 3)))
        bias = Tensor(rng.standard_normal((2, 5))) if form == "bias" else None
        with finite_checks() as seen:
            complex_affine(W, h, bias=bias, axis=-1)
        assert seen == ["complex_affine"]


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

    def test_private_gradient_is_taken_over(self):
        """A first gradient that the caller allocated and drops (``own``) and
        that has data's C layout becomes ``grad`` itself, with -0.0 made +0.0."""
        x = Tape().leaf("x", np.ones((2, 3)))
        g = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, 3.0]])
        x._accumulate(g, own=True)
        assert x.grad is g and not np.signbit(x.grad[g == 0.0]).any()
        x._accumulate(np.ones((2, 3)), own=True)  # later arrivals add in place
        np.testing.assert_array_equal(g, [[1.0, 2.0, -1.0], [1.0, 1.0, 4.0]])

    def test_private_gradient_of_another_layout_is_copied(self):
        x = Tape().leaf("x", np.ones((3, 2)))
        g = np.arange(6.0).reshape(2, 3).T  # the values of a (3, 2), Fortran-ordered
        x._accumulate(g, own=True)
        assert x.grad is not g and x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, g)

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
        y = engine.relu(engine.mul(x, x))
        loss = y.sum()
        order = topo_order(loss)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_reused_subexpression_accumulates(self):
        tape = Tape()
        x = tape.leaf("x", np.array([3.0]))
        loss = engine.sub(engine.mul(x, 3.0), x).sum()
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
        w = tape.leaf("w", rng.standard_normal((3, 4)))
        hidden = engine.relu(engine.mul(x, w))
        loss = engine.mul(hidden, hidden).sum()
        nodes = topo_order(loss)
        values = {id(n): n.data.copy() for n in nodes}
        grads = tape.backward(loss)
        interior = [n for n in nodes if n is not loss and n._op != "const"
                    and not n._op.startswith("leaf:")]
        assert len(interior) == 3  # mul, relu, mul
        for node in interior:
            assert node._parents == () and node.grad is None, node
            assert node._backprop is engine._walked, node
        for node in nodes:  # values stay readable
            assert node.data.tobytes() == values[id(node)].tobytes()
        assert loss.grad is not None and loss._parents == ()
        assert x.grad is grads["x"] and w.grad is grads["w"]

    def test_node_value_is_freed_before_its_closure_runs(self):
        """No closure reads its own node's value, so once the walk reaches a
        node that nothing else holds, its value is gone before its closure runs."""
        tape = Tape()
        x = tape.leaf("x", np.ones((3, 4)))
        y = engine.relu(x)
        value = weakref.ref(y.data)
        closure, seen = y._backprop, []

        def spy(g):
            seen.append(value() is None)
            closure(g)

        y._backprop = spy
        loss = engine.mul(y, 2.0).sum()
        del y
        grads = tape.backward(loss)
        assert seen == [True]
        np.testing.assert_array_equal(grads["x"], np.full((3, 4), 2.0))

    def test_constants_drop_their_gradient(self):
        tape = Tape()
        x = tape.leaf("x", np.ones(3))
        c = Tensor(np.full(3, 2.0))
        tape.backward(engine.mul(x, c).sum())
        assert c.grad is None

    def test_model_constants_take_no_gradient(self):
        """The packed input with the noise off is a constant (with it on, the
        image and ``eps`` are arrays inside the ``sample_incentive`` node, and
        the loss targets are arrays inside the loss node): even a walk that
        releases nothing leaves it no gradient."""
        config = fit_tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        x = rng.random((4, config.in_channels, config.image_side, config.image_side))
        for il, count in ((True, 0), (False, 1)):
            model.toggles = Toggles(il=il)
            tape = Tape()
            loss = cross_entropy(model.forward(x, eps=rng.standard_normal(x.shape), tape=tape),
                                 np.arange(4) % config.num_classes)
            nodes = topo_order(loss)
            reference_backward(tape, loss)
            constants = [n for n in nodes if n._parents == () and n._op == "const"]
            assert len(constants) == count
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
        shared = engine.relu(x)
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
        taped = engine.layernorm(engine.relu(complex_affine(ct(x[:2, :3], x[1:, 1:]), h)),
                                 np.ones(4), np.zeros(4))
        with engine.no_grad():
            bare = engine.layernorm(engine.relu(complex_affine(ct(x[:2, :3], x[1:, 1:]), h)),
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


def stacked(re, im):
    """The packed (m, 2, n) tensor of two (m, n) tensors, built from graph ops
    so that the gradient reaches both."""
    pair = np.eye(2).reshape(2, 2, 1, 1)
    packed = engine.sub(engine.mul(re, pair[0]), engine.mul(im, -pair[1]))
    return engine.transpose(packed, (1, 0, 2))


class TestGradCheck:
    def test_tanh_closed_form(self):
        """The head's tanh, on the real part alone: the imaginary part gets zeros."""
        rng = np.random.default_rng(3)
        z = rng.standard_normal((3, 2, 4))

        def head(lv):
            return pearson_project(lv["z"], use_imag=False).sum()

        err = grad_check(head, {"z": z})
        assert err < 1e-7
        # closed form 1 - tanh^2 agrees with the engine
        tape = Tape()
        grads = tape.backward(head({"z": tape.leaf("z", z)}))
        np.testing.assert_allclose(grads["z"][:, 0], 1.0 - np.tanh(z[:, 0]) ** 2, atol=1e-12)
        assert not grads["z"][:, 1].any()

    def test_crelu_affine_away_from_kink(self):
        rng = np.random.default_rng(4)
        W = pack(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        h = pack(rng.standard_normal((3, 2)) + 0.5, rng.standard_normal((3, 2)) + 0.5)

        def f(lv):
            return engine.relu(complex_affine(lv["W"], lv["h"])).sum()

        err = grad_check(f, {"W": W, "h": h})
        assert err < 1e-6

    def test_relu_kink_is_skipped_not_failed(self):
        x = np.array([0.0, 1.0, -1.0])
        report = grad_check_report(lambda lv: engine.relu(lv["x"]).sum(), {"x": x})
        assert report.skipped == 1
        assert report.max_rel_error < 1e-7

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("mul", lambda lv: engine.mul(lv["a"], lv["b"]).sum()),
            ("sub", lambda lv: engine.sub(lv["a"], lv["b"]).sum()),
            ("sub_broadcast", lambda lv: engine.mul(engine.sub(lv["a"], lv["g"]), lv["b"]).sum()),
            (
                "pearson_project",
                lambda lv: engine.mul(pearson_project(stacked(lv["a"], lv["b"])), lv["b"]).sum(),
            ),
            ("bce_with_logits", lambda lv: bce_with_logits(engine.mul(lv["a"], lv["b"]), np.eye(4))),
            ("mean", lambda lv: engine.tmean(engine.mul(lv["a"], lv["a"]), axis=1).sum()),
            ("cross_entropy", lambda lv: cross_entropy(engine.mul(lv["a"], lv["b"]), [3, 0, 2, 1])),
            ("ssl_loss", lambda lv: ssl_loss(engine.mul(lv["a"], lv["b"]),
                                             np.linspace(-2.0, 2.0, 16).reshape(4, 4), 0.5)),
            (
                "layernorm",
                lambda lv: engine.mul(layernorm(lv["a"], lv["g"], lv["be"]), lv["b"]).sum(),
            ),
            (
                "transpose",
                lambda lv: engine.mul(engine.transpose(lv["a"], (1, 0)),
                                      engine.transpose(lv["b"], (1, 0))).sum(),
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
            lambda lv: engine.mul(engine.mul(lv["a"], lv["b"]), lv["b"]).sum(),
            leaves,
            sample=5,
            rng=np.random.default_rng(0),
        )
        assert report.checked == 10
        assert report.max_rel_error < 1e-6

    def test_suite_builds_every_op_of_a_training_step(self):
        """Every op that a tiny training step builds (BCE, cross-entropy and SSL,
        with the noise on and off) is built by an entry of the gradcheck suite
        other than the whole-model ones, so each fused op is checked on its own."""
        covered = set()
        for name, (build, _) in ENTRIES.items():
            if not name.startswith("model_"):
                f, leaves = build(np.random.default_rng(list(name.encode())))
                covered |= {n._op for n in topo_order(f({k: Tensor(v) for k, v in leaves.items()}))}
        config = fit_tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((4, config.in_channels, config.image_side, config.image_side))
        eps = rng.standard_normal(x.shape)
        labels = np.arange(4) % config.num_classes
        losses = {"classify": [lambda out: bce_with_logits(out, np.eye(config.num_classes)[labels]),
                               lambda out: cross_entropy(out, labels)],
                  "ssl": [lambda out: ssl_loss(out, rng.standard_normal(out.shape))]}
        built = set()
        for il in (True, False):
            model.toggles = Toggles(il=il)
            for head, fns in losses.items():
                for loss in fns:
                    built |= {n._op for n in topo_order(loss(model.forward(x, eps=eps, head=head)))}
        built = {op for op in built if op != "const" and not op.startswith("leaf:")}
        assert {"bce_with_logits", "soft_cross_entropy", "complex_mlp"} <= built
        assert built <= covered, built - covered

    def test_corrupted_fused_backward_fails_naming_op(self, corrupt_entry):
        corrupt_entry("complex_affine_strided")
        result = run_suite()
        assert [r.name for r in result.results if not r.passed] == ["complex_affine_strided"]

    @staticmethod
    def _suite_inputs(monkeypatch, entries):
        """Each entry's leaves and its scalar at them, as bytes, as ``run_suite``
        builds them from ``entries``; the checks themselves are not run."""
        built = []

        def record(f, leaves, sample, rng):
            with engine.no_grad():
                value = f({k: Tensor(v) for k, v in leaves.items()}).data
            built.append(({k: v.tobytes() for k, v in leaves.items()}, value.tobytes()))
            return engine.GradCheckReport(0.0, 0, 0)

        monkeypatch.setattr(gradcheck, "ENTRIES", entries)
        monkeypatch.setattr(gradcheck, "grad_check_report", record)
        run_suite()
        return dict(zip(entries, built))

    def test_dropping_an_entry_moves_no_other_entrys_inputs(self, monkeypatch):
        # the scalar covers the weights and targets an entry's function holds
        full = self._suite_inputs(monkeypatch, dict(ENTRIES))
        assert len(full) == 21
        for dropped in ENTRIES:
            rest = {k: v for k, v in ENTRIES.items() if k != dropped}
            assert self._suite_inputs(monkeypatch, rest) == {
                k: v for k, v in full.items() if k != dropped}, dropped
