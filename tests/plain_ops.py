"""Plain graph ops that the model does not build, kept for the tests.

``sub``, ``mul``, ``relu``, ``transpose``, ``tsum`` and the standalone
``layernorm`` are ordinary ``engine.Tensor`` nodes: each checks its output
for NaN/Inf through ``engine._ensure_finite`` and names itself. They serve
as generic graph nodes for the engine's walk and gradient tests, and as the
bitwise reference that ``complex_mlp`` is checked against: ``layernorm``
runs the same two kernels as ``complex_mlp``'s fused layer norm, and
``relu``'s derivative at exactly 0 is 0, as the fused CReLU's is.
"""

from __future__ import annotations

import numpy as np

from cmixer import engine
from cmixer.engine import Tensor, constant
from cmixer.errors import DimensionError


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``ufunc(a.data, b.data)``; a numpy broadcast failure raises ``DimensionError``."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the adjoint of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def sub(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = _broadcast(np.subtract, a, b, "sub")

    def backprop(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(-_unbroadcast(g, b.shape))

    return Tensor(out_data, (a, b), backprop, "sub")


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = _broadcast(np.multiply, a, b, "mul")

    def backprop(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, (a, b), backprop, "mul")


def relu(a) -> Tensor:
    a = constant(a)
    out_data = np.maximum(a.data, 0.0)

    def backprop(g):
        # derivative at the kink (input exactly 0) is defined as 0
        a._accumulate(g * (a.data > 0.0))

    return Tensor(out_data, (a,), backprop, "relu")


def transpose(a, axes) -> Tensor:
    a = constant(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backprop(g):
        a._accumulate(g.transpose(inverse))

    return Tensor(out_data, (a,), backprop, "transpose")


def _norm_axis(axis, ndim: int, op: str):
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise DimensionError(f"{op}: axis {axis} is out of range for rank {ndim}")
    return (axis % ndim,)


def tsum(a, axis=None) -> Tensor:
    a = constant(a)
    axes = _norm_axis(axis, a.ndim, "sum")
    out_data = np.sum(a.data, axis=axes)

    def backprop(g):
        if axes is not None:
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor(out_data, (a,), backprop, "sum")


def layernorm(x, gamma, beta) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then scale and shift.

    ``gamma`` and ``beta`` share one shape: that of the trailing
    ``gamma.ndim`` axes of ``x``, so a vector matches the normalized axis
    and a ``(2, n)`` pair gives each part of a packed complex tensor its
    own gain and shift. ``engine.LAYERNORM_EPS``, added to the variance,
    keeps a zero-variance slice finite (it collapses to ``beta``). One node:
    the backward is the closed form ``inv * (g' - mean(g') - xhat * mean(g' * xhat))``
    with ``g' = g * gamma``. These are ``complex_mlp``'s two layer-norm kernels.
    """
    x = constant(x)
    gamma, beta, others, scale, shift = engine._norm_operands(x, gamma, beta, "layernorm")
    out_data, mu, inv = engine._layernorm_forward(x.data, scale, shift)

    def backprop(g):
        engine._layernorm_backward(g, (x.data - mu) * inv, inv, scale, x, gamma, beta, others)

    return Tensor(out_data, (x, gamma, beta), backprop, "layernorm")
