"""Dense tensors with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` is one node of a computation graph:
it holds the forward value, references to its parents, and a closure
that pushes an incoming gradient into them. A complex value of logical
shape ``(..., n)``, activation or parameter, is one real tensor ``z`` of
shape ``(..., 2, n)`` (``ComplexTensor``): index 0 on the pair axis is the
real part, index 1 the imaginary part, so a weight ``A + iB`` (m, n) is one
``(m, 2, n)`` buffer. Differentiation is plain real-valued reverse mode
over that buffer; no Wirtinger calculus is involved because every
operation in the network is already written in separated real/imaginary
form.

A ``Tape`` is the registry of trainable leaves for one training step.
``Tape.backward(loss)`` walks the graph once, in reverse topological
order, and returns one gradient array per registered leaf. The walk
consumes the graph: each node drops its closure, its parents and its
interior gradient as soon as its closure has run, so memory falls as the
walk proceeds instead of holding the whole graph until it returns. A
graph can be walked once, and a tape used once; a second walk raises
``ContractError``.

Inside ``with no_grad():`` every op computes and validates its output
exactly as outside it, but the returned ``Tensor`` keeps no parents and
no backprop closure, so each intermediate is freed as soon as the caller
drops it. The switch lives in ``Tensor.__init__`` alone: there is no
second version of any op, and the values are bitwise the same. A leaf
cannot be registered on a ``Tape`` there, since it would silently get a
zero gradient. Outside ``no_grad`` every op builds the graph, with or
without a tape.

Conventions baked into this module:

* every op validates its output once for NaN/Inf and raises ``NumericError`` naming
  itself, except those built by ``_exempt``, which cannot make NaN/Inf from finite inputs:
  ``relu``/``crelu``, ``reshape``, ``transpose``, ``.re``/``.im``, ``ComplexTensor(re, im)``
  and ``model._open_unit``
* a complex op is one node over ``z``: ``complex_affine``, ``crelu``, ``layernorm``
  over the last axis, the residual add and the mean each build exactly one node;
  ``ComplexTensor.packed`` (every complex parameter) adds none, and only packing two
  real tensors (``ComplexTensor(re, im)``) and reading a part (``.re``/``.im``) add one
* ``complex_affine``, ``layernorm``, ``crelu`` and the loss ops ``softmax``,
  ``log_softmax`` and ``sub`` are fused ops with hand-written backward passes,
  one node each; ``complex_affine`` is one block-form GEMM, which beat Gauss's
  3-multiply form on the model's shapes (its extra elementwise passes cost more).
  With ``crelu=True`` it also applies the CReLU in place on its output and takes
  the ReLU mask off that output, so a CReLU after an affine stores no
  pre-activation and adds no node
* the derivative of ReLU at exactly 0 is taken to be 0
* ``grad_check`` excludes entries whose central difference straddles a
  kink (detected by disagreeing one-sided differences) instead of
  failing on them
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor",
    "ComplexTensor",
    "Tape",
    "no_grad",
    "constant",
    "add",
    "sub",
    "mul",
    "matmul",
    "tanh",
    "relu",
    "softplus",
    "softmax",
    "log_softmax",
    "layernorm",
    "crelu",
    "complex_affine",
    "topo_order",
    "grad_check",
    "grad_check_report",
    "GradCheckReport",
]


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside return parentless tensors; nestable, restored on exit."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A node in the computation graph holding a float64 array.

    ``grad`` is populated by ``Tape.backward`` and is always an array of
    the same shape as ``data``; once the walk is done, only the registered
    leaves and the loss keep theirs. A tensor with no parents is a leaf if
    ``Tape.leaf`` made it (its op reads ``leaf:<name>``) and a constant
    otherwise; a constant takes no gradient.
    """

    __slots__ = ("data", "grad", "_parents", "_backprop", "_op")

    def __init__(self, data, _parents: tuple = (),
                 _backprop: Callable[[np.ndarray], None] | None = None, _op: str = "const"):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, _op)
        self._link(arr, _parents, _backprop, _op)

    def _link(self, arr: np.ndarray, parents: tuple, backprop, op: str) -> "Tensor":
        if not _grad_enabled:
            parents, backprop = (), None
        self.data, self.grad, self._op = arr, None, op
        self._parents, self._backprop = parents, backprop
        return self

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is not None:
            self.grad += g
        elif self._parents or self._op.startswith("leaf:"):  # constants take no gradient
            # first arrival in one pass: -0.0 becomes +0.0 and the layout is data's
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def transpose(self, axes) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _exempt(data: np.ndarray, parents: tuple, backprop, op: str) -> Tensor:
    """A node without the finite check; only for the exempt ops of the module docstring."""
    return Tensor.__new__(Tensor)._link(np.asarray(data, dtype=np.float64), parents, backprop, op)


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


def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = _broadcast(np.add, a, b, "add")

    def backprop(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(out_data, (a, b), backprop, "add")


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


def matmul(a, b) -> Tensor:
    """Product of two matrices."""
    a, b = constant(a), constant(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: cannot multiply {a.shape} @ {b.shape}")

    def backprop(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), backprop, "matmul")


def tanh(a) -> Tensor:
    a = constant(a)
    out_data = np.tanh(a.data)

    def backprop(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor(out_data, (a,), backprop, "tanh")


def relu(a) -> Tensor:
    a = constant(a)
    out_data = np.maximum(a.data, 0.0)

    def backprop(g):
        # derivative at the kink (input exactly 0) is defined as 0
        a._accumulate(g * (a.data > 0.0))

    return _exempt(out_data, (a,), backprop, "relu")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated without overflow for large |x|."""
    a = constant(a)
    out_data = np.logaddexp(0.0, a.data)

    def backprop(g):
        a._accumulate(g * _sigmoid(a.data))

    return Tensor(out_data, (a,), backprop, "softplus")


def reshape(a, shape) -> Tensor:
    a = constant(a)
    shape = tuple(int(s) for s in shape)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}") from None

    def backprop(g):
        a._accumulate(g.reshape(a.shape))

    return _exempt(out_data, (a,), backprop, "reshape")


def transpose(a, axes) -> Tensor:
    a = constant(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backprop(g):
        a._accumulate(g.transpose(inverse))

    return _exempt(out_data, (a,), backprop, "transpose")


def _norm_axis(axis, ndim: int):
    if axis is None:
        return None
    if isinstance(axis, (tuple, list)):
        return tuple(ax % ndim for ax in axis)
    return (axis % ndim,)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    axes = _norm_axis(axis, a.ndim)
    out_data = np.sum(a.data, axis=axes, keepdims=keepdims)

    def backprop(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor(out_data, (a,), backprop, "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    axes = _norm_axis(axis, a.ndim)
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    if count == 0:
        raise DimensionError("mean over an empty axis")
    scale = 1.0 / count
    out_data = np.sum(a.data, axis=axes, keepdims=keepdims) * scale

    def backprop(g):
        g = g * scale
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor(out_data, (a,), backprop, "mean")


def _shifted_exp(x: np.ndarray, axis: int):
    """``x`` less its max along ``axis``, its exponentials ``e`` and their sum ``s``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.sum(e, axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, ``e / s``. One node; the backward is
    ``y * (g - sum(g * y))``."""
    a = constant(a)
    _, e, s = _shifted_exp(a.data, axis)
    out_data = e / s

    def backprop(g):
        a._accumulate(out_data * (g - np.sum(g * out_data, axis=axis, keepdims=True)))

    return Tensor(out_data, (a,), backprop, "softmax")


def log_softmax(a, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``, ``shifted - log(s)``. One node; the
    backward is ``g - (sum(g) / s) * e``, rounded as ``g + (-sum(g) / s) * e``."""
    a = constant(a)
    shifted, e, s = _shifted_exp(a.data, axis)
    out_data = shifted - np.log(s)

    def backprop(g):
        a._accumulate(g + (-np.sum(g, axis=axis, keepdims=True) / s) * e)

    return Tensor(out_data, (a,), backprop, "log_softmax")


def layernorm(x, gamma, beta, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then scale and shift.

    ``gamma`` and ``beta`` share one shape: that of the ``gamma.ndim`` axes
    of ``x`` ending at ``axis``, so a vector matches the normalized axis
    and a ``(2, n)`` pair gives each part of a packed complex tensor its
    own gain and shift. The ``eps`` guard keeps a zero-variance slice
    finite (it collapses to ``beta``). One node: the backward is the
    closed form ``inv * (g' - mean(g') - xhat * mean(g' * xhat))`` with
    ``g' = g * gamma``.
    """
    x, gamma, beta = constant(x), constant(gamma), constant(beta)
    if eps <= 0:
        raise ContractError("layernorm: eps must be positive")
    ax = axis % x.ndim
    n = x.shape[ax]
    if n == 0:
        raise DimensionError("layernorm: zero-length axis")
    k = max(gamma.ndim, 1)
    covered = x.shape[max(ax + 1 - k, 0):ax + 1]
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != covered:
            raise DimensionError(
                f"layernorm: {name} has shape {t.shape}, expected {covered}"
            )
    others = tuple(i for i in range(x.ndim) if not ax - k < i <= ax)
    scale = np.expand_dims(gamma.data, others)
    mu = np.sum(x.data, axis=ax, keepdims=True) * (1.0 / n)
    out_data = x.data - mu
    inv = (np.sum(out_data * out_data, axis=ax, keepdims=True) * (1.0 / n) + eps) ** -0.5
    out_data *= inv
    out_data *= scale
    out_data += np.expand_dims(beta.data, others)

    def backprop(g):
        xhat = (x.data - mu) * inv
        gx = g * scale
        x._accumulate(inv * (gx - gx.mean(axis=ax, keepdims=True)
                             - xhat * (gx * xhat).mean(axis=ax, keepdims=True)))
        gamma._accumulate(np.sum(g * xhat, axis=others))
        beta._accumulate(np.sum(g, axis=others))

    return Tensor(out_data, (x, gamma, beta), backprop, "layernorm")


class ComplexTensor:
    """A complex array of logical shape ``(..., n)``, held as one real tensor.

    ``z`` has shape ``(..., 2, n)``: ``z[..., 0, :]`` is the real part and
    ``z[..., 1, :]`` the imaginary part. ``ComplexTensor(re, im)`` packs
    two real tensors of identical shape into a new ``z`` node;
    ``ComplexTensor.packed(z)`` wraps an existing one. ``.re`` and ``.im``
    are slice nodes, so a gradient through one part reaches only that
    part of ``z``.
    """

    __slots__ = ("z",)

    def __init__(self, re, im):
        re, im = constant(re), constant(im)
        if re.shape != im.shape:
            raise DimensionError(f"complex tensor: re {re.shape} != im {im.shape}")
        if re.ndim == 0:
            raise DimensionError("complex tensor: parts must have at least one axis")

        def backprop(g):
            re._accumulate(g[..., 0, :])
            im._accumulate(g[..., 1, :])

        self.z = _exempt(np.stack((re.data, im.data), axis=-2), (re, im), backprop, "complex")

    @classmethod
    def packed(cls, z: Tensor) -> "ComplexTensor":
        """Wrap a ``(..., 2, n)`` tensor without copying it."""
        if z.ndim < 2 or z.shape[-2] != 2:
            raise DimensionError(f"packed complex tensor needs shape (..., 2, n), got {z.shape}")
        out = cls.__new__(cls)
        out.z = z
        return out

    @property
    def shape(self) -> tuple:
        return self.z.shape[:-2] + self.z.shape[-1:]

    @property
    def re(self) -> Tensor:
        return self._part(0)

    @property
    def im(self) -> Tensor:
        return self._part(1)

    def _part(self, i: int) -> Tensor:
        z = self.z

        def backprop(g):
            if z.grad is None:
                z.grad = np.zeros_like(z.data)
            z.grad[..., i, :] += g

        return _exempt(z.data[..., i, :], (z,), backprop, "re" if i == 0 else "im")

    def mean(self, axis: int) -> "ComplexTensor":
        """Mean over one logical axis."""
        ax = axis % len(self.shape)
        return ComplexTensor.packed(tmean(self.z, ax if ax < self.z.ndim - 2 else -1))

    def __add__(self, other: "ComplexTensor") -> "ComplexTensor":
        return ComplexTensor.packed(add(self.z, other.z))


def crelu(h: ComplexTensor) -> ComplexTensor:
    """ReLU applied independently to the real and imaginary parts: one ``relu`` over ``z``."""
    return ComplexTensor.packed(relu(h.z))


def _real_form(w: np.ndarray) -> np.ndarray:
    """``[[A, -B], [B, A]]`` of the packed (m, 2, n) ``A + iB``; rebuilt, not kept in the graph."""
    m, _, n = w.shape
    out = np.empty((2 * m, 2 * n))
    out[:m, :n] = out[m:, n:] = w[:, 0, :]
    np.negative(w[:, 1, :], out=out[:m, n:])
    out[m:, :n] = w[:, 1, :]
    return out


def complex_affine(
    W: ComplexTensor, h: ComplexTensor, bias: ComplexTensor | None = None, axis: int = -2,
    crelu: bool = False,
) -> ComplexTensor:
    """Apply the complex weight ``W = A + iB`` (m, n) along logical ``axis`` of ``h``.

    Each length-n slice ``a + ib`` becomes ``(Aa - Bb) + i(Ba + Ab)`` plus the
    optional (m,) bias; ``axis=-2`` is ``W @ h``. ``W.z`` (m, 2, n) gets one gradient.
    The op is one real GEMM of rows ``[a | b]`` against the block form ``[[A, -B], [B, A]]``.
    On the last axis those rows are ``h.z`` reshaped to ``(-1, 2n)``, and the
    output is the product reshaped back, with no copy either way. On any
    other axis the rows are one transposed copy of ``h.z`` (none if ``h.z``
    already is such a view), and the output is a transposed view of the
    product in the packed shape. One node; its backward mirrors
    the forward and recomputes the rows and the block form instead of
    keeping them in the graph.

    With ``crelu`` the op also applies ``crelu``, in place on the product,
    with bitwise the values of ``crelu(complex_affine(...))``. The backward
    reads the ReLU mask off the output (``out > 0`` exactly where the
    pre-activation is), so the pre-activation is never stored.
    """
    w = W.z
    if w.ndim != 3:
        raise DimensionError("complex_affine: weights must be matrices")
    m, n = W.shape
    z = h.z
    rank = z.ndim - 1
    if rank < 2 or h.shape[axis] != n:
        raise DimensionError(f"complex_affine: weight {W.shape} vs axis {axis} of input {h.shape}")
    # rows [a | b]: every other axis of z first, then the pair axis, then the
    # mixed one; on the last axis this is z's own order
    mixed = axis % rank if axis % rank < rank - 1 else rank
    perm = tuple(i for i in range(z.ndim) if i not in (mixed, rank - 1)) + (rank - 1, mixed)
    inverse = tuple(np.argsort(perm))
    t_shape = tuple(z.shape[i] for i in perm[:-1]) + (m,)

    def rows(arr: np.ndarray, width: int) -> np.ndarray:
        return np.ascontiguousarray(arr.transpose(perm)).reshape(-1, width)

    out = rows(z.data, 2 * n) @ _real_form(w.data).T
    parents = (w, z)
    if bias is not None:
        if bias.shape != (m,):
            raise DimensionError(
                f"complex_affine: bias has shape {bias.shape}, expected ({m},)"
            )
        out += bias.z.data.reshape(2 * m)
        parents += (bias.z,)
    if crelu:
        np.maximum(out, 0.0, out=out)
    product = out
    # off the last axis the output stays a transposed view, so the next
    # token-axis op on it (after an elementwise op) reads its rows with no copy
    out = out.reshape(t_shape).transpose(inverse)

    def backprop(g):
        g = rows(g, 2 * m)
        if crelu:
            # the derivative at the kink (pre-activation exactly 0) is 0
            g = np.where(product > 0.0, g, 0.0)
        gw = rows(z.data, 2 * n).T @ g
        gw_t = np.empty((2, n, m))  # the (m, 2, n) weight gradient, transposed
        np.add(gw[:n, :m], gw[n:, m:], out=gw_t[0])
        np.subtract(gw[:n, m:], gw[n:, :m], out=gw_t[1])
        w._accumulate(gw_t.transpose(2, 0, 1))
        gh = g @ _real_form(w.data)
        z._accumulate(gh.reshape(t_shape[:-1] + (n,)).transpose(inverse))
        if bias is not None:
            bias.z._accumulate(g.sum(axis=0).reshape(2, m))

    return ComplexTensor.packed(Tensor(out, parents, backprop, "complex_affine"))


def topo_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root``, every parent before its children."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _walked(g: np.ndarray) -> None:
    """Stands in for the closure of a node that a backward walk has consumed."""
    raise ContractError("backward reached a node of a graph that was already walked")


class Tape:
    """Registry of trainable leaves for one differentiation pass."""

    def __init__(self):
        self._leaves: dict[str, Tensor] = {}
        self._used = False

    def leaf(self, name: str, array) -> Tensor:
        if not _grad_enabled:
            raise ContractError(f"leaf {name!r} registered inside no_grad would get no gradient")
        if name in self._leaves:
            raise ContractError(f"leaf {name!r} registered twice")
        t = Tensor(array, _op=f"leaf:{name}")
        self._leaves[name] = t
        return t

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Reverse accumulation from ``loss`` down to every registered leaf.

        Returns one gradient array per leaf, shape-matching it; leaves
        the loss does not depend on get zeros.

        The walk consumes the graph: once a node's closure has run, the
        node drops its closure, its parents and (unless it is a registered
        leaf or the loss) its gradient, so each activation and interior
        gradient is freed as soon as nothing above it needs it. Node
        values stay readable. A graph can therefore be walked once, and a
        tape used once: a second walk raises ``ContractError``.
        """
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if self._used:
            raise ContractError("this tape has already run backward; build a new graph and tape")
        order = topo_order(loss)
        if any(node._backprop is _walked for node in order):
            raise ContractError("this graph was already consumed by a backward walk")
        self._used = True
        keep = {id(t) for t in self._leaves.values()} | {id(loss)}
        loss.grad = np.ones_like(loss.data)
        while order:
            node = order.pop()  # children before parents
            if node._backprop is not None:
                if node.grad is not None:
                    _ensure_finite(node.grad, f"backward:{node._op}")
                    node._backprop(node.grad)
                node._backprop, node._parents = _walked, ()
            if id(node) not in keep:
                node.grad = None
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._leaves.items()
        }


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference check of the backward pass."""

    max_rel_error: float
    per_leaf: dict[str, float]
    checked: int
    skipped: int


def _eval_value(f, arrays: dict[str, np.ndarray]) -> float:
    # a probe only reads the loss, so it builds no graph
    with no_grad():
        out = f({k: Tensor(v) for k, v in arrays.items()})
    if out.size != 1:
        raise ContractError("grad_check: f must return a scalar")
    return float(out.data.reshape(()))


def grad_check_report(
    f,
    leaves: dict[str, np.ndarray],
    eps: float = 1e-5,
    kink_tol: float = 1e-3,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps a dict of leaf tensors to a scalar tensor and must be
    deterministic (freeze any noise before calling). Entries where the
    two one-sided differences disagree are sitting on a kink; they are
    skipped rather than failed. ``sample`` bounds the number of entries
    probed per leaf (deterministic choice via ``rng``), for checks on
    models too large to enumerate.
    """
    tape = Tape()
    tensors = {k: tape.leaf(k, v) for k, v in leaves.items()}
    out = f(tensors)
    if out.size != 1:
        raise ContractError("grad_check: f must return a scalar")
    analytic = tape.backward(out)
    base = float(out.data.reshape(()))

    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in leaves.items()}
    per_leaf: dict[str, float] = {}
    checked = 0
    skipped = 0
    max_err = 0.0
    for name, arr in work.items():
        flat = arr.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        indices: Iterable[int] = range(flat.size)
        if sample is not None and flat.size > sample:
            gen = rng if rng is not None else np.random.default_rng(0)
            indices = sorted(gen.choice(flat.size, size=sample, replace=False))
        leaf_err = 0.0
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            fp = _eval_value(f, work)
            flat[i] = orig - eps
            fm = _eval_value(f, work)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * eps)
            fwd = (fp - base) / eps
            bwd = (base - fm) / eps
            if abs(fwd - bwd) > kink_tol * max(1.0, abs(fwd), abs(bwd)):
                skipped += 1
                continue
            checked += 1
            err = abs(grad_flat[i] - fd) / max(1.0, abs(fd))
            leaf_err = max(leaf_err, err)
        per_leaf[name] = leaf_err
        max_err = max(max_err, leaf_err)
    return GradCheckReport(max_err, per_leaf, checked, skipped)


def grad_check(
    f,
    leaves: dict[str, np.ndarray],
    eps: float = 1e-5,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    return grad_check_report(f, leaves, eps=eps, sample=sample, rng=rng).max_rel_error
