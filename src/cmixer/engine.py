"""Dense tensors with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` is one node of a computation graph:
it holds the forward value, references to its parents, and a closure
that pushes an incoming gradient into them. Complex values are carried
as pairs of real tensors (``ComplexTensor``), so differentiation is
plain real-valued reverse mode over the (re, im) buffers; no Wirtinger
calculus is involved because every operation in the network is already
written in separated real/imaginary form.

A ``Tape`` is the registry of trainable leaves for one training step.
``Tape.backward(loss)`` walks the graph once, in reverse topological
order, and returns one gradient array per registered leaf.

Inside ``with no_grad():`` every op computes and validates its output
exactly as outside it, but the returned ``Tensor`` keeps no parents and
no backprop closure, so each intermediate is freed as soon as the caller
drops it. The switch lives in ``Tensor.__init__`` alone: there is no
second version of any op, and the values are bitwise the same. A leaf
cannot be registered on a ``Tape`` there, since it would silently get a
zero gradient. Outside ``no_grad`` every op builds the graph, with or
without a tape.

Conventions baked into this module:

* every op validates each output once for NaN/Inf and raises ``NumericError``
* ``complex_affine``, ``layernorm`` and ``crelu`` are fused ops with hand-written
  backward passes; ``complex_affine`` is one block-form GEMM, which beat Gauss's
  3-multiply form on the model's shapes (its extra elementwise passes cost more)
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

from .errors import ContractError, DimensionError, DomainError, NumericError

__all__ = [
    "Tensor",
    "ComplexTensor",
    "Tape",
    "no_grad",
    "constant",
    "add",
    "sub",
    "mul",
    "neg",
    "div",
    "matmul",
    "pow_const",
    "tanh",
    "exp",
    "log",
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
    if not np.all(np.isfinite(arr)):
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
    the same shape as ``data``. Tensors with no parents act as leaves or
    constants; whether the gradient is reported depends on tape
    registration, not on the node itself.
    """

    __slots__ = ("data", "grad", "_parents", "_backprop", "_op")

    def __init__(
        self,
        data,
        _parents: tuple = (),
        _backprop: Callable[[np.ndarray], None] | None = None,
        _op: str = "const",
    ):
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, _op)
        if not _grad_enabled:
            _parents, _backprop = (), None
        self.data = arr
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backprop = _backprop
        self._op = _op

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_check(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


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
    _broadcast_check(a, b, "add")
    out_data = a.data + b.data

    def backprop(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return Tensor(out_data, (a, b), backprop, "add")


def neg(a) -> Tensor:
    a = constant(a)

    def backprop(g):
        a._accumulate(-g)

    return Tensor(-a.data, (a,), backprop, "neg")


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _broadcast_check(a, b, "mul")
    out_data = a.data * b.data

    def backprop(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, (a, b), backprop, "mul")


def div(a, b) -> Tensor:
    return mul(a, pow_const(b, -1.0))


def matmul(a, b) -> Tensor:
    """Product of two matrices."""
    a, b = constant(a), constant(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: cannot multiply {a.shape} @ {b.shape}")

    def backprop(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), backprop, "matmul")


def pow_const(a, exponent: float) -> Tensor:
    a = constant(a)
    exponent = float(exponent)
    if not exponent.is_integer() and np.any(a.data < 0):
        raise DomainError("pow: fractional power of a negative value")
    out_data = a.data**exponent

    def backprop(g):
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return Tensor(out_data, (a,), backprop, f"pow{exponent}")


def tanh(a) -> Tensor:
    a = constant(a)
    out_data = np.tanh(a.data)

    def backprop(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor(out_data, (a,), backprop, "tanh")


def exp(a) -> Tensor:
    a = constant(a)
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def backprop(g):
        a._accumulate(g * out_data)

    return Tensor(out_data, (a,), backprop, "exp")


def log(a) -> Tensor:
    a = constant(a)
    if np.any(a.data <= 0):
        raise DomainError("log: input must be strictly positive")
    out_data = np.log(a.data)

    def backprop(g):
        a._accumulate(g / a.data)

    return Tensor(out_data, (a,), backprop, "log")


def relu(a) -> Tensor:
    a = constant(a)
    out_data = np.maximum(a.data, 0.0)

    def backprop(g):
        # derivative at the kink (input exactly 0) is defined as 0
        a._accumulate(g * (a.data > 0.0))

    return Tensor(out_data, (a,), backprop, "relu")


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

    return Tensor(out_data, (a,), backprop, "reshape")


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
        if axes is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

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
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``; the max shift is treated as a constant."""
    a = constant(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    e = exp(sub(a, Tensor(shift)))
    return div(e, tsum(e, axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = constant(a)
    shift = np.max(a.data, axis=axis, keepdims=True)
    shifted = sub(a, Tensor(shift))
    return sub(shifted, log(tsum(exp(shifted), axis=axis, keepdims=True)))


def layernorm(x, gamma, beta, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean / unit variance along ``axis``, then scale and shift.

    ``gamma`` and ``beta`` must be vectors matching the normalized axis.
    The ``eps`` guard keeps a zero-variance slice finite (it collapses
    to ``beta``). One node: the backward is the closed form
    ``inv * (g' - mean(g') - xhat * mean(g' * xhat))`` with ``g' = g * gamma``.
    """
    x, gamma, beta = constant(x), constant(gamma), constant(beta)
    if eps <= 0:
        raise ContractError("layernorm: eps must be positive")
    ax = axis % x.ndim
    n = x.shape[ax]
    if n == 0:
        raise DimensionError("layernorm: zero-length axis")
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (n,):
            raise DimensionError(
                f"layernorm: {name} has shape {t.shape}, expected ({n},)"
            )
    others = tuple(i for i in range(x.ndim) if i != ax)
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


@dataclass
class ComplexTensor:
    """A complex array carried as two real tensors of identical shape."""

    re: Tensor
    im: Tensor

    def __post_init__(self):
        self.re = constant(self.re)
        self.im = constant(self.im)
        if self.re.shape != self.im.shape:
            raise DimensionError(
                f"complex tensor: re {self.re.shape} != im {self.im.shape}"
            )

    @property
    def shape(self) -> tuple:
        return self.re.shape

    def reshape(self, shape) -> "ComplexTensor":
        return ComplexTensor(reshape(self.re, shape), reshape(self.im, shape))

    def mean(self, axis=None, keepdims: bool = False) -> "ComplexTensor":
        return ComplexTensor(
            tmean(self.re, axis, keepdims), tmean(self.im, axis, keepdims)
        )

    def __add__(self, other: "ComplexTensor") -> "ComplexTensor":
        return ComplexTensor(add(self.re, other.re), add(self.im, other.im))


def _complex_op(re, im, parents: tuple, backward, op: str) -> ComplexTensor:
    """Both output parts of a complex op; ``backward(g_re, g_im)`` runs once.

    The imaginary part is a child of the op's node, so it is visited first and
    hands its gradient over; nothing refers back to it, so refcounting frees it.
    """
    held: list[np.ndarray] = []

    def backprop(g_re):
        backward(g_re, held.pop() if held else np.zeros_like(im))

    node = Tensor(re, parents, backprop, op)

    def hand_over(g_im):
        held.append(g_im)
        if node.grad is None:
            node.grad = np.zeros_like(re)

    return ComplexTensor(node, Tensor(im, (node,), hand_over, op))


def crelu(h: ComplexTensor) -> ComplexTensor:
    """ReLU applied independently to the real and imaginary parts."""
    re, im = h.re, h.im

    def backward(g_re, g_im):
        # derivative at the kink (input exactly 0) is defined as 0
        re._accumulate(g_re * (re.data > 0.0))
        im._accumulate(g_im * (im.data > 0.0))

    return _complex_op(np.maximum(re.data, 0.0), np.maximum(im.data, 0.0),
                       (re, im), backward, "crelu")


def _rows(re: np.ndarray, im: np.ndarray, axis: int) -> np.ndarray:
    """Rows ``[re | im]``: ``axis`` moved last, every other axis folded into rows."""
    re, im = np.moveaxis(re, axis, -1), np.moveaxis(im, axis, -1)
    n = re.shape[-1]
    out = np.empty(re.shape[:-1] + (2 * n,))  # C order, so the reshape is a view
    out[..., :n] = re
    out[..., n:] = im
    return out.reshape(-1, 2 * n)


def _real_form(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``[[A, -B], [B, A]]``, the real form of ``A + iB``; rebuilt, not kept in the graph."""
    return np.block([[A, -B], [B, A]])


def complex_affine(
    A, B, h: ComplexTensor, bias: ComplexTensor | None = None, axis: int = -2
) -> ComplexTensor:
    """Apply the complex weight ``A + iB`` (m, n) along ``axis`` of ``h``.

    Each length-n slice ``a + ib`` becomes ``(Aa - Bb) + i(Ba + Ab)`` plus the
    optional (m,) bias; ``axis=-2`` is ``(A + iB) @ h``. Every other axis folds
    into the rows of one real GEMM with the block form ``[[A, -B], [B, A]]``.
    """
    A, B = constant(A), constant(B)
    if A.shape != B.shape:
        raise DimensionError(f"complex_affine: A {A.shape} != B {B.shape}")
    if A.ndim != 2:
        raise DimensionError("complex_affine: weights must be matrices")
    m, n = A.shape
    re, im = h.re, h.im
    if re.ndim < 2 or re.shape[axis] != n:
        raise DimensionError(f"complex_affine: weight {A.shape} vs axis {axis} of input {h.shape}")
    ax = axis % re.ndim
    lead = re.shape[:ax] + re.shape[ax + 1:]
    out = _rows(re.data, im.data, ax) @ _real_form(A.data, B.data).T
    parents = (A, B, re, im)
    if bias is not None:
        if bias.shape != (m,):
            raise DimensionError(
                f"complex_affine: bias has shape {bias.shape}, expected ({m},)"
            )
        out += np.concatenate((bias.re.data, bias.im.data))
        parents += (bias.re, bias.im)
    out = out.reshape(lead + (2 * m,))

    def backward(g_re, g_im):
        g = _rows(g_re, g_im, ax)
        gw = _rows(re.data, im.data, ax).T @ g
        A._accumulate(gw[:n, :m].T + gw[n:, m:].T)
        B._accumulate(gw[:n, m:].T - gw[n:, :m].T)
        gh = (g @ _real_form(A.data, B.data)).reshape(lead + (2 * n,))
        re._accumulate(np.moveaxis(gh[..., :n], -1, ax))
        im._accumulate(np.moveaxis(gh[..., n:], -1, ax))
        if bias is not None:
            gb = g.sum(axis=0)
            bias.re._accumulate(gb[:m])
            bias.im._accumulate(gb[m:])

    return _complex_op(np.moveaxis(out[..., :m], -1, ax), np.moveaxis(out[..., m:], -1, ax),
                       parents, backward, "complex_affine")


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


class Tape:
    """Registry of trainable leaves for one differentiation pass."""

    def __init__(self):
        self._leaves: dict[str, Tensor] = {}

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
        """
        if loss.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        order = topo_order(loss)
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node._backprop is None or node.grad is None:
                continue
            _ensure_finite(node.grad, f"backward:{node._op}")
            node._backprop(node.grad)
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
    tape = Tape()
    leaves = {k: tape.leaf(k, v) for k, v in arrays.items()}
    out = f(leaves)
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
