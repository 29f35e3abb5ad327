"""Dense tensors with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` is one node of a computation graph:
it holds the forward value, references to its parents, and a closure
that pushes an incoming gradient into them. A complex value of logical
shape ``(..., n)``, activation or parameter, is one real tensor ``z`` of
shape ``(..., 2, n)``: index 0 on the pair axis is the real part, index 1
the imaginary part, so a weight ``A + iB`` (m, n) is one ``(m, 2, n)``
buffer. Differentiation is plain real-valued reverse mode over that
buffer; no Wirtinger calculus is involved because every operation in the
network is already written in separated real/imaginary form.

A ``Tape`` is the registry of trainable leaves for one training step.
``Tape.backward(loss)`` walks the graph once, in reverse topological
order, and returns one gradient array per registered leaf. The walk
consumes the graph: each node drops its closure, its parents and its
interior gradient as the walk reaches it, and the walk drops the node
itself before running its closure, so memory falls as the walk proceeds
instead of holding the whole graph until it returns. A graph can be
walked once, and a tape used once; a second walk raises
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
  itself (``complex_mlp`` also checks its hidden layer's product, before the CReLU
  could hide an -Inf, and that layer's gradient); an axis outside the input's rank
  is a ``DimensionError`` naming the op
* a complex op is one node over the packed ``z``: ``complex_affine``,
  ``complex_mlp``, ``layernorm`` over the last axis, and ``relu`` and ``tmean``
  over a packed tensor (the CReLU and the mean over a logical axis before the
  pair axis)
* ``complex_affine``, ``complex_mlp`` and ``layernorm`` are fused ops with
  hand-written backward passes, one node each (``sub`` is a plain broadcast op; the
  model's noisy input, ``sample_incentive``, its head, ``pearson_project``, and the
  losses, ``train.bce_with_logits`` and the soft cross-entropy that ``cross_entropy``
  and ``ssl_loss`` share, are built the same way as the fused ops);
  ``complex_affine`` is one block-form GEMM, which beat Gauss's
  3-multiply form on the model's shapes (its extra elementwise passes cost more).
  ``complex_mlp(h, W1, W2, (gamma, beta), axis)`` is a whole mixing half,
  ``h + W2 · CReLU(W1 · layernorm(h))``, on ``layernorm``'s two kernels and the
  same GEMMs: it stores no normalized row and no hidden layer, only two scalars
  per row, and its backward rebuilds both with one extra GEMM
* a first gradient that an op allocated and drops is taken over in place
  (``_accumulate(g, own=True)``), not copied
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
    "Tape",
    "no_grad",
    "constant",
    "sub",
    "mul",
    "relu",
    "transpose",
    "tsum",
    "tmean",
    "layernorm",
    "complex_affine",
    "complex_mlp",
    "topo_order",
    "grad_check",
    "grad_check_report",
    "GradCheckReport",
]


# fixed, not settings: layernorm's variance floor, and grad_check's difference step
# and the relative one-sided disagreement that marks a kink
LAYERNORM_EPS, FD_STEP, KINK_TOL = 1e-5, 1e-5, 1e-3


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
                 _backprop: Callable[[np.ndarray], None] | None = None, _op: str = "const",
                 _checked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _checked:  # an op that checked the values its output is made of says so
            _ensure_finite(arr, _op)
        if not _grad_enabled:
            _parents, _backprop = (), None
        self.data, self.grad, self._op = arr, None, _op
        self._parents, self._backprop = _parents, _backprop

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def _accumulate(self, g: np.ndarray, own: bool = False) -> None:
        """Add ``g`` into ``grad``; an ``own`` g (the caller's, then dropped) may become it."""
        if self.grad is not None:
            self.grad += g
        elif self._parents or self._op.startswith("leaf:"):  # constants take no gradient
            # first arrival in one pass: -0.0 becomes +0.0 and the layout is data's
            taken = own and g.flags.c_contiguous and self.data.flags.c_contiguous
            self.grad = np.add(g, 0.0, out=g if taken else np.empty_like(self.data))

    def sum(self, axis=None) -> "Tensor":
        return tsum(self, axis=axis)

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def tmean(a, axis=None) -> Tensor:
    a = constant(a)
    axes = _norm_axis(axis, a.ndim, "mean")
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    if count == 0:
        raise DimensionError("mean over an empty axis")
    scale = 1.0 / count
    out_data = np.sum(a.data, axis=axes) * scale

    def backprop(g):
        g = g * scale
        if axes is not None:
            g = np.expand_dims(g, axes)
        a._accumulate(np.broadcast_to(g, a.shape))

    return Tensor(out_data, (a,), backprop, "mean")


def _norm_operands(x: Tensor, gamma, beta, op: str):
    """``gamma`` and ``beta`` as tensors once they fit ``x``, with the axes they
    broadcast over and their arrays expanded to ``x``'s rank."""
    gamma, beta = constant(gamma), constant(beta)
    if x.shape[-1] == 0:
        raise DimensionError(f"{op}: zero-length axis")
    k = max(gamma.ndim, 1)
    covered = x.shape[-k:]
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != covered:
            raise DimensionError(f"{op}: {name} has shape {t.shape}, expected {covered}")
    others = tuple(range(x.ndim - k))
    scale, shift = (np.expand_dims(t.data, others) for t in (gamma, beta))
    return gamma, beta, others, scale, shift


def _layernorm_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    """The layer norm of ``x`` over its last axis, with its per-row ``mu`` and ``inv``.

    The variance comes from a fresh ``d = x - mu``, in ``x``'s layout; then
    ``* inv``, ``* scale`` and ``+ shift`` go into ``d`` in place, in that
    order. Returns ``(d, mu, inv)``.
    """
    n = x.shape[-1]
    mu = np.sum(x, axis=-1, keepdims=True) * (1.0 / n)
    d = x - mu
    inv = (np.sum(d * d, axis=-1, keepdims=True) * (1.0 / n) + LAYERNORM_EPS) ** -0.5
    d *= inv
    d *= scale
    d += shift
    return d, mu, inv


def _layernorm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, scale: np.ndarray,
                        x: Tensor, gamma: Tensor, beta: Tensor, others: tuple,
                        private: bool = False) -> None:
    """Push ``g``, the gradient of the normalized output, into ``x``, ``gamma`` and
    ``beta``; ``x``'s is computed in place in ``g * scale``, written into a ``private`` g."""
    gamma._accumulate(np.sum(g * xhat, axis=others), own=True)
    beta._accumulate(np.sum(g, axis=others), own=True)
    gx = np.multiply(g, scale, out=g if private else None)
    mean_gx = gx.mean(axis=-1, keepdims=True)
    mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
    gx -= mean_gx
    gx -= xhat * mean_gx_xhat
    gx *= inv
    x._accumulate(gx, own=True)


def layernorm(x, gamma, beta) -> Tensor:
    """Normalize to zero mean / unit variance along the last axis, then scale and shift.

    ``gamma`` and ``beta`` share one shape: that of the trailing
    ``gamma.ndim`` axes of ``x``, so a vector matches the normalized axis
    and a ``(2, n)`` pair gives each part of a packed complex tensor its
    own gain and shift. ``LAYERNORM_EPS``, added to the variance, keeps a
    zero-variance slice finite (it collapses to ``beta``). One node: the
    backward is the closed form ``inv * (g' - mean(g') - xhat * mean(g' * xhat))``
    with ``g' = g * gamma``. ``complex_mlp`` runs the same two kernels.
    """
    x = constant(x)
    gamma, beta, others, scale, shift = _norm_operands(x, gamma, beta, "layernorm")
    out_data, mu, inv = _layernorm_forward(x.data, scale, shift)

    def backprop(g):
        _layernorm_backward(g, (x.data - mu) * inv, inv, scale, x, gamma, beta, others)

    return Tensor(out_data, (x, gamma, beta), backprop, "layernorm")


def _real_form(w: np.ndarray) -> np.ndarray:
    """``[[A, -B], [B, A]]`` of the packed (m, 2, n) ``A + iB``; rebuilt, not kept in the graph."""
    m, _, n = w.shape
    out = np.empty((2 * m, 2 * n))
    out[:m, :n] = out[m:, n:] = w[:, 0, :]
    np.negative(w[:, 1, :], out=out[:m, n:])
    out[m:, :n] = w[:, 1, :]
    return out


def _weight_grad(gw: np.ndarray, m: int, n: int) -> np.ndarray:
    """The fresh (m, 2, n) gradient of ``A + iB`` from ``gw``, the (2n, 2m)
    gradient of the transpose of its block form."""
    out = np.empty((m, 2, n))
    np.add(gw[:n, :m].T, gw[n:, m:].T, out=out[:, 0])
    np.subtract(gw[:n, m:].T, gw[n:, :m].T, out=out[:, 1])
    return out


def _mixing(w: Tensor, z: Tensor, axis: int, op: str):
    """Check a packed (m, 2, n) weight against logical ``axis`` of ``z``; return ``m``,
    ``n`` and the permutation of ``z``'s axes to its GEMM rows ``[a | b]``: every
    other axis, then the pair axis, then the mixed one (on the last axis, ``z``'s order)."""
    if w.ndim != 3 or w.shape[1] != 2:
        raise DimensionError(f"{op}: weight needs shape (m, 2, n), got {w.shape}")
    m, _, n = w.shape
    if z.ndim < 3 or z.shape[-2] != 2:
        raise DimensionError(f"{op}: input needs shape (..., 2, n), got {z.shape}")
    shape = z.shape[:-2] + z.shape[-1:]
    rank = len(shape)
    if not -rank <= axis < rank:
        raise DimensionError(f"{op}: axis {axis} is out of range for input {shape}")
    if shape[axis] != n:
        raise DimensionError(f"{op}: weight {(m, n)} vs axis {axis} of input {shape}")
    mixed = axis % rank if axis % rank < rank - 1 else rank
    perm = tuple(i for i in range(z.ndim) if i not in (mixed, rank - 1)) + (rank - 1, mixed)
    return m, n, perm


def _rows(arr: np.ndarray, perm: tuple, width: int) -> np.ndarray:
    """``arr``'s GEMM rows: one transposed copy, none if ``arr`` already is such a view."""
    return np.ascontiguousarray(arr.transpose(perm)).reshape(-1, width)


def _unrows(rows: np.ndarray, like: np.ndarray, perm: tuple) -> np.ndarray:
    """GEMM rows as a view in ``like``'s packed shape, save the width of the mixed axis."""
    lead = tuple(like.shape[i] for i in perm[:-1])
    return rows.reshape(lead + (rows.shape[1] // 2,)).transpose(tuple(np.argsort(perm)))


def complex_affine(W, h, bias=None, axis: int = -2) -> Tensor:
    """Apply the packed complex weight ``W = A + iB`` along logical ``axis`` of ``h``.

    ``W`` is (m, 2, n), ``h`` is packed, (..., 2, k), with logical shape
    ``h.shape[:-2] + h.shape[-1:]``, and the optional bias is (2, m); a pair
    axis that is not 2 is a ``DimensionError``. Each length-n slice
    ``a + ib`` becomes ``(Aa - Bb) + i(Ba + Ab)`` plus the bias; ``axis=-2``
    is ``W @ h``. The op is one real GEMM of rows ``[a | b]`` against the
    block form ``[[A, -B], [B, A]]``. On the last axis those rows are ``h``
    reshaped to ``(-1, 2n)``, and the output is the product reshaped back,
    with no copy either way. On any other axis the rows are one transposed
    copy of ``h`` (none if ``h`` already is such a view), and the output is a
    transposed view of the product in the packed shape. One node; its
    backward recomputes the rows and the block form instead of keeping them.
    """
    w, z = constant(W), constant(h)
    m, n, perm = _mixing(w, z, axis, "complex_affine")
    parents = (w, z)
    out = _rows(z.data, perm, 2 * n) @ _real_form(w.data).T
    if bias is not None:
        bias = constant(bias)
        if bias.shape != (2, m):
            raise DimensionError(f"complex_affine: bias has shape {bias.shape}, expected (2, {m})")
        out += bias.data.reshape(2 * m)
        parents += (bias,)
    _ensure_finite(out, "complex_affine")

    def backprop(g):
        g = _rows(g, perm, 2 * m)
        w._accumulate(_weight_grad(_rows(z.data, perm, 2 * n).T @ g, m, n), own=True)
        z._accumulate(_unrows(g @ _real_form(w.data), z.data, perm), own=True)
        if bias is not None:
            bias._accumulate(g.sum(axis=0).reshape(2, m), own=True)

    return Tensor(_unrows(out, z.data, perm), parents, backprop, "complex_affine", _checked=True)


def complex_mlp(h, W1, W2, norm, axis: int) -> Tensor:
    """The skip-connected complex MLP ``h + W2 · CReLU(W1 · layernorm(h))`` along ``axis``.

    ``h`` is packed, ``W1`` (m, 2, n) with ``n`` the length of logical ``axis``,
    ``W2`` (n, 2, m), and ``norm`` the ``(gamma, beta)`` of ``layernorm``. Values
    and gradients are bitwise those of ``complex_affine(W1, layernorm(h, gamma,
    beta), axis=axis)``, ``relu``, ``complex_affine(W2, ., axis=axis)`` and
    ``np.add(h, .)``, the skip's gradient added first, when ``h`` has no other.
    One node, which keeps only ``h`` and the per-row mean and inverse deviation;
    the backward rebuilds the normalized rows (in ``h``'s layout, then copied into
    the GEMM rows) and the hidden with one GEMM, whose block form it reuses.
    The product in front of the CReLU, which would map an overflowed -Inf to 0,
    the output and (as ``backward:complex_mlp``) the hidden's gradient are each
    checked for NaN/Inf once.
    """
    z, w1, w2 = constant(h), constant(W1), constant(W2)
    m, n, perm = _mixing(w1, z, axis, "complex_mlp")
    if w2.shape != (n, 2, m):
        raise DimensionError(f"complex_mlp: second weight has shape {w2.shape}, not {(n, 2, m)}")
    gamma, beta, others, scale, shift = _norm_operands(z, *norm, "complex_mlp")
    rows, mu, inv = _layernorm_forward(z.data, scale, shift)
    rows = _rows(rows, perm, 2 * n)  # off the last axis a copy; the normed buffer goes
    hidden = rows @ _real_form(w1.data).T
    del rows
    _ensure_finite(hidden, "complex_mlp")
    np.maximum(hidden, 0.0, out=hidden)
    product = hidden @ _real_form(w2.data).T
    del hidden
    out = np.add(z.data, _unrows(product, z.data, perm))
    del product
    _ensure_finite(out, "complex_mlp")

    def backprop(g):
        rows = (z.data - mu) * inv  # the rows and the hidden, rebuilt bitwise
        rows *= scale
        rows += shift
        rows = _rows(rows, perm, 2 * n)
        r1 = _real_form(w1.data)
        hidden = rows @ r1.T
        np.maximum(hidden, 0.0, out=hidden)
        g2 = _rows(g, perm, 2 * n)
        w2._accumulate(_weight_grad(hidden.T @ g2, n, m), own=True)
        mask = hidden > 0.0
        del hidden
        g1 = g2 @ _real_form(w2.data)
        del g2
        np.add(g1, 0.0, out=g1)  # -0.0 made +0.0, as a first gradient arrival does
        _ensure_finite(g1, "backward:complex_mlp")
        np.multiply(g1, mask, out=g1)  # the CReLU's derivative at exactly 0 is 0
        del mask
        w1._accumulate(_weight_grad(rows.T @ g1, m, n), own=True)
        del rows
        gh = _unrows(g1 @ r1, z.data, perm)
        del g1, r1
        xhat = (z.data - mu) * inv
        # the normalized rows' gradient in xhat's layout, with -0.0 made +0.0
        gh = np.add(gh, 0.0, out=gh if gh.strides == xhat.strides else np.empty_like(xhat))
        _layernorm_backward(gh, xhat, inv, scale, z, gamma, beta, others, private=True)
        # the skip's g goes last, so h takes over the layer norm's gradient instead of
        # copying g; a first arrival maps -0.0 to +0.0 and x + y rounds as y + x, so
        # h's gradient has the bits of the skip's first unless h had one already
        z._accumulate(g)

    parents = (z, w1, w2, gamma, beta)
    return Tensor(out, parents, backprop, "complex_mlp", _checked=True)


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

        The walk consumes the graph: when the walk reaches a node, the
        node drops its closure, its parents and (unless it is a registered
        leaf or the loss) its gradient, and the walk drops the node before
        running the closure, so each activation and interior gradient is
        freed as soon as nothing needs it. Node values that a caller holds
        stay readable. A graph can therefore be walked once, and a tape
        used once: a second walk raises ``ContractError``.
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
            backprop, g, op = node._backprop, node.grad, node._op
            if backprop is not None:
                node._backprop, node._parents = _walked, ()
            if id(node) not in keep:
                node.grad = None
            # a closure reads its parents, never its own node, so the node's
            # value is freed before the closure runs unless a caller holds it
            del node
            if backprop is not None and g is not None:
                _ensure_finite(g, f"backward:{op}")
                backprop(g)
            del backprop, g
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._leaves.items()
        }


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference check of the backward pass."""

    max_rel_error: float
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
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps a dict of leaf tensors to a scalar tensor and must be
    deterministic (freeze any noise before calling). Each entry is probed
    at ``± FD_STEP``; where the two one-sided differences disagree by more
    than ``KINK_TOL`` it sits on a kink and is skipped rather than failed.
    ``sample`` bounds the number of entries probed per leaf (a deterministic
    choice via ``rng``), for checks on models too large to enumerate.
    """
    tape = Tape()
    tensors = {k: tape.leaf(k, v) for k, v in leaves.items()}
    out = f(tensors)
    if out.size != 1:
        raise ContractError("grad_check: f must return a scalar")
    analytic = tape.backward(out)
    base = float(out.data.reshape(()))

    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in leaves.items()}
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
        for i in indices:
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = _eval_value(f, work)
            flat[i] = orig - FD_STEP
            fm = _eval_value(f, work)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * FD_STEP)
            fwd = (fp - base) / FD_STEP
            bwd = (base - fm) / FD_STEP
            if abs(fwd - bwd) > KINK_TOL * max(1.0, abs(fwd), abs(bwd)):
                skipped += 1
                continue
            checked += 1
            err = abs(grad_flat[i] - fd) / max(1.0, abs(fd))
            max_err = max(max_err, err)
    return GradCheckReport(max_err, checked, skipped)


def grad_check(
    f,
    leaves: dict[str, np.ndarray],
    sample: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    return grad_check_report(f, leaves, sample=sample, rng=rng).max_rel_error
