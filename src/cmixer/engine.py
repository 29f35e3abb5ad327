"""Dense tensors with reverse-mode automatic differentiation.

Everything is float64. A ``Tensor`` is one node of a computation graph: it holds the
forward value, references to its parents, and a closure that pushes an incoming gradient
into them. A complex value of logical shape ``(..., n)``, activation or parameter, is
one real tensor ``z`` of shape ``(..., 2, n)``: index 0 on the pair axis is the real
part, index 1 the imaginary part, so a weight ``A + iB`` (m, n) is one ``(m, 2, n)``
buffer. Differentiation is plain real-valued reverse mode over that buffer; no Wirtinger
calculus is involved because every operation in the network is already written in
separated real/imaginary form.

A ``Tape`` is the registry of trainable leaves for one training step.
``Tape.backward(loss)`` walks the graph once, in reverse topological order, and returns
one gradient array per registered leaf. The walk consumes the graph: each node drops its
closure, its parents and its interior gradient as the walk reaches it, and the walk
drops the node itself before running its closure, so memory falls as the walk proceeds
instead of holding the whole graph until it returns. A graph can be walked once, and a
tape used once; a second walk raises ``ContractError``.

Inside ``with no_grad():`` every op computes and validates its output exactly as outside
it, but the returned ``Tensor`` keeps no parents and no backprop closure, so each
intermediate is freed as soon as the caller drops it. The switch lives in
``Tensor.__init__`` alone: there is no second version of any op, and the values are
bitwise the same. A leaf cannot be registered on a ``Tape`` there, since it would
silently get a zero gradient. Outside ``no_grad`` every op builds the graph, with or
without a tape.

Conventions baked into this module:

* the module holds the ops that a training step builds and nothing else:
  ``complex_affine`` (the patch embedding and the heads), ``complex_mlp`` (each
  mixing half) and ``tmean`` (the pooling over the patch sequence); the model's
  noisy input, ``sample_incentive``, its head, ``pearson_project``, and the
  losses, ``train.bce_with_logits`` and the soft cross-entropy that
  ``cross_entropy`` and ``ssl_loss`` share, are nodes built the same way outside it
* every op validates its output once for NaN/Inf and raises ``NumericError`` naming
  itself (``complex_mlp`` also checks its hidden layer's product, before the CReLU
  could hide an -Inf, and that layer's gradient); an axis outside the input's rank,
  or a complex op's axis other than the model's two, the last logical axis and the
  one in front of it (the patch sequence), is a ``DimensionError`` naming the op
* a complex op is one node over the packed ``z``, with a hand-written backward
  pass; ``tmean`` over a packed tensor is the mean over a logical axis before the
  pair axis. Its forward is GEMMs on reshapes of ``z``: on the last axis one over all
  rows against the block form, which beat Gauss's 3-multiply form on the model's
  shapes; on the patch axis one per image, so an image's output ignores its batch.
  ``complex_mlp(h, W1, W2, (gamma, beta), axis)`` is a whole mixing half,
  ``h + W2 · CReLU(W1 · layernorm(h))``, on two layer-norm kernels: it stores no
  normalized row and no hidden layer, only two scalars per row, and its backward
  rebuilds both with one extra GEMM
* a first gradient that an op allocated and drops is taken over in place
  (``_accumulate(g, own=True)``), not copied
* the derivative of the CReLU at exactly 0 is taken to be 0
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "constant",
    "tmean",
    "complex_affine",
    "complex_mlp",
    "topo_order",
]


LAYERNORM_EPS = 1e-5  # layernorm's variance floor; fixed, not a setting


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

    def __repr__(self):
        return f"Tensor(op={self._op!r}, shape={self.shape})"


def constant(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def tmean(a, axis: int) -> Tensor:
    a = constant(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"mean: axis {axis} is out of range for rank {a.ndim}")
    axis %= a.ndim
    if a.shape[axis] == 0:
        raise DimensionError("mean over an empty axis")
    scale = 1.0 / a.shape[axis]
    out_data = np.sum(a.data, axis=axis) * scale

    def backprop(g):
        a._accumulate(np.broadcast_to(np.expand_dims(g * scale, axis), a.shape))

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


def _form(w: np.ndarray, last: bool) -> np.ndarray:
    """The real (2m, 2n) form of the packed (m, 2, n) ``A + iB``, rebuilt, not kept: the
    block form ``[[A, -B], [B, A]]`` on the last axis, else interleaved (row 2i + p, col 2j + q)."""
    m, _, n = w.shape
    out = np.empty((2, m, 2, n) if last else (m, 2, n, 2))
    v = out if last else out.transpose(1, 0, 3, 2)  # v[p, i, q, j] in either form
    v[0, :, 0] = v[1, :, 1] = w[:, 0]
    np.negative(w[:, 1], out=v[0, :, 1])
    v[1, :, 0] = w[:, 1]
    return out.reshape(2 * m, 2 * n)


def _weight_grad(g: np.ndarray, x: np.ndarray, m: int, n: int, last: bool) -> np.ndarray:
    """A fresh (m, 2, n) gradient of ``A + iB``, one GEMM of its ``_form``'s operands ``x``
    and product gradient ``g``, rows or columns alike; then folded."""
    gf = (x.T @ g).T if last else g @ x.T
    v = gf.reshape(2, m, 2, n) if last else gf.reshape(m, 2, n, 2).transpose(1, 0, 3, 2)
    out = np.empty((m, 2, n))
    np.add(v[0, :, 0], v[1, :, 1], out=out[:, 0])
    np.subtract(v[1, :, 0], v[0, :, 1], out=out[:, 1])
    return out


def _mixing(w: Tensor, z: Tensor, axis: int, op: str):
    """Check a packed (m, 2, n) weight against logical ``axis`` of ``z``, the last
    axis or the one in front of it; return ``m``, ``n`` and whether it is the last."""
    if w.ndim != 3 or w.shape[1] != 2:
        raise DimensionError(f"{op}: weight needs shape (m, 2, n), got {w.shape}")
    m, _, n = w.shape
    if z.ndim < 3 or z.shape[-2] != 2:
        raise DimensionError(f"{op}: input needs shape (..., 2, n), got {z.shape}")
    shape = z.shape[:-2] + z.shape[-1:]
    rank = len(shape)
    if not -rank <= axis < rank:
        raise DimensionError(f"{op}: axis {axis} is out of range for input {shape}")
    if axis % rank < rank - 2:
        raise DimensionError(
            f"{op}: mixes the last axis or the one in front of it, not axis {axis} of {shape}")
    if shape[axis] != n:
        raise DimensionError(f"{op}: weight {(m, n)} vs axis {axis} of input {shape}")
    return m, n, axis % rank == rank - 1


def _rows(arr: np.ndarray, last: bool, width: int, columns: bool = False) -> np.ndarray:
    """``arr``'s GEMM operands: its rows ``[a | b]`` on the last axis; else each image's (k, 2, C)
    as the (2k, C) matrix it is, or with ``columns`` those side by side, (2k, images * C)."""
    if last:
        return np.ascontiguousarray(arr).reshape(-1, width)
    x = arr.reshape(-1, width, arr.shape[-1])
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(width, -1) if columns else x


def _apply(form: np.ndarray, x: np.ndarray, last: bool, columns: bool = False) -> np.ndarray:
    """``form`` applied to operands ``x`` from ``_rows``: ``x @ form.T`` on the last axis, else
    ``form @ x``, one GEMM per image or over all columns (a stack's products into ``columns``)."""
    if last or not columns:
        return x @ form.T if last else np.matmul(form, x)
    out = np.empty((len(form), len(x), x.shape[-1]))
    np.matmul(form, x, out=out.transpose(1, 0, 2))
    return out.reshape(len(form), -1)


def _packed(x: np.ndarray, shape: tuple, last: bool) -> np.ndarray:
    """Operand rows or columns ``x`` as a view in packed ``shape``."""
    x = x if last else x.reshape(len(x), -1, shape[-1]).swapaxes(0, 1)
    return x.reshape(shape)


def complex_affine(W, h, bias=None, axis: int = -2) -> Tensor:
    """Apply the packed complex weight ``W = A + iB`` along logical ``axis`` of ``h``.

    ``W`` is (m, 2, n), ``h`` is packed, (..., 2, k), with logical shape
    ``h.shape[:-2] + h.shape[-1:]``, and the optional bias is (2, m); a pair
    axis that is not 2 is a ``DimensionError``. ``axis`` is the last logical
    axis or the one in front of it. Each length-n slice ``a + ib`` becomes
    ``(Aa - Bb) + i(Ba + Ab)`` plus the bias; ``axis=-2`` is ``W @ h``. One node: one
    GEMM on the last axis, one per image on axis -2, with no copy in or out; its backward
    recomputes the real form and on axis -2 works on (2n, images * C) columns.
    """
    w, z = constant(W), constant(h)
    m, n, last = _mixing(w, z, axis, "complex_affine")
    parents = (w, z)
    out = _apply(_form(w.data, last), _rows(z.data, last, 2 * n), last)
    if bias is not None:
        bias = constant(bias)
        if bias.shape != (2, m):
            raise DimensionError(f"complex_affine: bias has shape {bias.shape}, expected (2, {m})")
        out += bias.data.reshape(2 * m) if last else bias.data.T.reshape(2 * m, 1)
        parents += (bias,)
    _ensure_finite(out, "complex_affine")

    def backprop(g):
        g = _rows(g, last, 2 * m, columns=True)
        w._accumulate(_weight_grad(g, _rows(z.data, last, 2 * n, True), m, n, last), own=True)
        z._accumulate(_packed(_apply(_form(w.data, last).T, g, last), z.shape, last), own=True)
        if bias is not None:
            gb = g.sum(axis=0).reshape(2, m) if last else g.sum(axis=1).reshape(m, 2).T
            bias._accumulate(gb, own=True)

    shape = z.shape[:-1] + (m,) if last else z.shape[:-3] + (m,) + z.shape[-2:]
    return Tensor(out.reshape(shape), parents, backprop, "complex_affine", _checked=True)


def complex_mlp(h, W1, W2, norm, axis: int) -> Tensor:
    """The skip-connected complex MLP ``h + W2 · CReLU(W1 · layernorm(h))`` along ``axis``.

    ``h`` is packed, ``W1`` (m, 2, n) with ``n`` the length of logical ``axis``
    (the last axis or the one in front of it), ``W2`` (n, 2, m), and ``norm`` the
    ``(gamma, beta)`` of a layer norm over the last axis. Values and gradients are
    bitwise those of ``complex_affine(W1, layernorm(h, gamma, beta), axis=axis)``, a
    ReLU, ``complex_affine(W2, ., axis=axis)`` and ``np.add(h, .)``, the skip's gradient
    added first, when ``h`` has no other (the tests build that composition from plain
    ops). One node, which keeps only ``h`` and the per-row mean and inverse deviation;
    the backward rebuilds the normalized rows and the hidden (on axis -2 straight into
    its columns) with one GEMM, whose real form it reuses.
    The product in front of the CReLU, which would map an overflowed -Inf to 0,
    the output and (as ``backward:complex_mlp``) the hidden's gradient are each
    checked for NaN/Inf once.
    """
    z, w1, w2 = constant(h), constant(W1), constant(W2)
    m, n, last = _mixing(w1, z, axis, "complex_mlp")
    if w2.shape != (n, 2, m):
        raise DimensionError(f"complex_mlp: second weight has shape {w2.shape}, not {(n, 2, m)}")
    gamma, beta, others, scale, shift = _norm_operands(z, *norm, "complex_mlp")
    rows, mu, inv = _layernorm_forward(z.data, scale, shift)
    rows = _rows(rows, last, 2 * n)  # a view, unless h is strided
    hidden = _apply(_form(w1.data, last), rows, last)
    del rows
    _ensure_finite(hidden, "complex_mlp")
    np.maximum(hidden, 0.0, out=hidden)
    product = _apply(_form(w2.data, last), hidden, last)
    del hidden
    out = np.add(z.data, product.reshape(z.shape))
    del product
    _ensure_finite(out, "complex_mlp")

    def backprop(g):
        rows = (z.data - mu) * inv  # the rows and the hidden, rebuilt bitwise
        rows *= scale
        rows += shift
        rows = _rows(rows, last, 2 * n)
        r1 = _form(w1.data, last)
        hidden = _apply(r1, rows, last, columns=True)
        np.maximum(hidden, 0.0, out=hidden)
        g2 = _rows(g, last, 2 * n, columns=True)
        w2._accumulate(_weight_grad(g2, hidden, n, m, last), own=True)
        mask = hidden > 0.0
        del hidden
        g1 = _apply(_form(w2.data, last).T, g2, last)
        del g2
        np.add(g1, 0.0, out=g1)  # -0.0 made +0.0, as a first gradient arrival does
        _ensure_finite(g1, "backward:complex_mlp")
        np.multiply(g1, mask, out=g1)  # the CReLU's derivative at exactly 0 is 0
        del mask
        w1._accumulate(_weight_grad(g1, _rows(rows, last, 2 * n, True), m, n, last), own=True)
        del rows
        gh = _packed(_apply(r1.T, g1, last), z.shape, last)
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

        Returns one gradient array per leaf, shape-matching it; leaves the loss
        does not depend on get zeros. The walk consumes the graph as the module
        docstring says; node values that a caller holds stay readable.
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

