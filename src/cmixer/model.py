"""The complex mixer network and its learned-noise input stage.

The classifier runs entirely on complex features. A complex feature of
logical shape ``(..., n)`` is one real ``engine.Tensor`` of shape
``(..., 2, n)`` that holds the real and the imaginary part side by side
(the packed layout), so every complex step is one engine op:

1. a small real MLP reads the flattened image and emits two scalars,
   mapped to ``mu = tanh(.)`` and ``sigma = 0.5*(1 + tanh(.))``;
2. an image-shaped Gaussian sample ``mu + sigma * eps`` becomes the
   imaginary part of the input (the real part is the image itself), so
   gradients reach the noise generator through the reparameterized
   sample;
3. the complex image is cut into non-overlapping patches, linearly
   embedded, and passed through mixer blocks that alternate mixing
   across the patch sequence and across channels; each mixing half is
   one ``engine.complex_mlp`` node, a per-part layer norm (the two parts'
   gains and shifts packed too), an affine, the CReLU (``relu`` of the
   packed buffer), a second affine and the skip, which stores neither a
   normalized row nor its hidden layer;
4. a bounded real score comes out of ``tanh(re + im)`` applied to the
   head output, so every logit lives in (-1, 1).

``scores`` runs a large batch in microbatches that fit ``SCORE_BUDGET``.

Parameters are kept in a flat ``{name: ndarray}`` dict, which makes
optimizers and EMA shadows trivial dict operations. Each complex one is a
single buffer in the packed ``(..., 2, n)`` layout; only
the six ``incentive.*`` buffers are real. A checkpoint file stores the
parts of a complex buffer as two entries, ``<name>.re`` and ``<name>.im``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import engine
from .engine import Tape, Tensor, complex_affine, complex_mlp
from .errors import ContractError, DimensionError, FormatError
from .npzio import read_arrays, write_arrays

__all__ = [
    "CMixerConfig",
    "Toggles",
    "CMixerModel",
    "incentive_mu_sigma",
    "sample_incentive",
    "mixer_block_forward",
    "pearson_project",
    "param_shapes",
    "init_params",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

INCENTIVE_HIDDEN = 128
SSL_DIM = 128
# bytes that the widest tape-less activation of one scoring microbatch may take
SCORE_BUDGET = 8 * 2**20


@dataclass
class Toggles:
    """Ablation switches. All on reproduces the full method.

    ``ssl`` off makes pre-training a no-op; ``rm`` off drops random
    masking from pre-training; ``il`` off zeroes the imaginary input
    channel (no learned noise); ``p_r`` / ``p_i`` select which parts the
    real-projection head consumes.
    """

    ssl: bool = True
    rm: bool = True
    il: bool = True
    p_r: bool = True
    p_i: bool = True

    def __post_init__(self):
        if not (self.p_r or self.p_i):
            raise ContractError("projection must keep the real part, the imaginary part, or both")


@dataclass
class CMixerConfig:
    """Architecture hyperparameters.

    ``seq`` must equal ``(image_side / patch)^2``. The reference
    configuration is 8 layers, hidden width 218, patch 4 on 28x28
    inputs (sequence length 49), token hidden 98, channel hidden 784,
    which lands at roughly six million stored scalars.
    """

    num_layers: int = 8
    hidden: int = 218
    seq: int = 49
    patch: int = 4
    token_hidden: int = 98
    channel_hidden: int = 784
    num_classes: int = 9
    in_channels: int = 3
    image_side: int = 28

    def __post_init__(self):
        if self.num_layers < 0:
            raise ContractError("num_layers must be nonnegative")
        # seq, and with it the default token_hidden, is derived from the
        # patch, so a patch that does not tile the image is named first; a
        # seq below 1 then fails the (side/patch)^2 check
        for name in ("hidden", "patch", "num_classes", "in_channels", "image_side"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.image_side % self.patch != 0:
            raise ContractError(
                f"image side {self.image_side} not divisible by patch {self.patch}"
            )
        for name in ("token_hidden", "channel_hidden"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if (self.image_side // self.patch) ** 2 != self.seq:
            raise ContractError(
                f"seq {self.seq} != (side/patch)^2 = {(self.image_side // self.patch) ** 2}"
            )

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * self.in_channels

    @property
    def flat_dim(self) -> int:
        return self.in_channels * self.image_side * self.image_side

    @classmethod
    def reference(cls, in_channels: int = 3, num_classes: int = 9) -> "CMixerConfig":
        return cls(in_channels=in_channels, num_classes=num_classes)

    @classmethod
    def small(cls, image_side: int = 16, in_channels: int = 1,
              num_classes: int = 2, num_layers: int = 2, hidden: int = 16,
              patch: int = 4, token_hidden: int | None = None,
              channel_hidden: int | None = None) -> "CMixerConfig":
        """Unset mixing widths are twice the sequence length and twice ``hidden``."""
        if patch < 1:
            raise ContractError("patch must be at least 1")
        seq = (image_side // patch) ** 2
        return cls(
            num_layers=num_layers,
            hidden=hidden,
            seq=seq,
            patch=patch,
            token_hidden=2 * seq if token_hidden is None else token_hidden,
            channel_hidden=2 * hidden if channel_hidden is None else channel_hidden,
            num_classes=num_classes,
            in_channels=in_channels,
            image_side=image_side,
        )


def to_lines(obj) -> str:
    """A dataclass as ``key=value`` lines, one per field."""
    return "".join(f"{f.name}={getattr(obj, f.name)}\n" for f in fields(obj))


def field_types(cls) -> dict[str, type]:
    """Each field of dataclass ``cls`` with a scalar default, mapped to that default's type."""
    return {f.name: type(f.default) for f in fields(cls) if isinstance(f.default, (int, float))}


_BOOLS = {"True": True, "False": False}


def parse_lines(text: str, types: dict[str, type]) -> dict:
    """Read ``key=value`` lines into values of the types that ``types`` gives each key.

    Blank lines and ``#`` comments are skipped. A bool must read ``True``
    or ``False`` (``bool("False")`` is true). A line without ``=``, an
    unknown key or a malformed value raises ``FormatError``.
    """
    values = {}
    for line in text.splitlines():
        key, sep, value = (part.strip() for part in line.partition("="))
        if not key or key.startswith("#"):
            continue
        if not sep:
            raise FormatError(f"expected key=value, got {line.strip()!r}")
        if key not in types:
            raise FormatError(f"unknown key {key!r}")
        try:
            values[key] = _BOOLS[value] if types[key] is bool else types[key](value)
        except (KeyError, ValueError):
            raise FormatError(f"{key}={value!r} is not a {types[key].__name__}") from None
    return values


def _complex_groups(config: CMixerConfig) -> list[dict[str, tuple]]:
    """The complex buffers' logical shapes, one group per layer, in the order
    that ``init_params`` draws them and a checkpoint lists their parts."""
    c, s, ds, dc = config.hidden, config.seq, config.token_hidden, config.channel_hidden
    block = {"ln1.gamma": (c,), "ln1.beta": (c,), "token1.weight": (ds, s),
             "token2.weight": (s, ds), "ln2.gamma": (c,), "ln2.beta": (c,),
             "channel1.weight": (dc, c), "channel2.weight": (c, dc)}
    return [
        {"patch_embed.weight": (c, config.patch_dim), "patch_embed.bias": (c,)},
        *({f"block{i}.{k}": v for k, v in block.items()} for i in range(config.num_layers)),
        {"head.weight": (config.num_classes, c), "head.bias": (config.num_classes,),
         "ssl_head.weight": (SSL_DIM, c), "ssl_head.bias": (SSL_DIM,)},
    ]


def param_shapes(config: CMixerConfig) -> dict[str, tuple]:
    """Every stored buffer and its shape, in a fixed order; complex ones are ``(..., 2, n)``."""
    h = INCENTIVE_HIDDEN
    shapes = {"incentive.hidden.weight": (config.flat_dim, h), "incentive.hidden.bias": (h,),
              "incentive.mu.weight": (h, 1), "incentive.mu.bias": (1,),
              "incentive.sigma.weight": (h, 1), "incentive.sigma.bias": (1,)}
    for group in _complex_groups(config):
        shapes.update((name, shape[:-1] + (2,) + shape[-1:]) for name, shape in group.items())
    return shapes


def _glorot(rng: np.random.Generator, shape: tuple, gain: float = 1.0) -> np.ndarray:
    fan_out, fan_in = shape[0], shape[-1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: CMixerConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot weights, zero biases, unit layer-norm gains.

    Complex weights have both parts drawn at 1/sqrt(2) of the Glorot limit
    because the affine sums two independent matmuls (Aa - Bb), which
    would otherwise double the output variance. The branch-closing
    block weights (token2/channel2) are further scaled by
    1/sqrt(2*num_layers) so the residual stream keeps the embedding
    scale at any depth; without this the pooled features grow with
    depth and start the bounded projection deep in tanh saturation,
    where gradients vanish. The two incentive output heads start at
    zero so an untrained network emits mu = 0 and sigma = 0.5 for
    every image.
    """
    branch_gain = 1.0 / np.sqrt(2.0 * max(config.num_layers, 1))
    params = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    params["incentive.hidden.weight"] = _glorot(rng, params["incentive.hidden.weight"].shape)
    for group in _complex_groups(config):
        for part in (0, 1):
            for name, shape in group.items():
                if name.endswith(".gamma"):
                    params[name][part] = 1.0
                elif name.endswith(".weight"):
                    branch = ".token2." in name or ".channel2." in name
                    gain = 1.0 / np.sqrt(2.0) * (branch_gain if branch else 1.0)
                    params[name][..., part, :] = _glorot(rng, shape, gain=gain)
    return params


def param_count(config: CMixerConfig) -> int:
    """Total stored scalars; a complex buffer counts both its parts."""
    return int(sum(np.prod(s) for s in param_shapes(config).values()))


_INCENTIVE = ("incentive.hidden.weight", "incentive.hidden.bias", "incentive.mu.weight",
              "incentive.mu.bias", "incentive.sigma.weight", "incentive.sigma.bias")


def incentive_mu_sigma(images: np.ndarray, params: dict[str, np.ndarray]) -> tuple:
    """The incentive MLP in numpy: per-image ``mu = tanh(.)`` and ``sigma = 0.5*(1 + tanh(.))``.

    ``images`` is a (batch, ...) stack, each image read flattened, and
    ``params`` holds the six ``incentive.*`` arrays. Returns the ReLU hidden
    layer, ``mu``, the tanh inside ``sigma``, and ``sigma``; the last three
    are (batch, 1). The ReLU maps -Inf to 0 and tanh maps +-Inf to +-1,
    so a non-finite hidden pre-activation or logit raises ``NumericError``
    naming ``sample_incentive``, the op this kernel is the forward of.
    """
    b = images.shape[0]
    hidden = (images.reshape((b, images.size // b)) @ params["incentive.hidden.weight"]
              + params["incentive.hidden.bias"])
    engine._ensure_finite(hidden, "sample_incentive")
    np.maximum(hidden, 0.0, out=hidden)
    mu = hidden @ params["incentive.mu.weight"] + params["incentive.mu.bias"]
    t = hidden @ params["incentive.sigma.weight"] + params["incentive.sigma.bias"]
    for logit in (mu, t):
        engine._ensure_finite(logit, "sample_incentive")
        np.tanh(logit, out=logit)
    return hidden, mu, t, (t + 1.0) * 0.5


def _patches(re: np.ndarray, im: np.ndarray, patch: int) -> np.ndarray:
    """The complex (batch, ch, H, W) batch ``re + i*im`` as row-major sequences of patches.

    Output is (batch, S, 2, ch*patch*patch) with S = (H/P)*(W/P), in the
    packed layout: each row is one patch, each part of it
    flattened in (ch, P, P) order. Each part is one copy into a view.
    """
    b, ch, hgt, wid = re.shape
    hp, wp = hgt // patch, wid // patch
    out = np.empty((b, hp * wp, 2, ch * patch * patch))
    view = out.reshape((b, hp, wp, 2, ch, patch, patch))
    for part, arr in enumerate((re, im)):
        view[:, :, :, part] = arr.reshape((b, ch, hp, patch, wp, patch)).transpose(0, 2, 4, 1, 3, 5)
    return out


def sample_incentive(images: np.ndarray, params: dict[str, Tensor | np.ndarray],
                     eps: np.ndarray, patch: int) -> Tensor:
    """A (batch, ch, H, W) image batch with its learned noise, cut into patches.

    The real part is the image; the imaginary part is ``mu + sigma*eps``
    with per-image scalars mu and sigma from ``incentive_mu_sigma``,
    broadcast over all pixels, so gradients flow to the generator through
    the reparameterized sample. ``eps`` must be standard normal, drawn by
    the caller, and shaped like the batch. The result has the layout of
    ``_patches``, (batch, S, 2, ch*patch*patch).

    One node, whose parents are the six ``incentive.*`` buffers; the image
    and ``eps`` are constants. A non-finite image or ``eps`` raises
    ``NumericError`` naming the op: the image is the real part as it is,
    and ``sigma * eps`` is non-finite for any non-finite ``eps``, so the
    output check sees both.
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"expected (batch, ch, H, W) images, got {x.shape}")
    b, ch, hgt, wid = x.shape
    if hgt % patch or wid % patch:
        raise DimensionError(f"image {hgt}x{wid} not divisible by patch {patch}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x.shape:
        raise DimensionError(f"epsilon shape {eps.shape} != image shape {x.shape}")
    leaves = tuple(engine.constant(params[name]) for name in _INCENTIVE)
    w1, b1, w_mu, b_mu, w_sig, b_sig = leaves
    hidden, mu, t, sigma = incentive_mu_sigma(x, {n: v.data for n, v in zip(_INCENTIVE, leaves)})
    imag = mu.reshape((b, 1, 1, 1)) + sigma.reshape((b, 1, 1, 1)) * eps

    def backprop(g):
        hp, wp = hgt // patch, wid // patch
        # the imaginary part's gradient, gathered into a contiguous image-shaped
        # array: numpy's reduction order follows the memory layout, so this
        # fixes the order, and the rounding, of the sums below
        gim = np.empty(x.shape)
        gim.reshape((b, ch, hp, patch, wp, patch))[...] = (
            g.reshape((b, hp, wp, 2, ch, patch, patch))[:, :, :, 1].transpose(0, 3, 1, 4, 2, 5))
        g_mu = gim.sum(axis=(1, 2, 3)).reshape((b, 1)) * (1.0 - mu * mu)
        g_sig = ((gim * eps).sum(axis=(1, 2, 3)).reshape((b, 1)) * 0.5) * (1.0 - t * t)
        g_hidden = (g_mu @ w_mu.data.T + g_sig @ w_sig.data.T) * (hidden > 0.0)
        w1._accumulate(x.reshape((b, x.size // b)).T @ g_hidden, own=True)
        b1._accumulate(g_hidden.sum(axis=0), own=True)
        for w, bias, g_logit in ((w_mu, b_mu, g_mu), (w_sig, b_sig, g_sig)):
            w._accumulate(hidden.T @ g_logit, own=True)
            bias._accumulate(g_logit.sum(axis=0), own=True)

    return Tensor(_patches(x, imag, patch), leaves, backprop, "sample_incentive")


def _affine(x: Tensor, p: dict[str, Tensor | np.ndarray], prefix: str) -> Tensor:
    """The biased affine ``prefix`` over the last axis: the patch embedding and the heads."""
    return complex_affine(p[f"{prefix}.weight"], x, bias=p[f"{prefix}.bias"], axis=-1)


def mixer_block_forward(x: Tensor, params: dict[str, Tensor | np.ndarray],
                        prefix: str) -> Tensor:
    """One mixer layer on a (..., S, C) complex sequence.

    Token mixing acts across the patch sequence of each channel, channel
    mixing across the channels of each patch; both sit behind skip
    connections, so a zero-weight block is the identity. A block is two
    ``complex_mlp`` nodes, one per mixing half, each with its layer norm,
    CReLU and skip fused in; the layer norms give re and im their own row
    of the (2, C) gain and shift. A taped block stores only its token-half
    output: no normalized row, hidden layer or product.
    """
    def half(h: Tensor, first: str, second: str, ln: str, axis: int) -> Tensor:
        return complex_mlp(h, params[f"{prefix}.{first}.weight"],
                           params[f"{prefix}.{second}.weight"],
                           (params[f"{prefix}.{ln}.gamma"], params[f"{prefix}.{ln}.beta"]), axis)

    return half(half(x, "token1", "token2", "ln1", -2), "channel1", "channel2", "ln2", -1)


_OPEN_UNIT = np.nextafter(1.0, 0.0)


def pearson_project(z: Tensor, use_real: bool = True, use_imag: bool = True) -> Tensor:
    """Map packed complex features ``z`` (..., 2, n) to bounded real scores via tanh.

    The full head is ``tanh(re + im)``; the ablated variants keep only
    one part. A pair axis that is not 2 is a ``DimensionError``. Output is
    strictly inside (-1, 1): float64 tanh rounds to exactly +-1 for |x|
    beyond ~19, so the output is clamped one ulp inside. The true
    derivative there is ~4e-16, so the backward ``g * (1 - t*t)`` takes the
    unclamped ``t``. One node; tanh maps an Inf to a finite value, so a
    non-finite input to it raises ``NumericError`` naming the op.
    """
    if not (use_real or use_imag):
        raise ContractError("projection must keep at least one part")
    if z.ndim < 2 or z.shape[-2] != 2:
        raise DimensionError(f"pearson_project: input needs shape (..., 2, n), got {z.shape}")
    keep = slice(0 if use_real else 1, 2 if use_imag else 1)
    s = np.sum(z.data, axis=-2) if use_real and use_imag else z.data[..., keep.start, :]
    engine._ensure_finite(s, "pearson_project")
    t = np.tanh(s)

    def backprop(g):
        gz = np.zeros_like(z.data)
        gz[..., keep, :] = np.expand_dims(g * (1.0 - t * t), -2)
        z._accumulate(gz, own=True)

    return Tensor(np.clip(t, -_OPEN_UNIT, _OPEN_UNIT), (z,), backprop, "pearson_project")


class CMixerModel:
    """Complex mixer classifier with a learned-noise input stage.

    Parameters live in ``self.params`` as plain float64 arrays; a
    forward pass optionally registers them on a ``Tape`` to make them
    trainable leaves for that step. ``scores`` is the graph-free pass.
    ``toggles`` is the one holder of the ablation switches: every pass
    runs under it, the training loops read it, and checkpoints carry it.
    Set it before training; the loops never change it.
    """

    def __init__(
        self,
        config: CMixerConfig,
        params: dict[str, np.ndarray] | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config
        if params is None:
            params = init_params(config, rng if rng is not None else np.random.default_rng())
        expected = param_shapes(config)
        if set(params) != set(expected):
            missing = set(expected) - set(params)
            extra = set(params) - set(expected)
            raise ContractError(f"parameter names mismatch: missing={missing}, extra={extra}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise DimensionError(f"{name}: shape {params[name].shape}, expected {shape}")
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.toggles = Toggles()

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def forward(
        self,
        images: np.ndarray,
        *,
        eps: np.ndarray | None = None,
        head: str = "classify",
        tape: Tape | None = None,
        params: dict[str, np.ndarray | Tensor] | None = None,
    ) -> Tensor:
        """Score a float batch of shape (batch, ch, H, W) under ``self.toggles``.

        The batch is the only input form (``train._to_model_layout`` makes
        it from uint8 images); any other shape is a ``DimensionError``.
        ``eps`` is the noise sample, required with ``il`` on: ``forward``
        draws nothing (``scores`` draws it from its ``rng``). ``params``
        substitutes a foreign buffer set for ``self.params`` (an EMA
        shadow, or leaf tensors a caller made).
        With ``tape`` given, every buffer is registered on it as a leaf,
        so ``params`` must then hold arrays; without one, each op that
        reads a buffer makes an array a checked constant and uses a tensor
        as it is, so a head the pass does not read is never checked.
        Either way the graph is built unless the call runs inside
        ``engine.no_grad``.
        """
        cfg = self.config
        x = self._checked_batch(images, head)
        p = params if params is not None else self.params
        if tape is not None:
            p = {k: tape.leaf(k, v) for k, v in p.items()}

        if self.toggles.il:
            if eps is None:
                raise ContractError("forward needs eps, the noise sample")
            h = sample_incentive(x, p, eps, cfg.patch)
        else:
            h = Tensor(_patches(x, np.zeros_like(x), cfg.patch))
        h = _affine(h, p, "patch_embed")
        for i in range(cfg.num_layers):
            h = mixer_block_forward(h, p, f"block{i}")
        pooled = engine.tmean(h, 1)  # over the patch sequence
        prefix = "head" if head == "classify" else "ssl_head"
        out = _affine(pooled, p, prefix)
        return pearson_project(out, use_real=self.toggles.p_r, use_imag=self.toggles.p_i)

    def scores(
        self,
        images: np.ndarray,
        *,
        eps: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        head: str = "classify",
        params: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``forward`` under ``engine.no_grad`` and ``self.toggles``, as a plain array.

        No graph is built, and the batch runs in the fewest near-equal
        microbatches (``np.array_split``) whose widest activation fits in
        ``SCORE_BUDGET`` bytes, so memory stops growing with the batch. The
        noise is drawn once for the whole batch, as ``forward`` draws it, and
        sliced: each microbatch's rows are bitwise ``forward`` on it and its
        ``eps`` slice. The head and the shapes are checked before any draw.
        """
        x = self._checked_batch(images, head)
        if self.toggles.il:
            if eps is None and rng is None:
                raise ContractError("scores needs eps or rng to sample noise")
            eps = rng.standard_normal(x.shape) if eps is None else np.asarray(eps, dtype=np.float64)
            if eps.shape != x.shape:
                raise DimensionError(f"epsilon shape {eps.shape} != image shape {x.shape}")
        c = self.config
        widest = 16 * max(c.seq * c.hidden, c.token_hidden * c.hidden, c.seq * c.channel_hidden)
        n = max(1, -(-len(x) // max(1, SCORE_BUDGET // widest)))
        eps_parts = np.array_split(eps, n) if self.toggles.il else [None] * n
        with engine.no_grad():
            return np.concatenate([self.forward(xs, eps=es, head=head, params=params).data
                                   for xs, es in zip(np.array_split(x, n), eps_parts)])

    def _checked_batch(self, images, head: str) -> np.ndarray:
        """``images`` as float64 once ``head`` and the (batch, ch, H, W) shape pass."""
        if head not in ("classify", "ssl"):  # before any of the trunk's work
            raise ContractError(f"unknown head {head!r}")
        cfg = self.config
        x = np.asarray(images, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != (cfg.in_channels, cfg.image_side, cfg.image_side):
            raise DimensionError(
                f"expected (batch, {cfg.in_channels}, {cfg.image_side}, {cfg.image_side}), got {x.shape}"
            )
        return x


def save_checkpoint(path, model: CMixerModel, params: dict[str, np.ndarray] | None = None) -> None:
    """Write parameters, the architecture config and the toggles to one NPZ file:
    one entry per real buffer, ``<name>.re`` and ``<name>.im`` per complex one,
    and the ``CMixerConfig`` and ``Toggles`` fields as ``meta`` key=value lines."""
    src = params if params is not None else model.params
    arrays = {name: v for name, v in src.items() if name.startswith("incentive.")}
    for group in _complex_groups(model.config):
        for part, suffix in enumerate(("re", "im")):
            arrays.update((f"{name}.{suffix}", src[name][..., part, :]) for name in group)
    meta = (to_lines(model.config) + to_lines(model.toggles)).encode()
    arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
    write_arrays(path, arrays)


def load_checkpoint(path) -> CMixerModel:
    """Read a ``save_checkpoint`` file, popping each ``.re``/``.im`` pair into one buffer.
    A ``meta`` without toggle lines (an older checkpoint) loads with ``Toggles()``."""
    arrays = read_arrays(path)
    if "meta" not in arrays:
        raise FormatError(f"{path}: checkpoint is missing its 'meta' entry")
    config_types, toggle_types = field_types(CMixerConfig), field_types(Toggles)
    meta = parse_lines(bytes(arrays.pop("meta")).decode(), {**config_types, **toggle_types})
    config = CMixerConfig(**{k: v for k, v in meta.items() if k in config_types})
    for group in _complex_groups(config):
        for name, shape in group.items():
            if name in arrays:  # the join would overwrite it unread
                raise FormatError(f"{path}: checkpoint entry {name!r} is not split into .re/.im")
            for entry in (f"{name}.re", f"{name}.im"):
                if entry not in arrays:
                    raise FormatError(f"{path}: checkpoint is missing its {entry!r} entry")
                if arrays[entry].shape != shape:
                    raise DimensionError(f"{entry}: shape {arrays[entry].shape}, expected {shape}")
            arrays[name] = np.stack((arrays.pop(f"{name}.re"), arrays.pop(f"{name}.im")), axis=-2)
    model = CMixerModel(config, params=arrays)
    model.toggles = Toggles(**{k: v for k, v in meta.items() if k in toggle_types})
    return model
