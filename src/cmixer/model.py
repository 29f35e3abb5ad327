"""The complex mixer network and its learned-noise input stage.

The classifier runs entirely on complex features carried as (re, im)
tensor pairs:

1. a small real MLP reads the flattened image and emits two scalars,
   mapped to ``mu = tanh(.)`` and ``sigma = 0.5*(1 + tanh(.))``;
2. an image-shaped Gaussian sample ``mu + sigma * eps`` becomes the
   imaginary part of the input (the real part is the image itself), so
   gradients reach the noise generator through the reparameterized
   sample;
3. the complex image is cut into non-overlapping patches, linearly
   embedded, and passed through mixer blocks that alternate mixing
   across the patch sequence and across channels, with CReLU
   activations and per-part layer norms;
4. a bounded real score comes out of ``tanh(re + im)`` applied to the
   head output, so every logit lives in (-1, 1).

Parameters are kept in a flat ``{name: ndarray}`` dict; complex weights
are two independent real buffers with ``.re`` / ``.im`` name suffixes.
That makes optimizers, EMA shadows, and checkpoints trivial dict
operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import ComplexTensor, Tape, Tensor, complex_affine, crelu
from .errors import ContractError, DimensionError, FormatError
from .npzio import read_arrays, write_arrays

__all__ = [
    "CMixerConfig",
    "Toggles",
    "CMixerModel",
    "sample_incentive",
    "patchify",
    "unpatchify",
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
        for name in ("hidden", "seq", "patch", "token_hidden", "channel_hidden",
                     "num_classes", "in_channels", "image_side"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1")
        if self.image_side % self.patch != 0:
            raise ContractError(
                f"image side {self.image_side} not divisible by patch {self.patch}"
            )
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
              patch: int = 4) -> "CMixerConfig":
        seq = (image_side // patch) ** 2
        return cls(
            num_layers=num_layers,
            hidden=hidden,
            seq=seq,
            patch=patch,
            token_hidden=2 * seq,
            channel_hidden=2 * hidden,
            num_classes=num_classes,
            in_channels=in_channels,
            image_side=image_side,
        )

    def to_lines(self) -> str:
        return "".join(f"{k}={getattr(self, k)}\n" for k in self.__dataclass_fields__)

    @classmethod
    def from_lines(cls, text: str) -> "CMixerConfig":
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key not in cls.__dataclass_fields__:
                raise FormatError(f"unknown config field {key!r} in checkpoint")
            kwargs[key] = int(value)
        return cls(**kwargs)


def param_shapes(config: CMixerConfig) -> dict[str, tuple]:
    """Every stored buffer and its shape, in a fixed order."""
    c, s = config.hidden, config.seq
    ds, dc = config.token_hidden, config.channel_hidden
    shapes: dict[str, tuple] = {
        "incentive.hidden.weight": (config.flat_dim, INCENTIVE_HIDDEN),
        "incentive.hidden.bias": (INCENTIVE_HIDDEN,),
        "incentive.mu.weight": (INCENTIVE_HIDDEN, 1),
        "incentive.mu.bias": (1,),
        "incentive.sigma.weight": (INCENTIVE_HIDDEN, 1),
        "incentive.sigma.bias": (1,),
    }
    for part in ("re", "im"):
        shapes[f"patch_embed.weight.{part}"] = (c, config.patch_dim)
        shapes[f"patch_embed.bias.{part}"] = (c,)
    for i in range(config.num_layers):
        for part in ("re", "im"):
            shapes[f"block{i}.ln1.gamma.{part}"] = (c,)
            shapes[f"block{i}.ln1.beta.{part}"] = (c,)
            shapes[f"block{i}.token1.weight.{part}"] = (ds, s)
            shapes[f"block{i}.token2.weight.{part}"] = (s, ds)
            shapes[f"block{i}.ln2.gamma.{part}"] = (c,)
            shapes[f"block{i}.ln2.beta.{part}"] = (c,)
            shapes[f"block{i}.channel1.weight.{part}"] = (dc, c)
            shapes[f"block{i}.channel2.weight.{part}"] = (c, dc)
    for part in ("re", "im"):
        shapes[f"head.weight.{part}"] = (config.num_classes, c)
        shapes[f"head.bias.{part}"] = (config.num_classes,)
        shapes[f"ssl_head.weight.{part}"] = (SSL_DIM, c)
        shapes[f"ssl_head.bias.{part}"] = (SSL_DIM,)
    return shapes


def _glorot(rng: np.random.Generator, shape: tuple, gain: float = 1.0) -> np.ndarray:
    fan_out, fan_in = shape[0], shape[-1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(config: CMixerConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot weights, zero biases, unit layer-norm gains.

    Complex weight pairs are drawn at 1/sqrt(2) of the Glorot limit
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
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".bias") or ".bias." in name or ".beta." in name:
            params[name] = np.zeros(shape)
        elif ".gamma." in name:
            params[name] = np.ones(shape)
        elif name.startswith(("incentive.mu", "incentive.sigma")):
            params[name] = np.zeros(shape)
        elif name.endswith((".re", ".im")):
            gain = 1.0 / np.sqrt(2.0)
            if ".token2." in name or ".channel2." in name:
                gain *= branch_gain
            params[name] = _glorot(rng, shape, gain=gain)
        else:
            params[name] = _glorot(rng, shape)
    return params


def param_count(config: CMixerConfig) -> int:
    """Total stored scalars; re and im buffers count separately."""
    return int(sum(np.prod(s) for s in param_shapes(config).values()))


def sample_incentive(
    image: Tensor | np.ndarray,
    params: dict[str, Tensor],
    epsilon: np.ndarray,
) -> ComplexTensor:
    """Fuse an image with its learned noise sample into a complex input.

    The real part is the image; the imaginary part is ``mu + sigma*eps``
    with per-image scalars mu and sigma broadcast over all pixels, so
    gradients flow to the generator through the reparameterized sample.
    ``epsilon`` must be standard normal, drawn by the caller, and shaped
    like the image.
    """
    image = engine.constant(image)
    single = image.ndim == 3
    if single:
        image = image.reshape((1, *image.shape))
    if image.ndim != 4:
        raise DimensionError(f"expected (batch, ch, H, W) image, got {image.shape}")
    eps = np.asarray(epsilon, dtype=np.float64)
    if single and eps.ndim == 3:
        eps = eps[None]
    if eps.shape != image.shape:
        raise DimensionError(f"epsilon shape {eps.shape} != image shape {image.shape}")
    b = image.shape[0]
    flat = image.reshape((b, image.size // b))
    hidden = engine.relu(
        engine.matmul(flat, params["incentive.hidden.weight"])
        + params["incentive.hidden.bias"]
    )
    mu = engine.tanh(
        engine.matmul(hidden, params["incentive.mu.weight"]) + params["incentive.mu.bias"]
    )
    sigma = engine.mul(
        engine.tanh(
            engine.matmul(hidden, params["incentive.sigma.weight"])
            + params["incentive.sigma.bias"]
        )
        + 1.0,
        0.5,
    )
    mu4 = mu.reshape((b, 1, 1, 1))
    sigma4 = sigma.reshape((b, 1, 1, 1))
    imag = mu4 + sigma4 * Tensor(eps)
    out = ComplexTensor(image, imag)
    return out.reshape(eps.shape[1:]) if single else out


def patchify(h: ComplexTensor, patch: int) -> ComplexTensor:
    """Cut (..., ch, H, W) into a row-major sequence of flattened patches.

    Output is (..., S, patch*patch*ch) with S = (H/P)*(W/P); each row is
    one patch flattened in (ch, P, P) order. Invertible by
    ``unpatchify``.
    """

    def one(t: Tensor) -> Tensor:
        single = t.ndim == 3
        if single:
            t = t.reshape((1, *t.shape))
        if t.ndim != 4:
            raise DimensionError(f"expected (batch, ch, H, W), got {t.shape}")
        b, ch, hgt, wid = t.shape
        if hgt % patch or wid % patch:
            raise DimensionError(f"image {hgt}x{wid} not divisible by patch {patch}")
        hp, wp = hgt // patch, wid // patch
        t = t.reshape((b, ch, hp, patch, wp, patch))
        t = t.transpose((0, 2, 4, 1, 3, 5))
        t = t.reshape((b, hp * wp, ch * patch * patch))
        return t.reshape((hp * wp, ch * patch * patch)) if single else t

    return ComplexTensor(one(h.re), one(h.im))


def unpatchify(h: ComplexTensor, patch: int, ch: int, height: int, width: int) -> ComplexTensor:
    """Inverse of ``patchify`` for the stated original dimensions."""

    def one(t: Tensor) -> Tensor:
        single = t.ndim == 2
        if single:
            t = t.reshape((1, *t.shape))
        b = t.shape[0]
        hp, wp = height // patch, width // patch
        if t.shape[1] != hp * wp or t.shape[2] != ch * patch * patch:
            raise DimensionError(f"patch sequence {t.shape} does not match target image")
        t = t.reshape((b, hp, wp, ch, patch, patch))
        t = t.transpose((0, 3, 1, 4, 2, 5))
        t = t.reshape((b, ch, height, width))
        return t.reshape((ch, height, width)) if single else t

    return ComplexTensor(one(h.re), one(h.im))


def _complex_layernorm(x: ComplexTensor, p: dict[str, Tensor], prefix: str) -> ComplexTensor:
    # re and im are normalized independently, each with its own gain/shift
    return ComplexTensor(
        engine.layernorm(x.re, p[f"{prefix}.gamma.re"], p[f"{prefix}.beta.re"], axis=-1),
        engine.layernorm(x.im, p[f"{prefix}.gamma.im"], p[f"{prefix}.beta.im"], axis=-1),
    )


def _affine(x: ComplexTensor, p: dict[str, Tensor], prefix: str,
            bias: bool = False, axis: int = -2) -> ComplexTensor:
    b = None
    if bias:
        b = ComplexTensor(p[f"{prefix}.bias.re"], p[f"{prefix}.bias.im"])
    return complex_affine(p[f"{prefix}.weight.re"], p[f"{prefix}.weight.im"], x, bias=b, axis=axis)


def mixer_block_forward(x: ComplexTensor, params: dict[str, Tensor], prefix: str) -> ComplexTensor:
    """One mixer layer on a (..., S, C) complex sequence.

    Token mixing acts across the patch sequence of each channel, channel
    mixing across the channels of each patch; both sit behind skip
    connections, so a zero-weight block is the identity.
    """
    normed = _complex_layernorm(x, params, f"{prefix}.ln1")
    token = _affine(crelu(_affine(normed, params, f"{prefix}.token1")), params, f"{prefix}.token2")
    u = x + token
    normed2 = _complex_layernorm(u, params, f"{prefix}.ln2")
    mixed = _affine(crelu(_affine(normed2, params, f"{prefix}.channel1", axis=-1)),
                    params, f"{prefix}.channel2", axis=-1)
    return u + mixed


def _open_unit(t: Tensor) -> Tensor:
    # float64 tanh rounds to exactly +-1 for |x| beyond ~19; nudge one ulp
    # inside so the open-interval contract holds. The true derivative
    # there is ~4e-16, so passing the gradient through unchanged is exact
    # to working precision.
    hi = np.nextafter(1.0, 0.0)
    out = np.clip(t.data, -hi, hi)

    def backprop(g):
        t._accumulate(g)

    return Tensor(out, (t,), backprop, "open_unit")


def pearson_project(y: ComplexTensor, use_real: bool = True, use_imag: bool = True) -> Tensor:
    """Map complex features to bounded real scores via tanh.

    The full head is ``tanh(re + im)``; the ablated variants keep only
    one part. Output is strictly inside (-1, 1).
    """
    if use_real and use_imag:
        return _open_unit(engine.tanh(y.re + y.im))
    if use_real:
        return _open_unit(engine.tanh(y.re))
    if use_imag:
        return _open_unit(engine.tanh(y.im))
    raise ContractError("projection must keep at least one part")


class CMixerModel:
    """Complex mixer classifier with a learned-noise input stage.

    Parameters live in ``self.params`` as plain float64 arrays; a
    forward pass optionally registers them on a ``Tape`` to make them
    trainable leaves for that step. ``scores`` is the graph-free pass.
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

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def forward(
        self,
        images: np.ndarray,
        *,
        eps: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        head: str = "classify",
        toggles: Toggles | None = None,
        tape: Tape | None = None,
        params: dict[str, np.ndarray | Tensor] | None = None,
    ) -> Tensor:
        """Score a float batch of shape (batch, ch, H, W).

        ``eps`` injects the noise sample (tests freeze it); otherwise it
        is drawn from ``rng``. ``params`` substitutes a foreign buffer set
        for ``self.params`` (an EMA shadow, or leaf tensors a caller made).
        With ``tape`` given, every buffer is registered on it as a leaf,
        so ``params`` must then hold arrays; without one, arrays become
        constants and tensors are used as they are. Either way the graph
        is built unless the call runs inside ``engine.no_grad``.
        """
        toggles = toggles if toggles is not None else Toggles()
        cfg = self.config
        x = np.asarray(images, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != (cfg.in_channels, cfg.image_side, cfg.image_side):
            raise DimensionError(
                f"expected (batch, {cfg.in_channels}, {cfg.image_side}, {cfg.image_side}), got {x.shape}"
            )
        raw = params if params is not None else self.params
        if tape is None:
            p = {k: engine.constant(v) for k, v in raw.items()}
        else:
            p = {k: tape.leaf(k, v) for k, v in raw.items()}

        if toggles.il:
            if eps is None:
                if rng is None:
                    raise ContractError("forward needs eps or rng to sample noise")
                eps = rng.standard_normal(x.shape)
            h = sample_incentive(Tensor(x), p, eps)
        else:
            h = ComplexTensor(Tensor(x), Tensor(np.zeros_like(x)))

        h = patchify(h, cfg.patch)
        h = _affine(h, p, "patch_embed", bias=True, axis=-1)
        for i in range(cfg.num_layers):
            h = mixer_block_forward(h, p, f"block{i}")
        pooled = h.mean(axis=1)  # over the patch sequence
        if head not in ("classify", "ssl"):
            raise ContractError(f"unknown head {head!r}")
        prefix = "head" if head == "classify" else "ssl_head"
        out = _affine(pooled, p, prefix, bias=True, axis=-1)
        return pearson_project(out, use_real=toggles.p_r, use_imag=toggles.p_i)

    def scores(
        self,
        images: np.ndarray,
        *,
        eps: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        toggles: Toggles | None = None,
        head: str = "classify",
        params: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """``forward`` under ``engine.no_grad``, returned as a plain array.

        No graph is built: each intermediate is freed as soon as the
        forward drops it. The values are bitwise those of ``forward`` for
        the same ``eps``.
        """
        with engine.no_grad():
            return self.forward(
                images, eps=eps, rng=rng, head=head, toggles=toggles, params=params
            ).data


def save_checkpoint(path, model: CMixerModel, params: dict[str, np.ndarray] | None = None) -> None:
    """Write parameters plus the architecture config to one NPZ file.

    Each buffer is one array entry under its parameter name; the config
    rides along as a ``meta`` entry of key=value lines.
    """
    arrays = dict(params if params is not None else model.params)
    meta = model.config.to_lines().encode()
    arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
    write_arrays(path, arrays)


def load_checkpoint(path) -> CMixerModel:
    arrays = read_arrays(path)
    if "meta" not in arrays:
        raise FormatError(f"{path}: checkpoint is missing its 'meta' entry")
    config = CMixerConfig.from_lines(bytes(arrays.pop("meta")).decode())
    return CMixerModel(config, params=arrays)
