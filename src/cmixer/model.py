"""The complex mixer network and its learned-noise input stage.

The classifier runs entirely on complex features, each a packed
``engine.ComplexTensor`` whose ``(..., 2, n)`` buffer holds the real and
the imaginary part side by side, so every complex step is one engine op:

1. a small real MLP reads the flattened image and emits two scalars,
   mapped to ``mu = tanh(.)`` and ``sigma = 0.5*(1 + tanh(.))``;
2. an image-shaped Gaussian sample ``mu + sigma * eps`` becomes the
   imaginary part of the input (the real part is the image itself), so
   gradients reach the noise generator through the reparameterized
   sample;
3. the complex image is cut into non-overlapping patches, linearly
   embedded, and passed through mixer blocks that alternate mixing
   across the patch sequence and across channels, with CReLU
   activations and per-part layer norms (one ``engine.layernorm`` over
   the packed buffer, with the two parts' gains and shifts packed too);
4. a bounded real score comes out of ``tanh(re + im)`` applied to the
   head output, so every logit lives in (-1, 1).

Parameters are kept in a flat ``{name: ndarray}`` dict, which makes
optimizers and EMA shadows trivial dict operations. Each complex one is a
single buffer in the ``(..., 2, n)`` layout of a ``ComplexTensor``; only
the six ``incentive.*`` buffers are real. A checkpoint file stores the
parts of a complex buffer as two entries, ``<name>.re`` and ``<name>.im``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import engine
from .engine import ComplexTensor, Tape, Tensor, complex_affine
from .errors import ContractError, DimensionError, FormatError
from .npzio import read_arrays, write_arrays

__all__ = [
    "CMixerConfig",
    "Toggles",
    "CMixerModel",
    "incentive_mu_sigma",
    "sample_incentive",
    "patchify",
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

    def to_lines(self) -> str:
        return to_lines(self)

    @classmethod
    def from_lines(cls, text: str) -> "CMixerConfig":
        return cls(**parse_lines(text, field_types(cls)))


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


def incentive_mu_sigma(
    images: Tensor | np.ndarray, params: dict[str, Tensor | np.ndarray]
) -> tuple[Tensor, Tensor]:
    """The incentive MLP: per-image ``mu = tanh(.)`` and ``sigma = 0.5*(1 + tanh(.))``.

    ``images`` is a (batch, ...) stack; each image is read flattened.
    Both outputs have shape (batch, 1).
    """
    images = engine.constant(images)
    b = images.shape[0]
    flat = images.reshape((b, images.size // b))
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
    return mu, sigma


def sample_incentive(
    images: Tensor | np.ndarray,
    params: dict[str, Tensor],
    epsilon: np.ndarray,
) -> ComplexTensor:
    """Fuse a (batch, ch, H, W) image batch with its learned noise sample.

    The real part is the image; the imaginary part is ``mu + sigma*eps``
    with per-image scalars mu and sigma broadcast over all pixels, so
    gradients flow to the generator through the reparameterized sample.
    ``epsilon`` must be standard normal, drawn by the caller, and shaped
    like the batch.
    """
    images = engine.constant(images)
    if images.ndim != 4:
        raise DimensionError(f"expected (batch, ch, H, W) images, got {images.shape}")
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.shape != images.shape:
        raise DimensionError(f"epsilon shape {eps.shape} != image shape {images.shape}")
    b = images.shape[0]
    mu, sigma = incentive_mu_sigma(images, params)
    imag = mu.reshape((b, 1, 1, 1)) + sigma.reshape((b, 1, 1, 1)) * Tensor(eps)
    return ComplexTensor(images, imag)


def patchify(h: ComplexTensor, patch: int) -> ComplexTensor:
    """Cut a (batch, ch, H, W) batch into row-major sequences of flattened patches.

    Output is (batch, S, patch*patch*ch) with S = (H/P)*(W/P); each row
    is one patch flattened in (ch, P, P) order.
    """
    z = h.z  # (batch, ch, H, 2, W)
    if z.ndim != 5:
        raise DimensionError(f"expected (batch, ch, H, W), got {h.shape}")
    b, ch, hgt, _, wid = z.shape
    if hgt % patch or wid % patch:
        raise DimensionError(f"image {hgt}x{wid} not divisible by patch {patch}")
    hp, wp = hgt // patch, wid // patch
    z = z.reshape((b, ch, hp, patch, 2, wp, patch))
    z = z.transpose((0, 2, 5, 4, 1, 3, 6))
    return ComplexTensor.packed(z.reshape((b, hp * wp, 2, ch * patch * patch)))


def _complex_layernorm(x: ComplexTensor, p: dict[str, Tensor], prefix: str) -> ComplexTensor:
    # re and im are normalized independently, each by its row of the (2, n) gain and shift
    return ComplexTensor.packed(engine.layernorm(x.z, p[f"{prefix}.gamma"], p[f"{prefix}.beta"]))


def _affine(x: ComplexTensor, p: dict[str, Tensor], prefix: str,
            bias: bool = False, axis: int = -2, crelu: bool = False) -> ComplexTensor:
    b = ComplexTensor.packed(p[f"{prefix}.bias"]) if bias else None
    return complex_affine(ComplexTensor.packed(p[f"{prefix}.weight"]), x, bias=b,
                          axis=axis, crelu=crelu)


def mixer_block_forward(x: ComplexTensor, params: dict[str, Tensor], prefix: str) -> ComplexTensor:
    """One mixer layer on a (..., S, C) complex sequence.

    Token mixing acts across the patch sequence of each channel, channel
    mixing across the channels of each patch; both sit behind skip
    connections, so a zero-weight block is the identity.
    """
    # no intermediate is bound to a name, so without a graph each one is
    # freed as soon as the next op has read it; token1 and channel1 apply
    # their CReLU inside the affine, so no pre-activation is stored
    u = x + _affine(
        _affine(_complex_layernorm(x, params, f"{prefix}.ln1"), params, f"{prefix}.token1",
                crelu=True),
        params, f"{prefix}.token2",
    )
    return u + _affine(
        _affine(_complex_layernorm(u, params, f"{prefix}.ln2"), params, f"{prefix}.channel1",
                axis=-1, crelu=True),
        params, f"{prefix}.channel2", axis=-1,
    )


def _open_unit(t: Tensor) -> Tensor:
    # float64 tanh rounds to exactly +-1 for |x| beyond ~19; nudge one ulp
    # inside so the open-interval contract holds. The true derivative
    # there is ~4e-16, so passing the gradient through unchanged is exact
    # to working precision.
    hi = np.nextafter(1.0, 0.0)
    return engine._exempt(np.clip(t.data, -hi, hi), (t,), t._accumulate, "open_unit")


def pearson_project(y: ComplexTensor, use_real: bool = True, use_imag: bool = True) -> Tensor:
    """Map complex features to bounded real scores via tanh.

    The full head is ``tanh(re + im)``; the ablated variants keep only
    one part. Output is strictly inside (-1, 1).
    """
    if use_real and use_imag:
        return _open_unit(engine.tanh(y.z.sum(axis=-2)))  # re + im, one op
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
        rng: np.random.Generator | None = None,
        head: str = "classify",
        tape: Tape | None = None,
        params: dict[str, np.ndarray | Tensor] | None = None,
    ) -> Tensor:
        """Score a float batch of shape (batch, ch, H, W) under ``self.toggles``.

        The batch is the only input form (``train._to_model_layout`` makes
        it from uint8 images); any other shape is a ``DimensionError``.
        ``eps`` injects the noise sample (tests freeze it); otherwise it
        is drawn from ``rng``. ``params`` substitutes a foreign buffer set
        for ``self.params`` (an EMA shadow, or leaf tensors a caller made).
        With ``tape`` given, every buffer is registered on it as a leaf,
        so ``params`` must then hold arrays; without one, arrays become
        constants and tensors are used as they are. Either way the graph
        is built unless the call runs inside ``engine.no_grad``.
        """
        if head not in ("classify", "ssl"):  # before any of the trunk's work
            raise ContractError(f"unknown head {head!r}")
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

        if self.toggles.il:
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
        prefix = "head" if head == "classify" else "ssl_head"
        out = _affine(pooled, p, prefix, bias=True, axis=-1)
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

        No graph is built: each intermediate is freed as soon as the
        forward drops it. The values are bitwise those of ``forward`` for
        the same ``eps``.
        """
        with engine.no_grad():
            return self.forward(images, eps=eps, rng=rng, head=head, params=params).data


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
