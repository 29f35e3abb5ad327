"""Losses, optimizers, schedules, and the two training loops.

Pre-training is masked dual-view self-distillation: the anchor view is
the masked image through the live model, the target view is the masked
augmented image through an EMA shadow of the model, and the loss is the
cross-entropy between their temperature-softmaxed projections with a
stop-gradient on the target side. Fine-tuning is plain supervised
training with momentum SGD, global-norm gradient clipping, and a
warmup+cosine schedule; it uses no augmentation and no early stopping.

Every random decision (batch order, noise draws, masks, augmentations)
comes from the single generator threaded through the loop, so a fixed
seed gives a bitwise-identical trajectory at 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .data import DatasetBundle, Split, TaskKind, augment_target, label_columns, random_mask
from .engine import Tape, Tensor
from .errors import ContractError, NumericError
from .model import CMixerModel, field_types

__all__ = [
    "TrainConfig",
    "LrSchedule",
    "AdamWState",
    "SgdMomentumState",
    "EmaState",
    "bce_with_logits",
    "cross_entropy",
    "ssl_loss",
    "softmax",
    "ema_update",
    "clip_global_norm",
    "adamw_step",
    "sgd_momentum_step",
    "lr_at",
    "pretrain",
    "finetune",
    "LogRow",
    "PretrainResult",
    "FinetuneResult",
]

# fixed, not settings: AdamW's moment decays and floor
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Settings for one pretrain+finetune run. The ablation toggles are not
    settings of a run: they live on the model (``CMixerModel.toggles``).

    ``seed`` seeds only ``finetune``'s validation noise, ``default_rng(seed + epoch)``;
    batch order, noise, masks and augmentations come from the generator the
    caller passes (the CLI and the estimator make it from ``seed`` too).
    """

    pretrain_epochs: int = 10
    pretrain_batch_size: int = 500
    pretrain_lr: float = 1e-3
    pretrain_weight_decay: float = 0.05
    pretrain_warmup_steps: int = 1000
    epochs: int = 100
    batch_size: int = 512
    lr: float = 0.01
    momentum: float = 0.9
    warmup_steps: int = 100
    clip_norm: float = 1.0
    mask_rate: float = 0.2
    temperature: float = 0.5
    ema_decay: float = 0.99
    seed: int = 0

    def __post_init__(self):
        for key, kind in field_types(TrainConfig).items():  # NaN passes the checks below
            if kind is float and not math.isfinite(getattr(self, key)):
                raise ContractError(f"{key} must be finite, got {getattr(self, key)}")
        if self.batch_size < 1 or self.pretrain_batch_size < 1:
            raise ContractError("batch_size and pretrain_batch_size must be at least 1")
        for key in ("lr", "pretrain_lr", "epochs", "pretrain_epochs", "warmup_steps",
                    "pretrain_warmup_steps", "pretrain_weight_decay", "seed"):
            if getattr(self, key) < 0:
                raise ContractError(f"{key} must be nonnegative, got {getattr(self, key)}")
        if not 0.0 <= self.momentum <= 1.0:
            raise ContractError(f"momentum must be in [0,1], got {self.momentum}")
        if self.clip_norm <= 0:
            raise ContractError(f"clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ContractError(f"mask_rate must be in [0,1], got {self.mask_rate}")
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ContractError("ema_decay must be in [0,1]")


@dataclass
class LrSchedule:
    """Linear warmup to ``peak`` followed by linear or cosine decay to zero."""

    kind: str
    peak: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.kind not in ("warmup-linear-decay", "warmup-cosine"):
            raise ContractError(f"unknown schedule kind {self.kind!r}")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ContractError(
                f"need 0 <= warmup ({self.warmup_steps}) <= total ({self.total_steps})"
            )
        if self.peak < 0:
            raise ContractError("peak lr must be nonnegative")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at ``step``; linear 0->peak then decay to 0 at the end."""
    if not 0 <= step <= schedule.total_steps:
        raise ContractError(
            f"step {step} outside [0, {schedule.total_steps}]"
        )
    if schedule.warmup_steps > 0 and step < schedule.warmup_steps:
        return schedule.peak * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    if span == 0:
        return schedule.peak
    frac = (step - schedule.warmup_steps) / span
    if schedule.kind == "warmup-linear-decay":
        return schedule.peak * (1.0 - frac)
    return schedule.peak * 0.5 * (1.0 + math.cos(math.pi * frac))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _shifted_exp(x: np.ndarray):
    """``x`` less its max along the last axis, its exponentials ``e`` and their sum ``s``."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.sum(e, axis=-1, keepdims=True)


def softmax(x) -> np.ndarray:
    """Softmax of a plain array along its last axis, ``e / s``; builds no graph."""
    _, e, s = _shifted_exp(np.asarray(x, dtype=np.float64))
    return e / s


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy from logits, in the stable softplus form.

    ``softplus(z) - z*y`` equals ``-[y log s(z) + (1-y) log(1-s(z))]``
    and never overflows. Targets must be 0/1. One node, whose only parent
    is ``logits``; the backward is ``(sigmoid(z) - y) / N``, rounded as
    ``s * sigmoid(z) + (-s) * y`` with ``s = g / N``.
    """
    logits = engine.constant(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ContractError(f"targets {t.shape} != logits {logits.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ContractError("bce targets must be exactly 0 or 1")
    z, scale = logits.data, 1.0 / logits.size
    out = np.sum(np.logaddexp(0.0, z) - z * t) * scale

    def backprop(g):
        s = g * scale
        logits._accumulate(s * _sigmoid(z) + (-s) * t, own=True)

    return Tensor(out, (logits,), backprop, "bce_with_logits")


def _soft_cross_entropy(logits: Tensor, q: np.ndarray, inv_t: float) -> Tensor:
    """Mean over rows of H(q, softmax(logits * inv_t)); the targets ``q`` are constants.

    One node, whose only parent is ``logits``. With ``x = logits * inv_t`` the
    value is ``-sum((shifted - log(s)) * q) / n`` and the backward
    ``(softmax(x) - q) * inv_t / n``, rounded as ``gl + (-sum(gl) / s) * e``
    with ``gl = (g * -1/n) * q``, then times ``inv_t``.
    """
    shifted, e, s = _shifted_exp(logits.data * inv_t)
    scale = -1.0 / logits.shape[0]
    out = np.sum((shifted - np.log(s)) * q) * scale

    def backprop(g):
        gl = (g * scale) * q
        gl = gl + (-np.sum(gl, axis=-1, keepdims=True) / s) * e
        gl *= inv_t
        logits._accumulate(gl, own=True)

    return Tensor(out, (logits,), backprop, "soft_cross_entropy")


def cross_entropy(logits, labels) -> Tensor:
    """Mean softmax cross-entropy against integer class labels."""
    logits = engine.constant(logits)
    if logits.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got {logits.shape}")
    y = np.asarray(labels).reshape(-1)
    n, k = logits.shape
    if y.shape[0] != n:
        raise ContractError(f"{y.shape[0]} labels for {n} rows of logits")
    return _soft_cross_entropy(logits, label_columns(y, TaskKind.MULTICLASS, k), 1.0)


def ssl_loss(anchor_out, target_out, temperature: float = 0.5) -> Tensor:
    """Cross-entropy H(q, p) between the two tower distributions.

    q is the temperature softmax of the target tower and is treated as a
    constant (stop-gradient); p comes from the anchor tower, so the
    gradient flows only through it. A non-finite target raises
    ``NumericError`` naming ``soft_cross_entropy``, -Inf included, which
    the softmax alone would read as a zero probability.
    """
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    anchor_out = engine.constant(anchor_out)
    target = target_out.data if isinstance(target_out, Tensor) else np.asarray(target_out)
    if target.shape != anchor_out.shape:
        raise ContractError(f"target {target.shape} != anchor {anchor_out.shape}")
    engine._ensure_finite(target, "soft_cross_entropy")
    return _soft_cross_entropy(anchor_out, softmax(target / temperature), 1.0 / temperature)


@dataclass
class EmaState:
    """Shadow copy of the parameters, updated as a convex combination."""

    shadow: dict[str, np.ndarray]
    decay: float

    @classmethod
    def init(cls, params: dict[str, np.ndarray], decay: float) -> "EmaState":
        if not 0.0 <= decay <= 1.0:
            raise ContractError("ema decay must be in [0,1]")
        return cls({k: v.copy() for k, v in params.items()}, decay)


def ema_update(ema: EmaState, params: dict[str, np.ndarray]) -> None:
    """shadow <- decay*shadow + (1-decay)*params, every buffer, in place."""
    if set(ema.shadow) != set(params):
        raise ContractError("ema shadow and parameters have different buffers")
    d = ema.decay
    for name, value in params.items():
        if ema.shadow[name].shape != value.shape:
            raise ContractError(f"ema buffer {name} shape mismatch")
        shadow = ema.shadow[name]  # updated in place, same operation order
        shadow *= d
        shadow += (1.0 - d) * value


def clip_global_norm(
    grads: dict[str, np.ndarray], max_norm: float = 1.0
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the given gradients, scaled in place, and the pre-clip norm.
    """
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads, total


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam moments, one pair of buffers per parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    weight_decay: float = 0.0

    @classmethod
    def init(cls, params: dict[str, np.ndarray], weight_decay: float = 0.0) -> "AdamWState":
        return cls(
            m={k: np.zeros_like(v) for k, v in params.items()},
            v={k: np.zeros_like(v) for k, v in params.items()},
            weight_decay=weight_decay,
        )


def adamw_step(
    state: AdamWState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> None:
    """One bias-corrected AdamW update; parameters and moments change in place."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        g = grads[name]
        if g.shape != params[name].shape:
            raise ContractError(f"gradient for {name} has wrong shape")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
        # in place, in the operation order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*(g*g) and p -= lr * (m/bias1) / (sqrt(v/bias2) + eps),
        # so the values are bitwise those of that out-of-place form
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        sq = g * g
        sq *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += sq
        update = np.divide(m, bias1)
        update *= lr
        den = np.divide(v, bias2, out=sq)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        update /= den
        if state.weight_decay:
            params[name] *= 1.0 - lr * state.weight_decay
        params[name] -= update


@dataclass
class SgdMomentumState:
    """Velocity buffers for momentum SGD."""

    velocity: dict[str, np.ndarray]
    momentum: float = 0.9

    @classmethod
    def init(cls, params: dict[str, np.ndarray], momentum: float = 0.9) -> "SgdMomentumState":
        return cls({k: np.zeros_like(v) for k, v in params.items()}, momentum)


def sgd_momentum_step(
    state: SgdMomentumState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> None:
    """v <- momentum*v + g; p <- p - lr*v, applied in place."""
    for name in sorted(params):
        g = grads[name]
        if g.shape != params[name].shape:
            raise ContractError(f"gradient for {name} has wrong shape")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for {name}")
        velocity = state.velocity[name]  # updated in place, same operation order
        velocity *= state.momentum
        velocity += g
        params[name] -= lr * velocity


LogRow = tuple[int, int, str, str, float]  # step, epoch, split, metric, value


@dataclass
class PretrainResult:
    model: CMixerModel
    ema: dict[str, np.ndarray]
    losses: list[float]
    rows: list[LogRow]


@dataclass
class FinetuneResult:
    model: CMixerModel
    rows: list[LogRow]


def _to_model_layout(images_u8: np.ndarray) -> np.ndarray:
    """(B,H,W,ch) uint8 -> (B,ch,H,W) float in [0,1], the model's one input form.

    Every caller that scores or trains on stored images converts here.
    """
    return np.transpose(images_u8.astype(np.float64) / 255.0, (0, 3, 1, 2))


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def loss_for_task(task: TaskKind, logits: Tensor, labels: np.ndarray, num_classes: int) -> Tensor:
    """Multilabel and binary tasks use BCE on the label columns (binary as
    one-hot two-label); multiclass and ordinal use softmax cross-entropy."""
    if task in (TaskKind.MULTILABEL, TaskKind.BINARY):
        return bce_with_logits(logits, label_columns(labels, task, num_classes))
    return cross_entropy(logits, labels)


def pretrain(
    model: CMixerModel,
    bundle: DatasetBundle,
    config: TrainConfig,
    rng: np.random.Generator,
) -> PretrainResult:
    """Masked dual-view self-supervised pre-training; labels are ignored.

    Per step: the anchor view (masked image) goes through the live
    model, the target view (masked augmented image) through the EMA
    shadow under ``model.scores``, which builds no graph; AdamW with
    linear warmup and linear decay minimizes the view cross-entropy and
    the shadow tracks the live weights after every step. The views are
    masked as uint8 and then converted. The toggles are ``model.toggles``:
    with ``ssl`` off nothing is trained; with ``rm`` off the masking stage
    is skipped.
    """
    ema = EmaState.init(model.params, config.ema_decay)
    if not model.toggles.ssl:
        return PretrainResult(model, ema.shadow, [], [])
    train_idx = bundle.indices(Split.TRAIN_LABELED, Split.TRAIN_UNLABELED)
    if len(train_idx) == 0:
        raise ContractError("pretraining needs a nonempty train split")
    steps_per_epoch = math.ceil(len(train_idx) / config.pretrain_batch_size)
    total_steps = config.pretrain_epochs * steps_per_epoch
    schedule = LrSchedule(
        "warmup-linear-decay",
        config.pretrain_lr,
        min(config.pretrain_warmup_steps, total_steps),
        total_steps,
    )
    opt = AdamWState.init(model.params, weight_decay=config.pretrain_weight_decay)
    losses: list[float] = []
    rows: list[LogRow] = []
    step = 0
    for epoch in range(config.pretrain_epochs):
        for batch in _batches(len(train_idx), config.pretrain_batch_size, rng):
            anchor = bundle.images[train_idx[batch]]
            target = np.stack([augment_target(img, rng) for img in anchor])
            if model.toggles.rm:
                anchor = random_mask(anchor, config.mask_rate, rng)
                target = random_mask(target, config.mask_rate, rng)
            # zeroing a uint8 pixel before the division gives the same float
            anchor = _to_model_layout(anchor)
            target = _to_model_layout(target)
            eps_anchor = rng.standard_normal(anchor.shape)
            eps_target = rng.standard_normal(target.shape)

            tape = Tape()
            out_anchor = model.forward(anchor, eps=eps_anchor, head="ssl", tape=tape)
            out_target = model.scores(target, eps=eps_target, head="ssl", params=ema.shadow)
            loss = ssl_loss(out_anchor, out_target, config.temperature)
            grads = tape.backward(loss)
            adamw_step(opt, model.params, grads, lr_at(schedule, step))
            ema_update(ema, model.params)
            value = float(loss.data.reshape(()))
            losses.append(value)
            rows.append((step, epoch, "train", "ssl_loss", value))
            step += 1
    return PretrainResult(model, ema.shadow, losses, rows)


def finetune(
    model: CMixerModel,
    bundle: DatasetBundle,
    config: TrainConfig,
    rng: np.random.Generator,
) -> FinetuneResult:
    """Supervised fine-tuning on the labeled train split.

    Momentum SGD under a warmup+cosine schedule with global-norm
    gradient clipping; no augmentation and no early stopping. Validation
    ACC/AUC are logged once per epoch when a validation split exists.
    Every pass runs under ``model.toggles``.
    """
    from .metrics import evaluate  # local import; metrics imports this module

    labeled = bundle.indices(Split.TRAIN_LABELED)
    if len(labeled) == 0:
        raise ContractError("fine-tuning needs labeled training samples")
    steps_per_epoch = math.ceil(len(labeled) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    schedule = LrSchedule(
        "warmup-cosine", config.lr, min(config.warmup_steps, total_steps), total_steps
    )
    opt = SgdMomentumState.init(model.params, momentum=config.momentum)
    rows: list[LogRow] = []
    have_val = len(bundle.indices(Split.VAL)) > 0
    step = 0
    for epoch in range(config.epochs):
        for batch in _batches(len(labeled), config.batch_size, rng):
            idx = labeled[batch]
            images = _to_model_layout(bundle.images[idx])
            eps = rng.standard_normal(images.shape)
            tape = Tape()
            out = model.forward(images, eps=eps, tape=tape)
            loss = loss_for_task(bundle.task, out, bundle.labels[idx], bundle.num_classes)
            grads = tape.backward(loss)
            grads, pre_norm = clip_global_norm(grads, config.clip_norm)
            sgd_momentum_step(opt, model.params, grads, lr_at(schedule, step))
            rows.append((step, epoch, "train", "loss", float(loss.data.reshape(()))))
            rows.append(
                (step, epoch, "train", "grad_norm", min(pre_norm, config.clip_norm))
            )
            step += 1
        if have_val:
            report = evaluate(model, bundle, Split.VAL, rng=np.random.default_rng(config.seed + epoch))
            rows.append((step, epoch, "val", "acc", report.acc))
            rows.append((step, epoch, "val", "auc", report.auc))
    return FinetuneResult(model, rows)
