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
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .data import AugmentSpec, DatasetBundle, MaskSpec, Split, TaskKind, augment_target, random_mask
from .engine import Tape, Tensor
from .errors import ContractError, NumericError
from .model import CMixerModel, Toggles

__all__ = [
    "TrainConfig",
    "LrSchedule",
    "AdamWState",
    "SgdMomentumState",
    "EmaState",
    "bce_with_logits",
    "cross_entropy",
    "ssl_loss",
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


@dataclass
class TrainConfig:
    """Settings for one pretrain+finetune run."""

    pretrain_epochs: int = 10
    pretrain_batch_size: int = 500
    pretrain_lr: float = 1e-3
    pretrain_weight_decay: float = 0.05
    pretrain_warmup_steps: int = 1000
    epochs: int = 100
    batch_size: int = 512
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    warmup_steps: int = 100
    clip_norm: float = 1.0
    mask_rate: float = 0.2
    temperature: float = 0.5
    ema_decay: float = 0.99
    seed: int = 0
    toggles: Toggles = field(default_factory=Toggles)
    augment: AugmentSpec = field(default_factory=AugmentSpec)

    def __post_init__(self):
        if self.batch_size < 1 or self.pretrain_batch_size < 1:
            raise ContractError("batch sizes must be at least 1")
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ContractError("ema decay must be in [0,1]")


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


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy from logits, in the stable softplus form.

    ``softplus(z) - z*y`` equals ``-[y log s(z) + (1-y) log(1-s(z))]``
    and never overflows. Targets must be 0/1.
    """
    logits = engine.constant(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ContractError(f"targets {t.shape} != logits {logits.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ContractError("bce targets must be exactly 0 or 1")
    return engine.tmean(engine.sub(engine.softplus(logits), engine.mul(logits, t)))


def cross_entropy(logits, labels) -> Tensor:
    """Mean softmax cross-entropy against integer class labels."""
    logits = engine.constant(logits)
    if logits.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got {logits.shape}")
    y = np.asarray(labels).reshape(-1)
    n, k = logits.shape
    if y.shape[0] != n:
        raise ContractError(f"{y.shape[0]} labels for {n} rows of logits")
    if y.min(initial=0) < 0 or y.max(initial=0) >= k:
        raise ContractError(f"labels outside [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    logp = engine.log_softmax(logits, axis=1)
    return engine.mul(engine.tsum(engine.mul(logp, onehot)), -1.0 / n)


def ssl_loss(anchor_out, target_out, temperature: float = 0.5) -> Tensor:
    """Cross-entropy H(q, p) between the two tower distributions.

    q is the temperature softmax of the target tower and is treated as a
    constant (stop-gradient); p comes from the anchor tower, so the
    gradient flows only through it.
    """
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    anchor_out = engine.constant(anchor_out)
    target = target_out.data if isinstance(target_out, Tensor) else np.asarray(target_out)
    if target.shape != anchor_out.shape:
        raise ContractError(f"target {target.shape} != anchor {anchor_out.shape}")
    scaled = target / temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    q = np.exp(scaled)
    q /= q.sum(axis=1, keepdims=True)
    logp = engine.log_softmax(engine.mul(anchor_out, 1.0 / temperature), axis=1)
    n = anchor_out.shape[0]
    return engine.mul(engine.tsum(engine.mul(logp, q)), -1.0 / n)


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
    """shadow <- decay*shadow + (1-decay)*params, every buffer."""
    if set(ema.shadow) != set(params):
        raise ContractError("ema shadow and parameters have different buffers")
    d = ema.decay
    for name, value in params.items():
        if ema.shadow[name].shape != value.shape:
            raise ContractError(f"ema buffer {name} shape mismatch")
        ema.shadow[name] = d * ema.shadow[name] + (1.0 - d) * value


def clip_global_norm(
    grads: dict[str, np.ndarray], max_norm: float = 1.0
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the (possibly scaled) gradients and the pre-clip norm.
    """
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


@dataclass
class AdamWState:
    """Decoupled-weight-decay Adam moments, one pair of buffers per parameter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    """One bias-corrected AdamW update, applied in place."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for name in sorted(params):
        g = grads[name]
        if g.shape != params[name].shape:
            raise ContractError(f"gradient for {name} has wrong shape")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        mhat = state.m[name] / bias1
        vhat = state.v[name] / bias2
        if state.weight_decay:
            params[name] *= 1.0 - lr * state.weight_decay
        params[name] -= lr * mhat / (np.sqrt(vhat) + state.eps)


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
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        state.velocity[name] = state.momentum * state.velocity[name] + g
        params[name] -= lr * state.velocity[name]


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
    """(B,H,W,ch) uint8 -> (B,ch,H,W) float in [0,1]."""
    return np.transpose(images_u8.astype(np.float64) / 255.0, (0, 3, 1, 2))


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def loss_for_task(task: TaskKind, logits: Tensor, labels: np.ndarray, num_classes: int) -> Tensor:
    """Multilabel and binary tasks use BCE (binary as one-hot two-label);
    multiclass and ordinal use softmax cross-entropy."""
    if task is TaskKind.MULTILABEL:
        return bce_with_logits(logits, labels)
    if task is TaskKind.BINARY:
        onehot = np.zeros((len(labels), num_classes))
        onehot[np.arange(len(labels)), np.asarray(labels).reshape(-1)] = 1.0
        return bce_with_logits(logits, onehot)
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
    the shadow tracks the live weights after every step. With ``ssl`` off this is a no-op; with
    ``rm`` off the masking stage is skipped.
    """
    ema = EmaState.init(model.params, config.ema_decay)
    if not config.toggles.ssl:
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
    mask = MaskSpec(config.mask_rate)
    losses: list[float] = []
    rows: list[LogRow] = []
    step = 0
    for epoch in range(config.pretrain_epochs):
        for batch in _batches(len(train_idx), config.pretrain_batch_size, rng):
            raw = bundle.images[train_idx[batch]]
            anchor = raw.astype(np.float64) / 255.0
            target = np.stack(
                [augment_target(img, config.augment, rng) for img in raw]
            ).astype(np.float64) / 255.0
            if config.toggles.rm:
                anchor = random_mask(anchor, mask, rng)
                target = random_mask(target, mask, rng)
            anchor = np.transpose(anchor, (0, 3, 1, 2))
            target = np.transpose(target, (0, 3, 1, 2))
            eps_anchor = rng.standard_normal(anchor.shape)
            eps_target = rng.standard_normal(target.shape)

            tape = Tape()
            out_anchor = model.forward(
                anchor, eps=eps_anchor, head="ssl", toggles=config.toggles, tape=tape
            )
            out_target = model.scores(
                target, eps=eps_target, head="ssl", toggles=config.toggles,
                params=ema.shadow,
            )
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
    """
    from .metrics import evaluate  # local import; metrics also imports data

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
            out = model.forward(images, eps=eps, toggles=config.toggles, tape=tape)
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
            report = evaluate(
                model, bundle, Split.VAL,
                rng=np.random.default_rng(config.seed + epoch),
                toggles=config.toggles,
            )
            rows.append((step, epoch, "val", "acc", report.acc))
            rows.append((step, epoch, "val", "auc", report.auc))
    return FinetuneResult(model, rows)
