"""Scikit-learn style estimator wrapper around the training pipeline.

``CMixerClassifier`` exposes the usual ``fit`` / ``predict`` /
``predict_proba`` / ``get_params`` / ``set_params`` surface so the
network drops into sklearn pipelines, grid search, and ``clone``. It
accepts image batches of shape (N, H, W) or (N, H, W, ch), uint8 or
floats in [0, 1], and integer class labels; ``pretrain_epochs > 0``
runs masked self-supervised pre-training on the fit images before the
supervised phase.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import engine
from .data import DatasetBundle, Split, TaskKind
from .errors import ContractError, DimensionError
from .metrics import predictions_for_task
from .model import CMixerConfig, CMixerModel
from .train import TrainConfig, _to_model_layout, finetune, pretrain

__all__ = ["CMixerClassifier", "check_images", "check_labels"]


def check_images(X) -> np.ndarray:
    """Validate and normalize an image batch to (N, H, W, ch) uint8."""
    X = np.asarray(X)
    if X.ndim == 3:
        X = X[..., None]
    if X.ndim != 4:
        raise DimensionError(f"expected (N,H,W) or (N,H,W,ch) images, got {X.shape}")
    if len(X) == 0:
        raise ContractError("empty image batch")
    if X.shape[1] != X.shape[2]:
        raise DimensionError(f"images must be square, got {X.shape[1]}x{X.shape[2]}")
    if X.dtype == np.uint8:
        return X
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ContractError("images contain NaN or Inf")
    if X.min() < 0.0 or X.max() > 1.0:
        raise ContractError("float images must lie in [0, 1]")
    return np.rint(X * 255.0).astype(np.uint8)


def check_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim == 2 and y.shape[1] == 1:
        y = y.reshape(-1)
    if y.ndim != 1:
        raise DimensionError(f"expected 1-D labels, got shape {y.shape}")
    if len(y) != n:
        raise DimensionError(f"{len(y)} labels for {n} images")
    if y.dtype.kind not in "iub":
        raise ContractError(f"labels must be integers, got dtype {y.dtype}")
    return y.astype(np.int64)


class CMixerClassifier:
    """Complex-mixer image classifier with the sklearn estimator API;
    ``warmup_steps`` is the warmup of both pre-training and fine-tuning."""

    def __init__(
        self,
        num_layers: int = 2,
        hidden: int = 16,
        patch: int = 4,
        epochs: int = 60,
        batch_size: int = 64,
        learning_rate: float = 0.01,
        momentum: float = 0.9,
        warmup_steps: int = 20,
        clip_norm: float = 1.0,
        pretrain_epochs: int = 0,
        pretrain_batch_size: int = 64,
        pretrain_learning_rate: float = 1e-3,
        mask_rate: float = 0.2,
        temperature: float = 0.5,
        ema_decay: float = 0.99,
        random_state: int = 0,
    ):
        self.num_layers = num_layers
        self.hidden = hidden
        self.patch = patch
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.warmup_steps = warmup_steps
        self.clip_norm = clip_norm
        self.pretrain_epochs = pretrain_epochs
        self.pretrain_batch_size = pretrain_batch_size
        self.pretrain_learning_rate = pretrain_learning_rate
        self.mask_rate = mask_rate
        self.temperature = temperature
        self.ema_decay = ema_decay
        self.random_state = random_state

    @classmethod
    def _param_names(cls) -> list[str]:
        return [
            p.name
            for p in inspect.signature(cls.__init__).parameters.values()
            if p.name != "self"
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "CMixerClassifier":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def _train_config(self) -> TrainConfig:
        return TrainConfig(
            pretrain_epochs=self.pretrain_epochs,
            pretrain_batch_size=self.pretrain_batch_size,
            pretrain_lr=self.pretrain_learning_rate,
            pretrain_warmup_steps=self.warmup_steps,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.learning_rate,
            momentum=self.momentum,
            warmup_steps=self.warmup_steps,
            clip_norm=self.clip_norm,
            mask_rate=self.mask_rate,
            temperature=self.temperature,
            ema_decay=self.ema_decay,
            seed=self.random_state,
        )

    def fit(self, X, y) -> "CMixerClassifier":
        images = check_images(X)
        labels = check_labels(y, len(images))
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        if len(self.classes_) < 2:
            raise ContractError("fit needs at least two classes")
        task = TaskKind.BINARY if len(self.classes_) == 2 else TaskKind.MULTICLASS
        bundle = DatasetBundle(
            images=images,
            labels=encoded[:, None].astype(np.int64),
            splits=np.full(len(images), int(Split.TRAIN_LABELED), dtype=np.uint8),
            task=task,
            num_classes=len(self.classes_),
        )
        config = CMixerConfig.small(
            image_side=images.shape[1],
            in_channels=images.shape[3],
            num_classes=len(self.classes_),
            num_layers=self.num_layers,
            hidden=self.hidden,
            patch=self.patch,
        )
        rng = np.random.default_rng(self.random_state)
        model = CMixerModel(config, rng=rng)
        train_config = self._train_config()
        if self.pretrain_epochs > 0:
            pretrain(model, bundle, train_config, rng)
        finetune(model, bundle, train_config, rng)
        self.model_ = model
        self.n_features_in_ = int(np.prod(images.shape[1:]))
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise ContractError("this estimator is not fitted yet; call fit first")

    def decision_function(self, X) -> np.ndarray:
        """Raw bounded scores in (-1, 1), one column per class.

        Images of another size or channel count than the fitted ones are
        a ``DimensionError`` from the model's forward pass.
        """
        self._check_fitted()
        x = _to_model_layout(check_images(X))
        return self.model_.scores(x, rng=np.random.default_rng(self.random_state))

    def predict_proba(self, X) -> np.ndarray:
        return engine.softmax(self.decision_function(X), axis=1).data

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        idx = predictions_for_task(scores, TaskKind.MULTICLASS)
        return self.classes_[idx]

    def score(self, X, y) -> float:
        labels = check_labels(y, len(np.asarray(X)))
        return float(np.mean(self.predict(X) == labels))
