"""Complex-valued mixer classifier with learned noise injection and
masked self-supervised pre-training, on a self-contained float64
reverse-mode autodiff engine."""

from .data import (
    DatasetBundle,
    Split,
    TaskKind,
    load_npz,
    synth_dataset,
    write_npz,
)
from .engine import Tape, Tensor, grad_check
from .estimator import CMixerClassifier
from .metrics import EvalReport, accuracy, auc_binary, auc_task, evaluate
from .model import (
    CMixerConfig,
    CMixerModel,
    Toggles,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .train import TrainConfig, finetune, pretrain

__version__ = "0.1.0"

__all__ = [
    "CMixerClassifier",
    "CMixerConfig",
    "CMixerModel",
    "DatasetBundle",
    "EvalReport",
    "Split",
    "Tape",
    "TaskKind",
    "Tensor",
    "Toggles",
    "TrainConfig",
    "accuracy",
    "auc_binary",
    "auc_task",
    "evaluate",
    "finetune",
    "grad_check",
    "load_checkpoint",
    "load_npz",
    "param_count",
    "pretrain",
    "save_checkpoint",
    "synth_dataset",
    "write_npz",
    "__version__",
]
