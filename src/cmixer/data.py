"""Dataset ingestion, synthetic data, split construction, and view transforms.

Datasets arrive as NPZ archives with the six entries ``train_images``,
``train_labels``, ``val_images``, ``val_labels``, ``test_images``,
``test_labels`` (images uint8, labels integer, label arrays N or Nx1
for index tasks and NxL of 0/1 for multilabel). Internally everything lives in
a ``DatasetBundle``: one image block plus a per-sample split tag, so
derived constructions (semi-supervised, label corruption) are tag
rewrites instead of array shuffles.

All transforms are pure: they return new bundles or new image arrays
and never touch their inputs. The pre-training views follow one fixed
recipe: only ``random_mask``'s rate is passed in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ContractError, DimensionError, FormatError
from .npzio import read_arrays, write_arrays

__all__ = [
    "TaskKind",
    "Split",
    "DatasetBundle",
    "infer_task",
    "label_columns",
    "load_npz",
    "write_npz",
    "make_semi",
    "corrupt_labels",
    "augment_target",
    "random_mask",
    "synth_dataset",
]


class TaskKind(str, Enum):
    MULTICLASS = "multiclass"
    BINARY = "binary"
    MULTILABEL = "multilabel"
    ORDINAL = "ordinal"  # ordinal regression handled as multiclass


class Split(int, Enum):
    TRAIN_LABELED = 0
    TRAIN_UNLABELED = 1
    VAL = 2
    TEST = 3


_REQUIRED_ENTRIES = (
    "train_images",
    "train_labels",
    "val_images",
    "val_labels",
    "test_images",
    "test_labels",
)

# fixed, not settings: the target view's pad, flip probability and contrast
# factor range (the paper's one recipe), and synth_dataset's noise std
CROP_PADDING, HFLIP_PROB, CONTRAST_RANGE, SYNTH_NOISE = 3, 0.5, (0.8, 1.25), 20.0


@dataclass
class DatasetBundle:
    """Images, labels, and split tags for one classification task.

    ``images`` is (N, H, W, ch) uint8. ``labels`` is (N, 1) int64 for
    index tasks or (N, L) for multilabel. ``splits`` holds one
    ``Split`` value per sample.
    """

    images: np.ndarray
    labels: np.ndarray
    splits: np.ndarray
    task: TaskKind
    num_classes: int

    def __post_init__(self):
        n = len(self.images)
        if self.images.ndim != 4:
            raise DimensionError(f"images must be (N,H,W,ch), got {self.images.shape}")
        if self.labels.shape[0] != n or self.splits.shape != (n,):
            raise DimensionError("images, labels and splits disagree on sample count")
        if self.task is TaskKind.MULTILABEL:
            if self.labels.shape[1] != self.num_classes:
                raise DimensionError("multilabel width must equal num_classes")
        else:
            lo, hi = self.labels.min(initial=0), self.labels.max(initial=0)
            if lo < 0 or hi >= self.num_classes:
                raise ContractError(
                    f"labels outside [0, {self.num_classes}): saw [{lo}, {hi}]"
                )

    @property
    def n(self) -> int:
        return len(self.images)

    def indices(self, *splits: Split) -> np.ndarray:
        mask = np.isin(self.splits, [int(s) for s in splits])
        return np.flatnonzero(mask)

    def split_counts(self) -> dict[str, int]:
        return {s.name.lower(): int((self.splits == int(s)).sum()) for s in Split}


def _normalize_labels(labels: np.ndarray, entry: str) -> np.ndarray:
    # MedMNIST releases vary between (N,) and (N,1); normalize to 2-D
    if labels.dtype.kind not in "ui":
        raise FormatError(f"{entry}: labels must be integer, got {labels.dtype}")
    arr = np.asarray(labels, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise FormatError(f"{entry}: labels must be N or NxL, got shape {labels.shape}")
    return arr


def _normalize_images(images: np.ndarray, entry: str) -> np.ndarray:
    if images.dtype != np.uint8:
        raise FormatError(f"{entry}: images must be uint8, got {images.dtype}")
    if images.ndim == 3:  # grayscale -> explicit single channel
        images = images[..., None]
    if images.ndim != 4:
        raise FormatError(f"{entry}: images must be NxHxW or NxHxWxC, got {images.shape}")
    return images


def infer_task(labels: np.ndarray, task: TaskKind | str | None = None) -> tuple[TaskKind, int]:
    """The task kind and class count of an (N, L) label array.

    Unset, the kind is multilabel for width > 1, binary for two classes
    and multiclass otherwise; ordinal cannot be inferred. A multilabel
    task has one class per column, an index task ``max + 1`` classes and
    at least 2. A ``FormatError`` names the task for an index task on
    labels wider than one column, and for a label outside {0, 1} under
    ``binary`` or multilabel.
    """
    if task is not None:
        task = TaskKind(task)
    elif labels.shape[1] > 1:
        task = TaskKind.MULTILABEL
    if task is not TaskKind.MULTILABEL and labels.shape[1] > 1:
        raise FormatError(f"task '{task.value}' needs one label column, got {labels.shape[1]}")
    if task in (TaskKind.BINARY, TaskKind.MULTILABEL) and not np.isin(labels, (0, 1)).all():
        raise FormatError(
            f"task '{task.value}' needs labels in {{0, 1}}, saw [{labels.min()}, {labels.max()}]"
        )
    if task is TaskKind.MULTILABEL:
        return task, labels.shape[1]
    num_classes = max(int(labels.max()) + 1, 2)
    if task is None:
        task = TaskKind.BINARY if num_classes == 2 else TaskKind.MULTICLASS
    return task, num_classes


def label_columns(labels, task: TaskKind, k: int) -> np.ndarray:
    """The (N, k) 0/1 class columns of a label array.

    Multilabel labels already are them; index labels become one-hot float
    rows, and an index outside [0, k) is a ``ContractError``.
    """
    y = np.asarray(labels)
    if TaskKind(task) is TaskKind.MULTILABEL:
        return y
    y = y.reshape(-1)
    if y.min(initial=0) < 0 or y.max(initial=0) >= k:
        raise ContractError(f"labels outside [0, {k})")
    return (y[:, None] == np.arange(k)).astype(np.float64)


def load_npz(path, task: TaskKind | None = None) -> DatasetBundle:
    """Read a train/val/test archive into a bundle.

    The task kind and class count come from ``infer_task``: the kind is
    inferred from the label array unless given explicitly; ordinal
    regression cannot be inferred and must be passed in. An archive with
    no samples in any split is a ``FormatError``.
    """
    arrays = read_arrays(path)
    for entry in _REQUIRED_ENTRIES:
        if entry not in arrays:
            raise FormatError(f"{path}: missing entry '{entry}'")
    parts = []
    for kind in ("train", "val", "test"):
        images = _normalize_images(arrays[f"{kind}_images"], f"{kind}_images")
        labels = _normalize_labels(arrays[f"{kind}_labels"], f"{kind}_labels")
        if len(images) != len(labels):
            raise FormatError(
                f"{path}: {kind}_images has {len(images)} samples but "
                f"{kind}_labels has {len(labels)}"
            )
        parts.append((images, labels))
    widths = {p[1].shape[1] for p in parts}
    if len(widths) != 1:
        raise FormatError(f"{path}: label widths differ across splits: {widths}")
    channels = {p[0].shape[3] for p in parts}
    if len(channels) != 1:
        raise FormatError(f"{path}: channel counts differ across splits: {channels}")

    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    if len(labels) == 0:
        raise FormatError(f"{path}: no samples in any split")
    tags = np.concatenate(
        [
            np.full(len(parts[0][0]), int(Split.TRAIN_LABELED), dtype=np.uint8),
            np.full(len(parts[1][0]), int(Split.VAL), dtype=np.uint8),
            np.full(len(parts[2][0]), int(Split.TEST), dtype=np.uint8),
        ]
    )
    return DatasetBundle(images, labels, tags, *infer_task(labels, task))


def write_npz(bundle: DatasetBundle, path) -> None:
    """Write a bundle back to the archive layout.

    Both train tags map onto the single ``train_*`` pair; the external
    format has no labeled/unlabeled distinction.
    """
    arrays = {}
    groups = (
        ("train", bundle.indices(Split.TRAIN_LABELED, Split.TRAIN_UNLABELED)),
        ("val", bundle.indices(Split.VAL)),
        ("test", bundle.indices(Split.TEST)),
    )
    for kind, idx in groups:
        arrays[f"{kind}_images"] = bundle.images[idx]
        arrays[f"{kind}_labels"] = bundle.labels[idx]
    write_arrays(path, arrays)


def _stratified_pick(labels: np.ndarray, idx: np.ndarray, want: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Pick ``want`` of ``idx`` keeping class proportions (largest remainders)."""
    classes = labels[idx, 0]
    uniq, counts = np.unique(classes, return_counts=True)
    exact = counts * (want / len(idx))
    quota = np.floor(exact).astype(int)
    remainder = exact - quota
    short = want - quota.sum()
    if short > 0:
        for j in np.argsort(-remainder)[:short]:
            quota[j] += 1
    chosen = []
    for cls, take in zip(uniq, quota):
        pool = idx[classes == cls]
        if take == 0:
            warnings.warn(
                f"class {cls} has no labeled representative after stratification",
                stacklevel=3,
            )
            continue
        chosen.append(rng.choice(pool, size=take, replace=False))
    return np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.int64)


def make_semi(
    bundle: DatasetBundle,
    labeled_fraction: float = 0.1,
    rng: np.random.Generator | None = None,
) -> DatasetBundle:
    """Keep labels on a stratified fraction of the train split.

    ``floor(fraction * N_train)`` samples stay labeled-train; every
    other training sample is re-tagged as test, enlarging the test
    split. The input bundle is untouched and the total sample count is
    preserved.
    """
    if not 0.0 < labeled_fraction <= 1.0:
        raise ContractError(f"labeled fraction must be in (0,1], got {labeled_fraction}")
    rng = rng if rng is not None else np.random.default_rng()
    train_idx = bundle.indices(Split.TRAIN_LABELED, Split.TRAIN_UNLABELED)
    want = int(np.floor(labeled_fraction * len(train_idx)))
    if bundle.task is TaskKind.MULTILABEL:
        keep = np.sort(rng.choice(train_idx, size=want, replace=False))
    else:
        keep = _stratified_pick(bundle.labels, train_idx, want, rng)
    tags = bundle.splits.copy()
    tags[train_idx] = int(Split.TEST)
    tags[keep] = int(Split.TRAIN_LABELED)
    return replace(bundle, splits=tags)


def corrupt_labels(
    bundle: DatasetBundle,
    corruption_rate: float,
    rng: np.random.Generator | None = None,
) -> tuple[DatasetBundle, np.ndarray]:
    """Replace labels on round(rate * N_labeled) labeled-train samples.

    Each corrupted sample gets a uniformly chosen *different* class (a
    uniformly chosen flipped label bit for multilabel tasks). Returns
    the new bundle and the corrupted sample indices for audit.
    """
    if not 0.0 <= corruption_rate <= 1.0:
        raise ContractError(f"corruption rate must be in [0,1], got {corruption_rate}")
    if bundle.num_classes < 2:
        raise ContractError("label corruption needs at least two classes")
    rng = rng if rng is not None else np.random.default_rng()
    labeled = bundle.indices(Split.TRAIN_LABELED)
    count = int(round(corruption_rate * len(labeled)))
    chosen = np.sort(rng.choice(labeled, size=count, replace=False))
    labels = bundle.labels.copy()
    for i in chosen:
        if bundle.task is TaskKind.MULTILABEL:
            j = int(rng.integers(bundle.num_classes))
            labels[i, j] = 1 - labels[i, j]
        else:
            old = int(labels[i, 0])
            offset = int(rng.integers(1, bundle.num_classes))
            labels[i, 0] = (old + offset) % bundle.num_classes
    return replace(bundle, labels=labels), chosen


def augment_target(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pad-and-crop, maybe flip, and contrast-jitter one (H, W, ch) image.

    Zero-pad by ``CROP_PADDING`` and crop at a uniform offset, flip with
    probability ``HFLIP_PROB``, then scale deviations from the mean ``m`` by
    ``f`` uniform in ``CONTRAST_RANGE``: ``m + f*(v - m)``, clamped to
    [0, 255]. Output shape and dtype match the input.
    """
    h, w, _ = image.shape
    pad = CROP_PADDING
    padded = np.pad(image, ((pad, pad), (pad, pad), (0, 0)))
    y = int(rng.integers(0, 2 * pad + 1))
    x = int(rng.integers(0, 2 * pad + 1))
    out = padded[y : y + h, x : x + w]
    if rng.random() < HFLIP_PROB:
        out = out[:, ::-1]
    f = rng.uniform(*CONTRAST_RANGE)
    m = out.mean()
    jittered = np.clip(m + f * (out.astype(np.float64) - m), 0.0, 255.0)
    out = np.rint(jittered) if image.dtype.kind in "ui" else jittered
    return np.ascontiguousarray(out).astype(image.dtype)


def random_mask(image: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each pixel independently with probability ``rate``, in [0, 1].

    The mask is drawn per pixel position and shared across the channel
    axis (the trailing one). Accepts a single (H, W, ch) image or any
    batch (..., H, W, ch); shape and dtype are preserved.
    """
    if not 0.0 <= rate <= 1.0:
        raise ContractError(f"mask rate must be in [0,1], got {rate}")
    keep = rng.random(image.shape[:-1]) >= rate
    out = image * keep[..., None]
    return out.astype(image.dtype)


def synth_dataset(
    num_classes: int = 2,
    n_per_class: int = 100,
    side: int = 16,
    rng: np.random.Generator | None = None,
) -> DatasetBundle:
    """Generate a separable desk-scale dataset of blob images.

    Each class gets a Gaussian blob at a class-specific location on a
    noisy background, so a nearest-centroid classifier on raw pixels
    solves it. Samples are split 70/10/20 per class.
    """
    if side < 8:
        raise ContractError("side must be at least 8")
    rng = rng if rng is not None else np.random.default_rng()
    yy, xx = np.mgrid[0:side, 0:side]
    images = []
    for cls in range(num_classes):
        angle = 2.0 * np.pi * cls / num_classes
        cy = side / 2 + (side / 4) * np.sin(angle)
        cx = side / 2 + (side / 4) * np.cos(angle)
        sigma = side / 8.0
        blob = 180.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        noisy = blob + rng.normal(0.0, SYNTH_NOISE, size=(n_per_class, side, side)) + 30.0
        images.append(np.clip(noisy, 0, 255).astype(np.uint8)[..., None])
    n_train = int(0.7 * n_per_class)
    n_val = int(0.1 * n_per_class)
    tags = np.full(n_per_class, int(Split.TEST), dtype=np.uint8)
    tags[:n_train] = int(Split.TRAIN_LABELED)
    tags[n_train:n_train + n_val] = int(Split.VAL)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)[:, None]
    return DatasetBundle(
        np.concatenate(images), labels, np.tile(tags, num_classes), *infer_task(labels)
    )
