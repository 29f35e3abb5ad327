import numpy as np
import pytest

from cmixer.data import (
    DatasetBundle,
    Split,
    TaskKind,
    augment_target,
    corrupt_labels,
    load_npz,
    make_semi,
    random_mask,
    synth_dataset,
    write_npz,
)
from cmixer.errors import ContractError, FormatError
from cmixer.npzio import write_arrays


def tiny_archive(tmp_path, n_train=20, n_val=5, n_test=8, side=8, ch=None,
                 num_classes=3, label_shape="col"):
    rng = np.random.default_rng(0)
    shape = (side, side) if ch is None else (side, side, ch)
    arrays = {}
    for kind, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        arrays[f"{kind}_images"] = rng.integers(0, 256, size=(n, *shape), dtype=np.uint8)
        labels = rng.integers(0, num_classes, size=n, dtype=np.int64)
        arrays[f"{kind}_labels"] = labels[:, None] if label_shape == "col" else labels
    # ensure every class appears in train so num_classes is inferable
    arrays["train_labels"].reshape(-1)[:num_classes] = np.arange(num_classes)
    path = tmp_path / "data.npz"
    write_arrays(path, arrays)
    return path


def counts_bundle(n_train, n_val, n_test, num_classes=9):
    """Bundle with 1x1 images, for split-arithmetic tests at real scale."""
    n = n_train + n_val + n_test
    rng = np.random.default_rng(1)
    labels = rng.integers(0, num_classes, size=(n, 1)).astype(np.int64)
    labels[:num_classes, 0] = np.arange(num_classes)
    tags = np.concatenate(
        [
            np.full(n_train, int(Split.TRAIN_LABELED), dtype=np.uint8),
            np.full(n_val, int(Split.VAL), dtype=np.uint8),
            np.full(n_test, int(Split.TEST), dtype=np.uint8),
        ]
    )
    images = np.zeros((n, 1, 1, 1), dtype=np.uint8)
    return DatasetBundle(images, labels, tags, TaskKind.MULTICLASS, num_classes)


class TestLoadNpz:
    def test_loads_counts_and_channels(self, tmp_path):
        path = tiny_archive(tmp_path, n_train=546, n_val=78, n_test=156, side=8)
        bundle = load_npz(path)
        c = bundle.split_counts()
        assert c["train_labeled"] == 546 and c["val"] == 78 and c["test"] == 156
        assert bundle.images.shape[1:] == (8, 8, 1)

    def test_rgb_channels(self, tmp_path):
        path = tiny_archive(tmp_path, ch=3)
        bundle = load_npz(path)
        assert bundle.images.shape[1:] == (8, 8, 3)

    def test_round_trip(self, tmp_path):
        bundle = load_npz(tiny_archive(tmp_path))
        out = tmp_path / "copy.npz"
        write_npz(bundle, out)
        again = load_npz(out)
        np.testing.assert_array_equal(bundle.images, again.images)
        np.testing.assert_array_equal(bundle.labels, again.labels)
        np.testing.assert_array_equal(bundle.splits, again.splits)
        assert bundle.task == again.task and bundle.num_classes == again.num_classes

    def test_missing_entry_names_it(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            f"{k}_images": rng.integers(0, 256, size=(4, 8, 8), dtype=np.uint8)
            for k in ("train", "val", "test")
        }
        arrays["train_labels"] = np.zeros((4, 1), dtype=np.int64)
        arrays["test_labels"] = np.zeros((4, 1), dtype=np.int64)
        path = tmp_path / "broken.npz"
        write_arrays(path, arrays)
        with pytest.raises(FormatError, match="val_labels"):
            load_npz(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(FormatError):
            load_npz(path)

    def test_sample_count_mismatch(self, tmp_path):
        path = tiny_archive(tmp_path)
        from cmixer.npzio import read_arrays

        arrays = read_arrays(path)
        arrays["train_labels"] = arrays["train_labels"][:-1]
        bad = tmp_path / "bad.npz"
        write_arrays(bad, arrays)
        with pytest.raises(FormatError, match="train"):
            load_npz(bad)

    def test_archive_without_samples_names_path(self, tmp_path):
        arrays = {}
        for kind in ("train", "val", "test"):
            arrays[f"{kind}_images"] = np.zeros((0, 8, 8), dtype=np.uint8)
            arrays[f"{kind}_labels"] = np.zeros((0, 1), dtype=np.int64)
        path = tmp_path / "empty.npz"
        write_arrays(path, arrays)
        with pytest.raises(FormatError, match="empty.npz: no samples"):
            load_npz(path)

    def test_flat_labels_normalized(self, tmp_path):
        path = tiny_archive(tmp_path, label_shape="flat")
        bundle = load_npz(path)
        assert bundle.labels.ndim == 2 and bundle.labels.shape[1] == 1

    def test_multilabel_inferred(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {}
        for kind, n in (("train", 10), ("val", 4), ("test", 4)):
            arrays[f"{kind}_images"] = rng.integers(0, 256, (n, 8, 8), dtype=np.uint8)
            arrays[f"{kind}_labels"] = rng.integers(0, 2, (n, 5), dtype=np.int64)
        path = tmp_path / "ml.npz"
        write_arrays(path, arrays)
        bundle = load_npz(path)
        assert bundle.task is TaskKind.MULTILABEL and bundle.num_classes == 5


class TestMakeSemi:
    def test_pathmnist_arithmetic(self):
        bundle = counts_bundle(89_996, 10_004, 7_180)
        semi = make_semi(bundle, 0.1, np.random.default_rng(0))
        c = semi.split_counts()
        assert c["train_labeled"] == 8_999
        assert c["test"] == 88_177
        assert semi.n == bundle.n

    def test_fraction_one_is_identity(self):
        bundle = counts_bundle(100, 10, 20)
        semi = make_semi(bundle, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(semi.splits, bundle.splits)

    def test_deterministic(self):
        bundle = counts_bundle(500, 50, 100)
        a = make_semi(bundle, 0.1, np.random.default_rng(42))
        b = make_semi(bundle, 0.1, np.random.default_rng(42))
        np.testing.assert_array_equal(a.splits, b.splits)

    def test_input_untouched_and_partition(self):
        bundle = counts_bundle(200, 20, 40)
        before = bundle.splits.copy()
        semi = make_semi(bundle, 0.25, np.random.default_rng(0))
        np.testing.assert_array_equal(bundle.splits, before)
        assert sum(semi.split_counts().values()) == semi.n

    def test_stratification_keeps_classes(self):
        bundle = counts_bundle(1000, 0, 0, num_classes=5)
        semi = make_semi(bundle, 0.1, np.random.default_rng(0))
        kept = semi.labels[semi.indices(Split.TRAIN_LABELED), 0]
        assert set(kept.tolist()) == set(range(5))

    def test_starved_class_warns(self):
        labels = np.zeros((100, 1), dtype=np.int64)
        labels[0, 0] = 1  # one lonely sample of class 1
        images = np.zeros((100, 1, 1, 1), dtype=np.uint8)
        tags = np.full(100, int(Split.TRAIN_LABELED), dtype=np.uint8)
        bundle = DatasetBundle(images, labels, tags, TaskKind.BINARY, 2)
        with pytest.warns(UserWarning, match="class 1"):
            make_semi(bundle, 0.05, np.random.default_rng(0))

    def test_bad_fraction(self):
        bundle = counts_bundle(10, 2, 2)
        with pytest.raises(ContractError):
            make_semi(bundle, 0.0, np.random.default_rng(0))


class TestCorruptLabels:
    def test_rate_zero_identity(self):
        bundle = counts_bundle(100, 10, 20)
        out, idx = corrupt_labels(bundle, 0.0, np.random.default_rng(0))
        assert len(idx) == 0
        np.testing.assert_array_equal(out.labels, bundle.labels)

    def test_rate_one_all_differ(self):
        bundle = counts_bundle(50, 5, 10)
        out, idx = corrupt_labels(bundle, 1.0, np.random.default_rng(0))
        labeled = bundle.indices(Split.TRAIN_LABELED)
        assert len(idx) == len(labeled)
        assert np.all(out.labels[labeled, 0] != bundle.labels[labeled, 0])

    def test_exact_count(self):
        bundle = counts_bundle(8_999, 0, 0)
        out, idx = corrupt_labels(bundle, 0.1, np.random.default_rng(0))
        assert len(idx) == 900

    def test_only_recorded_indices_change(self):
        bundle = counts_bundle(200, 20, 40)
        out, idx = corrupt_labels(bundle, 0.2, np.random.default_rng(0))
        changed = np.flatnonzero(out.labels[:, 0] != bundle.labels[:, 0])
        np.testing.assert_array_equal(changed, idx)

    def test_too_few_classes(self):
        images = np.zeros((10, 1, 1, 1), dtype=np.uint8)
        labels = np.zeros((10, 1), dtype=np.int64)
        tags = np.full(10, int(Split.TRAIN_LABELED), dtype=np.uint8)
        bundle = DatasetBundle(images, labels, tags, TaskKind.MULTICLASS, 1)
        with pytest.raises(ContractError):
            corrupt_labels(bundle, 0.5, np.random.default_rng(0))

    def test_multilabel_flip(self):
        rng = np.random.default_rng(0)
        images = np.zeros((30, 1, 1, 1), dtype=np.uint8)
        labels = rng.integers(0, 2, size=(30, 4)).astype(np.int64)
        tags = np.full(30, int(Split.TRAIN_LABELED), dtype=np.uint8)
        bundle = DatasetBundle(images, labels, tags, TaskKind.MULTILABEL, 4)
        out, idx = corrupt_labels(bundle, 0.5, np.random.default_rng(1))
        for i in idx:
            assert np.abs(out.labels[i] - bundle.labels[i]).sum() == 1


def _augment_reference(image, rng):
    """The paper's target-view augmentation written out pixel by pixel: pad 3
    with zeros and crop back at offset (y, x), flip left-right when
    ``random() < 0.5``, then ``m + f*(v - m)`` with ``f`` uniform in
    [0.8, 1.25], clamped to [0, 255] and rounded."""
    h, w, ch = image.shape
    y, x = int(rng.integers(0, 7)), int(rng.integers(0, 7))
    flip = rng.random() < 0.5
    f = rng.uniform(0.8, 1.25)
    crop = np.zeros((h, w, ch))
    for i in range(h):
        for j in range(w):
            si, sj = i + y - 3, j + x - 3
            if 0 <= si < h and 0 <= sj < w:
                crop[i, w - 1 - j if flip else j] = image[si, sj]
    m = crop.mean()
    return np.rint(np.clip(m + f * (crop - m), 0.0, 255.0)).astype(image.dtype)


class _FixedDraws:
    """Stands in for the generator with chosen draws: a centred crop, a flip
    when ``flip`` is set, and the contrast factor ``f``."""

    def __init__(self, flip, f):
        self.flip, self.f = flip, f

    def integers(self, low, high):
        return (low + high - 1) // 2

    def random(self):
        return 0.0 if self.flip else 1.0

    def uniform(self, low, high):
        assert low <= self.f <= high
        return self.f


class TestAugment:
    def test_forced_flip_is_mirror_and_involution(self):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, (6, 6, 2), dtype=np.uint8)
        once = augment_target(image, _FixedDraws(flip=True, f=1.0))
        np.testing.assert_array_equal(once, image[:, ::-1])
        twice = augment_target(once, _FixedDraws(flip=True, f=1.0))
        np.testing.assert_array_equal(twice, image)

    def test_contrast_formula(self):
        image = np.array([[[10], [200]], [[60], [130]]], dtype=np.uint8)
        out = augment_target(image, _FixedDraws(flip=False, f=1.25))
        m = image.mean()
        expected = np.clip(m + 1.25 * (image.astype(float) - m), 0, 255)
        np.testing.assert_array_equal(out, np.rint(expected).astype(np.uint8))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        image = rng.integers(0, 256, (9, 7, 1 + seed % 3), dtype=np.uint8)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = augment_target(image, got_rng)
        want = _augment_reference(image, want_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        # the same four draws: both generators are left in one state
        assert got_rng.random() == want_rng.random()

    def test_shape_and_dtype_preserved(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
        out = augment_target(image, np.random.default_rng(7))
        assert out.shape == image.shape and out.dtype == image.dtype


class TestRandomMask:
    def test_rate_zero_identity(self):
        image = np.full((8, 8, 1), 7, dtype=np.uint8)
        out = random_mask(image, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, image)

    def test_rate_one_all_zero(self):
        image = np.full((8, 8, 1), 7, dtype=np.uint8)
        out = random_mask(image, 1.0, np.random.default_rng(0))
        assert out.sum() == 0

    def test_binomial_interval(self):
        image = np.ones((28, 28, 1), dtype=np.uint8)
        zeroed = [
            (random_mask(image, 0.2, np.random.default_rng(seed)) == 0).sum()
            for seed in range(30)
        ]
        n, p = 28 * 28, 0.2
        lo = n * p - 3 * np.sqrt(n * p * (1 - p))
        hi = n * p + 3 * np.sqrt(n * p * (1 - p))
        inside = [lo <= z <= hi for z in zeroed]
        assert np.mean(inside) > 0.95

    def test_mask_shared_across_channels(self):
        image = np.full((16, 16, 3), 9, dtype=np.uint8)
        out = random_mask(image, 0.5, np.random.default_rng(3))
        per_pixel = out.reshape(-1, 3)
        assert all(len(set(row.tolist())) == 1 for row in per_pixel)

    def test_shape_dtype_preserved_float(self):
        image = np.random.default_rng(0).random((4, 4, 1))
        out = random_mask(image, 0.3, np.random.default_rng(0))
        assert out.shape == image.shape and out.dtype == image.dtype

    def test_bad_rate(self):
        with pytest.raises(ContractError):
            random_mask(np.ones((4, 4, 1)), 1.5, np.random.default_rng(0))


class TestSynthDataset:
    def test_counts_and_split(self):
        bundle = synth_dataset(2, 100, 16, np.random.default_rng(0))
        assert bundle.n == 200
        c = bundle.split_counts()
        assert c["train_labeled"] == 140 and c["val"] == 20 and c["test"] == 40

    def test_nearest_centroid_separable(self):
        bundle = synth_dataset(3, 80, 16, np.random.default_rng(1))
        train = bundle.indices(Split.TRAIN_LABELED)
        test = bundle.indices(Split.TEST)
        x = bundle.images.reshape(bundle.n, -1).astype(float)
        centroids = np.stack(
            [
                x[train][bundle.labels[train, 0] == c].mean(axis=0)
                for c in range(bundle.num_classes)
            ]
        )
        dists = ((x[test][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        preds = dists.argmin(axis=1)
        acc = (preds == bundle.labels[test, 0]).mean()
        assert acc >= 0.95

    def test_deterministic(self):
        a = synth_dataset(2, 20, 16, np.random.default_rng(9))
        b = synth_dataset(2, 20, 16, np.random.default_rng(9))
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_side_too_small(self):
        with pytest.raises(ContractError):
            synth_dataset(2, 10, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("num_classes,n_per_class,side", [
        (2, 2048, 28), (2, 128, 8), (3, 100, 16), (9, 17, 28), (4, 1, 8),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_image_reference(self, num_classes, n_per_class, side, seed):
        got = synth_dataset(num_classes, n_per_class, side, np.random.default_rng(seed))
        want = _synth_reference(num_classes, n_per_class, side, np.random.default_rng(seed))
        for name in ("images", "labels", "splits"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert got.task is want.task and got.num_classes == want.num_classes


def _synth_reference(num_classes, n_per_class, side, rng, noise=20.0):
    """The per-image loop that ``synth_dataset`` vectorises; the outputs must match bitwise."""
    yy, xx = np.mgrid[0:side, 0:side]
    images, labels, tags = [], [], []
    n_train = int(0.7 * n_per_class)
    n_val = int(0.1 * n_per_class)
    for cls in range(num_classes):
        angle = 2.0 * np.pi * cls / num_classes
        cy = side / 2 + (side / 4) * np.sin(angle)
        cx = side / 2 + (side / 4) * np.cos(angle)
        sigma = side / 8.0
        blob = 180.0 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
        for i in range(n_per_class):
            img = blob + rng.normal(0.0, noise, size=(side, side)) + 30.0
            images.append(np.clip(img, 0, 255).astype(np.uint8)[..., None])
            labels.append(cls)
            if i < n_train:
                tags.append(int(Split.TRAIN_LABELED))
            elif i < n_train + n_val:
                tags.append(int(Split.VAL))
            else:
                tags.append(int(Split.TEST))
    task = TaskKind.BINARY if num_classes == 2 else TaskKind.MULTICLASS
    return DatasetBundle(np.stack(images), np.array(labels, dtype=np.int64)[:, None],
                         np.array(tags, dtype=np.uint8), task, num_classes)
