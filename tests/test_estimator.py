import numpy as np
import pytest

from cmixer.data import Split, synth_dataset
from cmixer.errors import ContractError, DimensionError
from cmixer.estimator import CMixerClassifier, check_images, check_labels


def blob_data(num_classes=2, n=40, side=16, seed=0):
    bundle = synth_dataset(num_classes, n, side, np.random.default_rng(seed))
    train = bundle.indices(Split.TRAIN_LABELED)
    test = bundle.indices(Split.TEST)
    X_train = bundle.images[train][..., 0]
    y_train = bundle.labels[train, 0]
    X_test = bundle.images[test][..., 0]
    y_test = bundle.labels[test, 0]
    return X_train, y_train, X_test, y_test


class TestValidation:
    def test_grayscale_gets_channel(self):
        out = check_images(np.zeros((3, 8, 8), dtype=np.uint8))
        assert out.shape == (3, 8, 8, 1)

    def test_float_unit_range_converted(self):
        out = check_images(np.full((2, 8, 8, 1), 0.5))
        assert out.dtype == np.uint8 and out[0, 0, 0, 0] == 128

    def test_float_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            check_images(np.full((2, 8, 8), 2.0))

    def test_bad_rank_rejected(self):
        with pytest.raises(DimensionError):
            check_images(np.zeros((8, 8), dtype=np.uint8))

    def test_label_length_mismatch(self):
        with pytest.raises(DimensionError):
            check_labels([0, 1], 3)

    def test_float_labels_rejected(self):
        with pytest.raises(ContractError):
            check_labels(np.array([0.5, 1.5]), 2)


class TestEstimatorApi:
    def test_get_set_params_round_trip(self):
        est = CMixerClassifier(hidden=8, epochs=3)
        params = est.get_params()
        assert params["hidden"] == 8 and params["epochs"] == 3
        est.set_params(hidden=12)
        assert est.get_params()["hidden"] == 12

    def test_set_unknown_param_raises(self):
        with pytest.raises(ValueError, match="nonsense"):
            CMixerClassifier().set_params(nonsense=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        est = CMixerClassifier(hidden=8, epochs=5, random_state=3)
        cloned = sklearn_base.clone(est)
        assert cloned.get_params() == est.get_params()

    def test_predict_before_fit_raises(self):
        with pytest.raises(ContractError):
            CMixerClassifier().predict(np.zeros((1, 16, 16), dtype=np.uint8))


@pytest.fixture(scope="module")
def fitted():
    X_train, y_train, X_test, y_test = blob_data()
    est = CMixerClassifier(
        num_layers=1, hidden=8, epochs=30, batch_size=28, random_state=0
    )
    est.fit(X_train, y_train)
    return est, X_test, y_test


class TestEstimatorFit:

    def test_learns_separable_data(self, fitted):
        est, X_test, y_test = fitted
        assert est.score(X_test, y_test) >= 0.9

    def test_predict_returns_original_classes(self):
        X_train, y_train, _, _ = blob_data()
        est = CMixerClassifier(num_layers=1, hidden=8, epochs=5, batch_size=28)
        est.fit(X_train, y_train + 5)  # classes 5 and 6
        preds = est.predict(X_train[:4])
        assert set(preds.tolist()) <= {5, 6}

    def test_predict_proba_rows_sum_to_one(self, fitted):
        est, X_test, _ = fitted
        proba = est.predict_proba(X_test[:8])
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(8), atol=1e-12)
        assert np.all(proba > 0)

    def test_decision_function_bounded(self, fitted):
        est, X_test, _ = fitted
        scores = est.decision_function(X_test[:8])
        assert np.all(scores > -1.0) and np.all(scores < 1.0)

    def test_wrong_image_size_at_predict(self, fitted):
        est, _, _ = fitted
        with pytest.raises(DimensionError):
            est.predict(np.zeros((2, 8, 8), dtype=np.uint8))

    def test_single_class_rejected(self):
        X = np.zeros((4, 16, 16), dtype=np.uint8)
        with pytest.raises(ContractError):
            CMixerClassifier().fit(X, [1, 1, 1, 1])

    def test_pretraining_path_runs(self):
        X_train, y_train, _, _ = blob_data(n=20)
        est = CMixerClassifier(
            num_layers=1, hidden=8, epochs=3, batch_size=14,
            pretrain_epochs=2, pretrain_batch_size=14, random_state=0,
        )
        est.fit(X_train, y_train)
        assert hasattr(est, "model_")


# base settings that every parameter reaches: one pre-training epoch of
# 2+ steps (so the EMA shadow feeds a later target), 3+ fine-tune steps,
# a warmup shorter than the run, and a clip norm small enough to engage
ACTS_BASE = dict(num_layers=1, hidden=4, epochs=2, batch_size=8, warmup_steps=1, clip_norm=0.05,
                 pretrain_epochs=1, pretrain_batch_size=8)
ACTS_CHANGED = dict(num_layers=2, hidden=6, patch=2, epochs=3, batch_size=6, learning_rate=0.02,
                    momentum=0.5, warmup_steps=2, clip_norm=0.1, pretrain_epochs=2,
                    pretrain_batch_size=6, pretrain_learning_rate=2e-3, mask_rate=0.5,
                    temperature=0.25, ema_decay=0.5, random_state=1)


class TestEveryParameterActs:
    @pytest.fixture(scope="class")
    def data(self):
        bundle = synth_dataset(2, 20, 8, np.random.default_rng(0))
        return bundle.images[..., 0], bundle.labels[:, 0]

    @pytest.fixture(scope="class")
    def base(self, data):
        return CMixerClassifier(**ACTS_BASE).fit(*data).model_.params

    def test_changed_values_cover_every_parameter(self):
        assert set(ACTS_CHANGED) == set(CMixerClassifier().get_params())

    @pytest.mark.parametrize("name", CMixerClassifier().get_params())
    def test_changing_the_parameter_changes_the_fitted_model(self, data, base, name):
        est = CMixerClassifier(**{**ACTS_BASE, name: ACTS_CHANGED[name]})
        params = est.fit(*data).model_.params
        same = params.keys() == base.keys() and all(
            params[k].shape == base[k].shape and np.array_equal(params[k], base[k]) for k in base
        )
        assert not same, f"{name}={ACTS_CHANGED[name]} left the fitted model as it was"
