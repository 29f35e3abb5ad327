import numpy as np
import pytest

from cmixer.data import Split, synth_dataset
from cmixer.errors import ContractError, DimensionError
from cmixer.estimator import CMixerClassifier, check_images, check_labels
from cmixer.model import field_types
from cmixer.train import TrainConfig


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

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_random_state_rejected_before_any_generator(self, monkeypatch, seed):
        X, y = np.zeros((8, 8, 8), dtype=np.uint8), np.arange(8) % 2

        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made before random_state was checked")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(ContractError, match="random_state must be a nonnegative integer"):
            CMixerClassifier(hidden=8, epochs=1, random_state=seed).fit(X, y)

    @pytest.mark.parametrize("key, value", [("epochs", 1.5), ("batch_size", 4.0),
                                            ("num_layers", 1.0), ("hidden", 8.5), ("patch", 4.0)])
    def test_non_integer_setting_is_rejected_naming_it(self, key, value):
        X, y = np.zeros((8, 8, 8), dtype=np.uint8), np.arange(8) % 2
        with pytest.raises(ContractError, match=f"^{key} must be an integer"):
            CMixerClassifier(**{"hidden": 8, "epochs": 1, key: value}).fit(X, y)


    def test_non_square_images_rejected_at_fit(self):
        X, y = np.zeros((8, 8, 6), dtype=np.uint8), np.arange(8) % 2
        with pytest.raises(DimensionError, match="images must be square, got 8x6"):
            CMixerClassifier(hidden=8, epochs=1).fit(X, y)


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

    def test_pretraining_schedule_reaches_its_peak_then_decays(self, monkeypatch):
        """``warmup_steps`` bounds the pre-training warmup too: 16 steps
        with a warmup of 8 peak at step 8 and decay after it."""
        import cmixer.train as train_module

        rates = []
        real_step = train_module.adamw_step

        def recording_step(state, params, grads, lr):
            rates.append(lr)
            real_step(state, params, grads, lr)

        monkeypatch.setattr(train_module, "adamw_step", recording_step)
        bundle = synth_dataset(2, 128, 8, np.random.default_rng(0))
        CMixerClassifier(num_layers=1, hidden=4, epochs=1, batch_size=32, warmup_steps=8,
                         pretrain_epochs=2, pretrain_batch_size=32,
                         pretrain_learning_rate=1e-3).fit(bundle.images, bundle.labels[:, 0])
        assert len(rates) == 16
        assert rates.index(max(rates)) == 8 and max(rates) == 1e-3
        assert all(a > b for a, b in zip(rates[8:], rates[9:]))


# base settings that every parameter reaches: one pre-training epoch of
# 2+ steps (so the EMA shadow feeds a later target), 3+ fine-tune steps,
# a warmup shorter than the run, and a clip norm small enough to engage
ACTS_BASE = dict(num_layers=1, hidden=4, epochs=2, batch_size=8, warmup_steps=1, clip_norm=0.05,
                 pretrain_epochs=1, pretrain_batch_size=8)
ACTS_CHANGED = dict(num_layers=2, hidden=6, patch=2, epochs=3, batch_size=6, learning_rate=0.02,
                    momentum=0.5, warmup_steps=2, clip_norm=0.1, pretrain_epochs=2,
                    pretrain_batch_size=6, pretrain_learning_rate=2e-3, mask_rate=0.5,
                    temperature=0.25, ema_decay=0.5, random_state=1)


class TestTrainConfig:
    """Each training parameter sets exactly the ``TrainConfig`` field it names."""

    RENAMED = {"learning_rate": "lr", "pretrain_learning_rate": "pretrain_lr",
               "random_state": "seed"}

    @pytest.mark.parametrize("name", CMixerClassifier().get_params())
    def test_parameter_sets_its_field_and_no_other(self, name):
        fields = field_types(TrainConfig)
        base = CMixerClassifier()._train_config()
        got = CMixerClassifier(**{name: ACTS_CHANGED[name]})._train_config()
        changed = {k for k in fields if getattr(got, k) != getattr(base, k)}
        want = {self.RENAMED.get(name, name)} & set(fields)
        if name == "warmup_steps":  # the warmup of both phases
            want.add("pretrain_warmup_steps")
        assert changed == want
        assert all(getattr(got, k) == ACTS_CHANGED[name] for k in want)

    def test_pretrain_weight_decay_keeps_its_default(self):
        config = CMixerClassifier()._train_config()
        assert config.pretrain_weight_decay == TrainConfig.pretrain_weight_decay


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
