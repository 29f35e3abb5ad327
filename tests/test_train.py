from dataclasses import fields, replace

import numpy as np
import pytest

from cmixer import engine
from cmixer.data import Split, augment_target, random_mask, synth_dataset
from cmixer.engine import Tape, Tensor, grad_check
from cmixer.errors import ContractError, NumericError
from cmixer.model import CMixerConfig, CMixerModel, Toggles, field_types
from cmixer.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamWState,
    EmaState,
    LrSchedule,
    SgdMomentumState,
    TrainConfig,
    adamw_step,
    bce_with_logits,
    clip_global_norm,
    cross_entropy,
    ema_update,
    finetune,
    lr_at,
    pretrain,
    sgd_momentum_step,
    ssl_loss,
)


def scalar(t):
    return float(t.data.reshape(()))


class TestBceWithLogits:
    def test_zero_logit_true_target(self):
        loss = bce_with_logits(Tensor([[0.0]]), [[1.0]])
        assert scalar(loss) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_no_overflow(self):
        loss = bce_with_logits(Tensor([[30.0]]), [[1.0]])
        assert scalar(loss) < 1e-9

    def test_softplus_value(self):
        # oracle: ln(1 + e^-1)
        loss = bce_with_logits(Tensor([[1.0]]), [[1.0]])
        assert scalar(loss) == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-12)

    def test_nonbinary_target_rejected(self):
        with pytest.raises(ContractError):
            bce_with_logits(Tensor([[0.0]]), [[0.5]])

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, (8, 3)).astype(float)
        assert scalar(bce_with_logits(Tensor(z), y)) >= 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, (4, 3)).astype(float)
        err = grad_check(
            lambda lv: bce_with_logits(lv["z"], y), {"z": rng.standard_normal((4, 3))}
        )
        assert err < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((2, 4))), [0, 3])
        assert scalar(loss) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct(self):
        z = np.full((1, 3), -30.0)
        z[0, 1] = 30.0
        assert scalar(cross_entropy(Tensor(z), [1])) < 1e-9

    def test_two_class_value(self):
        # oracle: -log(e / (e + 1))
        loss = cross_entropy(Tensor([[1.0, 0.0]]), [0])
        assert scalar(loss) == pytest.approx(-np.log(np.e / (np.e + 1.0)), abs=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_nonnegative_and_zero_only_at_onehot_limit(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((5, 4))
        y = rng.integers(0, 4, 5)
        assert scalar(cross_entropy(Tensor(z), y)) > 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 3, 5)
        err = grad_check(
            lambda lv: cross_entropy(lv["z"], y), {"z": rng.standard_normal((5, 3))}
        )
        assert err < 1e-4


class TestSslLoss:
    def test_equal_towers_gives_target_entropy(self):
        rng = np.random.default_rng(4)
        out = rng.standard_normal((3, 6))
        loss = scalar(ssl_loss(Tensor(out), out, temperature=1.0))
        q = np.exp(out - out.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        entropy = float(np.mean(-(q * np.log(q)).sum(axis=1)))
        assert loss == pytest.approx(entropy, abs=1e-10)

    def test_one_hot_limit(self):
        target = np.array([[50.0, -50.0]])
        anchor = np.array([[50.0, -50.0]])
        assert scalar(ssl_loss(Tensor(anchor), target, temperature=1.0)) < 1e-9

    def test_hand_evaluated_value(self):
        # independent numpy oracle for H(q, p) at anchor [1,0], target [0,1]
        q = np.exp([0.0, 1.0])
        q /= q.sum()
        p = np.exp([1.0, 0.0])
        p /= p.sum()
        expected = float(-(q * np.log(p)).sum())
        got = scalar(ssl_loss(Tensor([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 1.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0443203, abs=1e-6)

    def test_bad_temperature(self):
        with pytest.raises(ContractError):
            ssl_loss(Tensor([[0.0]]), np.array([[0.0]]), 0.0)

    def test_target_gradient_identically_zero(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        anchor = tape.leaf("anchor", rng.standard_normal((2, 4)))
        target = tape.leaf("target", rng.standard_normal((2, 4)))
        loss = ssl_loss(anchor, target, temperature=0.5)
        grads = tape.backward(loss)
        assert np.abs(grads["anchor"]).max() > 0
        np.testing.assert_array_equal(grads["target"], np.zeros((2, 4)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal((3, 4))
        err = grad_check(
            lambda lv: ssl_loss(lv["a"], target, 0.5), {"a": rng.standard_normal((3, 4))}
        )
        assert err < 1e-4


def _softmax_oracle(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


_Z = np.random.default_rng(7).standard_normal((5, 4))
_BCE_TARGETS = (np.arange(20).reshape(5, 4) % 3 == 0).astype(float)
_LABELS = np.array([3, 0, 1, 1, 2])
_SSL_TARGET = np.random.default_rng(8).standard_normal((5, 4))

# each loss, the op its node is named after, and the closed form of its gradient
_FUSED_LOSSES = {
    "bce_with_logits": (
        lambda z: bce_with_logits(z, _BCE_TARGETS), "bce_with_logits",
        lambda z: (1.0 / (1.0 + np.exp(-z)) - _BCE_TARGETS) / z.size,
    ),
    "cross_entropy": (
        lambda z: cross_entropy(z, _LABELS), "soft_cross_entropy",
        lambda z: (_softmax_oracle(z) - np.eye(4)[_LABELS]) / len(z),
    ),
    "ssl_loss": (
        lambda z: ssl_loss(z, _SSL_TARGET, 0.5), "soft_cross_entropy",
        lambda z: (_softmax_oracle(z / 0.5) - _softmax_oracle(_SSL_TARGET / 0.5)) / (len(z) * 0.5),
    ),
}


class TestFusedLosses:
    """Each loss is one node over the logits, with a hand-written backward;
    its targets are arrays inside the node."""

    @pytest.mark.parametrize("kind", list(_FUSED_LOSSES))
    def test_one_node_on_the_logits(self, kind):
        loss_fn, op, _ = _FUSED_LOSSES[kind]
        z = Tape().leaf("z", _Z)
        loss = loss_fn(z)
        assert loss._op == op and loss._parents == (z,)
        assert engine.topo_order(loss) == [z, loss]

    @pytest.mark.parametrize("kind", list(_FUSED_LOSSES))
    def test_checks_its_output_once(self, kind, monkeypatch):
        """The output is checked once; ``ssl_loss`` checks its target before it."""
        loss_fn, op, _ = _FUSED_LOSSES[kind]
        z, seen = Tensor(_Z), []
        check = engine._ensure_finite
        monkeypatch.setattr(engine, "_ensure_finite",
                            lambda arr, name: (seen.append((name, arr)), check(arr, name)))
        loss = loss_fn(z)
        targets = 1 if kind == "ssl_loss" else 0
        assert [name for name, _ in seen] == [op] * (targets + 1)
        assert [arr is loss.data for _, arr in seen] == [False] * targets + [True]

    @pytest.mark.parametrize("kind", list(_FUSED_LOSSES))
    def test_gradient_matches_closed_form(self, kind):
        loss_fn, _, closed_form = _FUSED_LOSSES[kind]
        tape = Tape()
        grads = tape.backward(loss_fn(tape.leaf("z", _Z)))
        np.testing.assert_allclose(grads["z"], closed_form(_Z), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_ssl_target_names_the_loss(self, bad):
        target = _SSL_TARGET.copy()
        target[1, 2] = bad
        with pytest.raises(NumericError, match="op 'soft_cross_entropy'"), \
                np.errstate(invalid="ignore"):
            ssl_loss(Tensor(_Z), target, 0.5)


class TestEma:
    def test_decay_one_freezes_shadow(self):
        ema = EmaState.init({"w": np.zeros(3)}, 1.0)
        ema_update(ema, {"w": np.ones(3)})
        np.testing.assert_array_equal(ema.shadow["w"], np.zeros(3))

    def test_decay_zero_copies_model(self):
        ema = EmaState.init({"w": np.zeros(3)}, 0.0)
        ema_update(ema, {"w": np.ones(3)})
        np.testing.assert_array_equal(ema.shadow["w"], np.ones(3))

    def test_convex_combination(self):
        ema = EmaState.init({"w": np.zeros(1)}, 0.9)
        ema_update(ema, {"w": np.ones(1)})
        assert ema.shadow["w"][0] == pytest.approx(0.1, abs=1e-15)

    def test_shape_mismatch(self):
        ema = EmaState.init({"w": np.zeros(3)}, 0.9)
        with pytest.raises(ContractError):
            ema_update(ema, {"w": np.ones(4)})


class TestClip:
    def test_scales_down(self):
        grads, norm = clip_global_norm({"g": np.array([3.0, 4.0])}, 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grads["g"], [0.6, 0.8])

    def test_below_threshold_untouched(self):
        g = {"g": np.array([0.3, 0.4])}
        clipped, norm = clip_global_norm(g, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(clipped["g"], g["g"])

    def test_post_clip_norm(self):
        rng = np.random.default_rng(7)
        grads = {"a": rng.standard_normal(5) * 10, "b": rng.standard_normal((2, 2)) * 10}
        clipped, norm = clip_global_norm(grads, 1.0)
        post = np.sqrt(sum(float((g**2).sum()) for g in clipped.values()))
        assert post == pytest.approx(min(norm, 1.0), abs=1e-9)

    def test_scales_the_given_arrays_in_place(self):
        """The clipped gradients are the arrays given, with bitwise the
        values of the out-of-place product ``g * (max_norm / norm)``."""
        rng = np.random.default_rng(8)
        grads = {"a": rng.standard_normal(5) * 10, "b": rng.standard_normal((2, 2)) * 10}
        given = dict(grads)
        before = {k: g.copy() for k, g in grads.items()}
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm > 1.0
        for k, g in given.items():
            assert clipped[k] is g
            assert g.tobytes() == (before[k] * (1.0 / norm)).tobytes(), k


class TestOptimizers:
    def test_adamw_zero_grad_no_decay_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamWState.init(params, weight_decay=0.0)
        adamw_step(state, params, {"w": np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_adamw_first_step_is_minus_lr(self):
        # bias-corrected mhat/sqrt(vhat) is exactly 1 at t=1 for unit gradient
        params = {"w": np.array([0.0])}
        state = AdamWState.init(params, weight_decay=0.0)
        adamw_step(state, params, {"w": np.ones(1)}, lr=1e-3)
        assert params["w"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_adamw_decay_shrinks_monotonically(self):
        params = {"w": np.array([5.0])}
        state = AdamWState.init(params, weight_decay=0.1)
        norms = [abs(params["w"][0])]
        for _ in range(5):
            adamw_step(state, params, {"w": np.zeros(1)}, lr=0.1)
            norms.append(abs(params["w"][0]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_adamw_lr_zero_is_identity(self):
        params = {"w": np.array([1.0])}
        state = AdamWState.init(params, weight_decay=0.5)
        adamw_step(state, params, {"w": np.ones(1)}, lr=0.0)
        np.testing.assert_array_equal(params["w"], [1.0])

    def test_sgd_zero_momentum_is_vanilla(self):
        params = {"w": np.array([1.0])}
        state = SgdMomentumState.init(params, momentum=0.0)
        sgd_momentum_step(state, params, {"w": np.array([2.0])}, lr=0.1)
        assert params["w"][0] == pytest.approx(0.8)

    def test_sgd_momentum_accumulates(self):
        params = {"w": np.array([0.0])}
        state = SgdMomentumState.init(params, momentum=0.5)
        sgd_momentum_step(state, params, {"w": np.ones(1)}, lr=1.0)
        sgd_momentum_step(state, params, {"w": np.ones(1)}, lr=1.0)
        # v1=1, v2=1.5 -> p = -(1 + 1.5)
        assert params["w"][0] == pytest.approx(-2.5)

    @pytest.mark.parametrize("step,init", [(adamw_step, AdamWState.init),
                                           (sgd_momentum_step, SgdMomentumState.init)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_the_buffer(self, step, init, bad):
        params = {"a": np.zeros(2), "b": np.zeros(2)}
        with pytest.raises(NumericError, match="non-finite gradient for b"):
            step(init(params), params, {"a": np.zeros(2), "b": np.array([0.0, bad])}, lr=0.1)

    @pytest.mark.parametrize("step,init", [(adamw_step, AdamWState.init),
                                           (sgd_momentum_step, SgdMomentumState.init)])
    def test_wrong_shape_gradient_names_the_buffer(self, step, init):
        params = {"a": np.zeros(2), "b": np.zeros(2)}
        with pytest.raises(ContractError, match="gradient for b has wrong shape"):
            step(init(params), params, {"a": np.zeros(2), "b": np.zeros(3)}, lr=0.1)


def reference_adamw(state, params, grads, lr):
    """The out-of-place AdamW update that ``adamw_step`` replaced."""
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    for name in sorted(params):
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        mhat = state.m[name] / bias1
        vhat = state.v[name] / bias2
        if state.weight_decay:
            params[name] *= 1.0 - lr * state.weight_decay
        params[name] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def reference_sgd(state, params, grads, lr):
    for name in sorted(params):
        state.velocity[name] = state.momentum * state.velocity[name] + grads[name]
        params[name] -= lr * state.velocity[name]


def reference_ema(ema, params):
    for name, value in params.items():
        ema.shadow[name] = ema.decay * ema.shadow[name] + (1.0 - ema.decay) * value


def _bitwise(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


class TestInPlaceState:
    """The in-place updates give bitwise the values of the old formulas."""

    def _params(self, seed):
        # about the size of one update, so a last-bit change in it shows
        rng = np.random.default_rng(seed)
        return {"w": 1e-3 * rng.standard_normal((7, 5)), "b": 1e-3 * rng.standard_normal(5),
                "s": 1e-3 * rng.standard_normal(1)}

    def _grads(self, rng, params):
        # mixed scales and exact zeros, so every branch of the arithmetic runs
        return {k: rng.standard_normal(v.shape) * rng.choice([0.0, 1e-6, 1.0, 1e3], v.shape)
                for k, v in params.items()}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_adamw_matches_the_reference(self, weight_decay):
        params, ref_params = self._params(0), self._params(0)
        state = AdamWState.init(params, weight_decay=weight_decay)
        ref = AdamWState.init(ref_params, weight_decay=weight_decay)
        m_buffers = {k: id(v) for k, v in state.m.items()}
        rng = np.random.default_rng(1)
        for step in range(6):
            grads = self._grads(rng, params)
            adamw_step(state, params, grads, lr=1e-3 * (step + 1))
            reference_adamw(ref, ref_params, grads, lr=1e-3 * (step + 1))
            _bitwise(params, ref_params)
            _bitwise(state.m, ref.m)
            _bitwise(state.v, ref.v)
        assert state.step == ref.step == 6
        assert {k: id(v) for k, v in state.m.items()} == m_buffers  # no new buffers

    def test_sgd_momentum_matches_the_reference(self):
        params, ref_params = self._params(2), self._params(2)
        state = SgdMomentumState.init(params, momentum=0.9)
        ref = SgdMomentumState.init(ref_params, momentum=0.9)
        rng = np.random.default_rng(3)
        for _ in range(6):
            grads = self._grads(rng, params)
            sgd_momentum_step(state, params, grads, lr=0.01)
            reference_sgd(ref, ref_params, grads, lr=0.01)
            _bitwise(params, ref_params)
            _bitwise(state.velocity, ref.velocity)

    def test_ema_matches_the_reference_and_owns_its_shadow(self):
        params = self._params(4)
        before = {k: v.copy() for k, v in params.items()}
        ema, ref = EmaState.init(params, 0.99), EmaState.init(params, 0.99)
        for k in params:
            assert not np.shares_memory(ema.shadow[k], params[k])
        rng = np.random.default_rng(5)
        for _ in range(6):
            live = {k: v + rng.standard_normal(v.shape) for k, v in params.items()}
            ema_update(ema, live)
            reference_ema(ref, live)
            _bitwise(ema.shadow, ref.shadow)
        _bitwise(params, before)  # the in-place shadow update never writes the params


FLOAT_KEYS = [k for k, kind in field_types(TrainConfig).items() if kind is float]


class TestTrainConfig:
    def test_float_keys_cover_the_reported_ones(self):
        assert {"lr", "pretrain_lr", "clip_norm", "temperature", "momentum"} <= set(FLOAT_KEYS)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_is_rejected_naming_key(self, key, value):
        # every range check compares, and NaN passes any comparison that is negated
        with pytest.raises(ContractError, match=f"^{key} must be finite"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("momentum", -3.0), ("momentum", 7.0), ("momentum", -1e-9), ("momentum", 1.0 + 1e-9),
         ("pretrain_weight_decay", -1.0), ("seed", -1)],
    )
    def test_out_of_range_is_rejected_naming_key(self, key, value):
        with pytest.raises(ContractError, match=f"^{key} must be"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [("momentum", 0.0), ("momentum", 1.0),
                                            ("pretrain_weight_decay", 0.0), ("seed", 0)])
    def test_range_ends_are_accepted(self, key, value):
        assert getattr(TrainConfig(**{key: value}), key) == value


class TestSchedule:
    def test_endpoints(self):
        sched = LrSchedule("warmup-linear-decay", 1.0, 10, 100)
        assert lr_at(sched, 0) == 0.0
        assert lr_at(sched, 10) == pytest.approx(1.0)
        assert lr_at(sched, 100) == pytest.approx(0.0)

    def test_linear_midpoint(self):
        sched = LrSchedule("warmup-linear-decay", 2.0, 0, 100)
        assert lr_at(sched, 50) == pytest.approx(1.0)

    def test_cosine_midpoint(self):
        sched = LrSchedule("warmup-cosine", 2.0, 0, 100)
        assert lr_at(sched, 50) == pytest.approx(1.0)

    def test_continuous_at_warmup_boundary(self):
        for kind in ("warmup-linear-decay", "warmup-cosine"):
            sched = LrSchedule(kind, 0.7, 25, 100)
            before = lr_at(sched, 24)
            at = lr_at(sched, 25)
            assert abs(at - before) < 0.7 / 25 + 1e-12
            assert at == pytest.approx(0.7)

    def test_out_of_range_step(self):
        sched = LrSchedule("warmup-cosine", 1.0, 0, 10)
        with pytest.raises(ContractError):
            lr_at(sched, 11)
        with pytest.raises(ContractError):
            lr_at(sched, -1)

    def test_bad_warmup(self):
        with pytest.raises(ContractError):
            LrSchedule("warmup-cosine", 1.0, 20, 10)

    def test_nonnegative_everywhere(self):
        sched = LrSchedule("warmup-cosine", 0.3, 7, 53)
        assert all(lr_at(sched, s) >= 0.0 for s in range(54))


def small_setup(seed=0, toggles=None):
    bundle = synth_dataset(2, 40, 16, np.random.default_rng(seed))
    config = CMixerConfig.small(image_side=16, hidden=8, num_layers=1)
    model = CMixerModel(config, rng=np.random.default_rng(seed))
    model.toggles = toggles if toggles is not None else Toggles()
    train_config = TrainConfig(
        pretrain_epochs=2,
        pretrain_batch_size=28,
        pretrain_warmup_steps=2,
        epochs=3,
        batch_size=28,
        warmup_steps=2,
        seed=seed,
    )
    return bundle, model, train_config


class TestPretrain:
    def test_no_ssl_toggle_keeps_weights(self):
        bundle, model, config = small_setup(toggles=Toggles(ssl=False))
        before = model.copy_params()
        result = pretrain(model, bundle, config, np.random.default_rng(0))
        assert result.losses == []
        for name in before:
            np.testing.assert_array_equal(result.model.params[name], before[name])

    def test_loss_logged_every_step(self):
        bundle, model, config = small_setup()
        n_train = len(bundle.indices(Split.TRAIN_LABELED))
        result = pretrain(model, bundle, config, np.random.default_rng(0))
        steps_per_epoch = int(np.ceil(n_train / config.pretrain_batch_size))
        assert len(result.losses) == config.pretrain_epochs * steps_per_epoch
        assert all(np.isfinite(v) for v in result.losses)

    def test_single_step_shadow_is_exact_convex_combination(self):
        bundle, model, config = small_setup()
        config.pretrain_epochs = 1
        config.pretrain_batch_size = 500  # one step total
        init = model.copy_params()
        result = pretrain(model, bundle, config, np.random.default_rng(0))
        d = config.ema_decay
        for name in init:
            expected = d * init[name] + (1.0 - d) * result.model.params[name]
            np.testing.assert_allclose(result.ema[name], expected, atol=1e-12)

    def test_ema_trajectory_matches_closed_form_and_stays_in_hull(self):
        # drive ema_update with a random live-weight trajectory and check the
        # shadow against an independently folded combination at every step
        rng = np.random.default_rng(8)
        init = {"w": rng.standard_normal((3, 2))}
        ema = EmaState.init(init, 0.9)
        reference = init["w"].copy()
        lows, highs = init["w"].copy(), init["w"].copy()
        for _ in range(25):
            live = {"w": rng.standard_normal((3, 2))}
            ema_update(ema, live)
            reference = 0.9 * reference + 0.1 * live["w"]
            np.testing.assert_allclose(ema.shadow["w"], reference, atol=1e-9)
            lows = np.minimum(lows, live["w"])
            highs = np.maximum(highs, live["w"])
            assert np.all(ema.shadow["w"] >= np.minimum(lows, init["w"]) - 1e-12)
            assert np.all(ema.shadow["w"] <= np.maximum(highs, init["w"]) + 1e-12)

    def test_empty_train_split_rejected(self):
        bundle, model, config = small_setup()
        empty = bundle.splits.copy()
        empty[:] = 3  # everything becomes test
        with pytest.raises(ContractError):
            pretrain(model, replace(bundle, splits=empty), config, np.random.default_rng(0))

    def test_no_rm_differs_from_masked(self):
        bundle, model, config = small_setup()
        masked = pretrain(model, bundle, config, np.random.default_rng(0))
        bundle2, model2, config2 = small_setup(toggles=Toggles(rm=False))
        plain = pretrain(model2, bundle2, config2, np.random.default_rng(0))
        assert masked.losses != plain.losses


def reference_views(bundle, config, seed, rm):
    """The pre-training views as the loop built them before it masked uint8
    images: convert to float, then mask, then transpose, with the same RNG
    order (batch order, augment, anchor mask, target mask, the two eps)."""
    rng = np.random.default_rng(seed)
    train_idx = bundle.indices(Split.TRAIN_LABELED, Split.TRAIN_UNLABELED)
    order = rng.permutation(len(train_idx))
    views = []
    for start in range(0, len(order), config.pretrain_batch_size):
        raw = bundle.images[train_idx[order[start : start + config.pretrain_batch_size]]]
        anchor = raw.astype(np.float64) / 255.0
        target = np.stack(
            [augment_target(img, rng) for img in raw]
        ).astype(np.float64) / 255.0
        if rm:
            anchor = random_mask(anchor, config.mask_rate, rng)
            target = random_mask(target, config.mask_rate, rng)
        anchor = np.transpose(anchor, (0, 3, 1, 2))
        target = np.transpose(target, (0, 3, 1, 2))
        views += [(anchor, rng.standard_normal(anchor.shape)),
                  (target, rng.standard_normal(target.shape))]
    return views


class TestPretrainViews:
    @pytest.mark.parametrize("rm", [True, False], ids=["rm", "no-rm"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_uint8_masking_matches_the_float_path(self, seed, rm, monkeypatch):
        bundle, model, config = small_setup(seed=seed, toggles=Toggles(rm=rm))
        config.pretrain_epochs = 1
        seen = []
        forward = model.forward

        def recording_forward(images, **kwargs):
            seen.append((images, kwargs["eps"]))
            return forward(images, **kwargs)

        # the anchor goes through forward, the target through scores -> forward
        monkeypatch.setattr(model, "forward", recording_forward)
        pretrain(model, bundle, config, np.random.default_rng(seed))
        want = reference_views(bundle, config, seed, rm)
        assert len(seen) == len(want) == 4
        for (images, eps), (ref_images, ref_eps) in zip(seen, want):
            assert images.shape == ref_images.shape
            assert images.tobytes() == ref_images.tobytes()
            assert eps.tobytes() == ref_eps.tobytes()


class TestFinetune:
    def test_loss_decreases_and_logs(self):
        bundle, model, config = small_setup()
        n_train = len(bundle.indices(Split.TRAIN_LABELED))
        result = finetune(model, bundle, config, np.random.default_rng(0))
        losses = [v for (_, _, s, m, v) in result.rows if m == "loss"]
        assert len(losses) == config.epochs * int(np.ceil(n_train / config.batch_size))
        assert losses[-1] < losses[0]

    def test_post_clip_grad_norm_bounded(self):
        bundle, model, config = small_setup()
        result = finetune(model, bundle, config, np.random.default_rng(0))
        norms = [v for (_, _, s, m, v) in result.rows if m == "grad_norm"]
        assert norms and all(v <= config.clip_norm + 1e-6 for v in norms)

    def test_bitwise_deterministic(self):
        bundle, model, config = small_setup()
        r1 = finetune(model, bundle, config, np.random.default_rng(3))
        bundle2, model2, config2 = small_setup()
        r2 = finetune(model2, bundle2, config2, np.random.default_rng(3))
        l1 = [v for (_, _, _, m, v) in r1.rows if m == "loss"]
        l2 = [v for (_, _, _, m, v) in r2.rows if m == "loss"]
        assert l1 == l2  # bitwise identical trajectories

    def test_val_metrics_logged_per_epoch(self):
        bundle, model, config = small_setup()
        result = finetune(model, bundle, config, np.random.default_rng(0))
        val_rows = [(e, m) for (_, e, s, m, _) in result.rows if s == "val"]
        assert len([m for _, m in val_rows if m == "acc"]) == config.epochs

    def test_no_labeled_samples_rejected(self):
        bundle, model, config = small_setup()
        tags = bundle.splits.copy()
        tags[:] = 3
        with pytest.raises(ContractError):
            finetune(model, replace(bundle, splits=tags), config, np.random.default_rng(0))


# a short run that every setting reaches: 2+ pretrain steps (so the EMA
# shadow feeds a later target), 3+ fine-tune steps, warmups shorter than
# the runs, and a clip norm small enough that clipping engages
ACTS_BASE = dict(pretrain_epochs=1, pretrain_batch_size=8, pretrain_warmup_steps=1, epochs=2,
                 batch_size=8, warmup_steps=1, clip_norm=0.05)
ACTS_CHANGED = dict(pretrain_epochs=2, pretrain_batch_size=6, pretrain_lr=2e-3,
                    pretrain_weight_decay=0.5, pretrain_warmup_steps=2, epochs=3, batch_size=6,
                    lr=0.02, momentum=0.5, warmup_steps=2, clip_norm=0.1, mask_rate=0.5,
                    temperature=0.25, ema_decay=0.5, seed=1)


def acts_run(**changes):
    """pretrain + finetune from fixed data, weights and generator; returns
    the parameters, the EMA shadow and every log row."""
    bundle = synth_dataset(2, 60, 8, np.random.default_rng(0))
    # the test split joins validation: `seed` acts only through the
    # validation noise, and 12 images leave too few ranks to be sure it shows
    bundle = replace(bundle, splits=np.where(bundle.splits == int(Split.TEST), int(Split.VAL),
                                             bundle.splits).astype(np.uint8))
    model = CMixerModel(CMixerConfig.small(image_side=8, hidden=4, num_layers=1),
                        rng=np.random.default_rng(0))
    config = TrainConfig(**{**ACTS_BASE, **changes})
    rng = np.random.default_rng(0)  # not config.seed, so seed must act by itself
    pre = pretrain(model, bundle, config, rng)
    tuned = finetune(model, bundle, config, rng)
    return model.params, pre.ema, pre.rows + tuned.rows


class TestEverySettingActs:
    @pytest.fixture(scope="class")
    def base(self):
        return acts_run()

    def test_changed_values_cover_every_setting(self):
        assert set(ACTS_CHANGED) == set(field_types(TrainConfig))
        assert {f.name for f in fields(TrainConfig)} == set(field_types(TrainConfig))

    @pytest.mark.parametrize("key", sorted(field_types(TrainConfig)))
    def test_changing_the_setting_changes_the_run(self, base, key):
        params, ema, rows = acts_run(**{key: ACTS_CHANGED[key]})
        same = rows == base[2] and all(
            np.array_equal(new[name], old[name])
            for new, old in ((params, base[0]), (ema, base[1])) for name in old
        )
        assert not same, f"{key}={ACTS_CHANGED[key]} left the parameters, EMA and rows as they were"
