import tracemalloc

import numpy as np
import pytest

from cmixer import engine
from cmixer.engine import ComplexTensor, Tape, Tensor
from cmixer.data import TaskKind
from cmixer.errors import ContractError, DimensionError
from cmixer.model import (
    CMixerConfig,
    CMixerModel,
    Toggles,
    init_params,
    load_checkpoint,
    mixer_block_forward,
    param_count,
    param_shapes,
    patchify,
    pearson_project,
    sample_incentive,
    save_checkpoint,
    unpatchify,
)
from cmixer.train import loss_for_task


def tiny_config(**kw):
    return CMixerConfig.small(**kw)


def forced_incentive(config, mu_raw=0.0, sigma_raw=0.0):
    """Incentive params that ignore the image: zero weights, fixed biases."""
    params = init_params(config, np.random.default_rng(0))
    params["incentive.hidden.weight"][:] = 0.0
    params["incentive.hidden.bias"][:] = 0.0
    params["incentive.mu.bias"][:] = mu_raw
    params["incentive.sigma.bias"][:] = sigma_raw
    return params


def bare_incentive(flat_dim, mu_raw=0.0, sigma_raw=0.0, hidden=128):
    """Just the incentive buffers, for sampler tests at arbitrary image sizes."""
    return {
        "incentive.hidden.weight": np.zeros((flat_dim, hidden)),
        "incentive.hidden.bias": np.zeros(hidden),
        "incentive.mu.weight": np.zeros((hidden, 1)),
        "incentive.mu.bias": np.full(1, mu_raw),
        "incentive.sigma.weight": np.zeros((hidden, 1)),
        "incentive.sigma.bias": np.full(1, sigma_raw),
    }


def wrap(params):
    return {k: Tensor(v) for k, v in params.items()}


class TestSampleIncentive:
    def test_degenerate_sigma_means_pure_image(self):
        config = tiny_config()
        # tanh saturates to exactly -1 well before -50, so sigma is exactly 0
        params = forced_incentive(config, mu_raw=0.0, sigma_raw=-50.0)
        rng = np.random.default_rng(1)
        image = rng.random((config.in_channels, 16, 16))
        eps = rng.standard_normal(image.shape)
        h = sample_incentive(Tensor(image), wrap(params), eps)
        np.testing.assert_array_equal(h.re.data, image)
        np.testing.assert_array_equal(h.im.data, np.zeros_like(image))

    def test_constant_imaginary_at_zero_sigma(self):
        config = tiny_config()
        params = forced_incentive(config, mu_raw=np.arctanh(0.5), sigma_raw=-50.0)
        image = np.zeros((config.in_channels, 16, 16))
        eps = np.random.default_rng(0).standard_normal(image.shape)
        h = sample_incentive(Tensor(image), wrap(params), eps)
        np.testing.assert_allclose(h.im.data, 0.5, atol=1e-12)

    def test_monte_carlo_statistics(self):
        # mu=0.2, sigma=0.3 via the inverse of the tanh mappings; a batch
        # of 64 128x128 images gives just over 10^6 draws
        params = bare_incentive(
            128 * 128, mu_raw=np.arctanh(0.2), sigma_raw=np.arctanh(2 * 0.3 - 1.0)
        )
        rng = np.random.default_rng(7)
        images = np.zeros((64, 1, 128, 128))
        eps = rng.standard_normal(images.shape)
        h = sample_incentive(Tensor(images), wrap(params), eps)
        draws = h.im.data.ravel()
        assert draws.size >= 10**6
        assert abs(draws.mean() - 0.2) < 3 * 0.3 / 1000
        assert abs(draws.std() - 0.3) / 0.3 < 0.01

    def test_epsilon_shape_mismatch(self):
        config = tiny_config()
        params = wrap(forced_incentive(config))
        with pytest.raises(DimensionError):
            sample_incentive(
                Tensor(np.zeros((1, 16, 16))), params, np.zeros((1, 8, 8))
            )

    def test_gradient_reaches_generator(self):
        # a sigma-dependent loss must produce nonzero incentive gradients;
        # generic (nonzero) output weights let them reach the hidden layer
        config = tiny_config()
        params = init_params(config, np.random.default_rng(3))
        out_rng = np.random.default_rng(13)
        params["incentive.mu.weight"] = out_rng.standard_normal((128, 1)) * 0.1
        params["incentive.sigma.weight"] = out_rng.standard_normal((128, 1)) * 0.1
        rng = np.random.default_rng(4)
        images = rng.random((2, 1, 16, 16))
        eps = rng.standard_normal(images.shape)
        tape = Tape()
        leaves = {k: tape.leaf(k, v) for k, v in params.items()}
        h = sample_incentive(Tensor(images), leaves, eps)
        loss = engine.mul(h.im, h.im).sum()
        grads = tape.backward(loss)
        assert np.abs(grads["incentive.sigma.weight"]).max() > 0
        assert np.abs(grads["incentive.mu.weight"]).max() > 0
        assert np.abs(grads["incentive.hidden.weight"]).max() > 0


class TestPatchify:
    def test_28x28_patch4_gives_49_rows(self):
        h = ComplexTensor(Tensor(np.zeros((1, 28, 28))), Tensor(np.zeros((1, 28, 28))))
        out = patchify(h, 4)
        assert out.shape == (49, 16)

    def test_whole_image_patch_is_flatten(self):
        rng = np.random.default_rng(0)
        re = rng.random((1, 6, 6))
        h = ComplexTensor(Tensor(re), Tensor(np.zeros_like(re)))
        out = patchify(h, 6)
        assert out.shape == (1, 36)
        np.testing.assert_array_equal(out.re.data[0], re.ravel())

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        re = rng.random((4, 3, 8, 8))
        im = rng.random((4, 3, 8, 8))
        h = ComplexTensor(Tensor(re), Tensor(im))
        back = unpatchify(patchify(h, 4), 4, 3, 8, 8)
        np.testing.assert_array_equal(back.re.data, re)
        np.testing.assert_array_equal(back.im.data, im)

    def test_indivisible_raises(self):
        h = ComplexTensor(Tensor(np.zeros((1, 9, 9))), Tensor(np.zeros((1, 9, 9))))
        with pytest.raises(DimensionError):
            patchify(h, 4)

    def test_patch_order_row_major(self):
        # put a marker in the second patch of the first patch row
        img = np.zeros((1, 8, 8))
        img[0, 0, 4] = 1.0
        h = ComplexTensor(Tensor(img), Tensor(np.zeros_like(img)))
        out = patchify(h, 4).re.data
        assert out[1].sum() == 1.0 and out[0].sum() == 0.0


class TestMixerBlock:
    def zero_block(self, config, rng):
        params = init_params(config, rng)
        for k in list(params):
            if k.startswith("block0.") and ".weight." in k:
                params[k] = np.zeros_like(params[k])
        return params

    def test_zero_weights_is_identity(self):
        config = tiny_config()
        params = wrap(self.zero_block(config, np.random.default_rng(0)))
        rng = np.random.default_rng(5)
        x = ComplexTensor(
            Tensor(rng.standard_normal((2, config.seq, config.hidden))),
            Tensor(rng.standard_normal((2, config.seq, config.hidden))),
        )
        y = mixer_block_forward(x, params, "block0")
        np.testing.assert_array_equal(y.re.data, x.re.data)
        np.testing.assert_array_equal(y.im.data, x.im.data)

    def test_shape_preserved(self):
        config = tiny_config()
        params = wrap(init_params(config, np.random.default_rng(1)))
        rng = np.random.default_rng(6)
        x = ComplexTensor(
            Tensor(rng.standard_normal((3, config.seq, config.hidden))),
            Tensor(rng.standard_normal((3, config.seq, config.hidden))),
        )
        y = mixer_block_forward(x, params, "block0")
        assert y.shape == x.shape

    def test_singleton_hand_case(self):
        # S=1, C=1, all weights one: layernorm of a singleton collapses to
        # zero under the eps guard, so both mixes add nothing
        config = CMixerConfig(
            num_layers=1, hidden=1, seq=1, patch=4, token_hidden=1,
            channel_hidden=1, num_classes=2, in_channels=1, image_side=4,
        )
        params = init_params(config, np.random.default_rng(0))
        for k in params:
            if k.startswith("block0.") and ".weight." in k:
                params[k] = np.ones_like(params[k])
        x = ComplexTensor(Tensor([[[1.0]]]), Tensor(np.zeros((1, 1, 1))))
        y = mixer_block_forward(x, wrap(params), "block0")
        np.testing.assert_allclose(y.re.data, [[[1.0]]], atol=1e-12)
        np.testing.assert_allclose(y.im.data, [[[0.0]]], atol=1e-12)


class TestPearson:
    def test_zero(self):
        out = pearson_project(ComplexTensor(Tensor([0.0]), Tensor([0.0])))
        assert out.data == pytest.approx(0.0)

    def test_cancellation(self):
        out = pearson_project(ComplexTensor(Tensor([3.0]), Tensor([-3.0])))
        assert out.data == pytest.approx(0.0)

    def test_tanh_of_two(self):
        out = pearson_project(ComplexTensor(Tensor([1.0]), Tensor([1.0])))
        assert out.data == pytest.approx(np.tanh(2.0), abs=1e-12)

    def test_ablated_parts(self):
        h = ComplexTensor(Tensor([0.7]), Tensor([-0.2]))
        real_only = pearson_project(h, use_real=True, use_imag=False)
        imag_only = pearson_project(h, use_real=False, use_imag=True)
        assert real_only.data == pytest.approx(np.tanh(0.7))
        assert imag_only.data == pytest.approx(np.tanh(-0.2))

    def test_neither_part_raises(self):
        with pytest.raises(ContractError):
            pearson_project(ComplexTensor(Tensor([0.0]), Tensor([0.0])),
                            use_real=False, use_imag=False)


class TestForward:
    def test_shape_and_open_range(self):
        config = tiny_config(num_classes=9)
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        out = model.scores(rng.random((2, 1, 16, 16)), rng=rng)
        assert out.shape == (2, 9)
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_no_il_is_deterministic(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        toggles = Toggles(il=False)
        x = np.random.default_rng(2).random((3, 1, 16, 16))
        a = model.scores(x, toggles=toggles, rng=np.random.default_rng(0))
        b = model.scores(x, toggles=toggles, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_fixed_seed_reproducible(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        x = np.random.default_rng(2).random((3, 1, 16, 16))
        a = model.scores(x, rng=np.random.default_rng(7))
        b = model.scores(x, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_ssl_head_width(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        x = np.random.default_rng(3).random((2, 1, 16, 16))
        out = model.scores(x, rng=np.random.default_rng(0), head="ssl")
        assert out.shape == (2, 128)

    def test_batch_permutation_equivariance(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(4)
        x = rng.random((4, 1, 16, 16))
        eps = rng.standard_normal(x.shape)
        perm = np.array([2, 0, 3, 1])
        out = model.scores(x, eps=eps)
        out_perm = model.scores(x[perm], eps=eps[perm])
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-12)

    def test_projection_ablations_differ_from_full(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = rng.random((2, 1, 16, 16))
        eps = rng.standard_normal(x.shape)
        full = model.scores(x, eps=eps)
        ronly = model.scores(x, eps=eps, toggles=Toggles(p_i=False))
        ionly = model.scores(x, eps=eps, toggles=Toggles(p_r=False))
        for out in (ronly, ionly):
            assert np.all(out > -1.0) and np.all(out < 1.0)
        assert np.abs(full - ronly).max() > 1e-9
        assert np.abs(full - ionly).max() > 1e-9
        assert np.abs(ronly - ionly).max() > 1e-9

    def test_incentive_gradient_flows_end_to_end(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        # fresh init zeroes the incentive output layer; the classifier loss
        # still reaches those output buffers through the sampled noise
        rng = np.random.default_rng(6)
        x = rng.random((2, 1, 16, 16))
        eps = rng.standard_normal(x.shape)
        tape = Tape()
        out = model.forward(x, eps=eps, tape=tape)
        grads = tape.backward(engine.mul(out, out).sum())
        assert np.abs(grads["incentive.sigma.weight"]).max() > 0
        assert np.abs(grads["incentive.mu.weight"]).max() > 0
        # once the output layer has moved off zero, the hidden layer trains too
        params = model.copy_params()
        params["incentive.mu.weight"] += 0.05
        params["incentive.sigma.weight"] -= 0.05
        tape2 = Tape()
        moved = CMixerModel(config, params=params)
        out2 = moved.forward(x, eps=eps, tape=tape2)
        grads2 = tape2.backward(engine.mul(out2, out2).sum())
        assert np.abs(grads2["incentive.hidden.weight"]).max() > 0

    def test_bad_image_shape(self):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        with pytest.raises(DimensionError):
            model.scores(np.zeros((2, 1, 8, 8)), rng=np.random.default_rng(0))


    def test_training_step_node_count(self):
        """One training step of the fit-tiny benchmark model builds a fixed
        graph; the count is pinned so that un-fusing an op shows."""
        config = CMixerConfig.small(image_side=8, hidden=8, num_layers=2)
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((32, 1, 8, 8))
        tape = Tape()
        out = model.forward(x, eps=rng.standard_normal(x.shape), tape=tape)
        loss = loss_for_task(TaskKind.BINARY, out, rng.integers(0, 2, 32), 2)
        assert len(engine.topo_order(loss)) == 133


def fit_tiny_config():
    return CMixerConfig.small(image_side=8, hidden=8, num_layers=2)


def breast_config():
    """The BreastMNIST-size model of acceptance criterion 10."""
    return CMixerConfig(
        num_layers=2, hidden=32, seq=49, patch=4, token_hidden=98,
        channel_hidden=64, num_classes=2, in_channels=1, image_side=28,
    )


class TestNoGrad:
    @pytest.mark.parametrize("make_config, kwargs", [
        (fit_tiny_config, {}),
        (breast_config, {}),
        (fit_tiny_config, {"head": "ssl", "foreign": True}),
        (fit_tiny_config, {"toggles": Toggles(il=False)}),
        (breast_config, {"toggles": Toggles(p_i=False)}),
    ], ids=["fit_tiny", "breast", "ssl_foreign_params", "il_off", "p_r_only"])
    def test_scores_bitwise_equal_to_graph_forward(self, make_config, kwargs):
        config = make_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        kwargs = dict(kwargs)
        if kwargs.pop("foreign", False):
            kwargs["params"] = init_params(config, np.random.default_rng(9))
        rng = np.random.default_rng(1)
        x = rng.random((5, config.in_channels, config.image_side, config.image_side))
        eps = rng.standard_normal(x.shape)
        graph = model.forward(x, eps=eps, **kwargs)
        assert len(engine.topo_order(graph)) > 1
        scores = model.scores(x, eps=eps, **kwargs)
        assert scores.tobytes() == graph.data.tobytes()

    def test_forward_inside_no_grad_is_one_node(self):
        config = fit_tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        x = np.random.default_rng(2).random((4, 1, 8, 8))
        with engine.no_grad():
            out = model.forward(x, rng=np.random.default_rng(3))
        assert len(engine.topo_order(out)) == 1

    def test_forward_takes_leaf_tensors(self):
        config = fit_tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(4)
        x = rng.random((3, 1, 8, 8))
        eps = rng.standard_normal(x.shape)
        tape = Tape()
        out = model.forward(x, eps=eps, tape=tape)
        grads = tape.backward(engine.mul(out, out).sum())
        outer = Tape()
        leaves = {k: outer.leaf(k, v) for k, v in model.params.items()}
        out2 = model.forward(x, eps=eps, params=leaves)
        grads2 = outer.backward(engine.mul(out2, out2).sum())
        assert out2.data.tobytes() == out.data.tobytes()
        for name, g in grads.items():
            assert grads2[name].tobytes() == g.tobytes(), name

    def test_scoring_peak_memory_below_half_of_graph_forward(self):
        """Memory scales with activations: a graph-free pass frees each
        intermediate, where a graph keeps them all until it is dropped."""
        config = breast_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(5)
        x = rng.random((64, 1, 28, 28))
        eps = rng.standard_normal(x.shape)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        graph_peak = peak(lambda: model.forward(x, eps=eps))
        scores_peak = peak(lambda: model.scores(x, eps=eps))
        assert scores_peak < 0.5 * graph_peak, (scores_peak, graph_peak)


class TestParamCount:
    def test_reference_config_budget(self):
        count = param_count(CMixerConfig.reference(in_channels=3, num_classes=9))
        assert 5_500_000 <= count <= 6_500_000

    def test_hand_countable_small(self):
        config = CMixerConfig(
            num_layers=0, hidden=1, seq=1, patch=2, token_hidden=1,
            channel_hidden=1, num_classes=1, in_channels=1, image_side=2,
        )
        flat = 4
        incentive = flat * 128 + 128 + 2 * (128 + 1)
        patch_embed = 2 * (1 * 4) + 2 * 1
        head = 2 * (1 * 1) + 2 * 1
        ssl_head = 2 * (128 * 1) + 2 * 128
        assert param_count(config) == incentive + patch_embed + head + ssl_head

    def test_layers_scale_linearly(self):
        def with_layers(n):
            return param_count(
                CMixerConfig(
                    num_layers=n, hidden=8, seq=4, patch=4, token_hidden=8,
                    channel_hidden=16, num_classes=2, in_channels=1, image_side=8,
                )
            )

        base, one, two = with_layers(0), with_layers(1), with_layers(2)
        assert two - base == 2 * (one - base)

    def test_count_matches_materialized_params(self):
        config = tiny_config()
        params = init_params(config, np.random.default_rng(0))
        assert param_count(config) == sum(v.size for v in params.values())


class TestConfig:
    def test_seq_invariant(self):
        with pytest.raises(ContractError):
            CMixerConfig(seq=48)
        with pytest.raises(ContractError):
            CMixerConfig(patch=8)  # 28 is not divisible by 8

    def test_round_trip_lines(self):
        config = tiny_config()
        again = CMixerConfig.from_lines(config.to_lines())
        assert again == config


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        again = load_checkpoint(path)
        assert again.config == config
        for name, arr in model.params.items():
            np.testing.assert_array_equal(arr, again.params[name])

    def test_naming_convention(self, tmp_path):
        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        import numpy as np_

        with np_.load(path) as npz:
            names = set(npz.files)
        assert "block0.token1.weight.re" in names
        assert "block0.channel2.weight.im" in names
        assert "meta" in names
