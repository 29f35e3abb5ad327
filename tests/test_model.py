import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from cmixer import engine
from cmixer.engine import ComplexTensor, Tape, Tensor
from cmixer.data import TaskKind
from cmixer.errors import ContractError, DimensionError, FormatError
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
)
from cmixer.npzio import read_arrays, write_arrays
from cmixer.train import cross_entropy, loss_for_task, ssl_loss


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
        image = rng.random((1, config.in_channels, 16, 16))
        eps = rng.standard_normal(image.shape)
        h = sample_incentive(Tensor(image), wrap(params), eps)
        np.testing.assert_array_equal(h.re.data, image)
        np.testing.assert_array_equal(h.im.data, np.zeros_like(image))

    def test_constant_imaginary_at_zero_sigma(self):
        config = tiny_config()
        params = forced_incentive(config, mu_raw=np.arctanh(0.5), sigma_raw=-50.0)
        image = np.zeros((1, config.in_channels, 16, 16))
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
                Tensor(np.zeros((1, 1, 16, 16))), params, np.zeros((1, 1, 8, 8))
            )

    def test_unbatched_image_raises(self):
        params = wrap(forced_incentive(tiny_config()))
        with pytest.raises(DimensionError, match="batch"):
            sample_incentive(Tensor(np.zeros((1, 16, 16))), params, np.zeros((1, 16, 16)))

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
        h = ComplexTensor(Tensor(np.zeros((1, 1, 28, 28))), Tensor(np.zeros((1, 1, 28, 28))))
        out = patchify(h, 4)
        assert out.shape == (1, 49, 16)

    def test_whole_image_patch_is_flatten(self):
        rng = np.random.default_rng(0)
        re = rng.random((1, 1, 6, 6))
        h = ComplexTensor(Tensor(re), Tensor(np.zeros_like(re)))
        out = patchify(h, 6)
        assert out.shape == (1, 1, 36)
        np.testing.assert_array_equal(out.re.data[0, 0], re.ravel())

    def test_is_a_permutation_of_its_input(self):
        # distinct entries, so equal sorted parts mean each entry lands once
        re = np.arange(4 * 3 * 8 * 8, dtype=np.float64).reshape((4, 3, 8, 8))
        h = ComplexTensor(Tensor(re), Tensor(-1.0 - re))
        out = patchify(h, 4)
        assert out.shape == (4, 4, 48)
        np.testing.assert_array_equal(np.sort(out.re.data, axis=None), re.ravel())
        np.testing.assert_array_equal(np.sort(-1.0 - out.im.data, axis=None), re.ravel())
        # each image's entries stay in that image's sequence
        for b in range(4):
            np.testing.assert_array_equal(np.sort(out.re.data[b], axis=None), re[b].ravel())

    def test_unbatched_image_raises(self):
        h = ComplexTensor(Tensor(np.zeros((1, 8, 8))), Tensor(np.zeros((1, 8, 8))))
        with pytest.raises(DimensionError, match="batch"):
            patchify(h, 4)

    def test_indivisible_raises(self):
        h = ComplexTensor(Tensor(np.zeros((1, 1, 9, 9))), Tensor(np.zeros((1, 1, 9, 9))))
        with pytest.raises(DimensionError):
            patchify(h, 4)

    def test_patch_order_row_major(self):
        # put a marker in the second patch of the first patch row
        img = np.zeros((1, 1, 8, 8))
        img[0, 0, 0, 4] = 1.0
        h = ComplexTensor(Tensor(img), Tensor(np.zeros_like(img)))
        out = patchify(h, 4).re.data[0]
        assert out[1].sum() == 1.0 and out[0].sum() == 0.0


class TestMixerBlock:
    def zero_block(self, config, rng):
        params = init_params(config, rng)
        for k in list(params):
            if k.startswith("block0.") and k.endswith(".weight"):
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
            if k.startswith("block0.") and k.endswith(".weight"):
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
        model.toggles = Toggles(il=False)
        x = np.random.default_rng(2).random((3, 1, 16, 16))
        a = model.scores(x, rng=np.random.default_rng(0))
        b = model.scores(x, rng=np.random.default_rng(99))
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
        model.toggles = Toggles(p_i=False)
        ronly = model.scores(x, eps=eps)
        model.toggles = Toggles(p_r=False)
        ionly = model.scores(x, eps=eps)
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

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    def test_unknown_head_raises_before_the_trunk_runs(self, monkeypatch, taped):
        import cmixer.model as model_module

        config = tiny_config()
        model = CMixerModel(config, rng=np.random.default_rng(0))

        def trunk(*args, **kwargs):
            raise AssertionError("the trunk ran before the head was checked")

        for name in ("sample_incentive", "patchify", "mixer_block_forward"):
            monkeypatch.setattr(model_module, name, trunk)
        x = np.zeros((2, config.in_channels, config.image_side, config.image_side))
        with pytest.raises(ContractError, match="unknown head 'bogus'"):
            model.forward(x, rng=np.random.default_rng(0), head="bogus",
                          tape=Tape() if taped else None)


    def test_training_step_node_count(self):
        """One training step of the fit-tiny benchmark model builds a fixed
        graph for each loss (BCE, softmax cross-entropy, SSL); the counts
        are pinned so that un-fusing an op shows."""
        config = CMixerConfig.small(image_side=8, hidden=8, num_layers=2)
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((32, 1, 8, 8))
        eps = rng.standard_normal(x.shape)
        labels = rng.integers(0, 2, 32)

        def nodes(loss, head="classify"):
            out = model.forward(x, eps=eps, head=head, tape=Tape())
            return len(engine.topo_order(loss(out)))

        assert nodes(lambda out: loss_for_task(TaskKind.BINARY, out, labels, 2)) == 77
        assert nodes(lambda out: cross_entropy(out, labels)) == 78
        assert nodes(lambda out: ssl_loss(out, rng.standard_normal(out.shape)), "ssl") == 80

    def test_training_step_packs_no_parameter(self):
        """Each complex parameter is one packed leaf: the fit-tiny BCE step
        has one leaf per buffer the classify head reads (26) and one packing
        node, the noisy input; a pair of ``.re``/``.im`` leaves would add a
        leaf and a packing node each."""
        config = CMixerConfig.small(image_side=8, hidden=8, num_layers=2)
        model = CMixerModel(config, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.random((32, 1, 8, 8))
        out = model.forward(x, eps=rng.standard_normal(x.shape), tape=Tape())
        nodes = engine.topo_order(loss_for_task(TaskKind.BINARY, out, rng.integers(0, 2, 32), 2))
        ops = [n._op for n in nodes]
        assert ops.count("complex") == 1
        leaves = {op for op in ops if op.startswith("leaf:")}
        assert leaves == {f"leaf:{name}" for name in model.params
                          if not name.startswith("ssl_head.")}
        assert len(leaves) == 26


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
        model.toggles = kwargs.pop("toggles", Toggles())
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


def reference_scores(model, x, eps, head="classify"):
    """The whole forward in plain complex128 numpy: ``(A+iB) @ h`` mixing,
    per-part layer norm, CReLU and ``tanh`` of the kept parts."""
    p, cfg, toggles = model.params, model.config, model.toggles

    def weight(name):  # a packed (m, 2, n) buffer
        return p[f"{name}.weight"][:, 0] + 1j * p[f"{name}.weight"][:, 1]

    def bias(name):  # a packed (2, m) buffer
        return p[f"{name}.bias"][0] + 1j * p[f"{name}.bias"][1]

    def norm(v, gamma, beta):
        mu = v.mean(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(v.var(axis=-1, keepdims=True) + 1e-5) * gamma + beta

    def layernorm(h, name):
        gamma, beta = p[f"{name}.gamma"], p[f"{name}.beta"]
        return norm(h.real, gamma[0], beta[0]) + 1j * norm(h.imag, gamma[1], beta[1])

    def crelu(h):
        return np.maximum(h.real, 0.0) + 1j * np.maximum(h.imag, 0.0)

    b, ch, side, P = x.shape[0], cfg.in_channels, cfg.image_side, cfg.patch
    if toggles.il:
        hidden = np.maximum(x.reshape(b, -1) @ p["incentive.hidden.weight"]
                            + p["incentive.hidden.bias"], 0.0)
        mu = np.tanh(hidden @ p["incentive.mu.weight"] + p["incentive.mu.bias"])
        sigma = 0.5 * (1.0 + np.tanh(hidden @ p["incentive.sigma.weight"]
                                     + p["incentive.sigma.bias"]))
        h = x + 1j * (mu[:, :, None, None] + sigma[:, :, None, None] * eps)
    else:
        h = x + 0j
    hp = side // P
    h = h.reshape(b, ch, hp, P, hp, P).transpose(0, 2, 4, 1, 3, 5).reshape(b, hp * hp, -1)
    h = h @ weight("patch_embed").T + bias("patch_embed")
    for i in range(cfg.num_layers):
        blk = f"block{i}"
        h = h + weight(f"{blk}.token2") @ crelu(weight(f"{blk}.token1") @ layernorm(h, f"{blk}.ln1"))
        h = h + crelu(layernorm(h, f"{blk}.ln2") @ weight(f"{blk}.channel1").T) @ weight(f"{blk}.channel2").T
    prefix = "head" if head == "classify" else "ssl_head"
    y = h.mean(axis=1) @ weight(prefix).T + bias(prefix)
    return np.tanh(toggles.p_r * y.real + toggles.p_i * y.imag)


class TestComplexReference:
    @pytest.mark.parametrize("make_config", [fit_tiny_config, breast_config],
                             ids=["fit_tiny", "breast"])
    @pytest.mark.parametrize("head", ["classify", "ssl"])
    @pytest.mark.parametrize("toggles", [Toggles(), Toggles(p_i=False), Toggles(il=False)],
                             ids=["full", "p_r_only", "il_off"])
    def test_scores_match_complex128_numpy(self, make_config, head, toggles):
        config = make_config()
        # every buffer perturbed, so biases, gains and the noise heads all count
        params = init_params(config, np.random.default_rng(0))
        jitter = np.random.default_rng(1)
        params = {k: v + 0.1 * jitter.standard_normal(v.shape) for k, v in params.items()}
        model = CMixerModel(config, params=params)
        model.toggles = toggles
        rng = np.random.default_rng(2)
        x = rng.random((6, config.in_channels, config.image_side, config.image_side))
        eps = rng.standard_normal(x.shape)
        got = model.scores(x, eps=eps, head=head)
        want = reference_scores(model, x, eps, head=head)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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


def legacy_entries(config, rng):
    """A checkpoint's arrays in the file format: a random real array per
    incentive buffer and per part (``.re``/``.im``) of each complex one."""
    entries = {}
    for name, shape in param_shapes(config).items():
        if name.startswith("incentive."):
            entries[name] = rng.standard_normal(shape)
        else:
            for part in ("re", "im"):
                entries[f"{name}.{part}"] = rng.standard_normal(shape[:-2] + shape[-1:])
    meta = (config.to_lines() + "ssl=True\n").encode()
    entries["meta"] = np.frombuffer(meta, dtype=np.uint8)
    return entries


class TestCheckpointFormat:
    """The file keeps one entry per part of each complex buffer; memory
    holds one packed buffer."""

    def test_pair_entries_load_bitwise_into_packed_buffers(self, tmp_path):
        config = tiny_config(num_layers=1)
        entries = legacy_entries(config, np.random.default_rng(3))
        path = tmp_path / "legacy.npz"
        write_arrays(path, entries)
        params = load_checkpoint(path).params
        assert set(params) == set(param_shapes(config))
        for name, arr in params.items():
            assert arr.dtype == np.float64 and arr.shape == param_shapes(config)[name]
            if name.startswith("incentive."):
                assert arr.tobytes() == entries[name].tobytes(), name
            else:
                for i, part in enumerate(("re", "im")):
                    got = np.ascontiguousarray(arr[..., i, :])
                    assert got.tobytes() == entries[f"{name}.{part}"].tobytes(), (name, part)

    def test_save_writes_the_pair_entries_in_file_order(self, tmp_path):
        config = tiny_config(num_layers=1)
        entries = legacy_entries(config, np.random.default_rng(4))
        write_arrays(tmp_path / "legacy.npz", entries)
        path = tmp_path / "again.npz"
        save_checkpoint(path, load_checkpoint(tmp_path / "legacy.npz"))
        with zipfile.ZipFile(path) as zf:
            order = [n.removesuffix(".npy") for n in zf.namelist()]
        incentive = [n for n in param_shapes(config) if n.startswith("incentive.")]
        block = [f"block0.{n}" for n in ("ln1.gamma", "ln1.beta", "token1.weight",
                                         "token2.weight", "ln2.gamma", "ln2.beta",
                                         "channel1.weight", "channel2.weight")]
        embed = ["patch_embed.weight", "patch_embed.bias"]
        heads = ["head.weight", "head.bias", "ssl_head.weight", "ssl_head.bias"]
        # each layer's real parts, then its imaginary parts
        assert order == incentive + [
            f"{name}.{part}" for group in (embed, block, heads)
            for part in ("re", "im") for name in group
        ] + ["meta"]
        written = read_arrays(path)
        for name in order[:-1]:
            want = entries[name]
            assert written[name].shape == want.shape, name
            assert written[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("entry", ["head.bias.im", "patch_embed.weight.re"])
    def test_missing_part_is_a_format_error_naming_it(self, tmp_path, entry):
        entries = legacy_entries(tiny_config(num_layers=1), np.random.default_rng(5))
        del entries[entry]
        path = tmp_path / "partial.npz"
        write_arrays(path, entries)
        with pytest.raises(FormatError, match=re.escape(repr(entry))):
            load_checkpoint(path)

    def test_unsplit_complex_entry_is_a_format_error_naming_it(self, tmp_path):
        config = tiny_config(num_layers=1)
        entries = legacy_entries(config, np.random.default_rng(7))
        entries["head.bias"] = np.zeros(param_shapes(config)["head.bias"])
        path = tmp_path / "unsplit.npz"
        write_arrays(path, entries)
        with pytest.raises(FormatError, match="'head.bias' is not split"):
            load_checkpoint(path)

    def test_part_of_the_wrong_shape_is_a_dimension_error(self, tmp_path):
        entries = legacy_entries(tiny_config(num_layers=1), np.random.default_rng(6))
        entries["block0.ln1.gamma.im"] = entries["block0.ln1.gamma.im"][:-1]
        path = tmp_path / "bad.npz"
        write_arrays(path, entries)
        with pytest.raises(DimensionError, match="block0.ln1.gamma.im"):
            load_checkpoint(path)


TOGGLE_SETS = [
    Toggles(),
    Toggles(ssl=False),
    Toggles(rm=False),
    Toggles(il=False),
    Toggles(p_i=False),
    Toggles(p_r=False),
]
TOGGLE_IDS = ["full", "no-ssl", "no-rm", "no-il", "p-real-only", "p-imag-only"]


class TestCheckpointToggles:
    @pytest.mark.parametrize("toggles", TOGGLE_SETS, ids=TOGGLE_IDS)
    def test_scores_with_the_training_toggles(self, tmp_path, toggles):
        from cmixer.data import Split, synth_dataset
        from cmixer.metrics import evaluate
        from cmixer.train import TrainConfig, finetune

        bundle = synth_dataset(2, 10, 8, np.random.default_rng(0))
        model = CMixerModel(tiny_config(image_side=8, hidden=8, num_layers=1),
                            rng=np.random.default_rng(0))
        model.toggles = toggles
        finetune(model, bundle, TrainConfig(epochs=1, batch_size=8, warmup_steps=0),
                 np.random.default_rng(1))
        assert model.toggles == toggles
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.toggles == toggles
        rng = np.random.default_rng(2)
        x = rng.random((5, 1, 8, 8))
        eps = rng.standard_normal(x.shape)
        want = model.scores(x, eps=eps)
        assert loaded.scores(x, eps=eps).tobytes() == want.tobytes()
        want_report = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(3))
        assert evaluate(loaded, bundle, Split.TEST, rng=np.random.default_rng(3)) == want_report

    def test_meta_without_toggle_lines_loads_defaults(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "old.npz"
        meta = np.frombuffer(config.to_lines().encode(), dtype=np.uint8)
        write_arrays(path, {**legacy_entries(config, np.random.default_rng(0)), "meta": meta})
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert loaded.toggles == Toggles()

    def test_malformed_bool_in_meta_is_format_error(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "bad.npz"
        text = config.to_lines() + "p_i=maybe\n"
        write_arrays(path, {**legacy_entries(config, np.random.default_rng(0)),
                            "meta": np.frombuffer(text.encode(), dtype=np.uint8)})
        with pytest.raises(FormatError, match="p_i"):
            load_checkpoint(path)
