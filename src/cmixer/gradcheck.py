"""Release-gate gradient checks: every layer type, the full model, all losses.

Each entry builds a deterministic scalar function of its leaves and runs
it through ``engine.grad_check``. Small ops are enumerated exhaustively;
the full-model checks sample a fixed number of entries per leaf (every
leaf is touched) because enumerating a few thousand parameters twice
per entry would blow the time budget without adding coverage.

``corrupt_op`` is a testing hook: it wraps the named entry's output in
an identity node whose backward pass scales gradients by 1.01, which
must make exactly that entry fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Tensor, complex_affine, grad_check_report
from .model import CMixerConfig, CMixerModel, init_params, pearson_project, sample_incentive
from .train import bce_with_logits, cross_entropy, ssl_loss

__all__ = ["OpResult", "SuiteResult", "run_suite", "TOLERANCE"]

TOLERANCE = 1e-4
_FULL_MODEL_SAMPLE = 80  # entries probed per leaf in whole-model checks; a complex leaf has 2 parts


@dataclass
class OpResult:
    name: str
    max_rel_error: float
    checked: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


@dataclass
class SuiteResult:
    results: list[OpResult]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def worst(self) -> OpResult:
        return max(self.results, key=lambda r: r.max_rel_error)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            out.append(
                f"{status:4s} {r.name:24s} max_rel_err={r.max_rel_error:.3e} "
                f"checked={r.checked} skipped={r.skipped}"
            )
        return out


def _grad_scaled(t: Tensor, factor: float) -> Tensor:
    # identity forward with a deliberately wrong backward; testing hook only
    def backprop(g):
        t._accumulate(g * factor)

    return Tensor(t.data, (t,), backprop, "corrupted")


def _tiny_model() -> tuple[CMixerModel, CMixerConfig]:
    config = CMixerConfig(
        num_layers=2, hidden=8, seq=4, patch=4, token_hidden=8,
        channel_hidden=16, num_classes=2, in_channels=1, image_side=8,
    )
    # nonzero incentive output weights so gradients reach the hidden layer
    params = init_params(config, np.random.default_rng(0))
    jitter = np.random.default_rng(1)
    params["incentive.mu.weight"] = 0.05 * jitter.standard_normal((128, 1))
    params["incentive.sigma.weight"] = 0.05 * jitter.standard_normal((128, 1))
    return CMixerModel(config, params=params), config


def _suite_entries():
    rng = np.random.default_rng(42)
    entries = []

    def op(name, build, sample=None):
        entries.append((name, build, sample))

    a44 = rng.standard_normal((4, 4))
    b44 = rng.standard_normal((4, 4))
    gamma = rng.standard_normal(4)
    beta = rng.standard_normal(4)

    # weighted sums, so a swap of the two parts' gradients shows; their own
    # generator, so the entries drawing from rng keep their inputs
    extra = np.random.default_rng(43)

    def pack(re, im):
        return np.stack((re, im), axis=-2)

    def weighted(out, w):
        return engine.mul(out, pack(w[0], w[1])).sum()

    def complex_leaves(m, n, h_shape, gen=extra):
        return {
            "W": pack(gen.standard_normal((m, n)), gen.standard_normal((m, n))),
            "h": pack(gen.standard_normal(h_shape), gen.standard_normal(h_shape)),
            "bias": pack(gen.standard_normal(m), gen.standard_normal(m)),
        }

    op("complex_affine", lambda: (
        lambda lv: complex_affine(lv["W"], lv["h"], bias=lv["bias"]).sum(),
        {
            "W": pack(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))),
            "h": pack(rng.standard_normal((4, 2)), rng.standard_normal((4, 2))),
            "bias": pack(rng.standard_normal(3), rng.standard_normal(3)),
        },
    ))
    w_crelu = extra.standard_normal((2, 4, 4))
    op("crelu", lambda: (
        lambda lv: weighted(engine.relu(lv["z"]), w_crelu),
        {"z": pack(rng.standard_normal((4, 4)) + 0.3, rng.standard_normal((4, 4)) - 0.3)},
    ))
    op("layernorm", lambda: (
        lambda lv: engine.mul(engine.layernorm(lv["x"], lv["g"], lv["b"]), a44).sum(),
        {"x": rng.standard_normal((4, 4)), "g": gamma.copy(), "b": beta.copy()},
    ))
    # the batched, biased and strided paths the model runs; the strided one
    # feeds a transposed view of the packed leaf
    w_batched = extra.standard_normal((2, 2, 5, 3))
    op("complex_affine_batched", lambda: (
        lambda lv: weighted(complex_affine(lv["W"], lv["h"], bias=lv["bias"]), w_batched),
        complex_leaves(5, 4, (2, 4, 3)),
    ))
    w_strided = extra.standard_normal((2, 2, 3, 5))
    op("complex_affine_strided", lambda: (
        lambda lv: weighted(complex_affine(
            lv["W"], engine.transpose(lv["h"], (0, 3, 2, 1)), bias=lv["bias"], axis=-1),
            w_strided),
        complex_leaves(5, 4, (2, 4, 3)),
    ))
    # token mixing on a packed 3-D batch, the model's axis=-2 path; its own
    # generator keeps the other inputs as they were
    tok = np.random.default_rng(44)
    w_token = tok.standard_normal((2, 4, 2, 3))
    op("complex_affine_token", lambda: (
        lambda lv: engine.mul(
            complex_affine(lv["W"], lv["z"], bias=lv["bias"], axis=-2), w_token).sum(),
        {"W": pack(tok.standard_normal((4, 5)), tok.standard_normal((4, 5))),
         "z": tok.standard_normal((2, 5, 2, 3)),
         "bias": pack(tok.standard_normal(4), tok.standard_normal(4))},
    ))
    # one mixing half as the model runs it, layer norm (per-part gains), affine,
    # CReLU, affine and skip: on the channel axis, and on the token axis of a
    # transposed view; each has its own generator
    mlp, mlp_tok = np.random.default_rng(51), np.random.default_rng(52)
    w_mlp, w_mlp_tok = mlp.standard_normal((2, 5, 2, 4)), mlp_tok.standard_normal((2, 5, 2, 3))
    op("complex_mlp", lambda: (
        lambda lv: engine.mul(engine.complex_mlp(
            lv["h"], lv["W1"], lv["W2"], (lv["g"], lv["b"]), axis=-1), w_mlp).sum(),
        {"h": mlp.standard_normal((2, 5, 2, 4)), "W1": mlp.standard_normal((3, 2, 4)),
         "W2": mlp.standard_normal((4, 2, 3)), "g": mlp.standard_normal((2, 4)),
         "b": mlp.standard_normal((2, 4))},
    ))
    op("complex_mlp_token", lambda: (
        lambda lv: engine.mul(engine.complex_mlp(
            engine.transpose(lv["h"], (0, 3, 2, 1)), lv["W1"], lv["W2"], (lv["g"], lv["b"]),
            axis=-2), w_mlp_tok).sum(),
        {"h": mlp_tok.standard_normal((2, 3, 2, 5)), "W1": mlp_tok.standard_normal((4, 2, 5)),
         "W2": mlp_tok.standard_normal((5, 2, 4)), "g": mlp_tok.standard_normal((2, 3)),
         "b": mlp_tok.standard_normal((2, 3))},
    ))
    w_ln = extra.standard_normal((2, 3, 4))
    op("layernorm_3d", lambda: (
        lambda lv: engine.mul(engine.layernorm(lv["x"], lv["g"], lv["b"]), w_ln).sum(),
        {"x": extra.standard_normal((2, 3, 4)), "g": extra.standard_normal(4),
         "b": extra.standard_normal(4)},
    ))
    # the head, on each part selection; the three draw 24, 8 and 8 values
    # from rng at these two places, which keeps the inputs of the entries
    # after them
    def head(keep, w):
        return lambda lv: engine.mul(pearson_project(lv["z"], *keep), w).sum()

    op("pearson_project", lambda: (head((True, True), a44[:3]),
                                   {"z": rng.standard_normal((3, 2, 4))}))
    # each loss entry takes one 4x4 draw from rng, which keeps the inputs of
    # the entries after it
    op("cross_entropy", lambda: (
        lambda lv: cross_entropy(lv["x"], [2, 0, 3, 1]),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("ssl_loss", lambda: (
        lambda lv: ssl_loss(lv["x"], b44, temperature=0.5),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("pearson_project_real", lambda: (head((True, False), b44[:2, :2]),
                                        {"z": rng.standard_normal((2, 2, 2))}))
    op("pearson_project_imag", lambda: (head((False, True), b44[:2, :2]),
                                        {"z": rng.standard_normal((2, 2, 2))}))
    # b is the first row of a 4x4 draw, broadcast over a's rows; the two
    # full draws keep the inputs of the entries after this one
    op("sub_broadcast", lambda: (
        lambda lv: engine.mul(engine.sub(lv["a"], lv["b"]), a44).sum(),
        {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal((4, 4))[0]},
    ))
    op("bce_with_logits", lambda: (
        lambda lv: bce_with_logits(lv["x"], a44 > 0.0),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("mean", lambda: (
        lambda lv: engine.tmean(engine.mul(lv["x"], lv["x"]), axis=0).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))

    # the incentive sampler with frozen noise, cut into four 2x2 patches; the
    # loss is the sum of the squared imaginary part
    eps = rng.standard_normal((2, 1, 4, 4))
    images = rng.random((2, 1, 4, 4))
    inc = {
        "incentive.hidden.weight": 0.3 * rng.standard_normal((16, 8)),
        "incentive.hidden.bias": 0.1 * rng.standard_normal(8),
        "incentive.mu.weight": 0.3 * rng.standard_normal((8, 1)),
        "incentive.mu.bias": np.zeros(1),
        "incentive.sigma.weight": 0.3 * rng.standard_normal((8, 1)),
        "incentive.sigma.bias": np.zeros(1),
    }
    imag_only = np.array([[0.0], [1.0]])
    op("incentive_sampler", lambda: (
        lambda lv: (
            lambda h: engine.mul(engine.mul(h, h), imag_only).sum()
        )(sample_incentive(images, lv, eps, 2)),
        {k: v.copy() for k, v in inc.items()},
    ))

    model, config = _tiny_model()
    x = np.random.default_rng(5).random((2, 1, 8, 8))
    eps_model = np.random.default_rng(6).standard_normal(x.shape)
    labels = np.array([0, 1])
    onehot = np.eye(2)[labels]

    def model_loss_builder(loss_kind):
        def build():
            def f(lv):
                out = model.forward(x, eps=eps_model, params=lv)
                if loss_kind == "ce":
                    return cross_entropy(out, labels)
                return bce_with_logits(out, onehot)

            return f, model.copy_params()

        return build

    op("model_cross_entropy", model_loss_builder("ce"), sample=_FULL_MODEL_SAMPLE)
    op("model_bce", model_loss_builder("bce"), sample=_FULL_MODEL_SAMPLE)

    target_scores = np.random.default_rng(7).standard_normal((2, 128))

    def ssl_builder():
        def f(lv):
            out = model.forward(x, eps=eps_model, head="ssl", params=lv)
            return ssl_loss(out, target_scores, temperature=0.5)

        return f, model.copy_params()

    op("model_ssl_loss", ssl_builder, sample=_FULL_MODEL_SAMPLE)

    return entries


def run_suite(corrupt_op: str | None = None) -> SuiteResult:
    """Run every check; returns per-op errors and wall time."""
    start = time.monotonic()
    results = []
    for name, build, sample in _suite_entries():
        f, leaves = build()
        if corrupt_op == name:
            inner = f

            def f(lv, _inner=inner):
                return _grad_scaled(_inner(lv), 1.01)

        report = grad_check_report(
            f, leaves, sample=sample, rng=np.random.default_rng(123)
        )
        results.append(OpResult(name, report.max_rel_error, report.checked, report.skipped))
    return SuiteResult(results, time.monotonic() - start)
