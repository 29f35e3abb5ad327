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
from .engine import ComplexTensor, Tensor, complex_affine, crelu, grad_check_report
from .model import CMixerConfig, CMixerModel, init_params, sample_incentive
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

    def weighted(out, w):
        return engine.add(engine.mul(out.re, w[0]).sum(), engine.mul(out.im, w[1]).sum())

    def complex_leaves(m, n, h_shape):
        return {
            "A": extra.standard_normal((m, n)), "B": extra.standard_normal((m, n)),
            "hre": extra.standard_normal(h_shape), "him": extra.standard_normal(h_shape),
            "bre": extra.standard_normal(m), "bim": extra.standard_normal(m),
        }

    op("complex_affine", lambda: (
        lambda lv: (
            lambda out: engine.add(out.re.sum(), out.im.sum())
        )(complex_affine(ComplexTensor(lv["A"], lv["B"]), ComplexTensor(lv["hre"], lv["him"]),
                         bias=ComplexTensor(lv["bre"], lv["bim"]))),
        {
            "A": rng.standard_normal((3, 4)), "B": rng.standard_normal((3, 4)),
            "hre": rng.standard_normal((4, 2)), "him": rng.standard_normal((4, 2)),
            "bre": rng.standard_normal(3), "bim": rng.standard_normal(3),
        },
    ))
    w_crelu = extra.standard_normal((2, 4, 4))
    op("crelu", lambda: (
        lambda lv: weighted(crelu(ComplexTensor(lv["re"], lv["im"])), w_crelu),
        {"re": rng.standard_normal((4, 4)) + 0.3, "im": rng.standard_normal((4, 4)) - 0.3},
    ))
    op("layernorm", lambda: (
        lambda lv: engine.mul(
            engine.layernorm(lv["x"], lv["g"], lv["b"], axis=1), a44
        ).sum(),
        {"x": rng.standard_normal((4, 4)), "g": gamma.copy(), "b": beta.copy()},
    ))
    # the batched, biased and strided paths the model runs
    w_batched = extra.standard_normal((2, 2, 5, 3))
    op("complex_affine_batched", lambda: (
        lambda lv: weighted(complex_affine(
            ComplexTensor(lv["A"], lv["B"]), ComplexTensor(lv["hre"], lv["him"]),
            bias=ComplexTensor(lv["bre"], lv["bim"])), w_batched),
        complex_leaves(5, 4, (2, 4, 3)),
    ))
    w_strided = extra.standard_normal((2, 2, 3, 5))
    op("complex_affine_strided", lambda: (
        lambda lv: weighted(complex_affine(
            ComplexTensor(lv["A"], lv["B"]),
            ComplexTensor(lv["hre"].transpose((0, 2, 1)), lv["him"].transpose((0, 2, 1))),
            bias=ComplexTensor(lv["bre"], lv["bim"]), axis=-1), w_strided),
        complex_leaves(5, 4, (2, 4, 3)),
    ))
    # token mixing on a packed 3-D batch, the model's axis=-2 path with no
    # packing node in front; its own generator keeps the other inputs as they were
    tok = np.random.default_rng(44)
    w_token = tok.standard_normal((2, 4, 2, 3))
    op("complex_affine_token", lambda: (
        lambda lv: engine.mul(complex_affine(
            ComplexTensor(lv["A"], lv["B"]), ComplexTensor.packed(lv["z"]),
            bias=ComplexTensor(lv["bre"], lv["bim"]), axis=-2).z, w_token).sum(),
        {"A": tok.standard_normal((4, 5)), "B": tok.standard_normal((4, 5)),
         "z": tok.standard_normal((2, 5, 2, 3)),
         "bre": tok.standard_normal(4), "bim": tok.standard_normal(4)},
    ))
    # the affine with its CReLU fused in, as token1 and channel1 run it: the
    # last axis with a bias, and the token axis of a packed 3-D batch; each
    # has its own generator
    fused = np.random.default_rng(45)
    w_fused = fused.standard_normal((2, 2, 5, 3))
    op("complex_affine_crelu", lambda: (
        lambda lv: weighted(complex_affine(
            ComplexTensor(lv["A"], lv["B"]), ComplexTensor(lv["hre"], lv["him"]),
            bias=ComplexTensor(lv["bre"], lv["bim"]), axis=-1, crelu=True), w_fused),
        {"A": fused.standard_normal((3, 4)), "B": fused.standard_normal((3, 4)),
         "hre": fused.standard_normal((2, 5, 4)), "him": fused.standard_normal((2, 5, 4)),
         "bre": fused.standard_normal(3), "bim": fused.standard_normal(3)},
    ))
    fused_tok = np.random.default_rng(46)
    w_fused_tok = fused_tok.standard_normal((2, 4, 2, 3))
    op("complex_affine_crelu_token", lambda: (
        lambda lv: engine.mul(complex_affine(
            ComplexTensor(lv["A"], lv["B"]), ComplexTensor.packed(lv["z"]),
            bias=ComplexTensor(lv["bre"], lv["bim"]), axis=-2, crelu=True).z,
            w_fused_tok).sum(),
        {"A": fused_tok.standard_normal((4, 5)), "B": fused_tok.standard_normal((4, 5)),
         "z": fused_tok.standard_normal((2, 5, 2, 3)),
         "bre": fused_tok.standard_normal(4), "bim": fused_tok.standard_normal(4)},
    ))
    w_ln = extra.standard_normal((2, 3, 4))
    op("layernorm_3d", lambda: (
        lambda lv: engine.mul(engine.layernorm(lv["x"], lv["g"], lv["b"]), w_ln).sum(),
        {"x": extra.standard_normal((2, 3, 4)), "g": extra.standard_normal(4),
         "b": extra.standard_normal(4)},
    ))
    op("matmul", lambda: (
        lambda lv: engine.tanh(engine.matmul(lv["x"], lv["y"])).sum(),
        {"x": rng.standard_normal((3, 4)), "y": rng.standard_normal((4, 3))},
    ))
    op("softmax", lambda: (
        lambda lv: engine.mul(engine.softmax(lv["x"], axis=1), b44).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("log_softmax", lambda: (
        lambda lv: engine.mul(engine.log_softmax(lv["x"], axis=1), b44).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("tanh", lambda: (
        lambda lv: engine.tanh(lv["x"]).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))
    # b is the first row of a 4x4 draw, broadcast over a's rows; the two
    # full draws keep the inputs of the entries after this one
    op("sub_broadcast", lambda: (
        lambda lv: engine.mul(engine.sub(lv["a"], lv["b"]), a44).sum(),
        {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal((4, 4))[0]},
    ))
    op("softplus", lambda: (
        lambda lv: engine.softplus(lv["x"]).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))
    op("mean", lambda: (
        lambda lv: engine.tmean(engine.mul(lv["x"], lv["x"]), axis=0).sum(),
        {"x": rng.standard_normal((4, 4))},
    ))

    # the incentive sampler with frozen noise
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
    op("incentive_sampler", lambda: (
        lambda lv: (
            lambda h: engine.mul(h.im, h.im).sum()
        )(sample_incentive(Tensor(images), lv, eps)),
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
