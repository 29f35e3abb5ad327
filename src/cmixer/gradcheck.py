"""Release-gate gradient checks: every op a training step builds, the full model.

``ENTRIES`` maps each check's name to ``(build, sample)``. ``run_suite``
calls ``build`` with a generator seeded from the entry's name alone, and
``build`` draws every input, weight and target from it, eagerly, and
returns a deterministic scalar function of its leaves and those leaves,
which ``engine.grad_check_report`` checks. An op's entry checks
``sum(op(leaves) * w)``, with ``w`` drawn in the shape of the op's output,
through a scalar node of the suite's own; a loss's entry and a whole-model
entry check the loss itself. So an entry's figures depend
only on its own name-seeded inputs: adding, removing or reordering
entries moves no other entry's. Small ops are enumerated exhaustively;
the full-model checks sample ``sample`` entries per leaf (every leaf is
touched) because enumerating a few thousand parameters twice per entry
would blow the time budget without adding coverage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import Tensor, complex_affine, complex_mlp, grad_check_report, no_grad, tmean
from .model import CMixerConfig, CMixerModel, init_params, pearson_project, sample_incentive
from .train import bce_with_logits, cross_entropy, ssl_loss

__all__ = ["ENTRIES", "OpResult", "SuiteResult", "run_suite", "TOLERANCE"]

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


def _tiny_model() -> CMixerModel:
    config = CMixerConfig.small(image_side=8, hidden=8)
    params = init_params(config, np.random.default_rng(0))
    # nonzero incentive output weights so gradients reach the hidden layer
    jitter = np.random.default_rng(1)
    params["incentive.mu.weight"] = 0.05 * jitter.standard_normal((128, 1))
    params["incentive.sigma.weight"] = 0.05 * jitter.standard_normal((128, 1))
    return CMixerModel(config, params=params)


def _weighted_sum(out: Tensor, w: np.ndarray) -> Tensor:
    """``sum(out * w)``, the scalar of an op's entry: one node, whose backward is ``g * w``."""

    def backprop(g):
        out._accumulate(g * w)

    return Tensor(np.sum(out.data * w), (out,), backprop, "weighted_sum")


def _weighted(op, leaves, rng):
    """The function ``sum(op(leaves) * w)`` and ``leaves``, with ``w`` a standard normal
    draw in the shape of the op's output (a weight per output entry, so a swap of two
    gradients shows), that shape taken from one pass of ``op`` that builds no graph."""
    with no_grad():
        shape = op({k: Tensor(v) for k, v in leaves.items()}).shape
    w = rng.standard_normal(shape)
    return (lambda lv: _weighted_sum(op(lv), w)), leaves


def _op(op, transposed=False, **shapes):
    """An entry of ``op`` whose leaves are standard normal draws of ``shapes``; with
    ``transposed`` the ``h`` leaf is registered as its (0, 3, 2, 1) view, a strided input."""

    def build(rng):
        leaves = {k: rng.standard_normal(s) for k, s in shapes.items()}
        if transposed:
            leaves["h"] = leaves["h"].transpose(0, 3, 2, 1)
        return _weighted(op, leaves, rng)

    return build


def _loss(loss, target):
    """An entry of ``loss`` on 4x4 standard normal logits against ``target(rng)``."""

    def build(rng):
        leaves = {"x": rng.standard_normal((4, 4))}
        t = target(rng)
        return (lambda lv: loss(lv["x"], t)), leaves

    return build


def _model(head, loss, target):
    """A whole-model entry: ``loss`` of the tiny model's ``head`` on two 8x8
    images with frozen noise, against ``target(rng)``; the leaves are its parameters."""

    def build(rng):
        model = _tiny_model()
        x = rng.random((2, 1, 8, 8))
        eps = rng.standard_normal(x.shape)
        t = target(rng)

        def f(lv):
            return loss(model.forward(x, eps=eps, head=head, params=lv), t)

        return f, model.copy_params()

    return build


def _incentive_sampler(rng):
    # the noisy input with frozen noise, cut into four 2x2 patches
    images, eps = rng.random((2, 1, 4, 4)), rng.standard_normal((2, 1, 4, 4))
    leaves = {
        "incentive.hidden.weight": 0.3 * rng.standard_normal((16, 8)),
        "incentive.hidden.bias": 0.1 * rng.standard_normal(8),
        "incentive.mu.weight": 0.3 * rng.standard_normal((8, 1)),
        "incentive.mu.bias": np.zeros(1),
        "incentive.sigma.weight": 0.3 * rng.standard_normal((8, 1)),
        "incentive.sigma.bias": np.zeros(1),
    }
    return _weighted(lambda lv: sample_incentive(images, lv, eps, 2), leaves, rng)


def _affine(axis):
    return lambda lv: complex_affine(lv["W"], lv["h"], bias=lv["bias"], axis=axis)


def _mlp(axis):
    # one mixing half as the model runs it: the channel axis is -1, the token axis -2
    return lambda lv: complex_mlp(lv["h"], lv["W1"], lv["W2"], (lv["g"], lv["b"]), axis=axis)


def _head(*keep):
    return lambda lv: pearson_project(lv["z"], *keep)


ENTRIES = {
    "complex_affine": (_op(_affine(-2), W=(3, 2, 4), h=(4, 2, 2), bias=(2, 3)), None),
    "complex_affine_batched": (_op(_affine(-2), W=(5, 2, 4), h=(2, 4, 2, 3), bias=(2, 5)), None),
    "complex_affine_strided": (
        _op(_affine(-1), transposed=True, W=(5, 2, 4), h=(2, 4, 2, 3), bias=(2, 5)), None),
    "complex_affine_token": (_op(_affine(-2), W=(4, 2, 5), h=(2, 5, 2, 3), bias=(2, 4)), None),
    "complex_mlp": (
        _op(_mlp(-1), h=(2, 5, 2, 4), W1=(3, 2, 4), W2=(4, 2, 3), g=(2, 4), b=(2, 4)), None),
    "complex_mlp_token": (
        _op(_mlp(-2), transposed=True, h=(2, 3, 2, 5), W1=(4, 2, 5), W2=(5, 2, 4), g=(2, 3),
            b=(2, 3)), None),
    "pearson_project": (_op(_head(True, True), z=(3, 2, 4)), None),
    "cross_entropy": (_loss(cross_entropy, lambda rng: rng.integers(4, size=4)), None),
    "ssl_loss": (_loss(lambda x, t: ssl_loss(x, t, temperature=0.5),
                       lambda rng: rng.standard_normal((4, 4))), None),
    "pearson_project_real": (_op(_head(True, False), z=(2, 2, 2)), None),
    "pearson_project_imag": (_op(_head(False, True), z=(2, 2, 2)), None),
    "bce_with_logits": (_loss(bce_with_logits, lambda rng: rng.integers(2, size=(4, 4))), None),
    "mean": (_op(lambda lv: tmean(lv["x"], 0), x=(4, 4)), None),
    "incentive_sampler": (_incentive_sampler, None),
    "model_cross_entropy": (_model("classify", cross_entropy,
                                   lambda rng: rng.integers(2, size=2)), _FULL_MODEL_SAMPLE),
    "model_bce": (_model("classify", bce_with_logits,
                         lambda rng: rng.integers(2, size=(2, 2))), _FULL_MODEL_SAMPLE),
    "model_ssl_loss": (_model("ssl", lambda out, t: ssl_loss(out, t, temperature=0.5),
                              lambda rng: rng.standard_normal((2, 128))), _FULL_MODEL_SAMPLE),
}


def run_suite() -> SuiteResult:
    """Run every entry; returns per-entry errors and wall time."""
    start = time.monotonic()
    results = []
    for name, (build, sample) in ENTRIES.items():
        f, leaves = build(np.random.default_rng(list(name.encode())))
        report = grad_check_report(f, leaves, sample=sample, rng=np.random.default_rng(123))
        results.append(OpResult(name, report.max_rel_error, report.checked, report.skipped))
    return SuiteResult(results, time.monotonic() - start)
