"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail
line per criterion. Criterion 10 needs a real dataset archive on disk
(environment variable BREASTMNIST_NPZ or ./data/breastmnist.npz) and is
skipped, not failed, when the file is absent.
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cmixer.cli import main
from cmixer.data import (
    DatasetBundle,
    Split,
    TaskKind,
    load_npz,
    random_mask,
    synth_dataset,
    write_npz,
)
from cmixer.engine import complex_affine
from cmixer.gradcheck import TOLERANCE, run_suite
from cmixer.metrics import auc_binary, auc_pairwise, evaluate
from cmixer.model import CMixerConfig, CMixerModel, param_count
from cmixer.train import TrainConfig, finetune, pretrain


def report(line: str) -> None:
    print(line, flush=True)


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_c01_gradient_fidelity():
    """Autodiff matches central differences for every op a training step
    builds (the noisy input, the affine, both mixing halves, the pooling, the
    head and all three losses) and the 2-layer/C=8/S=4 model under each loss;
    < 1e-4; < 60 s."""
    result = run_suite()
    assert result.seconds < 60.0, f"gradcheck took {result.seconds:.1f}s"
    names = {r.name for r in result.results}
    for required in (
        "complex_affine", "complex_mlp", "complex_mlp_token", "incentive_sampler",
        "pearson_project", "mean", "bce_with_logits", "cross_entropy", "ssl_loss",
        "model_cross_entropy", "model_bce", "model_ssl_loss",
    ):
        assert required in names
    worst = result.worst
    assert result.passed, f"{worst.name} rel err {worst.max_rel_error:.2e}"
    report(
        f"PASS criterion 1: gradient fidelity, worst {worst.name} "
        f"rel_err={worst.max_rel_error:.2e} < {TOLERANCE} in {result.seconds:.1f}s"
    )


def test_c02_complex_arithmetic_oracle():
    """complex_affine equals direct complex multiplication, 1000 random
    instances with dims <= 8, to 1e-12 relative."""
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(1000):
        m, n, k = rng.integers(1, 9, size=3)
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, n))
        hre = rng.standard_normal((n, k))
        him = rng.standard_normal((n, k))
        got = complex_affine(np.stack((A, B), -2), np.stack((hre, him), -2))
        want = (A + 1j * B) @ (hre + 1j * him)
        err = np.abs(got.data[..., 0, :] + 1j * got.data[..., 1, :] - want).max()
        worst = max(worst, err / max(1.0, np.abs(want).max()))
    assert worst < 1e-12
    report(f"PASS criterion 2: complex arithmetic oracle, worst rel err {worst:.2e} < 1e-12")


def test_c03_parameter_budget():
    """Reference configuration lands in [5.5M, 6.5M] stored scalars."""
    count = param_count(CMixerConfig.reference(in_channels=3, num_classes=9))
    assert 5_500_000 <= count <= 6_500_000, count
    report(f"PASS criterion 3: parameter budget, {count:,} scalars in [5.5M, 6.5M]")


def test_c04_auc_oracle():
    """Rank AUC equals O(n^2) pair counting exactly on 1000 instances
    including ties, and reproduces the worked example."""
    assert auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    rng = np.random.default_rng(21)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        levels = int(rng.integers(2, 12))
        scores = rng.integers(0, levels, n) / max(1, levels - 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast = auc_binary(scores, labels)
        oracle = auc_pairwise(scores, labels)
        assert fast == oracle, f"trial {trial}: {fast} != {oracle}"
    report("PASS criterion 4: rank AUC == pairwise oracle on 1000 instances, example 0.75 ok")


def test_c05_overfit_smoke():
    """Fine-tune from scratch reaches >= 0.99 train ACC on the 2-class
    200-sample blob set within 200 epochs, < 5 min; logits stay in (-1,1)."""
    start = time.monotonic()
    bundle = synth_dataset(2, 100, 16, np.random.default_rng(0))
    config = CMixerConfig.small(image_side=16, hidden=16, num_layers=2)
    model = CMixerModel(config, rng=np.random.default_rng(0))
    train_config = TrainConfig(
        epochs=200, batch_size=70, lr=0.01, warmup_steps=20, pretrain_epochs=0, seed=0
    )
    x_probe = np.transpose(
        bundle.images[bundle.indices(Split.TRAIN_LABELED)].astype(np.float64) / 255.0,
        (0, 3, 1, 2),
    )
    before = model.scores(x_probe, rng=np.random.default_rng(0))
    assert np.all(np.abs(before) < 1.0)
    finetune(model, bundle, train_config, np.random.default_rng(0))
    elapsed = time.monotonic() - start
    after = model.scores(x_probe, rng=np.random.default_rng(0))
    assert np.all(np.abs(after) < 1.0), "projection left the open interval"
    report_train = evaluate(model, bundle, Split.TRAIN_LABELED, rng=np.random.default_rng(1))
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    assert report_train.acc >= 0.99, f"train acc {report_train.acc}"
    report(
        f"PASS criterion 5: overfit smoke, train acc {report_train.acc:.3f} >= 0.99 "
        f"in {elapsed:.0f}s < 300s, logits inside (-1,1)"
    )


def test_c06_ssl_smoke():
    """50 pretrain steps cut the smoothed view-consistency loss by >= 20%;
    the target tower gets no gradient; EMA is the exact convex combination."""
    seed = 1
    bundle = synth_dataset(2, 20, 16, np.random.default_rng(0))
    config = CMixerConfig.small(image_side=16, hidden=16, num_layers=2)
    model = CMixerModel(config, rng=np.random.default_rng(seed))
    init = model.copy_params()
    train_config = TrainConfig(
        pretrain_epochs=50,
        pretrain_batch_size=28,  # full batch: one step per epoch, 50 steps
        pretrain_warmup_steps=5,
        pretrain_lr=1e-3,
        pretrain_weight_decay=0.0,
        temperature=0.01,
        ema_decay=0.99,
        epochs=1,
        batch_size=64,
        seed=seed,
    )
    result = pretrain(model, bundle, train_config, np.random.default_rng(seed))
    losses = np.asarray(result.losses)
    assert len(losses) == 50
    smoothed = np.convolve(losses, np.ones(5) / 5.0, mode="valid")
    ratio = smoothed[-1] / smoothed[0]
    assert ratio <= 0.8, f"smoothed loss ratio {ratio:.3f}"

    # stop-gradient: a loss built on the two towers sends nothing to the target
    from cmixer.engine import Tape
    from cmixer.train import ssl_loss

    tape = Tape()
    anchor = tape.leaf("anchor", np.random.default_rng(2).standard_normal((4, 128)))
    target = tape.leaf("target", np.random.default_rng(3).standard_normal((4, 128)))
    grads = tape.backward(ssl_loss(anchor, target, train_config.temperature))
    np.testing.assert_array_equal(grads["target"], np.zeros((4, 128)))

    # EMA contract: re-run one step at a time is equivalent by determinism;
    # verify the single-step closed form exactly
    model2 = CMixerModel(config, rng=np.random.default_rng(seed))
    one = TrainConfig(**{**train_config.__dict__, "pretrain_epochs": 1})
    r1 = pretrain(model2, bundle, one, np.random.default_rng(seed))
    for name in init:
        expected = 0.99 * init[name] + 0.01 * r1.model.params[name]
        np.testing.assert_allclose(r1.ema[name], expected, atol=1e-9)
    report(
        f"PASS criterion 6: ssl smoke, smoothed loss {smoothed[0]:.3f} -> {smoothed[-1]:.3f} "
        f"(ratio {ratio:.3f} <= 0.8), target grad zero, EMA convex combination exact"
    )


def test_c07_masking_statistics():
    """Zeroed fraction at rate 0.2 over 100 images of 28x28 lies in the
    3-sigma binomial interval."""
    rng = np.random.default_rng(22)
    images = np.ones((100, 28, 28, 1), dtype=np.uint8)
    masked = random_mask(images, 0.2, rng)
    zeroed = int((masked == 0).sum())
    n, p = 100 * 28 * 28, 0.2
    spread = 3.0 * np.sqrt(n * p * (1 - p))
    lo, hi = n * p - spread, n * p + spread
    assert lo <= zeroed <= hi, f"{zeroed} outside [{lo:.0f}, {hi:.0f}]"
    report(
        f"PASS criterion 7: masking statistics, {zeroed} zeroed pixels in "
        f"[{lo:.0f}, {hi:.0f}] (3-sigma around {n * p:.0f})"
    )


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("ablation")
    data = base / "synth.npz"
    write_npz(synth_dataset(2, 30, 16, np.random.default_rng(0)), data)
    cfg = base / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"data={data}",
                "num_layers=1",
                "hidden=8",
                "patch=4",
                "epochs=2",
                "batch_size=32",
                "warmup_steps=2",
                "pretrain_epochs=2",
                "pretrain_batch_size=32",
                "pretrain_warmup_steps=2",
                "seed=5",
            ]
        )
        + "\n"
    )
    runs = {}
    for toggle in (None, "no-ssl", "no-rm", "no-il", "p-real-only", "p-imag-only"):
        name = toggle or "full"
        pre_dir = base / f"pre_{name}"
        ft_dir = base / f"ft_{name}"
        toggle_args = ["--toggle", toggle] if toggle else []
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre_dir)] + toggle_args) == 0
        ft_cfg = base / f"ft_{name}.cfg"
        ft_cfg.write_text(
            Path(cfg).read_text() + f"init_checkpoint={pre_dir / 'checkpoint.npz'}\n"
        )
        assert main(["finetune", "--config", str(ft_cfg), "--out", str(ft_dir)] + toggle_args) == 0
        runs[name] = (pre_dir, ft_dir)
    return base, runs


def test_c08_ablation_wiring(ablation_runs):
    """The five toggles produce distinct manifests, pairwise-different
    outputs on a fixed batch, and no-ssl provably skips pre-training."""
    base, runs = ablation_runs
    manifests = {
        name: (ft / "manifest.txt").read_text() for name, (_, ft) in runs.items()
    }
    names = list(runs)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert manifests[a] != manifests[b], f"manifests identical: {a} vs {b}"

    # no-ssl skips pre-training: its pretrain checkpoint equals a fresh
    # initialization, which the full run has already moved away from
    from cmixer.model import load_checkpoint
    from cmixer.model import CMixerModel as M

    no_ssl = load_checkpoint(runs["no-ssl"][0] / "checkpoint.npz")
    fresh = M(no_ssl.config, rng=np.random.default_rng(5))
    for k in fresh.params:
        np.testing.assert_array_equal(no_ssl.params[k], fresh.params[k])
    full = load_checkpoint(runs["full"][0] / "checkpoint.npz")
    assert any(not np.array_equal(full.params[k], fresh.params[k]) for k in fresh.params)

    # fixed probe batch, each run scored under its own toggles
    from cmixer.cli import TOGGLE_NAMES
    from cmixer.model import Toggles

    probe_rng = np.random.default_rng(99)
    x = probe_rng.random((6, 1, 16, 16))
    eps = probe_rng.standard_normal(x.shape)
    outputs = {}
    for name, (_, ft) in runs.items():
        model = load_checkpoint(ft / "checkpoint.npz")
        kwargs = {TOGGLE_NAMES[name]: False} if name in TOGGLE_NAMES else {}
        assert model.toggles == Toggles(**kwargs), name
        outputs[name] = model.scores(x, eps=eps)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            delta = np.abs(outputs[a] - outputs[b]).max()
            assert delta > 1e-12, f"outputs identical: {a} vs {b}"
    report(
        "PASS criterion 8: ablation wiring, 6 runs (full + 5 toggles) with distinct "
        "manifests, pairwise-different outputs, no-ssl weights untouched"
    )


def test_c09_split_arithmetic(tmp_path):
    """Semi split of the 89,996-sample training set keeps 8,999 labels and
    grows the test set to 88,177; corruption changes exactly round(r*N)."""
    rng = np.random.default_rng(0)
    n_train, n_val, n_test = 89_996, 10_004, 7_180
    n = n_train + n_val + n_test
    labels = rng.integers(0, 9, size=(n, 1)).astype(np.int64)
    labels[:9, 0] = np.arange(9)
    bundle = DatasetBundle(
        np.zeros((n, 1, 1, 1), dtype=np.uint8),
        labels,
        np.concatenate(
            [
                np.full(n_train, int(Split.TRAIN_LABELED), dtype=np.uint8),
                np.full(n_val, int(Split.VAL), dtype=np.uint8),
                np.full(n_test, int(Split.TEST), dtype=np.uint8),
            ]
        ),
        TaskKind.MULTICLASS,
        9,
    )
    src = tmp_path / "big.npz"
    write_npz(bundle, src)
    out = tmp_path / "derived"
    code = main(
        ["splits", "--data", str(src), "--out", str(out), "--semi-frac", "0.1",
         "--corrupt-rate", "0.1", "--seed", "3"]
    )
    assert code == 0
    derived = load_npz(out / "splits.npz")
    counts = derived.split_counts()
    assert counts["train_labeled"] == 8_999, counts
    assert counts["test"] == 88_177, counts
    sidecar = (out / "corrupted.csv").read_text().strip().splitlines()[1:]
    assert len(sidecar) == round(0.1 * 8_999) == 900
    # every corrupted label differs from the original and order is preserved
    semi_only = main(
        ["splits", "--data", str(src), "--out", str(tmp_path / "semi"), "--semi-frac",
         "0.1", "--corrupt-rate", "0.0", "--seed", "3"]
    )
    assert semi_only == 0
    clean = load_npz(tmp_path / "semi" / "splits.npz")
    changed = np.flatnonzero(clean.labels[:, 0] != derived.labels[:, 0])
    assert len(changed) == 900
    assert np.all(clean.labels[changed, 0] != derived.labels[changed, 0])
    report(
        "PASS criterion 9: split arithmetic, labeled=8999, test=88177, "
        "corrupted=900 all to different classes"
    )


def _breastmnist_path():
    candidates = [os.environ.get("BREASTMNIST_NPZ"), "data/breastmnist.npz"]
    for c in candidates:
        if c and Path(c).exists():
            return c
    return None


@pytest.mark.skipif(
    _breastmnist_path() is None,
    reason="BreastMNIST archive not present (set BREASTMNIST_NPZ or put it at "
    "data/breastmnist.npz); soft data-dependent criterion",
)
def test_c10_end_to_end_real_data():
    """Pretrain 20 epochs + finetune 50 epochs on the 780-sample ultrasound
    set in < 30 min single-core, reaching test AUC >= 0.70."""
    start = time.monotonic()
    bundle = load_npz(_breastmnist_path())
    assert bundle.split_counts()["train_labeled"] == 546
    config = CMixerConfig(
        num_layers=2, hidden=32, seq=49, patch=4, token_hidden=98,
        channel_hidden=64, num_classes=2, in_channels=1, image_side=28,
    )
    model = CMixerModel(config, rng=np.random.default_rng(0))
    train_config = TrainConfig(
        pretrain_epochs=20, pretrain_batch_size=128, pretrain_warmup_steps=20,
        pretrain_lr=1e-3, epochs=50, batch_size=128, lr=0.01, warmup_steps=20, seed=0,
    )
    rng = np.random.default_rng(0)
    pretrain(model, bundle, train_config, rng)
    finetune(model, bundle, train_config, rng)
    result = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(1))
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0, f"end-to-end took {elapsed:.0f}s"
    assert result.auc >= 0.70, f"test AUC {result.auc:.3f}"
    report(
        f"PASS criterion 10: end-to-end real data, test AUC {result.auc:.3f} >= 0.70 "
        f"in {elapsed:.0f}s < 1800s"
    )


def test_c11_determinism(tmp_path):
    """Two runs from identical settings produce identical CSV logs and
    checkpoint checksums."""
    data = tmp_path / "synth.npz"
    write_npz(synth_dataset(2, 30, 16, np.random.default_rng(0)), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data={data}\nnum_layers=1\nhidden=8\nepochs=2\nbatch_size=32\n"
        "warmup_steps=2\npretrain_epochs=2\npretrain_batch_size=32\n"
        "pretrain_warmup_steps=2\nseed=9\n"
    )
    digests = []
    for name in ("one", "two"):
        pre = tmp_path / f"pre_{name}"
        ft = tmp_path / f"ft_{name}"
        ev = tmp_path / f"ev_{name}"
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre)]) == 0
        assert main(["finetune", "--config", str(cfg), "--out", str(ft)]) == 0
        assert main(
            ["eval", "--config", str(cfg), "--out", str(ev),
             "--checkpoint", str(ft / "checkpoint.npz")]
        ) == 0
        digests.append(
            (
                sha(pre / "checkpoint.npz"), sha(pre / "checkpoint_ema.npz"),
                sha(pre / "pretrain_log.csv"), sha(ft / "checkpoint.npz"),
                sha(ft / "metrics.csv"), sha(ev / "eval.csv"),
            )
        )
    assert digests[0] == digests[1]
    report(
        "PASS criterion 11: determinism, twin runs byte-identical across "
        "pretrain/finetune/eval artifacts"
    )
