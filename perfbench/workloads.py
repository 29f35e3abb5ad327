"""The three benchmark workloads.

A workload builds its inputs from the program's synthetic data with
the run's seed (``setup``), may make one reference pass (``prepare``),
and then repeats one *unit* of work (``run``): the same public calls
from the same starting state each time. So every unit must reproduce
the first unit's outputs bitwise, and a unit's ``digest`` doubles as
the run's determinism record. ``check`` turns a unit's outputs into
attempted and failed operations; it runs outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks


@dataclass
class Output:
    """What one unit of program calls produced."""

    images: int  # images through the throughput-timed calls
    seconds: float  # wall time of those calls
    values: dict = field(default_factory=dict)


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list[str]
    digest: str  # sha256 of the unit's final parameters or scores
    value: float  # final loss, or AUC for scoring
    value_name: str = "loss"


def _steps_checked(problems_per_step: list[list[str]], extra: list[str], digest: str,
                   value: float, value_name: str = "loss") -> Checked:
    """A failed unit-wide check fails every step; otherwise each bad step fails."""
    steps = len(problems_per_step)
    problems = [p for ps in problems_per_step for p in ps] + extra
    failed = steps if extra else sum(1 for ps in problems_per_step if ps)
    return Checked(steps, failed, problems, digest, value, value_name)


def _step_losses(losses: list[float], steps: int) -> list[list[str]]:
    per_step = [checks.finite_losses([v], 1) for v in losses[:steps]]
    per_step += [["loss missing"]] * (steps - len(per_step))
    return per_step


def breast_config(cm):
    """The BreastMNIST-size model of acceptance criterion 10."""
    return cm.model.CMixerConfig(
        num_layers=2, hidden=32, seq=49, patch=4, token_hidden=98,
        channel_hidden=64, num_classes=2, in_channels=1, image_side=28,
    )


def _all_tagged(cm, bundle, split):
    """The same images and labels with every sample in one split."""
    return cm.data.DatasetBundle(
        bundle.images, bundle.labels,
        np.full(bundle.n, int(split), dtype=np.uint8), bundle.task, bundle.num_classes,
    )


class Workload:
    """Shared construction; subclasses set ``name``, ``ops`` and ``warmup_units``."""

    def __init__(self, cm, seed: int, workdir):
        self.cm, self.seed, self.workdir = cm, seed, workdir

    def prepare(self) -> Checked | None:
        """An optional reference pass, counted as operations; none by default."""
        return None


class FitTiny(Workload):
    """CMixerClassifier.fit then predict on the tiny gradcheck-size model."""

    name = "fit-tiny"
    ops = 1
    warmup_units = 1
    n_per_class = 128
    params = dict(num_layers=2, hidden=8, patch=4, epochs=20, batch_size=32,
                  warmup_steps=8, pretrain_epochs=2, pretrain_batch_size=32)

    def setup(self) -> None:
        bundle = self.cm.data.synth_dataset(2, self.n_per_class, 8, np.random.default_rng(self.seed))
        self.X = bundle.images
        self.y = bundle.labels.reshape(-1)

    def run(self) -> Output:
        clf = self.cm.estimator.CMixerClassifier(**self.params, random_state=self.seed)
        t0 = perf_counter()
        clf.fit(self.X, self.y)
        pred = clf.predict(self.X)
        seconds = perf_counter() - t0
        n = len(self.X)
        images = n * (self.params["epochs"] + self.params["pretrain_epochs"]) + n
        return Output(images, seconds, {"clf": clf, "pred": pred})

    def check(self, out: Output) -> Checked:
        cm, clf = self.cm, out.values["clf"]
        scores = clf.decision_function(self.X)
        x = np.transpose(self.X.astype(np.float64) / 255.0, (0, 3, 1, 2))
        eps = np.random.default_rng(self.seed).standard_normal(x.shape)
        logits = clf.model_.forward(x, eps=eps)
        labels = np.searchsorted(clf.classes_, self.y)
        loss = float(cm.train.loss_for_task(cm.data.TaskKind.BINARY, logits, labels, 2).data)
        problems = (checks.finite_losses([loss], 1) + checks.bounded_scores(scores)
                    + checks.perfect_accuracy(out.values["pred"], self.y)
                    + checks.finite_params(clf.model_.params))
        return Checked(1, 1 if problems else 0, problems, checks.digest(clf.model_.params), loss)


class PretrainRef(Workload):
    """train.pretrain on the reference model at B=8, then a checkpoint round trip."""

    name = "pretrain-ref"
    warmup_units = 2  # the first steps page-fault in their buffers; see README.md
    batch = 8
    steps = ops = 1

    def setup(self) -> None:
        cm = self.cm
        rng = np.random.default_rng(self.seed)
        n = self.batch * self.steps
        # three independent blob sets make the three channels
        parts = [cm.data.synth_dataset(2, n // 2, 28, rng) for _ in range(3)]
        bundle = cm.data.DatasetBundle(
            np.concatenate([p.images for p in parts], axis=3), parts[0].labels,
            parts[0].splits, parts[0].task, 2,
        )
        self.bundle = _all_tagged(cm, bundle, cm.data.Split.TRAIN_UNLABELED)
        self.config = cm.model.CMixerConfig.reference(in_channels=3, num_classes=2)
        self.init = cm.model.CMixerModel(self.config, rng=rng).copy_params()
        self.train_config = cm.train.TrainConfig(
            pretrain_epochs=1, pretrain_batch_size=self.batch, pretrain_warmup_steps=0,
            seed=self.seed,
        )

    def run(self) -> Output:
        cm = self.cm
        m = cm.model.CMixerModel(self.config, params={k: v.copy() for k, v in self.init.items()})
        rng = np.random.default_rng(self.seed)
        t0 = perf_counter()
        result = cm.train.pretrain(m, self.bundle, self.train_config, rng)
        seconds = perf_counter() - t0
        path = self.workdir / "pretrain-ref.npz"
        cm.model.save_checkpoint(path, m)
        loaded = cm.model.load_checkpoint(path)
        return Output(self.batch * self.steps, seconds,
                      {"model": m, "losses": result.losses, "loaded": loaded, "ema": result.ema})

    def check(self, out: Output) -> Checked:
        m, loaded = out.values["model"], out.values["loaded"]
        losses = out.values["losses"]
        extra = (checks.finite_params(m.params) + checks.finite_params(out.values["ema"])
                 + checks.same_value(loaded.config, m.config, "checkpoint config")
                 + checks.bitwise_equal(m.params, loaded.params))
        return _steps_checked(
            _step_losses(losses, self.steps), extra, checks.digest(m.params),
            losses[-1] if losses else math.nan,
        )


class ScoreBreast(Workload):
    """metrics.evaluate over a 4096-image test split at batch 256."""

    name = "score-breast"
    warmup_units = 0
    batch = 256
    n_images = 4096

    @property
    def ops(self) -> int:
        return math.ceil(self.n_images / self.batch)

    def setup(self) -> None:
        cm = self.cm
        rng = np.random.default_rng(self.seed)
        bundle = cm.data.synth_dataset(2, self.n_images // 2, 28, rng)
        self.bundle = _all_tagged(cm, bundle, cm.data.Split.TEST)
        self.model = cm.model.CMixerModel(breast_config(cm), rng=rng)

    def prepare(self) -> Checked:
        """Score every batch as ``evaluate`` does, check it, and keep the reference.

        ``evaluate`` draws the noise of batch k from one seeded generator
        in batch order, so the same calls here give its scores bitwise.
        This pass is the warm-up; its batches count as operations. The
        digest is of these scores: each timed ``evaluate`` call is checked
        through its AUC, ACC, per-class ACC/AUC and image count instead.
        """
        cm = self.cm
        rng = np.random.default_rng(self.seed)
        idx = self.bundle.indices(cm.data.Split.TEST)
        chunks, per_batch = [], []
        for start in range(0, len(idx), self.batch):
            part = idx[start:start + self.batch]
            images = np.transpose(self.bundle.images[part].astype(np.float64) / 255.0, (0, 3, 1, 2))
            scores = self.model.scores(images, rng=rng)
            chunks.append(scores)
            per_batch.append(checks.bounded_scores(scores))
        scores = np.concatenate(chunks)
        labels = self.bundle.labels[idx]
        self.auc = cm.metrics.auc_task(scores, labels, self.bundle.task)
        oracle = cm.metrics.auc_pairwise(scores[:, 1], labels.reshape(-1))
        preds, y = scores.argmax(axis=1), labels.reshape(-1)
        self.acc = float(np.mean(preds == y))
        self.per_class = {
            k: {"acc": float(np.mean(preds[y == k] == k)),
                "auc": cm.metrics.auc_binary(scores[:, k], (y == k).astype(int))}
            for k in range(self.bundle.num_classes)
        }
        self.batch_problems = per_batch
        self.digest = checks.digest({"scores": scores})
        return _steps_checked(per_batch, checks.auc_matches_oracle(self.auc, oracle),
                              self.digest, self.auc, "auc")

    def run(self) -> Output:
        cm = self.cm
        t0 = perf_counter()
        report = cm.metrics.evaluate(self.model, self.bundle, cm.data.Split.TEST,
                                     rng=np.random.default_rng(self.seed), batch_size=self.batch)
        seconds = perf_counter() - t0
        return Output(self.bundle.n, seconds, {"report": report})

    def check(self, out: Output) -> Checked:
        report = out.values["report"]
        extra = (checks.same_value(report.auc, self.auc, "evaluate AUC vs reference")
                 + checks.same_value(report.acc, self.acc, "evaluate ACC vs reference")
                 + checks.same_value(report.per_class, self.per_class,
                                     "evaluate per-class ACC/AUC vs reference")
                 + checks.same_value(report.n, self.bundle.n, "evaluated images"))
        return _steps_checked(self.batch_problems, extra, self.digest, report.auc, "auc")


WORKLOADS = {w.name: w for w in (FitTiny, PretrainRef, ScoreBreast)}
