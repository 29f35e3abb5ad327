"""Self-test of the benchmark's checks: a bad output must count as failed.

    python3 perfbench/selftest.py

Each case runs a real workload unit with one program call swapped for a
version that returns a wrong output, and asserts that the benchmark
counts the affected operations as failed instead of timing them. The
workloads are shrunk so the whole file runs in well under a minute.
"""

from __future__ import annotations

import math
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run._pin_blas_threads()
cm = run._import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import FitTiny, PretrainRef, ScoreBreast  # noqa: E402


def _small_pretrain(workdir, steps=2):
    """PretrainRef with ``steps`` steps per unit on a one-layer model instead of the reference one."""
    w = PretrainRef(cm, 7, workdir)
    w.steps = w.ops = steps
    w.setup()
    w.config = cm.model.CMixerConfig.small(image_side=28, in_channels=3, num_layers=1, hidden=8)
    w.init = cm.model.CMixerModel(w.config, rng=np.random.default_rng(0)).copy_params()
    return w


def _unit(tally, workload, label="unit"):
    out, _, error = run._run_unit(workload, None)
    return tally.unit(out, error, label)


class CheckFunctions(unittest.TestCase):
    def test_good_outputs_pass(self):
        self.assertEqual(checks.finite_losses([0.5, 0.25], 2), [])
        self.assertEqual(checks.bounded_scores([[-0.99, 0.99]]), [])
        self.assertEqual(checks.perfect_accuracy([0, 1], [0, 1]), [])
        self.assertEqual(checks.auc_matches_oracle(0.75, 0.75), [])
        a = {"w": np.arange(3.0)}
        self.assertEqual(checks.bitwise_equal(a, {"w": a["w"].copy()}), [])

    def test_bad_outputs_fail(self):
        self.assertTrue(checks.finite_losses([0.5, math.nan], 2))
        self.assertTrue(checks.finite_losses([0.5], 2))
        self.assertTrue(checks.bounded_scores([[0.5, 1.0]]))
        self.assertTrue(checks.bounded_scores([[0.5, math.inf]]))
        self.assertTrue(checks.perfect_accuracy([0, 0], [0, 1]))
        self.assertTrue(checks.auc_matches_oracle(0.75, 0.7500000000000001))
        a = {"w": np.array([0.0, 1.0])}
        self.assertTrue(checks.bitwise_equal(a, {"w": np.array([-0.0, 1.0])}))
        self.assertTrue(checks.bitwise_equal(a, {"w": a["w"].astype(np.float32)}))

    def test_digest_sees_one_bit(self):
        a = np.array([1.0, 2.0])
        b = a.copy()
        b.view(np.uint64)[0] ^= 1
        self.assertNotEqual(checks.digest({"w": a}), checks.digest({"w": b}))


class InjectedFailures(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.workdir = Path(self.tmp.name)

    def _workload(self, cls, **shrink):
        w = cls(cm, 7, self.workdir)
        for key, value in shrink.items():
            setattr(w, key, value)
        w.setup()
        return w

    def test_wrong_prediction_fails_fit(self):
        w = self._workload(FitTiny, params=dict(FitTiny.params, epochs=1, pretrain_epochs=0))
        real = cm.estimator.CMixerClassifier.predict
        tally = run.Tally(w)
        with mock.patch.object(cm.estimator.CMixerClassifier, "predict",
                               lambda self, X: 1 - real(self, X)):
            self.assertFalse(_unit(tally, w))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_nan_loss_fails_its_step(self):
        w = _small_pretrain(self.workdir)
        real = cm.train.pretrain

        def nan_first_loss(*args, **kwargs):
            result = real(*args, **kwargs)
            result.losses[0] = math.nan
            return result

        tally = run.Tally(w)
        with mock.patch.object(cm.train, "pretrain", nan_first_loss):
            self.assertFalse(_unit(tally, w))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_raise_fails_every_step(self):
        w = _small_pretrain(self.workdir)
        tally = run.Tally(w)
        with mock.patch.object(cm.train, "pretrain", side_effect=FloatingPointError("boom")):
            self.assertFalse(_unit(tally, w))
        self.assertEqual((tally.attempted, tally.failed), (2, 2))
        self.assertIn("boom", tally.problems[0])

    def test_nondeterministic_unit_fails(self):
        w = _small_pretrain(self.workdir)
        tally = run.Tally(w)
        self.assertTrue(_unit(tally, w, "first"))
        w.init = {k: v + 1e-3 for k, v in w.init.items()}
        self.assertFalse(_unit(tally, w, "second"))
        self.assertEqual((tally.attempted, tally.failed), (4, 2))

    def test_checkpoint_that_does_not_round_trip_fails(self):
        w = _small_pretrain(self.workdir, steps=1)
        real = cm.model.load_checkpoint

        def one_ulp_off(path):
            m = real(path)
            m.params["head.bias.re"] = np.nextafter(m.params["head.bias.re"], np.inf)
            return m

        tally = run.Tally(w)
        self.assertTrue(_unit(tally, w, "clean"))
        with mock.patch.object(cm.model, "load_checkpoint", one_ulp_off):
            self.assertFalse(_unit(tally, w, "corrupt"))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_score_on_the_bound_fails_its_batch(self):
        w = self._workload(ScoreBreast, n_images=512)
        real = cm.model.CMixerModel.scores
        calls = []

        def first_batch_saturated(self, *args, **kwargs):
            scores = real(self, *args, **kwargs)
            if not calls:
                scores[0, 0] = 1.0
            calls.append(1)
            return scores

        with mock.patch.object(cm.model.CMixerModel, "scores", first_batch_saturated):
            prepared = w.prepare()
        self.assertEqual((prepared.attempted, prepared.failed), (2, 1))

    def test_wrong_auc_fails_every_batch(self):
        w = self._workload(ScoreBreast, n_images=512)
        self.assertEqual(w.prepare().failed, 0)
        real = cm.metrics.evaluate

        def off_auc(*args, **kwargs):
            report = real(*args, **kwargs)
            report.auc = np.nextafter(report.auc, 2.0)
            return report

        tally = run.Tally(w)
        self.assertTrue(_unit(tally, w, "clean"))
        with mock.patch.object(cm.metrics, "evaluate", off_auc):
            self.assertFalse(_unit(tally, w, "corrupt"))
        self.assertEqual((tally.attempted, tally.failed), (4, 2))

    def test_wrong_per_class_auc_fails_every_batch(self):
        w = self._workload(ScoreBreast, n_images=512)
        self.assertEqual(w.prepare().failed, 0)
        real = cm.metrics.evaluate

        def off_class_auc(*args, **kwargs):
            report = real(*args, **kwargs)
            report.per_class[0]["auc"] = np.nextafter(report.per_class[0]["auc"], 2.0)
            return report

        tally = run.Tally(w)
        with mock.patch.object(cm.metrics, "evaluate", off_class_auc):
            self.assertFalse(_unit(tally, w, "corrupt"))
        self.assertEqual((tally.attempted, tally.failed), (2, 2))


class Tracing(unittest.TestCase):
    def test_traced_unit_matches_untraced_and_restores_names(self):
        from spans import Tracer

        with tempfile.TemporaryDirectory() as tmp:
            w = _small_pretrain(Path(tmp))
            before = (cm.train.pretrain, cm.engine.Tape.backward, cm.model.CMixerModel.forward)
            tracer = Tracer(cm)
            tally = run.Tally(w)
            self.assertTrue(_unit(tally, w, "untraced"))
            out, _, error = run._run_unit(w, tracer)
            self.assertTrue(tally.unit(out, error, "traced"), tally.problems)
        after = (cm.train.pretrain, cm.engine.Tape.backward, cm.model.CMixerModel.forward)
        self.assertEqual(before, after)
        summary = tracer.summary(units=1)
        # each of the two steps: one taped forward, one tape-less EMA forward, one backward
        self.assertEqual(summary["engine.backward_calls"], 2)
        self.assertEqual(summary["model.forward_calls"], 2)
        self.assertEqual(summary["model.forward_nograd_calls"], 2)
        self.assertEqual(summary["model.block_calls"], 4)
        self.assertEqual(summary["train.ema_calls"], 2)
        self.assertEqual(summary["model.checkpoint_calls"], 2)
        self.assertGreater(summary["engine.nodes_per_step"], 100)
        self.assertLessEqual(summary["trace.coverage_frac"], 1.0 + 1e-9)
        self.assertGreater(summary["trace.coverage_frac"], 0.9)


if __name__ == "__main__":
    sys.exit(unittest.main())
