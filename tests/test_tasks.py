"""Each task kind end to end: its class count, its loss, its predictions and
its per-class report, each checked against a computation written out here."""

import numpy as np
import pytest

from cmixer.data import (DatasetBundle, Split, TaskKind, _to_model_layout, infer_task,
                         label_columns, load_npz, synth_dataset)
from cmixer.engine import Tensor
from cmixer.errors import ContractError, FormatError, NumericError
from cmixer.metrics import auc_pairwise, auc_task, evaluate, predictions_for_task
from cmixer.model import CMixerConfig, CMixerModel
from cmixer.npzio import write_arrays
from cmixer.train import (
    TrainConfig,
    bce_with_logits,
    cross_entropy,
    finetune,
    loss_for_task,
)


def _same(a, b):
    return a.data.tobytes() == b.data.tobytes()


def _col(*labels):
    return np.array(labels, dtype=np.int64)[:, None]


class TestInferTask:
    @pytest.mark.parametrize("labels,task,classes", [
        (_col(0, 1, 1), TaskKind.BINARY, 2),
        (_col(0, 0, 0), TaskKind.BINARY, 2),
        (_col(0, 2, 1), TaskKind.MULTICLASS, 3),
        (np.array([[0, 1], [1, 1]]), TaskKind.MULTILABEL, 2),
    ])
    def test_inferred(self, labels, task, classes):
        assert infer_task(labels) == (task, classes)

    @pytest.mark.parametrize("task", [TaskKind.MULTICLASS, TaskKind.ORDINAL, TaskKind.BINARY])
    def test_explicit_index_task_has_at_least_two_classes(self, task):
        assert infer_task(_col(0, 0), task) == (task, 2)

    @pytest.mark.parametrize("labels", [_col(0, 1, 2), _col(-1, 0, 1)])
    def test_binary_needs_labels_in_zero_one(self, labels):
        with pytest.raises(FormatError, match="binary"):
            infer_task(labels, TaskKind.BINARY)

    @pytest.mark.parametrize("task", [TaskKind.MULTICLASS, TaskKind.ORDINAL, TaskKind.BINARY])
    def test_index_task_needs_one_label_column(self, task):
        with pytest.raises(FormatError, match=f"task '{task.value}' needs one label column"):
            infer_task(np.array([[0, 1, 0], [1, 0, 1]]), task)

    @pytest.mark.parametrize("task", [None, TaskKind.MULTILABEL])
    @pytest.mark.parametrize("labels", [[[0, 2], [1, 0]], [[0, -1], [1, 1]]])
    def test_multilabel_needs_labels_in_zero_one(self, task, labels):
        with pytest.raises(FormatError, match="multilabel"):
            infer_task(np.array(labels), task)


class TestLabelColumns:
    def test_index_labels_become_one_hot_rows(self):
        cols = label_columns(_col(2, 0, 1), TaskKind.MULTICLASS, 4)
        np.testing.assert_array_equal(cols, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
        assert cols.dtype == np.float64

    def test_multilabel_labels_are_their_own_columns(self):
        labels = np.array([[0, 1, 1], [1, 0, 0]])
        assert label_columns(labels, TaskKind.MULTILABEL, 3) is labels

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]])
    def test_index_outside_the_columns_rejected(self, labels):
        with pytest.raises(ContractError, match=r"outside \[0, 2\)"):
            label_columns(labels, TaskKind.BINARY, 2)

    def test_auc_task_rejects_a_label_without_a_score_column(self):
        with pytest.raises(ContractError, match="outside"):
            auc_task(np.zeros((3, 2)), _col(0, 1, 2), TaskKind.MULTICLASS)

    def test_auc_task_binary_keeps_its_zero_one_check(self):
        with pytest.raises(ContractError, match="0 or 1"):
            auc_task(np.zeros((3, 2)), _col(0, 1, 2), TaskKind.BINARY)


class TestLossForTask:
    def test_multilabel_is_bce_on_the_labels(self):
        rng = np.random.default_rng(0)
        z, y = rng.standard_normal((6, 3)), rng.integers(0, 2, (6, 3))
        assert _same(loss_for_task(TaskKind.MULTILABEL, Tensor(z), y, 3),
                     bce_with_logits(Tensor(z), y))

    def test_binary_is_bce_on_the_one_hot(self):
        rng = np.random.default_rng(1)
        z, y = rng.standard_normal((6, 2)), np.array([0, 1, 1, 0, 1, 0])[:, None]
        onehot = np.array([[1.0 - v, float(v)] for v in y[:, 0]])
        assert _same(loss_for_task(TaskKind.BINARY, Tensor(z), y, 2),
                     bce_with_logits(Tensor(z), onehot))

    @pytest.mark.parametrize("task", [TaskKind.MULTICLASS, TaskKind.ORDINAL])
    def test_index_tasks_are_cross_entropy(self, task):
        rng = np.random.default_rng(2)
        z, y = rng.standard_normal((6, 3)), np.array([0, 2, 1, 1, 0, 2])[:, None]
        assert _same(loss_for_task(task, Tensor(z), y, 3), cross_entropy(Tensor(z), y))


class TestPredictionsForTask:
    def test_multilabel_thresholds_each_label_at_zero(self):
        scores = np.array([[0.5, -0.1, 0.0], [-0.2, 0.3, 1e-12]])
        preds = predictions_for_task(scores, TaskKind.MULTILABEL)
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, [[1, 0, 0], [0, 1, 1]])

    @pytest.mark.parametrize("task", [TaskKind.BINARY, TaskKind.MULTICLASS, TaskKind.ORDINAL])
    def test_index_tasks_take_the_argmax(self, task):
        scores = np.array([[0.1, 0.7, -0.2], [0.4, -0.5, 0.3]])
        np.testing.assert_array_equal(predictions_for_task(scores, task), [1, 0])


def _trained(bundle):
    model = CMixerModel(CMixerConfig.small(image_side=8, hidden=8, num_layers=1,
                                           num_classes=bundle.num_classes),
                        rng=np.random.default_rng(0))
    finetune(model, bundle, TrainConfig(epochs=2, batch_size=16, warmup_steps=1),
             np.random.default_rng(1))
    return model


def _report_and_scores(model, bundle):
    """``evaluate`` on the test split, and the scores it saw: one batch, same noise."""
    report = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(7))
    idx = bundle.indices(Split.TEST)
    scores = model.scores(_to_model_layout(bundle.images[idx]), rng=np.random.default_rng(7))
    return report, scores, bundle.labels[idx]


def _multilabel(constant_last=False):
    """Three labels on the 3-class blobs: label j is on for classes j and j+1 (mod 3)."""
    base = synth_dataset(3, 30, 8, np.random.default_rng(4))
    cls = base.labels[:, 0]
    labels = np.stack([(cls == j) | (cls == (j + 2) % 3) for j in range(3)], axis=1)
    labels = labels.astype(np.int64)
    if constant_last:
        labels[:, 2] = 1
    return DatasetBundle(base.images, labels, base.splits, TaskKind.MULTILABEL, 3)


class TestPerClassReport:
    def test_multiclass_recall_and_one_vs_rest_auc(self):
        bundle = synth_dataset(3, 30, 8, np.random.default_rng(3))
        report, scores, labels = _report_and_scores(_trained(bundle), bundle)
        y, preds = labels[:, 0], scores.argmax(axis=1)
        assert report.acc == np.mean(preds == y)
        assert sorted(report.per_class) == [0, 1, 2]
        for k, got in report.per_class.items():
            members = [i for i in range(len(y)) if y[i] == k]
            assert got["acc"] == sum(preds[i] == k for i in members) / len(members)
            assert got["auc"] == auc_pairwise(scores[:, k], (y == k).astype(int))

    def test_multilabel_agreement_and_per_label_auc(self):
        bundle = _multilabel()
        report, scores, labels = _report_and_scores(_trained(bundle), bundle)
        preds = (scores > 0.0).astype(int)
        agree = [np.mean(preds[:, k] == labels[:, k]) for k in range(3)]
        assert report.acc == np.mean(agree)
        assert sorted(report.per_class) == [0, 1, 2]
        for k, got in report.per_class.items():
            assert got["acc"] == agree[k]
            assert got["auc"] == auc_pairwise(scores[:, k], labels[:, k])

    def test_multilabel_constant_label_has_no_entry(self):
        bundle = _multilabel(constant_last=True)
        with pytest.warns(UserWarning, match="skipped"):
            report, scores, labels = _report_and_scores(_trained(bundle), bundle)
        assert sorted(report.per_class) == [0, 1]
        assert report.auc == np.mean([auc_pairwise(scores[:, k], labels[:, k]) for k in (0, 1)])


def _archive(tmp_path, labels_by_split):
    arrays = {}
    for kind, labels in zip(("train", "val", "test"), labels_by_split):
        labels = np.asarray(labels, dtype=np.int64)
        arrays[f"{kind}_images"] = np.zeros((len(labels), 8, 8), dtype=np.uint8)
        arrays[f"{kind}_labels"] = labels
    path = tmp_path / "data.npz"
    write_arrays(path, arrays)
    return path


class TestExplicitTask:
    @pytest.mark.parametrize("task,labels,classes", [
        (TaskKind.MULTICLASS, ([0, 1, 1], [0], [1]), 2),
        ("multiclass", ([0, 2, 1], [2], [0]), 3),
        (TaskKind.ORDINAL, ([0, 3, 1], [2], [1]), 4),
        (TaskKind.BINARY, ([0, 1, 1], [0], [1]), 2),
        (TaskKind.MULTILABEL, ([[0, 1, 1]], [[1, 0, 0]], [[0, 0, 1]]), 3),
    ])
    def test_kind_and_class_count(self, tmp_path, task, labels, classes):
        bundle = load_npz(_archive(tmp_path, labels), task=task)
        assert bundle.task is TaskKind(task) and bundle.num_classes == classes

    @pytest.mark.parametrize("task", [TaskKind.BINARY, TaskKind.MULTICLASS])
    def test_all_zero_labels_give_two_classes(self, tmp_path, task):
        bundle = load_npz(_archive(tmp_path, ([0, 0], [0], [0])), task=task)
        assert bundle.task is task and bundle.num_classes == 2

    def test_binary_on_three_classes_is_a_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="binary"):
            load_npz(_archive(tmp_path, ([0, 1, 2], [0], [1])), task=TaskKind.BINARY)

    def test_multiclass_on_three_label_columns_is_a_format_error(self, tmp_path):
        wide = ([[0, 1, 1]] * 14, [[1, 0, 0]] * 2, [[0, 0, 1]] * 4)
        with pytest.raises(FormatError, match="multiclass"):
            load_npz(_archive(tmp_path, wide), task=TaskKind.MULTICLASS)

    def test_multilabel_label_of_two_is_a_format_error(self, tmp_path):
        labels = ([[0, 1, 1]] * 13 + [[0, 2, 1]], [[1, 0, 0]] * 2, [[0, 0, 1]] * 4)
        with pytest.raises(FormatError, match="multilabel"):
            load_npz(_archive(tmp_path, labels))


class TestUnusedHead:
    def test_scoring_never_checks_the_head_it_does_not_read(self):
        model = CMixerModel(CMixerConfig.small(image_side=8, hidden=4, num_layers=1),
                            rng=np.random.default_rng(0))
        x, eps = np.full((2, 1, 8, 8), 0.5), np.random.default_rng(1).standard_normal((2, 1, 8, 8))
        want = model.scores(x, eps=eps)
        model.params["ssl_head.weight"][0, 0, 0] = np.nan
        assert model.scores(x, eps=eps).tobytes() == want.tobytes()
        with pytest.raises(NumericError):
            model.scores(x, eps=eps, head="ssl")
