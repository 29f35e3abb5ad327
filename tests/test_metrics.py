import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmixer.data import Split, TaskKind, synth_dataset
from cmixer.errors import ContractError, UndefinedMetricError
from cmixer.metrics import (
    _midranks,
    accuracy,
    auc_binary,
    auc_pairwise,
    auc_task,
    evaluate,
    report_rows,
)
from cmixer.model import CMixerConfig, CMixerModel, Toggles


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0

    def test_three_quarters(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_multilabel_all_correct(self):
        y = np.array([[1, 0, 1], [0, 1, 0]])
        assert accuracy(y, y) == 1.0

    def test_multilabel_macro(self):
        pred = np.array([[1, 0], [1, 0]])
        true = np.array([[1, 1], [1, 0]])
        # label 0: 2/2 correct; label 1: 1/2 correct
        assert accuracy(pred, true) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            accuracy([], [])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        preds = rng.integers(0, 4, n)
        labels = rng.integers(0, 4, n)
        perm = rng.permutation(n)
        assert accuracy(preds, labels) == accuracy(preds[perm], labels[perm])


class TestAucBinary:
    def test_worked_example(self):
        assert auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
        assert auc_pairwise([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_binary([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_binary([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            # coarse scores force plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc_binary(scores, labels) == auc_pairwise(scores, labels)

    def test_complement_property(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert auc_binary(scores, labels) + auc_binary(-scores, labels) == pytest.approx(1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auc_binary(scores, labels)
        assert auc_binary(3.0 * scores + 7.0, labels) == pytest.approx(base)
        assert auc_binary(np.tanh(scores), labels) == pytest.approx(base)
        assert auc_binary(np.exp(scores), labels) == pytest.approx(base)


def midranks_loop(values):
    """The per-tie-group loop that ``_midranks`` replaced, kept as its reference."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + 1 + j + 1) / 2.0
        i = j + 1
    return ranks


class TestMidranks:
    @pytest.mark.parametrize("values", [
        np.array([0.25]),
        np.full(9, 0.5),
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
        np.array([3.0, 1.0, 2.0]),
        np.random.default_rng(0).integers(0, 3, 500) / 2.0,
        np.random.default_rng(1).integers(-2, 3, 4096) * 0.0,
        np.random.default_rng(2).standard_normal(4096),
    ], ids=["length1", "all_ties", "signed_zeros", "distinct", "heavy_ties",
            "zeros_of_both_signs", "no_ties"])
    def test_bitwise_equal_to_loop(self, values):
        ranks = _midranks(values)
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == midranks_loop(values).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_ties_bitwise_equal_to_loop(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, int(rng.integers(1, 8)), int(rng.integers(1, 80))) / 4.0
        assert _midranks(values).tobytes() == midranks_loop(values).tobytes()


class TestAucTask:
    def test_binary_reduces_to_auc_binary(self):
        rng = np.random.default_rng(2)
        pos_score = rng.standard_normal(30)
        scores = np.stack([-pos_score, pos_score], axis=1)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        assert auc_task(scores, labels[:, None], TaskKind.BINARY) == pytest.approx(
            auc_binary(pos_score, labels)
        )

    def test_block_diagonal_perfect(self):
        scores = np.array(
            [[0.9, 0.0, 0.0], [0.8, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.8, 0.0],
             [0.0, 0.1, 0.9], [0.1, 0.0, 0.8]]
        )
        labels = np.array([0, 0, 1, 1, 2, 2])[:, None]
        assert auc_task(scores, labels, TaskKind.MULTICLASS) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((300, 3))
        labels = rng.integers(0, 3, 300)[:, None]
        assert abs(auc_task(scores, labels, TaskKind.MULTICLASS) - 0.5) < 0.1

    def test_absent_class_skipped_with_warning(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((40, 3))
        labels = rng.integers(0, 2, 40)[:, None]  # class 2 never appears
        with pytest.warns(UserWarning, match="skipped"):
            value = auc_task(scores, labels, TaskKind.MULTICLASS)
        assert 0.0 <= value <= 1.0

    def test_multilabel_macro(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, (50, 4))
        labels[0] = [0, 0, 0, 0]
        labels[1] = [1, 1, 1, 1]
        scores = labels + 0.1 * rng.standard_normal((50, 4))
        assert auc_task(scores, labels, TaskKind.MULTILABEL) > 0.95

    def test_ordinal_treated_as_multiclass(self):
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((30, 5))
        labels = rng.integers(0, 5, 30)[:, None]
        value = auc_task(scores, labels, TaskKind.ORDINAL)
        assert 0.0 <= value <= 1.0


@pytest.fixture(scope="module")
def setup():
    bundle = synth_dataset(2, 30, 16, np.random.default_rng(0))
    model = CMixerModel(CMixerConfig.small(image_side=16, hidden=8, num_layers=1),
                        rng=np.random.default_rng(0))
    return bundle, model


class TestEvaluate:

    def test_report_fields_in_range(self, setup):
        bundle, model = setup
        report = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(1))
        assert 0.0 <= report.acc <= 1.0
        assert 0.0 <= report.auc <= 1.0
        assert report.n == len(bundle.indices(Split.TEST))
        for metrics_k in report.per_class.values():
            assert 0.0 <= metrics_k["acc"] <= 1.0
            assert 0.0 <= metrics_k["auc"] <= 1.0

    def test_frozen_epsilon_is_deterministic(self, setup):
        bundle, model = setup
        a = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(5))
        b = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(5))
        assert a.acc == b.acc and a.auc == b.auc

    def test_no_noise_toggle_deterministic_without_seed(self, setup):
        bundle, model = setup
        toggles = Toggles(il=False)
        a = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(0), toggles=toggles)
        b = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(9), toggles=toggles)
        assert a.acc == b.acc and a.auc == b.auc

    def test_empty_split_rejected(self, setup):
        bundle, model = setup
        from dataclasses import replace

        tags = bundle.splits.copy()
        tags[tags == int(Split.VAL)] = int(Split.TEST)
        with pytest.raises(ContractError):
            evaluate(model, replace(bundle, splits=tags), Split.VAL)

    def test_report_rows_schema(self, setup):
        bundle, model = setup
        report = evaluate(model, bundle, Split.TEST, rng=np.random.default_rng(1))
        rows = report_rows(report, "test")
        assert ("acc" in {r[3] for r in rows}) and ("auc" in {r[3] for r in rows})
        assert all(len(r) == 5 for r in rows)
