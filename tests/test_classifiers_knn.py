"""Nearest-neighbour scorers against the exhaustive-scan oracle."""

import numpy as np
import pytest

from falldetect import classifiers as cls
from falldetect.errors import DimensionError, InvalidK


def random_case(rng, n_train, dim):
    return rng.normal(0.0, 1.0, (n_train, dim)), rng.normal(0.0, 1.0, dim)


class TestOracle:
    def test_single_point_distance(self):
        got = cls.knn_bruteforce_oracle([[0.0, 0.0]], [3.0, 4.0], 1)
        assert got.tolist() == [5.0]

    def test_orders_distances(self):
        train = [[0.0], [10.0], [2.0]]
        got = cls.knn_bruteforce_oracle(train, [0.0], 3)
        assert got.tolist() == [0.0, 2.0, 10.0]


class TestProductionMatchesOracle:
    def test_selected_distances_identical(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 40))
            train, q = random_case(rng, n, int(rng.integers(2, 12)))
            for k in range(1, min(10, n) + 1):
                fast = cls._k_smallest_sorted(train, q, k)
                slow = cls.knn_bruteforce_oracle(train, q, k)
                assert np.array_equal(fast, slow)

    def test_mean_distance_equals_oracle_mean(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 30))
            train, q = random_case(rng, n, 5)
            k = int(rng.integers(1, n + 1))
            oracle = cls.knn_bruteforce_oracle(train, q, k)
            assert cls.knn_mean_distance(train, q, k) == float(oracle[:k].sum() / k)

    def test_all_k_matrix_matches_per_k_calls(self, rng):
        train = rng.normal(0.0, 1.0, (25, 4))
        queries = rng.normal(0.0, 1.0, (6, 4))
        table = cls.knn_mean_distances_all_k(train, queries, 10)
        assert table.shape == (6, 10)
        for qi, q in enumerate(queries):
            for k in range(1, 11):
                assert table[qi, k - 1] == cls.knn_mean_distance(train, q, k)


class TestOneClassKnn:
    def test_training_point_scores_zero(self):
        model = cls.train_oc_knn([[0.0, 0.0]], k=1)
        assert model.score([0.0, 0.0]) == 0.0

    def test_mean_of_two_nearest(self):
        model = cls.train_oc_knn([[0.0, 0.0], [1.0, 0.0]], k=2)
        expected = (1.0 + np.sqrt(2.0)) / 2.0
        assert model.score([0.0, 1.0]) == pytest.approx(expected, abs=1e-15)

    def test_score_grows_with_distance(self, rng):
        train = rng.normal(0.0, 0.5, (30, 3))
        model = cls.train_oc_knn(train, k=3)
        near = model.score([0.0, 0.0, 0.0])
        far = model.score([10.0, 10.0, 10.0])
        assert far > near

    def test_k_bounds(self):
        train = [[0.0], [1.0]]
        with pytest.raises(InvalidK):
            cls.train_oc_knn(train, k=0)
        with pytest.raises(InvalidK):
            cls.train_oc_knn(train, k=3)

    def test_summary_counts(self):
        model = cls.train_oc_knn([[0.0], [1.0], [2.0]], k=2)
        assert model.training_summary["counts"] == {"ADL": 3, "FALL": 0}


class TestTwoClassKnn:
    def test_equidistant_query_scores_half(self):
        model = cls.train_tc_knn(
            [[0.0, 0.0], [2.0, 0.0]], ["ADL", "FALL"], k=1
        )
        assert model.score([1.0, 0.0]) == 0.5

    def test_ratio_by_hand(self):
        model = cls.train_tc_knn([[0.0], [10.0]], ["ADL", "FALL"], k=1)
        assert model.score([2.0]) == 0.2

    def test_on_fall_point_scores_one(self):
        model = cls.train_tc_knn([[0.0], [3.0]], ["ADL", "FALL"], k=1)
        assert model.score([3.0]) == 1.0
        assert model.score([0.0]) == 0.0

    def test_coincident_classes_score_half(self):
        model = cls.train_tc_knn([[1.0], [1.0]], ["ADL", "FALL"], k=1)
        assert model.score([1.0]) == 0.5

    def test_k_limited_by_smaller_class(self):
        vectors = [[0.0], [1.0], [2.0], [3.0]]
        labels = ["ADL", "ADL", "ADL", "FALL"]
        with pytest.raises(InvalidK):
            cls.train_tc_knn(vectors, labels, k=2)
        cls.train_tc_knn(vectors, labels, k=1)

    def test_scores_stay_in_unit_interval(self, rng):
        vectors = rng.normal(0.0, 1.0, (30, 4))
        labels = ["ADL"] * 20 + ["FALL"] * 10
        model = cls.train_tc_knn(vectors, labels, k=5)
        scores = cls.score_batch(model, rng.normal(0.0, 2.0, (40, 4)))
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_label_enum_and_string_agree(self, rng):
        from falldetect.ingest import Label

        vectors = rng.normal(0.0, 1.0, (10, 2))
        strings = ["ADL"] * 6 + ["FALL"] * 4
        enums = [Label(s) for s in strings]
        qs = rng.normal(0.0, 1.0, (5, 2))
        a = cls.score_batch(cls.train_tc_knn(vectors, strings, k=2), qs)
        b = cls.score_batch(cls.train_tc_knn(vectors, enums, k=2), qs)
        assert np.array_equal(a, b)
        mixed = enums[:5] + strings[5:]
        c = cls.score_batch(cls.train_tc_knn(vectors, mixed, k=2), qs)
        assert np.array_equal(a, c)

    def test_unknown_labels_rejected_by_name(self, rng):
        vectors = rng.normal(0.0, 1.0, (4, 2))
        with pytest.raises(ValueError, match=r"unknown labels \['NOISE', 'adl'\]$"):
            cls.train_tc_knn(vectors, ["ADL", "adl", "FALL", "NOISE"], k=1)


class TestSharedBehaviour:
    def test_translation_leaves_scores_nearly_unchanged(self, rng):
        train = rng.normal(0.0, 1.0, (20, 3))
        labels = ["ADL"] * 12 + ["FALL"] * 8
        queries = rng.normal(0.0, 1.0, (10, 3))
        shift = np.array([5.0, -3.0, 11.0])
        for build in (
            lambda X: cls.train_oc_knn(X, k=3),
            lambda X: cls.train_tc_knn(X, labels, k=3),
        ):
            base = cls.score_batch(build(train), queries)
            moved = cls.score_batch(build(train + shift), queries + shift)
            assert np.max(np.abs(base - moved)) <= 1e-9

    def test_fall_cluster_ranks_above_adl(self, rng):
        adl = rng.normal(0.0, 0.4, (25, 4))
        fall = rng.normal(0.0, 0.4, (12, 4)) + 6.0
        labels = ["ADL"] * 25 + ["FALL"] * 12
        both = np.vstack([adl, fall])
        probes_adl = rng.normal(0.0, 0.4, (8, 4))
        probes_fall = rng.normal(0.0, 0.4, (8, 4)) + 6.0
        for model in (
            cls.train_oc_knn(adl, k=3),
            cls.train_tc_knn(both, labels, k=3),
        ):
            lo = cls.score_batch(model, probes_adl)
            hi = cls.score_batch(model, probes_fall)
            assert hi.min() > lo.max()

    def test_batch_is_deterministic(self, rng):
        train = rng.normal(0.0, 1.0, (15, 3))
        model = cls.train_oc_knn(train, k=4)
        qs = rng.normal(0.0, 1.0, (7, 3))
        assert np.array_equal(cls.score_batch(model, qs), cls.score_batch(model, qs))

    def test_empty_batch(self):
        model = cls.train_oc_knn([[0.0], [1.0]], k=1)
        assert cls.score_batch(model, np.empty((0, 1))).shape == (0,)
        assert cls.score_batch(model, []).shape == (0,)

    def test_dimension_mismatch_rejected(self):
        model = cls.train_oc_knn([[0.0, 0.0]], k=1)
        with pytest.raises(DimensionError):
            cls.score_batch(model, [[1.0, 2.0, 3.0]])


class TestScoringSharesTheInnerSearchTable:
    def test_score_batch_equals_table_column_bit_for_bit(self, rng):
        X = rng.normal(0.0, 1.0, (40, 4))
        is_fall = np.arange(40) % 4 == 0
        X[1] = X[0]  # one ADL row coincides with a FALL row
        queries = np.vstack([rng.normal(0.0, 1.5, (15, 4)), X[:1]])
        adl, fall = X[~is_fall], X[is_fall]
        oc_table = cls.knn_scores_all_k(adl, None, queries, 10)
        tc_table = cls.knn_scores_all_k(adl, fall, queries, 10)
        for k in range(1, 11):
            oc = cls.score_batch(cls.train_oc_knn(adl, k), queries)
            tc = cls.score_batch(cls.train_tc_knn(X, is_fall, k), queries)
            assert np.array_equal(oc, oc_table[:, k - 1])
            assert np.array_equal(tc, tc_table[:, k - 1])
        assert tc_table[-1, 0] == 0.5

