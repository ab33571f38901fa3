"""Nearest-neighbour scorers against the exhaustive-scan oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests.conftest import (
    distance_block,
    distances_to_all,
    knn_bruteforce_oracle,
    knn_oracle_scores,
    report_bits,
)
from falldetect import classifiers as cls
from falldetect.errors import DimensionError, InvalidK


def random_case(rng, n_train, dim):
    return rng.normal(0.0, 1.0, (n_train, dim)), rng.normal(0.0, 1.0, dim)


class TestOracle:
    def test_single_point_distance(self):
        got = knn_bruteforce_oracle([[0.0, 0.0]], [3.0, 4.0], 1)
        assert got.tolist() == [5.0]

    def test_orders_distances(self):
        train = [[0.0], [10.0], [2.0]]
        got = knn_bruteforce_oracle(train, [0.0], 3)
        assert got.tolist() == [0.0, 2.0, 10.0]


class TestProductionMatchesOracle:
    def test_selected_distances_identical(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 40))
            train, q = random_case(rng, n, int(rng.integers(2, 12)))
            for k in range(1, min(10, n) + 1):
                fast = cls._k_smallest_rows(cls._candidate_block(train, q[None, :], k), k)[0]
                slow = knn_bruteforce_oracle(train, q, k)
                assert np.array_equal(fast, slow)

    def test_mean_distance_equals_oracle_mean(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 30))
            train, q = random_case(rng, n, 5)
            k = int(rng.integers(1, n + 1))
            oracle = knn_bruteforce_oracle(train, q, k)
            mean = float(oracle[:k].sum() / k)
            block = cls._candidate_block(train, q[None, :], k)
            assert cls.knn_mean_distances_all_k(block, k)[0, k - 1] == mean
            assert cls.train_oc_knn(train, k).score(q) == mean

    def test_table_checks_its_block_and_k_max(self):
        block = np.arange(6.0).reshape(2, 3)
        assert cls.knn_mean_distances_all_k(block, 3).tolist() == [[0.0, 0.5, 1.0], [3.0, 3.5, 4.0]]
        for k_max in (0, 4):
            with pytest.raises(InvalidK, match=rf"k_max={k_max} needs 1 <= k_max <= 3 "):
                cls.knn_mean_distances_all_k(block, k_max)
        with pytest.raises(DimensionError, match="2-d distance block"):
            cls.knn_mean_distances_all_k(block[0], 1)

    def test_table_bits_do_not_depend_on_the_block_layout(self, rng):
        # a block gathered column-wise comes in Fortran order; its sums of
        # 8 or more must still be pairwise, as over a C-ordered row.  The
        # block 10 wide is sorted whole, with no partition
        for block in (rng.random((12, 30)), rng.random((12, 10))):
            expected = cls.knn_mean_distances_all_k(block, 10).view(np.int64)
            for layout in (np.asfortranarray(block), block[:, ::-1],
                           np.repeat(block, 2, axis=1)[:, ::2]):
                got = cls.knn_mean_distances_all_k(layout, 10).view(np.int64)
                assert np.array_equal(got, expected)

    def test_all_k_matrix_matches_oracle_means(self, rng):
        train = rng.normal(0.0, 1.0, (25, 4))
        queries = rng.normal(0.0, 1.0, (6, 4))
        table = cls.knn_mean_distances_all_k(cls._candidate_block(train, queries, 10), 10)
        assert table.shape == (6, 10)
        for qi, q in enumerate(queries):
            oracle = knn_bruteforce_oracle(train, q, 10)
            for k in range(1, 11):
                assert table[qi, k - 1] == oracle[:k].sum() / k


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

    def test_rows_without_columns_are_refused(self):
        # a batch with rows but no elements still gets both checks
        model = cls.train_oc_knn(np.ones((5, 3)), 2)
        with pytest.raises(DimensionError, match="query dimension 0 does not match"):
            cls.score_batch(model, np.empty((2, 0)))
        with pytest.raises(DimensionError, match="expected a 2-d batch"):
            cls.score_batch(model, np.empty((2, 0, 3)))

    @pytest.mark.parametrize("k", [2.7, True, False, float("nan"), float("inf"), "2", None])
    def test_k_that_is_not_a_whole_number_is_refused(self, k):
        vectors = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
        labels = ["ADL", "FALL"] * 3
        for train in (lambda: cls.train_oc_knn(vectors, k),
                      lambda: cls.train_tc_knn(vectors, labels, k)):
            with pytest.raises(InvalidK, match="^" + re.escape(f"k={k!r} must be a whole number")):
                train()

    @pytest.mark.parametrize("k", [2.0, np.int64(2), np.float64(2.0)])
    def test_whole_k_of_another_type_trains_k_as_an_int(self, rng, k):
        vectors = rng.normal(0.0, 1.0, (10, 2))
        labels = ["ADL", "FALL"] * 5
        queries = rng.normal(0.0, 1.0, (4, 2))
        for train in (lambda k: cls.train_oc_knn(vectors, k),
                      lambda k: cls.train_tc_knn(vectors, labels, k)):
            model = train(k)
            assert type(model.parameters.k) is int and model.training_summary["k"] == 2
            assert np.array_equal(cls.score_batch(model, queries), cls.score_batch(train(2), queries))

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
        oc_table = knn_oracle_scores(adl, None, queries, 10)
        tc_table = knn_oracle_scores(adl, fall, queries, 10)
        # the inner search's table over the same rows, from candidates and
        # from the matrix
        prep = cls.KnnPrep(np.vstack([X, queries]))
        at = np.arange(40)
        query_at = 40 + np.arange(len(queries))
        for searched in (False, True):
            if searched:
                prep.build_matrix()
            assert np.array_equal(prep.scores_all_k(at[~is_fall], None, [query_at], 10), oc_table)
            assert np.array_equal(prep.scores_all_k(at[~is_fall], at[is_fall], [query_at], 10),
                                  tc_table)
        for k in range(1, 11):
            oc = cls.score_batch(cls.train_oc_knn(adl, k), queries)
            tc = cls.score_batch(cls.train_tc_knn(X, is_fall, k), queries)
            assert np.array_equal(oc, oc_table[:, k - 1])
            assert np.array_equal(tc, tc_table[:, k - 1])
        assert tc_table[-1, 0] == 0.5



class TestBatchedDistanceBlock:
    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    def test_block_equals_per_row_kernel_bit_for_bit(self, rng, monkeypatch, chunk_rows):
        train = rng.normal(0.0, 1.0, (13, 5))
        train[4] = train[2]  # duplicate training rows
        queries = np.vstack([rng.normal(0.0, 1.0, (10, 5)), train[7]])
        if chunk_rows is not None:
            # 11 queries in chunks of 1, or of 3 with a remainder of 2, and
            # their kept entries in chunks of 2 or 7 pairs
            monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * len(train) * chunk_rows)
        m = len(train)
        exact = distance_block(train, queries)
        for k_max in (1, 4, m):
            block = cls._candidate_block(train, queries, k_max)
            # every entry up to its row's k_max-th is exact; the rest are
            # exact or inf, and all are at the k_max = m
            needed = exact <= np.sort(exact, axis=1)[:, k_max - 1:k_max]
            assert np.array_equal(block[needed], exact[needed])
            assert np.all((block == exact) | (block == np.inf))
        for qi, q in enumerate(queries):
            assert np.array_equal(block[qi], distances_to_all(train, q))
        assert block[-1, 7] == 0.0
        table = cls.knn_mean_distances_all_k(block, m)
        for qi, q in enumerate(queries):
            oracle = knn_bruteforce_oracle(train, q, m)
            for k in range(1, m + 1):
                assert table[qi, k - 1] == oracle[:k].sum() / k

    @pytest.mark.parametrize("n", [1, 2, 13])
    @pytest.mark.parametrize("chunk_rows", [1, 3, None])
    def test_matrix_from_one_triangle_equals_full_block(self, rng, monkeypatch, n, chunk_rows):
        for d in (1, 3, 8, 37):
            X = rng.normal(0.0, 1.0, (n, d))
            if n > 2:
                X[5] = X[2]  # duplicate rows, on either side of a chunk edge
                X[-1] = X[0]
            if chunk_rows is not None:
                # one row per chunk, or 3 with a remainder when n is 13
                monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * X.size * chunk_rows)
            D = cls._self_distances(X)
            assert np.array_equal(D, distance_block(X, X))
            assert np.array_equal(D, D.T)
            assert not np.diagonal(D).any()

    def test_matrix_needs_no_more_than_itself_plus_one_chunk_or_row(self, rng, monkeypatch):
        n, d = 400, 64
        X = rng.normal(0.0, 1.0, (n, d))
        row = 8 * n * d  # one row's difference array, 205 kB
        # a chunk smaller than one row: each chunk is one row, over it
        monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", row // 4)
        tracemalloc.start()
        try:
            D = cls._self_distances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix, plus a few arrays of at most max(chunk, one row) each
        assert 8 * n * n + row < peak < 8 * n * n + 4 * max(cls._DIST_CHUNK_BYTES, row)
        assert np.array_equal(D, distance_block(X, X))

    def test_candidate_block_stays_within_its_chunks(self, rng, monkeypatch):
        # A large common offset: the Gram form cancels to noise, so every
        # entry is a candidate, and still no array outgrows a chunk.
        train = 1e6 + 1e-3 * rng.normal(0.0, 1.0, (400, 64))
        queries = 1e6 + 1e-3 * rng.normal(0.0, 1.0, (40, 64))
        monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * 400 * 4)
        sq_t = (train * train).sum(axis=1)
        assert cls._candidates(queries, train, sq_t, 1).all()
        tracemalloc.start()
        try:
            block = cls._candidate_block(train, queries, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block, plus a few arrays of at most one chunk each
        assert peak < block.nbytes + 12 * cls._DIST_CHUNK_BYTES
        assert np.array_equal(block, distance_block(train, queries))


def overlapping_classes(rng):
    """90 ADL + 30 FALL rows whose classes overlap, with repeated rows, so
    the inner AUC differs from k to k."""
    X = np.vstack([rng.normal(0.0, 1.0, (90, 6)), rng.normal(0.8, 1.2, (30, 6))])
    X[10] = X[11]
    X[95] = X[3]
    is_fall = np.arange(120) >= 90
    return X, is_fall


class TestInnerSearchSharesOneMatrix:
    @pytest.fixture
    def case(self, rng):
        from falldetect.evaluation import GridConfig

        X, is_fall = overlapping_classes(rng)
        # training rows of one outer fold, in shuffled order
        rows = rng.permutation(120)[:100]
        return X, is_fall, rows, GridConfig(k_grid=tuple(range(1, 11)), inner_folds=5)

    def test_prep_scores_equal_gathered_rows_bit_for_bit(self, rng, monkeypatch):
        X, is_fall = overlapping_classes(rng)
        adl, fall = np.flatnonzero(~is_fall)[:70], np.flatnonzero(is_fall)[:20]
        queries = np.r_[np.flatnonzero(~is_fall)[70:], np.flatnonzero(is_fall)[20:]]
        X[queries[-1]] = X[3]  # a query at distance 0 from a training row
        for fall_rows in (None, fall):
            expected = knn_oracle_scores(
                X[adl], None if fall_rows is None else X[fall_rows], X[queries], 10
            )
            in_budget = cls.KnnPrep(X)
            # from candidates until a search builds the matrix, then from it
            assert np.array_equal(in_budget.scores_all_k(adl, fall_rows, [queries], 10), expected)
            assert in_budget._D is None
            in_budget.build_matrix()
            assert np.array_equal(in_budget.scores_all_k(adl, fall_rows, [queries], 10), expected)
            assert in_budget._D is not None
            with monkeypatch.context() as mp:
                mp.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * 120 * 120 - 1)
                over = cls.KnnPrep(X)
                over.build_matrix()
                assert np.array_equal(over.scores_all_k(adl, fall_rows, [queries], 10), expected)
                assert over._D is None

    @pytest.mark.parametrize("variant", [cls.Variant.OC_KNN, cls.Variant.TC_KNN])
    def test_select_k_same_from_matrix_and_over_budget(self, case, monkeypatch, variant):
        from falldetect.evaluation import _best_candidate, _inner_splits, _select_k
        from falldetect.ingest import plan_folds

        X, is_fall, rows, cfg = case
        two_class = variant is cls.Variant.TC_KNN
        Xtr, ftr = X[rows], is_fall[rows]

        def recomputed(tr, val):
            # each split's tables from its own gathered rows, no shared matrix
            adl, fall = Xtr[tr][~ftr[tr]], Xtr[tr][ftr[tr]] if two_class else None
            return knn_oracle_scores(adl, fall, Xtr[val], 10)

        plan = plan_folds(ftr, num_folds=cfg.inner_folds, seed=5)
        splits = _inner_splits(ftr, plan, two_class)
        tables = [recomputed(tr, val) for tr, val in splits]
        expected = _best_candidate(list(range(1, 11)), ftr, splits, np.vstack(tables))
        assert 0.5 < expected[1] < 1.0
        prep = cls.KnnPrep(X)
        assert _select_k(variant, prep, rows, ftr, cfg, plan) == expected
        assert prep._D is not None
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * 120 * 120 - 1)
        prep = cls.KnnPrep(X)
        assert _select_k(variant, prep, rows, ftr, cfg, plan) == expected
        assert prep._D is None

    def test_matrix_is_built_once_per_knn_cell_and_never_for_svm(
        self, small_collection, monkeypatch
    ):
        from falldetect.evaluation import GridConfig, run_experiment

        builds = []
        self_distances = cls._self_distances

        def counted(X, *route):
            builds.append(len(X))
            return self_distances(X, *route)

        monkeypatch.setattr(cls, "_self_distances", counted)
        grids = dict(c_grid=(1.0,), nu_grid=(0.1,), gamma_grid=("auto",))
        # a cell of one k scores every fold from candidates instead
        for k_grid, knn in (((3,), []), ((1, 3), [80])):
            cfg = GridConfig(k_grid=k_grid, **grids)
            for variant, expected in (("OC_KNN", knn), ("TC_KNN", knn),
                                      ("OC_SVM", []), ("TC_SVM", [])):
                builds.clear()
                run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
                assert builds == expected, (k_grid, variant)


class TestStackedInnerSearch:
    """Every inner split of an outer fold is scored from one block per
    class pool: its rows are each split's validation rows, its columns the
    whole pool, with a row's own split masked."""

    @pytest.fixture
    def case(self, rng):
        from falldetect.evaluation import GridConfig

        # 7 falls over 10 inner folds: three validation splits have none,
        # and their rows stay in every other split's pools
        X = np.vstack([rng.normal(0.0, 1.0, (93, 5)), rng.normal(0.7, 1.3, (7, 5))])
        X[40] = X[41]
        is_fall = np.arange(100) >= 93
        rows = rng.permutation(100)
        return X, is_fall, rows, GridConfig(k_grid=(1, 2, 3, 5, 6))

    @pytest.mark.parametrize("variant", [cls.Variant.OC_KNN, cls.Variant.TC_KNN])
    @pytest.mark.parametrize("budget", ["in", "over"])
    def test_stacked_tables_and_selection_equal_the_per_split_ones(
        self, case, monkeypatch, variant, budget
    ):
        from falldetect import evaluation as ev
        from falldetect.ingest import plan_folds

        X, is_fall, rows, cfg = case
        ftr = is_fall[rows]
        plan = plan_folds(ftr, num_folds=cfg.inner_folds, seed=9)
        splits = ev._inner_splits(ftr, plan, variant is cls.Variant.TC_KNN)
        assert len(splits) == 7
        if budget == "over":
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 0)
        prep = cls.KnnPrep(X)
        prep.build_matrix()
        assert (prep._D is None) == (budget == "over")
        # each split alone, a group against its own training rows
        per_split = [ev._knn_scores_all_k(variant, prep, rows[tr], ftr[tr], [rows[val]], 6)
                     for tr, val in splits]
        table = ev._knn_scores_all_k(variant, prep, rows, ftr, [rows[val] for _, val in splits], 6)
        assert np.array_equal(table.view(np.int64), np.vstack(per_split).view(np.int64))

        # the selection from each split's own curves, summed in fold order
        ks = list(cfg.k_grid)
        totals = np.zeros(len(ks))
        for (_, val), split_table in zip(splits, per_split):
            totals += [ev.auc(ev.roc_curve(split_table[:, k - 1], ftr[val])) for k in ks]
        best = int(np.argmax(totals))
        expected = ks[best], float(totals[best] / len(splits))

        table_of = cls.knn_mean_distances_all_k
        calls = []

        def counted(block, k_max):
            calls.append(len(block))
            return table_of(block, k_max)

        monkeypatch.setattr(cls, "knn_mean_distances_all_k", counted)
        k, mean = ev._select_k(variant, prep, rows, ftr, cfg, plan)
        assert (k, mean) == expected and type(mean) is float
        pools = 2 if variant is cls.Variant.TC_KNN else 1
        # one block per class pool of the outer fold, or each split's own
        assert len(calls) == (pools if budget == "in" else pools * len(splits))

    def test_a_group_whose_pool_is_too_small_is_refused(self, rng):
        X, is_fall = overlapping_classes(rng)
        prep = cls.KnnPrep(X)
        prep.build_matrix()
        pool = np.arange(10)
        groups = [np.arange(4), np.arange(4, 7)]
        assert prep.scores_all_k(pool, None, groups, 6).shape == (7, 6)
        with pytest.raises(InvalidK, match="k_max=7 needs 1 <= k_max <= 6 training rows"):
            prep.scores_all_k(pool, None, groups, 7)


class TestOuterFoldsReadTheMatrix:
    @pytest.mark.parametrize("variant", [cls.Variant.OC_KNN, cls.Variant.TC_KNN])
    @pytest.mark.parametrize("budget", ["in", "over"])
    def test_knn_table_equals_score_batch_bit_for_bit(self, rng, monkeypatch, variant, budget):
        from falldetect.evaluation import _knn_scores_all_k

        X, is_fall = overlapping_classes(rng)
        order = rng.permutation(120)
        rows, test = order[:100], order[100:]
        X[test[-1]] = X[rows[0]]  # the last test row is at distance 0 from a training row
        ftr = is_fall[rows]
        if budget == "over":
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * 120 * 120 - 1)
        prep = cls.KnnPrep(X)
        prep.build_matrix()
        assert (prep._D is None) == (budget == "over")
        wide = _knn_scores_all_k(variant, prep, rows, ftr, [test], 10)
        for k in range(1, 11):
            if variant is cls.Variant.OC_KNN:
                model = cls.train_oc_knn(X[rows][~ftr], k)
            else:
                model = cls.train_tc_knn(X[rows], ftr, k)
            expected = cls.score_batch(model, X[test])
            got = _knn_scores_all_k(variant, prep, rows, ftr, [test], k)[:, k - 1]
            assert np.array_equal(got, expected)
            assert np.array_equal(wide[:, k - 1], expected)

    def test_k_beyond_a_class_pool_is_refused(self, rng):
        X, is_fall = overlapping_classes(rng)
        prep = cls.KnnPrep(X)
        adl, fall = np.flatnonzero(~is_fall)[:6], np.flatnonzero(is_fall)[:4]
        queries = np.flatnonzero(~is_fall)[6:12]
        with pytest.raises(InvalidK, match="k_max=5"):
            prep.scores_all_k(adl, fall, [queries], 5)
        with pytest.raises(InvalidK, match="k_max=0"):
            prep.scores_all_k(adl, None, [queries], 0)
        assert prep.scores_all_k(adl, None, [queries], 6).shape == (6, 6)

    def test_every_table_of_a_searched_cell_is_the_public_one(self, small_collection, monkeypatch):
        # A wrapper on the module name, as a tracer installs one, sees every
        # mean-distance table the cell computes, and changes nothing.
        from falldetect import evaluation as ev

        cfg = ev.GridConfig(k_grid=(1, 3))
        table = cls.knn_mean_distances_all_k
        calls = []

        def counted(block, k_max):
            calls.append(k_max)
            return table(block, k_max)

        folds = small_collection.fold_plan.num_folds
        for variant, pools in (("OC_KNN", 1), ("TC_KNN", 2)):
            expected = report_bits(
                ev.run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
            )
            calls.clear()
            with monkeypatch.context() as mp:
                mp.setattr(cls, "knn_mean_distances_all_k", counted)
                report = ev.run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
            # per class pool and fold: one block for every inner split, and
            # one for the test fold
            assert len(calls) == 2 * pools * folds, variant
            assert report_bits(report) == expected

    @pytest.mark.parametrize("variant", ["OC_KNN", "TC_KNN"])
    @pytest.mark.parametrize("k_grid", [(1, 3), (3,)], ids=["searched", "single-k"])
    def test_searched_cell_scores_outer_folds_from_the_matrix(
        self, small_collection, monkeypatch, variant, k_grid
    ):
        from falldetect import evaluation as ev

        cfg = ev.GridConfig(k_grid=k_grid)
        with monkeypatch.context() as mp:
            # over budget: no matrix, so every block is computed from the rows
            mp.setattr(cls, "_CACHE_BUDGET_BYTES", 0)
            expected = report_bits(
                ev.run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
            )

        def refused(*args, **kwargs):
            raise AssertionError("outer fold recomputed its distances")

        # a searched cell reads its matrix; a cell of one k builds none and
        # takes every block from candidates
        blocks = "_candidate_block" if len(k_grid) > 1 else "_self_distances"
        for mod, name in ((ev, "score_batch"), (cls, "score_batch"),
                          (cls, blocks), (cls, "train_oc_knn"),
                          (cls, "train_tc_knn")):
            monkeypatch.setattr(mod, name, refused)
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
        assert report_bits(report) == expected


class TestSingleKCells:
    @pytest.mark.parametrize("variant", ["OC_KNN", "TC_KNN"])
    @pytest.mark.parametrize("budget", ["in", "over"])
    def test_report_same_from_candidates_and_a_forced_matrix(
        self, small_collection, monkeypatch, variant, budget
    ):
        from falldetect import evaluation as ev

        cfg = ev.GridConfig(k_grid=(5,))
        if budget == "over":
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * 80 * 80 - 1)
        preps = []

        class ForcedPrep(cls.KnnPrep):
            def __init__(self, vectors):
                super().__init__(vectors)
                self.build_matrix()
                preps.append(self)

        def report():
            return report_bits(
                ev.run_experiment(small_collection, "MAGNITUDE", 51, variant, cfg)
            )

        default = report()
        monkeypatch.setattr(cls, "KnnPrep", ForcedPrep)
        forced = report()
        assert [p._D is None for p in preps] == [budget == "over"]
        assert forced == default


duplicated_rows = st.integers(1, 12).flatmap(
    lambda d: st.tuples(
        # a small pool of rows on a coarse grid: ties and repeated rows are common
        arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)),
               elements=st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0])),
        st.lists(st.integers(0, 5), min_size=1, max_size=20),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
)


@settings(max_examples=150, deadline=None)
@given(case=duplicated_rows, k_frac=st.floats(0.0, 1.0), chunk_rows=st.integers(1, 4))
def test_table_equals_oracle_prefix_mean_exactly(case, k_frac, chunk_rows):
    pool, train_pick, query_pick = case
    train = pool[[i % len(pool) for i in train_pick]]
    queries = pool[[i % len(pool) for i in query_pick]]
    queries[1::2] += 0.125  # every other query off the grid of pool rows
    k_max = 1 + int(k_frac * (len(train) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_DIST_CHUNK_BYTES", 8 * train.size * chunk_rows)
        table = cls.knn_mean_distances_all_k(cls._candidate_block(train, queries, k_max), k_max)
    for qi, q in enumerate(queries):
        oracle = knn_bruteforce_oracle(train, q, k_max)
        for k in range(1, k_max + 1):
            assert table[qi, k - 1] == oracle[:k].sum() / k


@st.composite
def filter_cases(draw):
    """Train and query rows that are hard on the Gram form: rows of a coarse
    grid (duplicates and exact ties), nudged by an ulp or two (near-ties),
    then maybe scaled row by row, moved under a large common offset
    (cancellation), or given one row near 1e200 (an overflowing norm)."""
    d = draw(st.integers(1, 8))
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    pool = draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(d)), elements=grid))
    picks = draw(st.lists(st.integers(0, 5), min_size=2, max_size=24))
    rows = pool[[i % len(pool) for i in picks]]
    ulps = draw(arrays(np.float64, rows.shape, elements=st.sampled_from([0.0, 1.0, -1.0, 2.0])))
    rows = rows + ulps * np.spacing(rows)
    regime = draw(st.sampled_from(["plain", "scaled", "offset", "huge"]))
    if regime == "scaled":
        scales = draw(arrays(np.float64, len(rows), elements=st.sampled_from([1e-3, 1.0, 1e3])))
        rows = rows * scales[:, None]
    elif regime == "offset":
        rows = 1e6 + 1e-3 * rows
    elif regime == "huge":
        rows[draw(st.integers(0, len(rows) - 1))] = 1e200 * (1.0 + rows[0])
    n_train = draw(st.integers(1, len(rows) - 1))
    is_fall = np.array(draw(st.lists(st.booleans(), min_size=n_train, max_size=n_train)))
    return rows[:n_train], is_fall, rows[n_train:]


@settings(max_examples=300, deadline=None)
@given(case=filter_cases(), k_frac=st.floats(0.0, 1.0))
def test_candidates_hold_every_tie_and_scores_stay_exact(case, k_frac):
    train, is_fall, queries = case
    k_max = 1 + int(k_frac * (len(train) - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        exact = distance_block(train, queries)
        kth = np.sort(exact, axis=1)[:, k_max - 1:k_max]
        kept = cls._candidates(queries, train, np.einsum("ij,ij->i", train, train), k_max)
        # every entry up to its row's exact k_max-th value, ties included
        assert kept[exact <= kth].all()
        oc = knn_oracle_scores(train, None, queries, k_max)
        prep = cls.KnnPrep(np.vstack([train, queries]))
        at, query_at = np.arange(len(train)), len(train) + np.arange(len(queries))
        assert np.array_equal(prep.scores_all_k(at, None, [query_at], k_max), oc, equal_nan=True)
        model = cls.train_oc_knn(train, k_max)
        assert np.array_equal(cls.score_batch(model, queries), oc[:, k_max - 1], equal_nan=True)
        if 0 < is_fall.sum() < len(train):
            adl, fall = train[~is_fall], train[is_fall]
            k = min(k_max, len(adl), len(fall))
            tc = knn_oracle_scores(adl, fall, queries, k)
            assert np.array_equal(prep.scores_all_k(at[~is_fall], at[is_fall], [query_at], k), tc,
                                  equal_nan=True)


def bound_top(d):
    """The largest integer M with 4 d M^2 < 2^53: the exact route's bound."""
    return math.isqrt((2 ** 53 - 1) // (4 * d))


@st.composite
def integral_rows(draw):
    """Integer rows of d = 1..1024 columns: small counts as LTP has, or the
    whole range the bound allows, with -0.0 entries, entries at +-M, and
    repeated rows."""
    d = draw(st.one_of(st.integers(1, 8), st.integers(9, 1024)))
    top = bound_top(d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([4, top]))
    pool = rng.integers(-scale, scale + 1, (draw(st.integers(1, 6)), d)).astype(np.float64)
    edge = rng.random(pool.shape) < 0.2
    pool[edge] = rng.choice([-float(top), float(top), -0.0], int(edge.sum()))
    pool[0, 0] = draw(st.sampled_from([float(top), -float(top), -0.0]))
    picks = draw(st.lists(st.integers(0, 5), min_size=2, max_size=14))
    return pool[[i % len(pool) for i in picks]]


class TestExactRoute:
    """Integer rows within the bound take every distance from one matrix
    product, bit for bit the difference form's; any other rows take the
    difference form and the Gram-form candidates as before."""

    @settings(max_examples=120, deadline=None)
    @given(X=integral_rows(), split=st.floats(0.0, 1.0), k_frac=st.floats(0.0, 1.0))
    def test_exact_matrix_and_blocks_equal_the_difference_form(self, X, split, k_frac):
        assert cls._exact_route(X)
        expected = distance_block(X, X).view(np.int64)
        assert np.array_equal(cls._self_distances(X).view(np.int64), expected)
        assert np.array_equal(cls._self_distances(X, True).view(np.int64), expected)
        m = 1 + int(split * (len(X) - 2))
        train, queries = X[:m], X[m:]
        k_max = 1 + int(k_frac * (m - 1))
        block = cls._candidate_block(train, queries, k_max)
        # every entry, not only the candidates: the exact route keeps them all
        assert np.array_equal(block.view(np.int64), distance_block(train, queries).view(np.int64))
        prep = cls.KnnPrep(X)
        assert prep._exact
        at, query_at = np.arange(m), m + np.arange(len(queries))
        expected_table = knn_oracle_scores(train, None, queries, k_max)
        assert np.array_equal(prep.scores_all_k(at, None, [query_at], k_max), expected_table)
        assert np.array_equal(cls.score_batch(cls.train_oc_knn(train, k_max), queries),
                              expected_table[:, k_max - 1])

    @staticmethod
    def count_routes(monkeypatch):
        calls = {"_gram_distances": 0, "_candidates": 0}
        for name in calls:
            real = getattr(cls, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("chunk", ["default", "one row"])
    @pytest.mark.parametrize("rows", ["integral", "one half", "past the bound"])
    def test_rows_outside_the_bound_take_the_difference_route(self, rng, monkeypatch, rows, chunk):
        d = 40
        if chunk == "one row":
            # the check reads one row at a time, up to the first not integral
            monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * d)
        X = rng.integers(0, 5, (60, d)).astype(np.float64)
        X[7] = X[3]
        X[9, 0] = bound_top(d)
        if rows == "one half":
            X[50, 17] += 0.5
        elif rows == "past the bound":
            X[50, 17] = bound_top(d) + 1
        exact = rows == "integral"
        adl, fall, queries = np.arange(40), np.arange(40, 50), np.arange(50, 60)
        X[59] = X[45]  # a query at distance 0 from a training row
        expected = knn_oracle_scores(X[adl], X[fall], X[queries], 6)
        calls = self.count_routes(monkeypatch)
        prep = cls.KnnPrep(X)
        assert prep._exact == exact
        # two candidate blocks, then the matrix and two blocks read from it
        assert np.array_equal(prep.scores_all_k(adl, fall, [queries], 6), expected)
        prep.build_matrix()
        assert np.array_equal(prep.scores_all_k(adl, fall, [queries], 6), expected)
        # _candidates runs once per chunk of query rows
        assert calls["_gram_distances"] == (3 if exact else 0)
        assert (calls["_candidates"] > 0) != exact
        # score_batch decides once over its pools and queries together
        model = cls.train_tc_knn(X[:50], np.arange(50) >= 40, 6)
        calls.update(_gram_distances=0, _candidates=0)
        assert np.array_equal(cls.score_batch(model, X[queries]), expected[:, 5])
        assert calls["_gram_distances"] == (2 if exact else 0)
        assert (calls["_candidates"] > 0) != exact

    @pytest.mark.parametrize("variant", ["OC_KNN", "TC_KNN"])
    @pytest.mark.parametrize("k_grid", [(1, 3, 10), (5,)], ids=["searched", "single-k"])
    def test_an_ltp_cell_writes_the_same_bytes_with_the_route_off(
        self, small_collection, tmp_path, monkeypatch, variant, k_grid
    ):
        from falldetect import evaluation as ev

        cfg = ev.GridConfig(k_grid=k_grid)

        def written(name):
            report = ev.run_experiment(small_collection, "LTP", 51, variant, cfg)
            ev.save_report_json(report, tmp_path / f"report_{name}.json")
            ev.write_roc_csv(report.averaged_curve, tmp_path / f"roc_{name}.csv")
            return [(tmp_path / f"{kind}_{name}.{ext}").read_bytes()
                    for kind, ext in (("report", "json"), ("roc", "csv"))]

        calls = self.count_routes(monkeypatch)
        exact = written("exact")
        # LTP counts are small integers: every distance took the exact route
        assert calls["_gram_distances"] > 0 and calls["_candidates"] == 0
        monkeypatch.setattr(cls, "_exact_route", lambda *matrices: False)
        calls.update(_gram_distances=0, _candidates=0)
        assert written("difference") == exact
        assert calls["_gram_distances"] == 0
        assert (calls["_candidates"] > 0) == (len(k_grid) == 1)

    def test_exact_matrix_needs_no_more_than_itself_and_one_chunk(self, rng, monkeypatch):
        n, d = 400, 64
        X = rng.integers(0, 5, (n, d)).astype(np.float64)
        # 32 rows a chunk: 13 products, and 200 rows a chunk of the check
        monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * n * 32)
        calls = self.count_routes(monkeypatch)
        tracemalloc.start()
        try:
            D = cls._self_distances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls["_gram_distances"] == 1
        assert 8 * n * n <= peak <= 8 * n * n + cls._DIST_CHUNK_BYTES
        assert np.array_equal(D.view(np.int64), distance_block(X, X).view(np.int64))
