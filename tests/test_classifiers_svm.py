"""SVM training and scoring, checked against optimality conditions.

The solver is validated three independent ways: closed-form solutions of
tiny symmetric problems, the Karush-Kuhn-Tucker conditions on random
problems, and invariances (duplicated data, determinism) that any exact
minimizer must respect.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from falldetect import classifiers as cls
from falldetect import evaluation as ev
from falldetect import ingest
from falldetect.errors import (
    ConvergenceWarning,
    DegenerateLabels,
    DimensionError,
    InsufficientData,
    InvalidNu,
)
from tests.conftest import pairwise_dual_oracle


class TestTwoClassToyProblems:
    def test_symmetric_pair_has_closed_form(self):
        # Standardized points sit at -1 and +1; symmetry forces equal
        # multipliers, zero bias, and y*f = 1 on both (free) points, so
        # alpha = 1 / (1 - K(-1, +1)).
        model = cls.train_tc_svm(
            [[0.0], [2.0]], ["ADL", "FALL"], C=10.0, gamma=0.5, tol=1e-8
        )
        k12 = np.exp(-0.5 * 4.0)
        expected_alpha = 1.0 / (1.0 - k12)
        assert model.parameters.alpha == pytest.approx(
            [expected_alpha, expected_alpha], abs=1e-6
        )
        assert model.score([1.0]) == pytest.approx(0.0, abs=1e-8)
        assert model.score([2.5]) > 0.0 > model.score([-0.5])

    def test_fall_side_is_positive(self, rng):
        adl = rng.normal(0.0, 0.5, (20, 2))
        fall = rng.normal(8.0, 0.5, (20, 2))
        X = np.vstack([adl, fall])
        labels = ["ADL"] * 20 + ["FALL"] * 20
        model = cls.train_tc_svm(X, labels, C=10.0)
        scores = cls.score_batch(model, X)
        assert np.all(scores[:20] < 0.0)
        assert np.all(scores[20:] > 0.0)
        probes = np.vstack([rng.normal(0.0, 0.5, (5, 2)), rng.normal(8.0, 0.5, (5, 2))])
        pscores = cls.score_batch(model, probes)
        assert np.all(pscores[:5] < 0.0) and np.all(pscores[5:] > 0.0)

    def test_duplicated_training_set_changes_nothing(self, rng):
        adl = rng.normal(0.0, 0.6, (12, 3))
        fall = rng.normal(5.0, 0.6, (9, 3))
        X = np.vstack([adl, fall])
        labels = ["ADL"] * 12 + ["FALL"] * 9
        probes = rng.normal(2.5, 2.0, (15, 3))
        a = cls.train_tc_svm(X, labels, C=100.0, gamma=0.3, tol=1e-8, max_iter=100000)
        b = cls.train_tc_svm(
            np.vstack([X, X]), labels * 2, C=100.0, gamma=0.3, tol=1e-8, max_iter=100000
        )
        sa = cls.score_batch(a, probes)
        sb = cls.score_batch(b, probes)
        assert np.max(np.abs(sa - sb)) <= 1e-6


class TestKktConditions:
    def test_random_problems_satisfy_kkt_within_tolerance(self, rng):
        for trial in range(10):
            n_adl = int(rng.integers(10, 25))
            n_fall = int(rng.integers(8, 20))
            X = np.vstack(
                [rng.normal(0.0, 1.0, (n_adl, 3)), rng.normal(1.0, 1.2, (n_fall, 3))]
            )
            labels = ["ADL"] * n_adl + ["FALL"] * n_fall
            C = float(rng.choice([0.5, 2.0, 20.0]))
            model = cls.train_tc_svm(X, labels, C=C, gamma=0.5)
            assert model.training_summary["converged"]
            viol = kkt_violations_full(model, X, labels)
            assert viol.max() <= 1.001e-3
            p = model.parameters
            assert abs(float(p.alpha @ p.support_labels)) <= 1e-6

    def test_multipliers_respect_box(self, rng):
        X = rng.normal(0.0, 1.0, (30, 2))
        labels = ["ADL"] * 18 + ["FALL"] * 12
        model = cls.train_tc_svm(X, labels, C=1.5, gamma=0.8)
        a = model.parameters.alpha
        assert np.all(a > 0.0) and np.all(a <= 1.5 + 1e-12)


def kkt_violations_full(model, X, labels):
    """KKT slack over the complete training set, dropped points included."""
    p = model.parameters
    f = cls.score_batch(model, np.asarray(X, dtype=np.float64))
    y = np.where(np.asarray(labels) == "FALL", 1.0, -1.0)
    margins = y * f
    # reconstruct every point's multiplier: zero unless kept as a SV
    Xs = cls.standardize_apply(np.asarray(X, dtype=np.float64), p.mean, p.scale)
    alpha = np.zeros(len(y))
    used = np.zeros(len(p.alpha), dtype=bool)
    for i, row in enumerate(Xs):
        d = ((p.support_vectors - row) ** 2).sum(axis=1)
        j = int(np.argmin(d))
        if d[j] <= 1e-18 and not used[j]:
            alpha[i] = p.alpha[j]
            used[j] = True
    at_zero = alpha <= 1e-9
    at_c = alpha >= p.C - 1e-9
    free = ~(at_zero | at_c)
    viol = np.zeros(len(y))
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[free] = np.abs(margins[free] - 1.0)
    return viol


class TestOneClassSvm:
    def test_two_identical_points_share_weight(self):
        for nu in (0.3, 1.0):
            model = cls.train_oc_svm([[1.0, 2.0], [1.0, 2.0]], nu=nu)
            assert model.parameters.alpha.tolist() == [0.5, 0.5]

    def test_outlier_fraction_bounded_by_nu(self, rng):
        for nu in (0.1, 0.2):
            X = rng.normal(0.0, 1.0, (200, 2))
            model = cls.train_oc_svm(X, nu=nu)
            scores = cls.score_batch(model, X)
            assert float((scores > 0).mean()) <= nu + 0.05

    def test_far_point_scores_above_cluster_centre(self, rng):
        X = rng.normal(0.0, 0.5, (60, 3))
        model = cls.train_oc_svm(X, nu=0.1)
        centre = model.score([0.0, 0.0, 0.0])
        far = model.score([20.0, 20.0, 20.0])
        assert far > 0.0
        assert far > centre

    def test_multiplier_sum_is_one(self, rng):
        X = rng.normal(0.0, 1.0, (80, 2))
        model = cls.train_oc_svm(X, nu=0.15)
        # dropped multipliers are below 1e-12 each, so the kept ones
        # still sum to 1 within aggregation noise
        assert float(model.parameters.alpha.sum()) == pytest.approx(1.0, abs=1e-9)
        upper = 1.0 / (0.15 * 80)
        assert np.all(model.parameters.alpha <= upper + 1e-12)

    def test_nu_validation(self):
        X = [[0.0], [1.0]]
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidNu):
                cls.train_oc_svm(X, nu=bad)
        cls.train_oc_svm(X, nu=1.0)

    def test_needs_two_vectors(self):
        with pytest.raises(InsufficientData):
            cls.train_oc_svm([[0.0]], nu=0.5)


class TestTrainingInterface:
    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            cls.train_tc_svm([[0.0], [1.0]], ["ADL", "ADL"], C=1.0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            cls.train_tc_svm([[0.0], [1.0]], ["ADL", "FALL"], C=0.0)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            cls.train_tc_svm([[0.0], [1.0]], ["ADL", "FALL"], C=1.0, gamma=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "variant, name", [("TC_SVM", "C"), ("TC_SVM", "gamma"), ("OC_SVM", "gamma")]
    )
    def test_non_finite_c_and_gamma_rejected(self, rng, variant, name, value):
        # nan C used to "converge" after 0 iterations and score every row 0;
        # nan or inf gamma ran to the iteration cap
        X = rng.normal(0.0, 1.0, (40, 2))
        labels = ["ADL"] * 25 + ["FALL"] * 15
        message = f"^{name} must be finite and > 0, got {re.escape(str(value))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(ValueError, match=message):
                if variant == "TC_SVM":
                    cls.train_tc_svm(X, labels, **{"C": 1.0, "gamma": "auto", name: value})
                else:
                    cls.train_oc_svm(X, nu=0.2, gamma=value)

    def test_auto_gamma_on_standardized_data(self, rng):
        X = rng.normal(3.0, 2.5, (40, 5))
        labels = ["ADL"] * 25 + ["FALL"] * 15
        model = cls.train_tc_svm(X, labels, C=1.0, gamma="auto")
        # standardization brings every feature variance to 1, so the
        # resolved value is 1 / dim
        assert model.training_summary["gamma"] == pytest.approx(0.2, rel=1e-12)

    def test_explicit_gamma_is_used_verbatim(self, rng):
        X = rng.normal(0.0, 1.0, (10, 2))
        labels = ["ADL"] * 6 + ["FALL"] * 4
        model = cls.train_tc_svm(X, labels, C=1.0, gamma=0.1)
        assert model.training_summary["gamma"] == 0.1

    def test_constant_feature_survives_standardization(self, rng):
        X = rng.normal(0.0, 1.0, (20, 3))
        X[:, 1] = 4.0
        labels = ["ADL"] * 12 + ["FALL"] * 8
        model = cls.train_tc_svm(X, labels, C=1.0)
        assert np.all(np.isfinite(cls.score_batch(model, X)))

    @pytest.mark.parametrize(
        "rows, value",
        [([5], 1e200), ([5, 6], 1.2e154), (slice(None), 1e308)],
        ids=["square overflows", "sum of squares overflows", "mean overflows"],
    )
    def test_feature_that_cannot_be_standardized_is_named(self, rng, rows, value):
        # a finite feature whose mean or spread overflows would otherwise
        # standardize to all zeros and train silently without it
        X = rng.normal(0.0, 1.0, (20, 3))
        X[rows, 1] = value
        labels = ["ADL"] * 12 + ["FALL"] * 8
        message = "feature 1 cannot be standardized: its mean or spread overflows"
        with pytest.raises(DimensionError, match=message):
            cls.SvmPrep(X)
        with pytest.raises(DimensionError, match=message):
            cls.train_tc_svm(X, labels, C=1.0)
        with pytest.raises(DimensionError, match=message):
            cls.train_oc_svm(X[:12], nu=0.1)

    def test_training_rows_without_columns_are_refused(self):
        message = r"^expected a non-empty 2-d matrix, got shape \(4, 0\)$"
        with pytest.raises(DimensionError, match=message):
            cls.train_oc_svm(np.empty((4, 0)), nu=0.5)
        with pytest.raises(DimensionError, match=message):
            cls.train_tc_svm(np.empty((4, 0)), ["ADL", "FALL"] * 2, C=1.0)

    def test_iteration_cap_warns_and_reports(self, rng):
        X = rng.normal(0.0, 1.0, (24, 2))
        labels = ["ADL"] * 12 + ["FALL"] * 12
        with pytest.warns(ConvergenceWarning):
            model = cls.train_tc_svm(X, labels, C=10.0, max_iter=1)
        assert model.training_summary["converged"] is False
        assert model.training_summary["iterations"] == 1
        assert model.training_summary["gap"] > cls.SVM_TOL

    def test_one_class_iteration_cap_warns_and_reports(self, rng):
        X = rng.normal(0.0, 1.0, (24, 2))
        with pytest.warns(ConvergenceWarning):
            model = cls.train_oc_svm(X, nu=0.1, max_iter=1)
        assert model.training_summary["converged"] is False
        assert model.training_summary["iterations"] == 1
        assert model.training_summary["gap"] > cls.SVM_TOL

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_default_cap_is_ten_iterations_per_row(self, rng, variant):
        # a negative tolerance is never met, so the solver runs to the cap
        X = rng.normal(0.0, 1.0, (24, 2))
        with pytest.warns(ConvergenceWarning, match="stopped at 240 iterations"):
            if variant == "TC_SVM":
                model = cls.train_tc_svm(X, ["ADL"] * 12 + ["FALL"] * 12, C=1.0, tol=-1.0)
            else:
                model = cls.train_oc_svm(X, nu=0.2, tol=-1.0)
        assert model.training_summary["iterations"] == 240
        assert model.training_summary["converged"] is False

    def test_training_is_deterministic(self, rng):
        X = rng.normal(0.0, 1.0, (30, 3))
        labels = ["ADL"] * 17 + ["FALL"] * 13
        a = cls.train_tc_svm(X, labels, C=5.0)
        b = cls.train_tc_svm(X, labels, C=5.0)
        assert np.array_equal(a.parameters.alpha, b.parameters.alpha)
        assert a.parameters.bias == b.parameters.bias

    def test_empty_batch_and_dimension_mismatch(self, rng):
        X = rng.normal(0.0, 1.0, (10, 2))
        labels = ["ADL"] * 5 + ["FALL"] * 5
        model = cls.train_tc_svm(X, labels, C=1.0)
        assert cls.score_batch(model, []).shape == (0,)
        with pytest.raises(DimensionError):
            cls.score_batch(model, [[1.0, 2.0, 3.0]])


def direct_solve(prep, gamma, y, box, start, p):
    """The solver called straight on one variant's dual, at the default cap."""
    m = len(prep)
    return cls._solve_pairwise_dual(
        prep.kernel(gamma), y, np.full(m, box), np.full(m, start), np.full(m, p), cls.SVM_TOL, 10 * m
    )


class TestTrainedModelRecord:
    """What each trainer hands back, rebuilt from the solver called directly
    on the variant's dual: TC solves y = +-1, box C, alpha0 = 0, p = -1; OC
    solves y = 1, box 1/(nu m), alpha0 = 1/m, p = 0, with rho at the edge
    of the stopping interval."""

    @staticmethod
    def problem(rng):
        X, labels = overlapping_problem(rng)
        X[:, 2] = 4.0  # a constant feature, standardized with scale 1
        return X, labels

    @staticmethod
    def check_standardization(p, X):
        assert np.array_equal(p.mean, X.mean(axis=0))
        assert np.array_equal(p.scale[:2], X[:, :2].std(axis=0))
        assert p.scale[2] == 1.0

    def test_two_class_record(self, rng):
        X, labels = self.problem(rng)
        model = cls.train_tc_svm(X, labels, C=2.0, gamma=0.5)
        prep = cls.SvmPrep(X)
        y = np.where(labels == "FALL", 1.0, -1.0)
        alpha, bias, iters, converged, gap, _, _ = direct_solve(prep, 0.5, y, 2.0, 0.0, -1.0)
        keep = alpha > cls._SV_EPS
        assert converged and 0 < keep.sum() < len(X)
        expected = {
            "variant": "TC_SVM", "counts": {"ADL": 24, "FALL": 16}, "C": 2.0, "gamma": 0.5,
            "standardized": True, "support_vectors": int(keep.sum()), "iterations": iters,
            "converged": True, "gap": gap,
        }
        assert model.training_summary == expected
        assert list(model.training_summary) == list(expected)
        p = model.parameters
        assert np.array_equal(p.alpha, alpha[keep])
        assert np.array_equal(p.support_vectors, prep.Xs[keep])
        assert np.array_equal(p.support_labels, y[keep])
        assert set(p.support_labels.tolist()) == {-1.0, 1.0}
        assert p.bias == bias
        assert p.C == 2.0 and p.nu is None
        self.check_standardization(p, X)

    def test_one_class_record(self, rng):
        X, labels = self.problem(rng)
        X = X[labels == "ADL"]
        m = len(X)
        model = cls.train_oc_svm(X, nu=0.2, gamma=0.5)
        prep = cls.SvmPrep(X)
        alpha, _, iters, converged, gap, lo, _ = direct_solve(
            prep, 0.5, np.ones(m), 1.0 / (0.2 * m), 1.0 / m, 0.0
        )
        keep = alpha > cls._SV_EPS
        assert converged and 0 < keep.sum() < m
        assert np.isfinite(lo)
        expected = {
            "variant": "OC_SVM", "counts": {"ADL": m, "FALL": 0}, "nu": 0.2, "gamma": 0.5,
            "standardized": True, "support_vectors": int(keep.sum()), "iterations": iters,
            "converged": True, "gap": gap,
        }
        assert model.training_summary == expected
        assert list(model.training_summary) == list(expected)
        p = model.parameters
        assert np.array_equal(p.alpha, alpha[keep])
        assert np.array_equal(p.support_vectors, prep.Xs[keep])
        assert p.support_labels is None
        assert p.bias == -lo
        assert p.nu == 0.2 and p.C is None
        self.check_standardization(p, X)


def overlapping_problem(rng, n_adl=24, n_fall=16, dim=3):
    X = np.vstack([rng.normal(0.0, 1.0, (n_adl, dim)), rng.normal(0.8, 1.2, (n_fall, dim))])
    labels = np.array(["ADL"] * n_adl + ["FALL"] * n_fall)
    return X, labels


def assert_same_solution(a, b):
    pa, pb = a.parameters, b.parameters
    assert a.training_summary["iterations"] == b.training_summary["iterations"]
    assert len(pa.alpha) == len(pb.alpha)
    assert np.max(np.abs(pa.alpha - pb.alpha)) <= 1e-12
    assert abs(pa.bias - pb.bias) <= 1e-12


class TestSharedPreparation:
    def test_on_demand_rows_match_full_kernel(self, rng, monkeypatch):
        X, labels = overlapping_problem(rng)
        full_tc = cls.train_tc_svm(X, labels, C=2.0, gamma=0.5)
        full_oc = cls.train_oc_svm(X, nu=0.2, gamma=0.5)
        # room for four cached rows: the solver keeps evicting and rebuilding
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 4 * 8 * len(X))
        prep = cls.SvmPrep(X)
        assert prep.d2 is None
        assert isinstance(prep.kernel(0.5), cls._KernelRows)
        lazy_tc = cls.train_tc_svm(X, labels, C=2.0, gamma=0.5)
        lazy_oc = cls.train_oc_svm(X, nu=0.2, gamma=0.5)
        assert_same_solution(lazy_tc, full_tc)
        assert_same_solution(lazy_oc, full_oc)
        for model in (lazy_tc, full_tc):
            assert model.training_summary["converged"]
            assert kkt_violations_full(model, X, labels).max() <= 1.001e-3


class TestPreparationHoldsItsRows:
    """An SvmPrep is a record of its standardized rows: a kernel, or a
    solve on one, leaves nothing behind in it."""

    FIELDS = ("Xs", "sq", "d2", "mean", "scale")

    def test_kernels_and_solves_keep_nothing(self, rng):
        X, labels = overlapping_problem(rng)
        prep = cls.SvmPrep(X)
        assert prep.d2 is not None
        rows = sum(getattr(prep, name).nbytes for name in self.FIELDS)
        auto = prep.resolve_gamma("auto")
        prep.kernel(0.5)
        y = np.where(labels == "FALL", 1.0, -1.0)
        m = len(prep)
        problems = [(k, y, np.full(m, C), np.zeros(m), np.full(m, -1.0), 10 * m)
                    for k in (0, 1) for C in (0.5, 5.0)]
        cls._lockstep(stacked([(prep, auto), (prep, 0.5)]), problems, cls.SVM_TOL)
        held = sum(v.nbytes for v in vars(prep).values() if isinstance(v, np.ndarray))
        assert held == rows

    def test_each_kernel_is_built_anew_with_the_same_bits(self, rng):
        X, _ = overlapping_problem(rng)
        prep = cls.SvmPrep(X)
        for gamma in (prep.resolve_gamma("auto"), 0.5):
            first, second = prep.kernel(gamma), prep.kernel(gamma)
            assert first is not second and same_bits(first, second)

    @pytest.mark.parametrize("d", [1, 4])
    def test_auto_gamma_of_constant_features_is_one_over_dim(self, d):
        # every standardized feature is 0: its variance reads as 1
        X = np.tile(np.arange(1.0, d + 1), (6, 1))
        assert cls.SvmPrep(X).resolve_gamma("auto") == 1.0 / d
        model = cls.train_oc_svm(X, nu=0.5)
        assert model.training_summary["gamma"] == 1.0 / d


class TestSharedDistances:
    """A split's squared distances are computed once, and give the bits
    that a row, or a validation block, computed alone gives."""

    @pytest.mark.parametrize("shape", [(90, 384), (81, 384), (90, 12)])
    def test_distance_rows_are_the_same_alone_or_together(self, rng, shape):
        Xs = rng.normal(size=shape)
        sq = cls._sq_norms(Xs)
        whole = cls._sq_dist_rows(Xs, sq, 0, len(Xs))
        # one matrix-vector product per row, doubled and subtracted row by row
        expected = np.add.outer(sq, sq)
        for k in range(len(Xs)):
            expected[k] -= 2.0 * (Xs @ Xs[k])
        assert same_bits(whole, np.maximum(expected, 0.0))
        for i in (0, 7, len(Xs) - 1):
            assert same_bits(cls._sq_dist_rows(Xs, sq, i, i + 1)[0], whole[i])

    @pytest.mark.parametrize("chunk_rows", [1, 7, 30])
    def test_a_slot_filled_from_distance_rows_holds_the_kernel(self, rng, monkeypatch,
                                                               chunk_rows):
        X = rng.normal(size=(30, 12))
        expected = cls.SvmPrep(X).kernel(0.3)
        monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * 30 * chunk_rows)
        kept = cls.SvmPrep(X)
        # room for a kernel, not for a kernel and the distances
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 16 * 30 * 30 - 1)
        lazy = cls.SvmPrep(X)
        assert kept.d2 is not None and lazy.d2 is None
        for prep in (kept, lazy):
            stack = np.full((2, 33, 33), np.nan)
            cls._put_kernel(stack, 1, prep, 0.3)
            assert same_bits(stack[1, :30, :30], expected)
            # the rest of its rows 0, and nothing written past them
            assert (stack[1, :30, 30:] == 0.0).all()
            assert np.isnan(stack[1, 30:]).all() and np.isnan(stack[0]).all()

    def test_norms_hold_one_chunk_of_products_at_a_time(self, rng):
        # 1000 rows of 384 features, three chunks of 325 rows and one of
        # 25: the products of one chunk, the norms and 16 kB for each
        # chunk's sums, where (A * A) would hold a copy of all 3 MB of
        # rows.  Each row keeps its own pairwise sum
        A = rng.normal(size=(1000, 384))
        tracemalloc.start()
        try:
            sq = cls._sq_norms(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cls._DIST_CHUNK_BYTES + sq.nbytes + 16 * 1024
        assert same_bits(sq, (A * A).sum(axis=1))

    def test_blocks_of_one_split_share_their_distances(self, rng):
        X, _ = overlapping_problem(rng)
        prep = cls.SvmPrep(X)
        queries = rng.normal(0.3, 1.5, (9, 3))
        d2 = cls.SvmQueryBlock.sq_dists(prep, queries)
        for gamma in ("auto", 0.01, 0.5):
            shared = cls.SvmQueryBlock(prep, queries, gamma, d2.copy())
            assert same_bits(shared.block, cls.SvmQueryBlock(prep, queries, gamma).block)


def rbf_score_oracle(model, vectors):
    """Per-row decision values straight from the kernel definition."""
    p = model.parameters
    coef = p.alpha if p.support_labels is None else p.alpha * p.support_labels
    out = []
    for q in cls.standardize_apply(vectors, p.mean, p.scale):
        k = np.exp(-p.gamma * ((p.support_vectors - q) ** 2).sum(axis=1))
        value = coef @ k
        out.append(value + p.bias if model.variant is cls.Variant.TC_SVM else p.bias - value)
    return np.array(out)


class TestBatchedScoring:
    def test_batch_matches_per_row_oracle(self, rng, monkeypatch):
        X, labels = overlapping_problem(rng)
        models = [
            cls.train_tc_svm(X, labels, C=5.0, gamma=0.4),
            cls.train_oc_svm(X, nu=0.2, gamma=0.4),
        ]
        for model in models:
            n_sv = len(model.parameters.alpha)
            assert 0 < n_sv < len(X)
            for batch in (rng.normal(0.3, 1.5, (1, 3)), rng.normal(0.3, 1.5, (n_sv + 7, 3))):
                expected = rbf_score_oracle(model, batch)
                assert np.max(np.abs(cls.score_batch(model, batch) - expected)) <= 1e-12
                # a budget of three query rows per block: scoring goes chunk by chunk
                with monkeypatch.context() as mp:
                    mp.setattr(cls, "_CACHE_BUDGET_BYTES", 3 * 16 * n_sv)
                    chunked = cls.score_batch(model, batch)
                assert np.max(np.abs(chunked - expected)) <= 1e-12


def same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stacked(kernels):
    """A stack of the kernels, each (prep, gamma), kernel k in slot k."""
    M = max(len(prep) for prep, _ in kernels)
    stack = np.full((len(kernels), M, M), np.nan)  # _put_kernel writes every entry
    for g, (prep, gamma) in enumerate(kernels):
        cls._put_kernel(stack, g, prep, gamma)
    return stack


def grid_tables(variant, X, is_fall, folds, cfg):
    """classifiers.svm_grid_tables over the grids and solver settings of
    cfg, as the inner search passes them."""
    grid = cfg.c_grid if variant is cls.Variant.TC_SVM else cfg.nu_grid
    return cls.svm_grid_tables(variant, X, is_fall, folds, grid, cfg.gamma_grid, cfg.svm_tol,
                               cfg.svm_max_iter)


def assert_same_solve(got, expected):
    """The results of two solver calls, equal bit for bit: multipliers,
    bias, iterations, converged, gap, lo and hi."""
    assert same_bits(got[0], expected[0])
    assert same_bits(got[1], expected[1])
    assert type(got[2]) is int and got[2] == expected[2]
    assert got[3] is expected[3]
    for g, e in zip(got[4:], expected[4:]):
        assert same_bits(g, e)


class TestSolverMatchesOracle:
    """The solver against its first, allocating version, kept in conftest,
    on the duals the two trainers pose: same inputs, same bits out."""

    @staticmethod
    def problems(rng, count=6):
        for _ in range(count):
            n_adl, n_fall = int(rng.integers(15, 30)), int(rng.integers(8, 20))
            X, labels = overlapping_problem(rng, n_adl, n_fall)
            X[:3] = X[3:6]  # duplicated rows: pairs with eta at the floor
            yield X, np.where(labels == "FALL", 1.0, -1.0)

    @staticmethod
    def both(prep, gamma, y, box, start, p, tol=cls.SVM_TOL, max_iter=None):
        m = len(prep)
        args = (prep.kernel(gamma), y, np.full(m, box), start, np.full(m, p), tol,
                10 * m if max_iter is None else max_iter)
        return cls._solve_pairwise_dual(*args), pairwise_dual_oracle(*args)

    def check(self, rng, max_iter=None, tol=cls.SVM_TOL, rows_on_demand=False):
        converged = set()
        for X, y in self.problems(rng):
            tc, oc = cls.SvmPrep(X), cls.SvmPrep(X[y < 0])
            m_oc = len(oc)
            for gamma in (0.2, 1.5):
                for prep in (tc, oc):
                    assert isinstance(prep.kernel(gamma), cls._KernelRows) is rows_on_demand
                # two-class: a cold solve, then warm up the C path from it
                alpha = np.zeros(len(tc))
                for C in (0.5, 5.0, 50.0):
                    got, expected = self.both(tc, gamma, y, C, alpha, -1.0, tol, max_iter)
                    assert_same_solve(got, expected)
                    converged.add(got[3])
                    alpha = got[0]
                for nu in (0.1, 0.5):
                    got, expected = self.both(
                        oc, gamma, np.ones(m_oc), 1.0 / (nu * m_oc), np.full(m_oc, 1.0 / m_oc), 0.0,
                        tol, max_iter,
                    )
                    assert_same_solve(got, expected)
                    converged.add(got[3])
        return converged

    def test_cold_and_warm_solves(self, rng):
        assert True in self.check(rng)

    def test_iteration_capped_solves(self, rng):
        # a tolerance that is never met: every solve runs to its cap
        assert self.check(rng, max_iter=7, tol=-1.0) == {False}

    def test_kernel_rows_over_budget(self, rng, monkeypatch):
        # room for two or three cached rows: rows are evicted and rebuilt
        # mid-solve
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 4 * 8 * 20)
        assert True in self.check(rng, rows_on_demand=True)


class TestBatchSolverMatchesOracle:
    """The lockstep solver against the same oracle: each problem of a batch
    gives, bit for bit, what pairwise_dual_oracle gives it alone."""

    @staticmethod
    def batch(rng, count=4):
        """Kernels and problems as the inner grid poses them: per random
        problem, a two-class and a one-class preparation of unequal m, at
        two gammas, with two cold Cs and two nus each."""
        kernels, problems = [], []
        for X, y in TestSolverMatchesOracle.problems(rng, count):
            tc, oc = cls.SvmPrep(X), cls.SvmPrep(X[y < 0])
            for gamma in (0.2, 1.5):
                kernels.append((tc, gamma))
                m = len(tc)
                for C in (0.5, 5.0):
                    problems.append(
                        (len(kernels) - 1, y, np.full(m, C), np.zeros(m), np.full(m, -1.0), 10 * m))
                kernels.append((oc, gamma))
                m = len(oc)
                for nu in (0.1, 0.5):
                    problems.append((len(kernels) - 1, np.ones(m), np.full(m, 1.0 / (nu * m)),
                                     np.full(m, 1.0 / m), np.zeros(m), 10 * m))
        return kernels, problems

    @staticmethod
    def check(kernels, problems, tol=cls.SVM_TOL):
        got = cls._lockstep(stacked(kernels), problems, tol)
        for (k, y, box, alpha, p, max_iter), result in zip(problems, got):
            prep, gamma = kernels[k]
            # an int start names the problem whose multipliers it starts from
            start = got[alpha][0] if isinstance(alpha, int) else alpha
            assert_same_solve(result, pairwise_dual_oracle(prep.kernel(gamma), y, box, start, p,
                                                           tol, max_iter))
        return got

    def test_mixed_batch_of_unequal_sizes(self, rng, monkeypatch):
        # every problem runs in lockstep to its end, the last ones too: the
        # scalar loop is never called
        calls = []
        solve = cls._solve_pairwise_dual
        monkeypatch.setattr(cls, "_solve_pairwise_dual",
                            lambda *args: calls.append(args) or solve(*args))
        kernels, problems = self.batch(rng)
        assert len({len(problem[1]) for problem in problems}) > 4
        got = self.check(kernels, problems)
        assert {r[3] for r in got} == {True}
        assert calls == []

    def test_warm_started_problems(self, rng):
        # each two-class problem goes on to 10 C and 100 C, each warm from
        # the multipliers of the one before
        kernels, problems = self.batch(rng)
        chained = []
        for k, y, box, alpha, p, cap in problems:
            chained.append((k, y, box, alpha, p, cap))
            if p[0] == -1.0:
                for scale in (10.0, 100.0):
                    chained.append((k, y, scale * box, len(chained) - 1, p, cap))
        got = self.check(kernels, chained)
        warm = [r for problem, r in zip(chained, got) if isinstance(problem[3], int)]
        assert len(warm) == 32 and all(np.any(r[0] > 0) for r in warm)

    def test_eta_floor(self, rng):
        # The first ADL row equals the first FALL row.  A cold two-class
        # solve starts from s = y, so its first pair is exactly those two
        # rows: eta = 1 + 1 - 2 * 1 = 0, below the floor.
        kernels, problems = [], []
        for X, y in TestSolverMatchesOracle.problems(rng, 3):
            fall = np.flatnonzero(y > 0)[0]
            X[0] = X[fall]
            prep = cls.SvmPrep(X)
            K = prep.kernel(0.5)
            assert K[0, 0] + K[fall, fall] - 2.0 * K[0, fall] <= cls._SV_EPS
            kernels.append((prep, 0.5))
            m = len(X)
            for C in (0.5, 5.0, 50.0):
                problems.append(
                    (len(kernels) - 1, y, np.full(m, C), np.zeros(m), np.full(m, -1.0), 10 * m))
        self.check(kernels, problems)

    def test_iteration_caps_stop_some_problems(self, rng):
        kernels, problems = self.batch(rng)
        # every third problem stops after a few steps, the rest run on
        capped = [(k, y, box, a, p, 5 if n % 3 == 0 else cap)
                  for n, (k, y, box, a, p, cap) in enumerate(problems)]
        got = self.check(kernels, capped)
        assert {r[3] for r in got} == {True, False}
        assert all(r[2] == 5 for r in got[::3] if not r[3])

    @staticmethod
    def one_class(kernels, problems, X, gamma, nus):
        """A one-class dual per nu on the rows X at gamma, all on one new
        kernel; their indices into problems."""
        kernels.append((cls.SvmPrep(X), gamma))
        m = len(X)
        start = len(problems)
        for nu in nus:
            problems.append((len(kernels) - 1, np.ones(m), np.full(m, 1.0 / (nu * m)),
                             np.full(m, 1.0 / m), np.zeros(m), 10 * m))
        return list(range(start, len(problems)))

    @staticmethod
    def chain(kernels, problems, X, y, gamma, Cs, caps=None):
        """A two-class dual per C on the rows X at gamma, each warm from the
        one before, on one new kernel; their indices into problems."""
        kernels.append((cls.SvmPrep(X), gamma))
        m = len(X)
        start = len(problems)
        for c, C in enumerate(Cs):
            alpha = len(problems) - 1 if c else np.zeros(m)
            cap = 10 * m if caps is None else caps[c]
            problems.append((len(kernels) - 1, y, np.full(m, C), alpha, np.full(m, -1.0), cap))
        return list(range(start, len(problems)))

    @staticmethod
    def record_lockstep(monkeypatch):
        """The number of problems of every lockstep call."""
        calls = []
        lockstep = cls._lockstep

        def recorded(stack, problems, tol):
            calls.append(len(problems))
            return lockstep(stack, problems, tol)

        monkeypatch.setattr(cls, "_lockstep", recorded)
        return calls

    def test_sibling_rows_admit_only_starts_below_their_box(self, rng):
        kernels, problems = [], []
        X = rng.normal(size=(20, 3))
        # nu = 1 puts the box at the start, 1 / m: it starts a row of its own
        group = self.one_class(kernels, problems, X, 0.5, (0.2, 1.0, 0.01, 0.5, 0.2))
        y, box, start, p, cap = problems[0][1:]
        problems.append((0, y, np.where(np.arange(20) < 10, 5.0, 6.0), start, p, cap))
        problems.append((0, y, box, start, p, cap + 1))
        rows = cls._sibling_rows(problems, [(0, n, start) for n in range(len(problems))])
        led = {n: [s for s, _ in siblings] for _, n, _, siblings in rows}
        # the loosest box (the smallest nu) leads, the rest ride loosest first
        assert led == {group[2]: [group[0], group[4], group[3]], group[1]: [],
                       # a box of two values, and another max_iter, ride on nothing
                       len(problems) - 2: [], len(problems) - 1: []}

    def test_one_class_siblings_share_until_their_box_binds(self, rng):
        kernels, problems = [], []
        groups = []
        for m in (14, 18, 22, 26, 30):
            X = rng.normal(size=(m, 3))
            for gamma in (0.2, 1.5):
                # the boxes of 0.01 and 0.02 never bind, 1/(nu m) > 1; those
                # of 0.3 and 0.4 do, and that of 1.0 is the start, 1/m
                groups.append(self.one_class(kernels, problems, X, gamma,
                                             (0.01, 0.02, 0.3, 0.4, 1.0)))
        got = self.check(kernels, problems)
        # the same problems, stopped after three steps
        early = cls._lockstep(stacked(kernels), [(*problem[:5], 3) for problem in problems],
                              cls.SVM_TOL)
        for never, also_never, mid, tighter, at_start in groups:
            assert got[also_never] is got[never]
            assert got[at_start] is not got[never] and early[at_start] is not early[never]
        # some siblings fork mid-solve: they ride through three steps
        assert any(early[n] is early[never] and got[n] is not got[never]
                   for never, _, mid, tighter, _ in groups for n in (mid, tighter))

    def test_a_repeated_nu_and_an_infinite_box(self, rng):
        kernels, problems = [], []
        for m in (16, 24, 31) * 3:
            # a subnormal nu overflows its box 1/(nu m) to inf, a box like any other
            self.one_class(kernels, problems, rng.normal(size=(m, 3)), 0.7,
                           (0.2, 5e-324, 0.2, 0.6, 0.6))
        assert np.isinf(problems[1][2]).all()
        got = self.check(kernels, problems)
        assert {r[3] for r in got} == {True}

    def test_chains_keep_their_rows_in_one_call(self, rng, monkeypatch):
        # chains of one to four Cs, on kernels of unequal m; in two of
        # them a warm dual stops at a cap of 3
        calls = self.record_lockstep(monkeypatch)
        kernels, problems = [], []
        capped = []
        for n in range(12):
            X, labels = overlapping_problem(rng, 12 + n, 6 + n % 4)
            y = np.where(labels == "FALL", 1.0, -1.0)
            Cs = (0.1, 1.0, 10.0, 100.0)[:1 + n % 4]
            caps = [10 * len(y)] * len(Cs)
            if n in (7, 11):
                caps[1] = 3
            chain = self.chain(kernels, problems, X, y, 0.5, Cs, caps)
            if n in (7, 11):
                capped.append(chain[1])
        got = self.check(kernels, problems)
        assert calls == [len(problems)]
        for n in capped:
            assert got[n][2] == 3 and got[n][3] is False
            # the dual after it starts from where it stopped
            assert isinstance(problems[n + 1][3], int)

    def test_forks_and_refills_in_one_stack(self, rng, monkeypatch):
        calls = self.record_lockstep(monkeypatch)
        kernels, problems = [], []
        forked = []
        for n in range(6):
            X, labels = overlapping_problem(rng, 14 + 2 * n, 8 + n)
            y = np.where(labels == "FALL", 1.0, -1.0)
            self.chain(kernels, problems, X, y, 0.3 + 0.2 * n, (0.5, 5.0, 50.0))
            forked.append(
                self.one_class(kernels, problems, X[y < 0], 0.3 + 0.2 * n, (0.1, 0.5, 0.9)))
        got = self.check(kernels, problems)
        assert calls == [len(problems)]
        assert any(got[loose] is not got[tight] for loose, _, tight in forked)


class TestWarmStart:
    C_PATH = (0.1, 1.0, 10.0, 100.0)

    def test_c_ascending_chain_stays_feasible_and_optimal(self, rng):
        X, labels = overlapping_problem(rng)
        prep = cls.SvmPrep(X)
        y = np.where(labels == "FALL", 1.0, -1.0)
        m = len(prep)
        kernels = [(prep, prep.resolve_gamma("auto")), (prep, 0.5)]
        problems = []
        for k in (0, 1):
            for c, C in enumerate(self.C_PATH):
                start = len(problems) - 1 if c else np.zeros(m)
                problems.append((k, y, np.full(m, C), start, np.full(m, -1.0), 100000))
        solved = cls._lockstep(stacked(kernels), problems, cls.SVM_TOL)
        for (k, _, box, _, _, _), (alpha, bias, _, converged, _, _, _) in zip(problems, solved):
            C = box[0]
            assert converged
            assert np.all(alpha >= 0.0) and np.all(alpha <= C)
            assert abs(float(alpha @ y)) <= 1e-12
            K = prep.kernel(kernels[k][1])
            assert kkt_violations_dual(K, y, alpha, bias, C).max() <= 1.001e-3


def kkt_violations_dual(K, y, alpha, bias, C):
    """KKT slack of a two-class solve on its training kernel K."""
    margins = y * (K @ (alpha * y) + bias)
    at_zero = alpha <= 1e-9
    at_c = alpha >= C - 1e-9
    free = ~(at_zero | at_c)
    viol = np.zeros(len(y))
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[free] = np.abs(margins[free] - 1.0)
    return viol


class TestInnerGrid:
    """The inner search's score table: one column per (C or nu, gamma)
    candidate in the grids' order, scored from one block per gamma."""

    GAMMAS = ("auto", 0.5)
    GRIDS = {
        "TC_SVM": ("c_grid", (0.1, 10.0, 100.0)),
        "OC_SVM": ("nu_grid", (0.05, 0.2, 0.5)),
    }

    @staticmethod
    def split(rng):
        X, labels = overlapping_problem(rng)
        val = np.arange(0, len(X), 4)  # 6 ADL and 4 FALL rows
        tr = np.setdiff1d(np.arange(len(X)), val)
        return X, labels == "FALL", tr, val

    def table(self, variant, X, is_fall, tr, val, grid):
        key = self.GRIDS[variant][0]
        cfg = ev.GridConfig(gamma_grid=self.GAMMAS, **{key: grid})
        return grid_tables(cls.Variant(variant), X, is_fall, [[(tr, val)]], cfg)[0][0]

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_grid_order_only_permutes_columns(self, rng, variant):
        X, is_fall, tr, val = self.split(rng)
        ordered = self.GRIDS[variant][1]
        low, mid, high = ordered
        reference = self.table(variant, X, is_fall, tr, val, ordered)
        n_gamma = len(self.GAMMAS)
        for grid in ((high, low, mid), (high, low, mid, low), (low, high, low, mid, high)):
            got = self.table(variant, X, is_fall, tr, val, grid)
            columns = [ordered.index(v) * n_gamma + g for v in grid for g in range(n_gamma)]
            assert same_bits(got, reference[:, columns])

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_selection_ignores_grid_order_and_ties_go_first(self, rng, variant):
        X, is_fall, _, _ = self.split(rng)
        # every row, its three inner folds seeded 5
        fold = [(np.arange(len(X)), ingest.plan_folds(is_fall, num_folds=3, seed=5))]
        key, ordered = self.GRIDS[variant]
        low, mid, high = ordered
        picks = []
        for grid in (ordered, (high, low, mid), (high, low, mid, low)):
            cfg = ev.GridConfig(gamma_grid=self.GAMMAS, inner_folds=3, **{key: grid})
            picks.append(ev._select_svm_params(cls.Variant(variant), X, is_fall, fold, cfg)[0])
        assert picks[1] == picks[0] and same_bits(picks[1][1], picks[0][1])
        assert picks[2] == picks[0] and same_bits(picks[2][1], picks[0][1])
        # equal values tie: the earlier one in the grid is picked
        for grid in ((1.0, 1), (1, 1.0)):
            cfg = ev.GridConfig(gamma_grid=("auto",), inner_folds=3, **{key: grid})
            ((picked, _), _), = ev._select_svm_params(cls.Variant(variant), X, is_fall, fold, cfg)
            assert type(picked) is type(grid[0])

    @pytest.mark.parametrize("over_budget", [False, True], ids=["in budget", "over budget"])
    def test_block_scores_match_score_batch(self, rng, monkeypatch, over_budget):
        X, labels = overlapping_problem(rng)
        queries = rng.normal(0.3, 1.5, (9, 3))
        if over_budget:
            # below the smaller (one-class) block
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 16 * len(queries) * 24 - 1)
        rows = {"TC_SVM": X, "OC_SVM": X[labels == "ADL"]}
        for gamma in ("auto", 0.4):
            for variant, train in rows.items():
                var = cls.Variant(variant)
                prep = cls.SvmPrep(train)
                block = cls.SvmQueryBlock(prep, queries, gamma)
                assert (block.block is None) is over_budget
                for a in (0.2, 0.5):
                    value = 10 * a if var is cls.Variant.TC_SVM else a
                    y, box, start, p = cls._svm_dual(var, prep, labels, value)[:4]
                    alpha, bias, _, _, _, lo, hi = cls._solve_pairwise_dual(
                        prep.kernel(block.gamma), y, box, start, p, cls.SVM_TOL, 10 * len(prep))
                    got = block.scores(var, alpha, y, cls._svm_offset(var, bias, lo, hi))
                    if var is cls.Variant.TC_SVM:
                        model = cls.train_tc_svm(train, labels, value, gamma=gamma)
                    else:
                        model = cls.train_oc_svm(train, value, gamma=gamma)
                    expected = cls.score_batch(model, queries)
                    assert np.max(np.abs(got - expected)) <= 1e-12
                    # over the budget the block scores as score_batch does
                    assert same_bits(got, expected) or not over_budget


class TestFoldBatch:
    """An SVM batch searches its outer folds' inner grids together: each
    fold's tables are its one-fold tables, bit for bit."""

    @staticmethod
    def cell(n_adl=60, n_fall=20, dim=3):
        X, labels = overlapping_problem(np.random.default_rng(5), n_adl, n_fall, dim)
        is_fall = labels == "FALL"
        return ev.CellInputs(X, is_fall, ingest.plan_folds(is_fall, num_folds=10, seed=3), seed=3)

    @staticmethod
    def searched(inputs, variant, folds, cfg):
        """The inner splits of each outer fold of folds, as
        _select_svm_params searches them."""
        searched = []
        for f in folds:
            rows = inputs.plan.train_indices(f)
            splits = ev._inner_splits(inputs.is_fall[rows], inputs.inner_plan(f, cfg.inner_folds),
                                      variant == "TC_SVM")
            searched.append([(rows[tr], rows[val]) for tr, val in splits])
        return searched

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_batched_tables_are_each_folds_own(self, variant):
        inputs = self.cell()
        cfg = ev.GridConfig()
        batches = ev.fold_batches(inputs.plan, variant, cfg)
        # three folds of 10 splits x 4 gammas, a lockstep row each, make
        # 120 rows: 10 folds do not divide
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        folds = self.searched(inputs, variant, range(10), cfg)
        assert len({len(tr) for splits in folds for tr, _ in splits}) > 1

        def tables(fold_list):
            return grid_tables(cls.Variant(variant), inputs.X, inputs.is_fall, fold_list, cfg)

        for batch in batches:
            together = tables([folds[f] for f in batch])
            for f, tables_f in zip(batch, together):
                alone, = tables([folds[f]])
                assert len(tables_f) == len(alone)
                for got, expected in zip(tables_f, alone):
                    assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_a_lone_kernel_that_fits_a_stack_its_preparation_cannot(self, rng, monkeypatch):
        # one split and one gamma, at a budget of one kernel: the split's
        # preparation keeps no distances, so its slot is filled from
        # distance rows, which are the bits of the distances
        X, is_fall, tr, val = TestInnerGrid.split(rng)
        cfg = ev.GridConfig(gamma_grid=("auto",), c_grid=(0.1, 10.0))
        args = (cls.Variant.TC_SVM, X, is_fall, [[(tr, val)]], cfg)
        expected = grid_tables(*args)[0][0]
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * len(tr) ** 2)
        assert cls.SvmPrep(X[tr]).d2 is None
        got = grid_tables(*args)[0][0]
        assert same_bits(got, expected)

    @staticmethod
    def record_stacks(monkeypatch):
        """The bytes of the stack of every lockstep call."""
        stacks = []
        lockstep = cls._lockstep

        def recorded(stack, problems, tol):
            stacks.append(stack.nbytes)
            return lockstep(stack, problems, tol)

        monkeypatch.setattr(cls, "_lockstep", recorded)
        return stacks

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_groups_over_the_budget_give_the_tables_of_one_stack(self, monkeypatch, variant):
        inputs = self.cell()
        cfg = ev.GridConfig()
        var = cls.Variant(variant)
        folds = self.searched(inputs, variant, [0, 1, 2], cfg)
        expected = grid_tables(var, inputs.X, inputs.is_fall, folds, cfg)
        sizes = [len(tr) if variant == "TC_SVM" else int(np.count_nonzero(~inputs.is_fall[tr]))
                 for splits in folds for tr, _ in splits]
        M, count = max(sizes), len(sizes) * len(cfg.gamma_grid)
        stacks = self.record_stacks(monkeypatch)
        # Seven kernels a stack: groups part the gammas of a split.  One
        # kernel a stack: no preparation keeps its distances, and each slot
        # is filled from distance rows, seven rows at a time.
        monkeypatch.setattr(cls, "_DIST_CHUNK_BYTES", 8 * 7 * M)
        for per_stack in (7, 1):
            budget = 8 * per_stack * M * M
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", budget)
            stacks.clear()
            got = grid_tables(var, inputs.X, inputs.is_fall, folds, cfg)
            assert len(stacks) >= -(-count // per_stack) and max(stacks) <= budget
            for got_fold, expected_fold in zip(got, expected):
                assert all(same_bits(g, e) for g, e in zip(got_fold, expected_fold))
        assert cls.SvmPrep(inputs.X[folds[0][0][0]]).d2 is None

    def test_a_kernel_whose_slot_passes_the_budget_solves_on_its_rows(self, monkeypatch):
        inputs = self.cell()
        cfg = ev.GridConfig(c_grid=(0.1, 10.0), gamma_grid=("auto", 0.1))
        var = cls.Variant.TC_SVM
        folds = self.searched(inputs, "TC_SVM", [0, 1, 2], cfg)
        expected = grid_tables(var, inputs.X, inputs.is_fall, folds, cfg)
        splits = [split for fold in folds for split in fold]
        M = max(len(tr) for tr, _ in splits)
        lone = [len(tr) == M for tr, _ in splits]
        assert 0 < sum(lone) < len(splits)
        # room for one slot of the smaller splits, not for one of the largest
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * M * M - 1)
        stacks = self.record_stacks(monkeypatch)
        scalar = []
        solve = cls._solve_pairwise_dual

        def recorded(*args):
            scalar.append((args, solve(*args)))
            return scalar[-1][1]

        monkeypatch.setattr(cls, "_solve_pairwise_dual", recorded)
        got = grid_tables(var, inputs.X, inputs.is_fall, folds, cfg)
        n_gamma = len(cfg.gamma_grid)
        assert len(stacks) == (len(splits) - sum(lone)) * n_gamma
        # each lone (split, gamma) runs its C chain on kernel rows, the
        # larger C warm from the smaller's multipliers
        assert len(scalar) == sum(lone) * n_gamma * 2
        for (cold, cold_result), (warm, _) in zip(scalar[::2], scalar[1::2]):
            assert isinstance(cold[0], cls._KernelRows) and warm[0] is cold[0]
            assert not cold[3].any() and same_bits(warm[3], cold_result[0])
        for args, result in scalar:
            assert_same_solve(result, pairwise_dual_oracle(*args))
        tables = zip([t for fold in got for t in fold], [t for fold in expected for t in fold])
        for alone, (g, e) in zip(lone, tables):
            # kernel rows' products with a vector round apart from a
            # matrix's, so only a cold dual, whose start K @ 0 is 0 either
            # way, keeps its bits: the first C's columns
            assert same_bits(g[:, :n_gamma], e[:, :n_gamma]) if alone else same_bits(g, e)

    def test_a_search_over_the_budget_holds_one_group_at_a_time(self, monkeypatch):
        # fold 0 of a RAW 128 cell at room for a quarter of its kernels a
        # stack: four groups, each prepared, solved and scored in turn
        inputs = self.cell(100, 10, 384)
        cfg = ev.GridConfig()
        folds = self.searched(inputs, "TC_SVM", [0], cfg)
        splits = folds[0]
        M = max(len(tr) for tr, _ in splits)
        per_stack = len(splits) * len(cfg.gamma_grid) // 4
        budget = 8 * per_stack * M * M
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", budget)
        monkeypatch.setattr(cls, "_stack", np.empty(0), raising=False)

        def peak_of(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def prepare():
            # the largest split as the search prepares it, all held at once
            tr, val = max(splits, key=lambda split: len(split[0]))
            prep = cls.SvmPrep(inputs.X[tr])
            duals = [cls._svm_dual(cls.Variant.TC_SVM, prep, inputs.is_fall[tr], C)[:4]
                     for C in cfg.c_grid]
            return prep, duals, cls.SvmQueryBlock.sq_dists(prep, inputs.X[val])

        preparation = peak_of(prepare)
        blocks = 8 * per_stack * max(len(val) for _, val in splits) * M
        tables = 8 * sum(len(val) for _, val in splits) * len(cfg.c_grid) * len(cfg.gamma_grid)
        # one group's stack, one split's preparation and one group's blocks,
        # with the tables and 64 kB for the duals and the solver's own state;
        # a search that keeps every split's preparation and blocks until
        # the solve ends peaks at more than twice this
        bound = budget + preparation + blocks + tables + 64 * 1024
        peak = peak_of(lambda: grid_tables(cls.Variant.TC_SVM, inputs.X, inputs.is_fall,
                                           folds, cfg))
        assert peak <= bound

    @pytest.mark.parametrize("variant", ["TC_SVM", "OC_SVM"])
    def test_the_batching_rule_and_the_search_agree(self, monkeypatch, variant):
        # At the default budget, at room for exactly one fold's kernels
        # (each counted at the fold's training rows, as fold_batches counts
        # them) and at a quarter of that: a batch of several folds is
        # searched in one stack, a fold that leaves no room for a second of
        # its size runs alone, and a fold whose kernels take several stacks
        # gives the tables of one stack, bit for bit.
        inputs = self.cell()
        cfg = ev.GridConfig()
        var = cls.Variant(variant)
        rows = cfg.inner_folds * len(cfg.gamma_grid)
        train = [len(inputs.plan.train_indices(f)) for f in range(10)]
        one_fold = 8 * rows * max(train) ** 2
        stacks = self.record_stacks(monkeypatch)

        def search(f):
            stacks.clear()
            tables, = grid_tables(var, inputs.X, inputs.is_fall,
                                  self.searched(inputs, variant, [f], cfg), cfg)
            return tables, len(stacks)

        one_stack = {}
        for f in range(10):
            one_stack[f], count = search(f)
            assert count == 1
        for budget in (cls._CACHE_BUDGET_BYTES, one_fold, one_fold // 4):
            monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", budget)
            batches = ev.fold_batches(inputs.plan, variant, cfg)
            full = [f for f in range(10) if not cls.fits_budget(2 * rows, train[f], train[f])]
            assert full == ([] if budget > one_fold else list(range(10)))
            assert all([f] in batches for f in full)
            for batch in batches:
                if len(batch) > 1:
                    stacks.clear()
                    ev.run_folds(inputs, variant, batch, cfg)
                    assert len(stacks) == 1
            if budget < one_fold:
                for f in full:
                    tables, count = search(f)
                    assert count > 1 and max(stacks) <= budget
                    assert all(same_bits(g, e) for g, e in zip(tables, one_stack[f]))

    def test_other_variants_and_full_folds_run_alone(self, monkeypatch):
        inputs = self.cell()
        # one-class folds batch as two-class ones do: a row per split and gamma
        assert ev.fold_batches(inputs.plan, "OC_SVM") == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        for variant in ("OC_KNN", "TC_KNN"):
            assert ev.fold_batches(inputs.plan, variant) == [[f] for f in range(10)]
        # room for one fold's 40 kernels of 72 training rows, not for two
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 8 * 40 * 72 ** 2)
        for variant in ("OC_SVM", "TC_SVM"):
            assert ev.fold_batches(inputs.plan, variant) == [[f] for f in range(10)]

    def test_inner_search_peaks_within_twice_its_stack(self, monkeypatch):
        # the rows of a RAW 128 fold: 110 windows of 384 features
        inputs = self.cell(100, 10, 384)
        cfg = ev.GridConfig()
        is_fall = inputs.is_fall[inputs.plan.train_indices(0)]
        splits = ev._inner_splits(is_fall, inputs.inner_plan(0, cfg.inner_folds), two_class=True)
        stack = 8 * len(splits) * len(cfg.gamma_grid) * max(len(tr) for tr, _ in splits) ** 2
        # a stack left by an earlier solve would not be counted
        monkeypatch.setattr(cls, "_stack", np.empty(0), raising=False)
        tracemalloc.start()
        try:
            ev.run_folds(inputs, "TC_SVM", [0], cfg)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stack

    def test_a_preparation_holds_its_rows_and_one_copy_more(self):
        # an 89 x 384 inner split of a RAW 128 fold, prepared as the search
        # prepares it: the split's rows, their standardized copy and one
        # temporary of their size at most, with 32 kB for the per-feature
        # statistics, the norms and the distances' own state.  A quotient
        # taken apart from the difference it divides is a fourth copy
        inputs = self.cell(100, 10, 384)
        tr, _ = self.searched(inputs, "TC_SVM", [0], ev.GridConfig())[0][0]
        assert len(tr) == 89
        tracemalloc.start()
        try:
            prep = cls.SvmPrep(inputs.X[tr])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * prep.Xs.nbytes + 32 * 1024
        X = inputs.X[tr]
        assert same_bits(prep.Xs, (X - prep.mean) / prep.scale)

    def test_work_of_a_batch(self, monkeypatch):
        inputs = self.cell()
        calls = {"_lockstep": 0, "_dual_init": 0, "scores": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        count(cls, "_lockstep")
        count(cls, "_dual_init")
        count(cls.SvmQueryBlock, "scores")
        # boxes 1/(nu m) above 1 for every inner split: no nu's box binds,
        # so the nus of a split and gamma share one start, solve and score
        cfg = ev.GridConfig(nu_grid=(0.001, 0.002, 0.004))
        folds = [(inputs.plan.train_indices(f), inputs.inner_plan(f, cfg.inner_folds))
                 for f in (0, 1, 2)]
        ev._select_svm_params(cls.Variant.OC_SVM, inputs.X, inputs.is_fall, folds, cfg)
        pairs = len(cfg.gamma_grid) * sum(
            len(ev._inner_splits(inputs.is_fall[rows], plan, False)) for rows, plan in folds)
        assert calls == {"_lockstep": 1, "_dual_init": pairs, "scores": pairs}
        # one lockstep call per fold batch of either SVM variant
        for variant in ("OC_SVM", "TC_SVM"):
            batches = ev.fold_batches(inputs.plan, variant)
            for batch in (batches[0], batches[-1]):
                calls["_lockstep"] = 0
                ev.run_folds(inputs, variant, batch)
                assert calls["_lockstep"] == 1

    def test_a_stack_past_a_quarter_of_the_budget_goes_with_its_solve(self, monkeypatch):
        inputs = self.cell()
        cfg = ev.GridConfig(gamma_grid=("auto", 0.1), c_grid=(1.0, 10.0), inner_folds=3)
        rows = inputs.plan.train_indices(0)
        plan = ingest.plan_folds(inputs.is_fall[rows], num_folds=cfg.inner_folds, seed=5)
        splits = ev._inner_splits(inputs.is_fall[rows], plan, two_class=True)
        folds = [[(rows[tr], rows[val]) for tr, val in splits]]
        size = len(splits) * len(cfg.gamma_grid) * max(len(tr) for tr, _ in splits) ** 2

        def search():
            return grid_tables(cls.Variant.TC_SVM, inputs.X, inputs.is_fall, folds, cfg)

        monkeypatch.setattr(cls, "_stack", np.empty(0), raising=False)
        # the stack fits the budget, and is more than a quarter of it
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 2 * 8 * size)
        expected = search()
        assert cls._stack.size == 0
        # a quarter of the budget or less: the buffer stays, and is reused
        monkeypatch.setattr(cls, "_CACHE_BUDGET_BYTES", 4 * 8 * size)
        search()
        kept = cls._stack
        assert kept.size == size
        got = search()
        assert cls._stack is kept
        for g, e in zip(got[0], expected[0]):
            assert same_bits(g, e)


class TestPinnedSelection:
    """Every outer fold's selection on one fixed problem, as the scalar
    inner search made it: the chosen values (C or nu and gamma, or k) and
    float.hex of inner_mean_auc."""

    KEYS = {"OC_SVM": ("nu", "gamma"), "TC_SVM": ("C", "gamma"), "OC_KNN": ("k",),
            "TC_KNN": ("k",)}

    EXPECTED = {
        "OC_SVM": [
            (0.2, 0.1, "0x1.bc962fc962fcap-1"), (0.1, 0.1, "0x1.999999999999ap-1"),
            (0.2, 0.01, "0x1.9dddddddddddep-1"), (0.2, 0.01, "0x1.c1b4e81b4e81dp-1"),
            (0.2, 0.1, "0x1.999999999999ap-1"), (0.2, 0.01, "0x1.98bf258bf258dp-1"),
            (0.1, 0.01, "0x1.ba06d3a06d3a0p-1"), (0.2, 0.01, "0x1.b40da740da742p-1"),
            (0.2, 0.01, "0x1.a2fc962fc9630p-1"), (0.2, 0.01, "0x1.85f92c5f92c60p-1"),
        ],
        "TC_SVM": [
            (1.0, 0.1, "0x1.e4b17e4b17e4bp-1"), (0.1, 0.1, "0x1.c444444444445p-1"),
            (0.1, 0.1, "0x1.c0da740da740dp-1"), (10.0, 0.01, "0x1.cda740da740dap-1"),
            (1.0, 0.01, "0x1.c962fc962fc96p-1"), (10.0, 0.01, "0x1.c7ae147ae147dp-1"),
            (0.1, 0.1, "0x1.cbf258bf258c0p-1"), (0.1, 0.01, "0x1.e2fc962fc9630p-1"),
            (1.0, 0.01, "0x1.d1eb851eb8520p-1"), (10.0, 0.01, "0x1.ac5f92c5f92c6p-1"),
        ],
        "OC_KNN": [
            (6, "0x1.c444444444445p-1"), (7, "0x1.bc962fc962fcap-1"),
            (9, "0x1.b777777777776p-1"), (6, "0x1.bd70a3d70a3d6p-1"),
            (10, "0x1.ab851eb851ebap-1"), (8, "0x1.bc962fc962fcap-1"),
            (1, "0x1.9ddddddddddddp-1"), (10, "0x1.c369d0369d036p-1"),
            (8, "0x1.ae147ae147ae0p-1"), (2, "0x1.9d0369d0369d0p-1"),
        ],
        "TC_KNN": [
            (10, "0x1.d70a3d70a3d70p-1"), (9, "0x1.c369d0369d036p-1"),
            (6, "0x1.a4b17e4b17e4bp-1"), (9, "0x1.b4e81b4e81b50p-1"),
            (10, "0x1.bc962fc962fcap-1"), (5, "0x1.d555555555556p-1"),
            (10, "0x1.be4b17e4b17e5p-1"), (10, "0x1.db4e81b4e81b6p-1"),
            (6, "0x1.ca3d70a3d70a3p-1"), (6, "0x1.ac5f92c5f92c6p-1"),
        ],
    }

    @pytest.mark.parametrize("variant", ["OC_SVM", "TC_SVM", "OC_KNN", "TC_KNN"])
    def test_every_outer_fold_selects_as_recorded(self, variant):
        X, labels = overlapping_problem(np.random.default_rng(5), 60, 20)
        is_fall = labels == "FALL"
        inputs = ev.CellInputs(X, is_fall, ingest.plan_folds(is_fall, num_folds=10, seed=3), seed=3)
        got = []
        for f in range(10):
            params = ev.run_folds(inputs, variant, [f])[0].params
            got.append((*(params[key] for key in self.KEYS[variant]),
                        params["inner_mean_auc"].hex()))
        assert got == self.EXPECTED[variant]
