"""SVM training and scoring, checked against optimality conditions.

The solver is validated three independent ways: closed-form solutions of
tiny symmetric problems, the Karush-Kuhn-Tucker conditions on random
problems, and invariances (duplicated data, determinism) that any exact
minimizer must respect.
"""

import re
import warnings

import numpy as np
import pytest

from falldetect import classifiers as cls
from falldetect import evaluation as ev
from falldetect.errors import (
    ConvergenceWarning,
    DegenerateLabels,
    DimensionError,
    InsufficientData,
    InvalidNu,
)


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
    def test_inner_search_preparation_matches_standalone_training(self, rng):
        X, labels = overlapping_problem(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for variant, train, grid in (
                (cls.Variant.TC_SVM, cls.train_tc_svm, (0.5, 10.0)),
                (cls.Variant.OC_SVM, cls.train_oc_svm, (0.1, 0.3)),
            ):
                prep = ev._svm_prep(variant, X, labels == "FALL")
                rows = X if variant is cls.Variant.TC_SVM else X[labels == "ADL"]
                extra = (labels,) if variant is cls.Variant.TC_SVM else ()
                # gamma by gamma, as the inner search visits its grid
                for gamma in ("auto", 0.3):
                    for a in grid:
                        shared = train(prep, *extra, a, gamma=gamma)
                        alone = train(rows, *extra, a, gamma=gamma)
                        assert_same_solution(shared, alone)

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
