"""ROC construction, averaging, operating points, and nested CV.

Area under the curve is computed two structurally different ways in the
package (trapezoid over the swept curve, pairwise rank statistic); tests
hold them to each other and to a literal pair-counting loop written here.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from falldetect import evaluation as ev
from falldetect import features, ingest, synth
from falldetect.errors import DegenerateLabels, InsufficientData, InvalidK
from falldetect.evaluation import GridConfig, RocCurve
from falldetect.features import FeatureKind, LtpParams
from falldetect.ingest import Label
from tests.conftest import report_bits


def auc_pair_oracle(scores, labels):
    """Count fall-over-adl wins pair by pair, ties worth half."""
    pos = [float(s) for s, l in zip(scores, labels) if l == "FALL"]
    neg = [float(s) for s, l in zip(scores, labels) if l == "ADL"]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_scored_set(rng, tie_prone):
    n = int(rng.integers(6, 50))
    labels = ["FALL" if v else "ADL" for v in rng.integers(0, 2, n)]
    # force both classes
    labels[0], labels[1] = "FALL", "ADL"
    if tie_prone:
        scores = rng.choice([-1.0, 0.0, 0.25, 1.5], n)
    else:
        scores = rng.normal(0.0, 1.0, n)
    return scores, labels


class TestRocCurve:
    def test_perfect_separation(self):
        curve = ev.roc_curve([0.9, 0.1], ["FALL", "ADL"])
        assert curve.fpr.tolist() == [0.0, 0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0, 1.0]
        assert curve.thresholds[0] == np.inf
        assert curve.thresholds[1:].tolist() == [0.9, 0.1]
        assert ev.auc(curve) == 1.0

    def test_all_tied_scores_give_the_diagonal(self):
        curve = ev.roc_curve([0.5] * 4, ["FALL", "ADL", "FALL", "ADL"])
        assert curve.fpr.tolist() == [0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0]
        assert ev.auc(curve) == 0.5

    def test_interleaved_scores_by_hand(self):
        scores = [0.8, 0.6, 0.4, 0.2]
        labels = ["FALL", "ADL", "FALL", "ADL"]
        curve = ev.roc_curve(scores, labels)
        assert ev.auc(curve) == 0.75
        assert ev.pairwise_auc(scores, labels) == 0.75
        assert auc_pair_oracle(scores, labels) == 0.75

    def test_both_routes_agree_with_the_pair_loop(self, rng):
        for trial in range(60):
            scores, labels = random_scored_set(rng, tie_prone=trial % 2 == 0)
            trap = ev.auc(ev.roc_curve(scores, labels))
            pair = ev.pairwise_auc(scores, labels)
            assert pair == auc_pair_oracle(scores, labels)
            assert abs(trap - pair) <= 1e-12

    def test_pair_statistic_refuses_unequal_lengths(self):
        for scores in ([0.9, 0.1], [0.9, 0.1, 0.5, 0.3]):
            with pytest.raises(ValueError, match="^scores and labels must correspond one to one$"):
                ev.pairwise_auc(scores, ["FALL", "ADL", "ADL"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pair_statistic_refuses_non_finite_scores_as_the_curve_does(self, bad):
        for scores in ([bad, 0.1], [0.9, bad]):
            for route in (ev.pairwise_auc, ev.roc_curve):
                with pytest.raises(ValueError, match="^scores must be finite$"):
                    route(scores, ["FALL", "ADL"])

    def test_monotone_transforms_leave_the_curve_alone(self, rng):
        scores, labels = random_scored_set(rng, tie_prone=True)
        base = ev.roc_curve(scores, labels)
        for transform in (lambda s: 2.0 * s + 1.0, np.exp):
            moved = ev.roc_curve(transform(np.asarray(scores)), labels)
            assert np.array_equal(base.fpr, moved.fpr)
            assert np.array_equal(base.tpr, moved.tpr)
            assert ev.auc(base) == ev.auc(moved)

    def test_sweep_invariants(self, rng):
        for trial in range(20):
            scores, labels = random_scored_set(rng, tie_prone=trial % 2 == 0)
            curve = ev.roc_curve(scores, labels)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert len(curve) == len(np.unique(scores)) + 1
            assert np.all(np.diff(curve.thresholds) < 0)

    def test_enum_labels_accepted(self):
        curve = ev.roc_curve([1.0, 0.0], [Label.FALL, Label.ADL])
        assert ev.auc(curve) == 1.0

    def test_unknown_label_rejected_by_name(self):
        for labels in (["FALL", "ADL", "fall"], [Label.FALL, "ADL", "fall"]):
            with pytest.raises(ValueError, match=r"^unknown labels \['fall'\]$"):
                ev.roc_curve([1.0, 0.0, 0.5], labels)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            ev.roc_curve([0.1, 0.2], ["ADL", "ADL"])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ev.roc_curve([np.nan, 0.2], ["FALL", "ADL"])

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RocCurve([0.0, 0.5], [0.4, 0.2], [2.0, 1.0])  # tpr decreasing
        with pytest.raises(ValueError):
            RocCurve([0.0, 0.5], [0.0, 1.0], [2.0, 1.0])  # fpr stops short


class TestColumnAucs:
    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ev._column_aucs(np.array([[0.5, np.inf], [0.2, 0.1]]), np.array([True, False]))

    def test_best_candidate_sums_in_fold_order_and_ties_go_first(self):
        pos = np.array([True, False, True, False])
        splits = [(None, np.arange(4)), (None, np.arange(4))]
        # columns 1 and 2 tie on the best total; column 0 ranks every fall last
        table = np.array([[0.0, 0.9, 0.9], [1.0, 0.1, 0.1], [0.0, 0.8, 0.8], [1.0, 0.2, 0.2]])
        best, mean = ev._best_candidate(["a", "b", "c"], pos, splits, np.vstack([table, table]))
        assert (best, mean) == ("b", 1.0)
        assert type(mean) is float


class TestAverageRoc:
    def test_grid_shape_and_envelope_of_perfect_curve(self):
        perfect = ev.roc_curve([0.9, 0.1], ["FALL", "ADL"])
        avg = ev.average_roc([perfect])
        assert len(avg) == 1001
        assert np.array_equal(avg.fpr, ev.roc_grid())
        # at FPR 0 the envelope keeps the highest TPR of the step
        assert np.all(avg.tpr == 1.0)
        assert np.all(np.isfinite(avg.thresholds))

    def test_single_curve_is_its_own_interpolation(self):
        curve = RocCurve([0.0, 0.5, 1.0], [0.0, 0.8, 1.0], [np.inf, 2.0, 1.0])
        avg = ev.average_roc([curve])
        assert avg.tpr[500] == pytest.approx(0.8, abs=1e-12)
        assert avg.tpr[250] == pytest.approx(0.4, abs=1e-12)
        # infinite endpoint clamps to the largest finite threshold
        assert avg.thresholds[0] == 2.0

    def test_averaging_is_idempotent_on_copies(self):
        curve = RocCurve([0.0, 0.3, 1.0], [0.0, 0.6, 1.0], [np.inf, 1.5, 0.5])
        one = ev.average_roc([curve])
        many = ev.average_roc([curve, curve, curve])
        # mean of identical copies reproduces them up to summation rounding
        assert np.max(np.abs(one.tpr - many.tpr)) <= 1e-15
        assert np.max(np.abs(one.thresholds - many.thresholds)) <= 1e-14

    def test_perfect_plus_diagonal(self):
        perfect = ev.roc_curve([0.9, 0.1], ["FALL", "ADL"])
        diagonal = ev.roc_curve([0.5, 0.5], ["FALL", "ADL"])
        avg = ev.average_roc([perfect, diagonal])
        grid = ev.roc_grid()
        assert np.max(np.abs(avg.tpr - (1.0 + grid) / 2.0)) <= 1e-12
        assert ev.auc(avg) == pytest.approx(0.75, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientData):
            ev.average_roc([])


class TestOperatingPoint:
    def test_perfect_curve_gives_unit_rates(self):
        avg = ev.average_roc([ev.roc_curve([0.9, 0.1], ["FALL", "ADL"])])
        op = ev.select_operating_point(avg)
        assert op.se == 1.0 and op.sp == 1.0 and op.gm == 1.0

    def test_two_candidate_curve(self):
        curve = RocCurve([0.0, 0.2, 1.0], [0.9, 1.0, 1.0], [5.0, 3.0, 1.0])
        op = ev.select_operating_point(curve)
        assert (op.se, op.sp) == (0.9, 1.0)
        assert op.threshold == 5.0
        assert op.gm == pytest.approx(np.sqrt(0.9), abs=1e-12)

    def test_gm_tie_prefers_higher_sensitivity(self):
        curve = RocCurve(
            [0.0, 0.2, 0.5, 1.0], [0.0, 0.5, 0.8, 1.0], [np.inf, 3.0, 2.0, 1.0]
        )
        op = ev.select_operating_point(curve)
        assert (op.se, op.sp) == (0.8, 0.5)
        assert op.threshold == 2.0

    def test_full_tie_prefers_lower_threshold(self):
        curve = RocCurve(
            [0.0, 0.3, 0.3, 1.0], [0.0, 0.6, 0.6, 1.0], [np.inf, 5.0, 4.0, 1.0]
        )
        op = ev.select_operating_point(curve)
        assert op.threshold == 4.0

    def test_diagonal_balances_rates(self):
        diagonal = ev.average_roc([ev.roc_curve([0.5, 0.5], ["FALL", "ADL"])])
        op = ev.select_operating_point(diagonal)
        assert op.se == pytest.approx(0.5, abs=1e-9)
        assert op.sp == pytest.approx(0.5, abs=1e-9)


class TestEvalReportValidation:
    def make(self, **overrides):
        curve = RocCurve([0.0, 1.0], [0.0, 1.0], [np.inf, 0.0])
        base = dict(
            collection_id="C1",
            feature_kind="MAGNITUDE",
            window_len=51,
            variant="OC_KNN",
            fold_aucs=[0.5],
            fold_params=[{"k": 1}],
            fold_test_indices=[[0]],
            mean_auc=0.5,
            se=0.5,
            sp=0.5,
            gm=0.5,
            threshold=1.0,
            averaged_curve=curve,
            counts={"ADL": 1, "FALL": 1},
            seed=0,
            config={},
        )
        base.update(overrides)
        return ev.EvalReport(**base)

    def test_gm_must_match_rates(self):
        with pytest.raises(ValueError):
            self.make(gm=0.9)

    def test_metrics_must_be_rates(self):
        with pytest.raises(ValueError):
            self.make(mean_auc=1.2)


class TestCellInputs:
    @pytest.fixture(scope="class")
    def large_collection(self):
        """2000 synthetic windows of 300 samples, each with its peak."""
        return ingest.build_collection("C1", synth.synth_windows(1800, 200, seed=5), seed=3)

    @staticmethod
    def peak_of(run):
        tracemalloc.start()
        try:
            out = run()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["ACCEL_FEATURES", "LTP"])
    def test_a_triple_holds_its_matrix_and_one_chunk(self, large_collection, kind):
        L = 128
        windows = [inst.window for inst in large_collection.instances]
        # one chunk of windows, cut beforehand, extracted on its own
        per_chunk = max(1, features._CHUNK_BYTES // (3 * 8 * L))
        chunk = [ingest.window_at_length(w, L) for w in windows[:per_chunk]]
        _, working_set = self.peak_of(lambda: features.extract_matrix(chunk, FeatureKind(kind)))
        inputs, peak = self.peak_of(lambda: ev.cell_inputs(large_collection, kind, L))
        # slack for what is kept per window, about 0.1 kB: the list of its
        # window, its cut start and its label; the cut windows and their
        # (windows, 3, L) stack alone would take 12 MB
        assert peak <= inputs.X.nbytes + working_set + 512 * 1024
        rows = features.extract_matrix([ingest.window_at_length(w, L) for w in windows],
                                       FeatureKind(kind))
        assert np.array_equal(inputs.X.view(np.int64), rows.view(np.int64))


class TestRunExperiment:
    def test_separable_collection_scores_high(self, small_collection):
        cfg = GridConfig(k_grid=(1, 2, 3), inner_folds=4)
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        assert report.mean_auc >= 0.99
        assert len(report.fold_aucs) == 10
        assert report.counts == {"ADL": 60, "FALL": 20}
        assert all(p["k"] in (1, 2, 3) for p in report.fold_params)
        assert all(p["inner_mean_auc"] is not None for p in report.fold_params)
        assert len(report.averaged_curve) == 1001

    def test_fold_test_indices_partition_the_collection(self, small_collection):
        cfg = GridConfig(k_grid=(3,), inner_folds=4)
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "TC_KNN", cfg)
        seen = sorted(i for fold in report.fold_test_indices for i in fold)
        assert seen == list(range(len(small_collection)))
        plan = small_collection.fold_plan
        for f, fold in enumerate(report.fold_test_indices):
            assert fold == [int(i) for i in plan.test_indices(f)]

    def test_singleton_grid_skips_inner_cv(self, small_collection):
        cfg = GridConfig(k_grid=(5,))
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        assert all(p["k"] == 5 for p in report.fold_params)
        assert all(p["inner_mean_auc"] is None for p in report.fold_params)

    def test_svm_cells_report_their_choices(self, small_collection):
        cfg = GridConfig(c_grid=(10.0,), gamma_grid=("auto",), nu_grid=(0.1,))
        tc = ev.run_experiment(small_collection, "ACCEL_FEATURES", 51, "TC_SVM", cfg)
        assert tc.mean_auc >= 0.99
        for p in tc.fold_params:
            assert p["C"] == 10.0
            assert p["gamma"] == "auto"
            assert isinstance(p["gamma_resolved"], float)
            assert p["converged"] is True
        oc = ev.run_experiment(small_collection, "ACCEL_FEATURES", 51, "OC_SVM", cfg)
        assert oc.mean_auc >= 0.99
        assert all(p["nu"] == 0.1 for p in oc.fold_params)

    def test_enum_and_string_cell_names_agree(self, small_collection):
        from falldetect.classifiers import Variant
        from falldetect.features import FeatureKind

        cfg = GridConfig(k_grid=(1,))
        a = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        b = ev.run_experiment(
            small_collection, FeatureKind.MAGNITUDE, 51, Variant.OC_KNN, cfg
        )
        assert report_bits(a) == report_bits(b)

    def test_repeat_runs_are_identical(self, small_collection):
        cfg = GridConfig(k_grid=(1, 2), inner_folds=4)
        a = ev.run_experiment(small_collection, "LTP", 51, "TC_KNN", cfg)
        b = ev.run_experiment(small_collection, "LTP", 51, "TC_KNN", cfg)
        assert report_bits(a) == report_bits(b)

    def test_fold_failures_name_the_fold(self, small_collection):
        cfg = GridConfig(k_grid=(500,))
        with pytest.raises(InvalidK, match="outer fold 0"):
            ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)

    @pytest.mark.parametrize("variant", ["OC_KNN", "TC_KNN", "OC_SVM", "TC_SVM"])
    def test_run_experiment_is_its_composition(self, small_collection, variant):
        """The shared inputs, each fold step and the assembly give the
        report bit for bit, whatever order the folds run in.  Given inputs
        give the report of a call that builds them, and one CellInputs
        serves two variants of its triple."""
        cfg = GridConfig(k_grid=(1, 2, 3), c_grid=(1.0, 10.0), nu_grid=(0.1, 0.5),
                         gamma_grid=("auto", 0.1), inner_folds=4)
        cell = (small_collection, "ACCEL_FEATURES", 51, variant)
        whole = ev.run_experiment(*cell, cfg)
        inputs = ev.cell_inputs(*cell[:3], cfg)
        n = inputs.plan.num_folds
        folds = {f: ev.run_folds(inputs, variant, [f], cfg)[0] for f in reversed(range(n))}
        parts = ev.assemble_report(*cell, [folds[f] for f in range(n)], cfg)
        assert report_bits(parts) == report_bits(whole)
        for f, fold in folds.items():
            assert fold.auc == whole.fold_aucs[f]
            assert fold.params == whole.fold_params[f]
        partner = {"OC_KNN": "TC_KNN", "TC_SVM": "OC_SVM"}.get(variant)
        if partner is not None:
            built = ev.run_experiment(*cell[:3], partner, cfg)
            again = ev.run_experiment(*cell, cfg, inputs=inputs)
            assert report_bits(again) == report_bits(whole)
            given = ev.run_experiment(*cell[:3], partner, cfg, inputs=inputs)
            assert report_bits(given) == report_bits(built)

    def test_inner_folds_are_planned_once_per_triple(self, small_collection, monkeypatch):
        """The four variants of a triple, sharing its CellInputs, plan each
        outer fold's inner folds once between them, and report what each
        gives when it plans its own."""
        cfg = GridConfig(k_grid=(1, 2, 3), c_grid=(1.0, 10.0), nu_grid=(0.1, 0.5),
                         gamma_grid=("auto", 0.1), inner_folds=4)
        triple = (small_collection, "ACCEL_FEATURES", 51)
        variants = ("OC_KNN", "TC_KNN", "OC_SVM", "TC_SVM")
        alone = [report_bits(ev.run_experiment(*triple, v, cfg)) for v in variants]
        seeds = []
        real = ev.plan_folds

        def counted(labels, num_folds, seed):
            seeds.append(seed)
            return real(labels, num_folds=num_folds, seed=seed)

        monkeypatch.setattr(ev, "plan_folds", counted)
        inputs = ev.cell_inputs(*triple, cfg)
        shared = [report_bits(ev.run_experiment(*triple, v, cfg, inputs=inputs))
                  for v in variants]
        assert shared == alone
        n = inputs.plan.num_folds
        assert sorted(seeds) == sorted(ev._inner_seed(small_collection.seed, f) for f in range(n))

    def test_custom_ltp_params_are_used(self, small_collection):
        from falldetect.features import LtpParams

        cfg = GridConfig(k_grid=(1,), ltp_params=LtpParams(num_neighbours=2))
        report = ev.run_experiment(small_collection, "LTP", 51, "OC_KNN", cfg)
        assert report.config["ltp_params"]["num_neighbours"] == 2


class TestReportIo:
    def test_json_roundtrip(self, small_collection, tmp_path):
        cfg = GridConfig(k_grid=(2,))
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        path = tmp_path / "report.json"
        ev.save_report_json(report, path)
        loaded = ev.report_from_dict(json.loads(path.read_text()))
        # every field but the curve, which only the ROC CSV records
        assert report_bits(loaded) == report_bits(replace(report, averaged_curve=None))

    def test_roc_csv_roundtrip(self, tmp_path):
        curve = ev.average_roc([ev.roc_curve([0.9, 0.4, 0.1], ["FALL", "ADL", "ADL"])])
        path = tmp_path / "roc.csv"
        ev.write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) == 1002
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(values[:, 0], curve.fpr)
        assert np.array_equal(values[:, 1], curve.tpr)
        assert np.array_equal(values[:, 2], curve.thresholds)

    def test_report_dict_has_exactly_the_report_fields(self, small_collection):
        from dataclasses import fields

        cfg = GridConfig(k_grid=(2,))
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        doc = ev.report_to_dict(report)
        assert sorted(doc) == sorted(f.name for f in fields(ev.EvalReport)
                                     if f.name != "averaged_curve")
        assert all(doc[name] is getattr(report, name) for name in doc)

    @pytest.mark.parametrize(
        "cfg, ltp",
        [
            (GridConfig(), {"num_neighbours": 6, "step": 1.0}),
            (GridConfig(ltp_params=LtpParams(num_neighbours=4, step=0.5)),
             {"num_neighbours": 4, "step": 0.5}),
        ],
        ids=["defaults", "ltp params"],
    )
    def test_config_dict_is_json_ready(self, cfg, ltp):
        doc = cfg.to_dict()
        assert doc == {
            "k_grid": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "c_grid": [0.1, 1.0, 10.0, 100.0],
            "gamma_grid": ["auto", 0.01, 0.1, 1.0],
            "nu_grid": [0.01, 0.05, 0.1, 0.2],
            "inner_folds": 10,
            "svm_tol": 1e-3,
            "svm_max_iter": None,
            "ltp_params": ltp,
        }
        # lists, not tuples, so the dict survives a JSON round trip unchanged
        assert all(type(doc[k]) is list for k in ("k_grid", "c_grid", "gamma_grid", "nu_grid"))
        assert json.loads(json.dumps(doc)) == doc

    def test_summary_row_fields(self, small_collection):
        cfg = GridConfig(k_grid=(1,))
        report = ev.run_experiment(small_collection, "MAGNITUDE", 51, "OC_KNN", cfg)
        row = ev.summary_row(report)
        assert row["collection"] == "C1"
        assert row["feature"] == "MAGNITUDE"
        assert row["window"] == 51
        assert row["classifier"] == "OC_KNN"
        assert set(row) == {
            "collection", "feature", "window", "classifier", "auc", "se", "sp", "gm",
        }
