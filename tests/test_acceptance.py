"""Acceptance gate: one test per numbered criterion.

Each test is named test_criterion_NN_<label>; conftest echoes a one-line
PASS/FAIL/SKIP verdict per criterion after the run.  Criteria 1 to 9 run on
generated data only and together stay well under the five minute budget.
Criteria 10 to 12 rerun experiment cells on the two public datasets and
compare against the reference figures recorded for them; they are skipped
unless FALLDETECT_DATASET1 / FALLDETECT_DATASET2 point at local copies.
"""

import json
import os
import warnings

import numpy as np
import pytest

from tests.conftest import distance_block, knn_bruteforce_oracle, knn_oracle_scores, random_window
from falldetect import cli, classifiers, synth
from falldetect.classifiers import (
    ConvergenceWarning,
    KnnPrep,
    _k_smallest_rows,
    knn_mean_distances_all_k,
    score_batch,
    standardize_apply,
    train_oc_knn,
    train_oc_svm,
    train_tc_knn,
    train_tc_svm,
)
from falldetect.evaluation import (
    GridConfig,
    auc,
    average_roc,
    pairwise_auc,
    roc_curve,
    run_experiment,
    select_operating_point,
)
from falldetect.features import (
    FeatureKind,
    LtpParams,
    _energy,
    extract,
    extract_matrix,
)
from falldetect.ingest import build_collection, parse_dataset1, parse_dataset2

KINDS = ("RAW", "MAGNITUDE", "ACCEL_FEATURES", "LTP")
VARIANTS = ("OC_KNN", "TC_KNN", "OC_SVM", "TC_SVM")

_D1 = os.environ.get("FALLDETECT_DATASET1")
_D2 = os.environ.get("FALLDETECT_DATASET2")
needs_d1 = pytest.mark.skipif(not _D1, reason="FALLDETECT_DATASET1 not set")
needs_both = pytest.mark.skipif(
    not (_D1 and _D2), reason="FALLDETECT_DATASET1 and FALLDETECT_DATASET2 not set"
)


def ltp_bruteforce(window, params):
    """Triple-loop reference: count threshold crossings one level at a time."""
    m = np.sqrt(window.x ** 2 + window.y ** 2 + window.z ** 2)
    length = len(m)
    step = params.step
    levels = 0
    top = float(m.max())
    while levels * step < top:
        levels += 1
    before = params.num_neighbours // 2
    offsets = [-d for d in range(before, 0, -1)]
    offsets += list(range(1, params.num_neighbours - before + 1))
    out = []
    for s in range(length):
        for off in offsets:
            i = min(max(s + off, 0), length - 1)
            count = 0
            for j in range(levels + 1):
                if m[s] > m[i] + j * step:
                    count += 1
            out.append(count)
    return np.array(out, dtype=np.float64)


def tc_kkt_violation(model, vectors, labels):
    """Largest complementary-slackness violation over all training points.

    Support vectors are matched back to their training rows bitwise (they
    are slices of the standardized matrix); unmatched rows carry alpha 0.
    """
    params = model.parameters
    X = np.asarray(vectors, dtype=np.float64)
    Xs = standardize_apply(X, params.mean, params.scale)
    sv_index = {row.tobytes(): j for j, row in enumerate(params.support_vectors)}
    alpha = np.zeros(len(X))
    for i, row in enumerate(Xs):
        j = sv_index.get(row.tobytes())
        if j is not None:
            alpha[i] = params.alpha[j]
    y = np.where(np.array(labels) == "FALL", 1.0, -1.0)
    margins = y * score_batch(model, X)
    at_zero = alpha <= 1e-9
    at_c = alpha >= params.C - 1e-9
    free = ~(at_zero | at_c)
    viol = np.zeros(len(X))
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[free] = np.abs(margins[free] - 1.0)
    return float(viol.max())


def test_criterion_01_feature_dimensions():
    expected = {
        ("RAW", 51): 153,
        ("RAW", 128): 384,
        ("MAGNITUDE", 51): 51,
        ("MAGNITUDE", 128): 128,
        ("ACCEL_FEATURES", 51): 12,
        ("ACCEL_FEATURES", 128): 12,
        ("LTP", 51): 306,
        ("LTP", 128): 768,
    }
    rng = np.random.default_rng(11)
    for length in (51, 128):
        windows = [random_window(rng, length, scale=1.5) for _ in range(1000)]
        for kind in KINDS:
            mat = extract_matrix(windows, FeatureKind(kind), LtpParams(), length)
            assert mat.shape == (1000, expected[(kind, length)]), (kind, length)


def test_criterion_02_energy_matches_time_domain_norm():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(8, 257))
        a = rng.normal(0.0, float(rng.uniform(0.2, 2.0)), length)
        ref = float(np.sqrt((a * a).sum()))
        worst = max(worst, abs(_energy(a) - ref) / ref)
    assert worst <= 1e-9


def test_criterion_03_ltp_matches_bruteforce_oracle():
    rng = np.random.default_rng(33)
    params = LtpParams()
    for length in (51, 128):
        for _ in range(250):
            w = random_window(rng, length, scale=float(rng.uniform(0.5, 2.5)))
            produced = extract(w, FeatureKind.LTP, params)
            assert np.array_equal(produced, ltp_bruteforce(w, params))


def test_criterion_04_knn_matches_exhaustive_oracle(monkeypatch):
    # Every kNN route, the library trainers and the KnnPrep every reported
    # AUC comes from, from candidates and from its matrix, in and over its
    # matrix budget, equals the oracle bit for bit for every k.
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(10):
        m = int(rng.integers(12, 61))
        d = int(rng.integers(2, 11))
        train = rng.normal(0.0, 1.0, (m, d))
        queries = rng.normal(0.0, 1.0, (20, d))
        fall = rng.normal(0.5, 1.0, (int(rng.integers(10, 31)), d))
        # the last query sits on a row of both pools: dA = dF = 0 at k = 1
        fall[0] = train[0]
        queries = np.vstack([queries, train[0]])
        block = distance_block(train, queries)
        table = knn_mean_distances_all_k(block, 10)
        nearest = {k: _k_smallest_rows(block, k) for k in range(1, 11)}
        oc = knn_oracle_scores(train, None, queries, 10)
        tc = knn_oracle_scores(train, fall, queries, 10)
        for qi in range(len(queries)):
            oracle = knn_bruteforce_oracle(train, queries[qi], 10)
            for k in range(1, 11):
                assert np.array_equal(nearest[k][qi], oracle[:k])
                assert table[qi, k - 1] == oracle[:k].sum() / k == oc[qi, k - 1]
            checked += 1
        assert tc[-1, 0] == 0.5

        both = np.vstack([train, fall])
        labels = ["ADL"] * m + ["FALL"] * len(fall)
        for k in range(1, 11):
            assert np.array_equal(score_batch(train_oc_knn(train, k), queries), oc[:, k - 1])
            assert np.array_equal(score_batch(train_tc_knn(both, labels, k), queries), tc[:, k - 1])

        rows = np.vstack([train, fall, queries])
        adl_at = np.arange(m)
        fall_at = m + np.arange(len(fall))
        query_at = m + len(fall) + np.arange(len(queries))
        for over_budget in (False, True):
            with monkeypatch.context() as mp:
                if over_budget:
                    mp.setattr(classifiers, "_CACHE_BUDGET_BYTES", 0)
                prep = KnnPrep(rows)
                for searched in (False, True):
                    if searched:
                        prep.build_matrix()
                    assert (prep._D is None) == (over_budget or not searched)
                    assert np.array_equal(prep.scores_all_k(adl_at, None, [query_at], 10), oc)
                    assert np.array_equal(prep.scores_all_k(adl_at, fall_at, [query_at], 10), tc)
    assert checked == 210


def test_criterion_05_auc_dual_route_agreement():
    rng = np.random.default_rng(55)
    tie_pool = np.array([-1.0, 0.0, 0.25, 1.5])
    for trial in range(500):
        n_pos = int(rng.integers(1, 41))
        n_neg = int(rng.integers(1, 41))
        n = n_pos + n_neg
        if trial % 2:
            scores = rng.choice(tie_pool, n)
        else:
            scores = rng.normal(0.0, 1.0, n)
        labels = ["FALL"] * n_pos + ["ADL"] * n_neg
        trapezoid = auc(roc_curve(scores, labels))
        pair_statistic = pairwise_auc(scores, labels)
        assert abs(trapezoid - pair_statistic) <= 1e-12


def test_criterion_06_svm_kkt_and_outlier_bound():
    rng = np.random.default_rng(66)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        m_half = int(rng.integers(15, 41))
        sep = float(rng.uniform(0.5, 2.5))
        X = np.vstack(
            [rng.normal(0.0, 1.0, (m_half, d)), rng.normal(sep, 1.0, (m_half, d))]
        )
        labels = ["ADL"] * m_half + ["FALL"] * m_half
        C = float(rng.choice([0.1, 1.0, 10.0, 100.0]))
        # generous pass budget so hard C=100 overlaps still close the gap
        model = train_tc_svm(X, labels, C=C, max_iter=400 * m_half)
        assert model.training_summary["converged"]
        assert tc_kkt_violation(model, X, labels) <= 1e-3
        p = model.parameters
        assert abs(float(p.alpha @ p.support_labels)) <= 1e-6

    for _ in range(20):
        d = int(rng.integers(2, 9))
        X = rng.normal(0.0, 1.0, (500, d))
        nu = float(rng.choice([0.05, 0.1, 0.2]))
        model = train_oc_svm(X, nu=nu)
        assert model.training_summary["converged"]
        outlier_fraction = float(np.mean(score_batch(model, X) > 0.0))
        assert outlier_fraction <= nu + 0.05


def test_criterion_07_separable_and_shuffled_sanity(small_collection):
    # Separable half: synthetic falls carry a distinct impact pattern, so
    # every cell should be nearly perfect.  Single-point SVM grids keep the
    # runtime down; the 0.5 g level step matches the synthetic scale.
    cfg = GridConfig(
        c_grid=(10.0,),
        gamma_grid=("auto",),
        nu_grid=(0.1,),
        ltp_params=LtpParams(step=0.5),
    )
    for kind in KINDS:
        for wlen in (51, 128):
            for var in VARIANTS:
                rep = run_experiment(small_collection, kind, wlen, var, cfg)
                assert rep.mean_auc >= 0.99, (kind, wlen, var, rep.mean_auc)

    # Shuffled half: permuting labels must push every variant to chance.
    pairs = synth.synth_windows(800, 200, seed=5)
    labels = [lab for _, lab in pairs]
    perm = np.random.default_rng(99).permutation(len(labels))
    shuffled = [(pairs[i][0], labels[perm[i]]) for i in range(len(pairs))]
    col = build_collection("C1", shuffled, seed=11)
    null_cfg = GridConfig(k_grid=(5,), c_grid=(1.0,), gamma_grid=("auto",), nu_grid=(0.1,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for var in VARIANTS:
            rep = run_experiment(col, "ACCEL_FEATURES", 51, var, null_cfg)
            assert 0.42 <= rep.mean_auc <= 0.58, (var, rep.mean_auc)


def test_criterion_08_pipeline_determinism(tmp_path):
    cfg = {
        "seed": 7,
        "adl": 30,
        "falls": 12,
        "collections": ["C1"],
        "features": ["MAGNITUDE"],
        "classifiers": list(VARIANTS),
        "c_grid": [1.0],
        "gamma_grid": ["auto"],
        "nu_grid": [0.1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    summaries = []
    for name in ("a", "b"):
        data = tmp_path / name / "data"
        work = tmp_path / name / "work"
        base = ["--config", str(cfg_path)]
        assert cli.main(["synth", *base, "--out", str(data)]) == 0
        assert cli.main(["ingest", *base, "--dataset1", str(data), "--out", str(work)]) == 0
        assert cli.main(["run", *base, "--dataset1", str(data), "--out", str(work)]) == 0
        summaries.append((work / "summary.csv").read_bytes())
    assert summaries[0] == summaries[1]
    lines = summaries[0].decode().strip().splitlines()
    assert len(lines) == 1 + 8  # header plus one feature x two windows x four variants
    assert all(line.split(",")[8] == "ok" for line in lines[1:])


def test_criterion_09_operating_point_fixtures():
    # All-tied scores average to the diagonal; its best balanced point is
    # the middle.  A perfectly separated set must yield the top-left corner.
    tied = roc_curve(np.full(10, 0.25), ["FALL"] * 5 + ["ADL"] * 5)
    op = select_operating_point(average_roc([tied]))
    assert abs(op.se - 0.5) <= 1e-9
    assert abs(op.sp - 0.5) <= 1e-9

    scores = np.array([1.0] * 5 + [-1.0] * 5)
    perfect = roc_curve(scores, ["FALL"] * 5 + ["ADL"] * 5)
    op = select_operating_point(average_roc([perfect]))
    assert op.se == 1.0
    assert op.sp == 1.0


@needs_d1
def test_criterion_10_c1_raw128_tc_svm_reference_auc():
    col = build_collection("C1", parse_dataset1(_D1), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        rep = run_experiment(col, "RAW", 128, "TC_SVM", GridConfig())
    assert abs(rep.mean_auc - 0.989) <= 0.03


@needs_d1
def test_criterion_11_c1_raw51_oc_knn_reference_point():
    col = build_collection("C1", parse_dataset1(_D1), seed=0)
    rep = run_experiment(col, "RAW", 51, "OC_KNN", GridConfig())
    assert abs(rep.mean_auc - 0.980) <= 0.03
    assert abs(rep.se - 0.980) <= 0.03
    assert abs(rep.sp - 0.940) <= 0.03


@needs_both
def test_criterion_12_qualitative_orderings():
    d1 = parse_dataset1(_D1)
    d2 = parse_dataset2(_D2)
    cols = {cid: build_collection(cid, d1, d2, seed=0) for cid in ("C1", "C2", "C3")}
    cache = {}

    def cell_auc(cid, kind, wlen, var):
        key = (cid, kind, wlen, var)
        if key not in cache:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                cache[key] = run_experiment(cols[cid], kind, wlen, var, GridConfig()).mean_auc
        return cache[key]

    # Raw samples should dominate the derived features for both kNN variants.
    for cid in ("C1", "C2"):
        for wlen in (51, 128):
            for var in ("OC_KNN", "TC_KNN"):
                raw = cell_auc(cid, "RAW", wlen, var)
                for kind in KINDS[1:]:
                    assert raw >= cell_auc(cid, kind, wlen, var) - 1e-12, (cid, wlen, var, kind)

    # The cross-dataset collection is easy for everything but one cell.
    for wlen in (51, 128):
        for kind in KINDS:
            for var in VARIANTS:
                if kind == "MAGNITUDE" and var == "OC_SVM":
                    continue
                assert cell_auc("C3", kind, wlen, var) > 0.95, (kind, wlen, var)

    # One-class and two-class SVMs should sit close together on raw data.
    for cid in ("C1", "C2"):
        gap = abs(cell_auc(cid, "RAW", 51, "OC_SVM") - cell_auc(cid, "RAW", 51, "TC_SVM"))
        assert gap <= 0.02, (cid, gap)
