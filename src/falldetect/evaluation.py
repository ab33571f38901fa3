"""ROC analysis and nested cross-validation orchestration.

A fold's scores become a threshold-swept ROC curve; fold curves are
vertically averaged on a fixed grid, and the reported operating point
maximizes the geometric mean of sensitivity and specificity on that
averaged curve.  Hyperparameters are chosen per outer fold by an inner
cross-validation that never sees the outer test split.
"""

import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import classifiers
from .classifiers import (
    DEFAULT_C_GRID,
    DEFAULT_GAMMA_GRID,
    DEFAULT_K_GRID,
    DEFAULT_NU_GRID,
    SVM_TOL,
    Variant,
    score_batch,
)
from .errors import (
    ConvergenceWarning,
    DegenerateLabels,
    FalldetectError,
    InsufficientData,
    InvalidK,
)
from .features import FeatureKind, LtpParams, extract_matrix
from .ingest import (
    FoldPlan,
    is_fall_mask,
    plan_folds,
    window_at_length,
    _atomic_write_text,
    _write_json,
)

ROC_GRID_POINTS = 1001
_STREAM_INNER = 303


@dataclass
class RocCurve:
    """Threshold-swept (FPR, TPR) points; FALL is the positive class."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        self.fpr = np.asarray(self.fpr, dtype=np.float64)
        self.tpr = np.asarray(self.tpr, dtype=np.float64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if not (len(self.fpr) == len(self.tpr) == len(self.thresholds)) or len(self.fpr) == 0:
            raise ValueError("fpr, tpr, thresholds must be non-empty and equally long")
        if np.any(np.diff(self.fpr) < 0) or np.any(np.diff(self.tpr) < 0):
            raise ValueError("fpr and tpr must be non-decreasing along the sweep")
        if self.fpr[0] != 0.0 or self.fpr[-1] != 1.0:
            raise ValueError("curve must span FPR 0 through 1")
        for arr in (self.fpr, self.tpr):
            if arr[0] < 0 or arr[-1] > 1:
                raise ValueError("rates must lie in [0, 1]")

    def __len__(self):
        return len(self.fpr)


def roc_curve(scores, labels):
    """Sweep "fall iff score >= t" over the distinct scores, high to low.

    Tied scores enter together, so the curve has one point per distinct
    threshold plus the (0, 0) start at t = +inf.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = is_fall_mask(labels)
    if len(pos) != len(scores):
        raise ValueError("scores and labels must correspond one to one")
    s, fpr, tpr, keep = _sweep(scores[:, None], pos)
    keep = keep[:, 0]
    return RocCurve(fpr[keep, 0], tpr[keep, 0], np.r_[np.inf, s[:, 0]][keep])


def _sweep(table, pos):
    """The ROC sweep of every column of a score table (Fawcett 2006).

    One stable sort of the whole table and one pair of cumulative sums.
    Returns the sorted scores s and, per column, the rates fpr and tpr
    with the (0, 0) start as row 0 and row r + 1 the state once the r + 1
    highest scores have entered, and keep: the start and the last row of
    every tie group, the state after the whole group enters.
    """
    if not np.all(np.isfinite(table)):
        raise ValueError("scores must be finite")
    P = int(pos.sum())
    N = len(pos) - P
    if P == 0 or N == 0:
        raise DegenerateLabels(f"need both classes, got {P} positives and {N} negatives")
    order = np.argsort(-table, axis=0, kind="stable")
    s = np.take_along_axis(table, order, axis=0)
    y = pos[order]
    n, cols = table.shape
    fpr = np.zeros((n + 1, cols))
    tpr = np.zeros((n + 1, cols))
    fpr[1:] = np.cumsum(~y, axis=0) / N
    tpr[1:] = np.cumsum(y, axis=0) / P
    keep = np.ones((n + 1, cols), dtype=bool)
    keep[1:-1] = s[1:] != s[:-1]
    return s, fpr, tpr, keep


def _trapezoid(f, t):
    return np.sum(np.diff(f) * (t[1:] + t[:-1]) / 2.0)


def auc(curve):
    """Trapezoidal area under the curve over the FPR axis."""
    return float(_trapezoid(curve.fpr, curve.tpr))


def _column_aucs(table, pos):
    """auc(roc_curve(table[:, c], pos)) for every column c, bit for bit:
    one sweep of the whole table, then each column's trapezoid over the
    points it keeps."""
    _, fpr, tpr, keep = _sweep(table, pos)
    return np.array([_trapezoid(fpr[keep[:, c], c], tpr[keep[:, c], c])
                     for c in range(table.shape[1])])


def pairwise_auc(scores, labels):
    """Mann-Whitney statistic: P(fall outscores ADL), ties counted half.

    Independent route to the same quantity as auc(roc_curve(...)); the two
    must agree to floating-point accuracy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = is_fall_mask(labels)
    ps = scores[pos]
    ns = scores[~pos]
    if len(ps) == 0 or len(ns) == 0:
        raise DegenerateLabels("need both classes for a pair statistic")
    diff = ps[:, None] - ns[None, :]
    wins = np.count_nonzero(diff > 0)
    ties = np.count_nonzero(diff == 0)
    return (wins + 0.5 * ties) / (len(ps) * len(ns))


def _upper_envelope(curve):
    """Unique-FPR view keeping the highest TPR at each FPR value."""
    keep = np.flatnonzero(np.r_[np.diff(curve.fpr) != 0, True])
    f = curve.fpr[keep]
    t = curve.tpr[keep]
    th = curve.thresholds[keep].copy()
    finite = np.isfinite(th)
    if not finite.all():
        th[~finite] = th[finite].max() if finite.any() else 0.0
    return f, t, th


def roc_grid():
    return np.arange(ROC_GRID_POINTS) / (ROC_GRID_POINTS - 1.0)


def average_roc(curves):
    """Vertical averaging: mean TPR at each of 1001 fixed FPR grid points.

    Each curve contributes its linearly interpolated TPR (and threshold,
    with the infinite endpoint clamped to the largest finite one) at every
    grid FPR; grid-point values are then averaged across curves.
    """
    curves = list(curves)
    if not curves:
        raise InsufficientData("need at least one curve to average")
    grid = roc_grid()
    tprs = np.empty((len(curves), len(grid)))
    thrs = np.empty((len(curves), len(grid)))
    for i, c in enumerate(curves):
        f, t, th = _upper_envelope(c)
        tprs[i] = np.interp(grid, f, t)
        thrs[i] = np.interp(grid, f, th)
    return RocCurve(grid, tprs.mean(axis=0), thrs.mean(axis=0))


@dataclass
class OperatingPoint:
    se: float
    sp: float
    threshold: float
    gm: float


def select_operating_point(curve):
    """Point of the curve maximizing sqrt(TPR * (1 - FPR)).

    Ties go to the higher sensitivity, then to the lower threshold.
    """
    se = curve.tpr
    sp = 1.0 - curve.fpr
    gm = np.sqrt(se * sp)
    # lexsort: last key is primary
    idx = int(np.lexsort((-curve.thresholds, se, gm))[-1])
    se_v = float(se[idx])
    sp_v = float(sp[idx])
    return OperatingPoint(
        se=se_v,
        sp=sp_v,
        threshold=float(curve.thresholds[idx]),
        gm=float(np.sqrt(se_v * sp_v)),
    )


@dataclass
class GridConfig:
    """Hyperparameter grids and solver knobs for nested cross-validation."""

    k_grid: tuple = DEFAULT_K_GRID
    c_grid: tuple = DEFAULT_C_GRID
    gamma_grid: tuple = DEFAULT_GAMMA_GRID
    nu_grid: tuple = DEFAULT_NU_GRID
    inner_folds: int = 10
    svm_tol: float = SVM_TOL
    svm_max_iter: int | None = None
    ltp_params: LtpParams | None = None

    def to_dict(self):
        # lists, not tuples, so the dict equals its JSON round trip
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass
class EvalReport:
    """Everything one experiment cell produced, fold by fold."""

    collection_id: str
    feature_kind: str
    window_len: int
    variant: str
    fold_aucs: list
    fold_params: list
    fold_test_indices: list
    mean_auc: float
    se: float
    sp: float
    gm: float
    threshold: float
    averaged_curve: RocCurve
    counts: dict
    seed: int
    config: dict

    def __post_init__(self):
        for name in ("mean_auc", "se", "sp", "gm"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if abs(self.gm - float(np.sqrt(self.se * self.sp))) > 1e-12:
            raise ValueError("gm must equal sqrt(se * sp)")


def _inner_seed(outer_seed, fold):
    return int(np.random.default_rng([outer_seed, _STREAM_INNER, fold]).integers(2 ** 62))


def _has_both_classes(is_fall):
    return 0 < is_fall.sum() < len(is_fall)


def _inner_splits(is_fall, cfg, seed, two_class):
    """(train, validation) index pairs of the inner folds whose validation
    side has both classes (and, for two-class training, whose training
    side does too)."""
    plan = plan_folds(is_fall, num_folds=cfg.inner_folds, seed=seed)
    splits = []
    for g in range(plan.num_folds):
        tr, val = plan.train_indices(g), plan.test_indices(g)
        if _has_both_classes(is_fall[val]) and (not two_class or _has_both_classes(is_fall[tr])):
            splits.append((tr, val))
    if not splits:
        raise InsufficientData("no inner fold has both classes in its validation split")
    return splits


def _best_candidate(candidates, is_fall, splits, scored):
    """The candidate with the highest total inner AUC, ties going to the
    earliest, and its mean inner AUC.

    scored(tr, val) returns one split's validation scores, a column per
    candidate; each candidate sums its AUCs in fold order.
    """
    totals = np.zeros(len(candidates))
    for tr, val in splits:
        totals += _column_aucs(scored(tr, val), is_fall[val])
    best = int(np.argmax(totals))
    return candidates[best], float(totals[best] / len(splits))


def _knn_table(variant, prep, rows, is_fall, queries, k_max):
    """kNN scores of the rows of prep.X at indices queries, a column per k
    in 1..k_max, trained on the rows at indices rows, labelled by is_fall:
    their ADL rows, and for two-class their FALL rows too."""
    fall = rows[is_fall] if variant is Variant.TC_KNN else None
    return prep.scores_all_k(rows[~is_fall], fall, queries, k_max)


def _select_k(variant, prep, rows, is_fall, cfg, seed):
    """k for the training rows of prep.X at indices rows, labelled by
    is_fall; each inner split's scores index prep's shared distances."""
    ks = sorted(set(cfg.k_grid))
    if len(ks) == 1:
        return ks[0], None
    two_class = variant is Variant.TC_KNN
    splits = _inner_splits(is_fall, cfg, seed, two_class)
    # cap k by the smallest training-side class pool across usable folds
    cap = np.inf
    for tr, _ in splits:
        n_fall = int(is_fall[tr].sum())
        n_adl = len(tr) - n_fall
        cap = min(cap, min(n_adl, n_fall) if two_class else n_adl)
    ks = [k for k in ks if k <= cap]
    if not ks:
        raise InvalidK(f"no k in {list(cfg.k_grid)} fits the inner training pools (cap {cap})")
    if len(ks) == 1:
        return ks[0], None

    def scored(tr, val):
        table = _knn_table(variant, prep, rows[tr], is_fall[tr], rows[val], ks[-1])
        return table[:, [k - 1 for k in ks]]

    return _best_candidate(ks, is_fall, splits, scored)


def _svm_prep(variant, X, is_fall):
    """Shared preparation of the rows an SVM of this variant trains on:
    all of them for two-class, the ADL rows for one-class."""
    rows = X if variant is Variant.TC_SVM else X[~is_fall]
    return classifiers.SvmPrep(rows)


def _train_svm(variant, prep, is_fall, params, cfg, start=None):
    if variant is Variant.TC_SVM:
        return classifiers.train_tc_svm(
            prep, is_fall, C=params[0], gamma=params[1], tol=cfg.svm_tol, max_iter=cfg.svm_max_iter,
            start=start,
        )
    return classifiers.train_oc_svm(
        prep, nu=params[0], gamma=params[1], tol=cfg.svm_tol, max_iter=cfg.svm_max_iter
    )


def _svm_grid_scores(variant, X, is_fall, cfg, tr, val):
    """Validation scores of one inner split, trained on the rows of X at
    indices tr and scored at val: a column per candidate (C or nu, gamma),
    in the order of the grids.

    One preparation of the training rows serves the whole grid, visited
    gamma by gamma, so each kernel and each validation block is built
    once.  Within a gamma the C or nu values are visited from the smallest
    up, each distinct value trained once, and every two-class solve after
    the first starts warm from the previous C's.  Each candidate keeps its
    column, so ties still go to the earliest in the grid's order.
    """
    first = cfg.c_grid if variant is Variant.TC_SVM else cfg.nu_grid
    n_gamma = len(cfg.gamma_grid)
    prep = _svm_prep(variant, X[tr], is_fall[tr])
    warm = variant is Variant.TC_SVM
    table = np.empty((len(val), len(first) * n_gamma))
    for gi, gamma in enumerate(cfg.gamma_grid):
        queries = classifiers.SvmQueryBlock(prep, X[val], gamma)
        model = value = None
        for a in sorted(range(len(first)), key=first.__getitem__):
            if first[a] != value:
                value = first[a]
                start = model if warm else None
                model = _train_svm(variant, prep, is_fall[tr], (value, gamma), cfg, start)
                scores = queries.scores(model)
            table[:, a * n_gamma + gi] = scores
    return table


def _select_svm_params(variant, X, is_fall, cfg, seed):
    first = cfg.c_grid if variant is Variant.TC_SVM else cfg.nu_grid
    candidates = [(a, g) for a in first for g in cfg.gamma_grid]
    if len(candidates) == 1:
        return candidates[0], None
    splits = _inner_splits(is_fall, cfg, seed, two_class=variant is Variant.TC_SVM)

    def scored(tr, val):
        return _svm_grid_scores(variant, X, is_fall, cfg, tr, val)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return _best_candidate(candidates, is_fall, splits, scored)


@dataclass
class CellInputs:
    """What every outer fold of one cell reads, built once per cell: the
    feature matrix of the windows at the cell's length, the FALL mask,
    the fold plan and, for kNN variants, the distances between the rows."""

    variant: Variant
    X: np.ndarray
    is_fall: np.ndarray
    plan: FoldPlan
    seed: int
    knn_prep: classifiers.KnnPrep | None


@dataclass
class FoldResult:
    """One outer fold's test curve, its AUC, the chosen hyperparameters
    and the test rows."""

    curve: RocCurve
    auc: float
    params: dict
    test_indices: list


def _cell_key(feature_kind, window_len, variant):
    return FeatureKind(feature_kind), int(window_len), Variant(variant)


def cell_inputs(collection, feature_kind, window_len, variant, config=None):
    """The shared inputs of one (collection, feature, window, variant) cell."""
    cfg = config if config is not None else GridConfig()
    kind, window_len, var = _cell_key(feature_kind, window_len, variant)
    windows = [window_at_length(inst.window, window_len) for inst in collection.instances]
    X = extract_matrix(windows, kind, cfg.ltp_params)
    is_knn = var in (Variant.OC_KNN, Variant.TC_KNN)
    return CellInputs(
        variant=var,
        X=X,
        is_fall=is_fall_mask([inst.label for inst in collection.instances]),
        plan=collection.fold_plan,
        seed=collection.seed,
        # distances between the cell's rows, read by every inner split and
        # every outer fold
        knn_prep=classifiers.KnnPrep(X) if is_knn else None,
    )


def run_fold(inputs, f, config=None):
    """Outer fold f of a cell: an inner cross-validation over the fold's
    training split picks the hyperparameters with the best total inner
    AUC; the winner is retrained on the whole training split (ADL only for
    one-class variants) and scored on the untouched test fold.  A
    FalldetectError is raised again with the fold named."""
    cfg = config if config is not None else GridConfig()
    try:
        return _outer_fold(inputs, f, cfg)
    except FalldetectError as exc:
        raise type(exc)(f"outer fold {f}: {exc}") from exc


def _outer_fold(inputs, f, cfg):
    var, X, is_fall = inputs.variant, inputs.X, inputs.is_fall
    test_idx = inputs.plan.test_indices(f)
    train_idx = inputs.plan.train_indices(f)
    ftr = is_fall[train_idx]
    seed_f = _inner_seed(inputs.seed, f)
    if inputs.knn_prep is not None:
        k, inner_auc = _select_k(var, inputs.knn_prep, train_idx, ftr, cfg, seed_f)
        scores = _knn_table(var, inputs.knn_prep, train_idx, ftr, test_idx, k)[:, k - 1]
        chosen = {"k": k}
    else:
        Xtr = X[train_idx]
        params, inner_auc = _select_svm_params(var, Xtr, ftr, cfg, seed_f)
        model = _train_svm(var, _svm_prep(var, Xtr, ftr), ftr, params, cfg)
        key = "C" if var is Variant.TC_SVM else "nu"
        chosen = {
            key: params[0],
            "gamma": params[1],
            "gamma_resolved": model.training_summary["gamma"],
            "converged": model.training_summary["converged"],
            "iterations": model.training_summary["iterations"],
        }
        scores = score_batch(model, X[test_idx])
    curve = roc_curve(scores, is_fall[test_idx])
    chosen["inner_mean_auc"] = inner_auc
    return FoldResult(curve, auc(curve), chosen, [int(i) for i in test_idx])


def assemble_report(collection, feature_kind, window_len, variant, folds, config=None):
    """The cell's EvalReport from its outer folds' results, in fold order:
    the fold curves are averaged and the operating point picked on the
    averaged curve."""
    cfg = config if config is not None else GridConfig()
    kind, window_len, var = _cell_key(feature_kind, window_len, variant)
    averaged = average_roc([fold.curve for fold in folds])
    op = select_operating_point(averaged)
    fold_aucs = [fold.auc for fold in folds]
    n_fall = int(is_fall_mask([inst.label for inst in collection.instances]).sum())
    return EvalReport(
        collection_id=collection.id,
        feature_kind=kind.value,
        window_len=window_len,
        variant=var.value,
        fold_aucs=fold_aucs,
        fold_params=[fold.params for fold in folds],
        fold_test_indices=[fold.test_indices for fold in folds],
        mean_auc=float(np.mean(fold_aucs)),
        se=op.se,
        sp=op.sp,
        gm=op.gm,
        threshold=op.threshold,
        averaged_curve=averaged,
        counts={"ADL": len(collection.instances) - n_fall, "FALL": n_fall},
        seed=collection.seed,
        config=cfg.to_dict(),
    )


def run_experiment(collection, feature_kind, window_len, variant, config=None):
    """Nested cross-validation for one (collection, feature, window, variant)
    cell: its shared inputs, then each outer fold in order (run_fold), then
    the assembly of the report (assemble_report)."""
    inputs = cell_inputs(collection, feature_kind, window_len, variant, config)
    folds = [run_fold(inputs, f, config) for f in range(inputs.plan.num_folds)]
    return assemble_report(collection, feature_kind, window_len, variant, folds, config)


# ---------------------------------------------------------------------------
# Report serialization


def report_to_dict(report):
    doc = {f.name: getattr(report, f.name) for f in fields(EvalReport)}
    curve = report.averaged_curve
    doc["averaged_curve"] = {f.name: getattr(curve, f.name).tolist() for f in fields(RocCurve)}
    return doc


def _exact(value, kind, name):
    """value when its type is exactly kind, as run writes it: an int is
    not a float, nor a bool an int.  TypeError naming the key otherwise."""
    if type(value) is not kind:
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _floats(values, name):
    if type(values) is not list:
        raise TypeError(f"{name} must be a list of floats, got {values!r}")
    return [_exact(v, float, name) for v in values]


def report_from_dict(doc):
    """The report report_to_dict wrote as doc.  window_len and seed must be
    ints, config a dict, and the AUCs, rates, threshold and curve floats;
    anything else raises TypeError naming the key."""
    c = doc["averaged_curve"]
    curve = RocCurve(*(np.array(_floats(c[f.name], f"averaged_curve.{f.name}"), dtype=np.float64)
                       for f in fields(RocCurve)))
    rates = {name: _exact(doc[name], float, name)
             for name in ("mean_auc", "se", "sp", "gm", "threshold")}
    return EvalReport(
        collection_id=doc["collection_id"],
        feature_kind=doc["feature_kind"],
        window_len=_exact(doc["window_len"], int, "window_len"),
        variant=doc["variant"],
        fold_aucs=_floats(doc["fold_aucs"], "fold_aucs"),
        fold_params=doc["fold_params"],
        fold_test_indices=doc["fold_test_indices"],
        averaged_curve=curve,
        counts=doc["counts"],
        seed=_exact(doc["seed"], int, "seed"),
        config=_exact(doc["config"], dict, "config"),
        **rates,
    )


def save_report_json(report, path):
    _write_json(path, report_to_dict(report))


def write_roc_csv(curve, path):
    lines = ["fpr,tpr,threshold"]
    for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
        lines.append(f"{float(f)!r},{float(t)!r},{float(th)!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def summary_row(report):
    """One Table-style row: identifiers plus AUC, SE, SP, and their gm."""
    return {
        "collection": report.collection_id,
        "feature": report.feature_kind,
        "window": report.window_len,
        "classifier": report.variant,
        "auc": report.mean_auc,
        "se": report.se,
        "sp": report.sp,
        "gm": report.gm,
    }
