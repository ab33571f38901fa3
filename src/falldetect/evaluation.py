"""ROC analysis and nested cross-validation orchestration.

A fold's scores become a threshold-swept ROC curve; fold curves are
vertically averaged on a fixed grid, and the reported operating point
maximizes the geometric mean of sensitivity and specificity on that
averaged curve.  Hyperparameters are chosen per outer fold by an inner
cross-validation that never sees the outer test split.
"""

from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

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
    _atomic_write_text,
    _write_json,
)

ROC_GRID_POINTS = 1001
_STREAM_INNER = 303
# An SVM batch takes outer folds while the lockstep rows of their inner
# searches, one per (inner split, gamma), stay within this many: three
# folds at the default grids.  More rows a pass save lockstep passes, but
# each fold's kernels add to the one stack.  On svm_c1, four and five
# two-class folds a batch raised a worker's peak RSS by 3 and 6 MB more,
# for no less CPU time.
_BATCH_ROWS = 120
_SVM_VARIANTS = (Variant.OC_SVM, Variant.TC_SVM)


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
    keep = keep[0]
    return RocCurve(fpr[0, keep], tpr[0, keep], np.r_[np.inf, s[0]][keep])


def _sweep(table, pos, sizes=None):
    """The ROC sweep of every column of every segment of a score table
    (Fawcett 2006).  The segments are consecutive groups of rows, sizes[i]
    rows in segment i (one segment when sizes is None), each swept on its
    own against its rows of pos.

    One stable sort of every column on the negated scores, then one on
    the segment, and integer counts of the positives and negatives
    entered so far, each counted from its segment's start and divided by
    that segment's P or N.

    Returns, with a row per column of the table, the sorted scores s and
    the rates fpr and tpr: each segment's (0, 0) start, then the state
    once each of its sorted scores has entered.  keep marks each
    segment's start and the last point of every tie group, the state
    after the whole group enters.
    """
    if not np.all(np.isfinite(table)):
        raise ValueError("scores must be finite")
    n, cols = table.shape
    sizes = np.array([n] if sizes is None else sizes)
    ends = np.cumsum(sizes)
    # a type of 16 bits or fewer sorts by radix
    seg = np.repeat(np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes))), sizes)
    P = np.bincount(seg[pos], minlength=len(sizes))
    N = sizes - P
    for p, q in zip(P, N):
        if p == 0 or q == 0:
            raise DegenerateLabels(f"need both classes, got {p} positives and {q} negatives")
    key = -np.ascontiguousarray(table.T)
    order = key.argsort(axis=1, kind="stable")
    column = np.arange(cols)[:, None]  # plain fancy indexing costs less than take_along_axis
    if len(sizes) > 1:
        order = order[column, seg[order].argsort(axis=1, kind="stable")]
    key = key[column, order]
    # every column holds each segment's rows, so the counts before a
    # segment are the same in every column
    tp = pos[order].cumsum(axis=1) - (np.cumsum(P) - P)[seg]
    fp = np.arange(1, n + 1) - (ends - sizes)[seg] - tp
    at = np.arange(n) + seg + 1  # each point's place, after its segment's start
    fpr = np.zeros((cols, n + len(sizes)))
    tpr = np.zeros((cols, n + len(sizes)))
    fpr[:, at] = fp / N[seg]
    tpr[:, at] = tp / P[seg]
    keep = np.ones((cols, n + len(sizes)), dtype=bool)
    keep[:, at[:-1]] = key[:, 1:] != key[:, :-1]
    keep[:, at[ends[:-1] - 1]] = True  # each segment's last point
    return -key, fpr, tpr, keep


def _trapezoid(f, t):
    return np.sum(np.diff(f) * (t[1:] + t[:-1]) / 2.0)


def auc(curve):
    """Trapezoidal area under the curve over the FPR axis."""
    return float(_trapezoid(curve.fpr, curve.tpr))


def _column_aucs(table, pos, sizes=None):
    """A segment x column array: entry [i, c] is
    auc(roc_curve(table[rows, c], pos[rows])) bit for bit, for the rows of
    segment i (_sweep; one segment when sizes is None).

    One sweep of the whole table gives every (segment, column)'s kept
    points, laid out column after column and, within a column, segment
    after segment, and one pass their trapezoid terms.  The pairs that
    keep the same number of points then sum their terms as the rows of
    one C-contiguous array: numpy sums each such row pairwise, exactly as
    _trapezoid sums its 1-d array.
    """
    _, fpr, tpr, keep = _sweep(table, pos, sizes)
    f, t = fpr[keep], tpr[keep]
    terms = np.diff(f) * (t[1:] + t[:-1]) / 2.0
    sizes = [len(table)] if sizes is None else sizes
    firsts = np.cumsum(sizes) - sizes + np.arange(len(sizes))  # the segments' starts
    counts = np.add.reduceat(keep, firsts, axis=1, dtype=np.intp).ravel()
    starts = np.cumsum(counts) - counts
    aucs = np.empty(len(counts))
    for m in set(counts.tolist()):
        at = np.flatnonzero(counts == m)
        aucs[at] = terms[starts[at, None] + np.arange(m - 1)].sum(axis=1)
    return aucs.reshape(table.shape[1], len(sizes)).T


def pairwise_auc(scores, labels):
    """Mann-Whitney statistic: P(fall outscores ADL), ties counted half.

    Independent route to the same quantity as auc(roc_curve(...)); the two
    must agree to floating-point accuracy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = is_fall_mask(labels)
    if len(pos) != len(scores):
        raise ValueError("scores and labels must correspond one to one")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
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
    ltp_params: LtpParams = field(default_factory=LtpParams)

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
    counts: dict
    seed: int
    config: dict
    # not in the report's JSON record; None in a report read back from it
    averaged_curve: RocCurve | None = None

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


def _inner_splits(is_fall, plan, two_class):
    """The (train, validation) index pairs of the folds of plan
    (plan.splits), an inner fold plan over rows labelled by is_fall, whose
    validation side has both classes (and, for two-class training, whose
    training side does too)."""
    splits = [(tr, val) for tr, val in plan.splits if _has_both_classes(is_fall[val])
              and (not two_class or _has_both_classes(is_fall[tr]))]
    if not splits:
        raise InsufficientData("no inner fold has both classes in its validation split")
    return splits


def _best_candidate(candidates, is_fall, splits, table):
    """The candidate with the highest total inner AUC, ties going to the
    earliest, and its mean inner AUC.

    table holds the validation scores of every split, a column per
    candidate, the splits' rows stacked in the order of splits; one sweep
    gives every split's AUCs, and each candidate sums them in fold order.
    """
    vals = [val for _, val in splits]
    totals = np.zeros(len(candidates))
    for aucs in _column_aucs(table, is_fall[np.concatenate(vals)], [len(v) for v in vals]):
        totals += aucs
    best = int(np.argmax(totals))
    return candidates[best], float(totals[best] / len(splits))


def _knn_scores_all_k(variant, prep, rows, is_fall, groups, k_max):
    """kNN scores of the rows of prep.X at the indices of each of groups,
    stacked in order, a column per k in 1..k_max: each group against the
    rows at indices rows, labelled by is_fall, that are not in it: their
    ADL rows, and for two-class their FALL rows too.  An outer test fold
    is one group; the validation rows of every inner split of a fold are
    one group each, and one pool per class serves them all
    (KnnPrep.scores_all_k)."""
    fall = rows[is_fall] if variant is Variant.TC_KNN else None
    return prep.scores_all_k(rows[~is_fall], fall, groups, k_max)


def _select_k(variant, prep, rows, is_fall, cfg, plan):
    """k for the training rows of prep.X at indices rows, labelled by
    is_fall, searched over the inner folds of plan (None for a grid of one
    k, which searches nothing).  A search of more than one k builds prep's
    matrix, and the scores of every inner split come from one block of it
    per class pool (_knn_scores_all_k)."""
    ks = sorted(set(cfg.k_grid))
    if len(ks) == 1:
        return ks[0], None
    two_class = variant is Variant.TC_KNN
    splits = _inner_splits(is_fall, plan, two_class)
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

    # a search reads many blocks of the same rows: worth the whole matrix
    prep.build_matrix()
    table = _knn_scores_all_k(variant, prep, rows, is_fall, [rows[val] for _, val in splits],
                              ks[-1])
    return _best_candidate(ks, is_fall, splits, table[:, [k - 1 for k in ks]])


def _train_svm(variant, X, is_fall, params, cfg):
    """The variant's model of params, (C or nu, gamma), trained on the rows
    of X labelled by is_fall: all of them two-class, the ADL rows
    one-class."""
    if variant is Variant.TC_SVM:
        return classifiers.train_tc_svm(
            X, is_fall, C=params[0], gamma=params[1], tol=cfg.svm_tol, max_iter=cfg.svm_max_iter
        )
    return classifiers.train_oc_svm(
        X[~is_fall], nu=params[0], gamma=params[1], tol=cfg.svm_tol, max_iter=cfg.svm_max_iter
    )


def _select_svm_params(variant, X, is_fall, folds, cfg):
    """The chosen (C or nu, gamma), with its mean inner AUC, of each outer
    fold of folds, each (rows, plan): the fold trains on the rows of X at
    indices rows, labelled by is_fall, and plan is their inner fold plan.
    The folds' inner grids are searched together
    (classifiers.svm_grid_tables)."""
    two_class = variant is Variant.TC_SVM
    first = cfg.c_grid if two_class else cfg.nu_grid
    candidates = [(a, g) for a in first for g in cfg.gamma_grid]
    if len(candidates) == 1:
        return [(candidates[0], None) for _ in folds]
    searched = [[(rows[tr], rows[val]) for tr, val in
                 _inner_splits(is_fall[rows], plan, two_class)] for rows, plan in folds]
    tables = classifiers.svm_grid_tables(variant, X, is_fall, searched, first, cfg.gamma_grid,
                                         cfg.svm_tol, cfg.svm_max_iter)
    return [_best_candidate(candidates, is_fall, splits, np.vstack(fold_tables))
            for splits, fold_tables in zip(searched, tables)]


@dataclass
class CellInputs:
    """What every outer fold of every variant of one (collection, feature,
    window) triple reads: the feature matrix of the windows at the
    window's length, the FALL mask, the fold plan and, built when a fold
    first asks, the distances between the rows (kNN) and each outer
    fold's inner fold plan."""

    X: np.ndarray
    is_fall: np.ndarray
    plan: FoldPlan
    seed: int
    _inner_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def knn_prep(self):
        return classifiers.KnnPrep(self.X)

    def inner_plan(self, f, num_folds):
        """The plan of num_folds inner folds over outer fold f's training
        rows, made once for every variant: it depends only on the rows'
        labels and the fold's inner seed.  Its (train, validation) pairs
        (FoldPlan.splits) are then made once too."""
        key = f, num_folds
        if key not in self._inner_plans:
            self._inner_plans[key] = plan_folds(self.is_fall[self.plan.train_indices(f)],
                                                num_folds=num_folds, seed=_inner_seed(self.seed, f))
        return self._inner_plans[key]


@dataclass
class FoldResult:
    """One outer fold's test curve, its AUC, the chosen hyperparameters
    and the test rows."""

    curve: RocCurve
    auc: float
    params: dict
    test_indices: list


def cell_inputs(collection, feature_kind, window_len, config=None):
    """The shared inputs of one (collection, feature, window) triple: the
    collection's windows are cut to window_len as their rows are extracted,
    a bounded chunk at a time."""
    cfg = config if config is not None else GridConfig()
    windows = [inst.window for inst in collection.instances]
    return CellInputs(
        X=extract_matrix(windows, FeatureKind(feature_kind), cfg.ltp_params, int(window_len)),
        is_fall=is_fall_mask([inst.label for inst in collection.instances]),
        plan=collection.fold_plan,
        seed=collection.seed,
    )


def fold_batches(plan, variant, config=None):
    """The outer folds of a cell with fold plan plan, in order, in the
    batches that run_folds runs.  An SVM batch takes the next fold while
    its inner searches' lockstep rows, a row per (inner split, gamma) of
    each fold, stay within _BATCH_ROWS and the stack of its kernels fits
    the budget (classifiers.fits_budget), each kernel's rows counted as
    the fold's training rows; a fold that alone passes either runs alone.  A kNN cell runs one
    fold per batch."""
    cfg = config if config is not None else GridConfig()
    folds = range(plan.num_folds)
    if Variant(variant) not in _SVM_VARIANTS:
        return [[f] for f in folds]
    rows = cfg.inner_folds * len(cfg.gamma_grid)
    batches = []  # (folds, their most training rows)
    for f in folds:
        m = len(plan.train_indices(f))
        if batches:
            batch, M = batches[-1]
            width, M = len(batch) + 1, max(M, m)
            if width * rows <= _BATCH_ROWS and classifiers.fits_budget(width * rows, M, M):
                batches[-1] = (batch + [f], M)
                continue
        batches.append(([f], m))
    return [batch for batch, _ in batches]


def run_folds(inputs, variant, folds, config=None):
    """The FoldResults of the outer folds folds of a cell, one batch in
    order.  In each outer fold an inner cross-validation over the fold's
    training split picks the hyperparameters with the best total inner
    AUC; the winner is retrained on the whole training split (ADL only for
    one-class variants) and scored on the untouched test fold.  An SVM
    batch of more than one fold searches its folds' inner grids together,
    then picks, refits and scores each fold; any other batch runs its
    folds one by one.  The first fold to fail raises its FalldetectError
    again with the fold named: when the joint search fails, each fold
    searches again alone, so that it is the one named."""
    cfg = config if config is not None else GridConfig()
    var = Variant(variant)
    picks = [None] * len(folds)
    if var in _SVM_VARIANTS and len(folds) > 1:
        try:
            searched = [(inputs.plan.train_indices(f), inputs.inner_plan(f, cfg.inner_folds))
                        for f in folds]
            picks = _select_svm_params(var, inputs.X, inputs.is_fall, searched, cfg)
        except Exception:  # whatever it is, the folds alone raise it in fold order
            pass
    results = []
    for f, pick in zip(folds, picks):
        try:
            results.append(_outer_fold(inputs, var, f, cfg, pick))
        except FalldetectError as exc:
            raise type(exc)(f"outer fold {f}: {exc}") from exc
    return results


def _outer_fold(inputs, var, f, cfg, pick=None):
    """Outer fold f's FoldResult; pick, when given, is the fold's SVM
    selection and its mean inner AUC, found in a batch."""
    X, is_fall = inputs.X, inputs.is_fall
    test_idx = inputs.plan.test_indices(f)
    train_idx = inputs.plan.train_indices(f)
    ftr = is_fall[train_idx]
    if var in (Variant.OC_KNN, Variant.TC_KNN):
        plan = inputs.inner_plan(f, cfg.inner_folds) if len(set(cfg.k_grid)) > 1 else None
        k, inner_auc = _select_k(var, inputs.knn_prep, train_idx, ftr, cfg, plan)
        scores = _knn_scores_all_k(var, inputs.knn_prep, train_idx, ftr, [test_idx], k)[:, k - 1]
        chosen = {"k": k}
    else:
        if pick is None:
            pick, = _select_svm_params(
                var, X, is_fall, [(train_idx, inputs.inner_plan(f, cfg.inner_folds))], cfg)
        params, inner_auc = pick
        model = _train_svm(var, X[train_idx], ftr, params, cfg)
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
    kind, window_len, var = FeatureKind(feature_kind), int(window_len), Variant(variant)
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


def run_experiment(collection, feature_kind, window_len, variant, config=None, inputs=None):
    """Nested cross-validation for one (collection, feature, window, variant)
    cell: its shared inputs, then its outer folds in order, batch by batch
    (fold_batches, run_folds), then the assembly of the report
    (assemble_report).  inputs, when given, are the triple's CellInputs, as
    cell_inputs builds them, which the variants of one triple may share;
    None builds them."""
    if inputs is None:
        inputs = cell_inputs(collection, feature_kind, window_len, config)
    folds = [fold for batch in fold_batches(inputs.plan, variant, config)
             for fold in run_folds(inputs, variant, batch, config)]
    return assemble_report(collection, feature_kind, window_len, variant, folds, config)


# ---------------------------------------------------------------------------
# Report serialization


def report_to_dict(report):
    # every field but the curve, whose one record is write_roc_csv's file
    return {f.name: getattr(report, f.name) for f in fields(EvalReport)
            if f.name != "averaged_curve"}


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
    """The report report_to_dict wrote as doc, its averaged_curve None.
    window_len and seed must be ints, config a dict, and the AUCs, rates and
    threshold floats; anything else raises TypeError naming the key."""
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
