"""One-class and two-class kNN and RBF-SVM scorers behind one interface.

Every trained model exposes a real-valued score where higher means more
fall-like.  kNN scoring works on raw feature vectors with Euclidean
distance; SVM training standardizes features with training statistics and
solves its dual problem with a pairwise coordinate (SMO-style) solver
written here.
"""

import enum
import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceWarning,
    DegenerateLabels,
    DimensionError,
    InsufficientData,
    InvalidK,
    InvalidNu,
)
from .ingest import is_fall_mask

DEFAULT_K_GRID = tuple(range(1, 11))
DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)
DEFAULT_GAMMA_GRID = ("auto", 0.01, 0.1, 1.0)
DEFAULT_NU_GRID = (0.01, 0.05, 0.1, 0.2)

SVM_TOL = 1e-3
_SV_EPS = 1e-12
_CACHE_BUDGET_BYTES = 2e8
_DIST_CHUNK_BYTES = 1e6


class Variant(enum.Enum):
    OC_KNN = "OC_KNN"
    TC_KNN = "TC_KNN"
    OC_SVM = "OC_SVM"
    TC_SVM = "TC_SVM"


def _as_matrix(vectors):
    m = np.asarray(vectors, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise DimensionError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionError("training vectors must be finite")
    return m


# ---------------------------------------------------------------------------
# Nearest-neighbour machinery


def _chunk_rows(train):
    """Queries per chunk whose differences to train fit _DIST_CHUNK_BYTES."""
    return max(1, int(_DIST_CHUNK_BYTES // max(8 * train.size, 1)))


def _distance_block(train, queries):
    """Euclidean distances from every query to every training row:
    block[q] is np.sqrt(((train - queries[q]) ** 2).sum(axis=1)) bit for
    bit, as each entry is the same pairwise sum over one row.  Queries go
    in chunks whose difference arrays stay within _DIST_CHUNK_BYTES."""
    step = _chunk_rows(train)
    block = np.empty((len(queries), len(train)))
    for b in range(0, len(queries), step):
        q = queries[b:b + step]
        block[b:b + step] = np.sqrt(((train[None] - q[:, None]) ** 2).sum(axis=2))
    return block


def _self_distances(X):
    """_distance_block(X, X) bit for bit, from its upper triangle.

    Each chunk of rows is taken against the rows from its first one on,
    and mirrored below the diagonal: (a - b)**2 and (b - a)**2 are the
    same float, so each entry is the same sum.  Memory stays at the
    matrix plus one chunk.
    """
    n = len(X)
    step = _chunk_rows(X)
    D = np.empty((n, n))
    for b in range(0, n, step):
        q = X[b:b + step]
        D[b:b + step, b:] = np.sqrt(((X[None, b:] - q[:, None]) ** 2).sum(axis=2))
        D[b:, b:b + step] = D[b:b + step, b:].T
    return D


def _k_smallest_rows(block, k):
    # Partial selection along each row, then sort the selected k.
    if k < block.shape[1]:
        block = np.partition(block, k - 1, axis=1)[:, :k]
    return np.sort(block, axis=1)


def knn_mean_distances_all_k(block, k_max):
    """Entry [q, k-1]: the mean of the k smallest entries of row q of the
    query x training distance block, for every k in 1..k_max.  Every kNN
    score comes from here.

    Each mean is the prefix's own sum over k, not a running sum: numpy
    sums 8 or more values pairwise, so only this matches the oracle's
    sorted[:k].sum() / k exactly.
    """
    if block.ndim != 2:
        raise DimensionError(f"expected a 2-d distance block, got shape {block.shape}")
    if not 1 <= k_max <= block.shape[1]:
        raise InvalidK(f"k_max={k_max} needs 1 <= k_max <= {block.shape[1]} training rows")
    sd = _k_smallest_rows(block, k_max)
    out = np.empty((len(sd), k_max))
    for k in range(1, k_max + 1):
        out[:, k - 1] = sd[:, :k].sum(axis=1) / k
    return out


def _knn_scores(da, df=None):
    """One-class score dA when df is None; otherwise the two-class score
    dA / (dA + dF), and 0.5 where both mean distances are 0."""
    if df is None:
        return da
    tot = da + df
    return np.where(tot == 0, 0.5, da / np.where(tot == 0, 1.0, tot))


class KnnPrep:
    """Pairwise distances between the rows of one matrix, shared by every
    inner kNN split and outer test fold drawn from those rows.

    The n x n matrix is built up front when it fits _CACHE_BUDGET_BYTES.
    Above that, each block is computed from the rows instead; both give
    the same entries bit for bit.
    """

    def __init__(self, vectors):
        self.X = _as_matrix(vectors)
        fits = 8.0 * len(self.X) ** 2 <= _CACHE_BUDGET_BYTES
        self._D = _self_distances(self.X) if fits else None

    def _block(self, queries, train):
        if self._D is None:
            return _distance_block(self.X[train], self.X[queries])
        return self._D[np.ix_(queries, train)]

    def scores_all_k(self, adl, fall, queries, k_max):
        """_knn_scores of the rows at indices queries, a column per k in
        1..k_max, against the ADL rows at indices adl and the FALL rows at
        indices fall (None for one-class)."""
        da = knn_mean_distances_all_k(self._block(queries, adl), k_max)
        df = None if fall is None else knn_mean_distances_all_k(self._block(queries, fall), k_max)
        return _knn_scores(da, df)


@dataclass
class KnnModel:
    k: int
    adl: np.ndarray
    fall: np.ndarray | None = None  # two-class only


@dataclass
class SvmModel:
    gamma: float
    alpha: np.ndarray
    support_vectors: np.ndarray
    bias: float
    support_labels: np.ndarray | None = None  # +-1 per SV, two-class only
    C: float | None = None
    nu: float | None = None
    mean: np.ndarray | None = None
    scale: np.ndarray | None = None
    multipliers: np.ndarray | None = None  # every training row's, in row order
    # (token of the SvmPrep, labels of its rows) the solve ran on: what
    # train_tc_svm checks a warm start against
    _source: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class TrainedModel:
    variant: Variant
    parameters: object
    training_summary: dict

    @property
    def dim(self):
        p = self.parameters
        if isinstance(p, KnnModel):
            return p.adl.shape[1]
        return p.support_vectors.shape[1]

    def score(self, vector):
        return float(score_batch(self, np.asarray(vector, dtype=np.float64)[None, :])[0])


def _knn_model(variant, k, adl, fall=None):
    """The kNN model of k over the ADL and (two-class) FALL rows; InvalidK
    naming k unless it is a whole number, not a bool, from 1 to the smallest pool."""
    counts = {"ADL": len(adl), "FALL": 0 if fall is None else len(fall)}
    pool = len(adl) if fall is None else min(counts.values())
    whole = isinstance(k, numbers.Real) and not isinstance(k, bool) and float(k).is_integer()
    if not (whole and 1 <= k <= pool):
        raise InvalidK(f"k={k!r} must be a whole number from 1 to {pool}, the smallest pool")
    summary = {"variant": variant.value, "k": int(k), "counts": counts}
    return TrainedModel(variant, KnnModel(k=int(k), adl=adl, fall=fall), summary)


def train_oc_knn(adl_vectors, k):
    """One-class kNN: score is the mean distance to the k nearest ADL vectors."""
    return _knn_model(Variant.OC_KNN, k, _as_matrix(adl_vectors))


def train_tc_knn(vectors, labels, k):
    """Two-class kNN: score = dA / (dA + dF) over mean k-nearest distances."""
    train = _as_matrix(vectors)
    is_fall = is_fall_mask(labels)
    if len(is_fall) != len(train):
        raise DimensionError("labels and vectors must correspond one to one")
    return _knn_model(Variant.TC_KNN, k, train[~is_fall], train[is_fall])


# ---------------------------------------------------------------------------
# SVM: standardization, kernel, and the pairwise dual solver


def standardize_apply(matrix, mean, scale):
    return (np.asarray(matrix, dtype=np.float64) - mean) / scale


def resolve_gamma(gamma, standardized):
    """Turn the "auto" sentinel into 1 / (dim * mean feature variance)."""
    if gamma == "auto":
        d = standardized.shape[1]
        var = float(standardized.var(axis=0).mean())
        if var <= 0:
            var = 1.0
        return 1.0 / (d * var)
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    return gamma


def _sq_norms(A):
    return (A * A).sum(axis=1)


def _sq_dists(A, sq_a, B, sq_b):
    """Squared Euclidean distances between rows of A and rows of B, given
    their squared norms; clipped at 0 against cancellation."""
    d2 = np.add.outer(sq_a, sq_b)
    gram = A @ B.T
    gram *= 2.0
    d2 -= gram
    return np.maximum(d2, 0.0, out=d2)


def _sq_dist_rows(Xs, sq, start, stop):
    """Rows start..stop of the squared-distance matrix of Xs with itself.

    One matrix-vector product per row rather than one matrix product:
    a row then comes out bit for bit the same whether it is computed
    alone or as part of the whole matrix, so the solver takes the same
    steps from either kernel source.
    """
    d2 = np.add.outer(sq[start:stop], sq)
    for k in range(stop - start):
        d2[k] -= 2.0 * (Xs @ Xs[start + k])
    return np.maximum(d2, 0.0, out=d2)


def _rbf(d2, gamma):
    """exp(-gamma * d2), computed in the buffer of d2."""
    d2 *= -gamma
    return np.exp(d2, out=d2)


def _rbf_block(qs, X, sq, gamma):
    """RBF kernel between the standardized query rows qs and the rows of
    X, whose squared norms are sq: a query x row block."""
    return _rbf(_sq_dists(qs, _sq_norms(qs), X, sq), gamma)


class _KernelRows:
    """RBF kernel rows computed on demand, for problems whose kernel matrix
    does not fit the memory budget.  Holds up to _CACHE_BUDGET_BYTES of
    rows, dropping the oldest first; K[i] is row i, K @ v the product."""

    def __init__(self, Xs, sq, gamma):
        self.Xs = Xs
        self.sq = sq
        self.gamma = gamma
        self._rows = {}
        self._cap = max(2, int(_CACHE_BUDGET_BYTES / (8 * len(Xs))))

    def _row(self, i):
        return _rbf(_sq_dist_rows(self.Xs, self.sq, i, i + 1), self.gamma)[0]

    def __getitem__(self, i):
        row = self._rows.get(i)
        if row is None:
            if len(self._rows) >= self._cap:
                self._rows.pop(next(iter(self._rows)))
            row = self._rows[i] = self._row(i)
        return row

    def __matmul__(self, v):
        # row by row and past the cache: one row in memory at a time
        return np.array([self._row(i) @ v for i in range(len(self.Xs))])


class SvmPrep:
    """Standardized training rows and their RBF kernel, shared by every
    solve on the same rows.

    The squared-distance matrix is computed once and the kernel once per
    gamma (the latest one is kept), so a hyperparameter search trains all
    of its (gamma, C or nu) candidates on one split from one preparation.
    When the distance and kernel matrices together would exceed
    _CACHE_BUDGET_BYTES, kernel rows are computed on demand instead.
    """

    def __init__(self, vectors):
        X = _as_matrix(vectors)
        # per-feature mean and deviation; constant features get scale 1
        with np.errstate(over="ignore", invalid="ignore"):
            self.mean = X.mean(axis=0)
            scale = X.std(axis=0)
        # an overflowed spread would standardize its feature to all zeros
        bad = np.flatnonzero(~(np.isfinite(self.mean) & np.isfinite(scale)))
        if bad.size:
            raise DimensionError(
                f"feature {bad[0]} cannot be standardized: its mean or spread overflows"
            )
        self.scale = np.where(scale > 0, scale, 1.0)
        self.Xs = standardize_apply(X, self.mean, self.scale)
        self.sq = _sq_norms(self.Xs)
        m = len(X)
        fits = 16.0 * m * m <= _CACHE_BUDGET_BYTES
        self.d2 = _sq_dist_rows(self.Xs, self.sq, 0, m) if fits else None
        self._gamma = None
        self._kernel = None
        self._auto_gamma = None
        # names this preparation in the models trained on it, without
        # keeping its matrices alive for as long as a model is kept
        self._token = object()

    def __len__(self):
        return len(self.Xs)

    def resolve_gamma(self, gamma):
        """resolve_gamma(gamma, self.Xs); "auto" is worked out once."""
        if gamma != "auto":
            return resolve_gamma(gamma, self.Xs)
        if self._auto_gamma is None:
            self._auto_gamma = resolve_gamma(gamma, self.Xs)
        return self._auto_gamma

    def kernel(self, gamma):
        """Kernel for resolved gamma: a matrix, or _KernelRows over budget."""
        if gamma != self._gamma:
            self._kernel = None  # release the old matrix before building the next
            if self.d2 is None:
                self._kernel = _KernelRows(self.Xs, self.sq, gamma)
            else:
                self._kernel = _rbf(self.d2.copy(), gamma)
            self._gamma = gamma
        return self._kernel


def _solve_pairwise_dual(K, y, box, alpha, p, tol, max_iter):
    """Minimize 1/2 a'Qa + p'a s.t. 0 <= a <= box, sum(a*y) fixed.

    Q_ij = y_i y_j K_ij, where K[i] is row i of the kernel matrix and K @ v
    its product with a vector.  Works the maximal violating pair each
    iteration (first-order selection) and stops when the duality-gap
    surrogate m(a) - M(a) drops to tol.  Returns the multipliers, the bias
    estimate in violation units, and run stats.
    """
    G = y * (K @ (alpha * y)) + p
    # s = -y * G.  As y_i^2 = 1, a pair step moves s by the two changed
    # multipliers' kernel rows alone.
    s = -y * G
    # Offsets that mask s for the pair selection: 0 where a multiplier
    # may still move that way, -inf (up) or +inf (low) where it may not.
    # Adding one costs less than np.where.
    inf = float("inf")
    up = np.where(np.where(y > 0, alpha < box, alpha > 0), 0.0, -inf)
    low = np.where(np.where(y > 0, alpha > 0, alpha < box), 0.0, inf)
    # scalars are read from lists: indexing a list is cheaper than an array
    yl = y.tolist()
    bl = box.tolist()
    a = alpha.tolist()
    # Every iteration writes its masked s and its step into these, through
    # local ufuncs given the buffer positionally: a call then costs less.
    s_up = np.empty_like(s)
    s_low = np.empty_like(s)
    step_i = np.empty_like(s)
    step_j = np.empty_like(s)
    add, multiply = np.add, np.multiply

    iterations = 0
    converged = False
    while True:
        add(s, up, s_up)
        add(s, low, s_low)
        i = int(s_up.argmax())
        j = int(s_low.argmin())
        lo = float(s_up[i])
        hi = float(s_low[j])
        gap = lo - hi
        if gap <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break

        ki = K[i]
        kj = K[j]
        eta = float(ki[i] + kj[j] - 2.0 * ki[j])
        if eta <= _SV_EPS:
            eta = _SV_EPS
        yi, yj = yl[i], yl[j]
        old_i, old_j = a[i], a[j]
        bi, bj = bl[i], bl[j]
        # the largest step keeping both multipliers inside their boxes;
        # each comparison keeps the earlier value on a tie, as min() does
        t = gap / eta
        room = bi - old_i if yi > 0 else old_i
        if room < t:
            t = room
        room = old_j if yj > 0 else bj - old_j
        if room < t:
            t = room
        # min(max(v, 0.0), box), spelled out
        new_i = old_i + yi * t
        if new_i < 0.0:
            new_i = 0.0
        if bi < new_i:
            new_i = bi
        new_j = old_j - yj * t
        if new_j < 0.0:
            new_j = 0.0
        if bj < new_j:
            new_j = bj
        a[i] = new_i
        a[j] = new_j

        # s -= (new_i - old_i) * yi * ki + (new_j - old_j) * yj * kj
        multiply(ki, (new_i - old_i) * yi, step_i)
        multiply(kj, (new_j - old_j) * yj, step_j)
        step_i += step_j
        s -= step_i
        # i before j, so j's masks win when i == j
        in_up, in_low = (new_i < bi, new_i > 0.0) if yi > 0 else (new_i > 0.0, new_i < bi)
        up[i] = 0.0 if in_up else -inf
        low[i] = 0.0 if in_low else inf
        in_up, in_low = (new_j < bj, new_j > 0.0) if yj > 0 else (new_j > 0.0, new_j < bj)
        up[j] = 0.0 if in_up else -inf
        low[j] = 0.0 if in_low else inf
        iterations += 1

    alpha = np.array(a)
    free = (alpha > 0) & (alpha < box)
    if free.any():
        bias = float(s[free].mean())
    else:
        finite = [v for v in (lo, hi) if np.isfinite(v)]
        bias = float(np.mean(finite)) if finite else 0.0
    return alpha, bias, iterations, converged, gap, lo, hi


_SvmFit = namedtuple("_SvmFit", "gamma alpha keep bias lo hi stats")


def _solve_svm(prep, gamma, y, box, start, p, tol, max_iter):
    """Solve one SVM dual on the kernel of prep's rows.

    y labels the rows and start holds their multipliers' starting values;
    box and p are the multipliers' upper bound and linear term, the same
    for every row.  max_iter defaults to 10 m, and a solve it stops warns.
    keep marks the support vectors, and (lo, hi) is the solver's stopping
    interval.
    """
    gamma = prep.resolve_gamma(gamma)
    m = len(prep)
    if max_iter is None:
        max_iter = 10 * m
    alpha, bias, iters, converged, gap, lo, hi = _solve_pairwise_dual(
        prep.kernel(gamma), y, np.full(m, box), start, np.full(m, p), tol, max_iter
    )
    if not converged:
        warnings.warn(
            f"pairwise solver stopped at {iters} iterations with gap {gap:.3g}",
            ConvergenceWarning,
        )
    stats = {"iterations": iters, "converged": converged, "gap": gap}
    return _SvmFit(gamma, alpha, alpha > _SV_EPS, bias, lo, hi, stats)


def _svm_model(variant, prep, fit, y, bias, counts, hyper):
    """The trained model of one solve with labels y: the kept support
    vectors and their multipliers, every row's multiplier, and the
    variant's class counts and hyper, its C or nu."""
    support_labels = y[fit.keep] if variant is Variant.TC_SVM else None
    params = SvmModel(
        gamma=fit.gamma, alpha=fit.alpha[fit.keep], support_vectors=prep.Xs[fit.keep], bias=bias,
        support_labels=support_labels, mean=prep.mean, scale=prep.scale, multipliers=fit.alpha,
        **hyper,
    )
    params._source = (prep._token, y)
    summary = {
        "variant": variant.value, "counts": counts, **hyper, "gamma": fit.gamma,
        "standardized": True, "support_vectors": int(fit.keep.sum()), **fit.stats,
    }
    return TrainedModel(variant, params, summary)


def _warm_start(start, prep, y, C):
    """The multipliers of start that a two-class solve of C on prep's rows
    labelled y may begin from; ValueError naming why start cannot be one."""
    got = start.variant.value if isinstance(start, TrainedModel) else type(start).__name__
    if got != Variant.TC_SVM.value:
        raise ValueError(f"start must be a TC_SVM model, got {got}")
    p = start.parameters
    rows = len(p.multipliers)
    if rows != len(prep):
        raise ValueError(f"start was trained on {rows} rows, not {len(prep)}")
    token, labels = p._source
    if token is not prep._token:
        raise ValueError("start was trained on another SvmPrep")
    if not np.array_equal(labels, y):
        raise ValueError("start was trained on other labels")
    if p.C > C:
        raise ValueError(f"start was trained with C={p.C}, larger than C={C}")
    return p.multipliers


def train_tc_svm(vectors, labels, C, gamma="auto", tol=SVM_TOL, max_iter=None, *, start=None):
    """Soft-margin RBF SVM on both classes; score is the decision value.

    FALL maps to y = +1, so the raw decision value is already oriented
    with fall-likeness.  Features are z-scored with training statistics.
    vectors may be an SvmPrep of the training matrix, shared between
    calls on the same rows.

    Multipliers start at 0, or warm at those of start: a TC_SVM model
    trained before on the same SvmPrep and labels with a C no larger than
    this one.  They stay inside the larger box and keep sum(alpha * y) at
    0, so the solve only has to move them on from there (DeCoste &
    Wagstaff 2000).  Any other start raises ValueError saying why.
    """
    prep = vectors if isinstance(vectors, SvmPrep) else SvmPrep(vectors)
    is_fall = is_fall_mask(labels)
    if len(is_fall) != len(prep):
        raise DimensionError("labels and vectors must correspond one to one")
    n_fall = int(is_fall.sum())
    n_adl = len(is_fall) - n_fall
    if n_adl == 0 or n_fall == 0:
        raise DegenerateLabels("two-class training needs both ADL and FALL instances")
    C = float(C)
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and > 0, got {C}")

    y = np.where(is_fall, 1.0, -1.0)
    alpha0 = np.zeros(len(prep)) if start is None else _warm_start(start, prep, y, C)
    fit = _solve_svm(prep, gamma, y, C, alpha0, -1.0, tol, max_iter)
    counts = {"ADL": n_adl, "FALL": n_fall}
    return _svm_model(Variant.TC_SVM, prep, fit, y, fit.bias, counts, {"C": C})


def train_oc_svm(adl_vectors, nu, gamma="auto", tol=SVM_TOL, max_iter=None):
    """One-class RBF SVM on ADL data; score = rho - sum(alpha_i K(sv_i, v)).

    Positive scores mark points outside the learned support region, so the
    score grows with anomalousness.  Multipliers start uniform at 1/m,
    which keeps fully symmetric problems at the symmetric solution.  rho
    sits at the conservative edge of the solver's stopping interval, so
    only at-bound training vectors can score positive and the training
    outlier fraction stays below nu.  adl_vectors may be an SvmPrep of
    the training matrix, shared between calls on the same rows.
    """
    prep = adl_vectors if isinstance(adl_vectors, SvmPrep) else SvmPrep(adl_vectors)
    nu = float(nu)
    if not 0 < nu <= 1:
        raise InvalidNu(f"nu must lie in (0, 1], got {nu}")
    m = len(prep)
    if m < 2:
        raise InsufficientData("one-class SVM needs at least 2 vectors")

    y = np.ones(m)
    fit = _solve_svm(prep, gamma, y, 1.0 / (nu * m), np.full(m, 1.0 / m), 0.0, tol, max_iter)
    # Any offset inside the solver's stopping interval satisfies the
    # optimality conditions at tolerance.  Take the edge where no point
    # still free to grow its multiplier scores positive: outliers are then
    # always a subset of the at-bound vectors, whose count nu caps.
    if np.isfinite(fit.lo):
        rho = -fit.lo
    elif np.isfinite(fit.hi):
        rho = -fit.hi
    else:
        rho = 0.0
    return _svm_model(Variant.OC_SVM, prep, fit, y, rho, {"ADL": m, "FALL": 0}, {"nu": nu})


def _kernel_expansion(p, vectors, coef):
    """sum_i coef_i K(sv_i, q) for every row q of vectors, standardized
    first; one query x support-vector kernel block per budget-sized chunk."""
    qs = standardize_apply(vectors, p.mean, p.scale)
    sv = p.support_vectors
    sv_sq = _sq_norms(sv)
    step = max(1, int(_CACHE_BUDGET_BYTES / (16 * max(1, len(sv)))))
    out = np.empty(len(qs))
    for b in range(0, len(qs), step):
        out[b:b + step] = _rbf_block(qs[b:b + step], sv, sv_sq, p.gamma) @ coef
    return out


def _svm_scores(model, expansion):
    """An SVM model's scores from expansion(coef), the sums
    sum_i coef_i K(sv_i, q) over its support vectors for every query q."""
    p = model.parameters
    if model.variant is Variant.TC_SVM:
        return expansion(p.alpha * p.support_labels) + p.bias
    return p.bias - expansion(p.alpha)


class SvmQueryBlock:
    """The RBF kernel between query rows and an SvmPrep's training rows at
    one gamma, which scores every model trained on that SvmPrep and gamma.

    A model's scores take the block's columns at its support vectors: the
    score_batch values up to rounding, without rebuilding the kernel per
    model.  A block over _CACHE_BUDGET_BYTES is not built; each model is
    then scored by score_batch, chunk by chunk.
    """

    def __init__(self, prep, vectors, gamma):
        self.prep = prep
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.gamma = prep.resolve_gamma(gamma)
        self.block = None
        if 16.0 * len(self.vectors) * len(prep) <= _CACHE_BUDGET_BYTES:
            qs = standardize_apply(self.vectors, prep.mean, prep.scale)
            self.block = _rbf_block(qs, prep.Xs, prep.sq, self.gamma)

    def scores(self, model):
        p = model.parameters
        if p.gamma != self.gamma or p._source[0] is not self.prep._token:
            raise ValueError("model was not trained on this block's SvmPrep and gamma")
        if self.block is None:
            return score_batch(model, self.vectors)
        return _svm_scores(model, self.block[:, p.multipliers > _SV_EPS].__matmul__)


def score_batch(model, vectors):
    """Score each row of vectors under the model's variant definition."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.size == 0:
        return np.empty(0)
    if vectors.ndim != 2:
        raise DimensionError(f"expected a 2-d batch, got shape {vectors.shape}")
    if vectors.shape[1] != model.dim:
        raise DimensionError(
            f"query dimension {vectors.shape[1]} does not match training dimension {model.dim}"
        )
    p = model.parameters
    if isinstance(p, KnnModel):
        pools = (p.adl,) if p.fall is None else (p.adl, p.fall)
        tables = [knn_mean_distances_all_k(_distance_block(pool, vectors), p.k) for pool in pools]
        return _knn_scores(*tables)[:, p.k - 1]
    if model.variant in (Variant.TC_SVM, Variant.OC_SVM):
        return _svm_scores(model, lambda coef: _kernel_expansion(p, vectors, coef))
    raise ValueError(f"unknown variant {model.variant!r}")
