"""One-class and two-class kNN and RBF-SVM scorers behind one interface.

Every trained model exposes a real-valued score where higher means more
fall-like.  kNN scoring works on raw feature vectors with Euclidean
distance; SVM training standardizes features with training statistics and
solves its dual problem with a pairwise coordinate (SMO-style) solver
written here.
"""

import enum
import warnings
from collections import namedtuple
from dataclasses import dataclass

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


def _distances_to_all(train, query):
    # The one Euclidean kernel every kNN path shares, so results agree
    # bit for bit regardless of how the k smallest are then selected.
    return np.sqrt(((train - query) ** 2).sum(axis=1))


def knn_bruteforce_oracle(train, query, k):
    """Sorted k smallest Euclidean distances by exhaustive scan and full sort."""
    train = _as_matrix(train)
    d = _distances_to_all(train, np.asarray(query, dtype=np.float64))
    return np.sort(d)[:k]


def _chunk_rows(train):
    """Queries per chunk whose differences to train fit _DIST_CHUNK_BYTES."""
    return max(1, int(_DIST_CHUNK_BYTES // max(8 * train.size, 1)))


def _distance_block(train, queries):
    """Euclidean distances from every query to every training row:
    block[q, i] is _distances_to_all(train, queries[q])[i], bit for bit,
    as each entry is the same pairwise sum over one row.  Queries go in
    chunks whose difference arrays stay within _DIST_CHUNK_BYTES."""
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


def _k_smallest_sorted(train, query, k):
    return _k_smallest_rows(_distance_block(train, query[None, :]), k)[0]


def _mean_k_smallest(block, k_max):
    """Entry [q, k-1]: the mean of the k smallest entries of block[q].

    Each mean is the prefix's own sum over k, not a running sum: numpy
    sums 8 or more values pairwise, so only this matches the oracle's
    sorted[:k].sum() / k exactly.
    """
    sd = _k_smallest_rows(block, k_max)
    out = np.empty((len(sd), k_max))
    for k in range(1, k_max + 1):
        out[:, k - 1] = sd[:, :k].sum(axis=1) / k
    return out


def knn_mean_distances_all_k(train, queries, k_max):
    """Matrix of mean-of-k-nearest distances for every k in 1..k_max.

    Shares one distance block across the whole k grid; entry [q, k-1] is
    the mean of the k smallest distances from queries[q] to the rows of
    train.  Every kNN score computed outside a KnnPrep comes from here.
    """
    train = _as_matrix(train)
    if not 1 <= k_max <= len(train):
        raise InvalidK(f"k_max={k_max} needs 1 <= k_max <= {len(train)} training vectors")
    queries = np.asarray(queries, dtype=np.float64)
    return _mean_k_smallest(_distance_block(train, queries), k_max)


def knn_mean_distance(train, query, k):
    """Mean distance from query to its k nearest rows of train: entry
    [0, k-1] of the one-query table."""
    return float(knn_mean_distances_all_k(train, np.asarray(query)[None, :], k)[0, k - 1])


def _knn_scores(da, df):
    """One-class score dA when df is None; otherwise the two-class score
    dA / (dA + dF), and 0.5 where both mean distances are 0."""
    if df is None:
        return da
    tot = da + df
    return np.where(tot == 0, 0.5, da / np.where(tot == 0, 1.0, tot))


def knn_scores_all_k(adl, fall, queries, k_max):
    """kNN scores of queries for every k in 1..k_max, column k-1 for k.

    With fall None, the one-class score: the mean distance dA to the k
    nearest ADL rows.  Otherwise the two-class score dA / (dA + dF), dF
    taken over the FALL rows.
    """
    da = knn_mean_distances_all_k(adl, queries, k_max)
    df = None if fall is None else knn_mean_distances_all_k(fall, queries, k_max)
    return _knn_scores(da, df)


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
        """knn_scores_all_k over the rows of the matrix indexed by adl,
        fall (None for one-class) and queries."""
        pool = len(adl) if fall is None else min(len(adl), len(fall))
        if not 1 <= k_max <= pool:
            raise InvalidK(f"k_max={k_max} needs 1 <= k_max <= {pool}, the smallest class pool")
        da = _mean_k_smallest(self._block(queries, adl), k_max)
        df = None if fall is None else _mean_k_smallest(self._block(queries, fall), k_max)
        return _knn_scores(da, df)


@dataclass
class KnnModel:
    k: int
    train_vectors: np.ndarray
    train_labels: np.ndarray | None = None  # is-FALL mask, two-class only

    def __post_init__(self):
        self.train_vectors = _as_matrix(self.train_vectors)


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

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.support_vectors = np.asarray(self.support_vectors, dtype=np.float64)
        if self.support_labels is not None:
            self.support_labels = np.asarray(self.support_labels, dtype=np.float64)
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.scale is not None:
            self.scale = np.asarray(self.scale, dtype=np.float64)


@dataclass
class TrainedModel:
    variant: Variant
    parameters: object
    training_summary: dict

    @property
    def dim(self):
        p = self.parameters
        if isinstance(p, KnnModel):
            return p.train_vectors.shape[1]
        return p.support_vectors.shape[1]

    def score(self, vector):
        return float(score_batch(self, np.asarray(vector, dtype=np.float64)[None, :])[0])


def train_oc_knn(adl_vectors, k):
    """One-class kNN: score is the mean distance to the k nearest ADL vectors."""
    train = _as_matrix(adl_vectors)
    k = int(k)
    if not 1 <= k <= len(train):
        raise InvalidK(f"k={k} needs 1 <= k <= {len(train)} training vectors")
    params = KnnModel(k=k, train_vectors=train)
    summary = {"variant": "OC_KNN", "k": k, "counts": {"ADL": len(train), "FALL": 0}}
    return TrainedModel(Variant.OC_KNN, params, summary)


def train_tc_knn(vectors, labels, k):
    """Two-class kNN: score = dA / (dA + dF) over mean k-nearest distances."""
    train = _as_matrix(vectors)
    is_fall = is_fall_mask(labels)
    if len(is_fall) != len(train):
        raise DimensionError("labels and vectors must correspond one to one")
    k = int(k)
    n_fall = int(is_fall.sum())
    n_adl = len(is_fall) - n_fall
    if k < 1 or k > min(n_adl, n_fall):
        raise InvalidK(f"k={k} needs 1 <= k <= per-class count (ADL {n_adl}, FALL {n_fall})")
    params = KnnModel(k=k, train_vectors=train, train_labels=is_fall)
    summary = {"variant": "TC_KNN", "k": k, "counts": {"ADL": n_adl, "FALL": n_fall}}
    return TrainedModel(Variant.TC_KNN, params, summary)


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
        self.mean = X.mean(axis=0)
        scale = X.std(axis=0)
        self.scale = np.where(scale > 0, scale, 1.0)
        self.Xs = standardize_apply(X, self.mean, self.scale)
        self.sq = _sq_norms(self.Xs)
        m = len(X)
        fits = 16.0 * m * m <= _CACHE_BUDGET_BYTES
        self.d2 = _sq_dist_rows(self.Xs, self.sq, 0, m) if fits else None
        self._gamma = None
        self._kernel = None

    def __len__(self):
        return len(self.Xs)

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
    up = np.where(np.where(y > 0, alpha < box, alpha > 0), 0.0, -np.inf)
    low = np.where(np.where(y > 0, alpha > 0, alpha < box), 0.0, np.inf)
    # scalars are read from lists: indexing a list is cheaper than an array
    yl = y.tolist()
    bl = box.tolist()
    a = alpha.tolist()

    iterations = 0
    converged = False
    while True:
        s_up = s + up
        s_low = s + low
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
        # largest step keeping both multipliers inside their boxes
        room_i = bl[i] - old_i if yi > 0 else old_i
        room_j = old_j if yj > 0 else bl[j] - old_j
        t = min(gap / eta, room_i, room_j)

        new_i = a[i] = min(max(old_i + yi * t, 0.0), bl[i])
        new_j = a[j] = min(max(old_j - yj * t, 0.0), bl[j])
        s -= (new_i - old_i) * yi * ki + (new_j - old_j) * yj * kj
        for k, ak in ((i, new_i), (j, new_j)):
            below_box, above_zero = ak < bl[k], ak > 0.0
            in_up, in_low = (below_box, above_zero) if yl[k] > 0 else (above_zero, below_box)
            up[k] = 0.0 if in_up else -np.inf
            low[k] = 0.0 if in_low else np.inf
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

    y labels the rows; box, start and p are the multipliers' upper bound,
    starting value and linear term, the same for every row.  max_iter
    defaults to 10 m, and a solve it stops warns.  keep marks the support
    vectors, and (lo, hi) is the solver's stopping interval.
    """
    gamma = resolve_gamma(gamma, prep.Xs)
    m = len(prep)
    if max_iter is None:
        max_iter = 10 * m
    alpha, bias, iters, converged, gap, lo, hi = _solve_pairwise_dual(
        prep.kernel(gamma), y, np.full(m, box), np.full(m, start), np.full(m, p), tol, max_iter
    )
    if not converged:
        warnings.warn(
            f"pairwise solver stopped at {iters} iterations with gap {gap:.3g}",
            ConvergenceWarning,
        )
    stats = {"iterations": iters, "converged": converged, "gap": gap}
    return _SvmFit(gamma, alpha, alpha > _SV_EPS, bias, lo, hi, stats)


def _svm_model(variant, prep, fit, bias, counts, hyper, support_labels=None):
    """The trained model of one solve: the kept support vectors and their
    multipliers, and the variant's class counts and hyper, its C or nu."""
    params = SvmModel(
        gamma=fit.gamma, alpha=fit.alpha[fit.keep], support_vectors=prep.Xs[fit.keep], bias=bias,
        support_labels=support_labels, mean=prep.mean, scale=prep.scale, **hyper,
    )
    summary = {
        "variant": variant.value, "counts": counts, **hyper, "gamma": fit.gamma,
        "standardized": True, "support_vectors": int(fit.keep.sum()), **fit.stats,
    }
    return TrainedModel(variant, params, summary)


def train_tc_svm(vectors, labels, C, gamma="auto", tol=SVM_TOL, max_iter=None):
    """Soft-margin RBF SVM on both classes; score is the decision value.

    FALL maps to y = +1, so the raw decision value is already oriented
    with fall-likeness.  Features are z-scored with training statistics.
    vectors may be an SvmPrep of the training matrix, shared between
    calls on the same rows.
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
    fit = _solve_svm(prep, gamma, y, C, 0.0, -1.0, tol, max_iter)
    counts = {"ADL": n_adl, "FALL": n_fall}
    return _svm_model(Variant.TC_SVM, prep, fit, fit.bias, counts, {"C": C}, y[fit.keep])


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

    fit = _solve_svm(prep, gamma, np.ones(m), 1.0 / (nu * m), 1.0 / m, 0.0, tol, max_iter)
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
    return _svm_model(Variant.OC_SVM, prep, fit, rho, {"ADL": m, "FALL": 0}, {"nu": nu})


def _kernel_expansion(p, vectors, coef):
    """sum_i coef_i K(sv_i, q) for every row q of vectors, standardized
    first; one query x support-vector kernel block per budget-sized chunk."""
    qs = standardize_apply(vectors, p.mean, p.scale)
    sv = p.support_vectors
    sv_sq = _sq_norms(sv)
    step = max(1, int(_CACHE_BUDGET_BYTES / (16 * max(1, len(sv)))))
    out = np.empty(len(qs))
    for b in range(0, len(qs), step):
        q = qs[b:b + step]
        out[b:b + step] = _rbf(_sq_dists(q, _sq_norms(q), sv, sv_sq), p.gamma) @ coef
    return out


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
    if model.variant is Variant.OC_KNN:
        return knn_scores_all_k(p.train_vectors, None, vectors, p.k)[:, p.k - 1]
    if model.variant is Variant.TC_KNN:
        adl, fall = p.train_vectors[~p.train_labels], p.train_vectors[p.train_labels]
        return knn_scores_all_k(adl, fall, vectors, p.k)[:, p.k - 1]
    if model.variant is Variant.TC_SVM:
        return _kernel_expansion(p, vectors, p.alpha * p.support_labels) + p.bias
    if model.variant is Variant.OC_SVM:
        return p.bias - _kernel_expansion(p, vectors, p.alpha)
    raise ValueError(f"unknown variant {model.variant!r}")
