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
    if m.ndim != 2 or 0 in m.shape:
        raise DimensionError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionError("training vectors must be finite")
    return m


# ---------------------------------------------------------------------------
# Nearest-neighbour machinery


def _exact_route(*matrices):
    """Whether every distance between rows of matrices, which share their
    d columns, may come from _gram_distances: every entry is an integer
    and 4 d max|x|^2 < 2^53.

    Then each product, partial sum and term of |q|^2 + |t|^2 - 2 q.t is
    an integer of magnitude below 2^53, so exact in float64 whatever the
    order of the sums or a fused multiply-add (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2.1), and so is every
    (q - t)^2 and sum of them: both forms give the same integer, and its
    np.sqrt the same float.  The check goes a chunk of rows at a time,
    each within _DIST_CHUNK_BYTES (but at least one row), and stops at
    the first chunk that is not integral.
    """
    d = matrices[0].shape[1]
    rows = max(1, int(_DIST_CHUNK_BYTES // max(8 * d, 1)))
    top = 0.0
    for m in matrices:
        for b in range(0, len(m), rows):
            c = m[b:b + rows]
            if not np.array_equal(c, np.rint(c)):  # NaN is never equal
                return False
            top = max(top, float(np.abs(c).max(initial=0.0)))
    # in exact integers; top < 2^26 refuses inf first
    return top < 2.0 ** 26 and 4 * d * int(top) ** 2 < 2 ** 53


def _gram_distances(queries, train, sq_q, sq_t, out):
    """out[i, j] = np.sqrt(sq_q[i] + sq_t[j] - 2 queries[i].train[j]) for
    the squared row norms sq_q and sq_t: the distance bit for bit when
    _exact_route holds for the rows.  One matrix product, written into out
    a chunk of query rows at a time, each chunk within _DIST_CHUNK_BYTES
    (but at least one row) so that the sums and the square root pass over
    it while it is in cache.  Beyond out, only the sums' ufunc buffer is
    allocated, at most a chunk."""
    rows = max(1, int(_DIST_CHUNK_BYTES // max(8 * len(train), 1)))
    for b in range(0, len(queries), rows):
        o = out[b:b + rows]
        np.matmul(queries[b:b + rows], train.T, out=o)
        o *= -2.0
        o += sq_q[b:b + rows, None]
        o += sq_t
        np.sqrt(o, out=o)
    return out


def _self_distances(X, exact=None):
    """Pairwise distances between the rows of X: D[i, j] is
    np.sqrt(((X[j] - X[i]) ** 2).sum()) bit for bit, the same pairwise sum
    over one row that every kNN distance is.

    When exact (_exact_route(X) when None), the matrix is _gram_distances
    of X with itself, and memory stays at the matrix plus one chunk of
    _DIST_CHUNK_BYTES (the check's, then the sums').  Otherwise each
    chunk of rows is taken against the rows from its first one on, in the
    difference form, and mirrored below the diagonal: (a - b)**2 and
    (b - a)**2 are the same float, so each entry is the same sum.  A chunk
    is as many rows as keep its difference arrays within
    _DIST_CHUNK_BYTES, but at least one, and one row's are 8 * n * d
    bytes.  Memory then stays at the matrix plus a few arrays of
    max(_DIST_CHUNK_BYTES, 8 * n * d) bytes.
    """
    n = len(X)
    if _exact_route(X) if exact is None else exact:
        sq = np.einsum("ij,ij->i", X, X)
        return _gram_distances(X, X, sq, sq, np.empty((n, n)))
    step = max(1, int(_DIST_CHUNK_BYTES // max(8 * X.size, 1)))
    D = np.empty((n, n))
    for b in range(0, n, step):
        q = X[b:b + step]
        D[b:b + step, b:] = np.sqrt(((X[None, b:] - q[:, None]) ** 2).sum(axis=2))
        D[b:, b:b + step] = D[b:b + step, b:].T
    return D


# Bounds for the Gram form of a squared distance, |q|^2 + |t|^2 - 2 q.t:
# the unit roundoff, the smallest subnormal, and the largest |q|^2 + |t|^2
# whose Gram form cannot overflow.
_U = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal
_GRAM_MAX = np.finfo(np.float64).max / 8


def _gram_error(d):
    """E / (|q|^2 + |t|^2) for d columns: the Gram form and the exact
    distance squared differ by less than E = (8 g + 16 u)(|q|^2 + |t|^2),
    g = gamma_{d+4} = (d+4)u / (1 - (d+4)u).  The inner-product bound is
    |fl(q.t) - q.t| <= gamma_d |q|.|t| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 3.1); the norms and the exact
    expression round alike, and the factors leave twice the room."""
    g = (d + 4) * _U / (1 - (d + 4) * _U)
    return 8 * g + 16 * _U


def _candidates(q, train, sq_t, k_max):
    """Mask of the entries of the q x train block that may be among their
    row's k_max smallest exact distances, ties included: those whose Gram
    form less its bound is at most the row's k_max-th smallest Gram form
    plus bound.  An entry whose |q|^2 + |t|^2 is not below _GRAM_MAX (or
    is not finite) is always one, and lifts its row's threshold to inf."""
    d = q.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        N = np.add.outer(np.einsum("ij,ij->i", q, q), sq_t)
        wild = ~(N < _GRAM_MAX)
        S = q @ train.T
        S *= -2.0
        S += N
        E = N
        E *= _gram_error(d)
        E += 8 * (d + 1) * _TINY  # each subnormal product may be off by _TINY / 2
        lo = S - E
        up = S
        up += E
    if wild.any():
        lo[wild], up[wild] = -np.inf, np.inf
    hi = np.partition(up, k_max - 1, axis=1)[:, k_max - 1:k_max]
    return lo <= hi


def _candidate_block(train, queries, k_max, sq_t=None, exact=None):
    """Query x training distances for a row's k_max nearest: at every
    entry kept, np.sqrt(((queries[i] - train[j]) ** 2).sum()) bit for bit;
    +inf elsewhere.  sq_t holds the training rows' squared norms, computed
    here when None.

    When exact (_exact_route(train, queries) when None), every entry is
    kept, and the block is _gram_distances: memory stays at the block plus
    one chunk of _DIST_CHUNK_BYTES.
    Otherwise the entries _candidates keeps are: every entry at most its
    row's k_max-th smallest exact distance, so the k_max smallest entries
    of each row are the exact ones, and every mean of them is.  The Gram
    forms then go a chunk of query rows at a time and the kept entries a
    chunk of pairs at a time, each within _DIST_CHUNK_BYTES (but at least
    one row or pair).  A k_max outside 1 to the width gives an all-inf
    block, which knn_mean_distances_all_k refuses.
    """
    n, d = train.shape
    if not 1 <= k_max <= n:
        return np.full((len(queries), n), np.inf)
    if sq_t is None:
        sq_t = np.einsum("ij,ij->i", train, train)  # no n x d temporary
    if _exact_route(train, queries) if exact is None else exact:
        sq_q = np.einsum("ij,ij->i", queries, queries)
        return _gram_distances(queries, train, sq_q, sq_t, np.empty((len(queries), n)))
    block = np.full((len(queries), n), np.inf)
    rows = max(1, int(_DIST_CHUNK_BYTES // (8 * n)))
    pairs = max(1, int(_DIST_CHUNK_BYTES // max(8 * d, 1)))
    for b in range(0, len(queries), rows):
        q = queries[b:b + rows]
        kept = np.flatnonzero(_candidates(q, train, sq_t, k_max))
        out = block[b:b + rows].reshape(-1)  # a view: the rows are contiguous
        for c in range(0, len(kept), pairs):
            at = kept[c:c + pairs]
            i, j = np.divmod(at, n)
            out[at] = np.sqrt(((q[i] - train[j]) ** 2).sum(axis=1))
    return block


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
    # C order whatever the block's: numpy sums a row pairwise only when the
    # row is contiguous, and column by column otherwise
    sd = np.ascontiguousarray(_k_smallest_rows(block, k_max))
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
    """Distances between the rows of one matrix, for every inner kNN split
    and outer test fold drawn from those rows.

    Each block is a _candidate_block of the rows until build_matrix is
    called; from then on, when the n x n matrix fits _CACHE_BUDGET_BYTES,
    blocks are read from it.  The k smallest entries of every row, and so
    every score, are the same bits either way.  Whether every distance
    takes the exact route (_exact_route) is decided once, over all rows.
    """

    def __init__(self, vectors):
        self.X = _as_matrix(vectors)
        self._sq = np.einsum("ij,ij->i", self.X, self.X)  # for candidate blocks
        self._exact = _exact_route(self.X)
        self._D = None

    def build_matrix(self):
        """Build the n x n matrix, once and when it fits the budget, for a k
        search whose many blocks read the same rows."""
        if self._D is None and 8.0 * len(self.X) ** 2 <= _CACHE_BUDGET_BYTES:
            self._D = _self_distances(self.X, self._exact)

    def _block(self, queries, train, k_max):
        if self._D is None:
            return _candidate_block(self.X[train], self.X[queries], k_max, self._sq[train],
                                    self._exact)
        return self._D[queries][:, train]  # two gathers: faster than one np.ix_

    def scores_all_k(self, adl, fall, queries, k_max):
        """_knn_scores of the rows at indices queries, a column per k in
        1..k_max, against the ADL rows at indices adl and the FALL rows at
        indices fall (None for one-class)."""
        da = knn_mean_distances_all_k(self._block(queries, adl, k_max), k_max)
        df = None if fall is None else knn_mean_distances_all_k(
            self._block(queries, fall, k_max), k_max)
        return _knn_scores(da, df)

    def held_out_scores_all_k(self, adl, fall, groups, k_max):
        """scores_all_k of the rows at the indices of each of groups, which
        share no row, stacked in order, each group against the rows at
        indices adl and fall (None for one-class) that are not in it.

        From the matrix, one block per pool holds every group's rows
        against the whole pool, with each row's entries in its own group
        at +inf: its k_max smallest entries are the same floats as in the
        group's own block, so every mean is the same bits.  Without the
        matrix, each group's own block fills its rows."""
        queries = np.concatenate(groups)
        sizes = [len(g) for g in groups]
        owner = np.full(len(self.X), -1)
        owner[queries] = np.repeat(np.arange(len(groups)), sizes)
        rows = np.cumsum([0] + sizes)

        def means(pool):
            mine = owner[pool]
            if self._D is None:
                return np.vstack([knn_mean_distances_all_k(
                    self._block(g, pool[mine != i], k_max), k_max) for i, g in enumerate(groups)])
            # the pool's rows in no group first, then each group's in turn,
            # so that each group's own entries are one rectangle
            inside = np.bincount(mine + 1, minlength=len(groups) + 1)
            width = len(pool) - inside[1:].max()  # the narrowest group's pool
            if k_max > width:
                raise InvalidK(f"k_max={k_max} needs 1 <= k_max <= {width} training rows")
            block = self._block(queries, pool[np.argsort(mine, kind="stable")], k_max)
            cols = np.cumsum(inside)
            for i in range(len(groups)):
                block[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = np.inf
            return knn_mean_distances_all_k(block, k_max)

        return _knn_scores(means(adl), None if fall is None else means(fall))


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
    steps from either kernel source.  The products are one stacked
    matmul, a matrix-vector product per batch element, whose buffer is
    doubled and subtracted once.
    """
    d2 = np.add.outer(sq[start:stop], sq)
    gram = np.matmul(Xs, Xs[start:stop, :, None])[:, :, 0]
    gram *= 2.0
    d2 -= gram
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
    """Standardized training rows: Xs, their squared norms sq, their
    squared-distance matrix d2 (None when d2 and a kernel together would
    exceed _CACHE_BUDGET_BYTES), and the mean and scale that standardized
    them."""

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

    def __len__(self):
        return len(self.Xs)

    def resolve_gamma(self, gamma):
        """gamma as a number: "auto" is 1 / (dim * mean feature variance of
        Xs), a variance of 0 or less read as 1; any other gamma must be
        finite and > 0."""
        if gamma == "auto":
            var = float(self.Xs.var(axis=0).mean())
            if var <= 0:
                var = 1.0
            return 1.0 / (self.Xs.shape[1] * var)
        gamma = float(gamma)
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {gamma}")
        return gamma

    def kernel(self, gamma):
        """Kernel for resolved gamma: a new matrix, or _KernelRows when d2
        is None."""
        if self.d2 is None:
            return _KernelRows(self.Xs, self.sq, gamma)
        return _rbf(self.d2.copy(), gamma)


def _dual_init(K, y, box, alpha, p):
    """The solver's state at the multipliers alpha: s = -y * G for the
    gradient G = y * (K @ (alpha * y)) + p, and the offsets up and low that
    mask s for the pair selection."""
    G = y * (K @ (alpha * y)) + p
    # As y_i^2 = 1, a pair step moves s by the two changed multipliers'
    # kernel rows alone.
    s = -y * G
    # 0 where a multiplier may still move that way, -inf (up) or +inf
    # (low) where it may not: the solvers add them to s, which costs less
    # than np.where.
    inf = float("inf")
    up = np.where(np.where(y > 0, alpha < box, alpha > 0), 0.0, -inf)
    low = np.where(np.where(y > 0, alpha > 0, alpha < box), 0.0, inf)
    return s, up, low


def _dual_bias(alpha, s, box, lo, hi):
    """The bias estimate of a finished solve, in violation units: the mean
    s over the free multipliers, or else the middle of the finite ends of
    the stopping interval (lo, hi)."""
    free = (alpha > 0) & (alpha < box)
    if free.any():
        return float(s[free].mean())
    finite = [v for v in (lo, hi) if np.isfinite(v)]
    return float(np.mean(finite)) if finite else 0.0


def _solve_pairwise_dual(K, y, box, alpha, p, tol, max_iter):
    """Minimize 1/2 a'Qa + p'a s.t. 0 <= a <= box, sum(a*y) fixed.

    Q_ij = y_i y_j K_ij, where K[i] is row i of the kernel matrix and K @ v
    its product with a vector.  Works the maximal violating pair each
    iteration (first-order selection) and stops when the duality-gap
    surrogate m(a) - M(a) drops to tol.  Returns the multipliers, the bias
    estimate in violation units, and run stats.
    """
    s, up, low = _dual_init(K, y, box, alpha, p)
    inf = float("inf")
    # scalars are read from lists: indexing a list is cheaper than an array
    yl, bl, a = y.tolist(), box.tolist(), alpha.tolist()
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
    return alpha, _dual_bias(alpha, s, box, lo, hi), iterations, converged, gap, lo, hi


def _rides(b, q, t, up_i, up_j, old_i, old_j, new_i, new_j):
    """Whether a sibling of box b takes the step a solve just computed:
    q = gap / eta, the step t that the solve's boxes allow, whether i and j
    have y > 0, their multipliers old, and their new ones.  The sibling's
    own step clips q by its rooms exactly as the solve does; it must come
    to t, and both new multipliers must stay below b, so that its masks,
    and so its next selection, stay the solve's.  A larger b only widens
    the sibling's rooms toward the solve's, so when a sibling rides a
    step, every looser one does."""
    u = q
    room = b - old_i if up_i else old_i
    if room < u:
        u = room
    room = old_j if up_j else b - old_j
    if room < u:
        u = room
    return u == t and new_i < b and new_j < b


# The process's one kernel stack: every lockstep solve takes its stack from
# this buffer, which grows when a solve needs more and is otherwise reused.
# A new stack per solve, freed after it, raises glibc's mmap threshold to
# its size, so that later arrays come from a heap the process keeps.  A
# buffer past a quarter of _CACHE_BUDGET_BYTES goes once its solve ends
# (_release_stack): one large search then does not leave the process
# holding it for every later one.
_stack = np.empty(0)


def _kernel_stack(count, M):
    """A (count, M, M) stack for kernels of up to M rows each, from the
    process's one stack buffer.  Its entries hold whatever was written
    last: _put_kernel fills a slot."""
    global _stack
    size = count * M * M
    if _stack.size < size:
        _stack = np.empty(0)  # the old buffer goes before the new one comes
        _stack = np.empty(size)
    return _stack[:size].reshape(count, M, M)


def _release_stack():
    """Drop the process's stack buffer if it is past a quarter of
    _CACHE_BUDGET_BYTES."""
    global _stack
    if _stack.nbytes > _CACHE_BUDGET_BYTES / 4:
        _stack = np.empty(0)


def _put_kernel(stack, g, prep, gamma):
    """prep's kernel at resolved gamma into slot g of stack, with the rest
    of its rows 0: padding that no lockstep step moves.  The kernel goes a
    chunk of rows at a time, each within _DIST_CHUNK_BYTES (but at least
    one row): from prep.d2, or from _sq_dist_rows when prep keeps no
    distances.  A row of _sq_dist_rows is the same bits alone or together,
    so the slot holds the bits of prep.kernel(gamma) with d2 either way."""
    m = len(prep)
    rows = max(1, int(_DIST_CHUNK_BYTES // (8 * m)))
    for b in range(0, m, rows):
        e = min(b + rows, m)
        d2 = _sq_dist_rows(prep.Xs, prep.sq, b, e) if prep.d2 is None else prep.d2[b:e].copy()
        stack[g, b:e, :m] = _rbf(d2, gamma)
    stack[g, :m, m:] = 0.0


def _solve_pairwise_duals(stack, problems, tol):
    """_solve_pairwise_dual(K, y, box, alpha, p, tol, max_iter) of every
    problem (k, y, box, alpha, p, max_iter), bit for bit, where K is the
    kernel in slot k of stack, a _kernel_stack.  alpha may be the index of
    an earlier problem on the same kernel, whose multipliers the problem
    then starts from.  One _lockstep call solves them all; the process's
    stack buffer is then released if it is large (_release_stack).
    """
    results = [None] * len(problems)
    on_kernel = {}
    for n, problem in enumerate(problems):
        on_kernel.setdefault(problem[0], []).append(n)
    _lockstep(stack, list(on_kernel.items()), problems, tol, results)
    _release_stack()
    return results


def _sibling_rows(problems, ready):
    """The lockstep rows of the problems ready, each (g, n, a): problem n
    on kernel slot g, to start from the multipliers a.  A row is (g, n, a,
    siblings).

    Problems whose slot, y, p, start and max_iter are the same, and whose
    boxes each hold one value b, share a row.  The loosest box leads it.
    Each other problem whose b lies above every multiplier of a rides on
    it as a sibling (n, b), loosest first; one that does not leads a row
    of its own, as does a problem whose box holds more than one value.
    Below every sibling's b no multiplier is at its box, so _dual_init
    gives the leader and each sibling the same masks, and they take the
    same steps until one that a sibling's box would clip or fill (_rides).
    For the one-class duals of one split and gamma, that is the first step
    at which the box 1/(nu m) of the largest nu binds.
    """
    if len(ready) == 1:
        (g, n, a), = ready
        return [(g, n, a, [])]
    groups = {}
    for g, n, a in ready:
        _, y, box, _, p, max_iter = problems[n]
        b = float(box[0])
        key = (g, y.tobytes(), p.tobytes(), a.tobytes(), max_iter) if (box == b).all() else n
        groups.setdefault(key, (g, a, []))[2].append((n, b))
    rows = []
    for g, a, members in groups.values():
        (n, _), *rest = sorted(members, key=lambda nb: -nb[1])
        top = a.max()
        rows.append((g, n, a, [(s, b) for s, b in rest if top < b]))
        rows.extend((g, s, a, []) for s, b in rest if not top < b)
    return rows


def _lockstep(stack, slots, problems, tol, results):
    """Solve the problems on the kernels of stack, one maximal-violating-
    pair step per row per pass: _solve_pairwise_dual's steps,
    elementwise, in its order.  slots pairs each slot g with the indices
    into problems of the problems on kernel stack[g]; problem n's result
    goes into results[n].

    Each row of the pass's (rows, M) arrays runs one problem at a time,
    with its own iteration count.  Entries past a problem's m are frozen:
    box 0, up -inf and low +inf, so argmax and argmin (which take the
    first of tied entries, as the scalar loop does) never pick them, and
    kernel 0, so no step moves them.  The problems whose start is known
    start first, in the rows of _sibling_rows.  When a row's problem
    converges or reaches its max_iter, it and the siblings still riding
    on it take its result, and the problems that start from them take
    the row, from _dual_init on a contiguous copy of their kernel, as
    _solve_pairwise_dual starts.  At every step a row checks that the
    step is its tightest sibling's own (_rides), and so every looser
    one's; where it is not, each sibling whose step it is not forks into
    a new row from the state before the step, the loosest leading and
    the others riding on it.  A row that no problem takes is freed, and new
    rows take free ones or wait for one; the rows are laid out anew once
    more than an eighth of them are free or as many new ones wait, or
    once every row is free.  The call ends when no row is left.
    """
    M = stack.shape[1]
    inf = float("inf")
    # the up and low offsets of a multiplier, indexed by whether it may
    # still move that way
    up_offset, low_offset = np.array([-inf, 0.0]), np.array([inf, 0.0])
    kernel_rows = stack.reshape(-1, M)
    after = {}  # problem index: (slot, index) of the problems that start from it
    ready = []
    for g, ns in slots:
        for n in ns:
            alpha = problems[n][3]
            if isinstance(alpha, int):
                after.setdefault(alpha, []).append((g, n))
            else:
                ready.append((g, n, alpha))

    # the state of a row that holds no problem: box 0, up -inf and low
    # +inf throughout, so that its gap is -inf and it never moves
    idle = np.zeros((6, M))
    idle[1], idle[2] = -inf, inf

    def start(ready):
        """A row (g, n, siblings, iterations, state) for each row of
        _sibling_rows, its state the (6, M) entries of s, up, low, alpha,
        y and box."""
        rows = []
        for g, n, a, siblings in _sibling_rows(problems, ready):
            _, y, box, _, p, _ = problems[n]
            m = len(y)
            state = idle.copy()
            # a contiguous copy, as prep.kernel returns it, so that K @ v
            # takes the same steps
            K = np.ascontiguousarray(stack[g, :m, :m])
            state[:, :m] = (*_dual_init(K, y, box, a, p), a, y, box)
            rows.append((g, n, siblings, 0, state))
        return rows

    def then(solved):
        """The rows of the problems that start from the problems solved."""
        return start([(g, n, results[s][0]) for s in solved for g, n in after.pop(s, ())])

    def put(r, row):
        """row into row r of the layout."""
        g, n, siblings, it, state = row
        X[:, r], iters[r], caps[r], slot[r] = state, it, problems[n][5], g
        lead[r], sibs[r] = n, siblings
        tight[r] = siblings[-1][1] if siblings else 0.0

    # Row r: its state X[:, r] (as start lays it out), iteration count,
    # max_iter and kernel slot, the problem it leads (None in a free row),
    # and its siblings still riding, loosest first; tight[r] is the box of
    # the last, the tightest.
    A = 0
    X = np.empty((6, 0, M))
    iters = caps = slot = np.empty(0, dtype=np.intp)
    tight = np.empty(0)
    lead, sibs, free, waiting = [], [], [], []
    kept, new = [], start(ready)
    while True:
        if kept is not None:  # lay out the rows kept, then the new ones
            k, A = len(kept), len(kept) + len(new)
            X0 = X
            X = np.empty((6, A, M))
            X[:, :k] = X0[:, kept]
            iters, caps, slot = (np.concatenate((v[kept], np.zeros(len(new), dtype=np.intp)))
                                 for v in (iters, caps, slot))
            tight = np.concatenate((tight[kept], np.zeros(len(new))))
            lead = [lead[r] for r in kept] + [None] * len(new)
            sibs = [sibs[r] for r in kept] + [None] * len(new)
            for r, row in enumerate(new, k):
                put(r, row)
            S, UP, LOW = X[:3]
            masks = X[1:3]
            # the multipliers, y and boxes of the rows, flat
            ayb = X[3:].reshape(3, -1)
            riding = np.array([bool(s) for s in sibs])
            kept, free = None, []
            if not A:
                break
            # Each pass handles i and j side by side: index arrays, values
            # and kernel rows hold i's for the A rows, then j's.
            base = np.arange(A) * M
            base2 = np.concatenate((base, base))
            # flat positions of each row's entry 0 in a (2, A, M) array:
            # in its first half, then in its second
            at2 = np.concatenate((base, base + A * M))
            # the kernel_rows index of each row's kernel's row 0, twice
            kbase2 = np.concatenate((slot, slot)) * M
            # new_j = old_j - yj * t is old_j + (-yj) * t, bit for bit
            sign2 = np.concatenate((np.ones(A), np.full(A, -1.0)))
            zero2 = np.zeros(2 * A)
            ij = np.empty(2 * A, dtype=np.intp)
            s_ul = np.empty((2, A, M))  # s + up, then s + low

        np.add(S, masks, s_ul)
        s_ul[0].argmax(axis=1, out=ij[:A])
        s_ul[1].argmin(axis=1, out=ij[A:])
        f2 = base2 + ij  # flat positions of i, then j
        fj = f2[A:]
        pair = at2 + ij
        lo_hi = s_ul.take(pair)
        lo, hi = lo_hi[:A], lo_hi[A:]
        gap = lo - hi
        done = gap <= tol
        done |= iters >= caps
        stopped = done.nonzero()[0].tolist()  # free rows among them
        ended = [r for r in stopped if lead[r] is not None] if free else stopped
        solved = []  # the problems that ended, siblings included
        for r in ended:
            n = lead[r]
            box = problems[n][2]
            m = len(box)
            alpha = X[3, r, :m].copy()
            lo_r, hi_r = float(lo[r]), float(hi[r])
            bias = _dual_bias(alpha, S[r, :m], box, lo_r, hi_r)
            results[n] = (alpha, bias, int(iters[r]), bool(gap[r] <= tol), float(gap[r]),
                          lo_r, hi_r)
            solved.append(n)
            for s, _ in sibs[r]:
                results[s] = results[n]
                solved.append(s)
            riding[r] = False

        k2 = kernel_rows.take(kbase2 + ij, axis=0)  # rows ki, then kj
        kk = k2.take(pair)  # ki[i], then kj[j]
        # the eta floor: where(eta <= _SV_EPS, _SV_EPS, eta) is this maximum
        eta = np.maximum(kk[:A] + kk[A:] - 2.0 * k2.take(fj), _SV_EPS)
        old2, y2, b2 = ayb.take(f2, axis=1)
        # the largest step keeping both multipliers inside their boxes,
        # i's room first
        dir2 = y2 * sign2
        room2 = np.where(dir2 > zero2, b2 - old2, old2)
        q = gap / eta
        t = np.where(room2[:A] < q, room2[:A], q)
        t = np.where(room2[A:] < t, room2[A:], t)
        if stopped:
            t[stopped] = 0.0  # a row that ended or is free takes no step
        new2 = old2 + (dir2.reshape(2, A) * t).ravel()
        new2 = np.where(new2 < zero2, zero2, new2)
        new2 = np.where(b2 < new2, b2, new2)
        new = []
        if riding.any():
            # _rides for each row's tightest sibling, elementwise: when it
            # rides, so does every looser one
            old_i, old_j = old2[:A], old2[A:]
            u = np.where(dir2[:A] > 0.0, tight - old_i, old_i)
            u = np.where(u < q, u, q)
            room = np.where(dir2[A:] > 0.0, tight - old_j, old_j)
            u = np.where(room < u, room, u)
            off = riding & ~((u == t) & (new2[:A] < tight) & (new2[A:] < tight))
            for r in off.nonzero()[0].tolist():
                step_r = (float(q[r]), float(t[r]), bool(y2[r] > 0), bool(y2[A + r] > 0),
                          float(old_i[r]), float(old_j[r]), float(new2[r]), float(new2[A + r]))
                stay = [sb for sb in sibs[r] if _rides(sb[1], *step_r)]
                # those that fork share a row from the state before the
                # step, the loosest leading
                (n, _), *rest = [sb for sb in sibs[r] if sb not in stay]
                state = X[:, r].copy()
                box = problems[n][2]
                state[5, :len(box)] = box
                new.append((slot[r], n, rest, int(iters[r]), state))
                sibs[r] = stay
                tight[r] = stay[-1][1] if stay else 0.0
                riding[r] = bool(stay)
        ayb[0].put(f2, new2)  # i before j

        # s -= (new_i - old_i) * yi * ki + (new_j - old_j) * yj * kj
        k2 *= ((new2 - old2) * y2)[:, None]
        step = k2[:A]
        step += k2[A:]
        S -= step
        # i before j, so j's masks win when i == j
        pos, below, above = y2 > zero2, new2 < b2, new2 > zero2
        UP.put(f2, up_offset.take(np.where(pos, below, above)))
        LOW.put(f2, low_offset.take(np.where(pos, above, below)))
        iters += 1

        if not (ended or new):
            continue
        # The forks and the problems that start from those that ended take
        # free rows in place, or wait; the rows are laid out anew, those
        # waiting included, once more than an eighth of them are free or
        # as many wait, or once all are free.
        free += ended
        waiting += new + then(solved)
        while free and waiting:
            r = free.pop()
            row = waiting.pop()
            put(r, row)
            kbase2[r] = kbase2[A + r] = row[0] * M
            riding[r] = bool(row[2])
        for r in free:
            if lead[r] is not None:
                X[:, r], lead[r] = idle, None
        if max(len(free), len(waiting)) > A // 8 or len(free) == A:
            kept, new, waiting = [r for r in range(A) if lead[r] is not None], waiting, []


def _svm_dual(variant, prep, labels, value):
    """(y, box, start, p, counts, hyper) of the variant's dual on prep's
    rows for value, its C or nu, with the class counts and the hyper
    ({"C": C} or {"nu": nu}); labels serve two-class only.

    Two-class: y = +1 for FALL and -1 for ADL, box C, start 0, p = -1.
    One-class: y = 1, box 1/(nu m), start 1/m, p = 0.
    """
    m = len(prep)
    if variant is Variant.OC_SVM:
        nu = float(value)
        if not 0 < nu <= 1:
            raise InvalidNu(f"nu must lie in (0, 1], got {nu}")
        if m < 2:
            raise InsufficientData("one-class SVM needs at least 2 vectors")
        return (np.ones(m), np.full(m, 1.0 / (nu * m)), np.full(m, 1.0 / m), np.full(m, 0.0),
                {"ADL": m, "FALL": 0}, {"nu": nu})
    is_fall = is_fall_mask(labels)
    if len(is_fall) != m:
        raise DimensionError("labels and vectors must correspond one to one")
    n_fall = int(is_fall.sum())
    if n_fall in (0, m):
        raise DegenerateLabels("two-class training needs both ADL and FALL instances")
    C = float(value)
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and > 0, got {C}")
    return (np.where(is_fall, 1.0, -1.0), np.full(m, C), np.zeros(m), np.full(m, -1.0),
            {"ADL": m - n_fall, "FALL": n_fall}, {"C": C})


def _svm_offset(variant, bias, lo, hi):
    """A solve's decision offset: two-class, its bias; one-class, rho.

    Any offset inside the solver's stopping interval (lo, hi) satisfies the
    optimality conditions at tolerance.  rho takes the edge where no point
    still free to grow its multiplier scores positive: outliers are then
    always a subset of the at-bound vectors, whose count nu caps.
    """
    if variant is Variant.TC_SVM:
        return bias
    if np.isfinite(lo):
        return -lo
    if np.isfinite(hi):
        return -hi
    return 0.0


def _fit_svm(variant, vectors, labels, value, gamma, tol, max_iter):
    """The trained model of the variant's dual on the rows of vectors.
    max_iter defaults to 10 m, and a solve it stops warns."""
    prep = SvmPrep(vectors)
    y, box, start, p, counts, hyper = _svm_dual(variant, prep, labels, value)
    gamma = prep.resolve_gamma(gamma)
    m = len(prep)
    alpha, bias, iters, converged, gap, lo, hi = _solve_pairwise_dual(
        prep.kernel(gamma), y, box, start, p, tol, 10 * m if max_iter is None else max_iter
    )
    if not converged:
        warnings.warn(
            f"pairwise solver stopped at {iters} iterations with gap {gap:.3g}",
            ConvergenceWarning,
        )
    keep = alpha > _SV_EPS
    params = SvmModel(
        gamma=gamma, alpha=alpha[keep], support_vectors=prep.Xs[keep],
        bias=_svm_offset(variant, bias, lo, hi),
        support_labels=y[keep] if variant is Variant.TC_SVM else None,
        mean=prep.mean, scale=prep.scale, **hyper,
    )
    summary = {
        "variant": variant.value, "counts": counts, **hyper, "gamma": gamma,
        "standardized": True, "support_vectors": int(keep.sum()),
        "iterations": iters, "converged": converged, "gap": gap,
    }
    return TrainedModel(variant, params, summary)


def train_tc_svm(vectors, labels, C, gamma="auto", tol=SVM_TOL, max_iter=None):
    """Soft-margin RBF SVM on both classes; score is the decision value.

    FALL maps to y = +1, so the raw decision value is already oriented
    with fall-likeness.  Features are z-scored with training statistics.
    Multipliers start at 0.
    """
    return _fit_svm(Variant.TC_SVM, vectors, labels, C, gamma, tol, max_iter)


def train_oc_svm(adl_vectors, nu, gamma="auto", tol=SVM_TOL, max_iter=None):
    """One-class RBF SVM on ADL data; score = rho - sum(alpha_i K(sv_i, v)).

    Positive scores mark points outside the learned support region, so the
    score grows with anomalousness.  Multipliers start uniform at 1/m,
    which keeps fully symmetric problems at the symmetric solution.  rho
    sits at the conservative edge of the solver's stopping interval, so
    only at-bound training vectors can score positive and the training
    outlier fraction stays below nu.
    """
    return _fit_svm(Variant.OC_SVM, adl_vectors, None, nu, gamma, tol, max_iter)


def _kernel_expansion(qs, sv, gamma, coef):
    """sum_i coef_i K(sv_i, q) for every standardized query row q of qs;
    one query x support-vector kernel block per budget-sized chunk."""
    sv_sq = _sq_norms(sv)
    step = max(1, int(_CACHE_BUDGET_BYTES / (16 * max(1, len(sv)))))
    out = np.empty(len(qs))
    for b in range(0, len(qs), step):
        out[b:b + step] = _rbf_block(qs[b:b + step], sv, sv_sq, gamma) @ coef
    return out


def _svm_scores(variant, expansion, alpha, labels, offset):
    """The scores of an SVM with support-vector multipliers alpha (and
    labels, two-class) and decision offset, from expansion(coef): the sums
    sum_i coef_i K(sv_i, q) over its support vectors for every query q."""
    if variant is Variant.TC_SVM:
        return expansion(alpha * labels) + offset
    return offset - expansion(alpha)


class SvmQueryBlock:
    """The RBF kernel between query rows and an SvmPrep's training rows at
    one gamma, which scores every solve on that SvmPrep and gamma.

    A solve's scores take the block's columns at its support vectors: the
    score_batch values of its model up to rounding, without rebuilding the
    kernel per solve.  Once built, the block is all it keeps: neither the
    SvmPrep nor the standardized queries.  A block over _CACHE_BUDGET_BYTES
    is not built; it then keeps both sets of rows, and each solve is scored
    as score_batch scores its model, chunk by chunk.

    d2, when given, is sq_dists(prep, vectors), which the block is built
    from in place: the blocks of one prep and queries at several gammas can
    share one computation of it, each taking its own copy.
    """

    def __init__(self, prep, vectors, gamma, d2=None):
        self.gamma = prep.resolve_gamma(gamma)
        if d2 is None:
            d2 = self.sq_dists(prep, vectors)
        self.block = None if d2 is None else _rbf(d2, self.gamma)
        if d2 is None:  # the rows that each solve's scores are computed from
            self.qs, self.Xs = standardize_apply(vectors, prep.mean, prep.scale), prep.Xs

    @staticmethod
    def sq_dists(prep, vectors):
        """The squared distances from the standardized query rows to
        prep's rows, or None when the block would be over the budget."""
        if 16.0 * len(vectors) * len(prep) > _CACHE_BUDGET_BYTES:
            return None
        qs = standardize_apply(vectors, prep.mean, prep.scale)
        return _sq_dists(qs, _sq_norms(qs), prep.Xs, prep.sq)

    def scores(self, variant, alpha, y, offset):
        """The queries' scores under the variant's model whose multipliers
        over prep's rows, labelled y, are alpha, with decision offset offset
        (_svm_offset)."""
        keep = alpha > _SV_EPS
        if self.block is not None:
            expansion = self.block[:, keep].__matmul__
        else:
            def expansion(coef):
                return _kernel_expansion(self.qs, self.Xs[keep], self.gamma, coef)
        return _svm_scores(variant, expansion, alpha[keep], y[keep], offset)


def score_batch(model, vectors):
    """Score each row of vectors under the model's variant definition."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[:1] == (0,):  # no rows
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
        exact = _exact_route(vectors, *pools)
        tables = [knn_mean_distances_all_k(_candidate_block(pool, vectors, p.k, exact=exact), p.k)
                  for pool in pools]
        return _knn_scores(*tables)[:, p.k - 1]
    if model.variant in (Variant.TC_SVM, Variant.OC_SVM):
        qs = standardize_apply(vectors, p.mean, p.scale)

        def expansion(coef):
            return _kernel_expansion(qs, p.support_vectors, p.gamma, coef)

        return _svm_scores(model.variant, expansion, p.alpha, p.support_labels, p.bias)
    raise ValueError(f"unknown variant {model.variant!r}")
