"""Feature extractors turning a triaxial window into a flat numeric vector,
a 1-d float64 array.  extract_matrix computes the rows of many windows at
once, over one (windows, 3, L) stack per window length, and refuses
non-finite rows; the per-window extractors are its one-window case.

Four representations are supported: the raw concatenated axes, the
per-sample magnitude, a 12-value summary (means, deviations, spectral
energies, axis correlations), and local temporal patterns built from
boosted-magnitude comparisons against neighbouring samples.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LengthError


class FeatureKind(enum.Enum):
    RAW = "RAW"
    MAGNITUDE = "MAGNITUDE"
    ACCEL_FEATURES = "ACCEL_FEATURES"
    LTP = "LTP"


@dataclass
class LtpParams:
    """Knobs for the local-temporal-pattern extractor.

    num_neighbours samples around each position are compared against it;
    step is the magnitude increment between boost levels.
    """

    num_neighbours: int = 6
    step: float = 1.0

    def __post_init__(self):
        if self.num_neighbours < 1:
            raise ValueError("num_neighbours must be at least 1")
        if self.step <= 0:
            raise ValueError("step must be positive")


def _stack(windows):
    """The windows as one (windows, 3, L) float64 array, axes x, y, z."""
    return np.array([(w.x, w.y, w.z) for w in windows], dtype=np.float64)


def _magnitudes(W):
    """Per-sample magnitude of every window of the stack W, (windows, L)."""
    return np.sqrt(W[:, 0] ** 2 + W[:, 1] ** 2 + W[:, 2] ** 2)


def raw_features(w):
    """Concatenation of the three axes, x then y then z."""
    return extract(w, FeatureKind.RAW)


def magnitude(w):
    """Per-sample acceleration magnitude sqrt(x^2 + y^2 + z^2)."""
    return extract(w, FeatureKind.MAGNITUDE)


def _energy(a):
    # Unnormalized forward DFT along the last axis; by Parseval this equals
    # the time-domain L2 norm.
    spectrum = np.fft.fft(a, axis=-1)
    return np.sqrt(np.sum(np.abs(spectrum) ** 2, axis=-1) / a.shape[-1])


def _correlations(W, mean):
    """Pearson's r of the axis pairs xy, xz and yz of every window, 0 where
    an axis has no variation or r is not finite, clipped to [-1, 1]."""
    C = W - mean[..., None]
    moving = C.any(axis=2)

    def dot(i, j):
        # stacked 1 x L by L x 1 products: the same BLAS dot as ca @ cb
        return np.matmul(C[:, i, None, :], C[:, j, :, None])[:, 0, 0]

    squares = [dot(i, i) for i in range(3)]
    out = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = dot(a, b) / np.sqrt(squares[a] * squares[b])
        ok = moving[:, a] & moving[:, b] & np.isfinite(r)
        out.append(np.clip(np.where(ok, r, 0.0), -1.0, 1.0))
    return np.stack(out, axis=1)


def _accel_rows(W):
    if W.shape[2] < 2:
        raise LengthError("accel_features needs at least 2 samples")
    mean = W.mean(axis=2)
    return np.concatenate([mean, W.std(axis=2), _energy(W), _correlations(W, mean)], axis=1)


def accel_features(w):
    """12 summary values per window.

    Layout: [mean_x, mean_y, mean_z, std_x, std_y, std_z,
             energy_x, energy_y, energy_z, corr_xy, corr_xz, corr_yz].
    Standard deviations are population (divide by L); energy is the
    root-mean spectral power of the unnormalized DFT.
    """
    return extract(w, FeatureKind.ACCEL_FEATURES)


def _neighbour_offsets(n):
    # Symmetric: half before, half after (extra one after for odd n).
    before = n // 2
    after = n - before
    return list(range(-before, 0)) + list(range(1, after + 1))


def _ltp_rows(W, params):
    if params is None:
        params = LtpParams()
    m = _magnitudes(W)
    L = m.shape[1]
    offsets = _neighbour_offsets(params.num_neighbours)
    idx = np.clip(np.arange(L)[:, None] + np.array(offsets)[None, :], 0, L - 1)
    # one (windows, L, neighbours) array, each step written over the last
    diff = m[:, idx]
    np.subtract(m[:, :, None], diff, out=diff)
    np.ceil(np.divide(diff, params.step, out=diff), out=diff)
    # an upper bound of inf, not np.maximum(..., 0) or an upper bound of
    # None: those turn a -0.0 count into +0.0 and change the feature bytes
    return np.clip(diff, 0, np.inf, out=diff).reshape(len(W), -1)


def ltp_features(w, params=None):
    """Local temporal patterns of the magnitude series.

    For each sample s and each of its neighbours i, the output entry is
    max(0, ceil((M_s - M_i) / step)): the number of boost levels n in
    {0, step, 2*step, ...} at which M_s still exceeds M_i + n.  Per-sample
    maps are concatenated in sample order, giving num_neighbours * L
    entries, each an integer count.
    """
    return extract(w, FeatureKind.LTP, params)


def _rows(W, kind, ltp_params):
    """One feature row of kind per window of the stack W."""
    if kind is FeatureKind.RAW:
        return W.reshape(len(W), -1)
    if kind is FeatureKind.MAGNITUDE:
        return _magnitudes(W)
    if kind is FeatureKind.ACCEL_FEATURES:
        return _accel_rows(W)
    if kind is FeatureKind.LTP:
        return _ltp_rows(W, ltp_params)
    raise ValueError(f"unknown feature kind {kind!r}")


def extract(w, kind, ltp_params=None):
    """Run the extractor named by kind on one window: the one-window case
    of extract_matrix."""
    return _rows(_stack([w]), kind, ltp_params)[0]


def extract_matrix(windows, kind, ltp_params=None):
    """Stack one feature row per window into a 2-d float64 array, each kind
    computed over the windows of one length at a time as one stack.

    DimensionError when the rows differ in length, or when a row holds a
    non-finite value, naming the first such window by its source_id (its
    index when the id is empty)."""
    if not windows:
        return np.empty(0)
    by_length = {}
    for i, w in enumerate(windows):
        by_length.setdefault(len(w), []).append(i)
    # only the summary rows are of one length whatever the window's
    if len(by_length) > 1 and kind in (FeatureKind.RAW, FeatureKind.MAGNITUDE, FeatureKind.LTP):
        raise DimensionError("windows produced feature vectors of differing lengths")
    parts = [(at, _rows(_stack([windows[i] for i in at]), kind, ltp_params))
             for at in by_length.values()]
    X = parts[0][1]
    if len(parts) > 1:
        X = np.empty((len(windows), X.shape[1]))
        for at, rows in parts:
            X[at] = rows
    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
    if bad.size:
        w = windows[bad[0]]
        name = repr(w.source_id) if w.source_id else str(bad[0])
        raise DimensionError(f"window {name} has non-finite {kind.value} features")
    return X
