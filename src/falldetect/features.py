"""Feature extractors turning a triaxial window into a flat numeric vector,
a 1-d float64 array; extract_matrix stacks them and refuses non-finite rows.

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


def raw_features(w):
    """Concatenation of the three axes, x then y then z."""
    return np.concatenate([w.x, w.y, w.z])


def magnitude(w):
    """Per-sample acceleration magnitude sqrt(x^2 + y^2 + z^2)."""
    return w.magnitude()


def _energy(a):
    # Unnormalized forward DFT; by Parseval this equals the time-domain L2 norm.
    spectrum = np.fft.fft(a)
    return float(np.sqrt(np.sum(np.abs(spectrum) ** 2) / len(a)))


def _pearson(a, b):
    ca = a - a.mean()
    cb = b - b.mean()
    # An axis with no variation has no defined correlation; report 0.
    if not ca.any() or not cb.any():
        return 0.0
    r = float(ca @ cb / np.sqrt((ca @ ca) * (cb @ cb)))
    if not np.isfinite(r):
        return 0.0
    return min(1.0, max(-1.0, r))


def accel_features(w):
    """12 summary values per window.

    Layout: [mean_x, mean_y, mean_z, std_x, std_y, std_z,
             energy_x, energy_y, energy_z, corr_xy, corr_xz, corr_yz].
    Standard deviations are population (divide by L); energy is the
    root-mean spectral power of the unnormalized DFT.
    """
    if len(w) < 2:
        raise LengthError("accel_features needs at least 2 samples")
    axes = (w.x, w.y, w.z)
    return np.array(
        [a.mean() for a in axes]
        + [a.std() for a in axes]
        + [_energy(a) for a in axes]
        + [_pearson(w.x, w.y), _pearson(w.x, w.z), _pearson(w.y, w.z)]
    )


def _neighbour_offsets(n):
    # Symmetric: half before, half after (extra one after for odd n).
    before = n // 2
    after = n - before
    return list(range(-before, 0)) + list(range(1, after + 1))


def ltp_features(w, params=None):
    """Local temporal patterns of the magnitude series.

    For each sample s and each of its neighbours i, the output entry is
    max(0, ceil((M_s - M_i) / step)): the number of boost levels n in
    {0, step, 2*step, ...} at which M_s still exceeds M_i + n.  Per-sample
    maps are concatenated in sample order, giving num_neighbours * L
    entries, each an integer count.
    """
    if params is None:
        params = LtpParams()
    m = w.magnitude()
    L = len(m)
    offsets = _neighbour_offsets(params.num_neighbours)
    idx = np.clip(np.arange(L)[:, None] + np.array(offsets)[None, :], 0, L - 1)
    diff = m[:, None] - m[idx]
    # an upper bound of inf, not np.maximum(..., 0) or an upper bound of
    # None: those turn a -0.0 count into +0.0 and change the feature bytes
    return np.clip(np.ceil(diff / params.step), 0, np.inf).ravel()


def extract(w, kind, ltp_params=None):
    """Run the extractor named by kind on one window."""
    if kind is FeatureKind.RAW:
        return raw_features(w)
    if kind is FeatureKind.MAGNITUDE:
        return magnitude(w)
    if kind is FeatureKind.ACCEL_FEATURES:
        return accel_features(w)
    if kind is FeatureKind.LTP:
        return ltp_features(w, ltp_params)
    raise ValueError(f"unknown feature kind {kind!r}")


def extract_matrix(windows, kind, ltp_params=None):
    """Stack one feature row per window into a 2-d float64 array.

    DimensionError when the rows differ in length, or when a row holds a
    non-finite value, naming the first such window by its source_id (its
    index when the id is empty)."""
    rows = [extract(w, kind, ltp_params) for w in windows]
    if len({len(r) for r in rows}) > 1:
        raise DimensionError("windows produced feature vectors of differing lengths")
    X = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
    if bad.size:
        w = windows[bad[0]]
        name = repr(w.source_id) if w.source_id else str(bad[0])
        raise DimensionError(f"window {name} has non-finite {kind.value} features")
    return X
