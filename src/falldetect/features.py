"""Feature extractors turning a triaxial window into a flat numeric vector.

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
    step is the magnitude increment between boost levels.  m_max is
    normally computed per window (ceiling of the peak magnitude) but can
    be pinned for experiments.
    """

    num_neighbours: int = 6
    step: float = 1.0
    m_max: float | None = None

    def __post_init__(self):
        if self.num_neighbours < 1:
            raise ValueError("num_neighbours must be at least 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.m_max is not None:
            if self.m_max < 0:
                raise ValueError("m_max must be non-negative")
            ratio = self.m_max / self.step
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError("m_max must be an integer multiple of step")


@dataclass
class FeatureVector:
    values: np.ndarray
    kind: FeatureKind
    window_len: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DimensionError(f"feature values must be 1-d, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DimensionError("feature values must all be finite")
        n = len(self.values)
        L = self.window_len
        ok = {
            FeatureKind.RAW: n == 3 * L,
            FeatureKind.MAGNITUDE: n == L,
            FeatureKind.ACCEL_FEATURES: n == 12,
            # neighbour count is a parameter, so only divisibility is fixed
            FeatureKind.LTP: L > 0 and n % L == 0 and n >= L,
        }[self.kind]
        if not ok:
            raise DimensionError(
                f"{self.kind.value} over window_len {L} cannot have dimension {n}"
            )

    def __len__(self):
        return len(self.values)


def raw_features(w):
    """Concatenation of the three axes, x then y then z."""
    values = np.concatenate([w.x, w.y, w.z])
    return FeatureVector(values, FeatureKind.RAW, len(w))


def magnitude(w):
    """Per-sample acceleration magnitude sqrt(x^2 + y^2 + z^2)."""
    return FeatureVector(w.magnitude(), FeatureKind.MAGNITUDE, len(w))


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
    values = np.array(
        [a.mean() for a in axes]
        + [a.std() for a in axes]
        + [_energy(a) for a in axes]
        + [_pearson(w.x, w.y), _pearson(w.x, w.z), _pearson(w.y, w.z)]
    )
    return FeatureVector(values, FeatureKind.ACCEL_FEATURES, len(w))


def _neighbour_offsets(n):
    # Symmetric: half before, half after (extra one after for odd n).
    before = n // 2
    after = n - before
    return list(range(-before, 0)) + list(range(1, after + 1))


def ltp_features(w, params=None):
    """Local temporal patterns of the magnitude series.

    For each sample s and each of its neighbours i, the output entry is
    the number of boost levels n in {0, step, 2*step, ..., m_max} at which
    M_s still exceeds M_i + n.  Per-sample maps are concatenated in sample
    order, giving num_neighbours * L entries, each an integer count.
    """
    if params is None:
        params = LtpParams()
    m = w.magnitude()
    L = len(m)
    step = params.step
    if params.m_max is not None:
        levels = int(round(params.m_max / step))
    else:
        # Rounding guard so an exact multiple of step is not pushed up a level.
        levels = int(np.ceil(round(float(m.max()) / step, 9)))
        levels = max(levels, 0)
    offsets = _neighbour_offsets(params.num_neighbours)
    idx = np.clip(np.arange(L)[:, None] + np.array(offsets)[None, :], 0, L - 1)
    diff = m[:, None] - m[idx]
    counts = np.clip(np.ceil(diff / step), 0, levels + 1)
    return FeatureVector(counts.ravel(), FeatureKind.LTP, L)


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
    """Stack one feature vector per window into a 2-d array."""
    rows = [extract(w, kind, ltp_params).values for w in windows]
    if len({len(r) for r in rows}) > 1:
        raise DimensionError("windows produced feature vectors of differing lengths")
    return np.asarray(rows, dtype=np.float64)
