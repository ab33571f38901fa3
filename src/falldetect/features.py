"""Feature extractors turning a triaxial window into a flat numeric vector,
a 1-d float64 array.  extract_matrix cuts every window to one given length
and computes their rows a bounded (windows, 3, L) chunk at a time, refusing
non-finite rows; extract is its one-window case, at the window's length.

Four representations are supported: the raw concatenated axes, the
per-sample magnitude, a 12-value summary (means, deviations, spectral
energies, axis correlations), and local temporal patterns built from
boosted-magnitude comparisons against neighbouring samples.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LengthError, above_zero, at_least, checked
from .ingest import cut_start

# extract_matrix fills and computes a (windows, 3, L) float64 stack of at
# most this many bytes at a time, and never less than one window: about 80
# windows at L = 128.  Extraction then holds the feature matrix and one
# chunk's working set, whatever the number of windows.
_CHUNK_BYTES = 250_000


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
    # each field's bound, checked when built; the CLI reads it too
    BOUNDS = {"num_neighbours": at_least(1), "step": above_zero()}

    def __post_init__(self):
        for name, bound in self.BOUNDS.items():
            checked(name, getattr(self, name), bound)


def _magnitudes(W):
    """Per-sample magnitude of every window of the stack W, (windows, L)."""
    return np.sqrt(W[:, 0] ** 2 + W[:, 1] ** 2 + W[:, 2] ** 2)


def _energy(a):
    # Unnormalized forward DFT along the last axis; by Parseval this equals
    # the time-domain L2 norm.
    spectrum = np.fft.fft(a, axis=-1)
    return np.sqrt(np.sum(np.abs(spectrum) ** 2, axis=-1) / a.shape[-1])


def _correlations(W, mean):
    """Pearson's r of the axis pairs xy, xz and yz of every window, 0 where
    an axis is constant or r is not finite, clipped to [-1, 1]."""
    C = W - mean[..., None]
    # by its samples, not its centred values: a constant axis whose mean
    # rounds away from its value still does not move
    moving = (W != W[:, :, :1]).any(axis=2)

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
    """12 summary values per window.

    Layout: [mean_x, mean_y, mean_z, std_x, std_y, std_z,
             energy_x, energy_y, energy_z, corr_xy, corr_xz, corr_yz].
    Standard deviations are population (divide by L); energy is the
    root-mean spectral power of the unnormalized DFT.
    """
    if W.shape[2] < 2:
        raise LengthError("ACCEL_FEATURES needs at least 2 samples")
    mean = W.mean(axis=2)
    return np.concatenate([mean, W.std(axis=2), _energy(W), _correlations(W, mean)], axis=1)


def _neighbour_offsets(n):
    # Symmetric: half before, half after (extra one after for odd n).
    before = n // 2
    after = n - before
    return list(range(-before, 0)) + list(range(1, after + 1))


def _ltp_rows(W, params):
    """Local temporal patterns of the magnitude series.

    For each sample s and each of its neighbours i, the output entry is
    max(0, ceil((M_s - M_i) / step)): the number of boost levels n in
    {0, step, 2*step, ...} at which M_s still exceeds M_i + n.  Per-sample
    maps are concatenated in sample order, giving num_neighbours * L
    entries, each an integer count.
    """
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
    """The feature row of kind of one window at its own length:
    extract_matrix of that window alone."""
    return extract_matrix([w], kind, ltp_params or LtpParams(), len(w))[0]


def extract_matrix(windows, kind, ltp_params, length):
    """Stack one feature row per window into a 2-d float64 array.

    Each window is cut to length as window_at_length cuts it
    (ingest.cut_start).  The cuts are copied into one reused stack of at
    most _CHUNK_BYTES and each kind is computed a chunk at a time, so the
    matrix and one chunk are all that is held.  A row does not depend on
    the chunk: every extractor works window by window.

    LengthError when a window is shorter than length.  DimensionError when
    a row holds a non-finite value, naming the first such window by its
    source_id (its index when the id is empty)."""
    if not windows:
        return np.empty(0)
    length = int(length)
    starts = [cut_start(w, length) for w in windows]
    per_chunk = max(1, _CHUNK_BYTES // (3 * 8 * length))
    stack = np.empty((min(per_chunk, len(windows)), 3, length))
    X = None
    for lo in range(0, len(windows), per_chunk):
        part = range(lo, min(lo + per_chunk, len(windows)))
        W = stack[:len(part)]
        for Wi, i in zip(W, part):  # axes x, y, z of each window's cut
            w, s = windows[i], starts[i]
            Wi[0], Wi[1], Wi[2] = w.x[s:s + length], w.y[s:s + length], w.z[s:s + length]
        rows = _rows(W, kind, ltp_params)
        if X is None:
            X = np.empty((len(windows), rows.shape[1]))
        X[lo:part.stop] = rows
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = lo + int(np.argmin(finite))
            name = repr(windows[bad].source_id) if windows[bad].source_id else str(bad)
            raise DimensionError(f"window {name} has non-finite {kind.value} features")
    return X
