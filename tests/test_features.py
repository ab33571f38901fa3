"""Feature extractors, checked against independent oracles where derived.

The LTP oracle below recounts boost levels with literal loops, and the
spectral-energy oracle evaluates the DFT directly from its definition, so
neither shares code with the production implementations.
"""

import numpy as np
import pytest

from falldetect import features, ingest
from falldetect.errors import DimensionError, LengthError
from falldetect.features import FeatureKind, LtpParams
from tests.conftest import random_window


def ltp_oracle(window, params):
    """Triple-loop recount of local temporal patterns."""
    m = np.sqrt(window.x ** 2 + window.y ** 2 + window.z ** 2)
    L = len(m)
    step = params.step
    K = 0
    top = float(max(m))
    while K * step < top:
        K += 1
    before = params.num_neighbours // 2
    offsets = [-d for d in range(before, 0, -1)]
    offsets += list(range(1, params.num_neighbours - before + 1))
    out = []
    for s in range(L):
        for off in offsets:
            i = min(max(s + off, 0), L - 1)
            count = 0
            for j in range(K + 1):
                if m[s] > m[i] + j * step:
                    count += 1
            out.append(count)
    return np.array(out, dtype=float)


def dft_energy_oracle(a):
    """Root-mean spectral power straight from the DFT definition."""
    n = len(a)
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    spectrum = basis @ a
    return float(np.sqrt(np.sum(np.abs(spectrum) ** 2) / n))


class TestRawAndMagnitude:
    def test_raw_concatenates_axes_in_order(self):
        w = ingest.TriaxialWindow([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
        assert features.raw_features(w).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_magnitude_values(self):
        w = ingest.TriaxialWindow([3.0, 0.0], [4.0, 0.0], [0.0, 0.0])
        assert features.magnitude(w).tolist() == [5.0, 0.0]

    def test_unit_diagonal(self):
        w = ingest.TriaxialWindow([1.0], [1.0], [1.0])
        assert features.magnitude(w)[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)


class TestAccelFeatures:
    def test_layout_and_dimension(self, rng):
        assert len(features.accel_features(random_window(rng, 51))) == 12

    def test_means_and_population_std(self):
        w = ingest.TriaxialWindow([0.0, 2.0], [1.0, 1.0], [-1.0, 3.0])
        v = features.accel_features(w)
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        # population std of [0, 2] is 1; the sample version would be sqrt(2)
        assert v[3] == 1.0
        assert v[4] == 0.0
        assert v[5] == 2.0

    def test_constant_axis_energy_is_value_times_sqrt_length(self):
        for L in (51, 128):
            w = ingest.TriaxialWindow(
                np.full(L, 0.7), np.full(L, -0.3), np.zeros(L)
            )
            v = features.accel_features(w)
            assert v[6] == pytest.approx(0.7 * np.sqrt(L), rel=1e-9)
            assert v[7] == pytest.approx(0.3 * np.sqrt(L), rel=1e-9)
            assert v[8] == 0.0

    def test_exact_bin_sine_energy(self):
        # A sine on an exact DFT bin has squared sum A^2 L / 2.
        L, amp = 128, 1.7
        x = amp * np.sin(2 * np.pi * 7 * np.arange(L) / L)
        w = ingest.TriaxialWindow(x, np.zeros(L), np.zeros(L))
        v = features.accel_features(w)
        assert v[6] == pytest.approx(amp * np.sqrt(L / 2), rel=1e-9)

    def test_energy_matches_direct_dft(self, rng):
        for L in (51, 128):
            for _ in range(10):
                a = rng.normal(0.0, 1.0, L)
                assert features._energy(a) == pytest.approx(
                    dft_energy_oracle(a), rel=1e-9
                )

    def test_energy_equals_time_domain_norm(self, rng):
        for L in (51, 128):
            for _ in range(25):
                a = rng.normal(0.0, 1.0, L)
                expected = float(np.sqrt(np.sum(a * a)))
                assert features._energy(a) == pytest.approx(expected, rel=1e-9)

    def test_perfect_and_inverse_correlation(self):
        x = np.array([0.1, 0.5, -0.2, 0.9])
        w = ingest.TriaxialWindow(x, 2.0 * x + 1.0, -x)
        v = features.accel_features(w)
        assert v[9] == pytest.approx(1.0, abs=1e-12)
        assert v[10] == pytest.approx(-1.0, abs=1e-12)
        assert v[11] == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlation_by_hand(self):
        w = ingest.TriaxialWindow([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [0.0, 0.0, 0.0])
        v = features.accel_features(w)
        assert v[9] == 0.5

    def test_flat_axis_has_zero_correlation(self):
        w = ingest.TriaxialWindow([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], [0.0, 1.0, 0.0])
        v = features.accel_features(w)
        assert v[9] == 0.0 and v[10] == 0.0 and v[11] == 0.0

    def test_correlation_stays_in_range(self, rng):
        for _ in range(50):
            v = features.accel_features(random_window(rng, 51))
            assert np.all(v[9:12] >= -1.0) and np.all(v[9:12] <= 1.0)

    def test_single_sample_rejected(self):
        w = ingest.TriaxialWindow([1.0], [1.0], [1.0])
        with pytest.raises(LengthError):
            features.accel_features(w)


class TestLtpFeatures:
    def test_two_sample_window_by_hand(self):
        # magnitudes 0.4 and 2.5: levels = 3, so the later sample beats the
        # earlier one at boosts 0, 1, 2 but not 3.
        w = ingest.TriaxialWindow([0.0, 0.0], [0.0, 0.0], [0.4, 2.5])
        assert features.ltp_features(w).tolist() == [0, 0, 0, 0, 0, 0, 3, 3, 3, 0, 0, 0]

    def test_constant_magnitude_gives_zero_vector(self):
        w = ingest.TriaxialWindow(np.full(51, 0.6), np.zeros(51), np.zeros(51))
        assert not features.ltp_features(w).any()

    def test_all_zero_window(self):
        w = ingest.TriaxialWindow(np.zeros(10), np.zeros(10), np.zeros(10))
        assert not features.ltp_features(w).any()

    def test_count_reaches_peak_over_step(self):
        # M = 0 and 7.3: the peak beats the zero sample at every level up to
        # ceil(7.3 / 0.5) = 15, the largest count a window can hold.
        w = ingest.TriaxialWindow([0.0, 0.0], [0.0, 0.0], [0.0, 7.3])
        params = LtpParams(step=0.5)
        v = features.ltp_features(w, params)
        assert v.max() == np.ceil(7.3 / 0.5) == 15.0
        assert np.array_equal(v, ltp_oracle(w, params))

    def test_matches_loop_oracle(self, rng):
        for L in (17, 51, 128):
            for _ in range(12):
                w = random_window(rng, L, scale=2.0)
                got = features.ltp_features(w)
                assert np.array_equal(got, ltp_oracle(w, LtpParams()))

    def test_matches_loop_oracle_other_params(self, rng):
        for params in (
            LtpParams(num_neighbours=4, step=0.5),
            LtpParams(num_neighbours=7, step=0.25),
            LtpParams(num_neighbours=1, step=2.0),
        ):
            for _ in range(8):
                w = random_window(rng, 51, scale=2.0)
                got = features.ltp_features(w, params)
                assert np.array_equal(got, ltp_oracle(w, params))

    def test_entries_are_bounded_integer_counts(self, rng):
        w = random_window(rng, 51, scale=2.0)
        v = features.ltp_features(w)
        levels = int(np.ceil(w.magnitude().max()))
        assert np.array_equal(v, np.floor(v))
        assert v.min() >= 0 and v.max() <= levels

    def test_dimension_is_neighbours_times_length(self, rng):
        for L, n in ((51, 6), (128, 6), (51, 4)):
            v = features.ltp_features(random_window(rng, L), LtpParams(num_neighbours=n))
            assert len(v) == n * L

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LtpParams(num_neighbours=0)
        with pytest.raises(ValueError):
            LtpParams(step=0.0)


class TestFeatureRows:
    @pytest.mark.parametrize("kind", list(FeatureKind), ids=lambda k: k.value)
    def test_non_finite_rejected(self, rng, kind):
        windows = [random_window(rng, 51) for _ in range(3)]
        x = windows[2].x.copy()
        x[3] = np.nan
        named = ingest.TriaxialWindow(x, windows[2].y, windows[2].z, source_id="adl_0007")
        with pytest.raises(DimensionError, match=f"^window 'adl_0007' has non-finite {kind.value} "):
            features.extract_matrix(windows[:2] + [named], kind)
        unnamed = ingest.TriaxialWindow(x, windows[2].y, windows[2].z)
        with pytest.raises(DimensionError, match=f"^window 2 has non-finite {kind.value} "):
            features.extract_matrix(windows[:2] + [unnamed], kind)

    def test_expected_dimensions_per_kind(self, rng):
        expect = {
            FeatureKind.RAW: {51: 153, 128: 384},
            FeatureKind.MAGNITUDE: {51: 51, 128: 128},
            FeatureKind.ACCEL_FEATURES: {51: 12, 128: 12},
            FeatureKind.LTP: {51: 306, 128: 768},
        }
        for kind, by_len in expect.items():
            for L, dim in by_len.items():
                v = features.extract(random_window(rng, L), kind)
                assert v.shape == (dim,) and v.dtype == np.float64


def accel_reference(w):
    """The 12 summary values of one window from its 1-d axes, one value at a
    time: numpy's 1-d mean, std, FFT and dot, with a zero correlation where
    an axis is flat or r is not finite."""

    def energy(a):
        return float(np.sqrt(np.sum(np.abs(np.fft.fft(a)) ** 2) / len(a)))

    def pearson(a, b):
        ca, cb = a - a.mean(), b - b.mean()
        if not ca.any() or not cb.any():
            return 0.0
        r = float(ca @ cb / np.sqrt((ca @ ca) * (cb @ cb)))
        return min(1.0, max(-1.0, r)) if np.isfinite(r) else 0.0

    axes = (w.x, w.y, w.z)
    return np.array([a.mean() for a in axes] + [a.std() for a in axes]
                    + [energy(a) for a in axes]
                    + [pearson(w.x, w.y), pearson(w.x, w.z), pearson(w.y, w.z)])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStackedRows:
    """extract_matrix computes each kind over a stack of windows; every row
    must carry the bits of the window extracted on its own."""

    @staticmethod
    def windows(rng, L):
        out = []
        for i in range(12):
            x, y, z = rng.normal(0.0, rng.uniform(0.1, 3.0), (3, L))
            if i % 4 == 1:
                y = np.full(L, 0.5)  # a constant axis: no correlation
            if i % 4 == 2:
                y, z = 2.0 * x + 1.0, -x  # perfectly correlated: r clipped to +-1
            if i % 4 == 3:
                x = np.zeros(L)
            out.append(ingest.TriaxialWindow(x, y, z))
        return out

    @pytest.mark.parametrize("L", [2, 51, 128, 300])
    @pytest.mark.parametrize("kind", list(FeatureKind), ids=lambda k: k.value)
    def test_matrix_rows_equal_window_rows(self, rng, kind, L):
        windows = self.windows(rng, L)
        for params in (None, LtpParams(num_neighbours=5, step=0.25)):
            X = features.extract_matrix(windows, kind, params)
            assert X.shape[0] == len(windows) and X.dtype == np.float64
            for w, row in zip(windows, X):
                assert same_bits(row, features.extract(w, kind, params))

    @pytest.mark.parametrize("L", [2, 51, 128, 300])
    def test_summary_rows_equal_the_one_dimensional_reference(self, rng, L):
        windows = self.windows(rng, L)
        X = features.extract_matrix(windows, FeatureKind.ACCEL_FEATURES)
        for w, row in zip(windows, X):
            assert same_bits(row, accel_reference(w))
        assert np.all(np.abs(X[2::4, 9:]) == 1.0) and not X[1::4, [9, 11]].any()

    def test_summary_rows_of_windows_of_several_lengths(self, rng):
        windows = [random_window(rng, L) for L in (51, 128, 51, 2, 300)]
        X = features.extract_matrix(windows, FeatureKind.ACCEL_FEATURES)
        assert X.shape == (5, 12)
        for w, row in zip(windows, X):
            assert same_bits(row, accel_reference(w))

    def test_empty_list(self):
        for kind in FeatureKind:
            assert features.extract_matrix([], kind).shape == (0,)

    def test_single_sample_summary_rejected_among_other_lengths(self, rng):
        windows = [random_window(rng, 51), ingest.TriaxialWindow([1.0], [1.0], [1.0])]
        with pytest.raises(LengthError, match="at least 2 samples"):
            features.extract_matrix(windows, FeatureKind.ACCEL_FEATURES)
        for kind in (FeatureKind.RAW, FeatureKind.MAGNITUDE, FeatureKind.LTP):
            with pytest.raises(DimensionError, match="differing lengths"):
                features.extract_matrix(windows, kind)


class TestMatrixAndExport:
    def test_extract_matrix_shape(self, rng):
        windows = [random_window(rng, 51) for _ in range(5)]
        m = features.extract_matrix(windows, FeatureKind.ACCEL_FEATURES)
        assert m.shape == (5, 12)

    def test_ragged_windows_rejected(self, rng):
        windows = [random_window(rng, 51), random_window(rng, 128)]
        with pytest.raises(DimensionError):
            features.extract_matrix(windows, FeatureKind.MAGNITUDE)


class TestChunkedRows:
    """extract_matrix cuts each window to the requested length as it fills
    a bounded chunk: every row carries the bits of the window cut on its
    own (window_at_length) and extracted alone, whatever the chunk."""

    @staticmethod
    def windows(rng, L):
        """Windows of 300 samples with and without a peak, peaks at and
        near both edges, and windows already at L, some with axes that
        are constant or perfectly correlated."""
        out = []
        peaks = [None, 0, 2, L // 2, 150, 297, 299, None, 1, 298]
        for i in range(23):
            n = L if i % 5 == 4 else 300
            x, y, z = rng.normal(0.0, rng.uniform(0.1, 3.0), (3, n))
            if i % 6 == 1:
                y = np.full(n, 0.5)
            if i % 6 == 2:
                y, z = 2.0 * x + 1.0, -x
            peak = peaks[i % len(peaks)]
            if peak is not None and peak >= n:
                peak = n - 1
            out.append(ingest.TriaxialWindow(x, y, z, peak_index=peak, source_id=f"w{i}"))
        return out

    @pytest.mark.parametrize("L", [51, 128])
    @pytest.mark.parametrize("kind", list(FeatureKind), ids=lambda k: k.value)
    def test_rows_do_not_depend_on_the_chunk(self, rng, monkeypatch, kind, L):
        windows = self.windows(rng, L)
        params = LtpParams(num_neighbours=5, step=0.25)
        alone = [features.extract(ingest.window_at_length(w, L), kind, params) for w in windows]
        # one window, 7 windows and the whole stack a chunk
        for per_chunk in (1, 7, len(windows)):
            monkeypatch.setattr(features, "_CHUNK_BYTES", per_chunk * 3 * 8 * L)
            X = features.extract_matrix(windows, kind, params, L)
            assert X.shape[0] == len(windows) and X.dtype == np.float64
            for row, expected in zip(X, alone):
                assert same_bits(row, expected)

    def test_a_chunk_holds_at_least_one_window(self, rng, monkeypatch):
        windows = self.windows(rng, 51)
        expected = features.extract_matrix(windows, FeatureKind.LTP, None, 51)
        monkeypatch.setattr(features, "_CHUNK_BYTES", 1)
        assert same_bits(features.extract_matrix(windows, FeatureKind.LTP, None, 51), expected)

    @pytest.mark.parametrize("kind", list(FeatureKind), ids=lambda k: k.value)
    def test_the_first_non_finite_window_is_named(self, rng, monkeypatch, kind):
        windows = self.windows(rng, 51)
        for i in (19, 11):  # in different chunks, the later one first
            x = windows[i].x.copy()
            x[:] = np.nan  # in whatever cut
            windows[i] = ingest.TriaxialWindow(x, windows[i].y, windows[i].z, source_id=f"w{i}")
        monkeypatch.setattr(features, "_CHUNK_BYTES", 7 * 3 * 8 * 51)
        with pytest.raises(DimensionError, match=f"^window 'w11' has non-finite {kind.value} "):
            features.extract_matrix(windows, kind, None, 51)
        windows[11].source_id = ""
        with pytest.raises(DimensionError, match=f"^window 11 has non-finite {kind.value} "):
            features.extract_matrix(windows, kind, None, 51)

    def test_a_window_shorter_than_the_cut_is_refused_before_any_row(self, rng, monkeypatch):
        windows = self.windows(rng, 128)
        x = windows[3].x.copy()
        x[0] = np.nan  # a non-finite row comes earlier, but no row is computed
        windows[3] = ingest.TriaxialWindow(x, windows[3].y, windows[3].z)
        windows[15] = random_window(rng, 100)
        with pytest.raises(LengthError, match="^window of 100 samples cannot yield 128$"):
            ingest.window_at_length(windows[15], 128)
        monkeypatch.setattr(features, "_CHUNK_BYTES", 1)
        for kind in FeatureKind:
            with pytest.raises(LengthError, match="^window of 100 samples cannot yield 128$"):
                features.extract_matrix(windows, kind, None, 128)

    def test_uncut_windows_of_several_lengths_name_the_first_bad_one(self, rng, monkeypatch):
        # grouped by length, the later group holds the earlier bad window
        windows = [random_window(rng, L) for L in (51, 51, 128, 51, 128, 51)]
        for i in (2, 3):
            x = windows[i].x.copy()
            x[1] = np.nan
            windows[i] = ingest.TriaxialWindow(x, windows[i].y, windows[i].z)
        monkeypatch.setattr(features, "_CHUNK_BYTES", 1)
        with pytest.raises(DimensionError, match="^window 2 has non-finite ACCEL_FEATURES "):
            features.extract_matrix(windows, FeatureKind.ACCEL_FEATURES)
