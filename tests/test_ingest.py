"""Ingest layer: traces, resampling, peak windows, parsers, collections."""

import json

import numpy as np
import pytest

from falldetect import ingest
from falldetect.errors import (
    InsufficientData,
    InvalidTrace,
    LengthError,
    ParseError,
)
from falldetect.ingest import Label


def make_trace(t, x=None, y=None, z=None):
    t = np.asarray(t, dtype=float)
    zeros = np.zeros(len(t))
    return ingest.RawTrace(
        t,
        zeros if x is None else np.asarray(x, dtype=float),
        zeros if y is None else np.asarray(y, dtype=float),
        zeros if z is None else np.asarray(z, dtype=float),
    )


class TestRawTrace:
    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(InvalidTrace):
            make_trace([0.0, 0.2, 0.1])

    def test_duplicate_timestamps_keep_first_sample(self):
        tr = make_trace([0.0, 0.1, 0.1, 0.2], x=[1.0, 2.0, 9.0, 3.0])
        assert len(tr) == 3
        assert tr.x.tolist() == [1.0, 2.0, 3.0]

    def test_needs_two_distinct_timestamps(self):
        with pytest.raises(InvalidTrace):
            make_trace([0.5, 0.5], x=[1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidTrace):
            ingest.RawTrace([0.0, 0.1], [1.0], [1.0, 2.0], [0.0, 0.0])

    def test_magnitude_and_duration(self):
        tr = make_trace([0.0, 0.5], x=[3.0, 0.0], y=[4.0, 0.0])
        assert tr.magnitude().tolist() == [5.0, 0.0]
        assert tr.duration() == 0.5

    def test_arrays_are_read_only(self):
        tr = make_trace([0.0, 0.1])
        with pytest.raises(ValueError):
            tr.x[0] = 1.0


class TestTriaxialWindow:
    def test_rejects_unequal_axes(self):
        with pytest.raises(LengthError):
            ingest.TriaxialWindow([1.0, 2.0], [1.0], [1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(LengthError):
            ingest.TriaxialWindow([], [], [])

    def test_peak_index_bounds(self):
        with pytest.raises(ValueError):
            ingest.TriaxialWindow([1.0, 2.0], [0.0, 0.0], [0.0, 0.0], peak_index=2)

    def test_magnitude(self):
        w = ingest.TriaxialWindow([1.0], [2.0], [2.0])
        assert w.magnitude().tolist() == [3.0]


class TestResample:
    def test_midpoint_interpolation_after_offset_removal(self):
        # Two samples 0.04 s apart, mean 0.03; at 50 Hz the grid lands on
        # 0, 0.02, 0.04 and the middle value interpolates linearly.
        tr = make_trace([0.0, 0.04], x=[0.01, 0.05])
        out = ingest.resample_trace(tr)
        assert len(out) == 3
        assert out.timestamps == pytest.approx([0.0, 0.02, 0.04], abs=1e-12)
        assert out.x == pytest.approx([-0.02, 0.0, 0.02], abs=1e-12)

    def test_constant_axis_vanishes_under_offset_removal(self):
        tr = make_trace([0.0, 0.3, 0.35, 1.0], x=[0.7, 0.7, 0.7, 0.7])
        out = ingest.resample_trace(tr)
        assert np.all(np.abs(out.x) <= 1e-12)

    def test_uniform_zero_mean_trace_is_a_fixed_point(self):
        t = np.arange(300) / 50.0
        raw = np.sin(2 * np.pi * 1.3 * t) + 0.2 * np.cos(2 * np.pi * 4.1 * t)
        x = raw - raw.mean()
        tr = make_trace(t, x=x)
        out = ingest.resample_trace(tr)
        assert len(out) == 300
        assert np.max(np.abs(out.x - x)) <= 1e-12
        assert np.max(np.abs(out.timestamps - t)) <= 1e-12

    def test_grid_spacing_and_span(self):
        tr = make_trace(np.linspace(0.0, 2.0, 37))
        out = ingest.resample_trace(tr)
        assert len(out) == 101
        assert np.max(np.abs(np.diff(out.timestamps) - 0.02)) <= 1e-12


class TestDetectPeaks:
    def test_single_local_maximum(self):
        tr = make_trace([0.0, 0.02, 0.04, 0.06], x=[1.0, 1.0, 2.0, 1.0])
        assert ingest.detect_peaks(tr) == [2]

    def test_flat_below_threshold(self):
        tr = make_trace(np.arange(5) * 0.02, x=np.ones(5))
        assert ingest.detect_peaks(tr) == []

    def test_threshold_is_strict(self):
        tr = make_trace([0.0, 0.02, 0.04], x=[1.0, 1.5, 1.0])
        assert ingest.detect_peaks(tr) == []

    def test_refractory_suppresses_second_spike(self):
        # Two clear spikes 2 s apart: only the first survives the 6 s gap rule.
        x = np.zeros(151)
        x[25] = 2.0
        x[125] = 2.5
        tr = make_trace(np.arange(151) / 50.0, x=x)
        assert ingest.detect_peaks(tr) == [25]

    def test_spikes_beyond_refractory_both_emitted(self):
        x = np.zeros(401)
        x[25] = 2.0
        x[375] = 2.5
        tr = make_trace(np.arange(401) / 50.0, x=x)
        assert ingest.detect_peaks(tr) == [25, 375]

    def test_boundary_sample_can_peak(self):
        tr = make_trace([0.0, 0.02, 0.04], x=[2.0, 1.0, 0.5])
        assert ingest.detect_peaks(tr) == [0]


def indexed_window(n=300, peak=None):
    """Window whose x axis encodes the sample index, for slice checks."""
    v = np.arange(n, dtype=float)
    return ingest.TriaxialWindow(v, np.zeros(n), np.zeros(n), peak_index=peak)


class TestCutSubwindow:
    def test_centred_cut(self):
        out = ingest.window_at_length(indexed_window(peak=150), 51)
        assert out.x.tolist() == list(range(125, 176))
        assert out.peak_index == 25

    def test_clamped_at_left_edge(self):
        out = ingest.window_at_length(indexed_window(peak=10), 128)
        assert out.x[0] == 0.0
        assert len(out) == 128
        assert out.peak_index == 10

    def test_long_cut_around_centre_peak(self):
        out = ingest.window_at_length(indexed_window(peak=150), 128)
        assert out.x[0] == 86.0
        assert out.peak_index == 64

    def test_clamped_at_right_edge(self):
        out = ingest.window_at_length(indexed_window(peak=295), 51)
        assert out.x[0] == 249.0
        assert out.peak_index == 46

    def test_rejects_oversized_cut(self):
        w = indexed_window(n=50, peak=10)
        with pytest.raises(LengthError):
            ingest.window_at_length(w, 51)


class TestWindowAtLength:
    def test_identity_at_matching_length(self):
        w = indexed_window(n=128, peak=5)
        assert ingest.window_at_length(w, 128) is w

    def test_peakless_window_cut_around_magnitude_maximum(self):
        x = np.zeros(300)
        x[200] = 3.0
        w = ingest.TriaxialWindow(x, np.zeros(300), np.zeros(300))
        out = ingest.window_at_length(w, 51)
        assert len(out) == 51
        assert out.peak_index == 25
        assert out.x[25] == 3.0

    def test_short_window_cannot_grow(self):
        with pytest.raises(LengthError):
            ingest.window_at_length(indexed_window(n=51, peak=0), 128)

    @pytest.mark.parametrize("peak", [None, 0, 1, 63, 150, 298, 299])
    @pytest.mark.parametrize("length", [51, 128, 300])
    def test_cut_start_is_where_the_cut_begins(self, peak, length):
        w = indexed_window(peak=peak)  # no peak: the magnitude peaks at 299
        start = ingest.cut_start(w, length)
        assert np.array_equal(ingest.window_at_length(w, length).x, w.x[start:start + length])

    def test_cut_start_refuses_what_window_at_length_refuses(self):
        for w, length in ((indexed_window(n=51, peak=0), 128), (indexed_window(n=51), 0)):
            with pytest.raises(LengthError) as cut:
                ingest.window_at_length(w, length)
            with pytest.raises(LengthError, match=f"^{cut.value}$"):
                ingest.cut_start(w, length)


def write_windowed_dataset1(root, files):
    """files: {(subdir, name): array of shape (rows, 3)}"""
    (root / "manifest.json").write_text(json.dumps({"mode": "windowed"}))
    for (sub, name), data in files.items():
        d = root / sub
        d.mkdir(exist_ok=True)
        lines = [",".join(repr(float(v)) for v in row) for row in data]
        (d / name).write_text("\n".join(lines) + "\n")


class TestParseDataset1Windowed:
    def test_roundtrip_labels_and_peaks(self, tmp_path):
        rng = np.random.default_rng(5)
        adl = rng.normal(0.0, 0.2, (300, 3))
        fall = rng.normal(0.0, 0.2, (300, 3))
        fall[120] = [0.0, 0.0, 3.0]
        write_windowed_dataset1(
            tmp_path, {("adl", "a0.csv"): adl, ("fall", "f0.csv"): fall}
        )
        pairs = ingest.parse_dataset1(tmp_path)
        assert [lab for _, lab in pairs] == [Label.ADL, Label.FALL]
        w_adl, w_fall = pairs[0][0], pairs[1][0]
        assert len(w_adl) == 300 and len(w_fall) == 300
        assert np.array_equal(w_fall.z, fall[:, 2])
        assert w_fall.peak_index == 120
        assert w_fall.peak_index == int(np.argmax(w_fall.magnitude()))
        assert w_adl.source_id == "a0"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError):
            ingest.parse_dataset1(tmp_path)

    def test_bad_manifest_mode(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"mode": "other"}))
        with pytest.raises(ParseError):
            ingest.parse_dataset1(tmp_path)

    def test_short_file_is_a_length_error(self, tmp_path):
        write_windowed_dataset1(tmp_path, {("adl", "a0.csv"): np.zeros((299, 3))})
        with pytest.raises(LengthError):
            ingest.parse_dataset1(tmp_path)

    def test_malformed_row_names_file_and_line(self, tmp_path):
        write_windowed_dataset1(tmp_path, {("fall", "f0.csv"): np.zeros((300, 3))})
        f = tmp_path / "fall" / "f0.csv"
        lines = f.read_text().splitlines()
        lines[41] = "0.0,oops,0.0"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert "f0.csv" in str(err.value)
        assert err.value.line == 42

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_sample_names_file_and_line(self, tmp_path, token):
        write_windowed_dataset1(tmp_path, {("adl", "a0.csv"): np.zeros((300, 3))})
        f = tmp_path / "adl" / "a0.csv"
        lines = f.read_text().splitlines()
        lines[99] = f"0.0,{token},0.0"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}:100: non-finite value"
        assert err.value.line == 100

    @pytest.mark.parametrize("row", ["1e200,0.0,0.0", "0.0,0.0,-1e200", "1e154,1e154,1e154"])
    def test_sample_whose_square_overflows_names_file_and_line(self, tmp_path, row):
        write_windowed_dataset1(tmp_path, {("adl", "a0.csv"): np.zeros((300, 3))})
        f = tmp_path / "adl" / "a0.csv"
        lines = f.read_text().splitlines()
        lines[99] = row
        lines[200] = "1e153,1e153,1e153"  # large, but its magnitude is finite
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}:100: x^2 + y^2 + z^2 overflows"
        lines[99] = "0.0,0.0,0.0"
        f.write_text("\n".join(lines) + "\n")
        (window, _), = ingest.parse_dataset1(tmp_path)
        assert np.isfinite(window.magnitude()).all()


class TestParseDataset1Raw:
    def test_trace_becomes_one_peak_window(self, tmp_path):
        t = np.arange(400) / 50.0
        z = np.zeros(400)
        z[200] = 2.5
        (tmp_path / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        d = tmp_path / "fall"
        d.mkdir()
        rows = ["t,x,y,z"]
        rows += [f"{repr(float(ti))},0.0,0.0,{repr(float(zi))}" for ti, zi in zip(t, z)]
        (d / "rec1.csv").write_text("\n".join(rows) + "\n")

        pairs = ingest.parse_dataset1(tmp_path)
        assert len(pairs) == 1
        window, label = pairs[0]
        assert label is Label.FALL
        assert len(window) == 300
        assert window.source_id == "rec1"
        # spike at sample 200 of the trace lands mid-window after the cut
        assert window.peak_index == 150
        assert window.magnitude()[150] > 1.5

    def test_quiet_trace_yields_no_windows(self, tmp_path):
        t = np.arange(400) / 50.0
        (tmp_path / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        d = tmp_path / "adl"
        d.mkdir()
        rows = ["t,x,y,z"] + [f"{repr(float(ti))},0.1,0.0,0.9" for ti in t]
        (d / "calm.csv").write_text("\n".join(rows) + "\n")
        assert ingest.parse_dataset1(tmp_path) == []

    def test_bad_header(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        d = tmp_path / "adl"
        d.mkdir()
        (d / "bad.csv").write_text("time,x,y,z\n0.0,0.0,0.0,0.0\n")
        with pytest.raises(ParseError):
            ingest.parse_dataset1(tmp_path)

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_sample_names_file_and_line(self, tmp_path, token):
        (tmp_path / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        d = tmp_path / "fall"
        d.mkdir()
        rows = ["t,x,y,z"] + [f"{i / 50.0!r},0.0,0.0,1.0" for i in range(400)]
        rows[10] = ""  # blank lines hold no row but still count as lines
        rows[200] = f"4.0,0.0,{token},1.0"
        (d / "rec.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{d / 'rec.csv'}:201: non-finite value"

    def test_square_that_overflows_once_the_offset_is_removed_names_its_line(self, tmp_path):
        # each raw square is finite, but with the x mean 4e153 removed every
        # third sample sits at -1.6e154, whose square overflows
        xs = ["1.2e154", "1.2e154", "-1.2e154"]
        rows = [f"{i / 50.0!r},{xs[i % 3]},0.0,0.0" for i in range(400)]
        rows.insert(1, "")  # blank lines hold no row but still count as lines
        f = self.write_raw(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}:5: x^2 + y^2 + z^2 overflows once the offset is removed"

    @pytest.mark.parametrize("xyz", ["0.0,1e200,1.0", "-1e154,1e154,1e154"])
    def test_sample_whose_square_overflows_names_file_and_line(self, tmp_path, xyz):
        rows = [f"{i / 50.0!r},0.0,0.0,1.0" for i in range(400)]
        rows[10] = ""  # blank lines hold no row but still count as lines
        rows[200] = f"4.0,{xyz}"
        f = self.write_raw(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}:202: x^2 + y^2 + z^2 overflows"

    def write_raw(self, root, rows):
        (root / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        d = root / "adl"
        d.mkdir()
        f = d / "rec.csv"
        f.write_text("\n".join(["t,x,y,z", *rows]) + "\n")
        return f

    def test_decreasing_timestamp_names_its_line(self, tmp_path):
        rows = [f"{i / 50.0!r},0.0,0.0,1.0" for i in range(400)]
        rows[5] = ""  # a blank line shifts every later row by one line
        rows[300] = "1.0,0.0,0.0,1.0"
        f = self.write_raw(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}:302: timestamps must be monotone non-decreasing"
        assert err.value.line == 302

    def test_one_distinct_timestamp_names_the_file(self, tmp_path):
        f = self.write_raw(tmp_path, ["2.5,0.0,0.0,1.0"] * 5)
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}: trace needs at least 2 distinct timestamps"

    def test_single_sample_is_still_an_invalid_trace(self, tmp_path):
        f = self.write_raw(tmp_path, ["0.0,0.0,0.0,1.0"])
        with pytest.raises(InvalidTrace) as err:
            ingest.parse_dataset1(tmp_path)
        assert str(err.value) == f"{f}: trace needs at least 2 samples"


def write_dataset2(root, n_rows, labels, width=128):
    rng = np.random.default_rng(77)
    for axis in ("x", "y", "z"):
        rows = rng.normal(0.0, 0.3, (n_rows, width))
        text = "\n".join(" ".join(repr(float(v)) for v in row) for row in rows)
        (root / f"{axis}.csv").write_text(text + "\n")
    (root / "labels.csv").write_text("\n".join(labels) + "\n")


class TestParseDataset2:
    def test_fall_rows_are_skipped(self, tmp_path):
        write_dataset2(tmp_path, 3, ["WALKING", "FALL", "sitting"])
        pairs = ingest.parse_dataset2(tmp_path)
        assert len(pairs) == 2
        assert all(lab is Label.ADL for _, lab in pairs)
        assert [w.source_id for w, _ in pairs] == ["row0", "row2"]
        assert all(w.peak_index is None for w, _ in pairs)
        assert all(len(w) == 128 for w, _ in pairs)

    def test_row_count_mismatch(self, tmp_path):
        write_dataset2(tmp_path, 3, ["a", "b", "c", "d"])
        with pytest.raises(ParseError):
            ingest.parse_dataset2(tmp_path)

    def test_wrong_row_width_is_a_length_error(self, tmp_path):
        write_dataset2(tmp_path, 2, ["a", "b"], width=127)
        with pytest.raises(LengthError):
            ingest.parse_dataset2(tmp_path)

    def test_missing_axis_file(self, tmp_path):
        write_dataset2(tmp_path, 2, ["a", "b"])
        (tmp_path / "y.csv").unlink()
        with pytest.raises(ParseError):
            ingest.parse_dataset2(tmp_path)

    @pytest.mark.parametrize("token", ["NaN", "inf"])
    def test_non_finite_sample_names_file_and_line(self, tmp_path, token):
        write_dataset2(tmp_path, 3, ["a", "b", "c"])
        f = tmp_path / "z.csv"
        lines = f.read_text().splitlines()
        values = lines[2].split()
        values[5] = token
        lines[2] = " ".join(values)
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset2(tmp_path)
        assert str(err.value) == f"{f}:3: non-finite value"

    @pytest.mark.parametrize(
        "values, named",
        [({"y": 1e200}, "y"), ({"x": 1e154, "y": 1e154, "z": -1.1e154}, "z")],
        ids=["one axis", "the sum"],
    )
    def test_sample_whose_square_overflows_names_file_and_line(self, tmp_path, values, named):
        write_dataset2(tmp_path, 3, ["a", "b", "c"])
        for axis, value in values.items():
            f = tmp_path / f"{axis}.csv"
            lines = f.read_text().splitlines()
            row = lines[1].split()
            row[7] = repr(value)
            lines[1] = " ".join(row)
            f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_dataset2(tmp_path)
        # the file of the sample's largest axis
        assert str(err.value) == f"{tmp_path / named}.csv:2: x^2 + y^2 + z^2 overflows"


def read_rows_both_ways(path, cols, skip_header=False, length_error=False):
    """_read_rows and the line walk on one file: (result, walk result), each
    an array or the exception raised."""
    out = []
    for fn in (ingest._read_rows, ingest._walk_rows):
        try:
            out.append(fn(path, cols, skip_header, length_error))
        except (ParseError, LengthError) as exc:
            out.append(exc)
    return out


# (file text, columns, skip header, rows expected or (error type, message
# after the path)): inputs on which np.loadtxt and the float() walk could
# part ways.
EDGE_CASES = {
    "underscore": ("1_0,2,3\n", 3, False, [[10.0, 2.0, 3.0]]),
    "arabic digit": ("\u0661,2,3\n", 3, False, [[1.0, 2.0, 3.0]]),
    "infinity": ("1,2,3\ninfinity,2,3\n", 3, False, (ParseError, ":2: non-finite value")),
    "nan": ("1,2,3\n4,nan,6\n", 3, False, (ParseError, ":2: non-finite value")),
    "padded": (" 1 , 2 ,3 \n", 3, False, [[1.0, 2.0, 3.0]]),
    "tab padded": ("\t1\t,2,\t3\n", 3, False, [[1.0, 2.0, 3.0]]),
    "crlf": ("1,2,3\r\n4,5,6\r\n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "blank lines": ("\n1,2,3\n\n4,5,6\n\n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "whitespace-only line": ("1,2,3\n \t \n4,5,6\n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "trailing comma": ("1,2,3,\n", 3, False, [[1.0, 2.0, 3.0]]),
    "header only": ("t,x,y,z\n", 4, True, np.zeros((0, 4))),
    "header then blank": ("t,x,y,z\n\n", 4, True, np.zeros((0, 4))),
    "empty": ("", 3, False, np.zeros((0, 3))),
    "header and rows": ("t,x,y,z\n0,1,2,3\n", 4, True, [[0.0, 1.0, 2.0, 3.0]]),
    "space separated": ("1 2 3\n 4  5\t6 \n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "space then comma": ("1 2 3\n4,5 6\n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "comma then space": ("1,2,3\n4 5 6\n", 3, False, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
    "comment": ("1,2,3 # c\n", 3, False, (ParseError, ":1: non-numeric value")),
    "quoted": ('"1",2,3\n', 3, False, (ParseError, ":1: non-numeric value")),
    "overflow": ("1e999,2,3\n", 3, False, (ParseError, ":1: non-finite value")),
    "wrong width first": (
        "1,2\n1,2,3\n", 3, False, (ParseError, ":1: expected 3 values per row, got 2")
    ),
}


class TestReadRows:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_matches_the_walk(self, tmp_path, recwarn, name):
        text, cols, skip_header, expected = EDGE_CASES[name]
        f = tmp_path / "rows.csv"
        f.write_bytes(text.encode("utf-8"))
        got, walked = read_rows_both_ways(f, cols, skip_header)
        # loadtxt's warning on a file without rows never reaches the caller
        assert not recwarn.list
        if isinstance(expected, tuple):
            kind, message = expected
            assert type(got) is kind and type(walked) is kind
            assert str(got) == str(walked) == f"{f}{message}"
        else:
            expected = np.asarray(expected, dtype=np.float64).reshape(-1, cols)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert np.array_equal(got, expected) and np.array_equal(walked, expected)

    @pytest.mark.parametrize("length_error", [False, True])
    @pytest.mark.parametrize("sep", [",", " "])
    def test_wrong_width_mid_file_names_its_line(self, tmp_path, sep, length_error):
        rows = [sep.join(["0.5"] * 4) for _ in range(50)]
        rows[10] = ""
        rows[30] = sep.join(["0.5"] * 3)
        f = tmp_path / "rows.csv"
        f.write_text("\n".join(rows) + "\n")
        got, walked = read_rows_both_ways(f, 4, length_error=length_error)
        assert type(got) is (LengthError if length_error else ParseError)
        assert str(got) == str(walked) == f"{f}:31: expected 4 values per row, got 3"

    def test_first_bad_line_wins(self, tmp_path):
        # a non-finite value before a non-numeric one is the one named
        f = tmp_path / "rows.csv"
        f.write_text("1,2,3\n1,inf,3\n1,oops,3\n")
        with pytest.raises(ParseError) as err:
            ingest._read_rows(f, 3)
        assert str(err.value) == f"{f}:2: non-finite value"

    def test_clean_files_never_reach_the_walk(self, tmp_path, monkeypatch):
        def walked(*args):
            raise AssertionError("the line walk ran on a clean file")

        d1 = tmp_path / "d1"
        d1.mkdir()
        write_windowed_dataset1(d1, {("adl", "a0.csv"): np.full((300, 3), 0.25)})
        write_dataset2(tmp_path, 4, ["a", "FALL", "b", "c"])
        raw = tmp_path / "raw"
        (raw / "fall").mkdir(parents=True)
        (raw / "manifest.json").write_text(json.dumps({"mode": "raw"}))
        z = [3.0 if i == 200 else 0.0 for i in range(400)]
        lines = ["t,x,y,z"] + [f"{i / 50.0!r}, 0.0, 0.0, {zi!r}" for i, zi in enumerate(z)]
        (raw / "fall" / "r.csv").write_text("\r\n".join(lines) + "\r\n")
        monkeypatch.setattr(ingest, "_data_lines", walked)
        assert len(ingest.parse_dataset1(d1)) == 1
        assert len(ingest.parse_dataset2(tmp_path)) == 3
        assert len(ingest.parse_dataset1(raw)) == 1
        # and a file only float() reads does reach it
        f = tmp_path / "rows.csv"
        f.write_text("1_0,2,3\n")
        with pytest.raises(AssertionError, match="line walk ran"):
            ingest._read_rows(f, 3)


class TestPlanFolds:
    def test_stratified_within_one(self):
        rng = np.random.default_rng(3)
        labels = [Label.ADL] * 95 + [Label.FALL] * 23
        labels = [labels[i] for i in rng.permutation(len(labels))]
        plan = ingest.plan_folds(labels, num_folds=10, seed=4)
        for cls in (Label.ADL, Label.FALL):
            per_fold = [
                sum(1 for i in plan.test_indices(f) if labels[i] is cls)
                for f in range(10)
            ]
            assert max(per_fold) - min(per_fold) <= 1
        assert sum(len(plan.test_indices(f)) for f in range(10)) == len(labels)

    def test_partition_property(self):
        labels = [Label.ADL] * 17 + [Label.FALL] * 6
        plan = ingest.plan_folds(labels, num_folds=5, seed=0)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(23))
        for f in range(5):
            both = np.concatenate([plan.test_indices(f), plan.train_indices(f)])
            assert sorted(both.tolist()) == list(range(23))

    def test_deterministic_and_seed_sensitive(self):
        labels = [Label.ADL] * 40 + [Label.FALL] * 10
        a = ingest.plan_folds(labels, seed=7)
        b = ingest.plan_folds(labels, seed=7)
        c = ingest.plan_folds(labels, seed=8)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_string_labels_match_enum_labels(self):
        enums = [Label.ADL] * 12 + [Label.FALL] * 5
        strings = [lab.value for lab in enums]
        a = ingest.plan_folds(enums, seed=2)
        b = ingest.plan_folds(strings, seed=2)
        assert np.array_equal(a.assignments, b.assignments)

    def test_rejects_single_fold(self):
        with pytest.raises(ValueError):
            ingest.plan_folds([Label.ADL, Label.FALL], num_folds=1)

    def test_rejects_unknown_label(self):
        # an unknown label would otherwise land in no fold at all
        with pytest.raises(ValueError, match=r"^unknown labels \['WALK'\]$"):
            ingest.plan_folds([Label.ADL, "WALK", Label.FALL, "ADL"], num_folds=2)

    def test_bool_mask_matches_enum_labels(self):
        enums = [Label.ADL] * 12 + [Label.FALL] * 5
        mask = np.array([lab is Label.FALL for lab in enums])
        a = ingest.plan_folds(enums, seed=2)
        b = ingest.plan_folds(mask, seed=2)
        assert np.array_equal(a.assignments, b.assignments)


class TestIsFallMask:
    def test_strings_enums_and_bools_agree(self):
        strings = ["ADL", "FALL", "FALL", "ADL"]
        expected = [False, True, True, False]
        for labels in (
            strings,
            np.array(strings),
            [Label(s) for s in strings],
            [Label.ADL, "FALL", Label.FALL, "ADL"],
            expected,
            np.array(expected),
        ):
            mask = ingest.is_fall_mask(labels)
            assert mask.dtype == bool
            assert mask.tolist() == expected

    def test_every_unknown_token_is_named(self):
        labels = ["ADL", "adl", Label.FALL, "NOISE", "fall", "adl", 1]
        with pytest.raises(ValueError, match=r"^unknown labels \['1', 'NOISE', 'adl', 'fall'\]$"):
            ingest.is_fall_mask(labels)

    def test_empty_input_gives_empty_mask(self):
        mask = ingest.is_fall_mask([])
        assert mask.dtype == bool and mask.shape == (0,)


def tagged_pairs(n_adl, n_fall, tag, length=8):
    """Labeled windows whose x[0] encodes (tag, position) for identity checks."""
    pairs = []
    for i in range(n_adl + n_fall):
        v = np.full(length, tag * 1000.0 + i)
        label = Label.ADL if i < n_adl else Label.FALL
        pairs.append((ingest.TriaxialWindow(v, np.zeros(length), np.zeros(length)), label))
    return pairs


class TestBuildCollection:
    def test_c1_takes_all_of_dataset1(self):
        d1 = tagged_pairs(9, 4, tag=1)
        col = ingest.build_collection("C1", d1, seed=0)
        assert len(col) == 13
        assert col.counts() == {("ADL", "D1"): 9, ("FALL", "D1"): 4}

    def test_c2_splits_adl_half_and_half(self):
        d1 = tagged_pairs(7, 3, tag=1)
        d2 = tagged_pairs(10, 0, tag=2)
        col = ingest.build_collection("C2", d1, d2, seed=0)
        counts = col.counts()
        assert counts[("FALL", "D1")] == 3
        assert counts[("ADL", "D1")] == 4
        assert counts[("ADL", "D2")] == 3
        assert abs(counts[("ADL", "D1")] - counts[("ADL", "D2")]) <= 1
        # ADL total matches dataset1's ADL count
        assert counts[("ADL", "D1")] + counts[("ADL", "D2")] == 7

    def test_c2_uses_all_of_a_short_second_dataset(self):
        d1 = tagged_pairs(7, 3, tag=1)
        d2 = tagged_pairs(2, 0, tag=2)
        col = ingest.build_collection("C2", d1, d2, seed=0)
        assert col.counts()[("ADL", "D2")] == 2

    def test_c2_without_dataset2_is_insufficient(self):
        d1 = tagged_pairs(7, 3, tag=1)
        with pytest.raises(InsufficientData):
            ingest.build_collection("C2", d1, seed=0)

    def test_c3_pairs_d2_adl_with_d1_falls(self):
        d1 = tagged_pairs(5, 4, tag=1)
        d2 = tagged_pairs(11, 0, tag=2)
        col = ingest.build_collection("C3", d1, d2, seed=0)
        assert col.counts() == {("ADL", "D2"): 11, ("FALL", "D1"): 4}

    def test_missing_falls_is_insufficient(self):
        d1 = tagged_pairs(5, 0, tag=1)
        with pytest.raises(InsufficientData):
            ingest.build_collection("C1", d1, seed=0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            ingest.build_collection("C4", tagged_pairs(2, 2, tag=1))

    def test_instances_reference_source_windows(self):
        d1 = tagged_pairs(4, 2, tag=1)
        col = ingest.build_collection("C1", d1, seed=0)
        for inst in col.instances:
            window, label = d1[inst.source_index]
            assert inst.window is window
            assert inst.label is label

    def test_selection_is_seed_deterministic(self):
        d1 = tagged_pairs(7, 3, tag=1)
        d2 = tagged_pairs(10, 0, tag=2)
        a = ingest.build_collection("C2", d1, d2, seed=5)
        b = ingest.build_collection("C2", d1, d2, seed=5)
        c = ingest.build_collection("C2", d1, d2, seed=6)
        key = lambda col: [(i.source_dataset, i.source_index) for i in col.instances]
        assert key(a) == key(b)
        assert key(a) != key(c) or not np.array_equal(
            a.fold_plan.assignments, c.fold_plan.assignments
        )


class TestManifests:
    def test_roundtrip_preserves_composition(self, tmp_path):
        d1 = tagged_pairs(7, 3, tag=1)
        d2 = tagged_pairs(6, 0, tag=2)
        col = ingest.build_collection("C2", d1, d2, seed=9)
        path = tmp_path / "collection_C2.json"
        ingest.save_manifest(col, path)
        manifest = json.loads(path.read_text())
        rebuilt = ingest.collection_from_manifest(manifest, d1, d2)
        assert rebuilt.id == col.id
        assert rebuilt.seed == col.seed
        assert [i.source_index for i in rebuilt.instances] == [
            i.source_index for i in col.instances
        ]
        assert [i.label for i in rebuilt.instances] == [i.label for i in col.instances]
        assert np.array_equal(rebuilt.fold_plan.assignments, col.fold_plan.assignments)

    def test_saved_manifest_bytes_are_stable(self, tmp_path):
        d1 = tagged_pairs(5, 2, tag=1)
        col = ingest.build_collection("C1", d1, seed=3)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        ingest.save_manifest(col, p1)
        ingest.save_manifest(col, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_mismatch_is_detected(self, tmp_path):
        d1 = tagged_pairs(4, 2, tag=1)
        col = ingest.build_collection("C1", d1, seed=0)
        manifest = ingest.collection_to_manifest(col)
        manifest["instances"][0]["label"] = "FALL"
        with pytest.raises(ParseError):
            ingest.collection_from_manifest(manifest, d1)

    def test_source_id_mismatch_is_detected(self):
        d1 = tagged_pairs(4, 2, tag=1)
        col = ingest.build_collection("C1", d1, seed=0)
        manifest = ingest.collection_to_manifest(col)
        manifest["instances"][1]["source_id"] = "another window"
        with pytest.raises(ParseError, match=r"^m\.json: instances\[1\] is "):
            ingest.collection_from_manifest(manifest, d1, path="m.json")

    def test_out_of_range_reference_is_detected(self):
        d1 = tagged_pairs(4, 2, tag=1)
        col = ingest.build_collection("C1", d1, seed=0)
        manifest = ingest.collection_to_manifest(col)
        manifest["instances"][0]["source_index"] = 99
        with pytest.raises(ParseError):
            ingest.collection_from_manifest(manifest, d1)


def write_raw_dataset1(root):
    """Two raw recordings at an irregular rate, with three spikes between
    them, so one file gives two windows and they come out resampled."""
    rng = np.random.default_rng(3)
    (root / "manifest.json").write_text(json.dumps({"mode": "raw"}))
    for sub, spikes in (("adl", [150, 900]), ("fall", [400])):
        t = np.cumsum(rng.uniform(0.015, 0.025, 1200))
        xyz = rng.normal(0.0, 0.1, (1200, 3))
        xyz[spikes, 2] = 3.0
        (root / sub).mkdir()
        rows = ["t,x,y,z"] + [",".join(repr(float(v)) for v in (ti, *row))
                              for ti, row in zip(t, xyz)]
        (root / sub / "rec.csv").write_text("\n".join(rows) + "\n")


def parsed_windowed(root):
    rng = np.random.default_rng(8)
    write_windowed_dataset1(root, {(sub, f"{sub}{i}.csv"): rng.normal(0.0, 0.3, (300, 3))
                                   for sub in ("adl", "fall") for i in range(3)})
    return "dataset1", ingest.parse_dataset1(root)


def parsed_raw(root):
    write_raw_dataset1(root)
    return "dataset1", ingest.parse_dataset1(root)


def parsed_dataset2(root):
    write_dataset2(root, 5, ["WALK", "FALL", "SIT", "walk", "fall"])
    return "dataset2", ingest.parse_dataset2(root)


class TestParseRecord:
    """save_parsed writes what load_parsed reads back, the parser's
    instances bit for bit; any record it cannot vouch for reads as None."""

    @pytest.mark.parametrize("parsed", [parsed_windowed, parsed_raw, parsed_dataset2],
                             ids=["windowed dataset1", "raw dataset1", "dataset2"])
    def test_instances_read_back_bit_for_bit(self, tmp_path, parsed):
        (tmp_path / "data").mkdir()
        dataset, instances = parsed(tmp_path / "data")
        assert len(instances) >= 2
        ingest.save_parsed(tmp_path, dataset, instances, "abc")
        back = ingest.load_parsed(tmp_path, dataset, "abc")
        assert len(back) == len(instances)
        for (w, label), (b, back_label) in zip(instances, back):
            assert back_label is label
            assert (b.peak_index, b.source_id) == (w.peak_index, w.source_id)
            assert type(b.peak_index) is type(w.peak_index)
            for axis in ("x", "y", "z"):
                got, want = getattr(b, axis), getattr(w, axis)
                assert got.dtype == want.dtype and not got.flags.writeable
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_record_files_and_their_bytes_are_stable(self, tmp_path):
        (tmp_path / "data").mkdir()
        _, instances = parsed_raw(tmp_path / "data")
        for out in ("a", "b"):
            (tmp_path / out).mkdir()
            ingest.save_parsed(tmp_path / out, "dataset1", instances, "abc")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["parsed_dataset1.json", "parsed_dataset1.npy"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        samples = np.load(tmp_path / "a" / "parsed_dataset1.npy", allow_pickle=False)
        assert samples.dtype == np.float64 and samples.shape == (len(instances), 3, 300)
        doc = json.loads((tmp_path / "a" / "parsed_dataset1.json").read_text())
        assert doc["digest"] == "abc" and doc["version"] == ingest.__version__
        assert doc["instances"][0] == {"label": instances[0][1].value,
                                       "peak_index": instances[0][0].peak_index,
                                       "source_id": "rec"}

    def flip_sample_byte(self, npy, index):
        data = bytearray(npy.read_bytes())
        data[-1] ^= 1
        npy.write_bytes(bytes(data))

    def truncate_samples(self, npy, index):
        npy.write_bytes(npy.read_bytes()[:-8])

    def truncate_index(self, npy, index):
        index.write_bytes(index.read_bytes()[:100])

    def no_index(self, npy, index):
        index.unlink()

    def no_samples(self, npy, index):
        npy.unlink()

    def empty_samples(self, npy, index):
        npy.write_bytes(b"")

    def other_version(self, npy, index):
        doc = json.loads(index.read_text())
        doc["version"] = "0.0.1"
        index.write_text(json.dumps(doc))

    def other_numpy(self, npy, index):
        doc = json.loads(index.read_text())
        doc["numpy"] = "1.0"
        index.write_text(json.dumps(doc))

    def a_list(self, npy, index):
        index.write_text("[]")

    def bad_peak(self, npy, index):
        doc = json.loads(index.read_text())
        doc["instances"][0]["peak_index"] = 300
        index.write_text(json.dumps(doc))

    def one_instance_short(self, npy, index):
        doc = json.loads(index.read_text())
        doc["instances"].pop()
        index.write_text(json.dumps(doc))

    @pytest.mark.parametrize("damage", [
        "flip_sample_byte", "truncate_samples", "truncate_index", "no_index", "no_samples",
        "empty_samples", "other_version", "other_numpy", "a_list", "bad_peak", "one_instance_short"])
    def test_record_it_cannot_vouch_for_reads_as_none(self, tmp_path, damage):
        (tmp_path / "data").mkdir()
        _, instances = parsed_windowed(tmp_path / "data")
        ingest.save_parsed(tmp_path, "dataset1", instances, "abc")
        assert ingest.load_parsed(tmp_path, "dataset1", "abc") is not None
        getattr(self, damage)(tmp_path / "parsed_dataset1.npy", tmp_path / "parsed_dataset1.json")
        assert ingest.load_parsed(tmp_path, "dataset1", "abc") is None

    def test_another_digest_or_dataset_reads_as_none(self, tmp_path):
        (tmp_path / "data").mkdir()
        _, instances = parsed_windowed(tmp_path / "data")
        assert ingest.load_parsed(tmp_path, "dataset1", "abc") is None
        ingest.save_parsed(tmp_path, "dataset1", instances, "abc")
        assert ingest.load_parsed(tmp_path, "dataset1", "abd") is None
        assert ingest.load_parsed(tmp_path, "dataset2", "abc") is None


class TestDatasetFiles:
    def test_dataset1_lists_the_manifest_and_every_labelled_csv(self, tmp_path):
        (tmp_path / "d1").mkdir()
        parsed_windowed(tmp_path / "d1")
        (tmp_path / "d1" / "other").mkdir()
        (tmp_path / "d1" / "other" / "o.csv").write_text("1,2,3\n")
        (tmp_path / "d1" / "adl" / "notes.txt").write_text("not read\n")
        files = ingest.dataset_files("dataset1", tmp_path / "d1")
        names = [str(f.relative_to(tmp_path / "d1")) for f in files]
        assert names == ["manifest.json", "adl/adl0.csv", "adl/adl1.csv", "adl/adl2.csv",
                         "fall/fall0.csv", "fall/fall1.csv", "fall/fall2.csv"]

    def test_symlinked_subdirectory_is_followed(self, tmp_path):
        (tmp_path / "d1").mkdir()
        parsed_windowed(tmp_path / "d1")
        (tmp_path / "d1" / "adl").rename(tmp_path / "elsewhere")
        (tmp_path / "d1" / "adl").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
        files = ingest.dataset_files("dataset1", tmp_path / "d1")
        assert tmp_path / "d1" / "adl" / "adl0.csv" in files
        assert len(ingest.parse_dataset1(tmp_path / "d1")) == len(files) - 1

    def test_dataset2_and_a_missing_root(self, tmp_path):
        assert ingest.dataset_files("dataset2", tmp_path) == [
            tmp_path / name for name in ("x.csv", "y.csv", "z.csv", "labels.csv")]
        assert ingest.dataset_files("dataset1", tmp_path / "none") == [
            tmp_path / "none" / "manifest.json"]
