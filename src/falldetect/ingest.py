"""Parsing, resampling, peak-triggered windowing, and collection assembly.

Raw recordings come in as irregular triaxial traces.  They are resampled
to a uniform rate, scanned for magnitude peaks, and cut into fixed-length
windows centred on each peak.  Parsed windows are then assembled into one
of three labeled collections, each carrying a stratified fold plan.
"""

import enum
import hashlib
import io
import json
import math
import mmap
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    InsufficientData,
    InvalidTrace,
    LengthError,
    ParseError,
    at_least,
    checked,
)

FULL_WINDOW = 300
SUB_WINDOWS = (51, 128)
COLLECTIONS = ("C1", "C2", "C3")
SAMPLE_RATE = 50.0  # Hz, of every window
THRESHOLD_G = 1.5  # a peak's magnitude is strictly above this
REFRACTORY_S = 6.0  # the least gap between two emitted peaks
NUM_FOLDS = 10  # outer cross-validation folds of every collection
SEED_BOUND = at_least(0)  # the bound of a collection's seed, and of the CLI's

# Independent seed streams so unrelated draws never alias.
_STREAM_C2_SELECT = 101
_STREAM_FOLDS = 202
# Dataset text is UTF-8; a leading byte-order mark, as spreadsheet exports
# write one, is not part of the first line.
_DATA_ENCODING = "utf-8-sig"


class Label(enum.Enum):
    ADL = "ADL"
    FALL = "FALL"


def is_fall_mask(labels):
    """Labels as one bool mask, True for FALL.

    Takes Label members, their string values, or a bool mask (returned as
    is).  Any other token raises ValueError naming every unknown one.
    """
    arr = np.asarray(labels)
    if arr.dtype == bool:
        return arr
    if arr.dtype.kind != "U":
        arr = np.array(
            [lab.value if isinstance(lab, Label) else str(lab) for lab in arr.ravel()], dtype=str
        )
    pos = arr == "FALL"
    bad = ~pos & (arr != "ADL")
    if bad.any():
        raise ValueError(f"unknown labels {sorted(set(arr[bad].tolist()))}")
    return pos


def _as_float_vector(values, name):
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidTrace(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class RawTrace:
    """Irregularly sampled triaxial recording in g, with timestamps in seconds.

    Duplicate timestamps are dropped at construction (first sample wins), so
    the stored timestamps are strictly increasing.
    """

    timestamps: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        t = _as_float_vector(self.timestamps, "timestamps")
        axes = [_as_float_vector(v, n) for v, n in ((self.x, "x"), (self.y, "y"), (self.z, "z"))]
        if any(len(a) != len(t) for a in axes):
            raise InvalidTrace("timestamps and axes must have equal length")
        if len(t) >= 2 and np.any(np.diff(t) < 0):
            raise InvalidTrace("timestamps must be monotone non-decreasing")
        # Deduplicate: keep the first sample at each timestamp.
        t, keep = np.unique(t, return_index=True)
        axes = [a[keep] for a in axes]
        if len(t) < 2:
            raise InvalidTrace("trace needs at least 2 distinct timestamps")
        for arr in (t, *axes):
            arr.setflags(write=False)
        self.timestamps = t
        self.x, self.y, self.z = axes

    def __len__(self):
        return len(self.timestamps)

    def magnitude(self):
        return np.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)

    def duration(self):
        return float(self.timestamps[-1] - self.timestamps[0])


@dataclass
class TriaxialWindow:
    """Fixed-length window of triaxial acceleration at SAMPLE_RATE.

    peak_index marks the triggering magnitude peak when the window came from
    peak detection; windows from pre-segmented sources may not have one.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    peak_index: int | None = None
    source_id: str = ""

    def __post_init__(self):
        axes = [np.array(v, dtype=np.float64) for v in (self.x, self.y, self.z)]
        lengths = {len(a) for a in axes}
        if any(a.ndim != 1 for a in axes) or len(lengths) != 1:
            raise LengthError("window axes must be 1-d and of identical length")
        n = lengths.pop()
        if n < 1:
            raise LengthError("window must contain at least one sample")
        if self.peak_index is not None:
            self.peak_index = int(self.peak_index)
            if not 0 <= self.peak_index < n:
                raise ValueError(f"peak_index {self.peak_index} outside window of length {n}")
        for arr in axes:
            arr.setflags(write=False)
        self.x, self.y, self.z = axes

    def __len__(self):
        return len(self.x)

    def magnitude(self):
        return np.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)


def resample_trace(trace):
    """Linearly resample a trace onto a uniform grid at SAMPLE_RATE.

    The per-axis mean over the whole input trace is subtracted first.  The
    grid spans [first, last] timestamp at spacing 1/SAMPLE_RATE; each axis
    is interpolated independently.
    """
    if len(trace) < 2:
        raise InvalidTrace("trace needs at least 2 samples to resample")
    t0 = trace.timestamps[0]
    span = trace.timestamps[-1] - t0
    # Small slack so an exact multiple of the spacing is not lost to rounding.
    n_out = int(np.floor(span * SAMPLE_RATE + 1e-9)) + 1
    t_new = t0 + np.arange(n_out) / SAMPLE_RATE
    axes = []
    for a in (trace.x, trace.y, trace.z):
        axes.append(np.interp(t_new, trace.timestamps, a - a.mean()))
    return RawTrace(t_new, *axes, source_id=trace.source_id)


def detect_peaks(trace):
    """Indices of magnitude peaks above THRESHOLD_G, one per event.

    A peak is a local maximum (>= both neighbours, missing neighbours count
    as satisfied) with magnitude strictly above the threshold.  Peaks closer
    than REFRACTORY_S seconds to the previously emitted one are suppressed.
    """
    m = trace.magnitude()
    above = m > THRESHOLD_G
    left_ok = np.empty(len(m), dtype=bool)
    right_ok = np.empty(len(m), dtype=bool)
    left_ok[0] = True
    left_ok[1:] = m[1:] >= m[:-1]
    right_ok[-1] = True
    right_ok[:-1] = m[:-1] >= m[1:]
    candidates = np.flatnonzero(above & left_ok & right_ok)
    peaks = []
    last_t = None
    for i in candidates:
        t_i = trace.timestamps[i]
        if last_t is not None and t_i - last_t < REFRACTORY_S:
            continue
        peaks.append(int(i))
        last_t = t_i
    return peaks


def _centred_start(peak, length, n):
    """The first sample of the length-L cut of n samples centred on sample
    peak: peak - floor(L/2), clamped so the cut lies fully inside."""
    return min(max(peak - length // 2, 0), n - length)


def _centred_cut(source, peak, length):
    """The length-L window of a trace or window centred on sample peak
    (_centred_start), its peak_index re-based."""
    start = _centred_start(peak, length, len(source))
    cut = slice(start, start + length)
    return TriaxialWindow(
        source.x[cut], source.y[cut], source.z[cut], peak_index=peak - start,
        source_id=source.source_id,
    )


def _cut_peak(window, length):
    """The sample a cut of window to a shorter length is centred on: its
    peak_index, or its magnitude maximum when it has no peak.  A window
    shorter than the request cannot be extended."""
    n = len(window)
    if not 1 <= length < n:
        raise LengthError(f"window of {n} samples cannot yield {length}")
    if window.peak_index is None:
        return int(np.argmax(window.magnitude()))
    return window.peak_index


def cut_start(window, length):
    """The first sample of window_at_length(window, length) within window:
    0 when the window is already at that length."""
    length = int(length)
    n = len(window)
    if n == length:
        return 0
    return _centred_start(_cut_peak(window, length), length, n)


def window_at_length(window, length):
    """The window at the requested length: itself, or the length-L slice
    centred on its peak_index, or on its magnitude maximum when it has no
    peak.  The slice starts at the peak - floor(L/2), clamped so it lies
    fully inside the window (cut_start), and its peak_index is re-based.  A
    window shorter than the request cannot be extended.
    """
    length = int(length)
    if len(window) == length:
        return window
    return _centred_cut(window, _cut_peak(window, length), length)


def _windows_from_trace(trace):
    """Peak-triggered FULL_WINDOW-sample windows from a uniform-rate trace."""
    if len(trace) < FULL_WINDOW:
        return []
    return [_centred_cut(trace, p, FULL_WINDOW) for p in detect_peaks(trace)]


def _data_lines(fh, skip_header):
    """(line number, stripped text) of every line that holds data."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line and not (skip_header and lineno == 1):
            yield lineno, line


@contextmanager
def _utf8(path):
    """A UnicodeDecodeError raised while reading path becomes a ParseError
    at the line of path's first byte that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line as text mode counts it: \r\n, \r and \n each end one
            head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            raise ParseError(f"not UTF-8 text ({exc.reason})", path,
                             head.count(b"\n") + 1) from None
        raise


def _line_of_row(path, row, skip_header):
    """Line number of data row `row` (0-based) of path; found only on failure."""
    with open(path, "r", encoding=_DATA_ENCODING) as fh:
        return next(islice(_data_lines(fh, skip_header), row, None))[0]


def _read_rows(path, expected_cols, skip_header=False, length_error=False):
    """Rows of a numeric CSV as an (n, expected_cols) float array; raises
    ParseError with the line on a non-numeric or non-finite value.

    With length_error, a clean numeric row of the wrong width raises
    LengthError instead (the row parsed, but the window is the wrong size).

    Every file is first read by one np.loadtxt call, split on commas, or
    on whitespace when the first data line has none.  Its result is kept
    only when it has expected_cols columns and every value is finite;
    anything else goes to the line walk, which takes what only float()
    reads (``1_0``, Unicode digits, mixed separators) or names the line.
    """
    with _utf8(path), open(path, "r", encoding=_DATA_ENCODING) as fh:
        lines = (ln for i, ln in enumerate(fh) if ln.strip() and not (skip_header and i == 0))
        first = next(lines, "")
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file without data rows; walk it instead
            warnings.simplefilter("error")
            data = np.loadtxt(
                path,
                delimiter="," if "," in first else None,
                comments=None,
                ndmin=2,
                skiprows=1 if skip_header else 0,
                encoding=_DATA_ENCODING,
            )
    except (ValueError, UserWarning):  # UnicodeDecodeError too: the walk names it
        data = None
    if data is not None and data.shape[1] == expected_cols and np.isfinite(data).all():
        return data
    with _utf8(path):
        return _walk_rows(path, expected_cols, skip_header, length_error)


def _walk_rows(path, expected_cols, skip_header, length_error):
    """_read_rows one line at a time with float(); raises at the first bad line."""
    rows = []
    with open(path, "r", encoding=_DATA_ENCODING) as fh:
        for lineno, line in _data_lines(fh, skip_header):
            parts = line.replace(",", " ").split()
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ParseError("non-numeric value", path, lineno) from None
            if len(values) != expected_cols:
                message = f"expected {expected_cols} values per row, got {len(values)}"
                if length_error:
                    raise LengthError(f"{path}:{lineno}: {message}")
                raise ParseError(message, path, lineno)
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite value", path, lineno)
            rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(-1, expected_cols)


def _refuse_overflow(axes, skip_header=False):
    """ParseError at path:line of the first row holding a sample whose
    x^2 + y^2 + z^2 is not finite.  axes holds (path, values) for x, y
    and z, values a sample per row (1-d) or a window per row (2-d); the
    file of the sample's largest axis is the one named."""
    (_, x), (_, y), (_, z) = axes
    with np.errstate(over="ignore"):
        bad = np.argwhere(~np.isfinite(x ** 2 + y ** 2 + z ** 2))
    if len(bad):
        at = tuple(bad[0])
        path = max(axes, key=lambda axis: abs(axis[1][at]))[0]
        line = _line_of_row(path, int(at[0]), skip_header)
        raise ParseError("x^2 + y^2 + z^2 overflows", path, line)


_LABEL_DIRS = {"adl": Label.ADL, "fall": Label.FALL}


def dataset_files(dataset, path):
    """Every file the parser of dataset ("dataset1" or "dataset2") reads
    under path, in the order it reads them: dataset1's manifest.json and
    then the CSV files of its adl/ and fall/ subdirectories (any case,
    symlinks followed), each sorted, or dataset2's x.csv, y.csv, z.csv and
    labels.csv.  Files are listed whether or not they exist; a path that
    is no directory lists no CSV files."""
    root = Path(path)
    if dataset == "dataset2":
        return [root / name for name in ("x.csv", "y.csv", "z.csv", "labels.csv")]
    files = [root / "manifest.json"]
    for sub in sorted(root.iterdir()) if root.is_dir() else []:
        if sub.is_dir() and sub.name.lower() in _LABEL_DIRS:
            files += sorted(sub.glob("*.csv"))
    return files


def parse_dataset1(path):
    """Parse a dataset1-style directory into labeled 300-sample windows.

    The root holds a manifest.json declaring the mode plus adl/ and fall/
    subdirectories of CSV files.  In "raw" mode each file is a t,x,y,z
    recording that gets resampled to 50 Hz and windowed around magnitude
    peaks (a trace whose x^2 + y^2 + z^2 overflows once its offset is
    removed is refused); in "windowed" mode each file is a headerless
    300-row x,y,z window whose peak is taken at the magnitude maximum.
    """
    manifest_path, *csv_files = dataset_files("dataset1", path)
    if not manifest_path.is_file():
        raise ParseError("missing manifest.json", manifest_path)
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ParseError("manifest must be a JSON object", manifest_path)
    mode = manifest.get("mode")
    if mode not in ("raw", "windowed"):
        raise ParseError(f"manifest mode must be 'raw' or 'windowed', got {mode!r}", manifest_path)

    instances = []
    for f in csv_files:
        label = _LABEL_DIRS[f.parent.name.lower()]
        if mode == "windowed":
            data = _read_rows(f, expected_cols=3)
            if len(data) != FULL_WINDOW:
                raise LengthError(f"{f}: expected {FULL_WINDOW} rows, got {len(data)}")
            _refuse_overflow([(f, data[:, c]) for c in range(3)])
            peak = int(np.argmax(np.sqrt((data ** 2).sum(axis=1))))
            window = TriaxialWindow(
                data[:, 0],
                data[:, 1],
                data[:, 2],
                peak_index=peak,
                source_id=f.stem,
            )
            instances.append((window, label))
        else:
            with _utf8(f), open(f, "r", encoding=_DATA_ENCODING) as fh:
                header = fh.readline().strip().replace(" ", "")
            if header.lower() != "t,x,y,z":
                raise ParseError(f"expected header 't,x,y,z', got {header!r}", f, 1)
            data = _read_rows(f, expected_cols=4, skip_header=True)
            if len(data) < 2:
                raise InvalidTrace(f"{f}: trace needs at least 2 samples")
            _refuse_overflow([(f, data[:, c]) for c in range(1, 4)], skip_header=True)
            t = data[:, 0]
            back = np.flatnonzero(t[1:] < t[:-1])
            if back.size:
                line = _line_of_row(f, int(back[0]) + 1, True)
                raise ParseError("timestamps must be monotone non-decreasing", f, line)
            if t[0] == t[-1]:
                raise ParseError("trace needs at least 2 distinct timestamps", f)
            trace = RawTrace(t, data[:, 1], data[:, 2], data[:, 3], source_id=f.stem)
            uniform = resample_trace(trace)
            with np.errstate(over="ignore"):
                bad = np.flatnonzero(~np.isfinite(uniform.magnitude()))
            if bad.size:
                row = min(int(np.searchsorted(t, uniform.timestamps[bad[0]])), len(t) - 1)
                line = _line_of_row(f, row, True)
                raise ParseError("x^2 + y^2 + z^2 overflows once the offset is removed", f, line)
            for window in _windows_from_trace(uniform):
                instances.append((window, label))
    return instances


def parse_dataset2(path):
    """Parse a dataset2-style directory into 128-sample ADL windows.

    The directory holds x.csv, y.csv, z.csv with one 128-value row per
    window (comma- or space-separated) and labels.csv with one label token
    per row.  Rows labeled FALL (any case) are skipped; everything else is
    an activity of daily living.  Windows carry no peak index.
    """
    root = Path(path)
    *axis_files, labels_path = dataset_files("dataset2", root)
    axis_rows = {}
    for axis, f in zip(("x", "y", "z"), axis_files):
        if not f.is_file():
            raise ParseError(f"missing axis file {axis}.csv", f)
        axis_rows[axis] = _read_rows(f, expected_cols=128, length_error=True)
    if not labels_path.is_file():
        raise ParseError("missing labels.csv", labels_path)
    with _utf8(labels_path), open(labels_path, "r", encoding=_DATA_ENCODING) as fh:
        tokens = [line.strip() for line in fh if line.strip()]

    counts = {axis: len(rows) for axis, rows in axis_rows.items()}
    counts["labels"] = len(tokens)
    if len(set(counts.values())) != 1:
        raise ParseError(f"row counts disagree across files: {counts}", root)
    _refuse_overflow(list(zip(axis_files, axis_rows.values())))

    instances = []
    for i, token in enumerate(tokens):
        if token.upper() == "FALL":
            continue
        window = TriaxialWindow(
            axis_rows["x"][i],
            axis_rows["y"][i],
            axis_rows["z"][i],
            source_id=f"row{i}",
        )
        instances.append((window, Label.ADL))
    return instances


@dataclass
class FoldPlan:
    """Assignment of every instance to exactly one test fold."""

    num_folds: int
    assignments: np.ndarray
    seed: int

    def test_indices(self, fold):
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold):
        return np.flatnonzero(self.assignments != fold)

    @cached_property
    def splits(self):
        """(train_indices(g), test_indices(g)) of every fold g, made on
        first ask and kept: every variant that reads a plan reads these."""
        return [(self.train_indices(g), self.test_indices(g)) for g in range(self.num_folds)]


def plan_folds(labels, num_folds=10, seed=0):
    """Stratified fold plan: per class, seeded shuffle then round-robin.

    Test-set sizes within each class differ by at most 1 across folds, and
    the plan is a pure function of (labels, num_folds, seed).
    """
    is_fall = is_fall_mask(labels)
    if num_folds < 2:
        raise ValueError("num_folds must be at least 2")
    assignments = np.empty(len(is_fall), dtype=np.int64)
    rng = np.random.default_rng([seed, _STREAM_FOLDS])
    for idx in (np.flatnonzero(~is_fall), np.flatnonzero(is_fall)):
        if len(idx) == 0:
            continue
        perm = rng.permutation(idx)
        assignments[perm] = np.arange(len(perm)) % num_folds
    return FoldPlan(num_folds=num_folds, assignments=assignments, seed=seed)


@dataclass
class Instance:
    """One labeled window tagged with the dataset it came from."""

    window: TriaxialWindow
    label: Label
    source_dataset: str
    source_index: int


@dataclass
class Collection:
    """The train/test universe for one experiment."""

    id: str
    instances: list
    fold_plan: FoldPlan
    seed: int

    def counts(self):
        out = {}
        for inst in self.instances:
            key = (inst.label.value, inst.source_dataset)
            out[key] = out.get(key, 0) + 1
        return out

    def __len__(self):
        return len(self.instances)


def _split_by_label(pairs):
    adl = [i for i, (_, lab) in enumerate(pairs) if lab is Label.ADL]
    fall = [i for i, (_, lab) in enumerate(pairs) if lab is Label.FALL]
    return adl, fall


def build_collection(cid, d1_instances, d2_instances=None, seed=0):
    """Assemble collection C1, C2, or C3 with a stratified NUM_FOLDS-fold plan.

    C1 takes everything from dataset1.  C2 keeps dataset1's falls and mixes
    its ADL half-and-half (+-1) from the two datasets, the halves chosen at
    random under the seed.  C3 pairs dataset2's ADL with dataset1's falls.
    When a source holds fewer windows than the nominal recipe asks for, all
    available ones are used; only an empty required side is an error.
    """
    if cid not in COLLECTIONS:
        raise ValueError(f"unknown collection id {cid!r}")
    d1 = list(d1_instances)
    d2 = list(d2_instances) if d2_instances is not None else []
    d1_adl, d1_fall = _split_by_label(d1)
    d2_adl, _ = _split_by_label(d2)

    if not d1_fall:
        raise InsufficientData("no FALL instances in dataset1")
    chosen = []  # (source_dataset, source_index)
    if cid == "C1":
        if not d1_adl:
            raise InsufficientData("C1 needs ADL instances from dataset1")
        chosen = [("D1", i) for i in d1_adl + d1_fall]
    elif cid == "C2":
        if not d1_adl:
            raise InsufficientData("C2 needs ADL instances from dataset1")
        if not d2_adl:
            raise InsufficientData("C2 needs ADL instances from dataset2")
        total = len(d1_adl)
        want_d1 = (total + 1) // 2
        want_d2 = min(total // 2, len(d2_adl))
        rng = np.random.default_rng([seed, _STREAM_C2_SELECT])
        pick_d1 = sorted(rng.permutation(len(d1_adl))[:want_d1].tolist())
        pick_d2 = sorted(rng.permutation(len(d2_adl))[:want_d2].tolist())
        chosen = [("D1", d1_adl[j]) for j in pick_d1]
        chosen += [("D2", d2_adl[j]) for j in pick_d2]
        chosen += [("D1", i) for i in d1_fall]
    else:
        if not d2_adl:
            raise InsufficientData("C3 needs ADL instances from dataset2")
        chosen = [("D2", i) for i in d2_adl] + [("D1", i) for i in d1_fall]

    sources = {"D1": d1, "D2": d2}
    instances = [
        Instance(
            window=sources[src][idx][0],
            label=sources[src][idx][1],
            source_dataset=src,
            source_index=idx,
        )
        for src, idx in chosen
    ]
    plan = plan_folds([inst.label for inst in instances], num_folds=NUM_FOLDS, seed=seed)
    return Collection(id=cid, instances=instances, fold_plan=plan, seed=seed)


def collection_to_manifest(collection):
    """JSON-ready manifest capturing exactly which instances went where."""
    return {
        "id": collection.id,
        "seed": collection.seed,
        "num_folds": collection.fold_plan.num_folds,
        "instances": [
            # keys sorted as in the written file, so a refused entry prints alike
            {
                "label": inst.label.value,
                "source_dataset": inst.source_dataset,
                "source_id": inst.window.source_id,
                "source_index": inst.source_index,
            }
            for inst in collection.instances
        ],
        "fold_assignments": collection.fold_plan.assignments.tolist(),
    }


def save_manifest(collection, path):
    """Write the collection manifest as JSON, atomically."""
    _write_json(path, collection_to_manifest(collection))


def _atomic_write_bytes(path, data):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp makes the file 0600; give it the mode open() gives
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _write_json(path, doc):
    """Write doc as indented, key-sorted JSON, atomically: the one format
    of every JSON file the package writes."""
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path):
    """The JSON document in path; ParseError naming path when it is not
    JSON, or not UTF-8 text at all."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"not JSON ({exc})", path) from exc


def _record_files(out, dataset):
    """The two files of dataset's parse record in out: samples, then index."""
    return Path(out) / f"parsed_{dataset}.npy", Path(out) / f"parsed_{dataset}.json"


# What a parse record is valid for besides its dataset's digest.
_RECORD_VERSIONS = {"numpy": np.__version__, "version": __version__}


def save_parsed(out, dataset, instances, digest):
    """Record the parsed (window, label) instances of dataset in out for
    load_parsed: the samples as one float64 (n, 3, L) .npy, then a JSON
    index of each instance's label, peak_index and source_id with the
    dataset's digest, the versions that parsed it and the sha256 of the
    .npy bytes.  Each file is written atomically, the index last, so a
    record cut short never passes for whole."""
    buf = io.BytesIO()
    np.save(buf, np.array([(w.x, w.y, w.z) for w, _ in instances]), allow_pickle=False)
    data = buf.getvalue()
    samples, index = _record_files(out, dataset)
    _atomic_write_bytes(samples, data)
    _write_json(index, {
        **_RECORD_VERSIONS,
        "digest": digest,
        "instances": [{"label": label.value, "peak_index": w.peak_index, "source_id": w.source_id}
                      for w, label in instances],
        "samples_sha256": hashlib.sha256(data).hexdigest(),
    })


def load_parsed(out, dataset, digest):
    """The instances save_parsed recorded in out for dataset, equal to the
    parser's bit for bit, when the record there is whole, was written by
    these versions and has this digest; None otherwise (no record, a
    damaged or partial one, another version, another dataset), for the
    caller to parse the dataset instead."""
    samples, index = _record_files(out, dataset)
    try:
        doc = _read_json(index)
        with open(samples, "rb") as fh:
            # mapped, not read: freeing a read buffer of this size would
            # raise glibc's mmap threshold, and with it the run's peak RSS
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ParseError, ValueError):  # ValueError: an empty file
        return None
    with data:
        want = {**_RECORD_VERSIONS, "digest": digest,
                "samples_sha256": hashlib.sha256(data).hexdigest()}
        if not isinstance(doc, dict) or any(doc.get(k) != v for k, v in want.items()):
            return None
        return _record_instances(data, doc.get("instances"))


def _record_instances(data, entries):
    """The (window, label) pairs of a record's .npy bytes and index
    entries, copied out of data; None when the two do not fit."""
    try:
        if np.lib.format.read_magic(data) != (1, 0):
            return None
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(data)
        if fortran_order or dtype != np.float64 or shape[:2] != (len(entries), 3):
            return None
        samples = np.frombuffer(data, dtype, math.prod(shape), data.tell()).reshape(shape)
        instances = []
        for axes, e in zip(samples, entries):
            peak, source_id = e["peak_index"], e["source_id"]
            if not (peak is None or type(peak) is int) or type(source_id) is not str:
                return None
            window = TriaxialWindow(*axes, peak_index=peak, source_id=source_id)
            instances.append((window, Label(e["label"])))
    except (KeyError, LengthError, TypeError, ValueError):
        return None
    return instances


def _first_difference(key, got, want):
    """Words for where the manifest's field key, holding got, first
    differs from want, what the datasets give."""
    if isinstance(want, list):
        if not isinstance(got, list):
            return f"{key} is not a list"
        if len(got) != len(want):
            return f"{key} holds {len(got)} entries, but the datasets give {len(want)}"
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        key, got, want = f"{key}[{i}]", got[i], want[i]
    return f"{key} is {got!r}, but the datasets give {want!r}"


def collection_from_manifest(manifest, d1_instances, d2_instances=None, path=None):
    """build_collection's collection for the manifest's id and seed from
    the parsed source datasets, once the manifest is checked to be what
    collection_to_manifest writes for it.  ParseError naming path when it
    is not: the manifest is not an object, lacks a key, has an unknown id
    or a seed that is not an integer >= 0, or names the first field that
    differs, instances first, then fold_assignments."""
    if not isinstance(manifest, dict):
        raise ParseError(f"not a collection manifest (a {type(manifest).__name__}, not an object)",
                         path)
    for key in ("id", "seed"):
        if key not in manifest:
            raise ParseError(f"missing key {key!r}", path)
    cid, seed = manifest["id"], manifest["seed"]
    if cid not in COLLECTIONS:
        raise ParseError(f"unknown collection id {cid!r}", path)
    try:
        checked("seed", seed, SEED_BOUND)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None
    collection = build_collection(cid, d1_instances, d2_instances, seed=seed)
    want = collection_to_manifest(collection)
    for key in ("instances", "fold_assignments", *sorted(manifest.keys() | want.keys())):
        if key not in manifest:
            raise ParseError(f"missing key {key!r}", path)
        if key not in want:
            raise ParseError(f"unknown key {key!r}", path)
        if manifest[key] != want[key]:
            raise ParseError(_first_difference(key, manifest[key], want[key]), path)
    return collection
