"""Parsing, resampling, peak-triggered windowing, and collection assembly.

Raw recordings come in as irregular triaxial traces.  They are resampled
to a uniform rate, scanned for magnitude peaks, and cut into fixed-length
windows centred on each peak.  Parsed windows are then assembled into one
of three labeled collections, each carrying a stratified fold plan.
"""

import enum
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientData,
    InvalidTrace,
    LengthError,
    MissingPeak,
    ParseError,
)

FULL_WINDOW = 300
SUB_WINDOWS = (51, 128)
COLLECTIONS = ("C1", "C2", "C3")
DEFAULT_RATE = 50.0
DEFAULT_THRESHOLD_G = 1.5

# Independent seed streams so unrelated draws never alias.
_STREAM_C2_SELECT = 101
_STREAM_FOLDS = 202


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
    """Fixed-length window of triaxial acceleration at a uniform rate.

    peak_index marks the triggering magnitude peak when the window came from
    peak detection; windows from pre-segmented sources may not have one.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sample_rate: float = DEFAULT_RATE
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


def resample_trace(trace, target_rate=DEFAULT_RATE, remove_offset=True):
    """Linearly resample a trace onto a uniform grid at target_rate.

    The grid spans [first, last] timestamp at spacing 1/target_rate; each
    axis is interpolated independently.  With remove_offset (the default)
    the per-axis mean over the whole input trace is subtracted first.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if len(trace) < 2:
        raise InvalidTrace("trace needs at least 2 samples to resample")
    t0 = trace.timestamps[0]
    span = trace.timestamps[-1] - t0
    # Small slack so an exact multiple of the spacing is not lost to rounding.
    n_out = int(np.floor(span * target_rate + 1e-9)) + 1
    t_new = t0 + np.arange(n_out) / target_rate
    axes = []
    for a in (trace.x, trace.y, trace.z):
        values = a - a.mean() if remove_offset else a
        axes.append(np.interp(t_new, trace.timestamps, values))
    return RawTrace(t_new, *axes, source_id=trace.source_id)


def detect_peaks(trace, threshold_g=DEFAULT_THRESHOLD_G, refractory_s=6.0):
    """Indices of magnitude peaks above threshold_g, one per event.

    A peak is a local maximum (>= both neighbours, missing neighbours count
    as satisfied) with magnitude strictly above the threshold.  Peaks closer
    than refractory_s seconds to the previously emitted one are suppressed.
    """
    m = trace.magnitude()
    above = m > threshold_g
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
        if last_t is not None and t_i - last_t < refractory_s:
            continue
        peaks.append(int(i))
        last_t = t_i
    return peaks


def cut_subwindow(window, length):
    """Cut the length-L slice of a window centred on its peak.

    The slice starts at peak_index - floor(L/2), clamped so it lies fully
    inside the parent; the returned window's peak_index is re-based.
    """
    if window.peak_index is None:
        raise MissingPeak("window has no peak_index to centre on")
    n = len(window)
    length = int(length)
    if not 1 <= length <= n:
        raise LengthError(f"cannot cut {length} samples from a window of {n}")
    start = min(max(window.peak_index - length // 2, 0), n - length)
    return TriaxialWindow(
        window.x[start : start + length],
        window.y[start : start + length],
        window.z[start : start + length],
        sample_rate=window.sample_rate,
        peak_index=window.peak_index - start,
        source_id=window.source_id,
    )


def window_at_length(window, length):
    """Return the window at the requested length, cutting around a peak if needed.

    Windows without a recorded peak are cut around their magnitude maximum.
    A window shorter than the request cannot be extended.
    """
    length = int(length)
    n = len(window)
    if n == length:
        return window
    if n < length:
        raise LengthError(f"window of {n} samples cannot yield {length}")
    if window.peak_index is None:
        window = TriaxialWindow(
            window.x,
            window.y,
            window.z,
            sample_rate=window.sample_rate,
            peak_index=int(np.argmax(window.magnitude())),
            source_id=window.source_id,
        )
    return cut_subwindow(window, length)


def _windows_from_trace(trace, threshold_g, window_len=FULL_WINDOW):
    """Peak-triggered fixed-length windows from a uniform-rate trace."""
    n = len(trace)
    out = []
    if n < window_len:
        return out
    for p in detect_peaks(trace, threshold_g):
        start = min(max(p - window_len // 2, 0), n - window_len)
        out.append(
            TriaxialWindow(
                trace.x[start : start + window_len],
                trace.y[start : start + window_len],
                trace.z[start : start + window_len],
                sample_rate=DEFAULT_RATE,
                peak_index=p - start,
                source_id=trace.source_id,
            )
        )
    return out


def _data_lines(fh, skip_header):
    """(line number, stripped text) of every line that holds data."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line and not (skip_header and lineno == 1):
            yield lineno, line


def _line_of_row(path, row, skip_header):
    """Line number of data row `row` (0-based) of path; found only on failure."""
    with open(path, "r", encoding="utf-8") as fh:
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
    with open(path, "r", encoding="utf-8") as fh:
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
                encoding="utf-8",
            )
    except (ValueError, UserWarning):
        data = None
    if data is not None and data.shape[1] == expected_cols and np.isfinite(data).all():
        return data
    return _walk_rows(path, expected_cols, skip_header, length_error)


def _walk_rows(path, expected_cols, skip_header, length_error):
    """_read_rows one line at a time with float(); raises at the first bad line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
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


def _labeled_files(root):
    """(path, Label) pairs from adl/ and fall/ subdirectories, sorted."""
    root = Path(root)
    pairs = []
    for sub in sorted(root.iterdir()):
        if not sub.is_dir():
            continue
        name = sub.name.lower()
        if name == "adl":
            label = Label.ADL
        elif name == "fall":
            label = Label.FALL
        else:
            continue
        for f in sorted(sub.glob("*.csv")):
            pairs.append((f, label))
    return pairs


def parse_dataset1(path, threshold_g=DEFAULT_THRESHOLD_G):
    """Parse a dataset1-style directory into labeled 300-sample windows.

    The root holds a manifest.json declaring the mode plus adl/ and fall/
    subdirectories of CSV files.  In "raw" mode each file is a t,x,y,z
    recording that gets resampled to 50 Hz and windowed around magnitude
    peaks; in "windowed" mode each file is a headerless 300-row x,y,z
    window whose peak is taken at the magnitude maximum.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ParseError("missing manifest.json", manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc})", manifest_path) from None
    mode = manifest.get("mode")
    if mode not in ("raw", "windowed"):
        raise ParseError(f"manifest mode must be 'raw' or 'windowed', got {mode!r}", manifest_path)

    instances = []
    for f, label in _labeled_files(root):
        if mode == "windowed":
            data = _read_rows(f, expected_cols=3)
            if len(data) != FULL_WINDOW:
                raise LengthError(f"{f}: expected {FULL_WINDOW} rows, got {len(data)}")
            peak = int(np.argmax(np.sqrt((data ** 2).sum(axis=1))))
            window = TriaxialWindow(
                data[:, 0],
                data[:, 1],
                data[:, 2],
                sample_rate=DEFAULT_RATE,
                peak_index=peak,
                source_id=f.stem,
            )
            instances.append((window, label))
        else:
            with open(f, "r", encoding="utf-8") as fh:
                header = fh.readline().strip().replace(" ", "")
            if header.lower() != "t,x,y,z":
                raise ParseError(f"expected header 't,x,y,z', got {header!r}", f, 1)
            data = _read_rows(f, expected_cols=4, skip_header=True)
            if len(data) < 2:
                raise InvalidTrace(f"{f}: trace needs at least 2 samples")
            t = data[:, 0]
            back = np.flatnonzero(t[1:] < t[:-1])
            if back.size:
                line = _line_of_row(f, int(back[0]) + 1, True)
                raise ParseError("timestamps must be monotone non-decreasing", f, line)
            if t[0] == t[-1]:
                raise ParseError("trace needs at least 2 distinct timestamps", f)
            trace = RawTrace(t, data[:, 1], data[:, 2], data[:, 3], source_id=f.stem)
            uniform = resample_trace(trace, DEFAULT_RATE)
            for window in _windows_from_trace(uniform, threshold_g):
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
    axis_rows = {}
    for axis in ("x", "y", "z"):
        f = root / f"{axis}.csv"
        if not f.is_file():
            raise ParseError(f"missing axis file {axis}.csv", f)
        axis_rows[axis] = _read_rows(f, expected_cols=128, length_error=True)
    labels_path = root / "labels.csv"
    if not labels_path.is_file():
        raise ParseError("missing labels.csv", labels_path)
    with open(labels_path, "r", encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh if line.strip()]

    counts = {axis: len(rows) for axis, rows in axis_rows.items()}
    counts["labels"] = len(tokens)
    if len(set(counts.values())) != 1:
        raise ParseError(f"row counts disagree across files: {counts}", root)

    instances = []
    for i, token in enumerate(tokens):
        if token.upper() == "FALL":
            continue
        window = TriaxialWindow(
            axis_rows["x"][i],
            axis_rows["y"][i],
            axis_rows["z"][i],
            sample_rate=DEFAULT_RATE,
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

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)

    def test_indices(self, fold):
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold):
        return np.flatnonzero(self.assignments != fold)


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


def build_collection(cid, d1_instances, d2_instances=None, seed=0, num_folds=10):
    """Assemble collection C1, C2, or C3 with a stratified fold plan.

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
    plan = plan_folds([inst.label for inst in instances], num_folds=num_folds, seed=seed)
    return Collection(id=cid, instances=instances, fold_plan=plan, seed=seed)


def collection_to_manifest(collection):
    """JSON-ready manifest capturing exactly which instances went where."""
    return {
        "id": collection.id,
        "seed": collection.seed,
        "num_folds": collection.fold_plan.num_folds,
        "instances": [
            {
                "source_dataset": inst.source_dataset,
                "source_index": inst.source_index,
                "source_id": inst.window.source_id,
                "label": inst.label.value,
            }
            for inst in collection.instances
        ],
        "fold_assignments": collection.fold_plan.assignments.tolist(),
    }


def save_manifest(collection, path):
    """Write the collection manifest as JSON, atomically."""
    payload = json.dumps(collection_to_manifest(collection), indent=2, sort_keys=True)
    _atomic_write_text(path, payload + "\n")


def _atomic_write_text(path, text):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def collection_from_manifest(manifest, d1_instances, d2_instances=None, path=None):
    """Rebuild a collection from its manifest and the parsed source datasets.

    A manifest that lacks a field, references a window the datasets do
    not hold, or whose fold plan does not put every instance in one of
    its num_folds folds raises ParseError naming path.
    """
    sources = {
        "D1": list(d1_instances),
        "D2": list(d2_instances) if d2_instances is not None else [],
    }
    try:
        instances = []
        for entry in manifest["instances"]:
            src = entry["source_dataset"]
            idx = entry["source_index"]
            pool = sources.get(src)
            if pool is None or type(idx) is not int or not 0 <= idx < len(pool):
                raise ParseError(f"manifest references {src}[{idx}], which is unavailable", path)
            window, label = pool[idx]
            if label.value != entry["label"]:
                raise ParseError(
                    f"manifest label {entry['label']} disagrees with {src}[{idx}] = {label.value}",
                    path,
                )
            instances.append(
                Instance(window=window, label=label, source_dataset=src, source_index=idx)
            )
        num_folds = manifest["num_folds"]
        assignments = manifest["fold_assignments"]
        seed = int(manifest["seed"])
        cid = manifest["id"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc}", path) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a collection manifest ({exc})", path) from exc
    if type(num_folds) is not int or num_folds < 2:
        raise ParseError(f"num_folds must be an integer >= 2, got {num_folds!r}", path)
    if not isinstance(assignments, list) or len(assignments) != len(instances):
        raise ParseError(f"fold_assignments must hold one fold per instance ({len(instances)})", path)
    for a in assignments:
        if type(a) is not int or not 0 <= a < num_folds:
            raise ParseError(f"fold_assignments holds {a!r}, not a fold in [0, {num_folds})", path)
    plan = FoldPlan(num_folds=num_folds, assignments=assignments, seed=seed)
    return Collection(id=cid, instances=instances, fold_plan=plan, seed=seed)
