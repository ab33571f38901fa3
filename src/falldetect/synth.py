"""Seeded synthetic accelerometer windows for dataset-free pipeline runs.

The generator is deliberately non-physiological: normal activity is a
smooth oscillation around 1 g, and a fall is a free-fall dip followed by
an impact spike above the trigger threshold and near-still lying.  That
is enough to exercise ingestion, every feature, and every classifier,
but it makes no claim of realism.
"""

from pathlib import Path

import numpy as np

from .ingest import (
    FULL_WINDOW,
    SAMPLE_RATE,
    Label,
    TriaxialWindow,
    _atomic_write_text,
    _write_json,
    dataset_files,
)

_STREAM_SYNTH = 404


def _unit(v):
    return v / np.linalg.norm(v)


def _oscillation(rng, n):
    """Smooth activity around a gravity vector, magnitude kept below 1.4 g."""
    t = np.arange(n) / SAMPLE_RATE
    gravity = _unit(np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0]))
    axes = []
    for i in range(3):
        amp = rng.uniform(0.05, 0.3)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wobble = 0.05 * np.sin(2.0 * np.pi * freq * 1.7 * t + phase * 0.3)
        noise = 0.02 * rng.standard_normal(n)
        axes.append(gravity[i] + amp * np.sin(2.0 * np.pi * freq * t + phase) + wobble + noise)
    return np.array(axes)


def synth_adl_window(rng, n=FULL_WINDOW):
    """One activity-of-daily-living window."""
    return _oscillation(rng, n)


def synth_fall_window(rng, n=FULL_WINDOW):
    """One fall window: activity, free-fall dip, impact spike, stillness.

    The spike peak is drawn from [2.2, 3.2] g, so every fall window has a
    magnitude sample strictly above the 1.5 g trigger threshold and its
    magnitude maximum sits at the impact.
    """
    axes = _oscillation(rng, n)
    start = int(rng.integers(120, 150))
    dip = int(rng.integers(15, 25))

    # free fall: all axes collapse toward zero
    ramp = np.linspace(1.0, 0.05, dip)
    axes[:, start : start + dip] *= ramp
    axes[:, start : start + dip] += 0.03 * rng.standard_normal((3, dip))

    # impact: short spike along a random direction
    peak = float(rng.uniform(2.2, 3.2))
    direction = _unit(rng.standard_normal(3))
    profile = peak * np.array([0.45, 1.0, 0.55, 0.25])
    p0 = start + dip
    for j, mag in enumerate(profile):
        if p0 + j < n:
            axes[:, p0 + j] = mag * direction + 0.05 * rng.standard_normal(3)

    # settle into a new lying orientation with very little motion
    rest_from = min(p0 + len(profile) + int(rng.integers(5, 15)), n)
    lying = _unit(np.array([1.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)]))
    rest_n = n - rest_from
    if rest_n > 0:
        axes[:, rest_from:] = lying[:, None] + 0.005 * rng.standard_normal((3, rest_n))
    # decay whatever sits between the impact tail and the resting span
    gap = slice(p0 + len(profile), rest_from)
    gap_n = axes[:, gap].shape[1]
    if gap_n > 0:
        fade = np.linspace(0.6, 0.1, gap_n)
        axes[:, gap] = lying[:, None] + fade * (axes[:, gap] - lying[:, None])
    return axes


def _window_rng(seed, label, index):
    code = 1 if label is Label.FALL else 0
    return np.random.default_rng([seed, _STREAM_SYNTH, code, index])


def _csv_path(root, label, source_id):
    return root / label.value.lower() / f"{source_id}.csv"


def _source_id(label, index):
    return f"{label.value.lower()}_{index:04d}"


def _labelled_windows(n_adl, n_falls, seed):
    """The (window, label) pairs of synth_windows, one at a time."""
    for label, n, draw in ((Label.ADL, n_adl, synth_adl_window),
                           (Label.FALL, n_falls, synth_fall_window)):
        for i in range(n):
            axes = draw(_window_rng(seed, label, i))
            yield _to_window(axes, _source_id(label, i)), label


def synth_windows(n_adl, n_falls, seed=0):
    """In-memory labeled windows, identical to what generate_dataset writes."""
    return list(_labelled_windows(n_adl, n_falls, seed))


def _to_window(axes, source_id):
    mag = np.sqrt((axes ** 2).sum(axis=0))
    return TriaxialWindow(
        axes[0],
        axes[1],
        axes[2],
        peak_index=int(np.argmax(mag)),
        source_id=source_id,
    )


def _window_csv(window):
    rows = zip(window.x.tolist(), window.y.tolist(), window.z.tolist())
    return "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows)


def generate_dataset(out_dir, n_adl, n_falls, seed=0):
    """Write the windows of synth_windows as a dataset1-style tree, one CSV
    per window under adl/ or fall/, one window in memory at a time; returns
    the manifest.  FileExistsError, before anything is written, when out_dir
    holds a window CSV that this call does not write, which ingest would
    read with the new ones."""
    root = Path(out_dir)
    written = {_csv_path(root, label, _source_id(label, i))
               for label, n in ((Label.ADL, n_adl), (Label.FALL, n_falls)) for i in range(n)}
    for path in dataset_files("dataset1", root)[1:]:
        if path not in written:
            raise FileExistsError(
                f"{path} is not one of the {n_adl} ADL + {n_falls} FALL windows this call "
                "writes, but would be read with them; remove it or write to an empty directory")
    (root / "adl").mkdir(parents=True, exist_ok=True)
    (root / "fall").mkdir(parents=True, exist_ok=True)
    for window, label in _labelled_windows(n_adl, n_falls, seed):
        _atomic_write_text(_csv_path(root, label, window.source_id), _window_csv(window))
    manifest = {
        "mode": "windowed",
        "synthetic": True,
        "seed": seed,
        "counts": {"ADL": n_adl, "FALL": n_falls},
    }
    _write_json(root / "manifest.json", manifest)
    return manifest
