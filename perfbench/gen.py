"""Seeded input generator owned by the benchmark.

It writes the three input layouts the falldetect CLI reads: a windowed
dataset1, a raw-mode dataset1 and a dataset2 tree.  It never imports
falldetect (least of all `falldetect.synth`), so changes to the package's
own synthetic data cannot move the benchmark's inputs.  Every draw comes
from a numpy Generator seeded with (seed, stream, ...), and every float is
written with `repr`, so the same seed writes the same bytes.

The classes overlap on purpose, so AUCs stay well below 1 and a change in
ranking or model selection shows up:

* some ADL windows carry an impact above the 1.5 g trigger (sitting down
  hard, a jump, a phone drop; the drop even ends lying still);
* some falls have no lying phase: the wearer recovers and moves on;
* device orientation and sensor gain vary per window (per recording in raw
  mode), so no single axis or amplitude separates the classes.

Raw mode adds what only `parse_dataset1` in raw mode exercises: irregular
timestamps between 80 and 120 Hz (resampling) and several impact events
per recording (peak detection with the refractory gap).  The dataset2 tree
mixes label tokens and spellings, includes FALL rows that must be skipped,
and writes one axis space-separated, so the tolerant row parser is used.
"""

import json
from pathlib import Path

import numpy as np

RATE = 50.0
FULL_WINDOW = 300
D2_LEN = 128

_STREAM_WINDOWED = 11
_STREAM_RAW = 12
_STREAM_D2 = 13
_ADL, _FALL = 0, 1

# dataset2 activity tokens, in several spellings, and the fall tokens the
# parser must skip whatever their case.
_D2_ADL_TOKENS = ("WALKING", "walking", "SITTING", "Standing", "LAYING", "upstairs", "DOWNSTAIRS")
_D2_FALL_TOKENS = ("FALL", "fall", "Fall")


def _unit(v):
    return v / np.linalg.norm(v)


def _rotation(rng):
    """A uniformly random 3-d rotation (device orientation)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _tilt(rng, g, max_deg):
    """Gravity direction g turned by a random angle of 20 to max_deg degrees."""
    axis = _unit(np.cross(g, rng.standard_normal(3)))
    ang = np.deg2rad(rng.uniform(20.0, max_deg))
    return _unit(g * np.cos(ang) + np.cross(axis, g) * np.sin(ang))


def _activity(rng, t):
    """Daily-activity motion: a few sinusoids per axis plus sensor noise."""
    out = np.zeros((3, len(t)))
    for i in range(3):
        for _ in range(2):
            amp = rng.uniform(0.03, 0.3)
            freq = rng.uniform(0.4, 3.0)
            out[i] += amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    return out + 0.02 * rng.standard_normal((3, len(t)))


def _pulse(t, t0, width):
    return np.exp(-0.5 * ((t - t0) / width) ** 2)


def _event(rng, kind, t, t0, g_before):
    """One impact event at time t0 (seconds) of the given kind: 'sit',
    'jump', 'drop', 'fall_lying' or 'fall_recover'.  Returns the additive
    dip-and-spike signal, whether the device lies still afterwards, and the
    gravity direction after the event."""
    add = np.zeros((3, len(t)))
    peak = {
        "sit": rng.uniform(1.6, 2.4),
        "jump": rng.uniform(1.8, 2.8),
        "drop": rng.uniform(2.0, 3.4),
        "fall_lying": rng.uniform(1.7, 3.2),
        "fall_recover": rng.uniform(1.7, 3.0),
    }[kind]
    # free-fall dip before the impact: gravity cancels towards zero
    dip_depth = {"sit": 0.2, "jump": 0.6, "drop": 0.95}.get(kind, rng.uniform(0.5, 0.95))
    dip_len = rng.uniform(0.12, 0.45)
    dip = _pulse(t, t0 - dip_len, dip_len / 2)
    add -= dip_depth * dip * g_before[:, None]
    direction = _unit(rng.standard_normal(3) + 1.5 * g_before)
    add += peak * _pulse(t, t0, rng.uniform(0.02, 0.05)) * direction[:, None]
    lying = kind in ("drop", "fall_lying")
    g_after = _tilt(rng, g_before, 85.0) if kind in ("drop", "fall_lying", "fall_recover") else g_before
    return add, lying, g_after


def _compose(rng, t, events, gain):
    """Signal over times t: gravity, activity, and a list of (t0, kind)."""
    g = _unit(_rotation(rng)[:, 2])
    sig = np.zeros((3, len(t)))
    activity = _activity(rng, t)
    active = np.ones(len(t))
    grav = np.repeat(g[:, None], len(t), axis=1)
    for t0, kind in events:
        add, lying, g_after = _event(rng, kind, t, t0, g)
        sig += add
        after = t > t0 + 0.15
        grav[:, after] = g_after[:, None]
        if lying:
            # still: motion fades to sensor noise for the rest of the span
            active[after] = 0.03
        else:
            # back on one's feet: motion resumes at a changed intensity
            active[after] = rng.uniform(0.7, 1.3)
        g = g_after
    sig += grav + activity * active
    return gain * sig


_ADL_WINDOW_KINDS = (("plain", 0.6), ("sit", 0.16), ("jump", 0.14), ("drop", 0.10))
_FALL_WINDOW_KINDS = (("fall_lying", 0.65), ("fall_recover", 0.35))


def _kinds(seed, stream, label, n, table):
    """Exactly proportional event kinds in seeded order.  Drawing each kind
    independently would let the mix (and with it the solver's work) drift
    from seed to seed; fixing the counts keeps seeds comparable."""
    counts = [int(round(w * n)) for _, w in table]
    counts[0] += n - sum(counts)
    kinds = [k for (k, _), c in zip(table, counts) for _ in range(c)]
    return np.random.default_rng([seed, stream, label]).permutation(kinds).tolist()


def _window_axes(seed, label, index, kind):
    rng = np.random.default_rng([seed, _STREAM_WINDOWED, label, index])
    t = np.arange(FULL_WINDOW) / RATE
    events = [] if kind == "plain" else [(rng.uniform(2.2, 3.8), kind)]
    return _compose(rng, t, events, gain=rng.uniform(0.85, 1.15))


def _rows_csv(columns):
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_windowed_dataset1(root, seed, n_adl, n_fall):
    """Headerless 300-row x,y,z windows at 50 Hz under adl/ and fall/."""
    root = Path(root)
    for label, sub, n, table in ((_ADL, "adl", n_adl, _ADL_WINDOW_KINDS),
                                 (_FALL, "fall", n_fall, _FALL_WINDOW_KINDS)):
        for i, kind in enumerate(_kinds(seed, _STREAM_WINDOWED, label, n, table)):
            axes = _window_axes(seed, label, i, kind)
            _write(root / sub / f"{sub}_{i:04d}.csv", _rows_csv(axes.tolist()))
    _write(root / "manifest.json", json.dumps({"mode": "windowed", "seed": seed}) + "\n")


def _raw_events(rng, duration, n_events, kinds):
    """n_events event times at least 8 s apart, past the 6 s refractory gap."""
    slots = int((duration - 8.0) // 8.0)
    picked = np.sort(rng.choice(slots, size=min(n_events, slots), replace=False))
    return [(4.0 + 8.0 * s + rng.uniform(0.0, 2.0), k) for s, k in zip(picked, kinds)]


def write_raw_dataset1(root, seed, n_adl, n_fall, adl_seconds=90.0, fall_seconds=60.0):
    """t,x,y,z recordings at an irregular 80-120 Hz, several events each.

    ADL recordings hold 3-6 impact-like events, fall recordings 1-3 events,
    the last one a fall.  Event counts cycle with the recording index and
    base rates are stratified over 80-120 Hz, so the number of windows and
    the bytes to parse do not drift from seed to seed; kinds, times, shapes
    and orientations are seeded.
    """
    root = Path(root)
    plan = ((_ADL, "adl", n_adl, adl_seconds, 3), (_FALL, "fall", n_fall, fall_seconds, 1))
    for label, sub, n, dur, min_events in plan:
        counts = [min_events + i % (3 if label == _FALL else 4) for i in range(n)]
        if label == _ADL:
            kinds = iter(_kinds(seed, _STREAM_RAW, label, sum(counts), _ADL_WINDOW_KINDS[1:]))
        else:
            last = iter(_kinds(seed, _STREAM_RAW, label, n, _FALL_WINDOW_KINDS))
        for i in range(n):
            rng = np.random.default_rng([seed, _STREAM_RAW, label, i])
            if label == _ADL:
                rec_kinds = [next(kinds) for _ in range(counts[i])]
            else:
                rec_kinds = ["fall_recover"] * (counts[i] - 1) + [next(last)]
            rate = 80.0 + 40.0 * (i + rng.random()) / n
            steps = (1.0 + rng.uniform(-0.3, 0.3, int(dur * rate))) / rate
            t = np.round(np.cumsum(steps), 5)
            events = _raw_events(rng, dur, counts[i], rec_kinds)
            axes = _compose(rng, t, events, gain=rng.uniform(0.85, 1.15))
            body = _rows_csv([t.tolist(), *axes.tolist()])
            _write(root / sub / f"{sub}_rec{i:03d}.csv", "t,x,y,z\n" + body)
    _write(root / "manifest.json", json.dumps({"mode": "raw", "seed": seed}) + "\n")


def write_dataset2(root, seed, n_rows, fall_share=0.1):
    """x/y/z rows of 128 gravity-free samples plus one label token per row.

    Exactly round(fall_share * n_rows) rows are falls, at seeded positions.
    """
    root = Path(root)
    n_fall = int(round(fall_share * n_rows))
    adl_kinds = iter(_kinds(seed, _STREAM_D2, _ADL, n_rows - n_fall, _ADL_WINDOW_KINDS))
    fall_kinds = iter(_kinds(seed, _STREAM_D2, _FALL, n_fall, _FALL_WINDOW_KINDS))
    is_fall = np.zeros(n_rows, dtype=bool)
    is_fall[np.random.default_rng([seed, _STREAM_D2]).permutation(n_rows)[:n_fall]] = True
    t = np.arange(D2_LEN) / RATE
    rows, labels = [], []
    for i in range(n_rows):
        rng = np.random.default_rng([seed, _STREAM_D2, 2, i])
        kind = next(fall_kinds if is_fall[i] else adl_kinds)
        events = [] if kind == "plain" else [(rng.uniform(0.8, 1.8), kind)]
        axes = _compose(rng, t, events, gain=rng.uniform(0.85, 1.15))
        rows.append(axes - axes.mean(axis=1, keepdims=True))
        tokens = _D2_FALL_TOKENS if is_fall[i] else _D2_ADL_TOKENS
        labels.append(tokens[int(rng.integers(len(tokens)))])
    for a, axis in enumerate("xyz"):
        sep = " " if axis == "y" else ","
        _write(root / f"{axis}.csv", "".join(sep.join(map(repr, r[a].tolist())) + "\n" for r in rows))
    _write(root / "labels.csv", "\n".join(labels) + "\n")
