"""Walk through the ingest layer: generate a dataset on disk, read it back,
and assemble a stratified collection ready for cross-validation.
"""

import argparse
import tempfile

import numpy as np

from falldetect import ingest, synth


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="dataset directory (default: temp)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = args.out or tempfile.mkdtemp(prefix="falldetect_demo_")
    manifest = synth.generate_dataset(out, n_adl=40, n_falls=15, seed=args.seed)
    print(f"wrote {manifest['counts']} to {out}")

    # Read the directory back exactly as the CLI would.
    pairs = ingest.parse_dataset1(out)
    print(f"parsed {len(pairs)} windows")

    w, label = pairs[0]
    print(f"first window: {label.value}, {len(w)} samples at {ingest.SAMPLE_RATE:g} Hz, "
          f"peak magnitude {w.magnitude().max():.3f} g")

    # Peak-triggered windowing also works on continuous traces.  Build one
    # by stitching a quiet stretch around a synthetic impact.
    t = np.arange(1500) / 50.0
    x = np.full_like(t, 0.05)
    y = np.full_like(t, 0.98)
    z = np.full_like(t, 0.1)
    y[700] = 2.7  # single hard spike
    trace = ingest.RawTrace(t, x, y, z)
    peaks = ingest.detect_peaks(trace)
    print(f"trace of {trace.duration():.0f} s: impact indices {peaks}")

    start = max(0, peaks[0] - 150)
    seg = slice(start, start + 300)
    full = ingest.TriaxialWindow(
        trace.x[seg], trace.y[seg], trace.z[seg], peak_index=peaks[0] - start
    )
    window = ingest.window_at_length(full, 51)
    print(f"cut to {len(window)} samples, peak re-based to index {window.peak_index}")

    # Collections pair the windows with a reproducible 10-fold plan.
    col = ingest.build_collection("C1", pairs, seed=args.seed)
    print(f"collection C1: {col.counts()}")
    sizes = [int((col.fold_plan.assignments == f).sum()) for f in range(10)]
    print(f"fold sizes: {sizes}")


if __name__ == "__main__":
    main()
