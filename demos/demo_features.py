"""Compare the four window representations on one quiet window and one
impact window, and check the energy identity that makes the FFT route safe.
"""

import numpy as np

from falldetect.features import FeatureKind, LtpParams, extract
from falldetect.ingest import TriaxialWindow
from falldetect.synth import synth_windows

pairs = synth_windows(n_adl=1, n_falls=1, seed=3)
(quiet, _), (impact, _) = pairs

for name, w in (("quiet", quiet), ("impact", impact)):
    print(f"-- {name} window, {len(w)} samples, "
          f"max magnitude {w.magnitude().max():.2f} g")
    for kind in FeatureKind:
        v = extract(w, kind, LtpParams(step=0.5))
        print(f"   {kind.value:15s} dim {len(v):4d} "
              f"range [{v.min():8.3f}, {v.max():8.3f}]")

# The twelve summary features: per-axis mean, deviation, energy, then the
# three pairwise correlations.
v = extract(impact, FeatureKind.ACCEL_FEATURES)
print("\nimpact summary vector:")
print("  means ", np.round(v[0:3], 3))
print("  stds  ", np.round(v[3:6], 3))
print("  energy", np.round(v[6:9], 3))
print("  corr  ", np.round(v[9:12], 3))

# Spectral energy equals the time-domain norm (Parseval), so either route
# gives the same feature.  Demonstrate on the impact window's x axis.
a = impact.x
spectral = v[6]
direct = float(np.sqrt((a * a).sum()))
print(f"\nenergy via spectrum {spectral:.9f} vs direct norm {direct:.9f}")

# Local temporal patterns count how far each sample rises above its
# neighbours in fixed magnitude steps; a flat window stays at zero.
flat = TriaxialWindow(np.zeros(51), np.zeros(51), np.full(51, 1.0))
print(f"\nflat window pattern counts sum: {extract(flat, FeatureKind.LTP).sum():g}")
spiky = extract(impact, FeatureKind.LTP, LtpParams(step=0.5))
print(f"impact window pattern counts sum: {spiky.sum():g}, top count {spiky.max():g}")
