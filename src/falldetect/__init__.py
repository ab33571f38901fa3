"""Fall detection as anomaly detection on smartphone accelerometer windows.

The package turns triaxial accelerometer recordings into fixed-length
peak-centred windows, derives several feature representations from them,
and evaluates one-class and two-class detectors (kNN and SVM) under
nested cross-validation, reporting ROC-based summary numbers.
"""

# before the submodules, which record it
__version__ = "0.1.0"

from . import classifiers, errors, evaluation, features, ingest, synth

__all__ = [
    "classifiers",
    "errors",
    "evaluation",
    "features",
    "ingest",
    "synth",
]
