"""Shared fixtures and oracles, plus a summary section for the acceptance
checks.

Tests in test_acceptance.py are named test_criterion_NN_*; their outcomes
are collected and echoed as one PASS/FAIL/SKIP line each at the end of the
run so the gate can be read off without scrolling through the full log.
"""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from falldetect import classifiers, evaluation, ingest, synth

try:
    from hypothesis import settings
except ImportError:  # the property-test modules then fail to collect on their own
    pass
else:
    # `pytest --hypothesis-profile=ci`: every run draws the same examples, so
    # a property failure in CI replays locally with the same flag.
    settings.register_profile("ci", derandomize=True, deadline=None)

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")
_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match is None:
        return
    key = (int(match.group(1)), match.group(2).replace("_", " "))
    if report.when == "call":
        _acceptance_outcomes[key] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # skipped-at-setup (env gate) or errored before the body ran
        _acceptance_outcomes[key] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for (number, label) in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[(number, label)]
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper()
        )
        terminalreporter.write_line(f"[criterion {number}] {word}: {label}")


def random_window(rng, length, scale=1.0):
    """A window of independent uniform samples; no structure implied."""
    return ingest.TriaxialWindow(
        rng.uniform(-scale, scale, length),
        rng.uniform(-scale, scale, length),
        rng.uniform(-scale, scale, length),
    )


def report_bits(report):
    """What two reports share when they are the same: report_to_dict's
    JSON text, so every value and its type, and the bits of every float of
    the averaged curve, which that record leaves out (None for none)."""
    curve = report.averaged_curve
    return json.dumps(evaluation.report_to_dict(report), sort_keys=True), (
        None if curve is None
        else [getattr(curve, f.name).view(np.int64).tolist() for f in fields(evaluation.RocCurve)])


def distances_to_all(train, query):
    """Euclidean distance from query to every row of train, one row at a
    time: the reference every kNN distance is checked against bit for bit."""
    return np.sqrt(((train - query) ** 2).sum(axis=1))


def distance_block(train, queries):
    """The query x training block of distances_to_all, one query row at a
    time."""
    block = np.empty((len(queries), len(train)))
    for qi, q in enumerate(queries):
        block[qi] = distances_to_all(train, q)
    return block


def knn_bruteforce_oracle(train, query, k):
    """Sorted k smallest Euclidean distances by exhaustive scan and full sort."""
    train = np.asarray(train, dtype=np.float64)
    return np.sort(distances_to_all(train, np.asarray(query, dtype=np.float64)))[:k]


def knn_oracle_scores(adl, fall, queries, k_max):
    """kNN scores from the oracle's means, column k-1 for k: the mean
    distance dA to the k nearest ADL rows, or with FALL rows the two-class
    dA / (dA + dF), 0.5 where both means are 0."""
    out = np.empty((len(queries), k_max))
    for qi, q in enumerate(queries):
        da = knn_bruteforce_oracle(adl, q, k_max)
        df = None if fall is None else knn_bruteforce_oracle(fall, q, k_max)
        for k in range(1, k_max + 1):
            a = da[:k].sum() / k
            if df is None:
                out[qi, k - 1] = a
            else:
                b = df[:k].sum() / k
                out[qi, k - 1] = 0.5 if a + b == 0 else a / (a + b)
    return out


def pairwise_dual_oracle(K, y, box, alpha, p, tol, max_iter):
    """classifiers._solve_pairwise_dual as it was written first, with a new
    array per iteration and min/max builtins: the reference the solver is
    checked against bit for bit."""
    G = y * (K @ (alpha * y)) + p
    s = -y * G
    up = np.where(np.where(y > 0, alpha < box, alpha > 0), 0.0, -np.inf)
    low = np.where(np.where(y > 0, alpha > 0, alpha < box), 0.0, np.inf)
    yl = y.tolist()
    bl = box.tolist()
    a = alpha.tolist()

    iterations = 0
    converged = False
    while True:
        s_up = s + up
        s_low = s + low
        i = int(s_up.argmax())
        j = int(s_low.argmin())
        lo = float(s_up[i])
        hi = float(s_low[j])
        gap = lo - hi
        if gap <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break

        ki = K[i]
        kj = K[j]
        eta = float(ki[i] + kj[j] - 2.0 * ki[j])
        if eta <= classifiers._SV_EPS:
            eta = classifiers._SV_EPS
        yi, yj = yl[i], yl[j]
        old_i, old_j = a[i], a[j]
        room_i = bl[i] - old_i if yi > 0 else old_i
        room_j = old_j if yj > 0 else bl[j] - old_j
        t = min(gap / eta, room_i, room_j)

        new_i = a[i] = min(max(old_i + yi * t, 0.0), bl[i])
        new_j = a[j] = min(max(old_j - yj * t, 0.0), bl[j])
        s -= (new_i - old_i) * yi * ki + (new_j - old_j) * yj * kj
        for k, ak in ((i, new_i), (j, new_j)):
            below_box, above_zero = ak < bl[k], ak > 0.0
            in_up, in_low = (below_box, above_zero) if yl[k] > 0 else (above_zero, below_box)
            up[k] = 0.0 if in_up else -np.inf
            low[k] = 0.0 if in_low else np.inf
        iterations += 1

    alpha = np.array(a)
    free = (alpha > 0) & (alpha < box)
    if free.any():
        bias = float(s[free].mean())
    else:
        finite = [v for v in (lo, hi) if np.isfinite(v)]
        bias = float(np.mean(finite)) if finite else 0.0
    return alpha, bias, iterations, converged, gap, lo, hi


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_collection():
    """60 ADL + 20 FALL synthetic windows folded as a single collection."""
    pairs = synth.synth_windows(60, 20, seed=21)
    return ingest.build_collection("C1", pairs, seed=33)
