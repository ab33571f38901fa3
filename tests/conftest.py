"""Shared fixtures and oracles, plus a summary section for the acceptance
checks.

Tests in test_acceptance.py are named test_criterion_NN_*; their outcomes
are collected and echoed as one PASS/FAIL/SKIP line each at the end of the
run so the gate can be read off without scrolling through the full log.
"""

import re

import numpy as np
import pytest

from falldetect import ingest, synth

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


def distances_to_all(train, query):
    """Euclidean distance from query to every row of train, one row at a
    time: the reference every kNN distance is checked against bit for bit."""
    return np.sqrt(((train - query) ** 2).sum(axis=1))


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_collection():
    """60 ADL + 20 FALL synthetic windows folded as a single collection."""
    pairs = synth.synth_windows(60, 20, seed=21)
    return ingest.build_collection("C1", pairs, seed=33)
