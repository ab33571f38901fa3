"""Property tests of the inner-search AUCs and the report's records, drawn
by hypothesis.

Kept apart from test_evaluation.py so that the rest of the evaluation
tests still run where hypothesis is not installed.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from falldetect import evaluation as ev
from falldetect.errors import DegenerateLabels
from falldetect.features import LtpParams


def one_column_auc(scores, pos):
    """The area of one column's curve, swept on its own: a stable sort,
    the last index of every tie group, and the trapezoid rule."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], pos[order]
    ends = np.flatnonzero(np.r_[np.diff(s) != 0, True])
    f = np.r_[0.0, np.cumsum(~y)[ends] / (~pos).sum()]
    t = np.r_[0.0, np.cumsum(y)[ends] / pos.sum()]
    return float(np.sum(np.diff(f) * (t[1:] + t[:-1]) / 2.0))


@st.composite
def scored_tables(draw):
    """A score table with a column per candidate and labels with both
    classes.  Either up to 60 rows on a coarse grid (with both signed
    zeros), so that ties are common, or 129 to 400 rows of scores with few
    ties, so that columns keep more than 128 points and numpy sums their
    trapezoid terms by its recursive pairwise branch."""
    cols = draw(st.integers(1, 16))
    if draw(st.booleans()):
        n = draw(st.integers(2, 60))
        values = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 1.5, 7.0])
        table = draw(arrays(np.float64, (n, cols), elements=values))
    else:
        n = draw(st.integers(129, 400))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        # each column on its own integer grid, some coarse enough for ties
        table = np.round(rng.normal(size=(n, cols)) * 10.0 ** rng.integers(1, 9, cols))
    pos = draw(arrays(np.bool_, n))
    fall = draw(st.integers(0, n - 1))
    pos[fall] = True
    pos[(fall + draw(st.integers(1, n - 1))) % n] = False
    return table, pos


@settings(max_examples=300, deadline=None)
@given(case=scored_tables())
def test_every_column_auc_equals_its_swept_curve_exactly(case):
    table, pos = case
    aucs, = ev._column_aucs(table, pos)
    assert aucs.shape == (table.shape[1],)
    for c in range(table.shape[1]):
        col = table[:, c]
        assert aucs[c] == ev.auc(ev.roc_curve(col, pos))
        assert aucs[c] == one_column_auc(col, pos)
        assert abs(aucs[c] - ev.pairwise_auc(col, pos)) <= 1e-12


@st.composite
def segmented_tables(draw):
    """A score table of 1 to 12 segments of unequal sizes, each with both
    classes, a column per candidate: either every value on a coarse grid
    with both signed zeros, so that ties are heavy, or each column on its
    own integer grid, where a segment of 129 rows or more can keep more
    than 128 points."""
    sizes = draw(st.lists(st.integers(2, 40) | st.integers(129, 150), min_size=1, max_size=12))
    n, cols = sum(sizes), draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 1.5, 7.0])
        table = draw(arrays(np.float64, (n, cols), elements=values))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        table = np.round(rng.normal(size=(n, cols)) * 10.0 ** rng.integers(0, 9, cols))
    pos = draw(arrays(np.bool_, n))
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        fall = draw(st.integers(0, size - 1))
        pos[start + fall] = True
        pos[start + (fall + draw(st.integers(1, size - 1))) % size] = False
    return table, pos, sizes


def segments(sizes):
    ends = np.cumsum(sizes)
    return [slice(a, b) for a, b in zip(ends - sizes, ends)]


@settings(max_examples=200, deadline=None)
@given(case=segmented_tables())
def test_every_segment_and_column_auc_equals_its_swept_curve_exactly(case):
    table, pos, sizes = case
    aucs = ev._column_aucs(table, pos, sizes)
    assert aucs.shape == (len(sizes), table.shape[1])
    for i, rows in enumerate(segments(sizes)):
        want = [ev.auc(ev.roc_curve(table[rows, c], pos[rows])) for c in range(table.shape[1])]
        assert np.array_equal(aucs[i].view(np.int64), np.array(want).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(case=segmented_tables(), data=st.data())
def test_a_one_class_segment_and_a_non_finite_table_are_refused(case, data):
    table, pos, sizes = case
    rows = data.draw(st.sampled_from(segments(sizes)))
    one_class = pos.copy()
    one_class[rows] = data.draw(st.booleans())
    with pytest.raises(DegenerateLabels, match="need both classes"):
        ev._column_aucs(table, one_class, sizes)
    spoiled = table.copy()
    at = data.draw(st.integers(0, len(table) - 1)), data.draw(st.integers(0, table.shape[1] - 1))
    spoiled[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="finite"):
        ev._column_aucs(spoiled, pos, sizes)


unit = st.floats(0.0, 1.0)


@st.composite
def reports(draw):
    """An EvalReport with the field types run writes: any rates in [0, 1]
    with gm = sqrt(se * sp), a valid curve, and large seeds."""
    n = draw(st.integers(2, 30))
    fpr = np.r_[0.0, np.sort(draw(arrays(np.float64, n - 2, elements=unit))), 1.0]
    tpr = np.sort(draw(arrays(np.float64, n, elements=unit)))
    thresholds = draw(arrays(np.float64, n, elements=st.floats(allow_nan=False)))
    se, sp = draw(unit), draw(unit)
    folds = draw(st.integers(1, 10))
    cfg = draw(st.sampled_from([
        ev.GridConfig(), ev.GridConfig(k_grid=(3,), ltp_params=LtpParams(4, 0.5)),
    ]))
    return ev.EvalReport(
        collection_id=draw(st.sampled_from(["C1", "C2", "C3"])),
        feature_kind=draw(st.sampled_from(["RAW", "MAGNITUDE", "ACCEL_FEATURES", "LTP"])),
        window_len=draw(st.sampled_from([51, 128])),
        variant=draw(st.sampled_from(["OC_KNN", "TC_KNN", "OC_SVM", "TC_SVM"])),
        fold_aucs=draw(st.lists(unit, min_size=folds, max_size=folds)),
        fold_params=[{"k": draw(st.integers(1, 10)), "inner_mean_auc": draw(st.none() | unit)}
                     for _ in range(folds)],
        fold_test_indices=draw(st.lists(st.lists(st.integers(0, 10 ** 4)), min_size=folds,
                                        max_size=folds)),
        mean_auc=draw(unit),
        se=se,
        sp=sp,
        gm=float(np.sqrt(se * sp)),
        threshold=draw(st.floats(allow_nan=False)),
        averaged_curve=ev.RocCurve(fpr, tpr, thresholds),
        counts={"ADL": draw(st.integers(0, 10 ** 4)), "FALL": draw(st.integers(0, 10 ** 4))},
        seed=draw(st.integers(0, 2 ** 64)),
        config=cfg.to_dict(),
    )


def record(report):
    """The report as the text save_report_json writes."""
    return json.dumps(ev.report_to_dict(report), indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(report=reports())
def test_report_survives_its_json_record(report):
    back = ev.report_from_dict(json.loads(record(report)))
    # equal text: every value, its type and every float's bits
    assert record(back) == record(report)
    # the curve's one record is its ROC CSV
    assert back.averaged_curve is None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roc.csv"
        ev.write_roc_csv(report.averaged_curve, path)
        header, *rows = path.read_text().splitlines()
    assert header == "fpr,tpr,threshold"
    columns = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    for name, column in zip(("fpr", "tpr", "thresholds"), columns):
        want = getattr(report.averaged_curve, name)
        assert np.array_equal(column.view(np.int64), want.view(np.int64))
