"""Property tests of the inner-search AUCs, drawn by hypothesis.

Kept apart from test_evaluation.py so that the rest of the evaluation
tests still run where hypothesis is not installed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from falldetect import evaluation as ev


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
    """A score table with a column per candidate, on a coarse grid (with
    both signed zeros) so that ties are common, and labels with both
    classes."""
    n = draw(st.integers(2, 60))
    cols = draw(st.integers(1, 16))
    values = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 1.5, 7.0])
    table = draw(arrays(np.float64, (n, cols), elements=values))
    pos = draw(arrays(np.bool_, n))
    fall = draw(st.integers(0, n - 1))
    pos[fall] = True
    pos[(fall + draw(st.integers(1, n - 1))) % n] = False
    return table, pos


@settings(max_examples=300, deadline=None)
@given(case=scored_tables())
def test_every_column_auc_equals_its_swept_curve_exactly(case):
    table, pos = case
    aucs = ev._column_aucs(table, pos)
    assert aucs.shape == (table.shape[1],)
    for c in range(table.shape[1]):
        col = table[:, c]
        assert aucs[c] == ev.auc(ev.roc_curve(col, pos))
        assert aucs[c] == one_column_auc(col, pos)
        assert abs(aucs[c] - ev.pairwise_auc(col, pos)) <= 1e-12
