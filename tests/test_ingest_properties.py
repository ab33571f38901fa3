"""Property tests of the dataset CSV reader, the sub-window cut and the
stratified fold plan, drawn by hypothesis.

Kept apart from test_ingest.py so that the rest of the ingest tests still
run where hypothesis is not installed.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from falldetect import evaluation, ingest
from falldetect.errors import InsufficientData


def float_oracle(text, skip_header):
    """Every data line of text, one float() per value: the reader's contract."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.strip() and not (skip_header and lineno == 1):
            rows.append([float(v) for v in line.replace(",", " ").split()])
    return rows


def read(text, cols, skip_header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text(text, encoding="utf-8")
        return ingest._read_rows(path, cols, skip_header=skip_header)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written_matrices(draw):
    """A finite matrix, its text (values written with repr) and whether the
    first line is a header."""
    n = draw(st.integers(1, 20))
    cols = draw(st.sampled_from([3, 4, 128]))
    data = draw(arrays(np.float64, (n, cols), elements=finite))
    sep = draw(st.sampled_from([",", ", ", " ", "\t"]))
    header = draw(st.booleans())
    lines = [sep.join(repr(float(v)) for v in row) for row in data]
    if header:
        lines.insert(0, "t,x,y,z")
    return data, "\n".join(lines) + draw(st.sampled_from(["", "\n"])), header


@settings(max_examples=200, deadline=None)
@given(case=written_matrices())
def test_repr_written_matrix_reads_back_bit_for_bit(case):
    data, text, header = case
    got = read(text, data.shape[1], header)
    assert same_bits(got, data)
    assert same_bits(got, np.array(float_oracle(text, header), dtype=np.float64))


# Decimal tokens with long mantissas, where a reader that rounds differently
# from float() would show in the last bit.
digits = st.text("0123456789", min_size=1, max_size=20)
decimal_tokens = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
    st.sampled_from(["", "+", "-"]),
    digits,
    st.sampled_from([""]) | digits.map(".{}".format),
    st.sampled_from([""]) | st.integers(-99, 99).map("e{}".format),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(decimal_tokens, decimal_tokens, decimal_tokens), min_size=1, max_size=20))
def test_decimal_tokens_read_like_float(rows):
    text = "\n".join(",".join(row) for row in rows) + "\n"
    expected = np.array(float_oracle(text, False), dtype=np.float64)
    assert same_bits(read(text, 3, False), expected)


@st.composite
def cuts(draw):
    """A window length n, a peak sample and a cut length L <= n."""
    n = draw(st.integers(1, 400))
    return n, draw(st.integers(0, n - 1)), draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(case=cuts())
def test_sub_window_lies_inside_its_parent_around_the_peak(case):
    n, peak, length = case
    x = np.arange(n, dtype=np.float64)  # each sample's x is its index
    z = np.zeros(n)
    z[peak] = 10.0 * n  # the one magnitude maximum
    routes = [ingest.window_at_length(ingest.TriaxialWindow(x, -x, z, peak_index=peak), length)]
    if length < n:
        # a window without a peak is cut around its magnitude maximum
        routes.append(ingest.window_at_length(ingest.TriaxialWindow(x, -x, z), length))
    for cut in routes:
        start = int(cut.x[0])
        assert len(cut) == length
        assert 0 <= start and start + length <= n
        assert np.array_equal(cut.x, x[start:start + length])
        assert np.array_equal(cut.y, -x[start:start + length])
        assert np.array_equal(cut.z, z[start:start + length])
        assert start + cut.peak_index == peak
        # centred, unless that would cross an edge of the parent
        assert cut.peak_index == length // 2 or start in (0, n - length)


fold_cases = st.tuples(
    st.lists(st.booleans(), min_size=1, max_size=80),  # True marks a FALL
    st.integers(2, 12),  # folds
    st.integers(0, 2 ** 63 - 1),  # seed
)


@settings(max_examples=200, deadline=None)
@given(case=fold_cases)
def test_fold_plan_is_stratified_and_pure(case):
    falls, folds, seed = case
    is_fall = np.array(falls)
    labels = ["FALL" if f else "ADL" for f in falls]
    plan = ingest.plan_folds(labels, num_folds=folds, seed=seed)
    tests = [plan.test_indices(g) for g in range(folds)]
    # every index lies in exactly one test fold, and trains in every other
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(len(falls)))
    for g, test in enumerate(tests):
        assert np.array_equal(np.sort(np.r_[test, plan.train_indices(g)]), np.arange(len(falls)))
    # within each class, test-fold sizes differ by at most 1
    for members in (is_fall, ~is_fall):
        sizes = [int(members[test].sum()) for test in tests]
        assert max(sizes) - min(sizes) <= 1
    # a pure function of (labels, folds, seed), whatever form the labels take
    again = ingest.plan_folds(is_fall.copy(), num_folds=folds, seed=seed)
    assert np.array_equal(again.assignments, plan.assignments)
    assert (again.num_folds, again.seed) == (folds, seed)


def both_classes(is_fall):
    return 0 < is_fall.sum() < len(is_fall)


@settings(max_examples=200, deadline=None)
@given(case=fold_cases, two_class=st.booleans())
def test_inner_splits_hold_both_classes(case, two_class):
    falls, folds, seed = case
    is_fall = np.array(falls)
    plan = ingest.plan_folds(is_fall, num_folds=folds, seed=seed)
    usable = [
        g for g in range(folds)
        if both_classes(is_fall[plan.test_indices(g)])
        and (not two_class or both_classes(is_fall[plan.train_indices(g)]))
    ]
    if not usable:
        with pytest.raises(InsufficientData):
            evaluation._inner_splits(is_fall, plan, two_class)
        return
    splits = evaluation._inner_splits(is_fall, plan, two_class)
    # the usable folds of the plan, in fold order
    assert len(splits) == len(usable)
    for (tr, val), g in zip(splits, usable):
        assert np.array_equal(val, plan.test_indices(g))
        assert np.array_equal(tr, plan.train_indices(g))
        assert both_classes(is_fall[val])
        assert both_classes(is_fall[tr]) or not two_class
