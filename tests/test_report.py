"""Report checks and rendering: the status a check derives from its numbers,
and the float-array CSV rows against the csv module's."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.report import CheckRecord, Report, Table, _format, csv_float_line

_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                1e-20, 1e16, 0.1]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@pytest.mark.parametrize("deviation, tolerance, status", [
    (0.0, 0.0, "pass"),
    (1e-9, 1e-8, "pass"),
    (1e-8, 1e-8, "pass"),
    (2e-8, 1e-8, "fail"),
    (math.nan, 1e-8, "fail"),
    (math.nan, math.inf, "fail"),
    (0.5, math.nan, "fail"),
    (math.inf, 1e-8, "fail"),
    (math.inf, math.inf, "pass"),
    (1e300, math.inf, "pass"),
    (1.0, None, "info"),
    (math.nan, None, "info"),
    (None, None, "info"),
])
def test_status_follows_deviation_and_tolerance(deviation, tolerance, status):
    check = CheckRecord("c", deviation, tolerance)
    assert check.status == status
    assert check.passed == (status != "fail")


def _reference_line(values) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(map(_format, values))
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=40))
def test_float_array_line_matches_the_csv_writer(values):
    row = np.array(values, dtype=float)
    assert csv_float_line(row) == _reference_line(values)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(_FLOATS, min_size=3, max_size=3), min_size=1, max_size=6))
def test_array_rows_render_like_list_rows(rows):
    def rendered(table_rows):
        out = io.StringIO()
        Report("grid", {}, [], {"t": Table(["a", "b", "c"], table_rows)}).render("csv", out)
        return out.getvalue()

    arrays = [np.array(row, dtype=float) for row in rows]
    assert rendered(arrays) == rendered(rows)
