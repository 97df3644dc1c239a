"""Report checks and rendering: the status a check derives from its numbers,
the float-array CSV rows against the csv module's, and the row ranges of a
2-D float array (such as the market's ``[p | values]`` grid) that spawned
standard-library children format."""

import contextlib
import csv
import io
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import report
from qgame.cli import main
from qgame.report import CheckRecord, Report, Table, _format, csv_float_line, write_float_rows

GAUSSIAN = Path(__file__).resolve().parents[1] / "docs" / "examples" / "gaussian.json"

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

    assert rendered(np.array(rows, dtype=float)) == rendered(rows)


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _float_rows(count):
    rng = np.random.default_rng(count)
    values = rng.normal(size=(count, 5)) * 10.0 ** rng.integers(-30, 30, size=(count, 5))
    values[0, :3] = [math.nan, -math.inf, -0.0]
    return values


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 64])
def test_row_ranges_join_to_the_serial_lines(monkeypatch, tmp_path, cpus, count):
    _use_cpus(monkeypatch, cpus)
    rows = _float_rows(count)
    serial = "".join(map(csv_float_line, rows))
    memory = io.StringIO()
    write_float_rows(memory, rows)
    assert memory.getvalue() == serial
    path = tmp_path / "rows.csv"
    with open(path, "w") as out:
        out.write("# header\n")
        write_float_rows(out, rows)
    assert path.read_text() == "# header\n" + serial
    _assert_no_child_left()


def test_closed_pipe_is_an_os_error_and_leaves_no_child(monkeypatch):
    _use_cpus(monkeypatch, 3)
    # The first range alone (~320 KB) is more than the pipe and the stream's
    # buffer hold, so its writes meet the closed reader.
    rows = np.array([np.full(8192, 0.1 * i) for i in range(6)])
    read_end, write_end = os.pipe()

    def take_one_byte_and_leave():
        os.read(read_end, 1)
        os.close(read_end)

    reader = threading.Thread(target=take_one_byte_and_leave)
    reader.start()
    out = open(write_end, "w")
    try:
        with pytest.raises(BrokenPipeError):
            write_float_rows(out, rows)
    finally:
        with contextlib.suppress(BrokenPipeError):
            out.close()
        reader.join(timeout=10)
    assert not reader.is_alive()
    _assert_no_child_left()


def _fail_on_value(monkeypatch, value):
    """Make a child raise when it formats ``value``: its program's ``repr``
    is shadowed by one that refuses it.  The parent's first range is
    formatted by ``csv_float_line`` and never fails."""
    refuse = (f"def repr(x, real=repr):\n"
              f"    if x == {value!r}:\n"
              f"        raise ValueError('cannot format this row')\n"
              f"    return real(x)\n")
    monkeypatch.setattr(report, "_FORMAT_ROWS", refuse + report._FORMAT_ROWS)


def test_failing_child_is_an_os_error_with_no_output(monkeypatch, capfd):
    _use_cpus(monkeypatch, 3)
    rows = _float_rows(7)
    # Only the last range's child sees the last row's final value.
    _fail_on_value(monkeypatch, float(rows[-1, -1]))
    with pytest.raises(OSError, match="1 of 3 row writers failed"):
        write_float_rows(io.StringIO(), rows)
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")


def test_failing_child_is_exit_2_without_a_traceback(monkeypatch, capfd, tmp_path):
    _use_cpus(monkeypatch, 2)
    target = tmp_path / "grid.csv"
    argv = ["market", str(GAUSSIAN), "--grid", "64", "--output", "csv", "--out", str(target)]
    assert main(argv) == 0
    _assert_no_child_left()
    last_p = float(target.read_text().splitlines()[-1].split(",")[0])
    _fail_on_value(monkeypatch, last_p)
    capfd.readouterr()
    assert main(argv) == 2
    _assert_no_child_left()
    out, err = capfd.readouterr()
    assert f"qgame market: cannot write report to {target}: " in err
    assert "Traceback" not in err and "ValueError" not in err
    assert out == ""


def test_row_ranges_need_no_fork(monkeypatch):
    _use_cpus(monkeypatch, 3)

    def no_fork():
        raise OSError("os.fork is not used")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = _float_rows(7)
    out = io.StringIO()
    write_float_rows(out, rows)
    assert out.getvalue() == "".join(map(csv_float_line, rows))
    _assert_no_child_left()
