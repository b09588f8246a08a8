"""The checks catch errors planted in a copy of a real sweep CSV, and
attribute a failed row to a known fault only where it carries that
fault's signature."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import reference
from workloads import Axis, Sweep

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3
CONFIG = """\
[fixed]
gamma = 0.5
J0_over_J = -0.3
Jz_over_J = 0.3

[axis1]
name = h_over_J
start = -2
stop = 2
n_points = 9

[axis2]
name = T_over_J
values = 0.2 0.5 0.7 1.5
"""
SWEEP = Sweep("small", ("config", CONFIG), {"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
              (Axis.linear("h_over_J", -2.0, 2.0, 9), Axis("T_over_J", (0.2, 0.5, 0.7, 1.5))))


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("sweep"))
    out = os.path.join(out_dir, "small.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "diamondqc.cli"]
                   + SWEEP.cli_args(out, SEED, out_dir), env=env, check=True,
                   capture_output=True)
    with open(out, "rb") as fh:
        data = fh.read()
    grid = SWEEP.coords()
    return data, grid, reference.reference_table(grid)


def _check(data, grid, ref):
    return checks.check_csv(data, SWEEP, SEED, grid, ref)


def _first_row_line(lines):
    return lines.index(b",".join(c.encode() for c in checks.CSV_COLUMNS)) + 1


def _edit(data, row, column, value):
    lines = data.split(b"\n")
    idx = _first_row_line(lines) + row
    fields = lines[idx].split(b",")
    fields[checks.CSV_COLUMNS.index(column)] = value.encode()
    lines[idx] = b",".join(fields)
    return b"\n".join(lines)


def _field(data, row, column):
    _, columns, table = checks.read_csv(data)
    return table[row, columns.index(column)]


def test_unmodified_csv_passes(sweep_csv):
    res = _check(*sweep_csv)
    assert not res.malformed
    assert res.failed == 0
    assert res.n_rows == 36


def test_raised_qd_is_caught(sweep_csv):
    data, grid, ref = sweep_csv
    row = 17
    bad = _edit(data, row, "qd", "%.12g" % (_field(data, row, "qd") + 1e-6))
    res = _check(bad, grid, ref)
    assert list(res.labels) == [row]
    assert res.checks == {"qd-high": 1}


def test_swapped_rows_are_caught(sweep_csv):
    data, grid, ref = sweep_csv
    lines = data.split(b"\n")
    first = _first_row_line(lines) + 5
    lines[first], lines[first + 4] = lines[first + 4], lines[first]
    res = _check(b"\n".join(lines), grid, ref)
    assert sorted(res.labels) == [5, 9]
    assert res.checks["order"] == 2


def test_concurrence_above_one_is_caught(sweep_csv):
    data, grid, ref = sweep_csv
    res = _check(_edit(data, 20, "concurrence", "1.01"), grid, ref)
    assert list(res.labels) == [20]
    assert res.checks == {"range": 1, "concurrence": 1}


@pytest.mark.parametrize("cut", [1, 40, 200])
def test_truncated_file_fails_every_row(sweep_csv, cut):
    data, grid, ref = sweep_csv
    res = _check(data[:-cut], grid, ref)
    assert res.malformed
    assert res.failed == res.n_rows == 36


def test_header_row_count_mismatch_fails_every_row(sweep_csv):
    data, grid, ref = sweep_csv
    bad = data.replace(b"# n_rows = 36\n", b"# n_rows = 35\n")
    assert bad != data
    res = _check(bad, grid, ref)
    assert res.malformed
    assert res.failed == 36


def _program_rows(grid):
    """Columns as a correct program would write them for grid: the
    reference's values, with tdd at its upper bound."""
    ref = reference.reference_table(grid)
    cols = {c: np.zeros(grid.shape[0]) for c in checks.CSV_COLUMNS}
    for j, name in enumerate(checks.CSV_COLUMNS[:5]):
        cols[name] = grid[:, j].copy()
    for key in ("qd", "concurrence", "mutual_info", "entropy_ab"):
        cols[key] = ref[key].copy()
    cols["tdd"] = ref["tdd_upper"].copy()
    cols["psd_flag"] = np.ones(grid.shape[0])
    return cols, ref


def _labels(cols, grid, ref):
    return list(checks.attribute(checks.row_masks(cols, grid, ref), cols, grid, ref))


# The three faults' documented points: F1 at an interior measurement
# optimum, F2 at h = 0 and T/J = 0.002, F3 at h = 0 near the tdd closed
# form's degenerate denominator.
FAULT_POINTS = np.array([[-0.66, 0.2279, 0.27, 0.95, 0.0],
                         [-2.0, 0.002, 0.0, 0.0, 0.0],
                         [-0.1, 0.0152, 0.0, 0.0, 0.0]])


def test_known_faults_are_attributed():
    # The values the program writes at those points.
    cols, ref = _program_rows(FAULT_POINTS)
    cols["qd"][0] = 0.236689434181
    cols["mutual_info"][1] = cols["entropy_ab"][1] = 0.0
    cols["tdd"][2] = 1.0
    assert _labels(cols, FAULT_POINTS, ref) == ["F1", "F2", "F3"]


def test_errors_at_the_fault_points_without_their_signature_are_other():
    cols, ref = _program_rows(FAULT_POINTS)
    cols["qd"][0] = ref["qd_branch"][0] + 1e-6        # above the branch minimum
    cols["mutual_info"][1] = 0.5                      # neither 0 nor 1 bit
    cols["tdd"][2] = ref["tdd_upper"][2] + 1e-6       # more than rounding
    assert _labels(cols, FAULT_POINTS, ref) == ["other"] * 3


def test_qd_overstated_on_fig5_is_not_f1():
    # fig5 rows (gamma scan at h = 0.5): the optimum is on a branch, so a
    # raised qd differs from the branch minimum.
    grid = np.array([[-0.3, t, 0.5, g, 0.3] for g in (-8.0, -1.0, 0.4, 6.0)
                     for t in (0.02, 0.7, 2.0)])
    cols, ref = _program_rows(grid)
    assert _labels(cols, grid, ref) == [""] * len(grid)
    cols["qd"] = cols["qd"] + 1e-6
    assert _labels(cols, grid, ref) == ["other"] * len(grid)


def test_doubled_tdd_on_fig3a_is_other(sweep_csv):
    # Even on a sweep that admits every fault: rows 16-19 are at h = 0,
    # where F3 may be attributed, and rows 0-3 at h = -2.
    data, grid, ref = sweep_csv
    sweep = dataclasses.replace(SWEEP, faults=checks.FAULTS)
    for row in (0, 17):
        bad = _edit(data, row, "tdd", "%.12g" % (2.0 * _field(data, row, "tdd")))
        res = checks.check_csv(bad, sweep, SEED, grid, ref)
        assert res.labels == {row: "other"}
        assert res.checks == {"tdd-above-upper": 1}


def test_faults_count_only_on_sweeps_that_list_them():
    # The F2 point as a one-row sweep, with the program's F2 row.
    grid = FAULT_POINTS[1:2]
    cols, ref = _program_rows(grid)
    cols["mutual_info"][0] = cols["entropy_ab"][0] = 0.0
    data = (b"# format = diamondqc-sweep-v1\n# n_rows = 1\n# seed = 0\n"
            + ",".join(checks.CSV_COLUMNS).encode() + b"\n"
            + b",".join(b"%.12g" % cols[c][0] for c in checks.CSV_COLUMNS) + b"\n")
    axes = (Axis("J0_over_J", (-2.0,)), Axis("T_over_J", (0.002,)))
    fixed = {"h_over_J": 0.0, "gamma": 0.0, "Jz_over_J": 0.0}
    for faults, label in ((("F2",), "F2"), (("F1", "F3"), "other")):
        sweep = Sweep("pt", ("config", ""), fixed, axes, faults=faults)
        res = checks.check_csv(data, sweep, 0, sweep.coords(), ref)
        assert res.labels == {0: label}
