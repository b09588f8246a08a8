"""Tests for sweep configuration, execution, and CSV output."""
import dataclasses
import errno
import io
import math
import mmap
import numbers
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import diamondqc
import diamondqc.oracle
from diamondqc import sweep
from diamondqc.cli import main as cli_main
from diamondqc.measures import x_state_measures
from diamondqc.model import thermal_entries_grid
from diamondqc.oracle import cq_search
from diamondqc.params import DimerDensityMatrix
from diamondqc.sweep import (_CHUNK_SIZE, _CSV_BLOCK, CSV_COLUMNS,
                             DEFAULT_PROMINENCE, MEASURE_NAMES, PARAM_NAMES,
                             PRESET_NAMES, T_AXIS_FLOOR, Axis,
                             SweepConfigError, SweepResult, SweepSpec,
                             count_peaks, emit_csv, figure_preset, grid_coords,
                             prominent_peaks, read_sweep_config, run_sweep,
                             with_oracle_check)


def full_grid(spec):
    """The (n, 5) coordinates of every row, in PARAM_NAMES order, from a
    row-major meshgrid of the axes: the reference for `grid_coords`."""
    mesh = np.meshgrid(*(ax.grid() for ax in spec.axes), indexing="ij")
    on_axes = {ax.name: m.ravel() for ax, m in zip(spec.axes, mesh)}
    return np.column_stack([on_axes[name] if name in on_axes
                            else np.full(mesh[0].size, float(spec.fixed[name]))
                            for name in PARAM_NAMES])


def cold_box_states(rows):
    """The states at the given rows of the 41x41 cold-box sweep: gamma = h =
    Jz = 0, J0/J in [-2, 2] and T/J in [0.002, 0.05]."""
    spec = SweepSpec(fixed={"gamma": 0.0, "h_over_J": 0.0, "Jz_over_J": 0.0},
                     axes=(Axis("J0_over_J", -2.0, 2.0, 41),
                           Axis("T_over_J", 0.002, 0.05, 41))).validate()
    entries = thermal_entries_grid(*full_grid(spec)[rows].T)
    return [DimerDensityMatrix(*(float(e[i]) for e in entries)) for i in range(len(rows))]


def settled(states):
    """Which of the states a tdd search start settles."""
    return cq_search._settle(*cq_search._starts(states, 0))[1].tolist()


def flat_table(spec):
    """The (n, 7) table of a sweep evaluated over the flat coordinate
    columns of `full_grid`, each row from its own coordinates alone."""
    coords = full_grid(spec)
    vals = x_state_measures(*thermal_entries_grid(*(coords[:, k] for k in range(5))))
    return np.column_stack([vals[key] for key in sweep._TABLE_KEYS])


def small_spec(n1=3, n2=4):
    return SweepSpec(
        fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
        axes=(Axis("h_over_J", -2.0, 2.0, n1),
              Axis("T_over_J", 0.2, 1.5, n2))).validate()


def per_value_csv(res):
    """The CSV of a result with every float written by its own "%.12g"."""
    head = "".join(f"# {key} = {value}\n" for key, value in res.header.items())
    rows = np.hstack((full_grid(res.spec)[:len(res.table)], res.table)).tolist()
    body = "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)
    return (head + ",".join(CSV_COLUMNS) + "\n" + body).encode()


def near_ties(n=200_000, seed=19):
    """The floats nearest to (m + 1/2) * 10**k, for random 12-digit m and
    random signs over the whole exponent range the formatter takes with
    array operations (1e-290 <= |v| < 10), with their neighbours on either
    side; then 1 - j * 2**-53, on both sides of the carry of "1"."""
    rng = np.random.default_rng(seed)
    m = rng.integers(10 ** 11, 10 ** 12, n).tolist()
    k = rng.integers(-302, -11, n).tolist()
    ties = np.array([float(f"{a}5e{b}") for a, b in zip(m, k)])
    ties *= rng.choice([-1.0, 1.0], n)
    return np.concatenate([ties, np.nextafter(ties, -np.inf),
                           np.nextafter(ties, np.inf),
                           1 - np.arange(1, 10_001) * 2.0 ** -53])


def digit_groups():
    """Floats whose 12 significant digits put every four-digit value k in
    both d1..d4 and d5..d8 and k % 1000 in d9..d11, each also with its
    trailing groups zero (so stripped), at exponents of both notations."""
    k = np.arange(10 ** 4)
    lead = (1 + k % 9) * 10 ** 11
    mantissas = np.concatenate([lead + k * 10 ** 7 + k * 10 ** 3 + k % 1000,
                                lead + k * 10 ** 7 + k * 10 ** 3,
                                lead + k * 10 ** 7]).tolist()
    return np.array([float(f"{m}e{x - 11}") for x in (-30, -5, -4, -1, 0)
                     for m in mantissas])


def line_spec(n):
    """A spec of n rows along one field axis."""
    return SweepSpec(
        fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3, "T_over_J": 0.5},
        axes=(Axis("h_over_J", -2.0, 2.0, n),)).validate()


def force_ranges(monkeypatch, count):
    """Cut both sweep stages into `count` ranges of whole units, as
    `sweep._ranges` cuts them, whatever the core count (so some ranges are
    empty where there are fewer units); returns a list that gets one entry
    per fork."""
    def ranges(n, unit):
        units = -(-n // unit)
        return [min(n, k * units // count * unit) for k in range(count)] + [n]

    forked, fork = [], os.fork
    monkeypatch.setattr(sweep, "_ranges", ranges)
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    return forked


def random_result(n, seed=0):
    """A result of n rows of random measures on the first n rows of a grid
    whose second axis repeats signed zeros, with repeats and signed zeros
    in the psd_flag column."""
    table = np.random.default_rng(seed).normal(size=(n, 7))
    table[:, 6] = np.resize([1.0, 0.0, 1.0, -0.0], n)
    spec = SweepSpec(
        fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
        axes=(Axis("T_over_J", 0.2, 1.5, -(-n // 3)),
              Axis.from_values("h_over_J", (0.0, -0.0, 1.5)))).validate()
    return SweepResult(spec=spec, table=table, header={"n_rows": str(n)})


class TestAxis:
    def test_linear_grid(self):
        ax = Axis("T_over_J", 0.5, 2.0, 4)
        ax.check()
        assert_allclose(ax.grid(), [0.5, 1.0, 1.5, 2.0])

    def test_log_grid(self):
        ax = Axis("T_over_J", 0.01, 100.0, 5, spacing="log")
        ax.check()
        assert_allclose(ax.grid(), [0.01, 0.1, 1.0, 10.0, 100.0], rtol=1e-12)

    def test_value_list(self):
        ax = Axis.from_values("T_over_J", (0.7, 0.2, 1.5))
        ax.check()
        assert ax.n_points == 3
        assert_allclose(ax.grid(), [0.7, 0.2, 1.5])  # order preserved
        assert ax.describe().startswith("T_over_J values")

    def test_describe_roundtrips_parameters(self):
        d = Axis("h_over_J", -2.0, 2.0, 201).describe()
        assert d == "h_over_J linear -2 2 201"

    def test_errors(self):
        with pytest.raises(SweepConfigError, match="at least 2"):
            Axis.from_values("T_over_J", (1.0,))
        for values, bad in (([None, 1], "None"), (["a", 1], "'a'")):
            with pytest.raises(SweepConfigError, match=f"^axis T_over_J: values must be "
                               f"finite real numbers, got {bad}$"):
                Axis.from_values("T_over_J", values)
        # A string is not iterated digit by digit, and a bare number is no list.
        for values, bad in (("12", "'12'"), (5, "5")):
            with pytest.raises(SweepConfigError, match=f"^axis T_over_J: values must be "
                               f"a sequence of numbers, got {bad}$"):
                Axis.from_values("T_over_J", values)
        with pytest.raises(SweepConfigError, match="unknown parameter"):
            Axis("beta", 0.0, 1.0, 5).check()
        with pytest.raises(SweepConfigError, match="spacing"):
            Axis("T_over_J", 0.1, 1.0, 5, spacing="cubic").check()
        with pytest.raises(SweepConfigError, match="n_points"):
            Axis("T_over_J", 0.1, 1.0, 1).check()
        with pytest.raises(SweepConfigError, match="finite"):
            Axis("T_over_J", 0.1, np.inf, 5).check()
        with pytest.raises(SweepConfigError, match="log spacing"):
            Axis("h_over_J", -1.0, 1.0, 5, spacing="log").check()

    @pytest.mark.parametrize("axis, match", [
        (Axis("T_over_J", 0.2, 1.0, 3.0), "n_points must be an integer, got 3.0"),
        (Axis("T_over_J", 0.2, 1.0, "3"), "n_points must be an integer, got '3'"),
        (Axis("T_over_J", "a", 1.0, 3), "start/stop must be finite real numbers, got 'a'"),
        (Axis("T_over_J", 0.2, 1.0, 3, spacing="values", values=("a", "b", "c")),
         "values must be finite real numbers, got 'a'"),
        (Axis("T_over_J", 0.2, 1.0, np.int64(3)), None),
        (Axis("T_over_J", 0.2, 1.0, 3, values=(0.3, 0.5, 0.7)),
         "values given with 'linear' spacing")])
    def test_field_types(self, axis, match):
        # Malformed fields are refused as a config error naming the axis, not
        # a TypeError from deep in the grid; NumPy integers count as integers.
        # A range axis does not silently ignore a values list.
        spec = SweepSpec(fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3,
                                "h_over_J": 0.1}, axes=(axis,))
        if match is None:
            assert run_sweep(spec).table.shape == (3, 7)
        else:
            with pytest.raises(SweepConfigError, match=re.escape(f"axis T_over_J: {match}")):
                spec.validate()

    @pytest.mark.parametrize("spacing", ["linear", "log", "values"])
    @pytest.mark.parametrize("start, stop", [
        (Fraction(1, 5), Fraction(3, 2)), (np.float64(0.2), np.float32(1.5)),
        (Fraction(1, 5), np.int64(2))])
    def test_any_real_bounds_give_the_float_grid(self, spacing, start, stop):
        # Fractions and NumPy scalars are real numbers: an axis of them
        # validates and gives the grid of the equal floats, bit for bit.
        def axis(a, b):
            if spacing == "values":
                return Axis("T_over_J", 0.0, 0.0, 3, spacing="values", values=(a, 0.7, b))
            return Axis("T_over_J", a, b, 5, spacing=spacing)

        got, want = axis(start, stop), axis(float(start), float(stop))
        spec = SweepSpec(fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3,
                                "h_over_J": 0.1}, axes=(got,))
        assert spec.validate() is spec
        assert got.grid().dtype == float
        assert got.grid().tobytes() == want.grid().tobytes()
        assert got.describe() == want.describe()


class TestSweepSpecValidation:
    def test_small_spec_passes(self):
        small_spec()

    @pytest.mark.parametrize("every", [2.5, "x", 2, np.int64(2)])
    def test_with_oracle_check_keeps_the_interval(self, every):
        # The interval is passed through as given, not truncated (2.5 would
        # check every 2nd row) or converted into a bare ValueError, so
        # validate() accepts or refuses it as it does on a SweepSpec.
        spec = with_oracle_check(small_spec(), every)
        assert spec.oracle_check is every
        if isinstance(every, numbers.Integral):
            assert spec.validate() is spec
        else:
            with pytest.raises(SweepConfigError, match=re.escape(
                    f"oracle_check must be an integer, got {every!r}")):
                spec.validate()

    def test_axis_count(self):
        with pytest.raises(SweepConfigError, match="1 or 2 axes"):
            SweepSpec(fixed={}, axes=()).validate()
        with pytest.raises(SweepConfigError, match="1 or 2 axes"):
            SweepSpec(fixed={}, axes=(Axis("h_over_J", 0, 1, 2),
                                      Axis("T_over_J", 1, 2, 2),
                                      Axis("gamma", 0, 1, 2))).validate()

    def test_duplicate_axis(self):
        with pytest.raises(SweepConfigError, match="duplicate"):
            SweepSpec(fixed={"gamma": 0.5, "J0_over_J": 0.0,
                             "Jz_over_J": 0.0, "h_over_J": 0.0},
                      axes=(Axis("T_over_J", 0.1, 1.0, 3),
                            Axis("T_over_J", 0.1, 1.0, 3))).validate()

    def test_fixed_and_axis_collision(self):
        with pytest.raises(SweepConfigError, match="both fixed and an axis"):
            SweepSpec(fixed={"gamma": 0.5, "J0_over_J": 0.0, "Jz_over_J": 0.0,
                             "h_over_J": 0.0, "T_over_J": 1.0},
                      axes=(Axis("T_over_J", 0.1, 1.0, 3),)).validate()

    def test_unknown_fixed_name(self):
        with pytest.raises(SweepConfigError, match="unknown parameter"):
            SweepSpec(fixed={"gamma": 0.5, "J0_over_J": 0.0, "Jz_over_J": 0.0,
                             "h_over_J": 0.0, "kappa": 1.0},
                      axes=(Axis("T_over_J", 0.1, 1.0, 3),)).validate()

    def test_missing_parameter_named(self):
        with pytest.raises(SweepConfigError, match="'h_over_J'"):
            SweepSpec(fixed={"gamma": 0.5, "J0_over_J": 0.0,
                             "Jz_over_J": 0.0},
                      axes=(Axis("T_over_J", 0.1, 1.0, 3),)).validate()

    def test_non_finite_fixed(self):
        with pytest.raises(SweepConfigError, match="finite"):
            SweepSpec(fixed={"gamma": np.nan, "J0_over_J": 0.0,
                             "Jz_over_J": 0.0, "h_over_J": 0.0},
                      axes=(Axis("T_over_J", 0.1, 1.0, 3),)).validate()

    @pytest.mark.parametrize("value", ["a", None, "0.5", 1j, [0.5], np.inf,
                                       np.float32(0.5), np.int64(1), Fraction(1, 2)])
    def test_malformed_fixed_value_is_named(self, value):
        # A fixed value that is not a finite real number is refused as a
        # config error naming the parameter, not a bare ValueError or
        # TypeError; NumPy numbers and fractions are real numbers.
        spec = SweepSpec(fixed={"gamma": value, "J0_over_J": 0.0, "Jz_over_J": 0.0,
                                "h_over_J": 0.0}, axes=(Axis("T_over_J", 0.1, 1.0, 3),))
        if isinstance(value, (np.number, Fraction)):
            assert spec.validate() is spec
        else:
            with pytest.raises(SweepConfigError, match=re.escape(
                    f"fixed gamma must be a finite real, got {value!r}")):
                spec.validate()

    def test_oracle_check_bounds(self):
        base = small_spec()
        with pytest.raises(SweepConfigError, match="oracle_check"):
            SweepSpec(fixed=base.fixed, axes=base.axes,
                      oracle_check=0).validate()

    @pytest.mark.parametrize("every", [2.5, 2.0, "x", "2", None, np.int64(2), True])
    def test_oracle_check_must_be_an_integer(self, every):
        # A non-integer interval is refused, not truncated (2.5 would check
        # every 2nd row) or leaked as a bare ValueError; NumPy integers count.
        spec = SweepSpec(fixed=small_spec().fixed, axes=small_spec().axes,
                         oracle_check=every)
        if every is None or isinstance(every, (np.integer, bool)):
            assert spec.validate() is spec
        else:
            with pytest.raises(SweepConfigError, match=re.escape(
                    f"oracle_check must be an integer, got {every!r}")):
                spec.validate()

    def test_non_positive_temperature_grid(self):
        with pytest.raises(SweepConfigError, match="T_over_J"):
            SweepSpec(fixed={"gamma": 0.5, "J0_over_J": 0.0, "Jz_over_J": 0.0,
                             "h_over_J": 0.0},
                      axes=(Axis("T_over_J", -0.5, 1.0, 4),)).validate()


    def test_overflowing_grid_corner(self):
        # Neither grid point (1e10, 0.5) nor (0, 1e-300) overflows, but the
        # corner (1e10, 1e-300) does, so the spec is refused.
        fixed = {"gamma": 0.0, "J0_over_J": 0.0, "Jz_over_J": 0.0}
        axes = (Axis.from_values("h_over_J", (0.0, 1e10)),
                Axis.from_values("T_over_J", (1e-300, 0.5)))
        with pytest.raises(SweepConfigError, match=re.escape(
                "overflows float64 at T/J = 1e-300 with J0/J = 0, h/J = 1e+10")):
            SweepSpec(fixed=fixed, axes=axes).validate()
        SweepSpec(fixed=dict(fixed, T_over_J=0.5), axes=axes[:1]).validate()
        SweepSpec(fixed=dict(fixed, h_over_J=0.0), axes=axes[1:]).validate()


class TestPresets:
    # fixed parameters and axis layout for every named preset
    CASES = {
        "fig2a": ({"Jz_over_J": 0.0, "gamma": 0.95, "h_over_J": 0.27},
                  ("J0_over_J", "T_over_J")),
        "fig2b": ({"Jz_over_J": 0.0, "gamma": 0.95, "h_over_J": 0.27},
                  ("J0_over_J", "T_over_J")),
        "fig2c": ({"Jz_over_J": 0.3, "gamma": 0.6, "h_over_J": 0.35},
                  ("J0_over_J", "T_over_J")),
        "fig2d": ({"Jz_over_J": 0.3, "gamma": 0.6, "h_over_J": 0.35},
                  ("J0_over_J", "T_over_J")),
        "fig3a": ({"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
                  ("h_over_J", "T_over_J")),
        "fig3b": ({"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
                  ("h_over_J", "T_over_J")),
        "fig4a": ({"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
                  ("h_over_J", "T_over_J")),
        "fig4b": ({"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
                  ("h_over_J", "T_over_J")),
        "fig5": ({"J0_over_J": -0.3, "Jz_over_J": 0.3, "h_over_J": 0.5},
                 ("gamma", "T_over_J")),
    }

    def test_preset_names_cover_cases(self):
        assert set(PRESET_NAMES) == set(self.CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_preset_layout(self, name):
        fixed, axis_names = self.CASES[name]
        spec = figure_preset(name)
        assert spec.fixed == fixed
        assert tuple(ax.name for ax in spec.axes) == axis_names

    def test_field_scan_temperature_columns(self):
        assert figure_preset("fig3a").axes[1].values == (0.2, 0.5, 0.7, 1.5)
        assert figure_preset("fig4b").axes[1].values == (0.5, 1.0)

    def test_temperature_floor(self):
        for name in ("fig2a", "fig2c", "fig5"):
            t_axis = figure_preset(name).axes[1]
            assert t_axis.start == T_AXIS_FLOOR
            assert t_axis.stop == 2.0

    def test_n_points_override(self):
        spec = figure_preset("fig2a", n_points=11)
        assert spec.axes[0].n_points == 11
        assert spec.axes[1].n_points == 11
        # explicit value lists are not resampled
        spec = figure_preset("fig3a", n_points=11)
        assert spec.axes[0].n_points == 11
        assert spec.axes[1].values == (0.2, 0.5, 0.7, 1.5)

    def test_errors(self):
        with pytest.raises(SweepConfigError, match="preset"):
            figure_preset("fig9")
        with pytest.raises(SweepConfigError, match="n_points"):
            figure_preset("fig2a", n_points=1)


class TestGridCoords:
    def test_row_major_order(self):
        spec = SweepSpec(
            fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
            axes=(Axis.from_values("h_over_J", (1.0, 2.0)),
                  Axis.from_values("T_over_J", (0.2, 0.5, 0.7)))).validate()
        coords = grid_coords(spec, sweep._grids(spec), np.arange(6))
        assert coords.shape == (6, 5)
        h = coords[:, PARAM_NAMES.index("h_over_J")]
        t = coords[:, PARAM_NAMES.index("T_over_J")]
        assert_allclose(h, [1, 1, 1, 2, 2, 2])
        assert_allclose(t, [0.2, 0.5, 0.7, 0.2, 0.5, 0.7])
        assert_allclose(coords[:, PARAM_NAMES.index("gamma")], 0.5)

    AXES = {"linear": Axis("J0_over_J", -2.0, 2.0, 37),
            "log": Axis("T_over_J", 0.002, 3.0, 29, spacing="log"),
            "values": Axis.from_values("h_over_J", (0.3, -0.0, 1e-300, 0.0, -2.5))}

    @pytest.mark.parametrize("kinds", [("linear",), ("log",), ("values",),
                                       ("linear", "log"), ("log", "values"),
                                       ("values", "linear")])
    def test_rows_match_the_full_grid(self, kinds):
        # Any selection of rows, in any order and with repeats, carries the
        # bits of those rows of the row-major grid.
        axes = tuple(self.AXES[k] for k in kinds)
        fixed = {name: 0.5 if name == "T_over_J" else -0.25 for name in PARAM_NAMES
                 if name not in {ax.name for ax in axes}}
        spec = SweepSpec(fixed=fixed, axes=axes).validate()
        want = full_grid(spec)
        n = want.shape[0]
        rows = np.r_[np.arange(n), np.random.default_rng(3).integers(0, n, 200), n - 1, 0]
        got = grid_coords(spec, sweep._grids(spec), rows)
        assert got.tobytes() == want[rows].tobytes()

    # one axis of three chunks and a ragged fourth, 182 lines a chunk, and
    # lines split into a chunk and 5 columns
    CHUNKED_AXES = [
        (Axis("h_over_J", -2.0, 2.0, 3 * _CHUNK_SIZE + 7),),
        (Axis("J0_over_J", -2.0, 2.0, 700), Axis("T_over_J", 0.2, 1.5, 90)),
        (Axis("J0_over_J", -2.0, 2.0, 3), Axis("T_over_J", 0.2, 1.5, _CHUNK_SIZE + 5))]

    def test_no_coordinate_array_spans_more_than_a_chunk(self, tmp_path, monkeypatch):
        # A sweep evaluated, checked by the oracles and written in this
        # process maps rows to grid points a chunk or a CSV block at a time.
        # Each chunk's coordinates are its lines as a column, its columns as
        # a row and scalars, at most a chunk of rows in all, and every row is
        # evaluated once; only the spot checks, one row in 2**14 here, take
        # their rows at once, through `grid_coords`.
        force_ranges(monkeypatch, 1)
        spans, chunks = [], []
        for name in ("grid_coords", "_grid_indices"):
            fn = getattr(sweep, name)
            monkeypatch.setattr(sweep, name, lambda spec, *args, fn=fn, name=name:
                                spans.append((name, len(args[-1]))) or fn(spec, *args))
        chunk_measures = sweep._chunk_measures

        def record(coords, out):
            chunks.append(([np.shape(c) for c in coords],
                           out.__array_interface__["data"][0], out.shape[0]))
            chunk_measures(coords, out)

        monkeypatch.setattr(sweep, "_chunk_measures", record)
        for axes in self.CHUNKED_AXES:
            spans.clear()
            chunks.clear()
            fixed = {name: 0.5 if name == "T_over_J" else -0.25 for name in PARAM_NAMES
                     if name not in {ax.name for ax in axes}}
            spec = SweepSpec(fixed=fixed, axes=axes, oracle_check=_CHUNK_SIZE).validate()
            n = math.prod(ax.n_points for ax in axes)
            res = run_sweep(spec)
            emit_csv(res, tmp_path / "grid.csv")
            assert max(rows for _, rows in spans) <= _CHUNK_SIZE
            assert sum(rows for name, rows in spans
                       if name == "grid_coords") == -(-n // _CHUNK_SIZE)
            index = [PARAM_NAMES.index(ax.name) for ax in axes]
            n2 = axes[1].n_points if len(axes) == 2 else 1
            starts = []
            for shapes, address, rows in chunks:
                lines = shapes[index[0]][0]
                cols = shapes[index[1]][1] if len(axes) == 2 else 1
                assert shapes[index[0]] == (lines, 1)
                assert len(axes) == 1 or shapes[index[1]] == (1, cols)
                assert all(shape == () for k, shape in enumerate(shapes) if k not in index)
                assert rows == lines * cols <= _CHUNK_SIZE
                assert lines == 1 or cols == n2
                starts.append((address - res.table.__array_interface__["data"][0])
                              // res.table.strides[0])
            # the chunks tile the table in row order: every row once
            assert np.array_equal(np.cumsum([0] + [rows for *_, rows in chunks]),
                                  starts + [n])


class TestRunSweep:
    def test_values_match_direct_evaluation(self):
        # 130 x 130 rows span two evaluation chunks.
        assert 130 * 130 > _CHUNK_SIZE
        for n1, n2 in ((3, 3), (130, 130)):
            spec = small_spec(n1, n2)
            res = run_sweep(spec)
            coords = full_grid(spec)
            entries = thermal_entries_grid(*(coords[:, k] for k in range(5)))
            direct = x_state_measures(*entries)
            for j, m in enumerate(MEASURE_NAMES):
                assert_allclose(res.table[:, j], direct[m], rtol=0.0, atol=0.0,
                                err_msg=m)
            assert res.header["n_rows"] == str(n1 * n2)
            assert res.header["psd_violations"] == "0"
            assert res.diagnostics["psd_violations"] == 0

    def test_worker_count_does_not_change_results(self, tmp_path):
        # The CLI still accepts --workers, and ignores it.
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--preset", "fig4b", "--points", "4", "--seed", "7"]
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_evaluation_does_not_import_oracles(self):
        # At J0/J = 0, h = gamma = Jz = 0 and T/J <= 0.0164 the closed-form
        # trace-distance denominator vanishes; the sweep must still not
        # reach for the brute-force oracles.
        fixed = {"J0_over_J": 0.0, "h_over_J": 0.0, "gamma": 0.0, "Jz_over_J": 0.0}
        temps = (0.002, 0.0152)
        out = x_state_measures(*thermal_entries_grid(0.0, np.array(temps), 0.0, 0.0, 0.0))
        den = (out["tdd_gmax_sq"] - out["tdd_gmin_sq"]
               + out["tdd_g1"] ** 2 - out["tdd_g2"] ** 2)
        assert np.all(np.abs(den) < 1e-12)
        script = (
            "import sys\n"
            "from diamondqc.sweep import Axis, SweepSpec, run_sweep\n"
            f"run_sweep(SweepSpec(fixed={fixed!r}, "
            f"axes=(Axis.from_values('T_over_J', {temps!r}),)))\n"
            "print('diamondqc.oracle' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(diamondqc.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_high_temperature_limit(self):
        spec = SweepSpec(
            fixed={"gamma": 0.95, "Jz_over_J": 0.0, "J0_over_J": 0.5,
                   "h_over_J": 0.27},
            axes=(Axis("T_over_J", 1e4, 1e4, 2),)).validate()
        res = run_sweep(spec)
        assert np.all(res.column("qd") <= 1e-3)
        assert np.all(res.column("tdd") <= 1e-3)
        assert np.all(res.column("psd_flag") == 1.0)

    # Row counts: one chunk (empty ranges once there are two or more),
    # exactly two chunks, and three chunks plus a ragged fourth.
    @pytest.mark.parametrize("n", [100, 2 * _CHUNK_SIZE, 3 * _CHUNK_SIZE + 7])
    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_table_does_not_depend_on_range_count(self, monkeypatch, n, ranges):
        # Each range but the first is evaluated by a forked child into the
        # shared table; the table must equal a one-shot evaluation bit for bit.
        spec = line_spec(n)
        direct = flat_table(spec)
        forked = force_ranges(monkeypatch, ranges)
        res = run_sweep(spec)
        assert len(forked) == ranges - 1
        assert res.table.tobytes() == direct.tobytes()

    # Axes, evaluated with a chunk of 16 rows: several lines per chunk and a
    # ragged last chunk, lines of exactly one chunk, lines split into pieces
    # of 16, 16 and 5 columns, and one axis.
    BLOCKS = {
        "lines": (Axis("J0_over_J", -2.0, 2.0, 23),
                  Axis("T_over_J", 0.02, 2.0, 5, spacing="log")),
        "values row": (Axis("h_over_J", -2.0, 2.0, 41),
                       Axis.from_values("T_over_J", (0.2, 0.5, 0.7, 1.5))),
        "whole chunk": (Axis("T_over_J", 0.002, 3.0, 7, spacing="log"),
                        Axis("J0_over_J", 2.0, -2.0, 16)),
        "split": (Axis.from_values("h_over_J", (0.3, -0.0, 1e-300, 0.0, -2.5)),
                  Axis("gamma", -8.0, 8.0, 37)),
        "one axis": (Axis("T_over_J", 0.002, 3.0, 53, spacing="log"),),
    }

    @pytest.mark.parametrize("case", BLOCKS)
    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_line_blocks_match_the_flat_evaluation(self, monkeypatch, case, ranges):
        # Each chunk is evaluated as a block of grid lines, its axes' values
        # a column and a row; the table must equal the evaluation of every
        # row from its own coordinates bit for bit.
        axes = self.BLOCKS[case]
        fixed = {name: 0.5 if name == "T_over_J" else -0.25 for name in PARAM_NAMES
                 if name not in {ax.name for ax in axes}}
        spec = SweepSpec(fixed=fixed, axes=axes).validate()
        want = flat_table(spec)
        monkeypatch.setattr(sweep, "_CHUNK_SIZE", 16)
        forked = force_ranges(monkeypatch, ranges)
        res = run_sweep(spec)
        assert len(forked) == ranges - 1
        assert res.table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_evaluator_leaves_no_process(self, monkeypatch, failing):
        # An evaluator that fails, forked or not, fails the sweep, and every
        # child is reaped; a failed child is named by its rows.
        parent, chunk_measures = os.getpid(), sweep._chunk_measures

        def measure_or_fail(coords, out):
            if (os.getpid() == parent) == (failing == "parent"):
                raise ValueError("evaluation failed")
            chunk_measures(coords, out)

        force_ranges(monkeypatch, 3)
        monkeypatch.setattr(sweep, "_chunk_measures", measure_or_fail)
        error, match = ((OSError, f"rows {_CHUNK_SIZE} to {2 * _CHUNK_SIZE} exited "
                         "with status 1") if failing == "child"
                        else (ValueError, "evaluation failed"))
        with pytest.raises(error, match=match):
            run_sweep(line_spec(3 * _CHUNK_SIZE))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_chunks_fill_one_preallocated_table(self):
        # Each chunk is written into its slice of one (n, 7) table: a shared
        # anonymous mapping, which the forked evaluators fill in place.
        # tracemalloc does not see the mapping. At 801 points it sees one
        # chunk's coordinates and temporaries, 6.3 MB; evaluating the chunks
        # into parts and copying them into the table would add a traced
        # 35.9 MB, and the (n, 5) coordinates of every row 25.7 MB.
        spec = figure_preset("fig2a", 801)
        tracemalloc.start()
        try:
            res = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        owner = res.table
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(owner.obj, mmap.mmap)
        assert owner.nbytes == res.table.nbytes == 801 * 801 * 7 * 8
        assert peak <= 12 * 2 ** 20

    def test_oracle_check_diagnostics(self):
        spec = with_oracle_check(small_spec(2, 2), every=2)
        res = run_sweep(spec, seed=0)
        checks = res.diagnostics["oracle"]
        assert [c[0] for c in checks] == [0, 2]
        assert res.header["oracle_every"] == "2"
        assert res.header["oracle_points"] == "2"
        assert float(res.header["oracle_max_qd_residual"]) <= 1e-4
        assert float(res.header["oracle_max_tdd_residual"]) <= 1e-4

    @pytest.mark.parametrize("seed", [2.5, "x"])
    def test_non_integer_seed_is_refused(self, seed):
        # Refused as a config error, spot checks or not, not truncated into
        # the header or left to the oracle's random generator.
        for spec in (small_spec(2, 2), with_oracle_check(small_spec(2, 2), every=2)):
            with pytest.raises(SweepConfigError,
                               match=re.escape(f"seed must be an integer, got {seed!r}")):
                run_sweep(spec, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        spec = with_oracle_check(small_spec(2, 2), every=2)
        res = run_sweep(spec, seed=np.int64(4))
        assert res.header["seed"] == "4"
        assert res.header == run_sweep(spec, seed=4).header

    def test_each_spot_check_state_is_validated_once(self, monkeypatch):
        # The searches' own input check is the one check of each state,
        # made in this process: one settled and one searched state.
        checked, validate = [], DimerDensityMatrix.validate

        def counted(state):
            checked.append(id(state))
            return validate(state)

        states = cold_box_states([0, 768])
        force_ranges(monkeypatch, 1)
        monkeypatch.setattr(DimerDensityMatrix, "validate", counted)
        sweep._search_states(states, tdd=True, seed=0)
        assert checked == [id(s) for s in states]

    def test_invalid_state_of_a_qd_batch_raises_before_any_fork(self, monkeypatch):
        # A batch of qd searches alone checks its states here too.
        states = cold_box_states([0, 768])
        states[1] = dataclasses.replace(states[1], r14=states[1].r14 + 1.0)
        with pytest.raises(ValueError, match="matrix has eigenvalue") as alone:
            diamondqc.oracle.qd_bruteforce(states[1])
        forked = force_ranges(monkeypatch, 2)
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            sweep._search_states(states, qd=True)
        assert forked == []

    @pytest.fixture(scope="class")
    def spot_checks_in_one_range(self):
        """The oracle diagnostics and header lines of a sweep with six spot
        checks, searched in this process alone."""
        with pytest.MonkeyPatch.context() as mp:
            forked = force_ranges(mp, 1)
            res = run_sweep(with_oracle_check(small_spec(3, 4), every=2), seed=3)
        assert forked == []
        return res

    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_spot_checks_do_not_depend_on_range_count(
            self, monkeypatch, spot_checks_in_one_range, ranges):
        # The six spot-check states are searched on `ranges` ranges, each
        # range but the first in a forked child; the residuals must equal
        # those of the one-range run bit for bit.
        one = spot_checks_in_one_range
        forked = force_ranges(monkeypatch, ranges)
        res = run_sweep(with_oracle_check(small_spec(3, 4), every=2), seed=3)
        assert len(forked) == 2 * (ranges - 1)  # evaluators, then searches
        assert [c[0] for c in res.diagnostics["oracle"]] == [0, 2, 4, 6, 8, 10]
        assert (np.array(res.diagnostics["oracle"]).tobytes()
                == np.array(one.diagnostics["oracle"]).tobytes())
        assert res.header == one.header

    def test_invalid_spot_check_state_raises_before_any_search_fork(
            self, monkeypatch):
        # Every state is validated in this process before the searches fork,
        # so a state the oracles refuse raises their own ValueError.
        def skewed(r11, r22, r33, r44, r14, r23):
            return DimerDensityMatrix(r11, r22, r33, r44, r14 + 1.0, r23)

        spec = with_oracle_check(small_spec(3, 4), every=2)
        first = thermal_entries_grid(*full_grid(spec)[0])
        with pytest.raises(ValueError, match="matrix has eigenvalue") as alone:
            diamondqc.oracle.tdd_bruteforce(skewed(*map(float, first)))
        forked = force_ranges(monkeypatch, 3)
        monkeypatch.setattr(sweep, "DimerDensityMatrix", skewed)
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            run_sweep(spec)
        assert len(forked) == 2  # the evaluators only

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_search_leaves_no_process(self, monkeypatch, failing):
        # A range whose pair search fails, forked or not, fails the sweep,
        # and every child is reaped; a failed child is named by its range
        # of (state, start) pairs: six states of eight starts in three ranges
        # (no start settles any of the six).
        parent, search_pairs = os.getpid(), cq_search._search_pairs

        def search_or_fail(*args):
            if (os.getpid() == parent) == (failing == "parent"):
                raise RuntimeError("search failed")
            return search_pairs(*args)

        force_ranges(monkeypatch, 3)
        monkeypatch.setattr(cq_search, "_search_pairs", search_or_fail)
        error, match = ((OSError, re.escape("process for (state, start) pairs 16 to 32 "
                                            "exited with status 1"))
                        if failing == "child" else (RuntimeError, "search failed"))
        with pytest.raises(error, match=match):
            run_sweep(with_oracle_check(small_spec(3, 4), every=2))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture(scope="class")
    def cold_states_alone(self):
        """Seven cold-box states, of which a start settles rows 0 and 1536
        and not the other five, and each one's tdd and qd searched alone in
        this process."""
        states = cold_box_states([0, 640, 704, 768, 1536, 832, 896])
        assert settled(states) == [True, False, False, False, True, False, False]
        return (states, [diamondqc.oracle.tdd_bruteforce(s) for s in states],
                [diamondqc.oracle.qd_bruteforce(s) for s in states])

    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_split_states_search_as_alone(self, monkeypatch, cold_states_alone, ranges):
        # The five searched states have 40 (state, start) pairs: two ranges
        # cut the third one's starts at pair 20, three cut the second's and
        # the fourth's at pairs 13 and 26. Each state's best start is taken
        # in this process from the finals of both sides, and must equal its
        # search alone bit for bit, as must the settled states' values.
        states, tdd_alone, qd_alone = cold_states_alone
        forked = force_ranges(monkeypatch, ranges)
        assert any(cut % 8 for cut in sweep._ranges(40, 1)) == (ranges > 1)
        tdd, qd = sweep._search_states(states, tdd=True, qd=True, seed=0)
        assert len(forked) == ranges - 1
        assert tdd.tolist() == tdd_alone
        assert qd.tolist() == qd_alone

    @pytest.fixture(scope="class")
    def spot_checks_alone(self):
        """The seven states a cold-box sweep checks with --oracle-every 256,
        and each one's tdd and qd searched alone in this process. A start
        settles five of them (rows 0, 256, 512, 1280 and 1536, where
        r14 = r23 = 0)."""
        states = cold_box_states(range(0, 1681, 256))
        assert settled(states) == [True] * 3 + [False] * 2 + [True] * 2
        return (states, [diamondqc.oracle.tdd_bruteforce(s) for s in states],
                [diamondqc.oracle.qd_bruteforce(s) for s in states])

    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_settled_spot_checks_search_as_alone(self, monkeypatch, spot_checks_alone,
                                                 ranges):
        # Only the 16 pairs of rows 768 and 1024 are cut into ranges, and
        # every state's value, settled or searched, equals its search alone
        # bit for bit.
        states, tdd_alone, _ = spot_checks_alone
        forked = force_ranges(monkeypatch, ranges)
        tdd = sweep._search_states(states, tdd=True, seed=0)[0]
        assert len(forked) == ranges - 1
        assert [v.hex() for v in tdd] == [v.hex() for v in tdd_alone]

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_qd_searches_run_when_every_state_is_settled(
            self, monkeypatch, spot_checks_alone, ranges):
        # With no pair left to search, the qd searches' states are cut into
        # the ranges instead.
        states, tdd_alone, qd_alone = spot_checks_alone
        forked = force_ranges(monkeypatch, ranges)
        tdd, qd = sweep._search_states(states[:3], tdd=True, qd=True, seed=0)
        assert len(forked) == ranges - 1
        assert [v.hex() for v in tdd] == [v.hex() for v in tdd_alone[:3]]
        assert qd.tolist() == qd_alone[:3]

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_only_searched_states_warn(self, monkeypatch, spot_checks_alone, ranges):
        # Below zero, the tolerance makes every searched state warn; a
        # settled state has no search whose starts could disagree. So the
        # batch path and the search alone warn for rows 768 and 1024 only.
        monkeypatch.setattr(cq_search, "_DISAGREE_WARN", -1.0)
        force_ranges(monkeypatch, ranges)
        states = spot_checks_alone[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep._search_states(states, tdd=True, seed=0)
        assert len(caught) == 2
        alone = []
        for state in states:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                diamondqc.oracle.tdd_bruteforce(state)
            alone.append(len(caught))
        assert alone == [0, 0, 0, 1, 1, 0, 0]

    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_disagreeing_starts_warn_once_per_state_here(self, monkeypatch, ranges):
        # Below zero, the tolerance makes every searched state warn, even one
        # whose two best starts agree to the bit (as some do on other hosts);
        # no start settles any of these six states, and each state's best
        # start is taken in this process, so the sweep warns here once per
        # spot-check state, whichever range searched its pairs.
        monkeypatch.setattr(cq_search, "_DISAGREE_WARN", -1.0)
        force_ranges(monkeypatch, ranges)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(with_oracle_check(small_spec(3, 4), every=2))
        assert [str(w.message).split(" by ")[0] for w in caught] == [
            "classical-quantum search starts disagree"] * 6

    def test_forked_child_returns_the_parents_lapack_bits(self):
        # OpenBLAS stops its thread pool before a fork and starts it again
        # when a call needs it, so a forked child may call LAPACK after the
        # parent has, as the forked oracle searches do.
        rng = np.random.default_rng(5)
        m = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))
        stack = m + m.conj().transpose(0, 2, 1)
        big = rng.normal(size=(300, 300))
        np.linalg.eigvalsh(big + big.T)
        want = np.linalg.eigvalsh(stack)
        got = np.frombuffer(mmap.mmap(-1, want.nbytes), dtype=float).reshape(want.shape)

        def solve(k, a, b):
            got[a:b] = np.linalg.eigvalsh(stack[a:b])

        sweep._run_ranges([0, 0, len(stack)], solve)
        assert got.tobytes() == want.tobytes()

    def test_column_and_line_access(self):
        res = run_sweep(small_spec(3, 4))
        assert res.column("h_over_J").shape == (12,)
        with pytest.raises(KeyError):
            res.column("entropy")
        x, ys = res.line("T_over_J", h_over_J=0.0)
        assert_allclose(x, np.linspace(0.2, 1.5, 4))
        mask = np.isclose(res.column("h_over_J"), 0.0)
        assert_allclose(ys["qd"], res.column("qd")[mask])


def line_reference(coords, table, axis_name, **pins):
    """`SweepResult.line` by its rule over every row of the (n, 5) `coords`:
    each pin held within 1e-9, then a stable sort by x."""
    cols = dict(zip(CSV_COLUMNS, np.hstack((coords, table)).T))
    mask = np.ones(len(table), dtype=bool)
    for name, value in pins.items():
        mask &= np.isclose(cols[name], value, rtol=0.0, atol=1e-9)
    order = np.argsort(cols[axis_name][mask], kind="stable")
    return cols[axis_name][mask][order], {m: cols[m][mask][order] for m in MEASURE_NAMES}


class TestColumnAndLine:
    T = Axis("T_over_J", 0.2, 1.5, 4)
    FIXED = {"J0_over_J": -0.3, "T_over_J": 0.7, "h_over_J": 0.1, "gamma": 0.5,
             "Jz_over_J": 0.3}
    # axes, then lines as (x axis, pins, rows on the line)
    CASES = {
        "decreasing": ((Axis("J0_over_J", 2.0, -2.0, 9), T),
                       [("J0_over_J", {"T_over_J": T.grid()[2]}, 9),
                        ("T_over_J", {"J0_over_J": 0.5}, 4)]),
        "log": ((Axis("h_over_J", -1.0, 1.0, 5),
                 Axis("T_over_J", 0.002, 3.0, 7, spacing="log")),
                [("T_over_J", {"h_over_J": 0.5}, 7),
                 ("h_over_J", {"T_over_J": 0.002}, 5)]),
        "values": ((Axis.from_values("h_over_J", (0.5, 0.0, -0.3, -0.0, 1e-10)), T),
                   [("h_over_J", {"T_over_J": 1.5}, 5),
                    ("T_over_J", {"h_over_J": 0.0}, 12),
                    ("T_over_J", {"h_over_J": -0.0, "gamma": 0.5}, 12)]),
        "one axis": ((Axis("h_over_J", 2.0, -2.0, 11),),
                     [("h_over_J", {}, 11),
                      ("h_over_J", {"T_over_J": 0.7}, 11),
                      ("h_over_J", {"T_over_J": 0.7 + 1e-6}, 0)]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_full_grid_bitwise(self, case, monkeypatch):
        # Both accessors read each row's coordinates through `_grid_indices`
        # and never build the (n, 5) table.
        calls = []
        monkeypatch.setattr(sweep, "grid_coords", lambda *args: calls.append(args))
        axes, lines = self.CASES[case]
        fixed = {k: v for k, v in self.FIXED.items() if k not in {ax.name for ax in axes}}
        spec = SweepSpec(fixed=fixed, axes=axes).validate()
        coords = full_grid(spec)
        table = np.random.default_rng(4).normal(size=(len(coords), 7))
        res = SweepResult(spec=spec, table=table, header={})
        for name, want in zip(CSV_COLUMNS, np.hstack((coords, table)).T):
            assert res.column(name).tobytes() == want.tobytes(), name
        for axis_name, pins, size in lines:
            x, ys = res.line(axis_name, **pins)
            want_x, want_ys = line_reference(coords, table, axis_name, **pins)
            assert x.size == size
            assert x.tobytes() == want_x.tobytes()
            assert ys.keys() == want_ys.keys()
            assert all(ys[m].tobytes() == want_ys[m].tobytes() for m in ys), (axis_name, pins)
        for read in (lambda: res.column("entropy"), lambda: res.line("entropy"),
                     lambda: res.line(axes[0].name, entropy=0.0)):
            with pytest.raises(KeyError, match="entropy"):
                read()
        assert calls == []


class TestCsvOutput:
    def test_file_layout(self, tmp_path):
        res = run_sweep(small_spec(2, 2), seed=7, label="demo")
        path = tmp_path / "out.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format = diamondqc-sweep-v1"
        headers = [ln for ln in lines if ln.startswith("# ")]
        assert "# seed = 7" in headers
        assert "# preset = demo" in headers
        assert "# n_rows = 4" in headers
        col_row = lines[len(headers)]
        assert col_row == ",".join(CSV_COLUMNS)
        data_rows = lines[len(headers) + 1:]
        assert len(data_rows) == 4
        assert len(data_rows[0].split(",")) == len(CSV_COLUMNS)
        assert path.read_text().endswith("\n")

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = small_spec(3, 3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec, seed=7), p1)
        emit_csv(run_sweep(spec, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_result_writes_header_only(self, tmp_path):
        spec = small_spec(2, 2)
        res = SweepResult(spec=spec, table=np.empty((0, 7)),
                          header={"format": "diamondqc-sweep-v1",
                                  "n_rows": "0"})
        path = tmp_path / "empty.csv"
        emit_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[-1] == ",".join(CSV_COLUMNS)

    def test_rows_are_percent_formatted_across_blocks(self, tmp_path):
        for n in (_CSV_BLOCK + 3, 2 * _CSV_BLOCK + 1):
            self.check_blocks(tmp_path, n)

    @staticmethod
    def check_blocks(tmp_path, n):
        # Rows are formatted a block at a time; each must read exactly as
        # "%.12g" writes its floats, including the awkward values, in a
        # table whose last block is partial, down to one row. The table
        # holds them: qd cycles through `special`; tdd is all -0.0 but for
        # 0.0 in every other row of the second block; concurrence is nan
        # but for the last row of the first block; mutual_info is +inf; and
        # psd_flag cycles through 0, 1 and -0 in the first block, then is 1
        # but for the last row of the second block. The field axis, which
        # varies fastest, holds signed zeros and values near rounding ties.
        special = [-0.0, float("nan"), 1e-300, 0.1 + 0.2, -1e300, 2.0 ** -1074,
                   # the floats nearest to (m + 0.5) * 10**-k: in the guard
                   # band, within 0.001 of a rounding tie
                   1.234567890125, 0.1000000000005, 3.141592653585e-20,
                   -9.999999999985e-150, 5.000000000005e-06,
                   # an exact tie, rounded half to even
                   2.0 ** -18,
                   # carries to the next power of ten, the last one from e
                   # notation into fixed
                   9.9999999999995, 0.99999999999995, 9.99999999999995e-05,
                   1e-4, 10.0, 1e12, 4.3e-160, 1e-290, np.nextafter(1e-290, 0),
                   2.2250738585072014e-308, 5e-324, float("inf"), -float("inf")]
        field = (0.0, -0.0, 1.234567890125, 0.1000000000005, 3.141592653585e-20,
                 -9.999999999985e-150, 5.000000000005e-06, 2.0 ** -18,
                 9.9999999999995, 0.99999999999995, 9.99999999999995e-05,
                 1e-4, 1e-290, np.nextafter(1e-290, 0), 5e-324, -0.0, 0.0)
        spec = SweepSpec(
            fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3},
            axes=(Axis("T_over_J", 0.2, 1.5, -(-n // len(field))),
                  Axis.from_values("h_over_J", field))).validate()
        table = np.random.default_rng(5).normal(size=(n, 7))
        table[:, 0] = np.resize(special, n)
        table[:, 1] = -0.0
        table[_CSV_BLOCK:2 * _CSV_BLOCK:2, 1] = 0.0
        table[:, 2] = float("nan")
        table[_CSV_BLOCK - 1, 2] = 0.1 + 0.2
        table[:, 3] = float("inf")
        table[:, 6] = np.resize([0.0, 1.0, -0.0], n)
        table[_CSV_BLOCK:, 6] = 1.0
        table[min(n, 2 * _CSV_BLOCK) - 1, 6] = 0.0
        res = SweepResult(spec=spec, table=table, header={"n_rows": str(n)})
        path = tmp_path / "blocks.csv"
        emit_csv(res, path)
        rows = path.read_bytes().split(b"\n")[2:]
        values = np.hstack((full_grid(spec)[:n], table))
        want = [",".join("%.12g" % v for v in row).encode() for row in values]
        assert rows == want + [b""]
        cells = [row.split(b",") for row in rows[:-1]]
        assert [c[5] for c in cells[:6]] == [
            b"-0", b"nan", b"1e-300", b"0.3", b"-1e+300", b"4.94065645841e-324"]
        assert [c[2] for c in cells[:2] + cells[15:19]] == [
            b"0", b"-0", b"-0", b"0", b"0", b"-0"]
        assert {c[6] for c in cells[:_CSV_BLOCK]} == {b"-0"}
        assert [c[6] for c in cells[_CSV_BLOCK:_CSV_BLOCK + 2]] == [b"0", b"-0"]
        assert {c[7] for c in cells} - {cells[_CSV_BLOCK - 1][7]} == {b"nan"}
        assert cells[_CSV_BLOCK - 1][7] == b"0.3"
        assert {c[8] for c in cells} == {b"inf"}
        assert [c[11] for c in cells[:3]] == [b"0", b"1", b"-0"]
        second = [c[11] for c in cells[_CSV_BLOCK:2 * _CSV_BLOCK]]
        assert second == [b"1"] * (len(second) - 1) + [b"0"]

    def test_signed_zero_grid_values_keep_their_sign(self, tmp_path):
        # Equal in value, 0.0 and -0.0 are two grid values: each row of a
        # sweep over both writes its own.
        spec = SweepSpec(
            fixed={"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": -0.0},
            axes=(Axis.from_values("h_over_J", (0.0, -0.0, 0.5, -0.0)),
                  Axis.from_values("T_over_J", (0.2, 0.5)))).validate()
        path = tmp_path / "zeros.csv"
        emit_csv(run_sweep(spec), path)
        cells = [row.split(",") for row in path.read_text().splitlines()[-8:]]
        assert [c[2] for c in cells] == ["0", "0", "-0", "-0", "0.5", "0.5", "-0", "-0"]
        assert {c[4] for c in cells} == {"-0"}

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
           floats=st.lists(st.floats(1e-12, 10.0, exclude_max=True), max_size=40))
    @example(bits=[], floats=near_ties())
    @example(bits=[], floats=digit_groups())
    def test_formatter_reads_as_percent_formatting(self, bits, floats):
        # Any float64, from raw bit patterns (nan payloads, subnormals,
        # infinities) and from the range the measures fill, reads exactly
        # as "%.12g" writes it once its NUL slots are deleted. So does each
        # of the values nearest to rounding ties, where the rounding of a
        # scaled value is exact only inside the 0.499 guard, and each value
        # of the three digit groups the mantissa is split into. The first
        # slot of every field is left free.
        values = np.concatenate([np.array(bits, dtype=np.uint64).view(float),
                                 np.array(floats, dtype=float)])
        text = sweep._fmt_bytes(values)
        assert not text[:, 0].any()
        got = [row.tobytes().replace(b"\0", b"") for row in text]
        assert got == [("%.12g" % v).encode() for v in values.tolist()]

    def test_every_table_word_reads_as_percent_formatting(self, monkeypatch):
        # +-0.0, +-d0 * 10**-e and +-(d0 + 1/2) * 10**-e for each leading
        # digit and each exponent of the array path: every lead word a value
        # can reach, with the point dropped and kept, and every suffix word.
        # None of them may fall back on `_fmt`.
        values = np.array([0.0] + [float("%d%se-%d" % (d0, half, e)) for e in range(291)
                                   for d0 in range(1, 10) for half in ("", ".5")])
        values = np.concatenate([values, -values])
        assert values.size == 10478
        calls = []
        monkeypatch.setattr(sweep, "_fmt", lambda v: calls.append(v) or "%.12g" % v)
        text = sweep._fmt_bytes(values)
        assert calls == []
        got = [row.tobytes().replace(b"\0", b"") for row in text]
        assert got == [("%.12g" % v).encode() for v in values.tolist()]

    @pytest.mark.parametrize("name", ["fig2a", "fig2c", "fig3a", "fig4a", "fig5",
                                      "cold-box"])
    def test_few_grid_values_are_formatted_alone(self, monkeypatch, name):
        # The coordinates and measures of the presets and of a cold, zero
        # field box (tdd down to 4.3e-160) take the array path of the
        # formatter; `_fmt`, the per-value path, gets nan, +-inf, magnitudes
        # outside 1e-290..10 and the values within 0.001 of a rounding tie,
        # at most 1% of a sweep's cells.
        if name == "cold-box":
            spec = SweepSpec(
                fixed={"gamma": 0.0, "h_over_J": 0.0, "Jz_over_J": 0.0},
                axes=(Axis("J0_over_J", -2.0, 2.0, 41),
                      Axis("T_over_J", 0.002, 0.05, 41))).validate()
        else:
            spec = figure_preset(name)
        res = run_sweep(spec)
        calls, fmt = [], sweep._fmt
        monkeypatch.setattr(sweep, "_fmt", lambda v: calls.append(v) or fmt(v))
        out = io.BytesIO()
        n = res.table.shape[0]
        sweep._write_rows(out, spec, sweep._grid_fields(spec), res.table, 0, n)
        assert len(calls) <= 0.01 * n * len(CSV_COLUMNS)
        assert out.getvalue() == per_value_csv(res).split(b"\n", len(res.header) + 1)[-1]

    @pytest.mark.parametrize("name", ["fig2a", "fig5"])
    def test_preset_rows_match_per_value_formatting(self, tmp_path, name):
        # Each coordinate string is formatted once per grid value and
        # gathered into its rows; every row must still read as a per-value
        # "%.12g" join.
        res = run_sweep(figure_preset(name))
        path = tmp_path / f"{name}.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_value_csv(res)

    # Row counts: below one block, exactly two blocks, exactly three (one
    # block per range with three writers) and a ragged last block.
    @pytest.mark.parametrize("n", [100, 2 * _CSV_BLOCK, 3 * _CSV_BLOCK,
                                   5 * _CSV_BLOCK + 7])
    @pytest.mark.parametrize("writers", [1, 2, 3])
    def test_bytes_do_not_depend_on_writer_count(self, tmp_path, monkeypatch,
                                                 n, writers):
        # Each writer but the first is a forked child that formats its
        # contiguous row range; where there are more writers than blocks,
        # the first ranges are empty.
        forked = force_ranges(monkeypatch, writers)
        res = random_result(n)
        path = tmp_path / "rows.csv"
        emit_csv(res, path)
        assert len(forked) == writers - 1
        assert path.read_bytes() == per_value_csv(res)

    def test_preset_through_two_writers(self, tmp_path, monkeypatch):
        force_ranges(monkeypatch, 2)
        res = run_sweep(figure_preset("fig2a"))
        path = tmp_path / "fig2a.csv"
        emit_csv(res, path)
        assert path.read_bytes() == per_value_csv(res)

    def test_writer_count_follows_cores_and_blocks(self, monkeypatch):
        # One range per usable core, with at least two units each, cut at
        # unit boundaries; writers count CSV blocks, evaluators chunks.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for unit in (_CSV_BLOCK, _CHUNK_SIZE):
            cuts = [sweep._ranges(b * unit - 5 * (b > 0), unit)
                    for b in (0, 1, 3, 4, 6, 157)]
            assert [len(c) - 1 for c in cuts] == [1, 1, 1, 2, 3, 3]
            for c in cuts:
                assert c[0] == 0 and c == sorted(c)
                assert all(a % unit == 0 for a in c[:-1])
        assert sweep._ranges(157 * _CSV_BLOCK, _CSV_BLOCK) == [
            0, 52 * _CSV_BLOCK, 104 * _CSV_BLOCK, 157 * _CSV_BLOCK]
        monkeypatch.delattr(os, "memfd_create")
        assert sweep._ranges(157 * _CSV_BLOCK, _CSV_BLOCK) == [0, 157 * _CSV_BLOCK]

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_writer_leaves_no_process_or_file(self, tmp_path, monkeypatch,
                                                     failing):
        # A writer that fails, forked or not, fails the sweep with the path
        # in the message; every child is reaped and no stray file is left.
        parent, write_rows = os.getpid(), sweep._write_rows

        def write_or_fail(fh, *args):
            if (os.getpid() == parent) == (failing == "parent"):
                raise OSError(errno.ENOSPC, "No space left on device")
            write_rows(fh, *args)

        force_ranges(monkeypatch, 3)
        monkeypatch.setattr(sweep, "_write_rows", write_or_fail)
        path = tmp_path / "rows.csv"
        with pytest.raises(OSError, match=re.escape(f"sweep CSV to {path}")):
            emit_csv(random_result(3 * _CSV_BLOCK), path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_writes_through_one_reusable_block(self, tmp_path):
        # Rows are copied block by block into one reusable array, so the
        # writer's memory does not grow with the table. A copy of this
        # table into one (n, 12) array alone would take 3.7 MB. (The
        # 40,401-row fig2a preset keeps the test short: tracing slows the
        # writer's many small allocations about twentyfold.)
        res = run_sweep(figure_preset("fig2a"))
        tracemalloc.start()
        try:
            emit_csv(res, tmp_path / "fig2a.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2 ** 20

    def test_unwritable_path(self, tmp_path):
        res = run_sweep(small_spec(2, 2))
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            emit_csv(res, target)


def walked_peaks(y, prominence):
    """The peak rules of `prominent_peaks` as sample-by-sample walks, in the
    form scipy.signal.find_peaks runs them."""
    peaks, i, last = [], 1, len(y) - 1
    while i < last:
        if y[i - 1] < y[i]:
            ahead = i + 1
            while ahead < last and y[ahead] == y[i]:
                ahead += 1
            if y[ahead] < y[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    kept = []
    for p in peaks:
        bases = []
        for step in (-1, 1):
            j, low = p, y[p]
            while 0 <= j <= last and y[j] <= y[p]:
                low = min(low, y[j])
                j += step
            bases.append(low)
        if y[p] - max(bases) >= prominence:
            kept.append(p)
    return kept


class TestCountPeaks:
    @staticmethod
    def series(ys):
        return list(zip(range(len(ys)), [float(y) for y in ys]))

    def test_matches_walked_rules_on_random_series(self):
        # Quantised series are full of plateaus, ties and prominences that
        # equal the threshold exactly.
        rng = np.random.default_rng(17)
        for k in range(600):
            n = int(rng.integers(3, 80))
            if k % 2:
                y, threshold = rng.normal(size=n), float(rng.uniform(0.05, 2.0))
            else:
                y, threshold = rng.integers(0, 4, size=n).astype(float), 1.0
            assert prominent_peaks(y, threshold).tolist() == walked_peaks(y, threshold)

    def test_shapes(self):
        assert count_peaks(self.series([0, 1, 0]), 0.5) == 1
        assert count_peaks(self.series([0, 1, 2, 3]), 0.5) == 0
        assert count_peaks(self.series([0, 1, 0, 1, 0]), 0.5) == 2

    def test_prominence_filter(self):
        # second bump rises only 0.05 above its saddle
        ys = [0.0, 1.0, 0.5, 0.55, 0.1]
        assert count_peaks(self.series(ys), 0.1) == 1
        assert count_peaks(self.series(ys), 0.01) == 2

    def test_boundary_plateau_not_counted(self):
        ys = [5.0, 5.0, 1.0, 2.0, 1.0, 0.5]
        assert count_peaks(self.series(ys), 0.5) == 1

    def test_plateau_counts_once_at_its_middle(self):
        assert prominent_peaks([0, 1, 1, 1, 0], 0.5).tolist() == [2]
        # even widths take the left of the two middle samples
        assert prominent_peaks([0, 2, 2, 2, 2, 0], 0.5).tolist() == [2]
        assert prominent_peaks([0, 1, 1, 0], 0.5).tolist() == [1]

    def test_equal_peaks_see_past_each_other(self):
        # The walk to a base stops only at a strictly higher sample, so each
        # of two equal peaks has the series minimum as its base: prominence 1.
        assert prominent_peaks([0, 1, 0.5, 1, 0], 0.6).tolist() == [1, 3]

    def test_end_samples_are_never_peaks(self):
        assert prominent_peaks([0, 1, 2, 3], 0.5).size == 0
        assert prominent_peaks([3, 2, 1, 0], 0.5).size == 0
        assert prominent_peaks([1, 1, 1], 0.1).size == 0
        assert prominent_peaks([0, 1, 1], 0.1).size == 0
        # the peak at index 3 has no higher sample on its right, so that
        # base runs to the end; the left one stops at the edge maximum
        assert prominent_peaks([3, 2, 1, 2, 1], 1.0).tolist() == [3]

    def test_prominence_threshold_is_inclusive(self):
        ys = [0.0, 1.0, 0.5, 0.75, 0.0]  # second peak: 0.75 - 0.5 = 0.25
        assert prominent_peaks(ys, 0.25).tolist() == [1, 3]
        assert prominent_peaks(ys, np.nextafter(0.25, 1.0)).tolist() == [1]

    def test_frozen_field_scan_peaks(self):
        # Indices on the 201-point fig3a h-scans, as scipy.signal.find_peaks
        # gives them at the default prominence.
        want = {("qd", 0.2): [45, 100, 155], ("qd", 0.5): [25, 100, 175],
                ("qd", 0.7): [100], ("qd", 1.5): [],
                ("tdd", 0.2): [43, 100, 157], ("tdd", 0.5): [31, 100, 169],
                ("tdd", 0.7): [26, 174], ("tdd", 1.5): [10, 190]}
        res = run_sweep(figure_preset("fig3a"))
        for (measure, t), idx in want.items():
            x, ys = res.line("h_over_J", T_over_J=t)
            assert prominent_peaks(ys[measure], DEFAULT_PROMINENCE).tolist() == idx
            assert count_peaks(list(zip(x, ys[measure])),
                               DEFAULT_PROMINENCE) == len(idx)

    def test_frozen_thermal_ridge_peaks(self):
        # Indices along T/J of the fig2a columns the thermal-ridge check
        # reads, as scipy.signal.find_peaks gives them.
        want = {1.2: ([113], [125]), 1.3: ([104], [133]), 1.4: ([101], [142]),
                1.5: ([101], [150]), 1.6: ([102], [159])}
        res = run_sweep(figure_preset("fig2a"))
        j0 = res.spec.axes[0].grid()
        for col, (qd_idx, tdd_idx) in want.items():
            _, ys = res.line("T_over_J", J0_over_J=j0[np.argmin(np.abs(j0 - col))])
            assert prominent_peaks(ys["qd"], DEFAULT_PROMINENCE).tolist() == qd_idx
            assert prominent_peaks(ys["tdd"], DEFAULT_PROMINENCE).tolist() == tdd_idx

    def test_errors(self):
        with pytest.raises(ValueError, match="prominence"):
            count_peaks(self.series([0, 1, 0]), 0.0)
        with pytest.raises(ValueError, match="3 points"):
            count_peaks(self.series([0, 1]), 0.5)
        with pytest.raises(ValueError, match="sorted"):
            count_peaks([(1.0, 0.0), (0.0, 1.0), (2.0, 0.0)], 0.5)
        # A NaN passes no order and no threshold.
        with pytest.raises(ValueError, match="sorted"):
            count_peaks([(0.0, 0.0), (np.nan, 1.0), (2.0, 0.0)], 0.1)
        with pytest.raises(ValueError, match="prominence"):
            count_peaks(self.series([0, 1, 0]), np.nan)
        # Input that is not (x, y) pairs is refused by its shape.
        with pytest.raises(ValueError,
                           match=r"^series must be \(x, y\) pairs, got shape \(3,\)$"):
            count_peaks([1, 2, 3], 0.1)
        with pytest.raises(ValueError, match=r"got shape \(3, 3\)$"):
            count_peaks([(0.0, 1.0, 2.0)] * 3, 0.1)
        # Ragged or non-numeric pairs get one line, not NumPy's own error.
        for series in ([(0, 1), (1, 2, 3), (2, 0)], [("a", 1), (1, 2), (2, 0)]):
            with pytest.raises(ValueError, match=r"^series must be \(x, y\) pairs[^\n]*$"):
                count_peaks(series, 0.1)


class TestConfigFiles:
    GOOD = """\
[sweep]
oracle_every = 3

[fixed]
gamma = 0.5
J0_over_J = -0.3
Jz_over_J = 0.3

[axis1]
name = h_over_J
start = -2
stop = 2
n_points = 5

[axis2]
name = T_over_J
values = 0.2 0.5 0.7
"""

    def write(self, tmp_path, text):
        path = tmp_path / "sweep.ini"
        path.write_text(text)
        return path

    def test_roundtrip(self, tmp_path):
        spec = read_sweep_config(self.write(tmp_path, self.GOOD))
        assert spec.fixed == {"gamma": 0.5, "J0_over_J": -0.3,
                              "Jz_over_J": 0.3}
        assert spec.oracle_check == 3
        assert spec.axes[0].describe() == "h_over_J linear -2 2 5"
        assert spec.axes[1].values == (0.2, 0.5, 0.7)

    def test_inline_comments_stripped(self, tmp_path):
        text = self.GOOD.replace("gamma = 0.5", "gamma = 0.5  # anisotropy")
        spec = read_sweep_config(self.write(tmp_path, text))
        assert spec.fixed["gamma"] == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="no_such.ini"):
            read_sweep_config(tmp_path / "no_such.ini")

    def test_unknown_section(self, tmp_path):
        # [DEFAULT] is a section like any other, not defaults for the rest.
        for text, section in ((self.GOOD + "\n[plot]\n", "plot"),
                              ("[DEFAULT]\n" + self.GOOD, "DEFAULT"),
                              ("[DEFAULT]\nspacing = log\n" + self.GOOD, "DEFAULT")):
            with pytest.raises(SweepConfigError,
                               match=rf"^unknown config section: \[{section}\]$"):
                read_sweep_config(self.write(tmp_path, text))

    def test_missing_axis1(self, tmp_path):
        for text in ("[fixed]\ngamma = 1\n",
                     "[axis2]\nname = T_over_J\nvalues = 0.2 0.5\n"):
            with pytest.raises(SweepConfigError,
                               match=r"must define an \[axis1\] section"):
                read_sweep_config(self.write(tmp_path, text))

    def test_unknown_axis_key(self, tmp_path):
        text = self.GOOD.replace("n_points = 5", "n_points = 5\ncenter = 0")
        with pytest.raises(SweepConfigError, match="'center'"):
            read_sweep_config(self.write(tmp_path, text))

    def test_values_mixed_with_range(self, tmp_path):
        text = self.GOOD.replace("values = 0.2 0.5 0.7",
                                 "values = 0.2 0.5\nstart = 0.1")
        with pytest.raises(SweepConfigError,
                           match=r"^\[axis2\] mixes 'values' with 'start'$"):
            read_sweep_config(self.write(tmp_path, text))

    def test_missing_axis_name(self, tmp_path):
        text = self.GOOD.replace("name = h_over_J\n", "")
        with pytest.raises(SweepConfigError, match="'name'"):
            read_sweep_config(self.write(tmp_path, text))

    def test_bad_float(self, tmp_path):
        # "%" is an ordinary character: no interpolation, no configparser error.
        for old, new, message in (
                ("gamma = 0.5", "gamma = strong",
                 "[fixed] gamma: could not convert string to float: 'strong'"),
                ("gamma = 0.5", "gamma = 5%",
                 "[fixed] gamma: could not convert string to float: '5%'"),
                ("stop = 2", "stop = %(start)s",
                 "[axis1] stop: could not convert string to float: '%(start)s'")):
            with pytest.raises(SweepConfigError) as exc:
                read_sweep_config(self.write(tmp_path, self.GOOD.replace(old, new)))
            assert str(exc.value) == message

    # Every CSV carries all five measures, so a `measures` selection is
    # refused rather than silently ignored.
    @pytest.mark.parametrize("line, key", [("threads = 4", "threads"),
                                           ("measures = qd, tdd", "measures")],
                             ids=["threads", "measures"])
    def test_unknown_sweep_key(self, tmp_path, line, key):
        text = self.GOOD.replace("oracle_every = 3", line)
        with pytest.raises(SweepConfigError,
                           match=rf"unknown key '{key}' in \[sweep\]"):
            read_sweep_config(self.write(tmp_path, text))

    def test_validation_still_applies(self, tmp_path):
        text = self.GOOD.replace("gamma = 0.5\n", "")
        with pytest.raises(SweepConfigError, match="'gamma'"):
            read_sweep_config(self.write(tmp_path, text))
