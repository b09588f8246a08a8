"""Parameter sweeps over coupling/temperature grids with deterministic CSV output.

A sweep is described by a SweepSpec: values for the five reduced
parameters (J0_over_J, T_over_J, h_over_J, gamma, Jz_over_J), one or
two of them promoted to grid axes. Grids are evaluated in chunks of
whole grid lines that bound the memory of the intermediate arrays, and
both the evaluation and the CSV formatting run on every usable core, each
process over one contiguous range of rows. Rows are always emitted in
row-major axis order, so the bytes do not depend on the core count.
"""
from __future__ import annotations

import ctypes
import math
import mmap
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .measures import x_state_measures
from .model import check_beta_energy, thermal_entries_grid
from .params import DimerDensityMatrix

PARAM_NAMES = ("J0_over_J", "T_over_J", "h_over_J", "gamma", "Jz_over_J")
MEASURE_NAMES = ("qd", "tdd", "concurrence", "mutual_info", "entropy_ab")
CSV_COLUMNS = PARAM_NAMES + MEASURE_NAMES + ("rho_eig_min", "psd_flag")
PRESET_NAMES = ("fig2a", "fig2b", "fig2c", "fig2d",
                "fig3a", "fig3b", "fig4a", "fig4b", "fig5")
DEFAULT_PROMINENCE = 0.005
T_AXIS_FLOOR = 0.02

_CHUNK_SIZE = 1 << 14
_CSV_BLOCK = 4096
_TABLE_KEYS = ("qd", "tdd", "concurrence", "mutual_info", "entropy_ab",
               "eig_min", "psd_flag")

# The byte slots of one field written by `_fmt_bytes`, three 8-byte words:
# a free slot, then the sign, the "0." to "0.000" prefix of -4 <= X <= -1,
# the leading digit and the point, at most seven bytes set flush right;
# the digits d1..d8; d9..d11 and the "e-XX" or "e-XXX" suffix of X < -4.
# The writer puts the comma before the field into the free slot. Unused
# slots hold NUL, which the writer deletes.
_FIELD = 24
_MIN_FAST = 1e-290          # below this, 10**(11 - X) would overflow
_MAX_E = 291                # largest -X the exponent correction can reach
_POW10 = np.array([float("1e%d" % k) for k in range(12 + _MAX_E)])


def _byte_tables():
    """The formatter's lookup tables, built with array arithmetic. With
    e = -X, and "stripped" meaning with trailing zeros turned to NUL:

    lead    the first word, at ((e * 2 + sign) * 10 + d0) * 2 + 1 if the
            point is dropped (d1..d11 all zero), else + 0; its set bytes
            are moved flush right, so byte 0 stays free
    quads   four digits k < 10**4 as one uint32 at k, stripped at 10**4 + k
    triples three digits k < 1000 and a NUL as one uint32, stripped
    suffix  the third word with its digit slots empty, at e
    """
    k = np.arange(10 ** 4, dtype=np.int16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1) + 48
    zeros = np.stack([k % 10 ** j == 0 for j in range(1, 5)]).sum(axis=0, dtype=np.int16)
    quads = np.vstack([digits, np.where(np.arange(4) < 4 - zeros[:, None], digits, 0)])
    triples = np.hstack([quads[10 ** 4:][:1000, 1:], np.zeros((1000, 1), np.int16)])
    e = np.arange(_MAX_E + 1)[:, None]
    fixed = (e >= 1) & (e <= 4)
    prefix = np.where(fixed & (np.arange(5) < e + 1), [48, 46, 48, 48, 48], 0).astype(np.uint8)
    exponent = np.hstack([e // 100, e // 10 % 10, e % 10]) + 48
    suffix = np.zeros((e.size, 8), dtype=np.uint8)
    suffix[:, 3:8] = np.where(e >= 5, np.hstack([
        np.full_like(e, 101), np.full_like(e, 45),
        np.where(e >= 100, exponent, np.roll(exponent, -1, axis=1))]), 0)
    suffix[:, 7] *= e[:, 0] >= 100
    i = np.arange(5 * 40, dtype=np.int32)  # e <= 4; each e >= 5 reads as e = 0
    lead = np.zeros((i.size, 8), dtype=np.uint8)
    lead[:, 0] = i // 20 % 2 * 45
    lead[:, 1:6] = prefix[i // 40]
    lead[:, 6] = i // 2 % 10 + 48
    lead[:, 7] = ~fixed[i // 40, 0] * (i % 2 == 0) * 46
    lead = np.take_along_axis(lead, np.argsort(lead != 0, axis=1, kind="stable"), axis=1)
    i = np.arange(e.size * 40)
    lead = lead[np.where(i < lead.shape[0], i, i % 40)]
    return (lead.view(np.uint64).ravel(),
            quads.astype(np.uint8).view(np.uint32).ravel(),
            triples.astype(np.uint8).view(np.uint32).ravel(),
            suffix.view(np.uint64).ravel())


_LEAD, _QUADS, _TRIPLES, _SUFFIX = _byte_tables()


class SweepConfigError(ValueError):
    """Raised when a sweep specification or config file is invalid."""


def _fmt(value: float) -> str:
    return "%.12g" % float(value)


def _fmt_bytes(values: np.ndarray) -> np.ndarray:
    """"%.12g" of each float64 in `values`, as an (n, `_FIELD`) uint8 matrix
    whose row, with its NUL bytes deleted, reads exactly as `_fmt` writes it.
    Column 0 is NUL in every row, a free slot for the caller.

    Zero and each 1e-290 <= |v| < 10 are formatted with array operations
    wherever one inequality proves their rounding exact. The decimal
    exponent X comes from log10, corrected by one where the scaled value
    leaves [1e11, 1e12). Then y = |v| * 10**(11 - X), with 10**k the
    correctly rounded power, lies within 2**-52 * y < 2.3e-4 of the exact
    scaled value, so where |y - rint(y)| < 0.499 the integer m = rint(y)
    is the exactly rounded 12-digit mantissa, as "%.12g" takes it. An m of
    10**12 is carried to 10**11 at exponent X + 1. The sign comes from the
    sign bit, so -0.0 reads "-0". Every other value goes through `_fmt`,
    one at a time: nan, +-inf, |v| >= 10 (or a carry to 10),
    0 < |v| < 1e-290 and the values within 0.001 of a rounding tie."""
    v = np.ravel(values)
    a = np.abs(v)
    zero = a == 0
    fast = zero | ((a >= _MIN_FAST) & (a < 10))
    a[~fast | zero] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[11 - x]
    x += (y >= 1e12).astype(np.int64) - (y < 1e11)
    np.multiply(a, _POW10[11 - x], out=y)
    m = np.rint(y)
    fast &= (np.abs(y - m) < 0.499) & (m >= 1e11) & (m <= 1e12)
    carry = m == 1e12
    x += carry
    fast &= x <= 0
    m[carry] = 1e11
    m[zero] = 0
    # Arrays are freed once spent: a block formats 24,576 values at once.
    del a, y
    # e = -X; the mantissa's digits are d0, then d1..d11 in groups of
    # four, four and three
    e = np.where(fast, -x, 0)
    del x
    m = m.astype(np.int64)
    lead = m // 10 ** 11
    m -= lead * 10 ** 11
    lead += (e * 2 + np.signbit(v)) * 10
    lead *= 2
    lead += m == 0
    words = np.empty((v.size, 3), dtype=np.uint64)
    quads = words.view(np.uint32)
    words[:, 0] = np.take(_LEAD, lead)
    words[:, 2] = np.take(_SUFFIX, e)
    del e, lead
    d1 = m // 1000
    m -= d1 * 1000
    quads[:, 4] |= np.take(_TRIPLES, m)
    z9 = m == 0
    del m
    # d5..d8 without int64 %, several times slower than //
    d5 = d1.copy()
    d1 //= 10 ** 4
    d5 -= d1 * 10 ** 4
    quads[:, 3] = np.take(_QUADS, d5 + z9 * 10 ** 4)
    quads[:, 2] = np.take(_QUADS, d1 + (z9 & (d5 == 0)) * 10 ** 4)
    out = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(_fmt(w).encode().ljust(_FIELD - 1, b"\0")
                        for w in v[slow].tolist())
        out[slow, 1:] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD - 1)
    return out


@dataclass(frozen=True)
class Axis:
    """One swept parameter: an evenly spaced range or an explicit value list."""
    name: str
    start: float
    stop: float
    n_points: int
    spacing: str = "linear"
    values: tuple = None

    @classmethod
    def from_values(cls, name: str, values) -> "Axis":
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise SweepConfigError(f"axis {name}: need at least 2 values, got {len(vals)}")
        return cls(name=name, start=min(vals), stop=max(vals),
                   n_points=len(vals), spacing="values", values=vals)

    def check(self) -> None:
        if self.name not in PARAM_NAMES:
            raise SweepConfigError(f"unknown parameter name on axis: {self.name!r}")
        if self.spacing not in ("linear", "log", "values"):
            raise SweepConfigError(f"axis {self.name}: unknown spacing {self.spacing!r}")
        if self.values is not None and self.spacing != "values":
            raise SweepConfigError(f"axis {self.name}: values given with {self.spacing!r} spacing")
        if not isinstance(self.n_points, numbers.Integral):
            raise SweepConfigError(f"axis {self.name}: n_points must be an integer, "
                                   f"got {self.n_points!r}")
        if self.n_points < 2:
            raise SweepConfigError(f"axis {self.name}: n_points must be >= 2, got {self.n_points}")
        if self.spacing == "values":
            if self.values is None or len(self.values) != self.n_points:
                raise SweepConfigError(f"axis {self.name}: values list does not match n_points")
            points, what = self.values, "values"
        else:
            points, what = (self.start, self.stop), "start/stop"
        for v in points:
            if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise SweepConfigError(f"axis {self.name}: {what} must be finite "
                                       f"real numbers, got {v!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise SweepConfigError(f"axis {self.name}: log spacing needs positive bounds")

    def grid(self) -> np.ndarray:
        if self.spacing == "values":
            return np.asarray(self.values, dtype=float)
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(float(self.start), float(self.stop), self.n_points)

    def describe(self) -> str:
        if self.spacing == "values":
            return " ".join([self.name, "values"] + [_fmt(v) for v in self.values])
        return " ".join([self.name, self.spacing, _fmt(self.start),
                         _fmt(self.stop), str(self.n_points)])


@dataclass
class SweepSpec:
    """Full description of one sweep: fixed parameters plus one or two axes."""
    fixed: dict
    axes: tuple
    oracle_check: int = None

    def validate(self) -> "SweepSpec":
        if not (1 <= len(self.axes) <= 2):
            raise SweepConfigError(f"need 1 or 2 axes, got {len(self.axes)}")
        axis_names = [ax.name for ax in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise SweepConfigError(f"duplicate axis parameter: {axis_names}")
        for ax in self.axes:
            ax.check()
        for name, value in self.fixed.items():
            if name not in PARAM_NAMES:
                raise SweepConfigError(f"unknown parameter name in fixed block: {name!r}")
            if name in axis_names:
                raise SweepConfigError(f"parameter {name!r} is both fixed and an axis")
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise SweepConfigError(f"fixed {name} must be a finite real, got {value!r}")
        for name in PARAM_NAMES:
            if name not in self.fixed and name not in axis_names:
                raise SweepConfigError(f"parameter {name!r} is neither fixed nor an axis")
        every = self.oracle_check
        if every is not None and not isinstance(every, numbers.Integral):
            raise SweepConfigError(f"oracle_check must be an integer, got {every!r}")
        if every is not None and every < 1:
            raise SweepConfigError(f"oracle_check must be >= 1, got {every}")
        try:
            grids = _grids(self)
        except (MemoryError, ValueError) as exc:  # ValueError: past any size
            rows = math.prod(ax.n_points for ax in self.axes)
            raise SweepConfigError(f"a sweep of {rows} rows is too large: {exc}") from None
        if np.min(grids[1]) <= 0.0:
            raise SweepConfigError("T_over_J <= 0 in grid")
        # The overflow scale grows with each |coupling| and with 1 / T, so the
        # grid's worst point pairs the largest magnitudes with the smallest T.
        worst = [np.max(np.abs(grid)) for grid in grids]
        worst[1] = np.min(grids[1])
        try:
            check_beta_energy(*worst)
        except ValueError as exc:
            raise SweepConfigError(str(exc)) from None
        return self


@dataclass
class SweepResult:
    """Evaluated sweep: measure table, header metadata, diagnostics."""
    spec: SweepSpec
    table: np.ndarray           # shape (n, 7), columns qd..entropy_ab, eig_min, psd_flag
    header: dict
    diagnostics: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """CSV column `name` of every row: a parameter's grid gathered at the
        rows' `_grid_indices`, or a column of `table`."""
        if name not in CSV_COLUMNS:
            raise KeyError(name)
        k = CSV_COLUMNS.index(name)
        if k >= len(PARAM_NAMES):
            return self.table[:, k - len(PARAM_NAMES)]
        rows = np.arange(self.table.shape[0])
        index = _grid_indices(self.spec, rows)[k]
        return _grids(self.spec)[k][np.broadcast_to(index, rows.shape)]

    def line(self, axis_name: str, **fixed_coords):
        """Extract (x, y-dict) along one axis over the rows where each pinned
        column lies within 1e-9 of its value, sorted stably by x."""
        mask = np.ones(self.table.shape[0], dtype=bool)
        for name, value in fixed_coords.items():
            mask &= np.isclose(self.column(name), value, rtol=0.0, atol=1e-9)
        x = self.column(axis_name)[mask]
        order = np.argsort(x, kind="stable")
        ys = {m: self.column(m)[mask][order] for m in MEASURE_NAMES}
        return x[order], ys


def _grids(spec: SweepSpec) -> list:
    """Each parameter's grid, in PARAM_NAMES order: an axis's points, or
    its fixed value as a one-point grid."""
    on_axes = {ax.name: ax.grid() for ax in spec.axes}
    return [on_axes[name] if name in on_axes else np.array([float(spec.fixed[name])])
            for name in PARAM_NAMES]


def _grid_indices(spec: SweepSpec, rows: np.ndarray) -> list:
    """Each parameter's index into its grid in `_grids(spec)` at `rows`: the
    one map from rows to grid points. Row r of a two-axis sweep lies at
    (r // n2, r % n2) on its axes, n2 being the second axis's point count,
    and at r on a single axis; a fixed parameter lies at 0."""
    on_axes = divmod(rows, spec.axes[1].n_points) if len(spec.axes) == 2 else (rows,)
    at = {ax.name: index for ax, index in zip(spec.axes, on_axes)}
    return [at.get(name, 0) for name in PARAM_NAMES]


def grid_coords(spec: SweepSpec, grids: list, rows: np.ndarray) -> np.ndarray:
    """The coordinates of `rows`, one column per parameter; `grids` is `_grids(spec)`."""
    return np.column_stack([np.broadcast_to(grid[index], len(rows))
                            for grid, index in zip(grids, _grid_indices(spec, rows))])


def _block_coords(spec: SweepSpec, grids: list, lines: slice, cols: slice) -> list:
    """The coordinates of the block `lines` x `cols` of the axis grid, in
    PARAM_NAMES order: the first axis's values as a (lines, 1) column, the
    second's as a (1, cols) row, each fixed value as a scalar."""
    at = dict(zip((ax.name for ax in spec.axes), ((lines, None), (None, cols))))
    return [grid[at[name]] if name in at else grid[0]
            for name, grid in zip(PARAM_NAMES, grids)]


def _chunk_measures(coords: list, out: np.ndarray) -> None:
    """Evaluate the block of grid lines at `coords` (`_block_coords`) into
    its (rows, 7) slice of the table, in row-major order."""
    vals = x_state_measures(*(e.ravel() for e in thermal_entries_grid(*coords)))
    for k, key in enumerate(_TABLE_KEYS):
        out[:, k] = vals[key]


def _build_header(spec: SweepSpec, seed: int, n_rows: int,
                  diagnostics: dict, label: str = None) -> dict:
    from . import __version__
    header = {"format": "diamondqc-sweep-v1", "version": __version__}
    if label:
        header["preset"] = label
    header["seed"] = str(int(seed))
    header["measures"] = ",".join(MEASURE_NAMES)
    for i, ax in enumerate(spec.axes, start=1):
        header[f"axis{i}"] = ax.describe()
    for name in PARAM_NAMES:
        if name in spec.fixed:
            header[f"fixed_{name}"] = _fmt(spec.fixed[name])
    if spec.oracle_check is not None:
        header["oracle_every"] = str(int(spec.oracle_check))
        checks = diagnostics.get("oracle", [])
        header["oracle_points"] = str(len(checks))
        header["oracle_max_qd_residual"] = "%.6e" % max(
            (c[1] for c in checks), default=0.0)
        header["oracle_max_tdd_residual"] = "%.6e" % max(
            (c[2] for c in checks), default=0.0)
    header["n_rows"] = str(n_rows)
    header["psd_violations"] = str(diagnostics.get("psd_violations", 0))
    return header


def run_sweep(spec: SweepSpec, seed: int = 0, label: str = None) -> SweepResult:
    """Evaluate every grid point of a validated spec.

    Rows are evaluated in chunks, each into its slice of one (n, 7) table in
    a shared anonymous mapping. A chunk is max(1, `_CHUNK_SIZE` // n2) whole
    lines of the second axis (n2 points, 1 on a single axis), at coordinates
    from `_block_coords`, so the model computes each term of one parameter
    once per axis value; a line longer than `_CHUNK_SIZE` is cut into pieces
    of that many columns. The chunks are cut into `_ranges` contiguous
    ranges: this process evaluates the first, and a forked child each other
    range. Every row depends on its own coordinates only, so neither the
    chunk shape nor the number of ranges changes the result. Once every
    range is done, the oracle spot checks are searched on every usable
    core through `_search_states`, the tdd search of the states that no
    start settles split by (state, start) pair, and their residuals are
    taken here; each state's search value is that of a search over it
    alone, so the diagnostics and the CSV bytes do not depend on the core
    count either. Each PSD violation is recorded in
    the diagnostics but the offending row is still reported. A seed that
    is not a non-negative integer is refused, as NumPy's would be.
    """
    spec.validate()
    if not isinstance(seed, numbers.Integral):
        raise SweepConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise SweepConfigError(f"seed must be >= 0, got {seed}")
    n = math.prod(ax.n_points for ax in spec.axes)
    width = len(_TABLE_KEYS)
    try:
        table = np.frombuffer(mmap.mmap(-1, n * width * 8), dtype=float).reshape(n, width)
    except OSError as exc:
        raise SweepConfigError(f"a sweep of {n} rows is too large: {exc}") from None
    grids = _grids(spec)
    # A chunk's 16,384-float temporaries are 128 KiB, glibc's first mmap
    # threshold: each is mapped and faulted in afresh unless a large free has
    # raised it. So, for the whole process, keep blocks under 32 MiB on the heap
    # (M_MMAP_THRESHOLD, -3) and trim it only past 64 MiB (M_TRIM_THRESHOLD, -1).
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.mallopt(-3, 32 << 20)
        libc.mallopt(-1, 64 << 20)

    n2 = spec.axes[1].n_points if len(spec.axes) == 2 else 1
    lines = max(1, _CHUNK_SIZE // n2)

    def evaluate(k, a, b):
        for i in range(a // n2, b // n2, lines):
            last = min(i + lines, b // n2)
            for j in range(0, n2, _CHUNK_SIZE):
                end = min(j + _CHUNK_SIZE, n2)
                _chunk_measures(_block_coords(spec, grids, slice(i, last), slice(j, end)),
                                table[i * n2 + j:(last - 1) * n2 + end])

    _run_ranges(_ranges(n, lines * n2), evaluate)

    diagnostics = {"psd_violations": int(np.sum(table[:, 6] < 0.5))}
    if spec.oracle_check is not None:
        idxs = np.arange(0, n, min(int(spec.oracle_check), n))
        entries = thermal_entries_grid(*grid_coords(spec, grids, idxs).T)
        states = [DimerDensityMatrix(*(float(e[i]) for e in entries))
                  for i in range(idxs.size)]
        tdd, qd = _search_states(states, tdd=True, qd=True, seed=seed)
        qd_res = np.abs(table[idxs, 0] - qd)
        tdd_res = np.abs(table[idxs, 1] - tdd)
        diagnostics["oracle"] = [(idx, float(a), float(b)) for idx, a, b
                                 in zip(idxs.tolist(), qd_res, tdd_res)]

    header = _build_header(spec, seed, n, diagnostics, label=label)
    return SweepResult(spec=spec, table=table, header=header, diagnostics=diagnostics)


def _grid_fields(spec: SweepSpec) -> list:
    """Each parameter's grid values as rows of `_fmt_bytes`, a comma in the
    free first slot (none in the first column), unused trailing slots cut."""
    fields = []
    for grid in _grids(spec):
        text = np.concatenate([_fmt_bytes(grid[i:i + _CSV_BLOCK])
                               for i in range(0, grid.size, _CSV_BLOCK)])
        text[:, 0] = ord(",")
        fields.append(text[:, :np.flatnonzero(text.any(axis=0))[-1] + 1])
    fields[0] = fields[0][:, 1:]
    return fields


def _write_rows(fh, spec: SweepSpec, fields: list, table: np.ndarray,
                a: int, b: int) -> None:
    """Write rows a..b-1 of a sweep of `spec` to the binary file `fh`, a block
    of `_CSV_BLOCK` rows at a time, into one byte matrix allocated once: each
    parameter's field gathered from `_grid_fields` at the rows'
    `_grid_indices`, then the table's, formatted by `_fmt_bytes` with a comma
    in each free first slot, and a newline. NUL bytes are deleted."""
    width = sum(f.shape[1] for f in fields) + table.shape[1] * _FIELD + 1
    block = np.empty(_CSV_BLOCK * width, dtype=np.uint8)
    for i in range(a, b, _CSV_BLOCK):
        j = min(i + _CSV_BLOCK, b)
        rows = block[:(j - i) * width].reshape(j - i, width)
        start = 0
        for text, index in zip(fields, _grid_indices(spec, np.arange(i, j))):
            rows[:, start:start + text.shape[1]] = text[index]
            start += text.shape[1]
        rows[:, start:-1] = _fmt_bytes(table[i:j]).reshape(j - i, -1)
        rows[:, start:-1:_FIELD] = ord(",")
        rows[:, -1] = ord("\n")
        fh.write(rows.tobytes().translate(None, b"\0"))


def _ranges(n: int, unit: int) -> list:
    """Cuts [0, ..., n] of `n` rows into contiguous ranges of whole
    `unit`-row units (the last unit may be partial): one range per usable
    core, with at least two units each. Only Linux has the unnamed files
    the CSV writers hand their rows back in (and fork, the core mask and
    sendfile to any output); elsewhere there is one range."""
    units = -(-n // unit)
    count = 1
    if hasattr(os, "memfd_create"):
        count = max(1, min(len(os.sched_getaffinity(0)), units // 2))
    return [min(n, k * units // count * unit) for k in range(count)] + [n]


def _run_ranges(cuts: list, work, collect=None, items: str = "rows") -> None:
    """Run work(k, a, b) on each range [a, b) between consecutive `cuts`:
    ranges 1.. each in a forked child, then range 0 in this process. The
    children are reaped in row order, and collect(k) runs here after child
    k has exited with status 0. A child leaves through os._exit, with
    status 0 once its work is done and 1 on any error, so it runs none of
    the parent's exit handlers and flushes none of its buffers. Every child
    is reaped on every path; a failed child raises OSError naming its range
    ("`items` a to b") and exit status. With one range nothing is forked.
    A child keeps only the thread that forked it, so `work` may call only
    into libraries that survive that. NumPy's OpenBLAS does: it registers a
    fork handler that stops its thread pool before each fork, and starts
    the pool again when a call needs it, so `work` may call BLAS and LAPACK
    (the oracle searches' 4x4 eigen-solves run in the calling thread in any
    case). A library that keeps worker threads across a fork without such
    a handler must not be called in `work`."""
    spans = list(zip(cuts, cuts[1:]))
    pids = []
    try:
        for k, (a, b) in enumerate(spans[1:], start=1):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    work(k, a, b)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        work(0, *spans[0])
        for k, (a, b) in enumerate(spans[1:], start=1):
            status = os.waitpid(pids[k - 1], 0)[1]
            pids[k - 1] = None
            if status:
                raise OSError(f"process for {items} {a} to {b} exited with "
                              f"status {os.waitstatus_to_exitcode(status)}")
            if collect is not None:
                collect(k)
    finally:
        for pid in pids:
            if pid is not None:
                os.waitpid(pid, 0)


def _search_states(states: list, tdd: bool = False, qd: bool = False,
                   seed: int = 0) -> tuple:
    """The oracle values of `states`, computed on every usable core: those
    of `tdd_bruteforce(state, seed=seed)` if `tdd` and of
    `qd_bruteforce(state)` if `qd`, as a pair (tdd, qd) of arrays of
    len(states) floats, None for a search not asked for. A seed of None
    draws fresh starts, once, here, so every range searches the same ones.

    Every state is validated here first (`DimerDensityMatrix.validate`,
    the input check the search oracles apply to it), so a state they
    refuse raises its ValueError in this process before anything is
    forked. Here too `cq_search._settle` settles the states that a tdd
    start already reproduces, as `tdd_bruteforce` does, and only the
    other states' (state, start) pairs, 8 per state
    (`cq_search._search_pairs`), are cut into `_ranges`; if no pair is
    left, the qd searches' states are. Range j of the count takes the qd
    searches of states j * m // count to (j + 1) * m // count of the m
    states. This process searches the first range and a forked child
    each other range, each range writing its pairs' final distances and
    its qd values into one array in a shared anonymous mapping. This
    process then takes each searched state's best start
    (`cq_search._best_starts`), so a warning that the starts of a state
    disagree is raised here, once per searched state. The settle rule
    reads only a state's own starts and no search rule looks past one
    pair, so the values do not depend on the number of ranges, and with
    one range nothing is forked. A failed child raises the OSError of
    `_run_ranges`, naming its range of units.
    """
    from .oracle import qd_bruteforce
    from .oracle.cq_search import _best_starts, _search_pairs, _settle, _starts

    for state in states:
        state.validate()
    m = len(states)
    tdd_values, pairs = None, 0
    if tdd:
        ms, starts = _starts(states, seed)
        tdd_values, settled = _settle(ms, starts)
        searched = np.flatnonzero(~settled)
        ms, starts = ms[searched], starts[searched]
        k = starts.shape[1]
        pairs = searched.size * k
    values = np.ndarray(pairs + m, buffer=mmap.mmap(-1, 8 * max(1, pairs + m)))
    finals, qd_values = values[:pairs], values[pairs:]
    cuts = _ranges(pairs or (m if qd else 0), 1)
    count = len(cuts) - 1

    def search(j, a, b):
        if pairs:
            finals[a:b] = _search_pairs(ms, starts, a, b)
        if qd:
            for i in range(j * m // count, (j + 1) * m // count):
                qd_values[i] = qd_bruteforce(states[i])

    _run_ranges(cuts, search, items="(state, start) pairs" if pairs else "states")
    if pairs:
        tdd_values[searched] = _best_starts(finals.reshape(-1, k))
    return tdd_values, qd_values if qd else None


def _append(out_fd: int, fd: int) -> None:
    """Append the whole file `fd` to `out_fd` in the kernel; `out_fd` may be
    a pipe."""
    size, offset = os.fstat(fd).st_size, 0
    while offset < size:
        offset += os.sendfile(out_fd, fd, offset, size - offset)


def emit_csv(result: SweepResult, path) -> None:
    """Write a sweep as `# key = value` header lines plus one CSV row per point.

    Floats are written as "%.12g" writes them; rows follow row-major axis
    order; the file is newline-terminated and carries no timestamp, so a
    rerun of the same spec and seed is byte-identical. Rows are formatted
    by `_write_rows` on every usable core: the body is cut at `_CSV_BLOCK`
    boundaries into `_ranges` contiguous row ranges. This process writes
    the first range straight to `path`; each other range is written by a
    forked child into an unnamed file, which is appended to `path` in row
    order once the child has exited. The bytes do not depend on the number
    of writers, and `path` may be a pipe such as /dev/stdout.
    """
    spec, table = result.spec, result.table
    fields = _grid_fields(spec)
    cuts = _ranges(table.shape[0], _CSV_BLOCK)
    fds = []

    def write(k, a, b):
        with open(fds[k - 1] if k else fh.fileno(), "wb", closefd=False) as part:
            _write_rows(part, spec, fields, table, a, b)

    try:
        with open(path, "wb") as fh:
            head = "".join(f"# {key} = {value}\n"
                           for key, value in result.header.items())
            fh.write((head + ",".join(CSV_COLUMNS) + "\n").encode())
            fh.flush()
            try:
                for _ in cuts[2:]:
                    fds.append(os.memfd_create("diamondqc-csv"))
                _run_ranges(cuts, write,
                            lambda k: _append(fh.fileno(), fds[k - 1]))
            finally:
                for fd in fds:
                    os.close(fd)
    except OSError as exc:
        raise OSError(f"failed to write sweep CSV to {path}: {exc}") from exc


def prominent_peaks(y, prominence: float) -> np.ndarray:
    """Indices of the peaks of `y` whose topographic prominence is at least
    `prominence`, by the rules of `scipy.signal.find_peaks`.

    A peak is a sample, or a plateau of equal samples, with a strictly lower
    neighbor on each side; a plateau counts once, at its middle index (the
    left one of the two middles when its width is even). The first and last
    samples are never peaks. On each side the base is the lowest sample
    between the peak and the nearest strictly higher sample, or the series'
    end if there is none; the prominence is the peak minus the higher base.
    """
    y = np.asarray(y, dtype=float)
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    ends = np.r_[starts[1:], y.size] - 1
    v = y[starts]
    runs = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    keep = []
    for p in (starts[runs] + ends[runs]) // 2:
        above = np.flatnonzero(~(y <= y[p]))
        k = np.searchsorted(above, p)
        lo = above[k - 1] + 1 if k else 0
        hi = above[k] if k < above.size else y.size
        if y[p] - max(y[lo:p + 1].min(), y[p:hi].min()) >= prominence:
            keep.append(p)
    return np.array(keep, dtype=int)


def count_peaks(series, prominence: float) -> int:
    """Number of peaks of a sorted (x, y) series whose prominence is at least
    `prominence`; see `prominent_peaks` for the rules, which count a
    plateau once and never count an end point."""
    if prominence <= 0:
        raise ValueError(f"prominence must be positive, got {prominence}")
    pts = np.asarray(series, dtype=float)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points to count peaks, got {len(pts)}")
    xs, ys = pts.T
    if np.any(np.diff(xs) < 0):
        raise ValueError("series must be sorted by x")
    return int(prominent_peaks(ys, prominence).size)


def figure_preset(name: str, n_points: int = 201) -> SweepSpec:
    """Named sweep presets for the reproduced datasets.

    The 'a'/'b' suffix pairs (and the 'c'/'d' pair) share one dataset
    and differ only in which measure a downstream plot would draw, so
    they map to identical specs.
    """
    if name not in PRESET_NAMES:
        raise SweepConfigError(f"unknown preset name: {name!r}")
    if name in ("fig2a", "fig2b", "fig2c", "fig2d"):
        if name in ("fig2a", "fig2b"):
            fixed = {"Jz_over_J": 0.0, "gamma": 0.95, "h_over_J": 0.27}
        else:
            fixed = {"Jz_over_J": 0.3, "gamma": 0.6, "h_over_J": 0.35}
        axes = (Axis("J0_over_J", -2.0, 2.0, n_points),
                Axis("T_over_J", T_AXIS_FLOOR, 2.0, n_points))
    elif name in ("fig3a", "fig3b", "fig4a", "fig4b"):
        fixed = {"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3}
        t_values = (0.2, 0.5, 0.7, 1.5) if name.startswith("fig3") else (0.5, 1.0)
        axes = (Axis("h_over_J", -2.0, 2.0, n_points),
                Axis.from_values("T_over_J", t_values))
    else:  # fig5
        fixed = {"J0_over_J": -0.3, "Jz_over_J": 0.3, "h_over_J": 0.5}
        axes = (Axis("gamma", -8.0, 8.0, n_points),
                Axis("T_over_J", T_AXIS_FLOOR, 2.0, n_points))
    return SweepSpec(fixed=fixed, axes=axes).validate()


def with_oracle_check(spec: SweepSpec, every: int) -> SweepSpec:
    """`spec` with an oracle spot check on every `every`-th row; `every` is
    kept as given, so `SweepSpec.validate` refuses one that is not an
    integer >= 1."""
    return replace(spec, oracle_check=every)


_AXIS_KEYS = ("name", "start", "stop", "n_points", "spacing", "values")
# The keys each config section allows; [fixed] takes any key, as
# `SweepSpec.validate` checks its names against PARAM_NAMES.
_CONFIG_KEYS = {"sweep": ("oracle_every",), "fixed": None,
                "axis1": _AXIS_KEYS, "axis2": _AXIS_KEYS}


def read_sweep_config(path) -> SweepSpec:
    """Parse a flat key-value config file with [sweep]/[fixed]/[axis1]/[axis2]
    sections into a validated SweepSpec."""
    import configparser  # here, so that preset sweeps do not import it

    # No section can be named "", so [DEFAULT] is an unknown section like
    # any other; with no interpolation, "%" is an ordinary character.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       default_section="", interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise OSError(f"cannot read sweep config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise SweepConfigError(f"malformed sweep config {path}: {exc}") from exc

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for section, items in sections.items():
        if section not in _CONFIG_KEYS:
            raise SweepConfigError(f"unknown config section: [{section}]")
        for key in items:
            if _CONFIG_KEYS[section] is not None and key not in _CONFIG_KEYS[section]:
                raise SweepConfigError(f"unknown key {key!r} in [{section}]")
    if "axis1" not in sections:
        raise SweepConfigError("config must define an [axis1] section")

    def get(section: str, key: str, kind=str.strip):
        if key not in sections[section]:
            raise SweepConfigError(f"[{section}] is missing the {key!r} key")
        try:
            return kind(sections[section][key])
        except ValueError as exc:
            raise SweepConfigError(f"[{section}] {key}: {exc}") from exc

    def parse_axis(section: str) -> Axis:
        items = sections[section]
        name = get(section, "name")
        if "values" in items:
            for key in ("start", "stop", "n_points", "spacing"):
                if key in items:
                    raise SweepConfigError(f"[{section}] mixes 'values' with {key!r}")
            return Axis.from_values(name, get(section, "values", lambda s: [
                float(v) for v in s.replace(",", " ").split()]))
        return Axis(name=name, start=get(section, "start", float),
                    stop=get(section, "stop", float),
                    n_points=get(section, "n_points", int),
                    spacing=get(section, "spacing") if "spacing" in items else "linear")

    axes = tuple(parse_axis(s) for s in ("axis1", "axis2") if s in sections)
    fixed = {key: get("fixed", key, float) for key in sections.get("fixed", ())}
    sweep = sections.get("sweep", {})
    oracle_check = get("sweep", "oracle_every", int) if "oracle_every" in sweep else None
    return SweepSpec(fixed=fixed, axes=axes, oracle_check=oracle_check).validate()
