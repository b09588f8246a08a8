"""Parameter sweeps over coupling/temperature grids with deterministic CSV output.

A sweep is described by a SweepSpec: values for the five reduced
parameters (J0_over_J, T_over_J, h_over_J, gamma, Jz_over_J), one or
two of them promoted to grid axes. Grids are evaluated in fixed-size
chunks that bound the memory of the intermediate arrays, and both the
evaluation and the CSV formatting run on every usable core, each process
over one contiguous range of rows. Rows are always emitted in row-major
axis order, so the bytes do not depend on the core count.
"""
from __future__ import annotations

import mmap
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
# emit_csv formats rows a block at a time into one reusable byte matrix of
# `_CSV_BLOCK` rows, a field of at most `_FIELD` bytes plus a separator per
# column, at most 1.2 MB. A large body is cut at block boundaries into one
# contiguous row range per writer process, as the grid is cut at chunk
# boundaries into one range per evaluator.
_CSV_BLOCK = 4096
_TABLE_KEYS = ("qd", "tdd", "concurrence", "mutual_info", "entropy_ab",
               "eig_min", "psd_flag")

# The byte slots of one field written by `_fmt_bytes`, three 8-byte words:
# the sign, the "0." to "0.000" prefix of -4 <= X <= -1, the leading digit
# and the point; the digits d1..d8; d9..d11 and the "e-XX" or "e-XXX"
# suffix of X < -4. Unused slots hold NUL, which the writer deletes.
_FIELD = 24
_MIN_FAST = 1e-290          # below this, 10**(11 - X) would overflow
_MAX_E = 291                # largest -X the exponent correction can reach


def _pow10_table():
    """10**k for each k <= 11 + `_MAX_E`, as a row of four floats: hi, the
    correctly rounded 10**k; hi_h and hi_l, its halves of at most 26 bits
    each (Veltkamp's split, taken at 2**-600 scale so that it cannot
    overflow); and lo, the float nearest to 10**k - hi."""
    ks = range(11 + _MAX_E + 1)
    hi = np.array([float("1e%d" % k) for k in ks])
    lo = np.array([float(10 ** k - int(h)) for k, h in zip(ks, hi.tolist())])
    scaled = np.ldexp(hi, -600)
    c = scaled * 134217729.0
    hi_h = np.ldexp(c - (c - scaled), 600)
    return np.stack([hi, hi_h, hi - hi_h, lo], axis=1)


_POW10 = _pow10_table()


def _byte_tables():
    """The formatter's lookup tables, built with array arithmetic. With
    e = -X, and "stripped" meaning with trailing zeros turned to NUL:

    lead    the first word, at ((e * 2 + sign) * 10 + d0) * 2 + 1 if the
            point is dropped (d1..d11 all zero), else + 0
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
    i = np.arange(e.size * 40, dtype=np.int32)
    lead = np.zeros((i.size, 8), dtype=np.uint8)
    lead[:, 0] = i // 20 % 2 * 45
    lead[:, 1:6] = prefix[i // 40]
    lead[:, 6] = i // 2 % 10 + 48
    lead[:, 7] = ~fixed[i // 40, 0] * (i % 2 == 0) * 46
    return (lead.view(np.uint64).ravel(),
            quads.astype(np.uint8).view(np.uint32).ravel(),
            triples.astype(np.uint8).view(np.uint32).ravel(),
            suffix.view(np.uint64).ravel())


_LEAD, _QUADS, _TRIPLES, _SUFFIX = _byte_tables()


class SweepConfigError(ValueError):
    """Raised when a sweep specification or config file is invalid."""


def _fmt(value: float) -> str:
    return "%.12g" % float(value)


def _half_step(a, k, y, m):
    """Round a * 10**k exactly where its float product y = a * hi lies in
    the guard band, within 0.001 of the half-integer next to m = rint(y).

    The exact value is y + err + a * (10**k - hi), where err, the rounding
    error of y, is exact by Dekker's product. So d = y - m + err + a * lo
    lies within 1.2e-16 of the exact distance from m. Returns the step
    (-1, 0 or 1) from m to the nearest integer, and whether it is certain:
    it is not only where |d| is within 1e-15 of 0.5, at an exact tie (such
    as 2**-18 at 12 digits) or all but one."""
    hi, hi_h, hi_l, lo = _POW10[k].T
    c = a * 134217729.0
    a_h = c - (c - a)
    a_l = a - a_h
    err = a_l * hi_l - (((y - a_h * hi_h) - a_l * hi_h) - a_h * hi_l)
    d = (y - m) + err + a * lo
    return (d > 0.5).astype(np.int64) - (d < -0.5), np.abs(np.abs(d) - 0.5) > 1e-15


def _fmt_bytes(values: np.ndarray) -> np.ndarray:
    """"%.12g" of each float64 in `values`, as an (n, `_FIELD`) uint8 matrix
    whose row, with its NUL bytes deleted, reads exactly as `_fmt` writes it.

    Zero and each 1e-290 <= |v| < 10 are formatted with array operations.
    The decimal exponent X comes from log10, corrected by one where the
    scaled value leaves [1e11, 1e12). Then y = |v| * 10**(11 - X), with
    10**k the correctly rounded power, lies within 2**-52 * y < 2.3e-4 of
    the exact scaled value, so where |y - rint(y)| < 0.499 the integer
    m = rint(y) is the exactly rounded 12-digit mantissa, as "%.12g" takes
    it. In the guard band beyond 0.499, m is rounded again from the exact
    error of y by `_half_step`. An m of 10**12 is carried to 10**11 at
    exponent X + 1. The sign comes from the sign bit, so -0.0 reads "-0".
    Only nan, +-inf, |v| >= 10 (or a carry to 10), 0 < |v| < 1e-290 and
    the exact and all but exact rounding ties go through `_fmt`, one value
    at a time."""
    v = np.ravel(values)
    a = np.abs(v)
    zero = a == 0
    fast = zero | ((a >= _MIN_FAST) & (a < 10))
    a[~fast | zero] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[11 - x, 0]
    x += (y >= 1e12).astype(np.int64) - (y < 1e11)
    np.multiply(a, _POW10[11 - x, 0], out=y)
    m = np.rint(y)
    band = np.flatnonzero(fast & (np.abs(y - m) >= 0.499))
    if band.size:
        step, fast[band] = _half_step(a[band], 11 - x[band], y[band], m[band])
        m[band] += step
    fast &= (m >= 1e11) & (m <= 1e12)
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
    d5 = d1 % 10 ** 4
    d1 //= 10 ** 4
    quads[:, 3] = np.take(_QUADS, d5 + z9 * 10 ** 4)
    quads[:, 2] = np.take(_QUADS, d1 + (z9 & (d5 == 0)) * 10 ** 4)
    out = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(_fmt(w).encode().ljust(_FIELD, b"\0")
                        for w in v[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD)
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
        if self.n_points < 2:
            raise SweepConfigError(f"axis {self.name}: n_points must be >= 2, got {self.n_points}")
        if self.spacing == "values":
            if self.values is None or len(self.values) != self.n_points:
                raise SweepConfigError(f"axis {self.name}: values list does not match n_points")
            if not all(np.isfinite(v) for v in self.values):
                raise SweepConfigError(f"axis {self.name}: non-finite value in list")
        else:
            if not (np.isfinite(self.start) and np.isfinite(self.stop)):
                raise SweepConfigError(f"axis {self.name}: start/stop must be finite")
            if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
                raise SweepConfigError(f"axis {self.name}: log spacing needs positive bounds")

    def grid(self) -> np.ndarray:
        if self.spacing == "values":
            return np.asarray(self.values, dtype=float)
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.n_points)
        return np.linspace(self.start, self.stop, self.n_points)

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
            if not np.isfinite(float(value)):
                raise SweepConfigError(f"fixed {name} must be finite, got {value!r}")
        for name in PARAM_NAMES:
            if name not in self.fixed and name not in axis_names:
                raise SweepConfigError(f"parameter {name!r} is neither fixed nor an axis")
        if self.oracle_check is not None and int(self.oracle_check) < 1:
            raise SweepConfigError(f"oracle_check must be >= 1, got {self.oracle_check}")
        t_grid = self.parameter_grid("T_over_J")
        if np.min(t_grid) <= 0.0:
            raise SweepConfigError("T_over_J <= 0 in grid")
        # The overflow scale grows with each |coupling| and with 1 / T, so the
        # grid's worst point pairs the largest magnitudes with the smallest T.
        worst = [np.max(np.abs(self.parameter_grid(name))) for name in PARAM_NAMES]
        worst[1] = np.min(t_grid)
        try:
            check_beta_energy(*worst)
        except ValueError as exc:
            raise SweepConfigError(str(exc)) from None
        return self

    def parameter_grid(self, name: str) -> np.ndarray:
        for ax in self.axes:
            if ax.name == name:
                return ax.grid()
        if name in self.fixed:
            return np.array([float(self.fixed[name])])
        raise SweepConfigError(f"parameter {name!r} is neither fixed nor an axis")


@dataclass
class SweepResult:
    """Evaluated sweep: coordinates, measure table, header metadata, diagnostics."""
    spec: SweepSpec
    coords: np.ndarray          # shape (n, 5), columns in PARAM_NAMES order
    table: np.ndarray           # shape (n, 7), columns qd..entropy_ab, eig_min, psd_flag
    header: dict
    diagnostics: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name in PARAM_NAMES:
            return self.coords[:, PARAM_NAMES.index(name)]
        lookup = MEASURE_NAMES + ("rho_eig_min", "psd_flag")
        if name in lookup:
            return self.table[:, lookup.index(name)]
        raise KeyError(name)

    def line(self, axis_name: str, **fixed_coords):
        """Extract (x, y-dict) along one axis with the other coordinates pinned."""
        mask = np.ones(self.coords.shape[0], dtype=bool)
        for name, value in fixed_coords.items():
            mask &= np.isclose(self.column(name), value, rtol=0.0, atol=1e-9)
        x = self.column(axis_name)[mask]
        order = np.argsort(x, kind="stable")
        ys = {m: self.column(m)[mask][order] for m in MEASURE_NAMES}
        return x[order], ys


def grid_coords(spec: SweepSpec) -> np.ndarray:
    """Flattened row-major coordinates, one column per parameter name."""
    grids = [ax.grid() for ax in spec.axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    flat = [m.ravel(order="C") for m in mesh]
    n = flat[0].size
    coords = np.empty((n, len(PARAM_NAMES)))
    axis_index = {ax.name: k for k, ax in enumerate(spec.axes)}
    for j, name in enumerate(PARAM_NAMES):
        if name in axis_index:
            coords[:, j] = flat[axis_index[name]]
        else:
            coords[:, j] = float(spec.fixed[name])
    return coords


def _chunk_measures(coords_chunk: np.ndarray, out: np.ndarray) -> None:
    """Evaluate one chunk of coordinates into its (rows, 7) slice of the table."""
    j0, t, h, gamma, jz = (coords_chunk[:, k] for k in range(5))
    entries = thermal_entries_grid(j0, t, h, gamma, jz)
    vals = x_state_measures(*entries)
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

    Rows are evaluated in chunks of `_CHUNK_SIZE`, each written into its
    slice of one (n, 7) table in a shared anonymous mapping. The chunks are
    cut into `_ranges` contiguous ranges: this process evaluates the first,
    and a forked child evaluates each other range into the same table.
    Every row depends on its own coordinates only, so neither the chunk
    size nor the number of ranges changes the result. Once every range is
    done, the oracle spot checks search their states on every usable core
    through `_search_states`, and their residuals are taken here; each
    state's search value is that of a search over it alone, so the
    diagnostics and the CSV bytes do not depend on the core count either.
    Each PSD violation is recorded in the diagnostics but the offending
    row is still reported. A negative seed is refused, as the oracle's
    random generator would refuse it.
    """
    spec.validate()
    if int(seed) < 0:
        raise SweepConfigError(f"seed must be >= 0, got {seed}")
    coords = grid_coords(spec)
    n = coords.shape[0]
    width = len(_TABLE_KEYS)
    table = np.frombuffer(mmap.mmap(-1, n * width * 8), dtype=float).reshape(n, width)

    def evaluate(k, a, b):
        for i in range(a, b, _CHUNK_SIZE):
            j = min(i + _CHUNK_SIZE, b)
            _chunk_measures(coords[i:j], table[i:j])

    _run_ranges(_ranges(n, _CHUNK_SIZE), evaluate)

    diagnostics = {"psd_violations": int(np.sum(table[:, 6] < 0.5))}
    if spec.oracle_check is not None:
        from .oracle import qd_bruteforce, tdd_bruteforce
        idxs = np.arange(0, n, int(spec.oracle_check))
        entries = thermal_entries_grid(*(coords[idxs, k] for k in range(5)))
        states = [DimerDensityMatrix(*(float(e[i]) for e in entries))
                  for i in range(idxs.size)]
        tdd, qd = _search_states(
            states, lambda part: tdd_bruteforce(part, seed=seed),
            lambda part: [qd_bruteforce(s) for s in part])
        qd_res = np.abs(table[idxs, 0] - qd)
        tdd_res = np.abs(table[idxs, 1] - tdd)
        diagnostics["oracle"] = [(idx, float(a), float(b)) for idx, a, b
                                 in zip(idxs.tolist(), qd_res, tdd_res)]

    header = _build_header(spec, seed, n, diagnostics, label=label)
    return SweepResult(spec=spec, coords=coords, table=table,
                       header=header, diagnostics=diagnostics)


def _write_rows(fh, coords: np.ndarray, table: np.ndarray) -> None:
    """Write one CSV row per row of `coords` and `table` to the binary file
    `fh`, a block of `_CSV_BLOCK` rows at a time. Each column of a block
    is a field of byte slots from `_fmt_bytes`; the fields and their commas
    and newline are joined into one byte matrix, allocated once, and
    written with their NUL bytes deleted.

    The coordinate and psd_flag columns hold few distinct values in a
    block: each distinct bit pattern is formatted once (so -0.0 stays
    "-0"), the leading and trailing slots that none of them uses are
    dropped, and the fields are gathered into their rows. The six measure
    columns are formatted per row. Every float reads as "%.12g" writes it:
    `_fmt_bytes` takes the rounding of a 12-digit mantissa from a scaled
    value it knows to within 2.3e-4 only where that value is more than
    0.001 from a rounding tie (its 0.499 guard), and rounds the guard band
    again from the exact error of the scaling (to within 1.2e-16). It
    formats one at a time, by `_fmt`, only nan, +-inf, the values outside
    zero and 1e-290 <= |v| < 10 and those within 1e-15 of a tie; no value
    of the presets or of a cold, zero-field box is one of them."""
    n = coords.shape[0]
    block = np.empty(_CSV_BLOCK * len(CSV_COLUMNS) * (_FIELD + 1), dtype=np.uint8)
    seps = np.full((_CSV_BLOCK, len(CSV_COLUMNS)), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    for i in range(0, n, _CSV_BLOCK):
        rows = _fill_block(block, seps, coords[i:i + _CSV_BLOCK], table[i:i + _CSV_BLOCK])
        fh.write(rows.tobytes().translate(None, b"\0"))


def _fill_block(block, seps, c, t):
    """The rows of one block, as a (rows, width) view of the front of
    `block`: the fields of `c` and `t`, each followed by its separator."""
    k = c.shape[0]
    distinct = [np.unique(col.view(np.int64), return_inverse=True)
                for col in (*c.T, t[:, 6])]
    text = _fmt_bytes(np.concatenate([bits for bits, _ in distinct]).view(float))
    fields, start = [], 0
    for bits, inverse in distinct:
        part = text[start:start + bits.size]
        used = np.flatnonzero(part.any(axis=0))
        fields.append(np.take(part[:, used[0]:used[-1] + 1], inverse, axis=0))
        start += bits.size
    fields[5:5] = _fmt_bytes(t[:, :6]).reshape(k, 6, _FIELD).transpose(1, 0, 2)
    parts = [p for j, f in enumerate(fields) for p in (f, seps[:k, j:j + 1])]
    width = sum(p.shape[1] for p in parts)
    return np.concatenate(parts, axis=1, out=block[:k * width].reshape(k, width))


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


def _search_states(states: list, *searches) -> np.ndarray:
    """The values of each search over `states`, as an array of shape
    (len(searches), len(states)), computed on every usable core.

    Each search takes a contiguous slice of `states` and returns one float
    per state, which must be the value it gives that state searched alone.
    Every state is validated here first (`DimerDensityMatrix.validate`,
    the input check the search oracles apply to it), so a state they
    refuse raises its ValueError in this process before anything is
    forked. The states are then cut into `_ranges(len(states), 1)`: this
    process searches the first range and a forked child each other range,
    each range writing its values into its columns of one array in a
    shared anonymous mapping. The values do not depend on the number of
    ranges, and with one range nothing is forked. A failed child raises
    the OSError of `_run_ranges`, naming its range of state indices.
    """
    for state in states:
        state.validate()
    m = len(states)
    values = np.ndarray((len(searches), m),
                        buffer=mmap.mmap(-1, 8 * max(1, len(searches) * m)))

    def search(k, a, b):
        if a < b:
            for row, fn in zip(values, searches):
                row[a:b] = fn(states[a:b])

    _run_ranges(_ranges(m, 1), search, items="states")
    return values


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
    coords, table = result.coords, result.table
    cuts = _ranges(coords.shape[0], _CSV_BLOCK)
    fds = []

    def write(k, a, b):
        if k == 0:
            _write_rows(fh, coords[a:b], table[a:b])
            fh.flush()
            return
        with open(fds[k - 1], "wb", closefd=False) as part:
            _write_rows(part, coords[a:b], table[a:b])

    try:
        with open(path, "wb") as fh:
            head = "".join(f"# {key} = {value}\n"
                           for key, value in result.header.items())
            fh.write((head + ",".join(CSV_COLUMNS) + "\n").encode())
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
    if n_points < 2:
        raise SweepConfigError(f"n_points must be >= 2, got {n_points}")
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
    return replace(spec, oracle_check=int(every))


_AXIS_KEYS = ("name", "start", "stop", "n_points", "spacing", "values")


def read_sweep_config(path) -> SweepSpec:
    """Parse a flat key-value config file with [sweep]/[fixed]/[axis1]/[axis2]
    sections into a validated SweepSpec."""
    import configparser  # here, so that preset sweeps do not import it

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise OSError(f"cannot read sweep config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise SweepConfigError(f"malformed sweep config {path}: {exc}") from exc

    known_sections = {"sweep", "fixed", "axis1", "axis2"}
    for section in parser.sections():
        if section not in known_sections:
            raise SweepConfigError(f"unknown config section: [{section}]")
    if not parser.has_section("axis1"):
        raise SweepConfigError("config must define an [axis1] section")

    def parse_axis(section: str) -> Axis:
        items = dict(parser.items(section))
        for key in items:
            if key not in _AXIS_KEYS:
                raise SweepConfigError(f"unknown key {key!r} in [{section}]")
        if "name" not in items:
            raise SweepConfigError(f"[{section}] is missing the 'name' key")
        name = items["name"].strip()
        try:
            if "values" in items:
                for key in ("start", "stop", "n_points", "spacing"):
                    if key in items:
                        raise SweepConfigError(
                            f"[{section}] mixes 'values' with {key!r}")
                vals = [float(v) for v in items["values"].replace(",", " ").split()]
                return Axis.from_values(name, vals)
            return Axis(name=name,
                        start=float(items["start"]),
                        stop=float(items["stop"]),
                        n_points=int(items["n_points"]),
                        spacing=items.get("spacing", "linear").strip())
        except KeyError as exc:
            raise SweepConfigError(f"[{section}] is missing the {exc.args[0]!r} key") from exc
        except ValueError as exc:
            raise SweepConfigError(f"[{section}]: {exc}") from exc

    axes = [parse_axis("axis1")]
    if parser.has_section("axis2"):
        axes.append(parse_axis("axis2"))

    fixed = {}
    if parser.has_section("fixed"):
        for key, raw in parser.items("fixed"):
            try:
                fixed[key] = float(raw)
            except ValueError as exc:
                raise SweepConfigError(f"fixed {key}: {exc}") from exc

    oracle_check = None
    if parser.has_section("sweep"):
        for key in parser.options("sweep"):
            if key != "oracle_every":
                raise SweepConfigError(f"unknown key {key!r} in [sweep]")
        if parser.has_option("sweep", "oracle_every"):
            try:
                oracle_check = int(parser.get("sweep", "oracle_every"))
            except ValueError as exc:
                raise SweepConfigError(f"oracle_every: {exc}") from exc

    return SweepSpec(fixed=fixed, axes=tuple(axes),
                     oracle_check=oracle_check).validate()
