"""Row-by-row checks of a sweep CSV against the benchmark's own grid and the
independent reference, with every failed row attributed to a known fault
or to none.

Tolerances (the CSV prints 12 significant digits, so a printed value v is
within 5e-12 |v| of the computed one):

* coordinates: 6e-12 relative, the printing error plus parsing.
* entropy_ab, mutual_info, qd: 1e-9 absolute. The values are at most 2,
  so printing adds at most 1e-11. The reference's eigenvalues are good to
  a few ulp, which moves an entropy by under 1e-13; its angle search ends
  in a 2e-8 rad bracket, which moves the conditional entropy by under
  1e-14. 1e-9 is a hundred times the sum of these.
* concurrence: 1e-7 absolute. The Wootters lambda_i are square roots of
  eigenvalues, so an eigenvalue near 0 known to 1e-16 gives a lambda
  known only to about 1.5e-8; three such lambdas enter the difference.
* tdd bounds: 1e-11 slack. tdd is at most 1 (printing, 5e-12); the trace
  norms of 4x4 matrices are good to about 16 ulp (4e-15).
* the properties 0 <= qd <= mutual_info: the 1e-11 printing slack, since
  both sides are rounded; the other range and PSD checks are exact.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

CSV_COLUMNS = ("J0_over_J", "T_over_J", "h_over_J", "gamma", "Jz_over_J", "qd",
               "tdd", "concurrence", "mutual_info", "entropy_ab", "rho_eig_min",
               "psd_flag")
COORD_RTOL = 6e-12
ENTROPY_TOL = 1e-9
QD_TOL = 1e-9
CONC_TOL = 1e-7
TDD_SLACK = 1e-11
PRINT_SLACK = 1e-11
PSD_TOL = -1e-10
# Fault signatures. F2 rows are the x = +2 sector alone: a pure product
# state (0 bits) where the symmetric mixture has 1 bit of classical
# correlation, which it holds to within exp(-gap/T), far below 1e-6 at the
# T/J <= 0.0092 where the branch is taken. F3 is a rounding-size excess of
# the closed form, documented up to 1.3e-9; anything larger is not F3.
F2_MI_TOL = 1e-6
F3_CAP = 1e-8

FAULTS = ("F1", "F2", "F3")
FAULT_TEXT = {
    "F1": "qd = min(d1, d2) overstates the discord where the optimal "
          "measurement angle is interior",
    "F2": "at h = 0 the cold transfer-matrix branch breaks the spin-flip "
          "symmetry r11 = r44",
    "F3": "the tdd closed form exceeds the distance to a dephased state near "
          "its degenerate denominator",
}

# Row checks, as bits of a per-row mask.
ORDER, FINITE, PSD, RANGE, ENTROPY, CONC, QD_HIGH, QD_LOW, TDD_LOW, TDD_HIGH = (
    1 << k for k in range(10))
CHECK_NAMES = {ORDER: "order", FINITE: "finite", PSD: "psd", RANGE: "range",
               ENTROPY: "entropy", CONC: "concurrence", QD_HIGH: "qd-high",
               QD_LOW: "qd-low", TDD_LOW: "tdd-below-lower",
               TDD_HIGH: "tdd-above-upper"}


@dataclass
class CsvResult:
    """Outcome of checking one CSV: rows expected, and per failed row the
    fault it is attributed to ("other" when none explains it)."""
    n_rows: int
    malformed: str = ""
    labels: dict = field(default_factory=dict)   # row index -> fault or "other"
    checks: dict = field(default_factory=dict)   # check name -> rows failing it

    @property
    def failed(self) -> int:
        return self.n_rows if self.malformed else len(self.labels)

    def by_fault(self) -> dict:
        if self.malformed:
            return {"malformed": self.n_rows}
        out = {}
        for label in self.labels.values():
            out[label] = out.get(label, 0) + 1
        return out

    def unexplained(self) -> int:
        counts = self.by_fault()
        return sum(v for k, v in counts.items() if k not in FAULTS)


def read_csv(data: bytes):
    """(header dict, column names, (n, k) float array); raises ValueError
    on any deviation from the documented layout."""
    if not data.endswith(b"\n"):
        raise ValueError("file is not newline-terminated (truncated?)")
    header = {}
    pos = 0
    while data.startswith(b"# ", pos):
        end = data.index(b"\n", pos)
        key, sep, value = data[pos + 2:end].decode("utf-8").partition(" = ")
        if not sep:
            raise ValueError(f"malformed header line {data[pos:end]!r}")
        header[key.strip()] = value.strip()
        pos = end + 1
    end = data.index(b"\n", pos)
    columns = data[pos:end].decode("utf-8").split(",")
    body = data[end + 1:]
    n_lines = body.count(b"\n")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2) if n_lines else \
        np.empty((0, len(columns)))
    if table.shape != (n_lines, len(columns)):
        raise ValueError(f"table shape {table.shape} != ({n_lines}, {len(columns)})")
    return header, columns, table


def _check_header(header, columns, n_lines, sweep, seed):
    if not header.get("format", "").startswith("diamondqc-sweep-"):
        return f"format tag {header.get('format')!r}"
    missing = [c for c in CSV_COLUMNS if c not in columns]
    if missing:
        return f"missing columns {missing}"
    for key, want in (("n_rows", sweep.n_rows()), ("seed", seed)):
        if header.get(key) != str(want):
            return f"header {key} = {header.get(key)!r}, expected {want}"
    if n_lines != sweep.n_rows():
        return f"{n_lines} data rows, header says {header['n_rows']}"
    if sweep.oracle_every:
        if header.get("oracle_points") != str(sweep.oracle_points()):
            return f"oracle_points = {header.get('oracle_points')!r}"
        for key in ("oracle_max_qd_residual", "oracle_max_tdd_residual"):
            try:
                if not np.isfinite(float(header[key])):
                    return f"{key} is not finite"
            except (KeyError, ValueError):
                return f"{key} missing or unparsable"
    return ""


def row_masks(cols: dict, grid: np.ndarray, ref: dict) -> np.ndarray:
    """Bit mask of failed checks per row."""
    n = grid.shape[0]
    mask = np.zeros(n, dtype=np.int64)
    coords = np.stack([cols[p] for p in CSV_COLUMNS[:5]], axis=1)
    bad = np.abs(coords - grid) > COORD_RTOL * np.abs(grid)
    mask |= np.where(bad.any(axis=1), ORDER, 0)
    values = np.stack([cols[c] for c in CSV_COLUMNS[5:]], axis=1)
    mask |= np.where(~np.isfinite(values).all(axis=1), FINITE, 0)
    with np.errstate(invalid="ignore"):
        mask |= np.where(~((cols["psd_flag"] == 1.0) & (cols["rho_eig_min"] >= PSD_TOL)),
                         PSD, 0)
        qd, mi = cols["qd"], cols["mutual_info"]
        in_range = ((qd >= 0.0) & (qd <= mi + PRINT_SLACK)
                    & (cols["concurrence"] >= 0.0) & (cols["concurrence"] <= 1.0)
                    & (cols["entropy_ab"] >= 0.0) & (cols["entropy_ab"] <= 2.0))
        mask |= np.where(~in_range, RANGE, 0)
        ent_bad = ((np.abs(cols["entropy_ab"] - ref["entropy_ab"]) > ENTROPY_TOL)
                   | (np.abs(mi - ref["mutual_info"]) > ENTROPY_TOL))
        mask |= np.where(ent_bad, ENTROPY, 0)
        mask |= np.where(np.abs(cols["concurrence"] - ref["concurrence"]) > CONC_TOL,
                         CONC, 0)
        mask |= np.where(qd - ref["qd"] > QD_TOL, QD_HIGH, 0)
        mask |= np.where(ref["qd"] - qd > QD_TOL, QD_LOW, 0)
        mask |= np.where(cols["tdd"] < ref["tdd_lower"] - TDD_SLACK, TDD_LOW, 0)
        mask |= np.where(cols["tdd"] > ref["tdd_upper"] + TDD_SLACK, TDD_HIGH, 0)
    # NaN comparisons are False above; FINITE already flags those rows.
    return mask


def attribute(mask: np.ndarray, cols: dict, grid: np.ndarray, ref: dict) -> np.ndarray:
    """Fault label per row: "", one of FAULTS, or "other". A label is given
    only where the row fails the fault's checks alone and its values carry
    the fault's signature."""
    labels = np.where(mask != 0, "other", "").astype(object)
    zero_field = grid[:, 2] == 0.0
    with np.errstate(invalid="ignore"):
        # F1: qd is the closed form's branch minimum, above the true minimum.
        f1 = (mask == QD_HIGH) & (np.abs(cols["qd"] - ref["qd_branch"]) <= QD_TOL)
        # F2: at h = 0, 0 bits where the reference has 1 bit.
        f2 = (zero_field & (mask == ENTROPY)
              & (np.abs(cols["mutual_info"]) <= ENTROPY_TOL)
              & (np.abs(cols["entropy_ab"]) <= ENTROPY_TOL)
              & (np.abs(ref["mutual_info"] - 1.0) <= F2_MI_TOL))
        # F3: at h = 0, tdd above the dephasing bound by a rounding-size excess.
        f3 = (zero_field & (mask == TDD_HIGH)
              & (cols["tdd"] - ref["tdd_upper"] <= F3_CAP))
    for name, sel in (("F1", f1), ("F2", f2), ("F3", f3)):
        labels[sel] = name
    return labels


def check_csv(data: bytes, sweep, seed: int, grid: np.ndarray, ref: dict) -> CsvResult:
    """Check one sweep's CSV bytes; a malformed file fails every row. A
    fault is attributed only on sweeps that list it in sweep.faults; on any
    other sweep its rows count as "other"."""
    result = CsvResult(n_rows=sweep.n_rows())
    try:
        header, columns, table = read_csv(data)
    except ValueError as exc:
        result.malformed = str(exc)
        return result
    problem = _check_header(header, columns, table.shape[0], sweep, seed)
    if problem:
        result.malformed = problem
        return result
    cols = {c: table[:, columns.index(c)] for c in CSV_COLUMNS}
    mask = row_masks(cols, grid, ref)
    labels = attribute(mask, cols, grid, ref)
    failed = np.nonzero(mask)[0]
    result.labels = {int(i): labels[i] if labels[i] in sweep.faults else "other"
                     for i in failed}
    result.checks = {name: int(np.count_nonzero(mask & bit))
                     for bit, name in CHECK_NAMES.items() if np.any(mask & bit)}
    return result
