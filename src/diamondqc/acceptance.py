"""Verification property suites.

Each check exercises one documented guarantee of the library: state
validity over wide parameter boxes, agreement between the closed forms
and the independent brute-force oracles, and the qualitative structure
of the preset sweep datasets (peak counts, orderings, limits,
determinism). Checks return CheckResult records; the CLI `verify`
command prints one line per check and exits nonzero if any fail.

Two checks are expected to fail and are listed in KNOWN_FAILING: at the
fig3 parameter set the trace-distance curve at T/J=0.2 shows three
prominent peaks rather than one, and at the fig5 parameter set every
measure is exactly symmetric under a sign flip of the anisotropy, so no
asymmetry can exceed the grid error estimate. The checks state what
they require and report what the model actually produces.
"""
from __future__ import annotations

import contextlib
import filecmp
import io
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .measures import correlation_report, x_state_measures
from .model import thermal_entries_grid, thermal_state
from .params import DimerDensityMatrix, ModelParams, ThermalPoint
from .sweep import (DEFAULT_PROMINENCE, _search_states, count_peaks,
                    figure_preset, prominent_peaks, run_sweep)

SUITES = ("psd", "oracle", "figures")

# Checks that the model itself contradicts; kept failing on purpose so
# the report stays honest. Details are in each check's docstring.
KNOWN_FAILING = (
    "tdd-single-peak(fig3b,T=0.2)",
    "anisotropy-sign-asymmetry(fig5,T=0.5)",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def format_result(result: CheckResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} {result.name}: {result.detail}"


def check_density_validity() -> CheckResult:
    """Trace and positivity of the assembled state over a wide 5-d box."""
    grids = np.meshgrid(
        np.linspace(-2.0, 2.0, 10),     # J0/J
        np.linspace(0.05, 20.0, 10),    # T/J
        np.linspace(-3.0, 3.0, 10),     # h/J
        np.linspace(-1.5, 1.5, 10),     # gamma
        np.linspace(-2.0, 2.0, 10),     # Jz/J
        indexing="ij",
    )
    j0, t, h, gamma, jz = (g.ravel() for g in grids)

    rng = np.random.default_rng(7)
    n_rand = 100_000
    j0 = np.concatenate([j0, rng.uniform(-2.0, 2.0, n_rand)])
    t = np.concatenate([t, rng.uniform(0.05, 20.0, n_rand)])
    h = np.concatenate([h, rng.uniform(-3.0, 3.0, n_rand)])
    gamma = np.concatenate([gamma, rng.uniform(-1.5, 1.5, n_rand)])
    jz = np.concatenate([jz, rng.uniform(-2.0, 2.0, n_rand)])

    r11, r22, r33, r44, r14, r23 = thermal_entries_grid(j0, t, h, gamma, jz)
    trace_dev = float(np.max(np.abs(r11 + r22 + r33 + r44 - 1.0)))
    eig_min = float(np.min(x_state_measures(r11, r22, r33, r44, r14, r23)["eig_min"]))

    passed = trace_dev <= 1e-12 and eig_min >= -1e-10
    detail = (f"{j0.size} states: max |trace - 1| = {trace_dev:.2e} (<= 1e-12), "
              f"min eigenvalue = {eig_min:.2e} (>= -1e-10)")
    return CheckResult("density-matrix-validity", passed, detail)


def check_finite_chain_agreement() -> CheckResult:
    """Closed-form state entries against the finite-chain contraction oracle.

    The six X-state entries of thermal_entries_grid must match the
    14-cell ring's reduced state to 1e-6 each, and the ring's entries
    off the X pattern must vanish (<= 1e-12). Sample points are accepted
    only where the chain's own transfer spectrum certifies that the ring
    has reached the infinite-chain limit (ratio^13 <= 1e-8, a bound on
    the ring's truncation error). The certificate uses the chain side
    alone; where the bridge-spin sectors stay near-degenerate, a finite
    ring of any tractable size measures a different ensemble and
    comparison is meaningless. At one fixed point (gamma=0.6, Jz=0.3,
    J0=0.3, h=0.35, T=0.5) the entries must agree to 1e-8.
    """
    from .oracle import (FiniteChainSpec, finite_chain_reduced_state,
                         transfer_spectrum_ratio)

    n_cells = 14
    x_rows, x_cols = [0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 3, 2]
    off_x = np.ones((4, 4), dtype=bool)
    off_x[x_rows, x_cols] = off_x[x_cols, x_rows] = False

    def deviations(spec):
        """(max entry deviation, max off-X magnitude) at one point."""
        p = spec.params
        rho = finite_chain_reduced_state(spec)
        closed = np.array(thermal_entries_grid(p.j0, spec.tp.t, p.h, p.gamma, p.jz))
        return (float(np.abs(rho[x_rows, x_cols] - closed).max()),
                float(np.abs(rho[off_x]).max()))

    fixed_dev, _ = deviations(FiniteChainSpec(
        n_cells=n_cells, params=ModelParams(gamma=0.6, jz=0.3, j0=0.3, h=0.35),
        tp=ThermalPoint(0.5)))
    rng = np.random.default_rng(11)
    n_points = 200
    worst = worst_off = 0.0
    accepted = 0
    attempted = 0
    while accepted < n_points and attempted < 50 * n_points:
        attempted += 1
        params = ModelParams(gamma=rng.uniform(-1.5, 1.5),
                             jz=rng.uniform(-1.5, 1.5),
                             j0=rng.uniform(-2.0, 2.0),
                             h=rng.uniform(-2.0, 2.0))
        tp = ThermalPoint(rng.uniform(0.2, 4.0))
        spec = FiniteChainSpec(n_cells=n_cells, params=params, tp=tp)
        if transfer_spectrum_ratio(spec) ** (n_cells - 1) > 1e-8:
            continue
        accepted += 1
        dev, off = deviations(spec)
        worst = max(worst, dev)
        worst_off = max(worst_off, off)
    passed = (accepted == n_points and fixed_dev <= 1e-8 and worst <= 1e-6
              and worst_off <= 1e-12)
    detail = (f"max entry deviation {worst:.2e} over {accepted} certified "
              f"points at N={n_cells} (<= 1e-6; {attempted - accepted} draws "
              f"rejected by the chain-side convergence certificate), max "
              f"off-X entry {worst_off:.1e} (<= 1e-12), fixed-point "
              f"deviation {fixed_dev:.1e} (<= 1e-8)")
    return CheckResult("closed-form-vs-finite-chain", passed, detail)


def _random_x_state(rng) -> DimerDensityMatrix:
    """Random X-shaped density matrix with equal middle diagonal entries."""
    a, b, c = rng.uniform(0.05, 1.0, 3)
    norm = a + b + 2.0 * c
    r11, r44, r22 = a / norm, b / norm, c / norm
    r14 = rng.uniform(-1.0, 1.0) * 0.98 * np.sqrt(r11 * r44)
    r23 = rng.uniform(-1.0, 1.0) * 0.98 * r22
    return DimerDensityMatrix(r11=r11, r22=r22, r33=r22, r44=r44,
                              r14=r14, r23=r23)


def check_qd_bruteforce() -> CheckResult:
    """Closed-form discord against the measurement-grid search oracle
    `qd_bruteforce`, run on every usable core."""
    rng = np.random.default_rng(202)
    states = []
    for _ in range(200):
        params = ModelParams(gamma=rng.uniform(-1.5, 1.5),
                             jz=rng.uniform(-2.0, 2.0),
                             j0=rng.uniform(-2.0, 2.0),
                             h=rng.uniform(-3.0, 3.0))
        tp = ThermalPoint(float(10.0 ** rng.uniform(np.log10(0.05), 1.0)))
        states.append(thermal_state(params, tp))
    for _ in range(100):
        states.append(_random_x_state(rng))

    closed = np.array([correlation_report(state).qd for state in states])
    search = _search_states(states, qd=True)[1]
    gaps = closed - search
    min_gap = float(gaps.min())
    worst_abs = float(np.abs(gaps).max())
    frac_tight = float(np.mean(np.abs(gaps) <= 1e-4))
    passed = min_gap >= -1e-6 and frac_tight >= 0.99
    detail = (f"{len(states)} states: min(closed - search) = {min_gap:.2e} "
              f"(>= -1e-6), |gap| <= 1e-4 at {100.0 * frac_tight:.1f}% "
              f"(>= 99%), worst |gap| = {worst_abs:.2e}")
    return CheckResult("qd-closed-form-vs-bruteforce", passed, detail)


def check_tdd_bruteforce() -> CheckResult:
    """Closed-form trace-distance discord against the pattern-search oracle
    `tdd_bruteforce`, its (state, start) pairs split across every usable
    core."""
    states = [thermal_state(ModelParams(gamma=0.5, jz=0.3, j0=-0.3, h=float(h)),
                            ThermalPoint(t))
              for t in (0.2, 0.5, 0.7, 1.0, 1.5)
              for h in np.linspace(-2.0, 2.0, 20)]
    closed = np.array([correlation_report(state).tdd for state in states])
    search = _search_states(states, tdd=True, seed=0)[0]
    worst = float(np.max(np.abs(closed - search)))
    passed = worst <= 1e-4
    detail = (f"{len(states)} h-scan states: max |closed - search| = "
              f"{worst:.2e} (<= 1e-4)")
    return CheckResult("tdd-closed-form-vs-bruteforce", passed, detail)


def check_tdd_dominates_qd() -> CheckResult:
    """Trace-distance discord bounds entropic discord from above on the
    fig4 h-scan dataset."""
    result = run_sweep(figure_preset("fig4a"))
    margin = float(np.min(result.column("tdd") - result.column("qd")))
    passed = margin >= -1e-9
    detail = (f"min(tdd - qd) = {margin:.3e} over {result.table.shape[0]} "
              f"points of the fig4 dataset (>= -1e-9)")
    return CheckResult("tdd-dominates-qd(fig4)", passed, detail)


def check_field_scan_peaks() -> list:
    """Peak counts of the fig3 h-scans at fixed temperatures."""
    result = run_sweep(figure_preset("fig3a"))
    out = []

    def peaks(measure, t_value):
        x, ys = result.line("h_over_J", T_over_J=t_value)
        return count_peaks(list(zip(x, ys[measure])), DEFAULT_PROMINENCE)

    n = peaks("qd", 0.2)
    out.append(CheckResult("qd-three-peaks(fig3a,T=0.2)", n == 3,
                           f"prominent qd peaks over h: {n} (expected 3)"))
    n = peaks("tdd", 1.5)
    out.append(CheckResult("tdd-two-peaks(fig3b,T=1.5)", n == 2,
                           f"prominent tdd peaks over h: {n} (expected 2)"))
    n = peaks("tdd", 0.2)
    out.append(CheckResult("tdd-single-peak(fig3b,T=0.2)", n == 1,
                           f"prominent tdd peaks over h: {n} (expected 1; the "
                           f"curve genuinely has {n} peaks at this temperature)"))
    return out


def check_thermal_ridge() -> CheckResult:
    """Single thermal peak per column, decay past it, and peak-height
    ordering across columns of the fig2a dataset."""
    result = run_sweep(figure_preset("fig2a"))
    j0_grid = result.spec.axes[0].grid()
    columns = [float(j0_grid[np.argmin(np.abs(j0_grid - c))])
               for c in (1.2, 1.3, 1.4, 1.5, 1.6)]
    problems = []
    heights = {"qd": [], "tdd": []}
    for col in columns:
        x, ys = result.line("T_over_J", J0_over_J=col)
        for measure in ("qd", "tdd"):
            y = ys[measure]
            idx = prominent_peaks(y, DEFAULT_PROMINENCE)
            if idx.size != 1:
                problems.append(f"{measure}@J0={col:g}: {idx.size} peaks")
                heights[measure].append(float(y.max()))
                continue
            k = int(idx[0])
            tail = np.diff(y[k:])
            if tail.size and float(tail.max()) > 1e-12:
                problems.append(f"{measure}@J0={col:g}: rises after peak")
            heights[measure].append(float(y[k]))
    for measure in ("qd", "tdd"):
        drops = np.diff(heights[measure])
        if drops.size and float(drops.max()) > 1e-12:
            problems.append(f"{measure} peak heights not ordered: {heights[measure]}")
    passed = not problems
    detail = ("columns J0/J = 1.2..1.6: one thermal peak each, monotone decay "
              f"beyond it, peak heights non-increasing in J0/J "
              f"(qd {heights['qd'][0]:.3f} -> {heights['qd'][-1]:.3f}, "
              f"tdd {heights['tdd'][0]:.3f} -> {heights['tdd'][-1]:.3f})"
              if passed else "; ".join(problems))
    return CheckResult("thermal-ridge(fig2a)", passed, detail)


def check_high_temperature() -> CheckResult:
    """Discord persists at moderate T where concurrence is dead, and both
    discords decay below 1e-3 by T/J = 1e4."""
    params = ModelParams(gamma=0.95, jz=0.0, j0=0.5, h=0.27)

    def report(t):
        return correlation_report(thermal_state(params, ThermalPoint(t)))

    warm, mid, hot = report(5.0), report(5e3), report(1e4)
    problems = []
    if not (warm.qd > 1e-6 and warm.tdd > 1e-6):
        problems.append(f"discord died at T=5: qd={warm.qd:.2e}, tdd={warm.tdd:.2e}")
    if warm.concurrence != 0.0:
        problems.append(f"concurrence at T=5 is {warm.concurrence:.2e}, expected 0")
    if not (hot.qd <= 1e-3 and hot.tdd <= 1e-3):
        problems.append(f"discord too large at T=1e4: qd={hot.qd:.2e}, tdd={hot.tdd:.2e}")
    if not (hot.qd < mid.qd and hot.tdd < mid.tdd):
        problems.append("discord not decreasing between T=5e3 and T=1e4")
    passed = not problems
    detail = (f"T=5: qd={warm.qd:.2e}, tdd={warm.tdd:.2e}, concurrence=0; "
              f"T=1e4: qd={hot.qd:.2e}, tdd={hot.tdd:.2e}, both decreasing"
              if passed else "; ".join(problems))
    return CheckResult("high-temperature-limits(fig2a)", passed, detail)


def check_anisotropy() -> list:
    """Sign-flip asymmetry and large-anisotropy flattening on the fig5
    anisotropy grid at T/J = 0.5."""
    spec = figure_preset("fig5")
    gamma = spec.axes[0].grid()
    entries = thermal_entries_grid(-0.3, 0.5, 0.5, gamma, 0.3)
    vals = x_state_measures(*entries)

    asym_detail = []
    asym_ok = True
    flat_detail = []
    flat_ok = True
    edge = np.abs(gamma) >= 0.75 * float(np.abs(gamma).max())
    for measure in ("qd", "tdd"):
        y = np.asarray(vals[measure], dtype=float)
        asym = float(np.max(np.abs(y - y[::-1])))
        interp_err = float(np.max(np.abs(np.diff(y, 2))) / 8.0)
        asym_ok &= asym > 10.0 * interp_err
        asym_detail.append(f"{measure}: max |f(g)-f(-g)| = {asym:.1e} vs "
                           f"10x grid error {10.0 * interp_err:.1e}")
        span = float(y.max() - y.min())
        edge_span = float(y[edge].max() - y[edge].min())
        ratio = edge_span / span if span > 0 else 0.0
        flat_ok &= ratio < 0.10
        flat_detail.append(f"{measure}: edge-quarter range {100.0 * ratio:.1f}% "
                           f"of global (< 10%)")
    return [
        CheckResult("anisotropy-sign-asymmetry(fig5,T=0.5)", bool(asym_ok),
                    "; ".join(asym_detail) + ("" if asym_ok else
                    " (measures are symmetric under the sign flip here)")),
        CheckResult("anisotropy-large-gamma-plateau(fig5,T=0.5)", bool(flat_ok),
                    "; ".join(flat_detail)),
    ]


def check_determinism() -> CheckResult:
    """Repeated CLI sweeps give identical bytes."""
    from .cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a.csv", "b.csv")]
        base = ["sweep", "--preset", "fig2a", "--seed", "7", "--out"]
        # Each sweep's status line goes to stderr; keep it out of the report.
        with contextlib.redirect_stderr(io.StringIO()) as log:
            codes = [main(base + [path]) for path in paths]
        if any(codes):
            return CheckResult("sweep-determinism(fig2a)", False,
                               f"sweep exit codes {codes}: {log.getvalue().strip()}")
        rerun_same = filecmp.cmp(paths[0], paths[1], shallow=False)
        size = os.path.getsize(paths[0])
    detail = f"rerun identical: {rerun_same} ({size} bytes)"
    return CheckResult("sweep-determinism(fig2a)", rerun_same, detail)


_SUITE_CHECKS = {
    "psd": (check_density_validity,),
    "oracle": (check_finite_chain_agreement, check_qd_bruteforce,
               check_tdd_bruteforce),
    "figures": (check_tdd_dominates_qd, check_field_scan_peaks,
                check_thermal_ridge, check_high_temperature,
                check_anisotropy, check_determinism),
}


def run_suite(suite: str) -> list:
    """Run one named suite and return its CheckResult list."""
    if suite not in _SUITE_CHECKS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = []
    for fn in _SUITE_CHECKS[suite]:
        out = fn()
        results.extend(out if isinstance(out, list) else [out])
    return results
