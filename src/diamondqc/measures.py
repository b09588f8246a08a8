"""Correlation measures for two-qubit X states.

All entropies are in bits (base-2 logarithms). The discord closed form
measures the second qubit and returns the minimum of its two measurement
branches, along z and in the transverse plane. The trace-distance
discord closed form (Ciccarello, Tufarelli and Giovannetti, New J. Phys.
16, 013038, 2014), whose classical-quantum states are classical on the
first qubit, is evaluated as a weighted mean of g1^2 and gmin^2,
which is free of cancellation and lies in [|gmin|, |g1|] up to rounding;
where both weights vanish (for example on Bell projectors) all three
correlation-matrix magnitudes |g_i| coincide and the value is |g1|.

`x_state_measures` evaluates everything over broadcastable arrays of the
six X-state entries; `correlation_report` is the same evaluation for one
state. The joint entropy and the PSD margin come from
params.x_block_eigenvalues, the spectrum DimerDensityMatrix also uses.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .params import DimerDensityMatrix, x_block_eigenvalues


def _xlog2x(x):
    """x * log2(x), elementwise, with 0 log 0 = 0 and nan kept."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = ~(x <= 1e-300)  # nan takes the log branch and stays nan
    np.log2(x, out=out, where=m)
    np.multiply(x, out, out=out, where=m)
    return out


def _binary_entropy(p):
    p = np.asarray(p, dtype=float)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


@dataclass(frozen=True)
class CorrelationReport:
    """All measures of one X state, with the two discord branches d1 and d2.

    The trace-distance branch quantities (g1, g2, g3, xa3, gmax^2, gmin^2)
    are the `tdd_*` entries of `x_state_measures`."""
    qd: float
    tdd: float
    concurrence: float
    mutual_info: float
    entropy_ab: float
    entropy_a: float
    d1: float
    d2: float


def x_state_measures(r11, r22, r33, r44, r14, r23):
    """Every measure over broadcastable arrays of X-state entries.

    Returns a dict of arrays: qd, d1, d2, tdd, concurrence, mutual_info,
    entropy_ab, entropy_a, eig_min, psd_flag, plus the trace-distance
    branch quantities. Concurrence is clipped into [0, 1].

    The discord measures the second qubit, as oracle.qd_bruteforce does:
    d1 along z and d2 in the transverse plane, each from S(B). The
    trace-distance discord takes the classical-quantum states classical
    on the first qubit, as oracle.tdd_bruteforce does.
    """
    r11, r22, r33, r44, r14, r23 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (r11, r22, r33, r44, r14, r23)))

    eigs = x_block_eigenvalues(r11, r22, r33, r44, r14, r23)
    eig_min = eigs.min(axis=0)
    psd_flag = eig_min >= DimerDensityMatrix.PSD_TOL
    entropy_ab = -_xlog2x(np.clip(eigs, 0.0, 1.0)).sum(axis=0)

    # S(B) and the z branch share x log2 x of pb = r11 + r33
    entropy_a = _binary_entropy(r11 + r22)
    pb = r11 + r33
    xl_pb = _xlog2x(pb)
    entropy_b = -(xl_pb + _xlog2x(1.0 - pb))
    mutual_info = entropy_a + entropy_b - entropy_ab

    # branch 1: the second qubit measured along z, which leaves the first
    # in (r11, r33) or (r22, r44)
    cond_z = -(_xlog2x(r11) + _xlog2x(r33) - xl_pb) \
             - (_xlog2x(r22) + _xlog2x(r44) - _xlog2x(r22 + r44))
    excess = entropy_b - entropy_ab
    d1 = excess + cond_z
    # branch 2: transverse measurement; both outcomes leave the first qubit
    # with Bloch length big_gamma, its own z component beside the coherences
    a14 = np.abs(r14)
    a23 = np.abs(r23)
    big_gamma = np.sqrt(((r11 - r44) + (r22 - r33)) ** 2
                        + 4.0 * (a14 + a23) ** 2)
    d2 = excess + _binary_entropy(np.clip(0.5 * (1.0 + big_gamma), 0.0, 1.0))
    qd = np.minimum(d1, d2)
    qd = np.where((qd < 0.0) & (qd >= -1e-12), 0.0, qd)

    g1 = 2.0 * (a23 + a14)
    g2 = 2.0 * (a23 - a14)
    g3 = 1.0 - 2.0 * (r22 + r33)
    xa3 = 2.0 * (r11 + r22) - 1.0
    g1_sq = g1 * g1
    g3_sq = g3 * g3
    gmax_sq = np.maximum(g3_sq, g2 * g2 + xa3 * xa3)
    gmin_sq = np.minimum(g1_sq, g3_sq)
    # tdd^2 = (g1^2 gmax^2 - g2^2 gmin^2) / (gmax^2 - gmin^2 + g1^2 - g2^2),
    # rewritten with g1^2 - g2^2 = 16 |r14| |r23| as the mean of g1^2 and
    # gmin^2 weighted by a and b; both weights are non-negative, and they
    # vanish together only where every g_i^2 and xa3^2 coincide.
    a = gmax_sq - gmin_sq
    b = 16.0 * a14 * a23
    den = a + b
    pos = den > 0.0
    safe_den = np.where(pos, den, 1.0)
    tdd = np.where(pos, np.sqrt((a * g1_sq + b * gmin_sq) / safe_den), np.abs(g1))

    conc = np.clip(2.0 * np.maximum(
        a14 - np.sqrt(np.maximum(r22 * r33, 0.0)),
        a23 - np.sqrt(np.maximum(r11 * r44, 0.0))), 0.0, 1.0)

    return {
        "qd": qd, "d1": d1, "d2": d2, "tdd": tdd,
        "concurrence": conc, "mutual_info": mutual_info,
        "entropy_ab": entropy_ab, "entropy_a": entropy_a,
        "eig_min": eig_min, "psd_flag": psd_flag,
        "tdd_g1": g1, "tdd_g2": g2, "tdd_g3": g3, "tdd_xa3": xa3,
        "tdd_gmax_sq": gmax_sq, "tdd_gmin_sq": gmin_sq,
    }


def correlation_report(rho) -> CorrelationReport:
    """All measures of one X state (a DimerDensityMatrix or a 4x4 array).

    Raises ValueError unless the state passes `check_matrix` and is PSD.
    """
    if not isinstance(rho, DimerDensityMatrix):
        rho = DimerDensityMatrix.from_matrix(rho)
    x = rho.validate()
    m = x_state_measures(x.r11, x.r22, x.r33, x.r44, x.r14, x.r23)
    return CorrelationReport(**{f.name: float(m[f.name]) for f in fields(CorrelationReport)})
