"""Closed-form thermal state of the dimer in the Ising-XYZ diamond chain.

The bridge spins are classical (they commute with the Hamiltonian), so
the chain factors into per-cell 4x4 Boltzmann blocks indexed by the sum
x of the two neighboring bridge spins, x in {+2, 0, -2}. The 2x2
transfer matrix over bridge configurations has entries w(x) = tr B(x);
in the thermodynamic limit the reduced dimer state is the block average
weighted by the dominant transfer eigenvector:

    rho = (v1^2 B(+2) + 2 v1 v2 B(0) + v2^2 B(-2)) / lambda

with (v1, v2) the normalized dominant eigenvector and lambda the
dominant eigenvalue. The identity v^T W v = lambda makes the trace
exactly 1. All exponentials are evaluated with the global maximum
exponent factored out, so temperatures down to T/J = 0.01 and large
couplings stay inside the floating-point range.

Every operation broadcasts over NumPy arrays; scalars in, scalars out.
"""
from __future__ import annotations

import numpy as np

from .params import (SECTOR_SPIN_SUMS, CorrelationSet, DimerDensityMatrix,
                     ModelParams, ThermalPoint)


def _gap(j, gamma, j0, h, spin_sum):
    return np.hypot(j0 * spin_sum + h, 0.5 * j * gamma)


def sector_gap(params: ModelParams, spin_sum: float):
    """Energy scale Delta(x) = sqrt((j0*x + h)^2 + (j*gamma/2)^2)."""
    return _gap(params.j, params.gamma, params.j0, params.h,
                np.asarray(spin_sum, dtype=float))


def _sector_exponents(beta, j, gamma, jz, j0, h, x):
    """Outer/inner exponent pieces and the gap for one bridge sector."""
    g = j0 * x + h
    d = np.hypot(g, 0.5 * j * gamma)
    po = beta * (0.25 * jz + 0.5 * h * x)
    pi = beta * (0.5 * h * x - 0.25 * jz)
    return g, d, po, pi


def _global_shift(beta, j, gamma, jz, j0, h):
    """Largest log-scale over all sectors; factored out of every exp."""
    shift = None
    au = 0.5 * beta * np.abs(j)
    for x in SECTOR_SPIN_SUMS:
        _, d, po, pi = _sector_exponents(beta, j, gamma, jz, j0, h, x)
        local = np.maximum(po + beta * d, pi + au)
        shift = local if shift is None else np.maximum(shift, local)
    return shift


def _scaled_blocks(beta, j, gamma, jz, j0, h):
    """Per-sector Boltzmann block entries scaled by e^{-shift}.

    Returns (entries, shift) with entries[x] = (b11, b22, b44, b14, b23);
    b33 = b22 by exchange symmetry of the dimer. Every exponential
    argument is <= 0, so nothing overflows at any beta.
    """
    shift = _global_shift(beta, j, gamma, jz, j0, h)
    ui = 0.5 * beta * j
    entries = {}
    for x in SECTOR_SPIN_SUMS:
        g, d, po, pi = _sector_exponents(beta, j, gamma, jz, j0, h, x)
        to = beta * d
        ep = np.exp(po + to - shift)
        em = np.exp(po - to - shift)
        safe = np.where(d > 0.0, d, 1.0)
        ratio = np.where(d > 0.0, g / safe, 0.0)
        b11 = 0.5 * (ep * (1.0 + ratio) + em * (1.0 - ratio))
        b44 = 0.5 * (ep * (1.0 - ratio) + em * (1.0 + ratio))
        coef = np.where(d > 0.0, 0.5 * j * gamma / safe, 0.0)
        b14 = coef * 0.5 * (ep - em)
        eip = np.exp(pi + ui - shift)
        eim = np.exp(pi - ui - shift)
        b22 = 0.5 * (eip + eim)
        b23 = 0.5 * (eip - eim)
        entries[x] = (b11, b22, b44, b14, b23)
    return entries, shift


def _transfer(entries):
    """Scaled dominant eigenvalue and eigenvector of the transfer matrix.

    The eigenvector component lam - w(+2) is evaluated cancellation-free:
    for w(+2) >= w(-2) it equals 2 w(0)^2 / (rad + w(+2) - w(-2)). When
    w(0) underflows against the aligned sectors, the eigenvector is the
    heavier aligned sector, or their symmetric mix on a tie (h = 0).
    """
    wp = entries[2.0][0] + 2.0 * entries[2.0][1] + entries[2.0][2]
    w0 = entries[0.0][0] + 2.0 * entries[0.0][1] + entries[0.0][2]
    wm = entries[-2.0][0] + 2.0 * entries[-2.0][1] + entries[-2.0][2]
    # At h = 0 the swap b11 <-> b44 maps x = +2 onto x = -2, so wp = wm, but
    # the sums above may round an ulp apart, and such an ulp outweighs any
    # smaller w0 in the eigenvector; (b11 + b44) + 2 b22 is exact under it.
    tie = ((entries[2.0][0] + entries[2.0][2]) + 2.0 * entries[2.0][1]
           == (entries[-2.0][0] + entries[-2.0][2]) + 2.0 * entries[-2.0][1])
    diff = np.where(tie, 0.0, wp - wm)
    rad = np.hypot(diff, 2.0 * w0)
    lam = 0.5 * (wp + wm + rad)
    denom = rad + np.abs(diff)
    denom = np.where(denom > 0.0, denom, 1.0)
    gp = np.where(diff >= 0.0, 2.0 * w0 * w0 / denom, 0.5 * (rad - diff))
    norm = np.hypot(w0, gp)
    deg = norm < 1e-150
    safe_norm = np.where(deg, 1.0, norm)
    half = np.sqrt(0.5)
    v1 = np.where(deg, np.where(diff == 0.0, half, diff > 0.0), w0 / safe_norm)
    v2 = np.where(deg, np.where(diff == 0.0, half, diff < 0.0), gp / safe_norm)
    return lam, v1, v2


def _entries_core(beta, j, gamma, jz, j0, h):
    """The six thermal density-matrix entries; fully broadcastable."""
    blocks, _ = _scaled_blocks(beta, j, gamma, jz, j0, h)
    lam, v1, v2 = _transfer(blocks)
    qp = v1 * v1
    q0 = v1 * v2
    qm = v2 * v2
    vals = []
    for k in range(5):  # b11, b22, b44, b14, b23
        vals.append((qp * blocks[2.0][k] + 2.0 * q0 * blocks[0.0][k]
                     + qm * blocks[-2.0][k]) / lam)
    r11, r22, r44, r14, r23 = vals
    return r11, r22, r22, r44, r14, r23


def _log_sector_weight(params: ModelParams, beta, spin_sum):
    x = np.asarray(spin_sum, dtype=float)
    _, d, po, pi = _sector_exponents(beta, params.j, params.gamma, params.jz,
                                     params.j0, params.h, x)
    to = beta * d
    ui = 0.5 * beta * abs(params.j)
    m = np.maximum(po + to, pi + ui)
    val = (np.exp(po + to - m) + np.exp(po - to - m)
           + np.exp(pi + ui - m) + np.exp(pi - ui - m))
    return m + np.log(val)


def sector_weight(params: ModelParams, tp: ThermalPoint, spin_sum: float):
    """Sector weight w(x) = tr B(x) = 2 e^{beta h x/2} [e^{beta jz/4}
    cosh(beta Delta(x)) + e^{-beta jz/4} cosh(beta j/2)].

    Strictly positive. Computed in log domain; the returned plain value
    can still overflow to inf at extreme beta, but every internal use
    works with ratios of weights and never overflows.
    """
    return np.exp(_log_sector_weight(params, tp.beta, spin_sum))


def transfer_eigenvalue(params: ModelParams, tp: ThermalPoint):
    """Dominant eigenvalue of the 2x2 bridge-spin transfer matrix:
    (w(2) + w(-2) + sqrt((w(2) - w(-2))^2 + 4 w(0)^2)) / 2.
    """
    beta = np.asarray(tp.beta, dtype=float)
    blocks, shift = _scaled_blocks(beta, params.j, params.gamma, params.jz,
                                   params.j0, params.h)
    lam, _, _ = _transfer(blocks)
    return np.exp(shift + np.log(lam))


def correlators(params: ModelParams, tp: ThermalPoint) -> CorrelationSet:
    """Thermodynamic-limit dimer expectations (xx, yy, zz, z)."""
    r11, r22, r33, r44, r14, r23 = _entries_core(
        np.float64(tp.beta), params.j, params.gamma, params.jz, params.j0, params.h)
    return CorrelationSet(xx=float(0.5 * (r23 + r14)),
                          yy=float(0.5 * (r23 - r14)),
                          zz=float(0.25 * (r11 + r44 - r22 - r33)),
                          z=float(0.5 * (r11 - r44)))


def dimer_density_matrix(c: CorrelationSet) -> DimerDensityMatrix:
    """Assemble the X-form state from correlators; trace is 1 exactly.

    The result carries psd_flag; an inconsistent CorrelationSet yields
    psd_flag=False rather than an exception.
    """
    return DimerDensityMatrix(
        r11=0.25 + c.zz + c.z,
        r22=0.25 - c.zz,
        r33=0.25 - c.zz,
        r44=0.25 + c.zz - c.z,
        r14=c.xx - c.yy,
        r23=c.xx + c.yy,
    )


def thermal_state(params: ModelParams, tp: ThermalPoint) -> DimerDensityMatrix:
    """Closed-form reduced dimer density matrix at temperature tp.t."""
    return dimer_density_matrix(correlators(params, tp))


def thermal_entries_grid(j0, t, h, gamma, jz, j=1.0):
    """Vectorized thermal-state entries over broadcastable parameter arrays.

    Returns (r11, r22, r33, r44, r14, r23) as arrays of the broadcast
    shape. The scalar path runs the same elementwise operations, so the
    two agree bit for bit.
    """
    arrs = [np.asarray(v, dtype=float) for v in (j0, t, h, gamma, jz, j)]
    j0a, ta, ha, ga, jza, ja = np.broadcast_arrays(*arrs)
    if np.any(ta <= 0.0) or not np.all(np.isfinite(ta)):
        raise ValueError("temperature grid must be finite and positive")
    return _entries_core(1.0 / ta, ja, ga, jza, j0a, ha)

