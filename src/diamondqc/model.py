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
exactly 1. Each sector's exponents are computed once, in one pass over
the sectors, and their maximum is factored out of every exponential, so
no exponential overflows; only beta times the energy scale itself can,
and `check_beta_energy` refuses those points. All couplings and
temperatures are in units of J,
which therefore never appears as a parameter.

Every operation broadcasts over NumPy arrays; scalars in, scalars out.
"""
from __future__ import annotations

import numpy as np

from .params import SECTOR_SPIN_SUMS, DimerDensityMatrix, ModelParams, ThermalPoint


def _scaled_blocks(beta, gamma, jz, j0, h):
    """Per-sector Boltzmann block entries scaled by e^{-shift}.

    Returns entries with entries[x] = (b11, b22, b44, b14, b23); b33 = b22
    by exchange symmetry of the dimer. The exponent pieces of every
    sector are computed once; the shift is their largest sum, so every
    exponential argument is <= 0 and nothing overflows at any beta.
    """
    ui = 0.5 * beta
    hg = 0.5 * gamma
    qz = 0.25 * jz
    pieces = {}
    shift = None
    for x in SECTOR_SPIN_SUMS:
        g = j0 * x + h
        d = np.hypot(g, hg)
        to = beta * d
        hx = 0.5 * h * x
        po = beta * (qz + hx)
        pi = beta * (hx - qz)
        pieces[x] = (g, d, po, to, pi)
        local = np.maximum(po + to, pi + ui)
        shift = local if shift is None else np.maximum(shift, local)
    entries = {}
    # The temporaries of the last sector set a chunk's peak memory, so they
    # are freed once spent.
    for x, (g, d, po, to, pi) in pieces.items():
        ep = np.exp(po + to - shift)
        em = np.exp(po - to - shift)
        pos = d > 0.0
        safe = np.where(pos, d, 1.0)
        ratio = np.where(pos, g / safe, 0.0)
        rp = 1.0 + ratio
        rm = 1.0 - ratio
        b11 = 0.5 * (ep * rp + em * rm)
        b44 = 0.5 * (ep * rm + em * rp)
        del rp, rm
        coef = np.where(pos, hg / safe, 0.0)
        del pos, safe, ratio
        b14 = coef * 0.5 * (ep - em)
        eip = np.exp(pi + ui - shift)
        eim = np.exp(pi - ui - shift)
        b22 = 0.5 * (eip + eim)
        b23 = 0.5 * (eip - eim)
        entries[x] = (b11, b22, b44, b14, b23)
    return entries


def _transfer(entries):
    """Scaled dominant eigenvalue and eigenvector of the transfer matrix.

    The eigenvector component lam - w(+2) is evaluated cancellation-free:
    for w(+2) >= w(-2) it equals 2 w(0)^2 / (rad + w(+2) - w(-2)). When
    w(0) underflows against the aligned sectors, the eigenvector is the
    heavier aligned sector, or their symmetric mix on a tie (h = 0).
    """
    # h -> -h swaps b11 <-> b44 and maps x = +2 onto x = -2, bit for bit.
    # Summing as (b11 + b44) + 2 b22 keeps that map exact, so wp(h) and
    # wm(-h) carry the same bits and tie exactly at h = 0. Any other order
    # can round them an ulp apart, and at low T such an ulp outweighs the
    # small w0 in the eigenvector.
    wp, w0, wm = ((entries[x][0] + entries[x][2]) + 2.0 * entries[x][1]
                  for x in SECTOR_SPIN_SUMS)
    diff = wp - wm
    tw0 = 2.0 * w0
    rad = np.hypot(diff, tw0)
    lam = 0.5 * (wp + wm + rad)
    denom = rad + np.abs(diff)
    denom = np.where(denom > 0.0, denom, 1.0)
    gp = np.where(diff >= 0.0, tw0 * w0 / denom, 0.5 * (rad - diff))
    norm = np.hypot(w0, gp)
    deg = norm < 1e-150
    safe_norm = np.where(deg, 1.0, norm)
    half = np.sqrt(0.5)
    tie = diff == 0.0
    v1 = np.where(deg, np.where(tie, half, diff > 0.0), w0 / safe_norm)
    v2 = np.where(deg, np.where(tie, half, diff < 0.0), gp / safe_norm)
    return lam, v1, v2


def check_beta_energy(j0, t, h, gamma, jz) -> None:
    """Raise ValueError, naming the first such point, where beta times the
    cell's energy scale, (2|J0| + 2|h| + |gamma| + |Jz| + 1) / T, reaches
    half the largest float64. Every exponent piece of `_scaled_blocks`, and
    beta itself, is at most that scale, so below it none overflows and no
    entry is nan; the factor two leaves room for their rounding. Broadcasts;
    the scale grows with each |coupling| and with 1 / T."""
    with np.errstate(over="ignore"):
        scale = (2.0 * np.abs(j0) + 2.0 * np.abs(h) + np.abs(gamma) + np.abs(jz) + 1.0) / t
    over = ~(scale < 0.5 * np.finfo(float).max)
    if np.any(over):
        k = np.argmax(over)
        j0, t, h, gamma, jz = (np.broadcast_to(v, over.shape) for v in (j0, t, h, gamma, jz))
        raise ValueError(
            f"beta * energy overflows float64 at T/J = {t.flat[k]:.6g} with "
            f"J0/J = {j0.flat[k]:.6g}, h/J = {h.flat[k]:.6g}, "
            f"gamma = {gamma.flat[k]:.6g}, Jz/J = {jz.flat[k]:.6g}")


def thermal_entries_grid(j0, t, h, gamma, jz):
    """Vectorized thermal-state entries over broadcastable parameter arrays.

    Returns (r11, r22, r33, r44, r14, r23) as arrays of the broadcast
    shape. A term of one parameter, such as 1 / T or g = J0 x + h, is
    computed once per value given, before the inputs meet: a sweep passes
    its first axis as a column and its second as a row. Raises ValueError
    on a non-positive or non-finite temperature and on non-finite
    couplings, as ThermalPoint and ModelParams do, and where
    `check_beta_energy` does.
    """
    j0, t, h, gamma, jz = (np.asarray(v, dtype=float) for v in (j0, t, h, gamma, jz))
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("temperature grid must be finite and positive")
    for name, a in (("j0", j0), ("h", h), ("gamma", gamma), ("jz", jz)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite coupling {name} in grid")
    check_beta_energy(j0, t, h, gamma, jz)
    blocks = _scaled_blocks(1.0 / t, gamma, jz, j0, h)
    lam, v1, v2 = _transfer(blocks)
    qp = v1 * v1
    q0 = v1 * v2
    qm = v2 * v2
    tq0 = 2.0 * q0
    r11, r22, r44, r14, r23 = (
        (qp * blocks[2.0][k] + tq0 * blocks[0.0][k] + qm * blocks[-2.0][k]) / lam
        for k in range(5))  # b11, b22, b44, b14, b23
    return r11, r22, r22, r44, r14, r23


def thermal_state(params: ModelParams, tp: ThermalPoint) -> DimerDensityMatrix:
    """Closed-form reduced dimer density matrix at temperature tp.t.

    Its entries are thermal_entries_grid at one point, so they carry the
    same bits as the sweep row at the same coordinates.
    """
    return DimerDensityMatrix(*(float(e) for e in thermal_entries_grid(
        params.j0, tp.t, params.h, params.gamma, params.jz)))
