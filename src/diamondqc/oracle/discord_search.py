"""Quantum discord by direct minimization over projective measurements.

The measured subsystem is the second qubit; the measurement basis is a
rank-1 projector pair along the Bloch direction (theta, phi). The
projector pair and the input validation are those of cq_search. The
post-measurement conditional entropy is scanned on an inclusive
(theta, phi) grid and then refined by repeatedly re-gridding a shrinking
box around the incumbent (golden-section shrink factor). Everything is
deterministic for fixed inputs; the incumbent minimum never increases
with more grid points or more refinement rounds.
"""
from __future__ import annotations

import numpy as np

from .cq_search import _density_matrix, _projectors

_SHRINK = 0.382  # golden-section complement
_REFINE_POINTS = 9


def _entropy_bits(vals: np.ndarray) -> float:
    vals = np.clip(vals, 0.0, 1.0)
    vals = vals[vals > 1e-300]
    return float(-(vals * np.log2(vals)).sum())


def cond_entropy_grid(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Post-measurement conditional entropy over a grid of Bloch angles.

    For each (theta, phi), the second qubit is measured in the basis of
    the Bloch direction (theta, phi); returns sum_k p_k S(rho_A|k) in
    bits, shape (len(thetas), len(phis)). rho is a 4x4 density matrix
    (any Hermitian, not only X form).
    """
    rho = np.asarray(rho, dtype=complex)
    t, p = np.broadcast_arrays(np.asarray(thetas, dtype=float)[:, None],
                               np.asarray(phis, dtype=float)[None, :])
    rho4 = rho.reshape(2, 2, 2, 2)
    out = np.zeros(t.shape)
    for pi in _projectors(t, p):
        # N[a,a'] = sum_{b,b'} rho[a,b,a',b'] Pi[b',b]
        n = np.einsum("abcd,...db->...ac", rho4, pi)
        pk = np.real(n[..., 0, 0] + n[..., 1, 1])
        diff = np.real(n[..., 0, 0] - n[..., 1, 1])
        off2 = np.abs(n[..., 0, 1]) ** 2
        blo = np.sqrt(diff * diff + 4.0 * off2)
        safe = np.maximum(pk, 1e-300)
        lam1 = np.clip(0.5 * (pk + blo) / safe, 0.0, 1.0)
        lam2 = np.clip(0.5 * (pk - blo) / safe, 0.0, 1.0)
        ent = np.zeros_like(pk)
        for lam in (lam1, lam2):
            m = lam > 1e-300
            ent[m] -= lam[m] * np.log2(lam[m])
        out += np.where(pk > 1e-15, pk * ent, 0.0)
    return out


def qd_bruteforce(rho, n_grid: int = 24, n_refine: int = 6) -> float:
    """Quantum discord = mutual information - maximal classical correlation.

    Works on any two-qubit density matrix (4x4), not only X states.
    n_grid >= 16 is required; n_refine counts the local re-grid rounds.
    """
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16, got {n_grid}")
    if n_refine < 0:
        raise ValueError(f"n_refine must be >= 0, got {n_refine}")
    m = _density_matrix(rho)

    rho4 = m.reshape(2, 2, 2, 2)
    rho_a = np.trace(rho4, axis1=1, axis2=3)
    rho_b = np.trace(rho4, axis1=0, axis2=2)
    s_a = _entropy_bits(np.linalg.eigvalsh(rho_a))
    s_b = _entropy_bits(np.linalg.eigvalsh(rho_b))
    s_ab = _entropy_bits(np.linalg.eigvalsh(m))

    thetas = np.linspace(0.0, np.pi, n_grid)
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid)
    grid = cond_entropy_grid(m, thetas, phis)
    k = int(np.argmin(grid))
    best = float(grid.flat[k])
    bt = thetas[k // n_grid]
    bp = phis[k % n_grid]

    wt = np.pi / max(n_grid - 1, 1)
    wp = 2.0 * np.pi / max(n_grid - 1, 1)
    for _ in range(n_refine):
        ts = np.linspace(bt - wt, bt + wt, _REFINE_POINTS)
        ps = np.linspace(bp - wp, bp + wp, _REFINE_POINTS)
        local = cond_entropy_grid(m, ts, ps)
        k = int(np.argmin(local))
        if float(local.flat[k]) < best:
            best = float(local.flat[k])
            bt = ts[k // _REFINE_POINTS]
            bp = ps[k % _REFINE_POINTS]
        wt *= _SHRINK
        wp *= _SHRINK

    # mutual information minus classical correlation S(A) - min cond entropy
    return (s_a + s_b - s_ab) - (s_a - best)
