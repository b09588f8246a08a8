"""Trace-distance discord by direct minimization over classical-quantum states.

A classical-quantum state is chi = p Pi0 x rho0 + (1-p) Pi1 x rho1 with
(Pi0, Pi1) an orthogonal projector pair on the first qubit and rho0,
rho1 arbitrary single-qubit states. The family is parametrized by nine
reals: the projector axis (theta, phi), the weight p, and two Bloch
vectors. The objective ||rho - chi||_1 is minimized by a multi-start
coordinate pattern search; starts are seeded NumPy uniform draws over
the parameter box plus warm starts obtained by dephasing rho along a
deterministic lattice of measurement directions. Every intermediate
candidate is itself a valid classical-quantum state, so the running
best is always an upper bound on the true distance.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..params import DimerDensityMatrix

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# Step schedule: full search from the coarse step, then two re-polls of
# the converged points from fresher steps. Single-coordinate moves stall
# on curved valleys once the step has decayed; restarting the shrink from
# a moderate step lets a converged start keep descending along the valley.
_STEP_CASCADE = (0.35, 0.05, 0.008)
_MIN_STEP = 1e-7
_MAX_ITER = 400
_DISAGREE_WARN = 1e-3


@dataclass(frozen=True)
class CQStateParam:
    """Parameters of one classical-quantum candidate state."""
    theta: float
    phi: float
    p: float
    bloch0: tuple
    bloch1: tuple

    def vector(self) -> np.ndarray:
        return np.array([self.theta, self.phi, self.p, *self.bloch0, *self.bloch1])

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "CQStateParam":
        x = _project(np.asarray(x, dtype=float))
        return cls(theta=float(x[0]), phi=float(x[1]), p=float(x[2]),
                   bloch0=tuple(x[3:6]), bloch1=tuple(x[6:9]))


def _project_batch(x: np.ndarray) -> np.ndarray:
    """Snap a (k, 9) batch of raw search vectors into the feasible set:
    weights clipped to [0, 1], Bloch vectors rescaled onto the unit ball."""
    x = np.asarray(x, dtype=float).copy()
    x[:, 2] = np.clip(x[:, 2], 0.0, 1.0)
    for sl in (slice(3, 6), slice(6, 9)):
        r = np.linalg.norm(x[:, sl], axis=1)
        scale = np.where(r > 1.0, r, 1.0)
        x[:, sl] /= scale[:, None]
    return x


def _project(x: np.ndarray) -> np.ndarray:
    """Snap one raw search vector of length 9 into the feasible set."""
    return _project_batch(np.asarray(x, dtype=float)[None, :])[0]


def _qubit_state(bloch) -> np.ndarray:
    b = np.asarray(bloch, dtype=float)
    m = 0.5 * np.eye(2, dtype=complex)
    for k in range(3):
        m += 0.5 * b[k] * _PAULI[k]
    return m


def _projector_pair(theta: float, phi: float):
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    v = np.array([c, np.exp(1j * phi) * s])
    pi0 = np.outer(v, v.conj())
    return pi0, np.eye(2) - pi0


def cq_state(param: CQStateParam) -> np.ndarray:
    """The 4x4 density matrix of a classical-quantum candidate."""
    pi0, pi1 = _projector_pair(param.theta, param.phi)
    return (param.p * np.kron(pi0, _qubit_state(param.bloch0))
            + (1.0 - param.p) * np.kron(pi1, _qubit_state(param.bloch1)))


def _chi_batch(vectors: np.ndarray) -> np.ndarray:
    """Vectorized cq_state over a (k, 9) batch of feasible parameter vectors."""
    v = np.asarray(vectors, dtype=float)
    k = v.shape[0]
    c, s = np.cos(0.5 * v[:, 0]), np.sin(0.5 * v[:, 0])
    phase = np.exp(1j * v[:, 1])
    pi0 = np.empty((k, 2, 2), dtype=complex)
    pi0[:, 0, 0] = c * c
    pi0[:, 0, 1] = c * s * phase.conj()
    pi0[:, 1, 0] = c * s * phase
    pi0[:, 1, 1] = s * s
    pi1 = np.eye(2, dtype=complex)[None, :, :] - pi0

    def qubit(bloch):
        q = np.empty((k, 2, 2), dtype=complex)
        q[:, 0, 0] = 0.5 * (1.0 + bloch[:, 2])
        q[:, 0, 1] = 0.5 * (bloch[:, 0] - 1j * bloch[:, 1])
        q[:, 1, 0] = 0.5 * (bloch[:, 0] + 1j * bloch[:, 1])
        q[:, 1, 1] = 0.5 * (1.0 - bloch[:, 2])
        return q

    q0, q1 = qubit(v[:, 3:6]), qubit(v[:, 6:9])
    p = v[:, 2]
    chi = (np.einsum("k,kab,kcd->kacbd", p, pi0, q0)
           + np.einsum("k,kab,kcd->kacbd", 1.0 - p, pi1, q1))
    return np.ascontiguousarray(chi.reshape(k, 4, 4))


def trace_norm(delta) -> float:
    """Schatten 1-norm of a Hermitian matrix: sum of |eigenvalues|.

    Rejects non-Hermitian input (tolerance 1e-12 on the max entry).
    """
    m = np.asarray(delta)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.abs(m - m.conj().T).max() > 1e-12:
        raise ValueError("matrix is not Hermitian")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def trace_norm_diff_batch(rho: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """Schatten 1-norms ||rho - chis[k]||_1 for a stack of 4x4 Hermitian chis."""
    rho = np.asarray(rho, dtype=complex)
    chis = np.asarray(chis, dtype=complex)
    diff = rho[None, :, :] - chis.reshape(-1, 4, 4)
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def _vdc(k: int) -> float:
    """Van der Corput radical inverse in base 2 (progressive refinement)."""
    v, denom = 0.0, 1.0
    while k:
        denom *= 2.0
        v += (k & 1) / denom
        k >>= 1
    return v


def _measurement_directions(n_dirs: int) -> list:
    """The coordinate axes, then a progressively refining fan of polar
    angles in the x-z plane. For a state with a real matrix the optimal
    measurement axis lies in that plane (conjugation symmetry), and the
    local unitary sigma_z x sigma_z maps phi = pi onto phi = 0, so the
    fan only needs theta in (0, pi) at phi = 0. The y axis is kept for
    inputs with complex off-diagonal entries."""
    dirs = [(0.0, 0.0), (0.5 * np.pi, 0.0), (0.5 * np.pi, 0.5 * np.pi)]
    k = 2  # _vdc(1) = 1/2 duplicates the x axis already present
    while len(dirs) < n_dirs:
        dirs.append((np.pi * _vdc(k), 0.0))
        k += 1
    return dirs[:n_dirs]


def _dephase_batch(rho4: np.ndarray, thetas: np.ndarray,
                   phis: np.ndarray) -> np.ndarray:
    """Parameter vectors of rho dephased along a batch of measurement axes.

    Dephasing projects rho onto the classical-quantum family with the
    given projector pair: p_i = tr[(Pi_i x I) rho] and sigma_i the
    normalized B-side block tr_A[(Pi_i x I) rho (Pi_i x I)].
    """
    k = thetas.shape[0]
    c, s = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    phase = np.exp(1j * phis)
    pi0 = np.empty((k, 2, 2), dtype=complex)
    pi0[:, 0, 0] = c * c
    pi0[:, 0, 1] = c * s * phase.conj()
    pi0[:, 1, 0] = c * s * phase
    pi0[:, 1, 1] = s * s
    pi1 = np.eye(2, dtype=complex)[None, :, :] - pi0

    out = np.empty((k, 9))
    out[:, 0] = thetas
    out[:, 1] = phis
    for pis, sl in ((pi0, slice(3, 6)), (pi1, slice(6, 9))):
        # B-side block: tr_A[(Pi x I) rho (Pi x I)][b, d] = rho4[a, b, c, d] Pi[c, a]
        blk = np.einsum("abcd,ica->ibd", rho4, pis)
        p = np.real(blk[:, 0, 0] + blk[:, 1, 1])
        safe = np.where(p > 1e-12, p, 1.0)
        out[:, sl.start + 0] = 2.0 * np.real(blk[:, 1, 0]) / safe
        out[:, sl.start + 1] = 2.0 * np.imag(blk[:, 1, 0]) / safe
        out[:, sl.start + 2] = np.real(blk[:, 0, 0] - blk[:, 1, 1]) / safe
        out[:, sl] *= (p > 1e-12)[:, None]
        if sl.start == 3:
            out[:, 2] = np.clip(p, 0.0, 1.0)
    return out


def _pattern_search_batch(m: np.ndarray, x0s: np.ndarray) -> np.ndarray:
    """Best-improvement compass search run on every start simultaneously.

    Each iteration perturbs every active start along +/- each of the 9
    coordinates, evaluates all candidates in one batched trace-norm
    call, moves starts that improved, and halves the step of those that
    did not. A start retires once its step falls below the tolerance;
    retired starts are then re-polled from the next step in the cascade.

    The poll set also contains coupled moves: for each axis step in
    theta or phi, the candidate whose weight and Bloch vectors are the
    dephasing of rho along the moved axis. For a fixed axis the problem
    is convex (trace norm of an affine map), so plain coordinate polls
    refine reliably; the hard direction is the axis itself, and the
    coupled moves let a start travel along the dephasing manifold
    instead of stalling in the narrow curved valley a bare theta step
    cannot cross.
    """
    rho4 = m.reshape(2, 2, 2, 2)
    xs = _project_batch(np.asarray(x0s, dtype=float))
    fs = trace_norm_diff_batch(m, _chi_batch(xs)).astype(float)
    for init_step in _STEP_CASCADE:
        steps = np.full(xs.shape[0], init_step)
        for _ in range(_MAX_ITER):
            active = np.nonzero(steps >= _MIN_STEP)[0]
            if active.size == 0:
                break
            cands = np.repeat(xs[active][:, None, :], 22, axis=1)
            for i in range(9):
                cands[:, 2 * i, i] += steps[active]
                cands[:, 2 * i + 1, i] -= steps[active]
            th, ph, st = xs[active, 0], xs[active, 1], steps[active]
            cands[:, 18:, :] = np.stack([
                _dephase_batch(rho4, th + st, ph),
                _dephase_batch(rho4, th - st, ph),
                _dephase_batch(rho4, th, ph + st),
                _dephase_batch(rho4, th, ph - st),
            ], axis=1)
            flat = _project_batch(cands.reshape(-1, 9))
            vals = trace_norm_diff_batch(m, _chi_batch(flat)).reshape(active.size, 22)
            best_k = np.argmin(vals, axis=1)
            best_v = vals[np.arange(active.size), best_k]
            improved = best_v < fs[active] - 1e-15
            moved = active[improved]
            xs[moved] = flat.reshape(active.size, 22, 9)[improved, best_k[improved]]
            fs[moved] = best_v[improved]
            steps[active[~improved]] *= 0.5
    return fs


def tdd_bruteforce(rho, n_starts: int = 12, seed: int = 0) -> float:
    """Minimal trace distance from rho to the classical-quantum set.

    The starts are rho dephased along n_starts // 2 measurement axes,
    topped up to n_starts with uniform draws over the parameter box from
    `numpy.random.default_rng(seed)`. Deterministic for fixed
    (n_starts, seed); n_starts >= 8 required.
    Warns if the two best starts disagree by more than 1e-3 (possible
    non-convergence).
    """
    if n_starts < 8:
        raise ValueError(f"n_starts must be >= 8, got {n_starts}")
    if isinstance(rho, DimerDensityMatrix):
        m = rho.validate().matrix().astype(complex)
    else:
        m = np.asarray(rho, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 density matrix, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("matrix is not Hermitian")
        vals = np.linalg.eigvalsh(m)
        if vals.min() < -1e-8:
            raise ValueError(f"matrix has eigenvalue {vals.min():.3e} < -1e-8")
        if abs(vals.sum() - 1.0) > 1e-6:
            raise ValueError(f"trace {vals.sum():.6g} deviates from 1")

    dirs = np.array(_measurement_directions(n_starts // 2))
    u = np.random.default_rng(seed).random((n_starts - dirs.shape[0], 9))
    lo = np.array([0.0, 0.0, 0.0, -1, -1, -1, -1, -1, -1])
    hi = np.array([np.pi, 2.0 * np.pi, 1.0, 1, 1, 1, 1, 1, 1])
    rho4 = m.reshape(2, 2, 2, 2)
    starts = np.vstack([_dephase_batch(rho4, dirs[:, 0], dirs[:, 1]),
                        lo + (hi - lo) * u])

    finals = sorted(_pattern_search_batch(m, starts))
    if len(finals) > 1 and finals[1] - finals[0] > _DISAGREE_WARN:
        warnings.warn("classical-quantum search starts disagree by "
                      f"{finals[1] - finals[0]:.2e}; result may not be converged",
                      stacklevel=2)
    return finals[0]
