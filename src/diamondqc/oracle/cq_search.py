"""Trace-distance discord by direct minimization over classical-quantum states.

A classical-quantum state is chi = p Pi0 x rho0 + (1-p) Pi1 x rho1 with
(Pi0, Pi1) an orthogonal projector pair on the first qubit and rho0,
rho1 arbitrary single-qubit states: the states are classical on the
first qubit, as the closed form in measures takes them. The family is
parametrized by nine reals: the projector axis (theta, phi), the weight
p, and two Bloch vectors. The objective ||rho - chi||_1 is minimized by
a coordinate pattern search from eight starts: four uniform draws over
the parameter box from the standard library's `random.Random(seed)`, so
that no search loads `numpy.random`, and four warm starts obtained by
dephasing rho along fixed measurement axes (z, x, y and the x-z
diagonal). Every intermediate candidate is itself a valid
classical-quantum state, so the running best is always an upper bound
on the true distance.

The search runs on (state, start) pairs: a stack of S states has S x 8
pairs, and any contiguous run of them is searched in one loop, each
iteration polling every active pair with one batched evaluation. Pairs
never interact, so each pair's trajectory and final distance are those
of a search over that pair alone, and the pairs of one state may be
searched in different calls, or processes, before `_best_starts` takes
each state's best.

Before any pair is searched, `_settle` reads each state's eight start
distances once. A state with a start closer than `_IMPROVE_TOL`, the
least gain that moves a start, is settled: its value is that distance,
which lies less than `_IMPROVE_TOL` above the full search's, and none of
its pairs is searched. States already classical on the first qubit along
a warm-start axis, diagonal states for one, are settled this way.
"""
from __future__ import annotations

import operator
import random
import warnings

import numpy as np

from ..params import DimerDensityMatrix, check_matrix

# Step schedule: full search from the coarse step, then two re-polls of
# the converged points from fresher steps. Single-coordinate moves stall
# on curved valleys once the step has decayed; restarting the shrink from
# a moderate step lets a converged start keep descending along the valley.
_STEP_CASCADE = (0.35, 0.05, 0.008)
_MIN_STEP = 1e-7
_MAX_ITER = 400
# A poll moves a pair only to a candidate at least this much closer.
_IMPROVE_TOL = 1e-15
_DISAGREE_WARN = 1e-3
# The warm-start measurement axes (theta, phi): z, x, y, and theta = pi/4
# in the x-z plane. For a state with a real matrix the optimal axis lies
# in the x-z plane (conjugation symmetry), and the local unitary
# sigma_z x sigma_z maps phi = pi onto phi = 0; the y axis is kept for
# inputs with complex off-diagonal entries.
_WARM_AXES = np.array([[0.0, 0.0], [0.5 * np.pi, 0.0],
                       [0.5 * np.pi, 0.5 * np.pi], [0.25 * np.pi, 0.0]])
# A poll's 22 candidates lie on five axes, numbered as the angles of the
# poll: 0 the pair's own axis, 1 and 2 theta +- step, 3 and 4 phi +- step.
# Candidate 2i (2i + 1) moves coordinate i up (down), so the theta and phi
# moves 0..3 and the coupled moves 18..21 take axes 1..4; the others keep 0.
_POLL_AXES = np.array([1, 2, 3, 4] + [0] * 14 + [1, 2, 3, 4])


def _project_batch(x: np.ndarray) -> np.ndarray:
    """Snap a (..., 9) batch of raw search vectors into the feasible set:
    weights clipped to [0, 1], Bloch vectors rescaled onto the unit ball."""
    x = np.array(x, dtype=float)
    x[..., 2] = np.clip(x[..., 2], 0.0, 1.0)
    bloch = x[..., 3:].reshape(x.shape[:-1] + (2, 3))
    r = np.linalg.norm(bloch, axis=-1)
    x[..., 3:] = (bloch / np.where(r > 1.0, r, 1.0)[..., None]).reshape(x.shape[:-1] + (6,))
    return x


def _projectors(thetas: np.ndarray, phis: np.ndarray):
    """The projector pair (Pi0, Pi1) onto the axis (theta, phi) and its
    opposite, for any shape of angle arrays: two arrays of shape
    thetas.shape + (2, 2)."""
    c, s = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    phase = np.exp(1j * phis)
    pi0 = np.empty(np.shape(thetas) + (2, 2), dtype=complex)
    pi0[..., 0, 0] = c * c
    pi0[..., 0, 1] = c * s * phase.conj()
    pi0[..., 1, 0] = c * s * phase
    pi0[..., 1, 1] = s * s
    return pi0, np.eye(2, dtype=complex) - pi0


def _chi_batch(vectors: np.ndarray, pis=None) -> np.ndarray:
    """The 4x4 classical-quantum states of a (..., 9) batch of feasible
    parameter vectors (theta, phi, p, bloch0, bloch1): shape (..., 4, 4).
    pis is the vectors' `_projectors` pair, if the caller has it."""
    v = np.asarray(vectors, dtype=float)
    pi0, pi1 = _projectors(v[..., 0], v[..., 1]) if pis is None else pis

    def qubit(bloch):
        q = np.empty(bloch.shape[:-1] + (2, 2), dtype=complex)
        q[..., 0, 0] = 0.5 * (1.0 + bloch[..., 2])
        q[..., 0, 1] = 0.5 * (bloch[..., 0] - 1j * bloch[..., 1])
        q[..., 1, 0] = 0.5 * (bloch[..., 0] + 1j * bloch[..., 1])
        q[..., 1, 1] = 0.5 * (1.0 - bloch[..., 2])
        return q

    q0, q1 = qubit(v[..., 3:6]), qubit(v[..., 6:9])
    p = v[..., 2]
    chi = (np.einsum("...,...ab,...cd->...acbd", p, pi0, q0)
           + np.einsum("...,...ab,...cd->...acbd", 1.0 - p, pi1, q1))
    return chi.reshape(v.shape[:-1] + (4, 4))


def trace_norm_diff_batch(rho: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """Schatten 1-norms ||rho - chi||_1 of Hermitian 4x4 matrices, in one
    eigen-solve. rho and chis are (..., 4, 4) stacks whose leading axes
    broadcast: one rho against N chis, or an (S, 1, 4, 4) stack of states
    against their (S, k, 4, 4) candidates. Returns the broadcast leading
    shape."""
    return np.abs(np.linalg.eigvalsh(np.subtract(rho, chis))).sum(axis=-1)


def _dephase_batch(rho4: np.ndarray, thetas: np.ndarray,
                   phis: np.ndarray, pis=None) -> np.ndarray:
    """Parameter vectors of each state dephased along its own batch of
    measurement axes.

    rho4 holds S states as (S, 2, 2, 2, 2); thetas and phis are (S, k),
    row s the axes for state s, and pis their `_projectors` pair, if the
    caller has it. Returns (S, k, 9). Dephasing projects rho onto the
    classical-quantum family with the given projector pair:
    p_i = tr[(Pi_i x I) rho] and sigma_i the normalized B-side block
    tr_A[(Pi_i x I) rho (Pi_i x I)].
    """
    out = np.empty(np.shape(thetas) + (9,))
    out[..., 0] = thetas
    out[..., 1] = phis
    for pi, j in zip(_projectors(thetas, phis) if pis is None else pis, (3, 6)):
        # B-side block: tr_A[(Pi x I) rho (Pi x I)][b, d] = rho4[a, b, c, d] Pi[c, a]
        blk = np.einsum("sabcd,sica->sibd", rho4, pi)
        p = np.real(blk[..., 0, 0] + blk[..., 1, 1])
        safe = np.where(p > 1e-12, p, 1.0)
        out[..., j] = 2.0 * np.real(blk[..., 1, 0]) / safe
        out[..., j + 1] = 2.0 * np.imag(blk[..., 1, 0]) / safe
        out[..., j + 2] = np.real(blk[..., 0, 0] - blk[..., 1, 1]) / safe
        out[..., j:j + 3] *= (p > 1e-12)[..., None]
        if j == 3:
            out[..., 2] = np.clip(p, 0.0, 1.0)
    return out


def _search_pairs(ms: np.ndarray, starts: np.ndarray, a: int = 0,
                  b: int = None) -> np.ndarray:
    """Best-improvement compass search run on the (state, start) pairs
    a..b-1 simultaneously.

    ms holds S states (S, 4, 4) and starts their starts (S, k, 9); pair i
    is start i % k of state i // k, and b defaults to S * k. Returns the
    pairs' final distances, shape (b - a,). Each pair keeps its own step,
    and `owner` maps a pair to its state. Each iteration perturbs every
    active pair along +/- each of the 9 coordinates, evaluates all
    candidates of all pairs in one batched trace-norm call, moves pairs
    that improved, and halves the step of those that did not. A pair
    retires once its step falls below the tolerance; retired pairs are
    then re-polled from the next step in the cascade. No rule looks past
    a single pair, so each pair's result is what a search over that pair
    alone gives, whichever other pairs share the call.

    The poll set also contains coupled moves: for each axis step in
    theta or phi, the candidate whose weight and Bloch vectors are the
    dephasing of rho along the moved axis. For a fixed axis the problem
    is convex (trace norm of an affine map), so plain coordinate polls
    refine reliably; the hard direction is the axis itself, and the
    coupled moves let a start travel along the dephasing manifold
    instead of stalling in the narrow curved valley a bare theta step
    cannot cross. The poll's projector pairs are computed once for each
    of its five axes (`_POLL_AXES`) and gathered for its candidates.
    """
    k = starts.shape[1]
    b = ms.shape[0] * k if b is None else b
    owner = np.arange(a, b) // k
    xs = _project_batch(starts.reshape(-1, 9)[a:b])
    fs = trace_norm_diff_batch(ms[owner], _chi_batch(xs))
    poll = np.arange(18)  # candidate 2i moves coordinate i up, 2i + 1 down
    for init_step in _STEP_CASCADE:
        steps = np.full(xs.shape[0], init_step)
        for _ in range(_MAX_ITER):
            active = np.nonzero(steps >= _MIN_STEP)[0]
            if active.size == 0:
                break
            m = ms[owner[active]]
            st = steps[active]
            cands = np.repeat(xs[active][:, None, :], 22, axis=1)
            cands[:, poll, poll // 2] += np.outer(st, 1 - 2 * (poll % 2))
            th, ph = xs[active, 0], xs[active, 1]
            thetas = np.stack([th, th + st, th - st, th, th], axis=1)
            phis = np.stack([ph, ph, ph, ph + st, ph - st], axis=1)
            pis = _projectors(thetas, phis)
            cands[:, 18:, :] = _dephase_batch(
                m.reshape(-1, 2, 2, 2, 2), thetas[:, 1:], phis[:, 1:],
                [pi[:, 1:] for pi in pis])
            cands = _project_batch(cands)
            vals = trace_norm_diff_batch(
                m[:, None], _chi_batch(cands, [pi[:, _POLL_AXES] for pi in pis]))
            best_k = np.argmin(vals, axis=1)
            best_v = vals[np.arange(active.size), best_k]
            improved = best_v < fs[active] - _IMPROVE_TOL
            moved = active[improved]
            xs[moved] = cands[improved, best_k[improved]]
            fs[moved] = best_v[improved]
            steps[active[~improved]] *= 0.5
    return fs


def _density_matrix(rho) -> np.ndarray:
    """One validated 4x4 complex density matrix from a DimerDensityMatrix
    or an array-like; the input check of both search oracles. An array is
    held to the bounds of `DimerDensityMatrix.validate`: `check_matrix`
    and no eigenvalue below `DimerDensityMatrix.PSD_TOL`."""
    if isinstance(rho, DimerDensityMatrix):
        return rho.validate().matrix().astype(complex)
    m = check_matrix(rho)
    vals = np.linalg.eigvalsh(m)
    if vals.min() < DimerDensityMatrix.PSD_TOL:
        raise ValueError(f"matrix has eigenvalue {vals.min():.3e} < "
                         f"{DimerDensityMatrix.PSD_TOL:g}")
    return m


def _starts(states, seed: int):
    """The validated (S, 4, 4) matrices of a sequence of S states and
    their (S, 8, 9) search starts: each state dephased along the four
    `_WARM_AXES`, then four uniform draws over the parameter box, the
    same for every state: 36 calls of `random.Random(seed).random()`, in
    row-major order. seed is a non-negative integer (a bool or a NumPy
    integer too), or None for fresh entropy; a negative seed raises
    ValueError and any other type TypeError. The first invalid state
    raises the ValueError of a search on it alone."""
    ms = np.array([_density_matrix(r) for r in states],
                  dtype=complex).reshape(-1, 4, 4)
    n_states = ms.shape[0]
    if seed is not None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(36)]).reshape(4, 9)
    lo = np.array([0.0, 0.0, 0.0, -1, -1, -1, -1, -1, -1])
    hi = np.array([np.pi, 2.0 * np.pi, 1.0, 1, 1, 1, 1, 1, 1])
    warm = _dephase_batch(ms.reshape(-1, 2, 2, 2, 2),
                          np.broadcast_to(_WARM_AXES[:, 0], (n_states, 4)),
                          np.broadcast_to(_WARM_AXES[:, 1], (n_states, 4)))
    uniform = np.broadcast_to(lo + (hi - lo) * u, (n_states, 4, 9))
    return ms, np.concatenate([warm, uniform], axis=1)


def _settle(ms: np.ndarray, starts: np.ndarray) -> tuple:
    """Each state's smallest start distance, shape (S,), and the mask of
    the states it settles: those with a start closer than `_IMPROVE_TOL`.
    The distances are `_search_pairs`' first evaluation, bit for bit (the
    same projection and kernel). No poll moves a settled state's closest
    start, as its distance would have to fall below 0, and no other start
    ends lower by as much as `_IMPROVE_TOL`; so a settled state's value
    is that start's distance, less than `_IMPROVE_TOL` above the full
    search's, and none of its pairs needs searching."""
    k = starts.shape[1]
    fs = trace_norm_diff_batch(np.repeat(ms, k, axis=0),
                               _chi_batch(_project_batch(starts.reshape(-1, 9))))
    best = fs.reshape(-1, k).min(axis=1)
    return best, best < _IMPROVE_TOL


def _best_starts(finals: np.ndarray) -> np.ndarray:
    """Each state's best final distance from its (S, k) pair finals.
    Warns, once per state, if a state's two best starts disagree by more
    than `_DISAGREE_WARN` (possible non-convergence)."""
    finals = np.sort(finals, axis=1)
    for f in finals:
        if f[1] - f[0] > _DISAGREE_WARN:
            warnings.warn("classical-quantum search starts disagree by "
                          f"{f[1] - f[0]:.2e}; result may not be converged",
                          stacklevel=3)
    return finals[:, 0]


def tdd_bruteforce(rho, seed: int = 0) -> float:
    """Minimal trace distance from rho, one state (a DimerDensityMatrix or
    a 4x4 array), to the classical-quantum set, searched from eight starts
    (`_starts`): rho dephased along the four `_WARM_AXES`, and four uniform
    draws over the parameter box from `random.Random(seed)`. Deterministic
    for a fixed seed; a seed that is not a non-negative integer or None is
    refused. A state that a start already reproduces (`_settle`) is not
    searched: its value is that start's distance. Otherwise warns if the
    two best starts disagree by more than 1e-3 (possible non-convergence).
    """
    ms, starts = _starts([rho], seed)
    best, settled = _settle(ms, starts)
    if settled[0]:
        return float(best[0])
    return float(_best_starts(_search_pairs(ms, starts).reshape(starts.shape[:2]))[0])
