"""Independent reference for the rows of a `diamondqc sweep` CSV.

Nothing here imports `diamondqc`. The thermal dimer state is rebuilt from
the Hamiltonian by dense diagonalisation, and every measure is computed
from that dense 4x4 matrix by a different route than the package's closed
forms:

* Hamiltonian of one dimer between two classical bridge spins whose sum is
  x in {+2, 0, -2}, with spin-1/2 operators S = sigma/2 (the package's
  documented convention):

      H(x) = -[J(1+g) SxSx + J(1-g) SySy + Jz SzSz
               + (J0 x + h)(Sz_a + Sz_b) + h x / 2]

* The infinite chain's reduced dimer state is the transfer-matrix average
  rho = sum_{s,s'} v_s v_s' B(s+s') / lambda over the dominant eigenvector
  v of W[s,s'] = tr B(s+s'), with B(x) = exp(-H(x)/T). All Boltzmann
  factors share one exponent shift (log domain), and the eigenvector is the
  Perron angle atan2(2 w0, w+ - w-)/2. At h = 0 the two aligned sectors
  are exactly degenerate, so w+ = w- is imposed and the angle is pi/4: the
  spin-flip-symmetric eigenvector.
* Discord: S(B) - S(AB) + min over projective measurements on B of the
  conditional entropy of A, searched over the measurement angle.
* Concurrence: Wootters' lambda_i, the moduli of the eigenvalues of
  rho (sy x sy) (they are the square roots of the eigenvalues of
  rho rho~ for a real rho).
* Trace-distance discord is bracketed, not computed: the square root of the
  Hilbert-Schmidt geometric discord below (||M||_1 >= ||M||_2), and the
  smallest trace distance from rho to one of its own dephasings on A above
  (every dephasing is a classical-quantum state).

Entropies are in bits. Every function is vectorised over a leading axis.
"""
from __future__ import annotations

import numpy as np

SECTORS = (2.0, 0.0, -2.0)

_PAULI = np.array([[[0, 1], [1, 0]],
                   [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)
_I2 = np.eye(2)
_SS = np.array([np.kron(p, p).real for p in _PAULI / 2.0])  # SxSx, SySy, SzSz
_SZ_SUM = np.kron(_PAULI[2].real / 2.0, _I2) + np.kron(_I2, _PAULI[2].real / 2.0)
_SYSY = np.kron(_PAULI[1], _PAULI[1]).real  # sigma_y x sigma_y, real

# Measurement search: a grid over theta in [0, pi/2], then golden-section
# refinement around the best grid point. For a real X state the conditional
# entropy is even under theta -> pi - theta and its phi dependence enters
# only through |r14 e^{i phi} + r23 e^{-i phi}|, which is extremal at
# phi = 0 or pi/2; those two planes therefore contain the optimum.
_THETA_GRID = 33
_GOLDEN_ITERS = 32
_PHIS = (0.0, 0.5 * np.pi)
_DEPHASE_GRID = 17
_D_ROUNDING = 1e-14
_CHUNK = 4096
_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def hamiltonian(j0, h, gamma, jz, x, j=1.0) -> np.ndarray:
    """Dense 4x4 dimer Hamiltonians, shape (n, 4, 4), for bridge-spin sum x."""
    j0, h, gamma, jz = (np.asarray(v, dtype=float)[:, None, None]
                        for v in (j0, h, gamma, jz))
    return -(j * (1.0 + gamma) * _SS[0] + j * (1.0 - gamma) * _SS[1]
             + jz * _SS[2] + (j0 * x + h) * _SZ_SUM + 0.5 * h * x * np.eye(4))


def thermal_states(j0, t, h, gamma, jz) -> np.ndarray:
    """Reduced dimer states, shape (n, 4, 4), for flat parameter arrays."""
    j0, t, h, gamma, jz = (np.asarray(v, dtype=float).ravel()
                           for v in (j0, t, h, gamma, jz))
    if np.any(~np.isfinite(t)) or np.any(t <= 0.0):
        raise ValueError("temperatures must be finite and positive")
    # H does not depend on T: diagonalise once per distinct coupling set.
    keys, inv = np.unique(np.stack([j0, h, gamma, jz], axis=1), axis=0,
                          return_inverse=True)
    inv = inv.ravel()
    evals = np.empty((keys.shape[0], 3, 4))
    evecs = np.empty((keys.shape[0], 3, 4, 4))
    for s, x in enumerate(SECTORS):
        evals[:, s], evecs[:, s] = np.linalg.eigh(hamiltonian(*keys.T, x))
    out = np.empty((t.size, 4, 4))
    for lo in range(0, t.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        out[sl] = _average_state(evals[inv[sl]], evecs[inv[sl]], 1.0 / t[sl],
                                 h[sl] == 0.0)
    return out


def _average_state(evals, evecs, beta, zero_field):
    a = -beta[:, None, None] * evals
    a -= a.max(axis=(1, 2), keepdims=True)
    e = np.exp(a)
    blocks = np.einsum("nsik,nsk,nsjk->nsij", evecs, e, evecs)
    w = e.sum(axis=2)
    sym = 0.5 * (w[zero_field, 0] + w[zero_field, 2])
    w[zero_field, 0] = sym
    w[zero_field, 2] = sym
    wp, w0, wm = w[:, 0], w[:, 1], w[:, 2]
    ang = np.where(wp == wm, 0.25 * np.pi, 0.5 * np.arctan2(2.0 * w0, wp - wm))
    c, s = np.cos(ang), np.sin(ang)
    coef = np.stack([c * c, 2.0 * c * s, s * s], axis=1)
    lam = (coef * w).sum(axis=1)
    rho = np.einsum("ns,nsij->nij", coef, blocks) / lam[:, None, None]
    # At h = 0 the flip of all spins (F = sx x sx, which reverses the basis
    # order) maps H(x) onto H(-x), so F rho F = rho exactly; imposing it
    # removes rounding that exp(-E/T) amplifies at low T.
    rho[zero_field] = 0.5 * (rho[zero_field] + rho[zero_field][:, ::-1, ::-1])
    return rho


def _xlog2x(p):
    """p log2 p elementwise, with 0 log 0 = 0 and negatives clipped to 0."""
    p = np.maximum(p, 0.0)
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)


def entropy_bits(eigs) -> np.ndarray:
    """Von Neumann entropy from eigenvalues on the last axis."""
    return -_xlog2x(eigs).sum(axis=-1)


def marginals(rho):
    """(rho_A, rho_B), each shape (n, 2, 2)."""
    r4 = rho.reshape(-1, 2, 2, 2, 2)
    return np.einsum("nabcb->nac", r4), np.einsum("nabad->nbd", r4)


def basic_measures(rho) -> dict:
    """entropy_ab, entropy_a, entropy_b, mutual_info and concurrence."""
    ra, rb = marginals(rho)
    s_ab = entropy_bits(np.linalg.eigvalsh(rho))
    s_a = entropy_bits(np.linalg.eigvalsh(ra))
    s_b = entropy_bits(np.linalg.eigvalsh(rb))
    lam = np.sort(np.abs(np.linalg.eigvals(rho @ _SYSY)), axis=1)
    conc = np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0])
    return {"entropy_ab": s_ab, "entropy_a": s_a, "entropy_b": s_b,
            "mutual_info": s_a + s_b - s_ab, "concurrence": conc}


def _cond_entropy(blk, theta, phi):
    """Conditional entropy of A after measuring B along (theta, phi), for
    real rho; blk holds per-row A-operator entries, theta is (n, k)."""
    c2 = np.cos(0.5 * theta) ** 2
    s2 = 1.0 - c2
    cs = 0.5 * np.sin(theta)
    cc, ss = cs * np.cos(phi), cs * np.sin(phi)
    # tr_B[(1 x Pi_0) rho] = c2 B00 + s2 B11 + cs (e^{i phi} B01 + e^{-i phi} B10);
    # for real symmetric rho the diagonal of B01 - B10 vanishes.
    m00 = c2 * blk["a00"] + s2 * blk["b00"] + cc * blk["x00"]
    m11 = c2 * blk["a11"] + s2 * blk["b11"] + cc * blk["x11"]
    re01 = c2 * blk["a01"] + s2 * blk["b01"] + cc * blk["x01"]
    im01 = ss * blk["y01"]
    out = 0.0
    for d0, d1, re, im in ((m00, m11, re01, im01),
                           (blk["t00"] - m00, blk["t11"] - m11, blk["t01"] - re01, -im01)):
        p = d0 + d1
        rad = np.sqrt((d0 - d1) ** 2 + 4.0 * (re * re + im * im))
        out = out + _xlog2x(p) - _xlog2x(0.5 * (p + rad)) - _xlog2x(0.5 * (p - rad))
    return out


def _min_over_theta(f, n):
    """Minimise f(theta), an (n, k) -> (n, k) map, over theta in [0, pi/2]
    for every row: grid, then golden-section search around the best grid
    point. Returns the minimum."""
    grid = np.linspace(0.0, 0.5 * np.pi, _THETA_GRID)
    vals = f(np.broadcast_to(grid, (n, grid.size)))
    k = np.argmin(vals, axis=1)
    best = vals[np.arange(n), k]
    arg = grid[k]
    step = grid[1] - grid[0]
    a = np.maximum(arg - step, 0.0)
    b = np.minimum(arg + step, 0.5 * np.pi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f12 = f(np.stack([x1, x2], axis=1))
    f1, f2 = f12[:, 0], f12[:, 1]
    for _ in range(_GOLDEN_ITERS):
        left = f1 < f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        x_new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = f(x_new[:, None])[:, 0]
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
        best = np.minimum(best, f_new)
    return best


def discord(rho):
    """(qd, qd_branch): discord with measurement on B, in bits, and the
    smaller of its values for the axis-aligned measurements (z, and x or y),
    which equals qd unless the optimal measurement angle is interior."""
    n = rho.shape[0]
    r4 = rho.reshape(n, 2, 2, 2, 2)
    b00, b11 = r4[:, :, 0, :, 0], r4[:, :, 1, :, 1]
    b01, b10 = r4[:, :, 0, :, 1], r4[:, :, 1, :, 0]
    blk = {}
    for name, m in (("a", b00), ("b", b11), ("x", b01 + b10), ("y", b01 - b10),
                    ("t", b00 + b11)):
        for i, j in ((0, 0), (1, 1), (0, 1)):
            blk[f"{name}{i}{j}"] = m[:, i, j, None]
    _, rb = marginals(rho)
    base = entropy_bits(np.linalg.eigvalsh(rb)) - entropy_bits(np.linalg.eigvalsh(rho))
    best = np.full(n, np.inf)
    branch = np.full(n, np.inf)
    ends = np.array([[0.0, 0.5 * np.pi]])
    for phi in _PHIS:
        best = np.minimum(best, _min_over_theta(lambda th: _cond_entropy(blk, th, phi), n))
        branch = np.minimum(branch, _cond_entropy(blk, ends, phi).min(axis=1))
    return base + best, base + branch


def _fano(rho):
    """Bloch vector of A and correlation matrix: (x (n, 3), T (n, 3, 3))."""
    x = np.einsum("nji,kij->nk", rho, np.stack([np.kron(p, _I2) for p in _PAULI])).real
    corr = np.stack([np.stack([np.kron(p, q) for q in _PAULI]) for p in _PAULI])
    t = np.einsum("nji,klij->nkl", rho, corr).real
    return x, t


def tdd_lower(rho) -> np.ndarray:
    """sqrt of the geometric discord min ||rho - chi||_2^2 over classical-
    quantum chi (classical on A), by Dakic, Vedral and Brukner's formula
    (||x||^2 + ||T||^2 - k_max) / 4, less its rounding."""
    x, t = _fano(rho)
    k = np.einsum("ni,nj->nij", x, x) + t @ np.swapaxes(t, 1, 2)
    kmax = np.linalg.eigvalsh(k)[:, -1]
    d = 0.25 * (np.sum(x * x, axis=1) + np.sum(t * t, axis=(1, 2)) - kmax)
    # d is a difference of terms up to 4, so it carries rounding of about
    # 1e-15; taking that off keeps sqrt(d) a bound where d is truly 0.
    return np.sqrt(np.maximum(d - _D_ROUNDING, 0.0))


def tdd_upper(rho) -> np.ndarray:
    """Smallest trace distance ||rho - chi||_1 from a real rho to one of
    its dephasings chi on A, over axes on a theta grid in the x-z and y-z
    planes. Dephasing along N = n.sigma gives rho - chi = (rho - N rho N)/2.

    The y-z plane is mapped onto the x-z plane by the local unitary
    U = diag(1, i) x diag(1, -i): U^dag (N_yz x 1) U = N_xz x 1, so the
    distance equals that of the x-z axis for U^dag rho U. That matrix is
    real for an X state (r23 changes sign); the imaginary part dropped is
    the size of rho's off-X entries.
    """
    grid = np.linspace(0.0, 0.5 * np.pi, _DEPHASE_GRID)
    axes = np.einsum("kij,ab->kiajb",
                     np.cos(grid)[:, None, None] * _PAULI[2].real
                     + np.sin(grid)[:, None, None] * _PAULI[0].real,
                     _I2).reshape(-1, 4, 4)
    u = np.diag([1.0, -1j, 1j, 1.0])
    best = np.full(rho.shape[0], np.inf)
    for r in (rho, (u.conj().T @ rho @ u).real):
        diff = 0.5 * (r[:, None] - axes @ r[:, None] @ axes)
        dist = np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
        best = np.minimum(best, dist.min(axis=1))
    return best


def reference_table(coords) -> dict:
    """Reference values for sweep rows; coords columns are J0/J, T/J, h/J,
    gamma, Jz/J. Returns a dict of (n,) arrays."""
    coords = np.asarray(coords, dtype=float)
    out = {}
    for lo in range(0, coords.shape[0], _CHUNK):
        rho = thermal_states(*coords[lo:lo + _CHUNK].T)
        part = basic_measures(rho)
        part["qd"], part["qd_branch"] = discord(rho)
        part["tdd_lower"] = tdd_lower(rho)
        part["tdd_upper"] = tdd_upper(rho)
        for key, val in part.items():
            out.setdefault(key, []).append(val)
    return {key: np.concatenate(val) for key, val in out.items()}
