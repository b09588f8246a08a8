"""Exact thermodynamics of small periodic diamond chains.

The bridge spins commute with the Hamiltonian, so a chain of n cells
factors into per-cell 4x4 Boltzmann blocks indexed by the sum of the two
neighboring bridge spins. The reduced state of one dimer is

    rho = sum_{s1,s2} B(s1+s2) (W^{n-1})[s2,s1] / tr(W^n)

with W the 2x2 scalar transfer matrix W[s,s'] = tr B(s+s'). Two
independent evaluations are provided: the transfer-power contraction
above (linear in n) and a direct sum over all 2^n bridge configurations
(exponential, cross-check only).

The chain is built from the Hamiltonian alone (see _cell_hamiltonian);
nothing here reads the closed form it checks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..params import ModelParams, ThermalPoint

# Classical bridge-spin values and the three sectors x = s + s' they form.
_BRIDGE_SPINS = (1.0, -1.0)
_SECTORS = (2.0, 0.0, -2.0)


@dataclass(frozen=True)
class FiniteChainSpec:
    """A finite periodic chain of n_cells diamond cells at one temperature."""
    n_cells: int
    params: ModelParams
    tp: ThermalPoint

    def __post_init__(self):
        if not (2 <= self.n_cells <= 20):
            raise ValueError(f"n_cells must be in [2, 20], got {self.n_cells}")


def _cell_hamiltonian(p: ModelParams, x: float) -> np.ndarray:
    """4x4 dimer Hamiltonian of one cell for bridge-spin sum x; real matrix.

    The chain Hamiltonian is H = sum_i H_i with

        H_i = -J (1+gamma) S^x_a S^x_b - J (1-gamma) S^y_a S^y_b
              - Jz S^z_a S^z_b - (J0 x + h)(S^z_a + S^z_b) - (h/2) x,

    x = sigma_i + sigma_{i+1}, the dimer operators S = Pauli / 2 and the
    bridge spins sigma = +-1. Each bridge spin sits in two cells, so
    each cell carries half of its Zeeman energy -h sigma.
    """
    sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    ay = 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]])  # sy = i * ay
    sz = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
    i2 = np.eye(2)
    sxsx = np.kron(sx, sx)
    sysy = -np.kron(ay, ay)  # (i ay) x (i ay) = -ay x ay, real
    szsz = np.kron(sz, sz)
    sz_sum = np.kron(sz, i2) + np.kron(i2, sz)
    return -((1.0 + p.gamma) * sxsx + (1.0 - p.gamma) * sysy
             + p.jz * szsz + (p.j0 * x + p.h) * sz_sum
             + 0.5 * p.h * x * np.eye(4))


def _boltzmann_blocks(spec: FiniteChainSpec):
    """Per-sector blocks exp(-beta H(x)) e^{-shift}, sharing one shift,
    and their traces w(x)."""
    beta = spec.tp.beta
    eig = {x: np.linalg.eigh(_cell_hamiltonian(spec.params, x)) for x in _SECTORS}
    shift = max(float((-beta * vals).max()) for vals, _ in eig.values())
    blocks = {x: (vecs * np.exp(-beta * vals - shift)) @ vecs.T
              for x, (vals, vecs) in eig.items()}
    return blocks, {x: float(np.trace(b)) for x, b in blocks.items()}


def _transfer_matrix(w: dict) -> np.ndarray:
    """W[s,s'] = w(s+s') over _BRIDGE_SPINS."""
    return np.array([[w[s + t] for t in _BRIDGE_SPINS] for s in _BRIDGE_SPINS])


def finite_chain_reduced_state(spec: FiniteChainSpec) -> np.ndarray:
    """Reduced dimer state by transfer-power contraction; 4x4 real."""
    blocks, w = _boltzmann_blocks(spec)
    tm = _transfer_matrix(w)
    power = np.eye(2)
    for _ in range(spec.n_cells - 1):
        power = power @ tm
        power /= power.max()  # scale cancels in the final ratio
    num = np.zeros((4, 4))
    den = 0.0
    for i, s1 in enumerate(_BRIDGE_SPINS):
        for k, s2 in enumerate(_BRIDGE_SPINS):
            num += power[k, i] * blocks[s1 + s2]
            den += power[k, i] * w[s1 + s2]
    return num / den


def transfer_spectrum_ratio(spec: FiniteChainSpec) -> float:
    """Subdominant-to-dominant eigenvalue ratio of the chain's own
    2x2 bridge-spin transfer matrix.

    The finite ring's deviation from the infinite-chain limit scales
    like this ratio to the power (n_cells - 1), so it certifies, from
    the chain side alone, whether a comparison at a given n_cells is
    meaningful. Near-degenerate bridge sectors (ratio -> 1) mean the
    ring has not reached the thermodynamic limit at any tractable size.
    """
    vals = np.abs(np.linalg.eigvalsh(_transfer_matrix(_boltzmann_blocks(spec)[1])))
    hi = float(vals.max())
    return float(vals.min()) / hi if hi > 0.0 else 1.0


def enumerate_reduced_state(spec: FiniteChainSpec) -> np.ndarray:
    """Reduced dimer state by direct sum over all 2^n bridge configurations.

    Exponential cost; capped at n_cells <= 12. Cross-checks the transfer
    contraction, with which it must agree to near machine precision.
    """
    if spec.n_cells > 12:
        raise ValueError("direct enumeration capped at n_cells <= 12")
    blocks, w = _boltzmann_blocks(spec)
    num = np.zeros((4, 4))
    den = 0.0
    n = spec.n_cells
    for cfg in itertools.product(_BRIDGE_SPINS, repeat=n):
        tail = 1.0
        for i in range(1, n):
            tail *= w[cfg[i] + cfg[(i + 1) % n]]
        num += tail * blocks[cfg[0] + cfg[1]]
        den += tail * w[cfg[0] + cfg[1]]
    return num / den
