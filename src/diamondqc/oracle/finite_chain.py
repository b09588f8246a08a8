"""Exact thermodynamics of small periodic diamond chains.

The bridge spins commute with the Hamiltonian, so a chain of n cells
factors into per-cell 4x4 Boltzmann blocks indexed by the sum of the two
neighboring bridge spins. The reduced state of one dimer is

    rho = sum_{s1,s2} B(s1+s2) (W^{n-1})[s2,s1] / tr(W^n)

with W the 2x2 scalar transfer matrix W[s,s'] = tr B(s+s'). Two
independent evaluations are provided: the transfer-power contraction
above (linear in n) and a direct sum over all 2^n bridge configurations
(exponential, cross-check only).

This module is also the convention arbiter: the Hamiltonian can be built
with Pauli or spin-1/2 dimer operators and with bridge spins of
magnitude 1/2 or 1. Calibration selects the combination whose large-n
limit the closed form reproduces; the shipped model constants are
spin-1/2 operators with bridge spins of magnitude 1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .. import model
from ..params import CorrelationSet, ModelParams, ThermalPoint

ISING_MAGNITUDES = ("half", "one")
HEISENBERG_CONVENTIONS = ("pauli", "spin_half")


@dataclass(frozen=True)
class FiniteChainSpec:
    """A finite periodic chain and the operator conventions to build it with."""
    n_cells: int
    params: ModelParams
    tp: ThermalPoint
    ising_magnitude: str = "one"
    heisenberg_convention: str = "spin_half"

    def __post_init__(self):
        if not (2 <= self.n_cells <= 20):
            raise ValueError(f"n_cells must be in [2, 20], got {self.n_cells}")
        if self.ising_magnitude not in ISING_MAGNITUDES:
            raise ValueError(f"unknown ising_magnitude {self.ising_magnitude!r}")
        if self.heisenberg_convention not in HEISENBERG_CONVENTIONS:
            raise ValueError(
                f"unknown heisenberg_convention {self.heisenberg_convention!r}")

    @property
    def spin_value(self) -> float:
        return 0.5 if self.ising_magnitude == "half" else 1.0

    @property
    def operator_scale(self) -> float:
        return 1.0 if self.heisenberg_convention == "pauli" else 0.5


def _cell_hamiltonian(spec: FiniteChainSpec, x: float) -> np.ndarray:
    """4x4 dimer Hamiltonian for bridge-spin sum x; real matrix."""
    p = spec.params
    f = spec.operator_scale
    sx = f * np.array([[0.0, 1.0], [1.0, 0.0]])
    ay = f * np.array([[0.0, -1.0], [1.0, 0.0]])  # sy = i * ay
    sz = f * np.array([[1.0, 0.0], [0.0, -1.0]])
    i2 = np.eye(2)
    sxsx = np.kron(sx, sx)
    sysy = -np.kron(ay, ay)  # (i ay) x (i ay) = -ay x ay, real
    szsz = np.kron(sz, sz)
    sz_sum = np.kron(sz, i2) + np.kron(i2, sz)
    return -(p.j * (1.0 + p.gamma) * sxsx + p.j * (1.0 - p.gamma) * sysy
             + p.jz * szsz + (p.j0 * x + p.h) * sz_sum
             + 0.5 * p.h * x * np.eye(4))


def _boltzmann_blocks(spec: FiniteChainSpec):
    """Per-sector blocks exp(-beta H(x)) e^{-shift}, sharing one shift."""
    beta = spec.tp.beta
    a = spec.spin_value
    sums = (2.0 * a, 0.0, -2.0 * a)
    eig = {}
    shift = None
    for x in sums:
        vals, vecs = np.linalg.eigh(_cell_hamiltonian(spec, x))
        eig[x] = (vals, vecs)
        top = float((-beta * vals).max())
        shift = top if shift is None else max(shift, top)
    blocks = {x: (vecs * np.exp(-beta * vals - shift)) @ vecs.T
              for x, (vals, vecs) in eig.items()}
    return blocks, sums


def finite_chain_reduced_state(spec: FiniteChainSpec) -> np.ndarray:
    """Reduced dimer state by transfer-power contraction; 4x4 real."""
    blocks, _ = _boltzmann_blocks(spec)
    a = spec.spin_value
    w = {x: float(np.trace(b)) for x, b in blocks.items()}
    tm = np.array([[w[2.0 * a], w[0.0]], [w[0.0], w[-2.0 * a]]])
    power = np.eye(2)
    for _ in range(spec.n_cells - 1):
        power = power @ tm
        power /= power.max()  # scale cancels in the final ratio
    svals = (a, -a)
    num = np.zeros((4, 4))
    den = 0.0
    for i, s1 in enumerate(svals):
        for k, s2 in enumerate(svals):
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
    blocks, _ = _boltzmann_blocks(spec)
    a = spec.spin_value
    w = {x: float(np.trace(b)) for x, b in blocks.items()}
    tm = np.array([[w[2.0 * a], w[0.0]], [w[0.0], w[-2.0 * a]]])
    vals = np.abs(np.linalg.eigvalsh(tm))
    hi = float(vals.max())
    return float(vals.min()) / hi if hi > 0.0 else 1.0


def enumerate_reduced_state(spec: FiniteChainSpec) -> np.ndarray:
    """Reduced dimer state by direct sum over all 2^n bridge configurations.

    Exponential cost; capped at n_cells <= 12. Cross-checks the transfer
    contraction, with which it must agree to near machine precision.
    """
    if spec.n_cells > 12:
        raise ValueError("direct enumeration capped at n_cells <= 12")
    blocks, _ = _boltzmann_blocks(spec)
    a = spec.spin_value
    w = {x: float(np.trace(b)) for x, b in blocks.items()}
    num = np.zeros((4, 4))
    den = 0.0
    n = spec.n_cells
    for cfg in itertools.product((a, -a), repeat=n):
        tail = 1.0
        for i in range(1, n):
            tail *= w[cfg[i] + cfg[(i + 1) % n]]
        num += tail * blocks[cfg[0] + cfg[1]]
        den += tail * w[cfg[0] + cfg[1]]
    return num / den


def _correlators_from_state(rho: np.ndarray) -> CorrelationSet:
    """Spin-1/2 expectations read off a 4x4 dimer state (X form assumed)."""
    return CorrelationSet(
        xx=float(0.5 * (rho[0, 3] + rho[1, 2])),
        yy=float(0.5 * (rho[1, 2] - rho[0, 3])),
        zz=float(0.25 * (rho[0, 0] + rho[3, 3] - rho[1, 1] - rho[2, 2])),
        z=float(0.5 * (rho[0, 0] - rho[3, 3])),
    )


def finite_chain_correlators(spec: FiniteChainSpec) -> CorrelationSet:
    """Dimer expectations of the finite chain, spin-1/2 normalization.

    The extraction operators are fixed to spin-1/2 regardless of which
    convention built the Hamiltonian, so results are directly comparable
    with the closed form across calibration candidates.
    """
    return _correlators_from_state(finite_chain_reduced_state(spec))


_CAL_PARAMS = ModelParams(gamma=0.6, jz=0.3, j0=0.3, h=0.35)
_CAL_TP = ThermalPoint(t=0.5)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the convention calibration at one benchmark point."""
    deviations: dict = field(repr=False)  # (ising, heisenberg) -> max |closed - chain|
    selected: tuple = ()
    n_cells: int = 14
    selected_deviation: float = float("nan")


def calibrate_conventions(params: ModelParams = _CAL_PARAMS,
                          tp: ThermalPoint = _CAL_TP,
                          n_cells: int = 14) -> CalibrationResult:
    """Compare the closed form against every convention combination.

    The closed form is evaluated once; each (ising_magnitude,
    heisenberg_convention) pair gets a finite-chain run at n_cells, and
    the combination with the smallest maximum correlator deviation is
    selected. The shipped constants correspond to ('one', 'spin_half').
    """
    closed = model.correlators(params, tp)
    closed_vec = np.array([closed.xx, closed.yy, closed.zz, closed.z])
    devs = {}
    for mag in ISING_MAGNITUDES:
        for conv in HEISENBERG_CONVENTIONS:
            spec = FiniteChainSpec(n_cells=n_cells, params=params, tp=tp,
                                   ising_magnitude=mag,
                                   heisenberg_convention=conv)
            got = finite_chain_correlators(spec)
            got_vec = np.array([got.xx, got.yy, got.zz, got.z])
            devs[(mag, conv)] = float(np.abs(closed_vec - got_vec).max())
    selected = min(devs, key=devs.get)
    return CalibrationResult(deviations=devs, selected=selected,
                             n_cells=n_cells, selected_deviation=devs[selected])

