"""Domain types for the diamond-chain model and its thermal dimer state.

The quantum dimer carries spin-1/2 operators (Pauli matrices divided by
two) and the classical bridge spins take the values +1 and -1; the
Hamiltonian is written out in oracle.finite_chain._cell_hamiltonian. All
energies are expressed in units of the XY exchange J, temperatures as
T/J with k_B = 1, so J is not a parameter.

x_block_eigenvalues is the one closed form of the X-state spectrum: both
DimerDensityMatrix and measures.x_state_measures evaluate it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Summed neighboring bridge-spin values for the three distinct sectors.
SECTOR_SPIN_SUMS = (2.0, 0.0, -2.0)


def x_block_eigenvalues(r11, r22, r33, r44, r14, r23):
    """The four eigenvalues of X states, stacked on a new leading axis.

    The X form splits into the outer block (r11, r44; r14) and the inner
    block (r22, r33; r23); each 2x2 block is diagonalized in closed form.
    Broadcasts over arrays of entries; the order is outer -, outer +,
    inner -, inner +.
    """
    eo = 0.5 * (r11 + r44)
    do = np.hypot(0.5 * (r11 - r44), r14)
    ei = 0.5 * (r22 + r33)
    di = np.hypot(0.5 * (r22 - r33), r23)
    return np.stack([eo - do, eo + do, ei - di, ei + di])


def check_matrix(m) -> np.ndarray:
    """m as a complex 4x4 array with finite entries, Hermitian to 1e-10 and
    with trace within 1e-9 of 1, or a ValueError: the one rule for a valid
    state matrix. Positivity and structure are left to the caller."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError("expected a 4x4 density matrix, got "
                         f"{type(m).__name__}: {exc}") from None
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ValueError("matrix is not Hermitian")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"trace {tr:.12g} deviates from 1")
    return m


@dataclass(frozen=True)
class ModelParams:
    """Couplings of one diamond unit cell, in units of J.

    gamma skews the XY exchange into J(1+gamma) sigma^x sigma^x plus
    J(1-gamma) sigma^y sigma^y; jz is the Ising-type dimer coupling;
    j0 couples the dimer z components to the neighboring bridge spins;
    h is the magnetic field (the bridge spins see h/2 per neighbor).
    """
    gamma: float = 0.0
    jz: float = 0.0
    j0: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "jz", "j0", "h"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"non-finite parameter {name}={v}")


@dataclass(frozen=True)
class ThermalPoint:
    """Temperature in units of J; strictly positive."""
    t: float

    def __post_init__(self):
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"temperature must be finite and positive, got {self.t}")

    @property
    def beta(self) -> float:
        return 1.0 / self.t


@dataclass(frozen=True)
class DimerDensityMatrix:
    """Two-qubit X-form density matrix of one dimer.

    Nonzero entries sit on the diagonal (r11, r22, r33, r44) and the
    anti-diagonal (r14 = rho_14 = rho_41, r23 = rho_23 = rho_32), all
    real. The model Hamiltonian is real in the standard basis, so the
    off-diagonals carry no phase; every measure downstream depends on
    them only through their absolute values.

    min_eig and psd_flag are derived on construction and cannot be
    passed in: psd_flag is True when the smallest eigenvalue is
    >= -1e-10, i.e. the matrix is positive semidefinite up to numerical
    noise. A False flag marks an inconsistent input rather than raising,
    so sweeps can record it. With a non-finite entry min_eig is nan and
    psd_flag False, and no warning is raised.
    """
    r11: float
    r22: float
    r33: float
    r44: float
    r14: float
    r23: float
    min_eig: float = field(init=False)
    psd_flag: bool = field(init=False)

    PSD_TOL = -1e-10

    def __post_init__(self):
        # Non-finite entries have no spectrum (inf - inf would warn): min_eig
        # is nan, psd_flag False, and validate() refuses the matrix.
        finite = np.isfinite((self.r11, self.r22, self.r33, self.r44, self.r14, self.r23)).all()
        object.__setattr__(self, "min_eig", float(self.eigenvalues().min()) if finite else np.nan)
        object.__setattr__(self, "psd_flag", bool(self.min_eig >= self.PSD_TOL))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "DimerDensityMatrix":
        """Validate and convert a 4x4 array with X structure.

        Rejects input that fails `check_matrix` and any entry off the
        diagonal and anti-diagonal larger than 1e-12. Off-diagonal phases
        are dropped (their absolute values are stored): all supported
        measures are invariant under the local phase rotations that
        remove them.
        """
        m = check_matrix(m)
        x_pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
        off = np.abs(m[~x_pattern]).max()
        if off > 1e-12:
            raise ValueError(f"matrix is not X-structured: off-pattern magnitude {off:.3e}")
        to_real = lambda v: float(np.real(v)) if abs(np.imag(v)) <= 1e-12 else float(np.abs(v))
        return cls(*(float(v) for v in np.real(np.diag(m))), to_real(m[0, 3]), to_real(m[1, 2]))

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.r11, self.r22, self.r33, self.r44
        m[0, 3] = m[3, 0] = self.r14
        m[1, 2] = m[2, 1] = self.r23
        return m

    def eigenvalues(self) -> np.ndarray:
        """All four eigenvalues, exact 2x2-block closed form, ascending."""
        return np.sort(x_block_eigenvalues(self.r11, self.r22, self.r33,
                                           self.r44, self.r14, self.r23))

    def trace(self) -> float:
        return self.r11 + self.r22 + self.r33 + self.r44

    def validate(self) -> "DimerDensityMatrix":
        """Raise unless the matrix passes `check_matrix` and is PSD."""
        check_matrix(self.matrix())
        if not self.psd_flag:
            raise ValueError(f"matrix has eigenvalue {self.min_eig:.3e} < -1e-10")
        return self
