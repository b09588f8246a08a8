"""Thermal quantum correlations of the spin-1/2 Ising-XYZ diamond chain.

The package computes pairwise correlation measures (quantum discord,
trace-distance discord, concurrence, mutual information) for the
Heisenberg dimer of an infinite diamond chain whose interstitial
dimers couple through classical Ising spins. Closed-form transfer
matrix expressions drive the fast path; independent brute-force
oracles (finite-chain contraction, measurement-grid discord search,
classical-quantum pattern search) validate them.
"""
from .measures import correlation_report, x_state_measures
from .model import thermal_entries_grid, thermal_state
from .params import DimerDensityMatrix, ModelParams, ThermalPoint
from .sweep import Axis, SweepSpec, count_peaks, emit_csv, figure_preset, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "DimerDensityMatrix",
    "ModelParams",
    "SweepSpec",
    "ThermalPoint",
    "correlation_report",
    "count_peaks",
    "emit_csv",
    "figure_preset",
    "run_sweep",
    "thermal_entries_grid",
    "thermal_state",
    "x_state_measures",
    "__version__",
]
