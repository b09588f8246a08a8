"""Independent brute-force ground truth.

finite_chain: exact thermodynamics of small periodic chains, converging
to the closed-form thermodynamic limit.
discord_search: measurement-grid minimization for quantum discord, with
the second qubit measured.
cq_search: classical-quantum-set minimization for trace-distance discord,
over states classical on the first qubit, from eight fixed starts, each
(state, start) pair searched on its own.

Each search module holds its own NumPy kernel (cond_entropy_grid,
trace_norm_diff_batch) and takes one state, checked by params.check_matrix;
discord_search takes its projector pairs (_projectors) from cq_search. The
oracles import nothing from the closed-form fast path, and evaluating a
sweep imports no oracle: only its spot checks do.
"""
from .finite_chain import (FiniteChainSpec, enumerate_reduced_state,
                           finite_chain_reduced_state, transfer_spectrum_ratio)
from .discord_search import qd_bruteforce
from .cq_search import tdd_bruteforce

__all__ = [
    "FiniteChainSpec", "finite_chain_reduced_state", "enumerate_reduced_state",
    "transfer_spectrum_ratio", "qd_bruteforce", "tdd_bruteforce",
]
