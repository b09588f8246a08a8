"""Tests for the finite-chain and derivative-free search oracles."""
import random
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diamondqc.measures import correlation_report
from diamondqc.model import thermal_entries_grid, thermal_state
from diamondqc.oracle import (FiniteChainSpec, cq_search, enumerate_reduced_state,
                              finite_chain_reduced_state, qd_bruteforce,
                              tdd_bruteforce, transfer_spectrum_ratio)
from diamondqc.oracle.cq_search import (_chi_batch, _project_batch, _search_pairs,
                                        _starts, trace_norm_diff_batch)
from diamondqc.oracle.discord_search import cond_entropy_grid
from diamondqc.params import DimerDensityMatrix, ModelParams, ThermalPoint
from diamondqc.sweep import _search_states

CAL_PARAMS = ModelParams(gamma=0.6, jz=0.3, j0=0.3, h=0.35)
CAL_TP = ThermalPoint(0.5)

BELL = np.zeros((4, 4))
BELL[0, 0] = BELL[3, 3] = BELL[0, 3] = BELL[3, 0] = 0.5
MIXED = np.eye(4) / 4.0


def cal_spec(n_cells):
    return FiniteChainSpec(n_cells=n_cells, params=CAL_PARAMS, tp=CAL_TP)


class TestFiniteChain:
    def test_enumeration_matches_transfer_contraction(self):
        # Two independent routes to the same reduced state: summing every
        # bridge-spin configuration explicitly, and contracting the ring
        # through transfer-matrix powers.
        for n in (2, 3, 4):
            spec = cal_spec(n)
            a = enumerate_reduced_state(spec)
            b = finite_chain_reduced_state(spec)
            assert np.abs(a - b).max() <= 1e-12

    def test_enumeration_capped(self):
        with pytest.raises(ValueError, match="capped"):
            enumerate_reduced_state(cal_spec(13))

    def test_convergence_to_closed_form_is_monotone(self):
        closed = thermal_state(CAL_PARAMS, CAL_TP)
        closed_vec = np.array([closed.r11, closed.r22, closed.r33, closed.r44,
                               closed.r14, closed.r23])
        devs = []
        for n in range(4, 15, 2):
            rho = finite_chain_reduced_state(cal_spec(n))
            got_vec = rho[[0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 3, 2]]
            devs.append(np.abs(closed_vec - got_vec).max())
        # Each doubling of the ring tightens the agreement until roundoff.
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-15
        assert devs[0] < 1e-4
        assert devs[-1] <= 1e-12

    def test_reduced_state_is_physical(self):
        rho = finite_chain_reduced_state(cal_spec(10))
        assert_allclose(np.trace(rho).real, 1.0, rtol=0.0, atol=1e-12)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_cells"):
            cal_spec(1)
        with pytest.raises(ValueError, match="n_cells"):
            cal_spec(21)

    def test_transfer_spectrum_ratio(self):
        r = transfer_spectrum_ratio(cal_spec(14))
        assert 0.0 < r <= 1.0
        # At the calibration point the subleading weight dies fast enough
        # that a 14-cell ring is converged far beyond the test tolerances.
        assert r ** 13 <= 1e-8


def random_hermitian_stack(rng, n):
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))


class TestKernels:
    def test_cond_entropy_maximally_mixed(self):
        thetas = np.linspace(0.0, np.pi, 7)
        phis = np.linspace(0.0, 2.0 * np.pi, 9)
        grid = cond_entropy_grid(MIXED, thetas, phis)
        assert grid.shape == (7, 9)
        # Any measurement outcome leaves the first qubit maximally mixed.
        assert_allclose(grid, 1.0, rtol=0.0, atol=1e-12)

    def test_cond_entropy_bell(self):
        thetas = np.linspace(0.0, np.pi, 5)
        phis = np.linspace(0.0, 2.0 * np.pi, 5)
        grid = cond_entropy_grid(BELL, thetas, phis)
        # Measuring one half of a maximally entangled pair collapses the
        # other half to a pure state, whatever the direction.
        assert_allclose(grid, 0.0, rtol=0.0, atol=1e-10)

    def test_trace_norm_batch_matches_direct(self):
        rng = np.random.default_rng(0)
        chis = random_hermitian_stack(rng, 12)
        got = trace_norm_diff_batch(BELL, chis)
        for k in range(12):
            want = np.abs(np.linalg.eigvalsh(BELL - chis[k])).sum()
            assert_allclose(got[k], want, rtol=1e-13, atol=1e-13)


class TestProjectiveSearch:
    def test_bell_state(self):
        assert qd_bruteforce(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert qd_bruteforce(MIXED) == pytest.approx(0.0, abs=1e-9)

    def test_product_state(self):
        rho = np.diag([0.36, 0.24, 0.24, 0.16])
        assert qd_bruteforce(rho) == pytest.approx(0.0, abs=1e-9)

    def test_parameter_validation(self):
        # The input check is the trace-distance oracle's, messages included.
        with pytest.raises(ValueError, match="trace 4 deviates"):
            qd_bruteforce(np.eye(4))

    def test_matches_closed_form(self):
        rep = correlation_report(thermal_state(CAL_PARAMS, CAL_TP))
        got = qd_bruteforce(thermal_state(CAL_PARAMS, CAL_TP).matrix())
        assert got >= rep.qd - 1e-9
        assert got == pytest.approx(rep.qd, abs=1e-4)


# Search vectors (theta, phi, p, bloch0, bloch1) of classical-quantum states.
CQ_VECTOR = np.array([0.7, 1.1, 0.3, 0.2, -0.1, 0.5, -0.4, 0.3, 0.1])


class TestCQStates:
    def test_cq_state_is_density_matrix(self):
        chi = _chi_batch(CQ_VECTOR[None, :])[0]
        assert_allclose(np.trace(chi).real, 1.0, rtol=0.0, atol=1e-14)
        assert np.abs(chi - chi.conj().T).max() <= 1e-14
        assert np.linalg.eigvalsh(chi).min() >= -1e-14

    def test_projection_into_feasible_set(self):
        v = np.array([[0.3, 0.2, 1.7, 3.0, 0.0, 0.0, 0.0, -5.0, 0.0],
                      CQ_VECTOR])
        q = _project_batch(v)
        assert 0.0 <= q[0, 2] <= 1.0
        assert np.linalg.norm(q[0, 3:6]) <= 1.0 + 1e-12
        assert np.linalg.norm(q[0, 6:9]) <= 1.0 + 1e-12
        # A feasible vector is left as it is.
        assert q[1].tolist() == CQ_VECTOR.tolist()


class TestMeasuredStateSearch:
    def test_bell_state(self):
        assert tdd_bruteforce(BELL) == pytest.approx(1.0, abs=1e-7)

    def test_classical_diagonal_is_fixed_point(self):
        rho = np.diag([0.4, 0.1, 0.3, 0.2])
        assert tdd_bruteforce(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert tdd_bruteforce(MIXED) == pytest.approx(0.0, abs=1e-9)

    def test_recovers_member_of_search_family(self):
        v = np.array([[np.pi / 4.0, 0.0, 0.6, 0.3, 0.0, -0.2, -0.1, 0.4, 0.5]])
        assert tdd_bruteforce(_chi_batch(v)[0]) <= 1e-8

    def test_upper_bound_on_closed_form(self):
        # The search minimizes over a subset of zero-discord states, so it
        # can only land on or above the closed-form value; with the
        # dephasing-coupled polls it lands on it.
        for t in (0.2, 0.5, 1.5):
            s = thermal_state(CAL_PARAMS, ThermalPoint(t))
            rep = correlation_report(s)
            got = tdd_bruteforce(s.matrix(), seed=0)
            assert got >= rep.tdd - 1e-9
            assert got == pytest.approx(rep.tdd, abs=1e-6)

    def test_deterministic(self):
        s = thermal_state(CAL_PARAMS, CAL_TP).matrix()
        a = tdd_bruteforce(s, seed=3)
        b = tdd_bruteforce(s, seed=3)
        assert a == b

    def test_parameter_validation(self):
        # rho is the only argument that is checked.
        with pytest.raises(ValueError, match="trace 4 deviates"):
            tdd_bruteforce(np.eye(4))

    @pytest.mark.parametrize("state, match", [
        # Eigenvalue -5e-9: below PSD_TOL = -1e-10.
        (DimerDensityMatrix(0.25, 0.25, 0.25, 0.25, 0.25 + 5e-9, 0.0),
         "eigenvalue -5.000e-09 < -1e-10"),
        # Trace 1 + 5e-9: outside the 1e-9 trace bound.
        (DimerDensityMatrix(0.25, 0.25, 0.25, 0.25 + 5e-9, 0.0, 0.0),
         "trace 1.000000005 deviates from 1"),
    ])
    def test_array_and_dimer_forms_share_one_input_check(self, state, match):
        # Both search oracles refuse the state whichever form it is given in.
        for form in (state, state.matrix()):
            for search in (qd_bruteforce, tdd_bruteforce):
                with pytest.raises(ValueError, match=match):
                    search(form)

    @pytest.mark.parametrize("states", [[BELL, MIXED, BELL],
                                        np.stack([BELL, MIXED, BELL])])
    def test_stack_is_refused_as_malformed(self, states):
        # Both searches take one state: a list of matrices or an (S, 4, 4)
        # array is refused as any malformed input, with one message.
        match = re.escape("expected a 4x4 density matrix, got shape (3, 4, 4)")
        with pytest.raises(ValueError, match=match) as qd:
            qd_bruteforce(states)
        with pytest.raises(ValueError) as tdd:
            tdd_bruteforce(states)
        assert str(tdd.value) == str(qd.value)

    def test_unreadable_state_is_refused_as_malformed(self):
        # A list of two states is no one state to either search; both refuse
        # it as any malformed input.
        pair = [DimerDensityMatrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)] * 2
        with pytest.raises(ValueError, match="^expected a 4x4 density matrix, got list: ") as alone:
            qd_bruteforce(pair)
        with pytest.raises(ValueError) as tdd:
            tdd_bruteforce(pair)
        assert str(tdd.value) == str(alone.value)

    def test_accepts_structured_state(self):
        s = DimerDensityMatrix(r11=0.5, r22=0.0, r33=0.0, r44=0.5,
                               r14=0.5, r23=0.0)
        assert tdd_bruteforce(s) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("seed, error", [
    (0, None), (True, None), (np.int64(3), None), (np.uint64(2**63), None),
    (2**100, None), (None, TypeError), (-1, ValueError), (np.int64(-1), ValueError),
    (1.5, TypeError), ("3", TypeError), ([1, 2], TypeError)])
def test_seed_rules(seed, error):
    # The search alone and the spot checks' batch path take a non-negative
    # integer of any integer type and size, and its draws depend on its
    # value only. A negative seed raises ValueError, and any other type
    # TypeError, None and a sequence of ints too.
    state = DimerDensityMatrix(0.4, 0.1, 0.3, 0.2, 0.1, 0.05)
    searches = [lambda: tdd_bruteforce(state, seed),
                lambda: float(_search_states([state], tdd=True, seed=seed)[0][0])]
    for search in searches:
        if error is not None:
            with pytest.raises(error):
                search()
            continue
        got = search()
        assert got == pytest.approx(correlation_report(state).tdd, abs=1e-7)
        assert got == tdd_bruteforce(state, int(seed))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 3), (1, 2), (0, 1)])
def test_non_finite_entry_is_refused_everywhere(where, value):
    # One check refuses a NaN or infinite entry, on the diagonal, on the
    # anti-diagonal or off the X pattern, for every entry point that takes
    # a state, in either form; none may compute past it.
    m = MIXED.copy()
    m[where] = m[where[::-1]] = value
    forms = [m]
    if where != (0, 1):
        entries = dict(r11=0.25, r22=0.25, r33=0.25, r44=0.25, r14=0.0, r23=0.0)
        entries[{(0, 0): "r11", (0, 3): "r14", (1, 2): "r23"}[where]] = value
        with warnings.catch_warnings():  # construction must not warn
            warnings.simplefilter("error")
            forms.append(DimerDensityMatrix(**entries))
        assert np.isnan(forms[1].min_eig) and forms[1].psd_flag is False
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            forms[1].validate()
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        DimerDensityMatrix.from_matrix(m)
    for form in forms:
        for entry in (correlation_report, qd_bruteforce, tdd_bruteforce):
            with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
                entry(form)


def cold_box_spot_check_states():
    """The states a 41x41 cold-box sweep (gamma = h = Jz = 0, T/J in
    [0.002, 0.05]) checks with --oracle-every 256: rows 0, 256, ..., 1536."""
    j0, t = np.meshgrid(np.linspace(-2.0, 2.0, 41), np.linspace(0.002, 0.05, 41),
                        indexing="ij")
    idx = np.arange(0, j0.size, 256)
    entries = thermal_entries_grid(j0.ravel()[idx], t.ravel()[idx], 0.0, 0.0, 0.0)
    return [DimerDensityMatrix(*(float(e[i]) for e in entries))
            for i in range(idx.size)]


def h_scan_states():
    """Every tenth state of the verify suite's 100-state h-scan, and states
    44 and 84, whose best search start is one of the seeded draws."""
    states = [thermal_state(ModelParams(gamma=0.5, jz=0.3, j0=-0.3, h=float(h)),
                            ThermalPoint(t))
              for t in (0.2, 0.5, 0.7, 1.0, 1.5)
              for h in np.linspace(-2.0, 2.0, 20)]
    return states[::10] + [states[44], states[84]]


def reference_tdd_search(states, seed=0):
    """The final distances of `tdd_bruteforce`'s eight starts on each of a
    list of states, shape (S, 8), in the batched form its search was first
    written: four dephased starts and four draws of `random.Random(seed)`,
    a compass search with coupled dephasing moves and the step cascade
    (0.35, 0.05, 0.008). Its cos, sin, exp and 4x4 eigvalsh run on the
    host's kernels, so its bits are those of the same host."""
    ms = np.array([s.matrix() for s in states], dtype=complex)

    def project(x):
        x = np.array(x, dtype=float)
        x[..., 2] = np.clip(x[..., 2], 0.0, 1.0)
        bloch = x[..., 3:].reshape(x.shape[:-1] + (2, 3))
        r = np.linalg.norm(bloch, axis=-1)
        x[..., 3:] = (bloch / np.where(r > 1.0, r, 1.0)[..., None]).reshape(x.shape[:-1] + (6,))
        return x

    def projectors(thetas, phis):
        c, s = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
        phase = np.exp(1j * phis)
        pi0 = np.empty(np.shape(thetas) + (2, 2), dtype=complex)
        pi0[..., 0, 0] = c * c
        pi0[..., 0, 1] = c * s * phase.conj()
        pi0[..., 1, 0] = c * s * phase
        pi0[..., 1, 1] = s * s
        return pi0, np.eye(2, dtype=complex) - pi0

    def qubit(bloch):
        q = np.empty(bloch.shape[:-1] + (2, 2), dtype=complex)
        q[..., 0, 0] = 0.5 * (1.0 + bloch[..., 2])
        q[..., 0, 1] = 0.5 * (bloch[..., 0] - 1j * bloch[..., 1])
        q[..., 1, 0] = 0.5 * (bloch[..., 0] + 1j * bloch[..., 1])
        q[..., 1, 1] = 0.5 * (1.0 - bloch[..., 2])
        return q

    def chi(v):
        pi0, pi1 = projectors(v[..., 0], v[..., 1])
        p = v[..., 2]
        out = (np.einsum("...,...ab,...cd->...acbd", p, pi0, qubit(v[..., 3:6]))
               + np.einsum("...,...ab,...cd->...acbd", 1.0 - p, pi1, qubit(v[..., 6:9])))
        return out.reshape(v.shape[:-1] + (4, 4))

    def distance(rho, chis):
        return np.abs(np.linalg.eigvalsh(np.subtract(rho, chis))).sum(axis=-1)

    def dephase(rho4, thetas, phis):
        out = np.empty(np.shape(thetas) + (9,))
        out[..., 0], out[..., 1] = thetas, phis
        for pis, j in zip(projectors(thetas, phis), (3, 6)):
            blk = np.einsum("sabcd,sica->sibd", rho4, pis)
            p = np.real(blk[..., 0, 0] + blk[..., 1, 1])
            safe = np.where(p > 1e-12, p, 1.0)
            out[..., j] = 2.0 * np.real(blk[..., 1, 0]) / safe
            out[..., j + 1] = 2.0 * np.imag(blk[..., 1, 0]) / safe
            out[..., j + 2] = np.real(blk[..., 0, 0] - blk[..., 1, 1]) / safe
            out[..., j:j + 3] *= (p > 1e-12)[..., None]
            if j == 3:
                out[..., 2] = np.clip(p, 0.0, 1.0)
        return out

    n = ms.shape[0]
    rng = random.Random(seed)
    u = np.array([[rng.random() for _ in range(9)] for _ in range(4)])
    lo = np.array([0.0, 0.0, 0.0, -1, -1, -1, -1, -1, -1])
    hi = np.array([np.pi, 2.0 * np.pi, 1.0, 1, 1, 1, 1, 1, 1])
    axes = np.array([[0.0, 0.0], [0.5 * np.pi, 0.0],
                     [0.5 * np.pi, 0.5 * np.pi], [0.25 * np.pi, 0.0]])
    warm = dephase(ms.reshape(-1, 2, 2, 2, 2), np.broadcast_to(axes[:, 0], (n, 4)),
                   np.broadcast_to(axes[:, 1], (n, 4)))
    starts = np.concatenate([warm, np.broadcast_to(lo + (hi - lo) * u, (n, 4, 9))], axis=1)
    owner = np.repeat(np.arange(n), 8)
    xs = project(starts.reshape(-1, 9))
    fs = distance(ms[owner], chi(xs))
    poll = np.arange(18)
    for init_step in (0.35, 0.05, 0.008):
        steps = np.full(xs.shape[0], init_step)
        for _ in range(400):
            active = np.nonzero(steps >= 1e-7)[0]
            if active.size == 0:
                break
            m, st = ms[owner[active]], steps[active]
            cands = np.repeat(xs[active][:, None, :], 22, axis=1)
            cands[:, poll, poll // 2] += np.outer(st, 1 - 2 * (poll % 2))
            th, ph = xs[active, 0], xs[active, 1]
            cands[:, 18:, :] = dephase(m.reshape(-1, 2, 2, 2, 2),
                                       np.stack([th + st, th - st, th, th], axis=1),
                                       np.stack([ph, ph, ph + st, ph - st], axis=1))
            cands = project(cands)
            vals = distance(m[:, None], chi(cands))
            best_k = np.argmin(vals, axis=1)
            best_v = vals[np.arange(active.size), best_k]
            improved = best_v < fs[active] - 1e-15
            moved = active[improved]
            xs[moved] = cands[improved, best_k[improved]]
            fs[moved] = best_v[improved]
            steps[active[~improved]] *= 0.5
    return fs.reshape(n, 8)


@pytest.fixture(scope="module")
def searched_alone():
    """The cold-box spot-check and h-scan states, and each one's search
    result."""
    states = cold_box_spot_check_states() + h_scan_states()
    assert len(states) == 19
    return states, [tdd_bruteforce(s, seed=0) for s in states]


class TestBatchedSearch:
    def test_values_are_frozen(self, searched_alone):
        # The search's exact bits on the cold-box spot checks and the h-scan
        # states, every start's final distance and each state's best, equal
        # those of its batched reference form on this host. A rewrite of the
        # search loop that keeps every entry's arithmetic keeps them; a
        # change of starts or polls may move them, and must then say so.
        # Some state's best is a seeded draw's (start 4 or later), so the
        # draws count in the best values too. (Pinned float.hex literals
        # would fail on hosts whose SIMD or BLAS kernels give other last
        # bits, as without AVX-512.)
        states, alone = searched_alone
        want = reference_tdd_search(states)
        ms, starts = _starts(states, 0)
        finals = _search_pairs(ms, starts).reshape(want.shape)
        assert [v.hex() for v in finals.ravel()] == [v.hex() for v in want.ravel()]
        assert [v.hex() for v in alone] == [v.hex() for v in want.min(axis=1)]
        assert (want.argmin(axis=1) >= 4).any()


# 1/4 |+><+| x rho0 + 3/4 |-><-| x rho1, with dyadic entries: classical on
# the first qubit along x, so its x warm start reproduces it.
X_CLASSICAL = (0.25 * np.kron([[0.5, 0.5], [0.5, 0.5]],
                              [[0.75, 0.25 - 0.125j], [0.25 + 0.125j, 0.25]])
               + 0.75 * np.kron([[0.5, -0.5], [-0.5, 0.5]],
                                [[0.375, -0.125], [-0.125, 0.625]]))


def recorded_pair_searches(monkeypatch):
    """Patch `cq_search._search_pairs` to record how many pairs each call in
    this process searches; returns the list of counts."""
    calls, search = [], cq_search._search_pairs

    def record(ms, starts, a=0, b=None):
        calls.append((ms.shape[0] * starts.shape[1] if b is None else b) - a)
        return search(ms, starts, a, b)

    monkeypatch.setattr(cq_search, "_search_pairs", record)
    return calls


class TestSettledStates:
    @pytest.mark.parametrize("state", [DimerDensityMatrix(0.4, 0.1, 0.3, 0.2, 0.0, 0.0),
                                       X_CLASSICAL], ids=["diagonal", "x-classical"])
    def test_reproduced_state_is_not_searched(self, monkeypatch, state):
        # A start that reproduces the state to within the improvement
        # tolerance settles it: no pair is searched, and its value is the
        # smallest distance of the search's first evaluation, bit for bit.
        ms, starts = _starts([state], 0)
        with monkeypatch.context() as mp:
            mp.setattr(cq_search, "_STEP_CASCADE", ())
            first = _search_pairs(ms, starts)
        assert first.min() < cq_search._IMPROVE_TOL
        calls = recorded_pair_searches(monkeypatch)
        assert tdd_bruteforce(state).hex() == first.min().hex()
        assert calls == []

    def test_nearly_diagonal_state_is_searched(self, monkeypatch):
        # A coherence of 1e-9 keeps every start some 2e-9 away, far above
        # the tolerance, so all eight pairs are searched.
        state = DimerDensityMatrix(0.4, 0.1, 0.3, 0.2, 1e-9, 0.0)
        calls = recorded_pair_searches(monkeypatch)
        got = tdd_bruteforce(state)
        assert calls == [8]
        assert got == pytest.approx(correlation_report(state).tdd, rel=1e-6)
