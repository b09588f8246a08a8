"""The reference on states whose answers are known exactly."""
import numpy as np
import pytest

import reference as R

BELL = {
    "phi+": (1, 0, 0, 1), "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0), "psi-": (0, 1, -1, 0),
}


def _pure(vec):
    v = np.asarray(vec, dtype=float)
    v /= np.linalg.norm(v)
    return np.outer(v, v)[None]


def _qubit(theta, p):
    """Real qubit state with Bloch vector of length p at polar angle theta
    in the x-z plane."""
    return 0.5 * (np.eye(2) + p * (np.sin(theta) * np.array([[0, 1], [1, 0]])
                                   + np.cos(theta) * np.diag([1.0, -1.0])))


def _all_measures(rho):
    m = R.basic_measures(rho)
    m["qd"], _ = R.discord(rho)
    m["tdd_lower"] = R.tdd_lower(rho)
    m["tdd_upper"] = R.tdd_upper(rho)
    return m


@pytest.mark.parametrize("name", sorted(BELL))
def test_bell_states_have_unit_correlations(name):
    m = _all_measures(_pure(BELL[name]))
    assert m["qd"][0] == pytest.approx(1.0, abs=1e-12)
    assert m["concurrence"][0] == pytest.approx(1.0, abs=1e-12)
    assert m["mutual_info"][0] == pytest.approx(2.0, abs=1e-12)
    # tdd = 1 lies in the bracket, and the upper end is attained.
    assert m["tdd_upper"][0] == pytest.approx(1.0, abs=1e-12)
    assert m["tdd_lower"][0] <= 1.0


@pytest.mark.parametrize("a, b", [((0.0, 1.0), (0.0, 0.3)),
                                  ((0.5 * np.pi, 0.7), (0.3, 0.9)),
                                  ((0.25 * np.pi, 0.4), (2.0, 0.0))])
def test_product_states_have_no_correlations(a, b):
    rho = np.kron(_qubit(*a), _qubit(*b))[None]
    m = _all_measures(rho)
    for key in ("qd", "concurrence", "mutual_info", "tdd_lower", "tdd_upper"):
        assert abs(m[key][0]) <= 1e-12, key


def test_infinite_temperature_is_maximally_mixed():
    rho = R.thermal_states([-2.0, 0.3, 1.5], [1e9] * 3, [0.27, 0.0, -1.0],
                           [0.95, 0.0, -4.0], [0.0, 0.3, 1.0])
    assert np.abs(rho - 0.25 * np.eye(4)).max() < 1e-8
    m = R.basic_measures(rho)
    assert np.allclose(m["entropy_ab"], 2.0, atol=1e-12)
    assert np.allclose(m["mutual_info"], 0.0, atol=1e-12)


@pytest.mark.parametrize("t", [0.002, 0.0092, 0.05, 0.5, 2.0])
def test_zero_field_keeps_spin_flip_symmetry(t):
    j0 = np.linspace(-2.0, 2.0, 41)
    n = j0.size
    for gamma, jz in ((0.0, 0.0), (0.6, 0.3)):
        rho = R.thermal_states(j0, np.full(n, t), np.zeros(n), np.full(n, gamma),
                               np.full(n, jz))
        assert np.abs(rho[:, 0, 0] - rho[:, 3, 3]).max() < 1e-14


def test_cold_ferro_bridge_state_is_the_symmetric_mixture():
    # J0/J = -2 at T/J = 0.002 and h = 0: both aligned bridge sectors are
    # equally likely, so rho = (|00><00| + |11><11|) / 2 and I = 1 bit.
    rho = R.thermal_states([-2.0], [0.002], [0.0], [0.0], [0.0])
    assert np.abs(rho[0] - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-12
    assert R.basic_measures(rho)["mutual_info"][0] == pytest.approx(1.0, abs=1e-12)


def test_states_are_density_matrices():
    rng = np.random.default_rng(7)
    n = 200
    args = (rng.uniform(-3, 3, n), rng.uniform(0.002, 5, n), rng.uniform(-3, 3, n),
            rng.uniform(-8, 8, n), rng.uniform(-3, 3, n))
    rho = R.thermal_states(*args)
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() < 1e-13
    assert np.abs(rho - np.swapaxes(rho, 1, 2)).max() < 1e-15
    assert np.linalg.eigvalsh(rho).min() > -1e-14


def _cond_entropy_sphere(rho, n_theta=181, n_phi=181):
    """Conditional entropy of A after measuring B, on a full-sphere grid,
    with complex projectors: no use of the X structure."""
    r4 = rho.reshape(2, 2, 2, 2)
    best = np.inf
    for th in np.linspace(0.0, np.pi, n_theta):
        for ph in np.linspace(0.0, 2.0 * np.pi, n_phi):
            v = np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
            total = 0.0
            for proj in (np.outer(v, v.conj()), np.eye(2) - np.outer(v, v.conj())):
                m = np.einsum("abcd,db->ac", r4, proj)
                p = np.trace(m).real
                if p > 1e-15:
                    lam = np.clip(np.linalg.eigvalsh(m / p), 1e-300, 1.0)
                    total += -p * np.sum(lam * np.log2(lam))
            best = min(best, total)
    return best


def test_discord_search_matches_a_full_sphere_search():
    # Thermal states of the model, including one whose optimal measurement
    # is at an interior angle.
    rho = R.thermal_states([-0.66, 0.3, -1.787], [0.2279, 0.5, 0.128],
                           [0.27, 0.35, 2.444], [0.95, 0.6, -0.265], [0.0, 0.3, 1.397])
    qd, _ = R.discord(rho)
    _, rb = R.marginals(rho)
    base = R.entropy_bits(np.linalg.eigvalsh(rb)) - R.entropy_bits(np.linalg.eigvalsh(rho))
    for k in range(rho.shape[0]):
        sphere = base[k] + _cond_entropy_sphere(rho[k], 61, 61)
        assert qd[k] <= sphere + 1e-12
        assert qd[k] >= sphere - 1e-3
