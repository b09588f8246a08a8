"""Tests for the closed-form thermal state and its building blocks."""
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from diamondqc import model
from diamondqc.measures import x_state_measures
from diamondqc.model import thermal_entries_grid, thermal_state
from diamondqc.params import (SECTOR_SPIN_SUMS, DimerDensityMatrix, ModelParams,
                              ThermalPoint)

CAL_PARAMS = ModelParams(gamma=0.6, jz=0.3, j0=0.3, h=0.35)
CAL_TP = ThermalPoint(0.5)

# Entries (r11, r22, r33, r44, r14, r23) frozen from the independent
# finite-chain oracle at the calibration point: its spin-1/2 correlators
# (xx, yy, zz, z) = (0.10696959275826, -0.00702953077884672,
# 0.11877517218604, 0.322722617078782), which a 14-cell ring matched to
# 5.6e-17, mapped through r11 = 1/4+zz+z, r22 = r33 = 1/4-zz,
# r44 = 1/4+zz-z, r14 = xx-yy, r23 = xx+yy.
CAL_ENTRIES = (0.691497789264822, 0.13122482781396, 0.13122482781396,
               0.046052555107257975, 0.11399912353710671, 0.09994006197941328)

# ROADMAP's F4 point, where the transfer eigenvector loses digits: the
# reference forms below must agree with the module there too.
F4_POINT = (-1.6949279305864766, 0.14892613585239473, 0.8519317188133337,
            -0.00015604944553040435, 1.2282012113698082)  # J0, T, h, gamma, Jz


def reference_scaled_blocks(beta, gamma, jz, j0, h):
    """`model._scaled_blocks` in its first form, each product formed where
    it is used. The module's bits must equal these."""
    ui = 0.5 * beta
    pieces = {}
    shift = None
    for x in SECTOR_SPIN_SUMS:
        g = j0 * x + h
        d = np.hypot(g, 0.5 * gamma)
        to = beta * d
        po = beta * (0.25 * jz + 0.5 * h * x)
        pi = beta * (0.5 * h * x - 0.25 * jz)
        pieces[x] = (g, d, po, to, pi)
        local = np.maximum(po + to, pi + ui)
        shift = local if shift is None else np.maximum(shift, local)
    entries = {}
    for x, (g, d, po, to, pi) in pieces.items():
        ep = np.exp(po + to - shift)
        em = np.exp(po - to - shift)
        safe = np.where(d > 0.0, d, 1.0)
        ratio = np.where(d > 0.0, g / safe, 0.0)
        b11 = 0.5 * (ep * (1.0 + ratio) + em * (1.0 - ratio))
        b44 = 0.5 * (ep * (1.0 - ratio) + em * (1.0 + ratio))
        coef = np.where(d > 0.0, 0.5 * gamma / safe, 0.0)
        b14 = coef * 0.5 * (ep - em)
        eip = np.exp(pi + ui - shift)
        eim = np.exp(pi - ui - shift)
        b22 = 0.5 * (eip + eim)
        b23 = 0.5 * (eip - eim)
        entries[x] = (b11, b22, b44, b14, b23)
    return entries


def reference_entries(j0, t, h, gamma, jz):
    """`thermal_entries_grid` in its first form, through
    `reference_scaled_blocks` and the transfer eigenvector as first written."""
    j0, t, h, gamma, jz = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (j0, t, h, gamma, jz)))
    blocks = reference_scaled_blocks(1.0 / t, gamma, jz, j0, h)
    wp, w0, wm = ((blocks[x][0] + blocks[x][2]) + 2.0 * blocks[x][1]
                  for x in SECTOR_SPIN_SUMS)
    diff = wp - wm
    rad = np.hypot(diff, 2.0 * w0)
    lam = 0.5 * (wp + wm + rad)
    denom = rad + np.abs(diff)
    denom = np.where(denom > 0.0, denom, 1.0)
    gp = np.where(diff >= 0.0, 2.0 * w0 * w0 / denom, 0.5 * (rad - diff))
    norm = np.hypot(w0, gp)
    deg = norm < 1e-150
    safe_norm = np.where(deg, 1.0, norm)
    half = np.sqrt(0.5)
    v1 = np.where(deg, np.where(diff == 0.0, half, diff > 0.0), w0 / safe_norm)
    v2 = np.where(deg, np.where(diff == 0.0, half, diff < 0.0), gp / safe_norm)
    qp, q0, qm = v1 * v1, v1 * v2, v2 * v2
    r11, r22, r44, r14, r23 = (
        (qp * blocks[2.0][k] + 2.0 * q0 * blocks[0.0][k] + qm * blocks[-2.0][k]) / lam
        for k in range(5))
    return r11, r22, r22, r44, r14, r23


def wide_boxes(n=6000, seed=20):
    """Seeded (J0, T, h, gamma, Jz) columns over T/J 1e-3..1e3, |gamma| <=
    1.5, |J0|, |Jz| <= 2 and |h| <= 3: free draws; h = 0 ties with signed
    zeros in h and gamma; sweep-like rows that repeat their couplings along
    runs of temperatures; and the F4 point."""
    rng = np.random.default_rng(seed)
    t = 10.0 ** rng.uniform(-3.0, 3.0, n)
    j0, jz = rng.uniform(-2.0, 2.0, (2, n))
    gamma = rng.uniform(-1.5, 1.5, n)
    signed_zeros = rng.choice([0.0, -0.0], n)
    row = np.arange(n)
    return {
        "free": (j0, t, rng.uniform(-3.0, 3.0, n), gamma, jz),
        "h-ties": (j0, t, signed_zeros, np.where(rng.random(n) < 0.2, signed_zeros, gamma), jz),
        "runs": (j0[row // 50], t, rng.choice([0.0, -0.0, 0.27], n)[row // 30],
                 gamma[row // 70], jz[row // 40]),
        "F4": tuple(np.array([v]) for v in F4_POINT),
    }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


params_box = st.builds(
    ModelParams,
    gamma=st.floats(-1.5, 1.5),
    jz=st.floats(-2.0, 2.0),
    j0=st.floats(-2.0, 2.0),
    h=st.floats(-3.0, 3.0),
)
temps = st.floats(0.05, 20.0)


class TestParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModelParams(gamma=np.nan)
        with pytest.raises(ValueError):
            ModelParams(h=np.inf)

    def test_no_unit_coupling(self):
        # Every energy is in units of J, so J itself is not a parameter.
        with pytest.raises(TypeError):
            ModelParams(j=1.0)

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            ThermalPoint(0.0)
        with pytest.raises(ValueError):
            ThermalPoint(-1.0)
        assert ThermalPoint(2.0).beta == 0.5


class TestCorrelators:
    def test_calibration_point_frozen_values(self):
        s = thermal_state(CAL_PARAMS, CAL_TP)
        assert_allclose((s.r11, s.r22, s.r33, s.r44, s.r14, s.r23),
                        CAL_ENTRIES, rtol=0.0, atol=1e-13)


class TestThermalState:
    def test_infinite_temperature_is_maximally_mixed(self):
        s = thermal_state(CAL_PARAMS, ThermalPoint(1e9))
        assert_allclose(s.matrix(), np.eye(4) / 4.0, atol=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(params=params_box, t=temps)
    def test_state_is_valid_density_matrix(self, params, t):
        s = thermal_state(params, ThermalPoint(t))
        assert abs(s.trace() - 1.0) <= 1e-12
        assert s.min_eig >= -1e-10
        assert s.psd_flag

    @settings(max_examples=60, deadline=None)
    @given(params=params_box, t=temps)
    # Cold and at h = +-1 ulp the state swings with h, so an ulp of rounding
    # asymmetry in the transfer weights showed here as 5e-5 in r11 - r44.
    @example(params=ModelParams(gamma=0.125, jz=0.0, j0=1.0,
                                h=2.220446049250313e-16), t=0.0546875)
    def test_field_flip_swaps_poles(self, params, t):
        # h -> -h exchanges the outer diagonal entries and fixes the
        # anti-diagonal, so every measure built from the state is even in h.
        tp = ThermalPoint(t)
        s = thermal_state(params, tp)
        flipped = ModelParams(gamma=params.gamma, jz=params.jz,
                              j0=params.j0, h=-params.h)
        f = thermal_state(flipped, tp)
        assert_allclose((f.r11, f.r22, f.r33, f.r44, f.r14, f.r23),
                        (s.r44, s.r22, s.r33, s.r11, s.r14, s.r23),
                        rtol=0.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(params=params_box, t=temps)
    def test_anisotropy_flip_changes_one_sign(self, params, t):
        # gamma -> -gamma swaps the two transverse couplings, flipping the
        # sign of r14 and nothing else.
        tp = ThermalPoint(t)
        s = thermal_state(params, tp)
        flipped = ModelParams(gamma=-params.gamma, jz=params.jz,
                              j0=params.j0, h=params.h)
        f = thermal_state(flipped, tp)
        assert_allclose((f.r11, f.r22, f.r33, f.r44, f.r14, f.r23),
                        (s.r11, s.r22, s.r33, s.r44, -s.r14, s.r23),
                        rtol=0.0, atol=1e-12)


class TestEntriesGrid:
    def test_scalar_and_grid_paths_agree_bitwise(self):
        # thermal_state is the grid evaluation at one point, so its entries
        # are the bits of the sweep row at the same coordinates.
        j0 = np.array([-1.3, 0.0, 0.7])
        t = np.array([0.3, 1.0, 4.0])
        h = np.array([-0.5, 0.27, 1.1])
        gamma = np.array([0.95, -0.4, 0.0])
        jz = np.array([0.0, 0.3, -1.0])
        grid = thermal_entries_grid(j0, t, h, gamma, jz)
        for i in range(3):
            single = thermal_entries_grid(j0[i], t[i], h[i], gamma[i], jz[i])
            s = thermal_state(ModelParams(gamma=gamma[i], jz=jz[i], j0=j0[i],
                                          h=h[i]), ThermalPoint(t[i]))
            state = (s.r11, s.r22, s.r33, s.r44, s.r14, s.r23)
            for g, one, entry in zip(grid, single, state):
                assert float(g[i]) == float(one) == entry

    def test_broadcasting(self):
        t = np.linspace(0.1, 2.0, 5)[:, None]
        h = np.linspace(-1.0, 1.0, 3)[None, :]
        entries = thermal_entries_grid(0.5, t, h, 0.9, 0.2)
        for e in entries:
            assert e.shape == (5, 3)
        trace = entries[0] + entries[1] + entries[2] + entries[3]
        assert_allclose(trace, 1.0, rtol=0.0, atol=1e-12)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError, match="positive"):
            thermal_entries_grid(0.0, np.array([1.0, 0.0]), 0.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="positive"):
            thermal_entries_grid(0.0, -2.0, 0.0, 0.5, 0.0)

    def test_rejects_non_finite_couplings(self):
        # The grid path rejects what ModelParams rejects.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                thermal_entries_grid(bad, 1.0, 0.0, 0.0, 0.0)
            with pytest.raises(ValueError, match="non-finite"):
                thermal_entries_grid(0.0, 1.0, np.array([0.0, bad]), 0.0, 0.0)

    def test_no_unit_coupling(self):
        with pytest.raises(TypeError):
            thermal_entries_grid(0, 1, 0, 0, 0, j=1.0)

    def test_zero_field_keeps_spin_flip_symmetry_when_cold(self):
        # Below T/J ~ 0.01 the mixed-sector weight w(0) underflows against
        # the two aligned sectors, which tie at h = 0.
        # With gamma != 0 the aligned weights can also round an ulp apart.
        j0 = np.linspace(-2.0, 2.0, 41)[:, None]
        t = np.geomspace(0.002, 0.05, 25)[None, :]
        for gamma, jz in ((0.0, 0.0), (0.6, 0.3)):
            r11, _, _, r44, _, _ = thermal_entries_grid(j0, t, 0.0, gamma, jz)
            assert_allclose(r11, r44, rtol=0.0, atol=1e-12,
                            err_msg=f"gamma={gamma}, Jz={jz}")

    def test_rejects_overflowing_beta_energy(self):
        # 1e10 / 1e-300 and 1 / 5e-324 overflow to inf, which would turn
        # every entry into nan; each offending point is refused by name.
        with pytest.raises(ValueError, match=re.escape(
                "beta * energy overflows float64 at T/J = 1e-300 with J0/J = 0, "
                "h/J = 1e+10, gamma = 0, Jz/J = 0")):
            thermal_entries_grid(0.0, np.array([0.5, 1e-300]), 1e10, 0.0, 0.0)
        with pytest.raises(ValueError, match="overflows float64 at T/J = 4.94066e-324"):
            thermal_entries_grid(0.0, 5e-324, 0.0, 0.0, 0.0)

    def test_overflow_names_the_first_point_of_the_broadcast_grid(self):
        # Inputs broadcast against each other, not materialised, name the
        # first refused point in row-major order of the broadcast grid, as
        # the materialised arrays do: (1e10, 1e-300) overflows, (0, 1e-300)
        # does not.
        args = (np.array([[0.0], [1e10], [2e10]]), np.array([[0.5, 1e-300, 1e-300]]),
                0.25, np.array([[0.0], [0.5], [1.0]]), 0.0)
        with pytest.raises(ValueError) as given:
            thermal_entries_grid(*args)
        with pytest.raises(ValueError) as materialised:
            thermal_entries_grid(*(a.copy() for a in np.broadcast_arrays(*args)))
        assert str(given.value) == str(materialised.value) == (
            "beta * energy overflows float64 at T/J = 1e-300 with J0/J = 1e+10, "
            "h/J = 0.25, gamma = 0.5, Jz/J = 0")

    @pytest.mark.parametrize("t_range, scale", [
        ((-300, -2), 1.0), ((4, 300), 1.0), ((-300, 300), 1e6), ((-150, 300), 1e150)])
    def test_extreme_regions_are_accepted_and_finite(self, t_range, scale):
        # Cold, hot and strongly coupled draws stay below the overflow
        # bound: none is refused, and every entry is finite with trace 1.
        rng = np.random.default_rng(17)
        t = 10.0 ** rng.uniform(*t_range, 20000)
        j0, h, gamma, jz = rng.uniform(-scale, scale, (4, t.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = thermal_entries_grid(j0, t, h, gamma, jz)
        assert all(np.isfinite(e).all() for e in entries)
        assert_allclose(sum(entries[:4]), 1.0, rtol=0.0, atol=1e-14)

    def test_extreme_temperatures_stay_finite(self):
        entries = thermal_entries_grid(
            np.array([-2.0, 2.0]), np.array([0.01, 1e6]),
            np.array([3.0, -3.0]), np.array([1.5, -1.5]), np.array([2.0, -2.0]))
        for e in entries:
            assert np.all(np.isfinite(e))


class TestReferenceForms:
    """Each product and mask the module forms once is the one its first
    form formed at each use, so the entries carry the same bits."""

    @pytest.mark.parametrize("box", ["free", "h-ties", "runs", "F4"])
    def test_scaled_blocks_match_reference_bitwise(self, box):
        j0, t, h, gamma, jz = wide_boxes()[box]
        for shape in ((-1,), (-1, 1), ()):
            if shape == ():
                args = [a[:1].reshape(()) for a in (1.0 / t, gamma, jz, j0, h)]
            else:
                args = [a.reshape(shape) for a in (1.0 / t, gamma, jz, j0, h)]
            got, want = model._scaled_blocks(*args), reference_scaled_blocks(*args)
            for x in SECTOR_SPIN_SUMS:
                assert all(same_bits(g, w) for g, w in zip(got[x], want[x])), (box, shape, x)

    @pytest.mark.parametrize("box", ["free", "h-ties", "runs", "F4"])
    def test_entries_match_reference_bitwise(self, box):
        cols = wide_boxes()[box]
        assert all(same_bits(g, w) for g, w in zip(thermal_entries_grid(*cols),
                                                   reference_entries(*cols)))
        # A sweep's columns are strided views of its coordinate table.
        table = np.stack(cols, axis=1)
        assert all(same_bits(g, w) for g, w in zip(
            thermal_entries_grid(*table.T), reference_entries(*cols)))


    @pytest.mark.parametrize("box", ["free", "h-ties", "runs"])
    def test_column_row_and_scalar_inputs_match_materialised_arrays_bitwise(self, box):
        # A sweep chunk passes its first axis as a (k, 1) column, its second
        # as a (1, m) row and each fixed value as a scalar. Under every such
        # layout of the five parameters, the entries must be those of the
        # materialised broadcast arrays, bit for bit, and writeable arrays of
        # the broadcast shape (scalars when every input is one).
        cols = wide_boxes()[box]
        k, m = 9, 7
        forms = {"column": lambda c: c[:k, None], "row": lambda c: c[k:k + m][None, :],
                 "scalar": lambda c: c[k + m]}
        for layout in itertools.product(forms, repeat=5):
            args = [forms[form](c) for form, c in zip(layout, cols)]
            full = [a.copy() for a in np.broadcast_arrays(*args)]
            got = thermal_entries_grid(*args)
            for g, w, r in zip(got, thermal_entries_grid(*full), reference_entries(*full)):
                assert same_bits(g, w) and same_bits(g, r), (box, layout)
                assert g.shape == full[0].shape, (box, layout)
                assert g.flags.writeable or set(layout) == {"scalar"}, (box, layout)


class TestDimerDensityMatrix:
    def test_block_eigenvalues_match_dense(self):
        s = thermal_state(CAL_PARAMS, CAL_TP)
        assert_allclose(s.eigenvalues(), np.linalg.eigvalsh(s.matrix()),
                        rtol=0.0, atol=1e-14)

    def test_from_matrix_roundtrip(self):
        s = thermal_state(CAL_PARAMS, CAL_TP)
        back = DimerDensityMatrix.from_matrix(s.matrix())
        assert_allclose((back.r11, back.r22, back.r33, back.r44,
                         back.r14, back.r23),
                        (s.r11, s.r22, s.r33, s.r44, s.r14, s.r23),
                        rtol=0.0, atol=1e-15)

    def test_from_matrix_rejects_non_x(self):
        m = np.eye(4) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(ValueError, match="X-structured"):
            DimerDensityMatrix.from_matrix(m)

    def test_from_matrix_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 3] = 0.1j
        with pytest.raises(ValueError, match="Hermitian"):
            DimerDensityMatrix.from_matrix(m)

    def test_from_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DimerDensityMatrix.from_matrix(np.eye(4) / 2.0)

    def test_psd_flag_marks_inconsistent_entries(self):
        bad = DimerDensityMatrix(r11=0.5, r22=0.0, r33=0.0, r44=0.5,
                                 r14=0.6, r23=0.0)
        assert not bad.psd_flag
        with pytest.raises(ValueError, match="eigenvalue"):
            bad.validate()

    def test_derived_fields_cannot_be_passed(self):
        with pytest.raises(TypeError):
            DimerDensityMatrix(r11=0.25, r22=0.25, r33=0.25, r44=0.25,
                               r14=0.0, r23=0.0, min_eig=0.0)
        with pytest.raises(TypeError):
            DimerDensityMatrix(r11=0.25, r22=0.25, r33=0.25, r44=0.25,
                               r14=0.0, r23=0.0, psd_flag=True)

    def test_derived_fields_match_grid_measures_bitwise(self):
        # The scalar state and the sweep share one eigenvalue form, so the
        # smallest eigenvalue and the PSD flag carry the same bits. The last
        # two states sit just inside and just outside PSD_TOL.
        rng = np.random.default_rng(13)
        entries = thermal_entries_grid(
            rng.uniform(-2.0, 2.0, 200), 10.0 ** rng.uniform(-2.0, 1.0, 200),
            rng.uniform(-3.0, 3.0, 200), rng.uniform(-1.5, 1.5, 200),
            rng.uniform(-2.0, 2.0, 200))
        rows = [tuple(float(e[i]) for e in entries) for i in range(200)]
        for margin in (0.99e-10, 1.01e-10):
            # r14 = 1/4 + margin gives the outer block the eigenvalue -margin.
            rows.append((0.25, 0.25, 0.25, 0.25, 0.25 + margin, 0.0))
        out = x_state_measures(*np.array(rows).T)
        for row, eig_min, flag in zip(rows, out["eig_min"], out["psd_flag"]):
            s = DimerDensityMatrix(*row)
            assert (s.min_eig, s.psd_flag) == (float(eig_min), bool(flag))
        assert out["psd_flag"][-2] and not out["psd_flag"][-1]
