"""Tests for the closed-form thermal state and its building blocks."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from diamondqc.measures import x_state_measures
from diamondqc.model import thermal_entries_grid, thermal_state
from diamondqc.params import DimerDensityMatrix, ModelParams, ThermalPoint

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
