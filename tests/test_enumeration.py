"""Analytic path-enumeration oracle: internal consistency and calibrations."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonflow.config import load_config
from photonflow.core import ConfigError
from photonflow.enumeration import expected_source_g2, splitter_g2, visibility_model

from oracles import (
    calibrate_p_multi,
    hom_cluster_areas,
    hom_pair_central,
    visibility_forward,
    visibility_invert,
)


class TestHbtExpected:
    def test_first_order_relation(self):
        # central-to-side ratio is 2 p_multi / p_emit to first order
        assert splitter_g2(0.5, 0.012, 1.0, 1.0) == pytest.approx(2 * 0.012 / 0.5, rel=0.05)

    def test_detector_efficiencies_cancel(self):
        # the areas of a splitter with reflectance r (to detector 1) and
        # efficiencies eff1, eff2 give the balanced, ideal splitter's ratio
        p_emit, p_multi, surv_signal, surv_multi = 0.4, 0.01, 0.9, 0.6
        q2 = p_emit * p_multi
        balanced = splitter_g2(p_emit, p_multi, surv_signal, surv_multi)
        for r, t, eff1, eff2 in ((0.5, 0.5, 0.3, 0.9), (0.3, 0.6, 1.0, 1.0), (0.7, 0.2, 0.8, 0.5)):
            a1, a2 = surv_signal * r * eff1, surv_signal * t * eff2
            b1, b2 = surv_multi * r * eff1, surv_multi * t * eff2
            central = q2 * (a1 * b2 + a2 * b1)
            side = (p_emit * a1 + q2 * b1) * (p_emit * a2 + q2 * b2)
            assert central / side == pytest.approx(balanced, rel=1e-12)

    def test_survival_asymmetry_enters(self):
        assert splitter_g2(0.4, 0.01, 1.0, 0.5) < splitter_g2(0.4, 0.01, 1.0, 1.0)

    def test_calibration_roundtrip(self):
        for target in (0.005, 0.02, 0.1):
            pm = calibrate_p_multi(target, 0.3)
            assert splitter_g2(0.3, pm, 1.0, 1.0) == pytest.approx(target, rel=1e-10)
        pm = calibrate_p_multi(0.024, 0.25, surv_signal=0.417, surv_multi=0.383)
        assert splitter_g2(0.25, pm, 0.417, 0.383) == pytest.approx(0.024, rel=1e-10)

    def test_unreachable_target(self):
        # a bright source cannot exceed the ratio 2 p_multi/(1 + p_multi)^2
        with pytest.raises(ConfigError):
            calibrate_p_multi(0.9, 1.0)


class TestExpectedSourceG2:
    # the calibration g2 that the visibility correction takes for each shipped
    # correlation profile; conversion filters the spectrally offset companion
    @pytest.mark.parametrize(
        "name, g2",
        [("hbt_930", 0.01994004), ("hbt_1550", 0.02396391), ("hom_930", 0.01995003), ("hom_1550", 0.02396993)],
    )
    def test_shipped_profiles(self, name, g2):
        profile = Path(__file__).resolve().parent.parent / "profiles" / f"{name}.cfg"
        assert expected_source_g2(load_config(profile).pipeline()) == pytest.approx(g2, rel=1e-6)


class TestHomCluster:
    def test_balanced_cross_polarized_pattern(self):
        areas = hom_cluster_areas(0.5, 0.5, 0.5, 0.5, m_eff=0.0)
        far = areas[2]
        pattern = [areas[k] / far for k in (-2, -1, 0, 1, 2)]
        assert pattern == pytest.approx([1.0, 0.75, 0.5, 0.75, 1.0])

    def test_perfect_interference_kills_central(self):
        areas = hom_cluster_areas(0.5, 0.5, 0.5, 0.5, m_eff=1.0)
        assert areas[0] == pytest.approx(0.0, abs=1e-15)

    def test_outer_peaks_equal_singles_product(self):
        r1, t1, r2, t2 = 0.4, 0.55, 0.6, 0.35
        areas = hom_cluster_areas(r1, t1, r2, t2, m_eff=0.3)
        alpha1 = t1 * r2 + r1 * t2
        alpha2 = t1 * t2 + r1 * r2
        assert areas[2] == pytest.approx(alpha1 * alpha2)
        assert areas[-2] == pytest.approx(alpha1 * alpha2)

    def test_central_formula(self):
        assert hom_pair_central(0.5, 0.5, 0.6, 0.4, 0.0) == pytest.approx(0.25 * (0.36 + 0.16))
        assert hom_pair_central(0.5, 0.5, 0.5, 0.5, 0.9) == pytest.approx(0.25 * (0.5 - 0.45))

    def test_degenerate_interferometer_reduces_to_splitter(self):
        # with every photon sent down one arm the interferometer is a single
        # splitter: consecutive-pulse interference vanishes and the
        # far-normalized central peak equals the splitter's central ratio,
        # so the multi coefficient per unit of that ratio is exactly one
        for r2, t2 in ((0.5, 0.5), (0.55, 0.45), (0.7, 0.2)):
            model = visibility_model(r2, t2, r1=1.0, t1=0.0)
            assert model.c_two_photon == 0.0
            assert model.d_multi == pytest.approx(1.0)


class TestVisibilityModel:
    @given(
        m=st.floats(min_value=0.0, max_value=1.0),
        g2=st.floats(min_value=0.0, max_value=0.1),
        r2=st.floats(min_value=0.3, max_value=0.7),
        eps=st.floats(min_value=0.0, max_value=0.15),
        r1=st.floats(min_value=0.3, max_value=0.7),
    )
    @settings(max_examples=150, deadline=None)
    def test_forward_invert_roundtrip(self, m, g2, r2, eps, r1):
        model = visibility_model(r2, 1.0 - r2, r1, 1.0 - r1)
        a_perp, a_par = visibility_forward(model, m, g2, eps)
        assert visibility_invert(model, a_perp, a_par, g2, eps) == pytest.approx(m, abs=1e-9)

    def test_balanced_coefficients(self):
        model = visibility_model(0.5, 0.5)
        assert model.c_two_photon == pytest.approx(0.5)
        assert model.d_multi == pytest.approx(0.5)
        assert model.kappa == pytest.approx(1.0)

    def test_imbalanced_kappa(self):
        model = visibility_model(0.6, 0.4)
        assert model.kappa == pytest.approx(2 * 0.6 * 0.4 / (0.36 + 0.16))


class TestMonteCarloSpotCheck:
    def test_central_peak_against_sampling(self):
        # direct port-level sampling of one pulse pair reproduces the formula
        rng = np.random.default_rng(31)
        n = 500_000
        r1 = t1 = 0.5
        r2, t2, m = 0.55, 0.45, 0.7
        u_arm_e, u_arm_l, u_joint, u_loss_e, u_loss_l = rng.random((5, n))
        meet = (u_arm_e < r1) & (u_arm_l < t1)
        s = r2 + t2
        both = meet & (u_loss_e < s) & (u_loss_l < s)
        rr, tt = r2 / s, t2 / s
        p_split = rr**2 + tt**2 - 2 * rr * tt * m
        split = both & (u_joint >= 2 * (1 + m) * rr * tt)
        counted = int(split.sum())
        expected = n * hom_pair_central(r1, t1, r2, t2, m)
        assert abs(counted - expected) < 3 * math.sqrt(expected)
        assert p_split == pytest.approx(1 - 2 * (1 + m) * rr * tt)
