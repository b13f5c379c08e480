import dataclasses
import math

import numpy as np
import pytest

from phagesim import equilibria as eq
from phagesim.errors import EquilibriumExistenceError

from model_reference import characteristic_determinant, drift


class TestBacteriaFree:
    def test_reference_point(self, p_star, sigma):
        e0 = eq.bacteria_free(p_star)
        assert np.array_equal(e0, [0.0, 0.0, 20.0])
        assert np.max(np.abs(drift(e0, e0, p_star, sigma))) < 1e-14

    def test_unit_ratio(self, p_star):
        p = dataclasses.replace(p_star, d=0.7, m=0.7)
        assert eq.bacteria_free(p)[2] == pytest.approx(1.0, rel=1e-15)

    def test_existence_error_when_truncated(self, p_star):
        with pytest.raises(EquilibriumExistenceError):
            eq.bacteria_free(dataclasses.replace(p_star, d=(p_star.M + 1) * p_star.m))


class TestCoexistence:
    def test_reference_point_and_regime(self, p_co, sigma):
        point, regime = eq.coexistence(p_co)
        assert regime == eq.REGIME_SMALL_DOSE
        assert point[2] == pytest.approx(p_co.alpha / p_co.k1, rel=1e-15)
        assert point == pytest.approx([0.57465, 0.26040, 5.0], abs=5e-5)
        assert np.max(np.abs(drift(point, point, p_co, sigma))) < 1e-10

    def test_high_dose_excludes_coexistence(self, p_star):
        point, regime = eq.coexistence(p_star)
        assert point is None
        assert regime == eq.REGIME_UNIQUE_E0
        # the efficient-virus band would need a burst factor below the band edge
        band_edge = (0.5 / 0.2) * (0.05 / 0.1) * (1 - math.exp(-0.2)) + 1
        assert band_edge == pytest.approx(1.2266, abs=5e-5)
        assert p_star.effective_burst > band_edge

    def test_truncation_excluded(self, p_star):
        p = dataclasses.replace(p_star, k1=0.001, d=3.0)
        point, regime = eq.coexistence(p)
        assert point is None
        assert regime == eq.REGIME_TRUNCATION

    def test_degenerate_boundary_dose(self, p_co):
        p = dataclasses.replace(p_co, d=p_co.m * p_co.alpha / p_co.k1)
        point, regime = eq.coexistence(p)
        assert point is None
        assert regime == eq.REGIME_UNIQUE_E0

    def test_k2_zero_collapse(self, p_co):
        p = p_co.with_k2(0.0)
        point, _ = eq.coexistence(p)
        ebt = p.effective_burst
        expected_sc = p.mu * (p.k1 * p.d - p.m * p.alpha) / (
            p.alpha * p.mu * p.k1 * (1.0 - ebt)
        )
        assert point[0] == pytest.approx(expected_sc, rel=1e-14)

    def test_regime_exclusive(self, p_co, p_star):
        for p in (p_co, p_star, p_co.with_k2(0.0)):
            _, regime = eq.coexistence(p)
            assert regime in (
                eq.REGIME_UNIQUE_E0, eq.REGIME_SMALL_DOSE,
                eq.REGIME_LARGE_DOSE, eq.REGIME_TRUNCATION,
            )


class TestStability:
    def test_reference_spectrum(self, p_star):
        st = eq.stability_at_e0(p_star)
        assert st.eigenvalues == pytest.approx((-1.5, -0.2, -1.0), abs=1e-12)
        assert st.stable
        assert st.gamma == pytest.approx(1.5, abs=1e-12)
        assert st.eta == pytest.approx(0.2, abs=1e-12)

    def test_symbolic_structure(self, p_co):
        st = eq.stability_at_e0(p_co)
        lam1 = p_co.alpha - p_co.k1 * p_co.d / p_co.m
        assert st.eigenvalues == pytest.approx((lam1, -p_co.mu, -p_co.m), rel=1e-14)
        assert not st.stable  # d=3 gives lam1 = 0.2 > 0

    def test_marginal_dose_not_stable(self, p_star):
        p = dataclasses.replace(p_star, d=p_star.alpha * p_star.m / p_star.k1)
        st = eq.stability_at_e0(p)
        assert st.eigenvalues[0] == 0.0
        assert not st.stable

    def test_spectrum_independent_of_tau(self, p_star):
        base = eq.stability_at_e0(p_star).eigenvalues
        for tau in (0.5, 2.0, 7.3):
            p = dataclasses.replace(p_star, tau=tau)
            assert eq.stability_at_e0(p).eigenvalues == pytest.approx(base, rel=1e-14)

    def test_determinant_vanishes_at_eigenvalues(self, p_star):
        st = eq.stability_at_e0(p_star)
        for lam in st.eigenvalues:
            assert abs(characteristic_determinant(lam, p_star)) < 1e-10

    def test_precondition(self, p_star):
        with pytest.raises(EquilibriumExistenceError):
            eq.stability_at_e0(dataclasses.replace(p_star, d=200.0))


def test_report_rendering(p_star):
    payload, text = eq.report(p_star)
    assert payload["regime"] == eq.REGIME_UNIQUE_E0
    assert payload["stable"] is True
    assert "eigenvalues at E0" in text
    assert payload["eta"] == pytest.approx(0.2)
