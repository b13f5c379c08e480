import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from phagesim import History
from phagesim.errors import DomainError


class TestConstruction:
    def test_constant_preset(self):
        hist = History.constant(2.0, 0.5, 10.0, 1.0)
        for t in (-2.0, -1.3, 0.0):
            assert hist.s(t) == pytest.approx(0.5, abs=1e-12)
            assert hist.q(t) == pytest.approx(10.0, abs=1e-12)

    def test_zero_phage_preset(self):
        hist = History.zero_phage(1.0, 2.0, 0.0)
        assert hist.q(-0.5) == 0.0
        assert hist.s(-0.5) == pytest.approx(2.0, abs=1e-12)

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            History(1.0, [1.0, 1.0], [1.0, 1.0], 0.0)

    def test_mismatched_sample_lengths(self):
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 9, [1.0] * 10, 0.0)

    def test_rejects_negative_samples(self):
        q = [1.0] * 10
        q[4] = -0.1
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 10, q, 0.0)
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 10, [1.0] * 10, -0.5)

    def test_rejects_interpolant_undershoot(self):
        # samples are nonnegative but the spline dips below zero between nodes
        s = np.ones(17)
        s[8] = 0.0
        s[7] = 1e-9
        s[9] = 1e-9
        q = 5.0 - 4.9 * np.cos(np.linspace(0.0, 2 * np.pi, 17))
        with pytest.raises(DomainError):
            History(1.0, np.where(s > 0.5, 4.0, 0.0), q * 0 + 1.0, 0.0)


class TestEvaluation:
    def test_interpolates_smooth_profiles_accurately(self):
        ts = np.linspace(-1.0, 0.0, 129)
        hist = History(1.0, np.exp(ts), 2.0 + np.sin(ts), 0.3)
        probe = np.linspace(-1.0, 0.0, 487)
        s_err = max(abs(hist.s(t) - np.exp(t)) for t in probe)
        q_err = max(abs(hist.q(t) - (2.0 + np.sin(t))) for t in probe)
        assert s_err < 1e-8
        assert q_err < 1e-8

    def test_domain_is_enforced(self):
        hist = History.constant(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            hist.s(-1.5)
        with pytest.raises(DomainError):
            hist.q(0.5)

    def test_edge_dust_is_clamped(self):
        hist = History.constant(1.0, 1.0, 1.0, 0.0)
        assert hist.s(-1.0 - 1e-10) == pytest.approx(1.0, abs=1e-12)
        assert hist.q(1e-10) == pytest.approx(1.0, abs=1e-12)


_CONSTANT_PROFILES = {
    "constant": lambda: History.constant(1.0, 0.5, 10.0, 1.0),
    "constant-coarse": lambda: History.constant(1.7, 3e-13, 123.456, 0.0, n_grid=8),
    "zero-phage": lambda: History.zero_phage(2.0, 2.0, 0.5),
    "zero-everything": lambda: History.constant(0.3, 0.0, 0.0, 0.0),
}


class TestConstantProfiles:
    """Equal samples skip the spline solve; the values stay CubicSpline's."""

    @pytest.mark.parametrize("case", sorted(_CONSTANT_PROFILES))
    def test_equals_cubic_spline(self, case):
        hist = _CONSTANT_PROFILES[case]()
        t = np.linspace(-hist.tau, 0.0, 10001)
        for got, samples in ((hist.s, hist.s_samples), (hist.q, hist.q_samples)):
            expected = np.maximum(CubicSpline(hist.grid, samples)(t), 0.0)
            assert np.array_equal(got(t), expected)
            assert np.array_equal(np.signbit(got(t)), np.signbit(expected))
            scalars = np.array([got(float(x)) for x in t[::10]])
            assert np.array_equal(scalars, expected[::10])
            assert np.array_equal(np.signbit(scalars), np.signbit(expected[::10]))

    @pytest.mark.parametrize("case", sorted(_CONSTANT_PROFILES))
    def test_edge_slack_still_enforced(self, case):
        hist = _CONSTANT_PROFILES[case]()
        assert hist.s(-hist.tau - 1e-10) == hist.s(-hist.tau)
        assert hist.q(1e-10) == hist.q(0.0)
        with pytest.raises(DomainError):
            hist.s(-hist.tau - 1e-8)
        with pytest.raises(DomainError):
            hist.q(np.array([-0.5 * hist.tau, 1e-8]))
