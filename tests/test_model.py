import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phagesim import Parameters, SigmaFn
from phagesim.errors import DomainError

from model_reference import diffusion, drift, stratonovich_correction


class TestSigma:
    def test_identity_region(self, sigma):
        assert sigma(3.0) == 3.0
        xs = np.linspace(0.0, 100.0, 1001)
        assert np.array_equal(sigma(xs), xs)

    def test_plateau(self, sigma):
        assert sigma(102.0) == 101.0
        assert sigma(101.0) == 101.0

    def test_bridge_value_and_monotonicity(self, sigma):
        v = sigma(100.5)
        assert 100.0 < v < 101.0
        xs = np.arange(99.0, 102.0, 1e-4)
        vals = sigma(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_prime_regions(self, sigma):
        assert sigma.prime(50.0) == 1.0
        assert sigma.prime(200.0) == 0.0
        assert 0.0 <= sigma.prime(100.5) <= 1.9

    def test_prime_matches_finite_differences(self, sigma):
        xs = np.arange(1e-3, 102.0, 1e-2)
        h = 1e-6
        fd = (sigma(xs + h) - sigma(xs - h)) / (2.0 * h)
        rel = np.abs(fd - sigma.prime(xs)) / np.maximum(1.0, np.abs(sigma.prime(xs)))
        assert rel.max() < 1e-6

    def test_prime_bound(self, sigma):
        xs = np.arange(0.0, 102.0, 1e-4)
        primes = sigma.prime(xs)
        assert primes.min() >= 0.0
        assert primes.max() <= 1.9

    def test_negative_input_rejected(self, sigma):
        with pytest.raises(DomainError):
            sigma(-1.0)
        with pytest.raises(DomainError):
            sigma.prime(-0.5)
        with pytest.raises(DomainError):
            sigma(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("kind", [float, np.float64, np.asarray])
    def test_negative_scalar_message(self, sigma, kind):
        with pytest.raises(DomainError, match=r"^sigma is only defined for x >= 0, got -0\.5$"):
            sigma(kind(-0.5))
        with pytest.raises(DomainError, match=r"^sigma' is only defined for x >= 0, got -0\.5$"):
            sigma.prime(kind(-0.5))
        with pytest.raises(DomainError, match=r"^sigma is only defined for x >= 0$"):
            sigma(np.array([kind(-0.5)]))

    @pytest.mark.parametrize("m", [1e-3, 0.3, 1.0, 12.0, 100.0, 1e6, 1e8])
    def test_scalars_are_the_array_kernels(self, m):
        # a scalar or 0-d argument goes through the array kernels and returns their float
        sig = SigmaFn(m)
        top = m + 1.0
        points = [m, np.nextafter(m, 0.0), np.nextafter(m, np.inf),
                  top, np.nextafter(top, 0.0), np.nextafter(top, np.inf),
                  m + 0.25, m + 0.5, m + 0.75, top + 1.0, 2.0 * top, 0.0, -0.0]
        for x in points:
            for arg in (float(x), np.float64(x), np.asarray(x)):
                for got, kernel in ((sig(arg), sig._values), (sig.prime(arg), sig._slopes)):
                    want = float(kernel(np.asarray(x)))
                    assert type(got) is float
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, arg)

    def test_small_threshold(self):
        sig = SigmaFn(1.0)
        xs = np.arange(0.0, 3.0, 1e-4)
        vals = sig(xs)
        assert np.all(np.diff(vals) >= 0.0)
        assert sig.prime(xs).max() <= 1.9


class TestDrift:
    def test_zero_at_bacteria_free_point(self, p_star, sigma):
        e0 = np.array([0.0, 0.0, p_star.d / p_star.m])
        assert np.max(np.abs(drift(e0, e0, p_star, sigma))) < 1e-14

    def test_zero_at_coexistence_point(self, p_co, sigma):
        from phagesim.equilibria import coexistence

        point, _ = coexistence(p_co)
        rates = drift(point, point, p_co, sigma)
        assert np.max(np.abs(rates)) < 1e-10
        # anchor value: near (0.5746, 0.2604, 5.0)
        assert point == pytest.approx([0.57465, 0.26042, 5.0], rel=1e-3)

    def test_hand_substitution(self, sigma):
        p = Parameters(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0,
                       mu=0.2, tau=1.0, M=100.0)
        rates = drift((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), p, sigma)
        assert rates == pytest.approx([0.5, 0.0, 20.0], abs=1e-15)

    def test_non_finite_rejected(self, p_star, sigma):
        with pytest.raises(DomainError):
            drift((math.nan, 0.0, 1.0), (0.0, 0.0, 1.0), p_star, sigma)

    def test_vectorized_matches_scalar(self, p_star, sigma):
        rng = np.random.default_rng(0)
        now = rng.uniform(0.0, 5.0, (3, 17))
        delayed = rng.uniform(0.0, 5.0, (3, 17))
        batch = drift(now, delayed, p_star, sigma)
        for j in range(17):
            single = drift(now[:, j], delayed[:, j], p_star, sigma)
            assert np.array_equal(batch[:, j], single)


class TestTwoComponentReduction:
    """The system without coinfection is the (S, Q) part of the drift at k2 = 0."""

    def test_fixed_point(self, p_star, sigma):
        e0 = np.array([0.0, 0.0, p_star.d / p_star.m])
        rates = drift(e0, e0, p_star.with_k2(0.0), sigma)[::2]
        assert np.max(np.abs(rates)) < 1e-14

    def test_hand_substitution(self, sigma):
        p = Parameters(alpha=0.5, k1=0.1, k2=0.0, d=20.0, m=1.0, b=10.0,
                       mu=0.2, tau=1.0, M=100.0)
        rates = drift((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), p, sigma)[::2]
        expected_dq = 20.0 - 1.0 - 0.1 + 0.1 * 10.0 * math.exp(-0.2)
        assert rates == pytest.approx([0.4, expected_dq], abs=1e-15)

    @given(
        s=st.floats(0.0, 50.0), q=st.floats(0.0, 150.0), i=st.floats(0.0, 50.0),
        s_tau=st.floats(0.0, 50.0), q_tau=st.floats(0.0, 150.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_sq_rates_independent_of_i(self, s, q, i, s_tau, q_tau):
        p = Parameters(alpha=0.5, k1=0.1, k2=0.0, d=20.0, m=1.0, b=10.0,
                       mu=0.2, tau=1.0, M=100.0)
        sig = SigmaFn(p.M)
        with_i = drift((s, i, q), (s_tau, i, q_tau), p, sig)[::2]
        without_i = drift((s, 0.0, q), (s_tau, 0.0, q_tau), p, sig)[::2]
        assert np.array_equal(with_i, without_i)


class TestNoise:
    def test_vanishes_at_origin(self, p_star, sigma):
        p = p_star.with_eps(0.01)
        assert np.array_equal(diffusion((0.0, 5.0, 0.0), p, sigma), [0.0, 0.0, 0.0])

    def test_identity_region_amplitudes(self, p_star, sigma):
        p = p_star.with_eps(0.01)
        out = diffusion((2.0, 7.0, 3.0), p, sigma)
        assert out == pytest.approx([0.02, 0.0, 0.03], abs=1e-18)

    def test_plateau_amplitudes(self, p_star, sigma):
        p = p_star.with_eps(0.01)
        out = diffusion((200.0, 0.0, 200.0), p, sigma)
        assert out == pytest.approx([1.01, 0.0, 1.01], abs=1e-15)

    def test_correction_zero_without_noise(self, p_star, sigma):
        out = stratonovich_correction((2.0, 1.0, 3.0), p_star, sigma)
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_correction_identity_region(self, p_star, sigma):
        p = p_star.with_eps(0.1)
        out = stratonovich_correction((2.0, 1.0, 0.0), p, sigma)
        assert out[0] == pytest.approx(0.01, rel=1e-14)
        assert out[1] == 0.0

    def test_correction_plateau(self, p_star, sigma):
        p = p_star.with_eps(0.1)
        out = stratonovich_correction((200.0, 0.0, 0.0), p, sigma)
        assert out[0] == 0.0


class TestParameters:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Parameters(alpha=0.0, k1=0.1, k2=0.0, d=1.0, m=1.0, b=1.0,
                       mu=0.1, tau=1.0, M=10.0)

    def test_rejects_negative_k2_or_eps(self, p_star):
        with pytest.raises(DomainError):
            p_star.with_k2(-0.1)
        with pytest.raises(DomainError):
            p_star.with_eps(-0.01)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Parameters(alpha=math.inf, k1=0.1, k2=0.0, d=1.0, m=1.0, b=1.0,
                       mu=0.1, tau=1.0, M=10.0)
