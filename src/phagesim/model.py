"""Core model: parameter record, truncated identity, and the system right-hand sides.

State layout is (S, I, Q): uninfected bacteria, infected bacteria, phages.
All right-hand sides work elementwise, so they accept plain floats as well
as numpy arrays (used by the vectorized Monte Carlo engine).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

_POSITIVE = ("alpha", "k1", "d", "m", "b", "mu", "tau", "M")


@dataclass(frozen=True)
class Parameters:
    """All model constants in one validated record.

    alpha : bacterial net reproduction rate (1/time)
    k1    : adsorption rate onto uninfected bacteria (1/(conc*time))
    k2    : adsorption rate onto infected bacteria (1/(conc*time))
    d     : phage inoculation rate (conc/time)
    m     : phage death rate (1/time)
    b     : burst size (count)
    mu    : bacterial death rate (1/time)
    tau   : latency delay (time)
    M     : truncation threshold (conc)
    eps   : noise amplitude, 0 for the deterministic system
    """

    alpha: float
    k1: float
    k2: float
    d: float
    m: float
    b: float
    mu: float
    tau: float
    M: float
    eps: float = 0.0

    def __post_init__(self):
        for name in _POSITIVE + ("k2", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"parameter {name} must be finite, got {value!r}")
        for name in _POSITIVE:
            if getattr(self, name) <= 0.0:
                raise DomainError(f"parameter {name} must be strictly positive")
        if self.k2 < 0.0:
            raise DomainError("parameter k2 must be nonnegative")
        if self.eps < 0.0:
            raise DomainError("parameter eps must be nonnegative")

    @property
    def attenuation(self):
        """exp(-mu*tau): survival factor of an infected cell over the latency."""
        return math.exp(-self.mu * self.tau)

    @property
    def effective_burst(self):
        """b*exp(-mu*tau): phages released per infection that survives the latency."""
        return self.b * self.attenuation

    def with_eps(self, eps):
        return replace(self, eps=eps)

    def with_k2(self, k2):
        return replace(self, k2=k2)


# Default bridge on [M, M+1] (in the local variable u = x - M):
#   sigma(M+u) = M + a1*u + a3*u^3 + a4*u^4 + a5*u^5
# chosen as the quintic Hermite interpolant with value/slope/curvature
# (M, 1, 0) at u=0 and (M+1, 0, 0) at u=1.  C^2 rather than the C-infinity
# the theory assumes; ample smoothness for the numerics here.
DEFAULT_BRIDGE = (1.0, 4.0, -7.0, 3.0)


class SigmaFn:
    """Smooth truncated identity: x below the threshold, constant M+1 past M+1.

    The bridge on (M, M+1) is a quintic in u = x - M with coefficients
    (a1, a3, a4, a5); the quadratic term is always zero so curvature
    vanishes at the left joint. Called, or through prime, on a scalar or a
    0-d array it returns a float; on an array, a new array.
    """

    def __init__(self, m_threshold, bridge=DEFAULT_BRIDGE):
        if not (math.isfinite(m_threshold) and m_threshold > 0):
            raise DomainError("truncation threshold M must be positive and finite")
        self.m_threshold = float(m_threshold)
        self.bridge = tuple(float(c) for c in bridge)

    def __call__(self, x):
        if isinstance(x, float) and x >= 0.0:  # a float at float cost; the rest checked
            x, m = float(x), self.m_threshold
            return x if x <= m else m + 1.0 if x >= m + 1.0 else m + self._rise(min(x - m, 1.0))
        x = self._domain(x, "sigma")
        out = self._values(x)
        if x.ndim == 0:
            return float(out)
        return x.copy() if out is x else out

    def prime(self, x):
        if isinstance(x, float) and x >= 0.0:
            x, m = float(x), self.m_threshold
            return 1.0 if x <= m else 0.0 if x >= m + 1.0 else self._rise_slope(min(x - m, 1.0))
        x = self._domain(x, "sigma'")
        out = self._slopes(x)
        return float(out) if x.ndim == 0 else out

    @staticmethod
    def _domain(x, name):
        x = np.asarray(x, dtype=float)
        if (x < 0.0).any():
            got = f", got {float(x)!r}" if x.ndim == 0 else ""
            raise DomainError(f"{name} is only defined for x >= 0{got}")
        return x

    # the bridge's rise above M and its slope at u = x - M in [0, 1], on floats or arrays
    def _rise(self, u):
        a1, a3, a4, a5 = self.bridge
        return u * (a1 + u * u * (a3 + u * (a4 + a5 * u)))

    def _rise_slope(self, u):
        a1, a3, a4, a5 = self.bridge
        return a1 + u * u * (3.0 * a3 + u * (4.0 * a4 + 5.0 * a5 * u))

    # Unchecked array kernels for x >= 0. Both skip the bridge when no entry
    # exceeds M; _values then returns x itself, so callers must not mutate
    # the result. The plateau keeps its own where: u = clip(x - M) reaches 1
    # only when M + 1 is exact in floating point.

    def _values(self, x):
        m = self.m_threshold
        if x.size and np.maximum.reduce(x, None) <= m:
            return x
        rise = self._rise(np.clip(x - m, 0.0, 1.0))
        return np.where(x <= m, x, np.where(x >= m + 1.0, m + 1.0, m + rise))

    def _slopes(self, x):
        m = self.m_threshold
        if x.size and np.maximum.reduce(x, None) <= m:
            return np.ones_like(x)
        slope = self._rise_slope(np.clip(x - m, 0.0, 1.0))
        return np.where(x <= m, 1.0, np.where(x >= m + 1.0, 0.0, slope))


def _influx(s_tau, sq_tau, p):
    """Infected cells ending their latency: k1 e^{-mu tau} sigma(Q(t-tau)) S(t-tau)."""
    return p.k1 * p.attenuation * sq_tau * s_tau


def _rates_for(p):
    """rates(s, i, q, sq, lysis_influx) -> (dS, dI, dQ), sq = sigma(Q), with p's constants bound.

    The drift of sde._float_path, of node 0 in dde.integrate, and of the tests. The RK4
    loop of dde.integrate and the array stepper's sde._stage write it out, bit for bit
    (tests/test_dde.py::TestDriftWrittenOut, tests/test_sde.py::TestStageWrittenOut).
    """
    alpha, k1, k2, d, m, b, mu = p.alpha, p.k1, p.k2, p.d, p.m, p.b, p.mu

    def rates(s, i, q, sq, lysis_influx):
        k1_sq = k1 * sq
        adsorbed = k1_sq * s
        ds = (alpha - k1_sq) * s
        di = adsorbed - mu * i - lysis_influx
        dq = d - m * q - adsorbed - k2 * sq * i + b * lysis_influx
        return ds, di, dq

    return rates
