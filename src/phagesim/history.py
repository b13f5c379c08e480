"""Initial condition on [-tau, 0]: sampled S and Q profiles plus the scalar I0."""

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .errors import DomainError

DEFAULT_GRID = 128  # intervals on [-tau, 0]
_EDGE_SLACK = 1e-9  # tolerated float dust when evaluating at the interval ends


def _cubic(grid, samples):
    """CubicSpline through the samples; for equal samples, its constant without the solve."""
    if np.all(samples == samples[0]):
        return PPoly(np.array([[0.0], [0.0], [0.0], [samples[0]]]), grid[[0, -1]])
    return CubicSpline(grid, samples)


class History:
    """Positive functions S0, Q0 on [-tau, 0] (cubic through a uniform grid) and I0.

    The infected component has no delayed feedback in the model, so its
    pre-history is the constant i0.
    """

    def __init__(self, tau, s_samples, q_samples, i0):
        s_samples = np.asarray(s_samples, dtype=float)
        q_samples = np.asarray(q_samples, dtype=float)
        if tau <= 0 or not np.isfinite(tau):
            raise DomainError("tau must be positive and finite")
        if s_samples.ndim != 1 or s_samples.shape != q_samples.shape:
            raise DomainError("s and q samples must be 1-d arrays of equal length")
        if len(s_samples) < 4:
            raise DomainError("history needs at least 4 sample points")
        if not (np.all(np.isfinite(s_samples)) and np.all(np.isfinite(q_samples))):
            raise DomainError("history samples must be finite")
        if np.any(s_samples < 0.0) or np.any(q_samples < 0.0):
            raise DomainError("history samples must be nonnegative")
        if not (np.isfinite(i0) and i0 >= 0.0):
            raise DomainError("i0 must be finite and nonnegative")

        self.tau = float(tau)
        self.i0 = float(i0)
        self.grid = np.linspace(-self.tau, 0.0, len(s_samples))
        self.s_samples = s_samples
        self.q_samples = q_samples
        self._s = _cubic(self.grid, s_samples)
        self._q = _cubic(self.grid, q_samples)

        # A cubic through nonnegative nodes can undershoot between them;
        # reject histories whose interpolant dips materially below zero.
        # A constant cannot.
        fine = np.linspace(-self.tau, 0.0, 8 * len(s_samples))
        for f in (self._s, self._q):
            if isinstance(f, CubicSpline) and f(fine).min() < -1e-12:
                raise DomainError("history interpolant dips below zero between nodes")

    @classmethod
    def constant(cls, tau, s0, q0, i0, n_grid=DEFAULT_GRID):
        n = n_grid + 1
        return cls(tau, np.full(n, float(s0)), np.full(n, float(q0)), i0)

    @classmethod
    def zero_phage(cls, tau, s0, i0, n_grid=DEFAULT_GRID):
        """No phages before t=0: treatment starts at time zero."""
        n = n_grid + 1
        return cls(tau, np.full(n, float(s0)), np.zeros(n), i0)

    def _clamp_t(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -self.tau - _EDGE_SLACK) or np.any(t > _EDGE_SLACK):
            raise DomainError(f"history evaluated outside [-tau, 0]: t={t!r}")
        return np.clip(t, -self.tau, 0.0)

    def s(self, t):
        out = np.maximum(self._s(self._clamp_t(t)), 0.0)
        return float(out) if out.ndim == 0 else out

    def q(self, t):
        out = np.maximum(self._q(self._clamp_t(t)), 0.0)
        return float(out) if out.ndim == 0 else out
