"""Initial condition on [-tau, 0]: S and Q profiles through uniform samples, plus the scalar I0."""

import numpy as np

from .errors import DomainError

DEFAULT_GRID = 128  # intervals on [-tau, 0]
_EDGE_SLACK = 1e-9  # tolerated float dust when evaluating at the interval ends


def _cubic(grid, samples):
    """The profile through the samples: their constant if all are equal, else a CubicSpline.

    The constant is the value a spline through equal samples takes, with -0.0
    read as +0.0 as the spline's Horner sum reads it. scipy is imported only
    here, so only a sampled table loads it.
    """
    if np.all(samples == samples[0]):
        c = float(samples[0]) + 0.0
        return lambda t: np.full(np.shape(t), c)
    from scipy.interpolate import CubicSpline

    f = CubicSpline(grid, samples)
    # A cubic through nonnegative nodes can undershoot between them;
    # reject histories whose interpolant dips materially below zero.
    if f(np.linspace(grid[0], grid[-1], 8 * len(samples))).min() < -1e-12:
        raise DomainError("history interpolant dips below zero between nodes")
    return f


class History:
    """Positive functions S0, Q0 on [-tau, 0] and I0.

    Each of S0 and Q0 is the constant of its samples when they are all
    equal (the `constant` and `zero-phage` presets), and otherwise the cubic
    spline through them on the uniform grid (a `table`). The infected
    component has no delayed feedback in the model, so its pre-history is
    the constant i0.
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
        # A NaN fails both tests, so it is refused, not read as a constant.
        if not (np.all(t >= -self.tau - _EDGE_SLACK) and np.all(t <= _EDGE_SLACK)):
            raise DomainError(f"history evaluated outside [-tau, 0]: t={t!r}")
        return np.clip(t, -self.tau, 0.0)

    def s(self, t):
        out = np.maximum(self._s(self._clamp_t(t)), 0.0)
        return float(out) if out.ndim == 0 else out

    def q(self, t):
        out = np.maximum(self._q(self._clamp_t(t)), 0.0)
        return float(out) if out.ndim == 0 else out
