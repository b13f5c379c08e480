"""Method-of-steps RK4 integrator with cubic-Hermite dense output.

The step is locked to h = tau/K so every delayed argument t - tau lands on
a stored node or a half-step midpoint of an already-computed interval; the
midpoints are served by the Hermite interpolant built from node values and
node derivatives.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError, PositivityError, WindowError
from .model import SigmaFn, _drift_terms

BLOWUP_LIMIT = 1e12
CLAMP_TOL = 1e-12  # undershoot treated as floating-point dust
HARD_NEG = -1e-6  # beyond this the run is declared invalid


@dataclass
class Trajectory:
    """Uniform-step node data with enough derivative information for dense output."""

    t0: float
    h: float
    states: np.ndarray  # (n_nodes, dim)
    derivs: np.ndarray  # (n_nodes, dim)
    history: object = None  # History backing t < t0
    clamp_count: int = 0
    warn_count: int = 0
    min_component: float = 0.0

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def times(self):
        return self.t0 + self.h * np.arange(len(self.states))

    @property
    def t_end(self):
        return self.t0 + self.h * (len(self.states) - 1)

    def __len__(self):
        return len(self.states)

    def sq(self):
        """The (S, Q) columns. Of a k2 = 0 run, this is the system without coinfection."""
        return replace(self, states=self.states[:, ::2], derivs=self.derivs[:, ::2])

    def _history_state(self, t):
        if self.history is None:
            raise DomainError(f"time {t:g} predates the trajectory and no history is attached")
        if self.dim == 2:
            return self.history.state_sq(t)
        return self.history.state(t)

    def eval(self, t):
        """Dense state at scalar time t; exact at nodes, history-backed below t0."""
        if t < self.t0:
            return self._history_state(t)
        x = (t - self.t0) / self.h
        n_last = len(self.states) - 1
        if x > n_last + 1e-9:
            raise DomainError(f"time {t:g} beyond trajectory end {self.t_end:g}")
        j = min(int(x), n_last - 1) if n_last > 0 else 0
        theta = x - j
        if theta <= 0.0:
            return self.states[j].copy()
        return _hermite(
            self.states[j], self.derivs[j], self.states[j + 1], self.derivs[j + 1],
            theta, self.h,
        )


def _hermite(y0, f0, y1, f1, theta, h):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + (t3 - 2.0 * t2 + theta) * h * f0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + (t3 - t2) * h * f1
    )


class _PositivityGuard:
    def __init__(self):
        self.clamp_count = 0
        self.warn_count = 0
        self.min_component = 0.0

    def apply(self, y, t):
        out = list(y)
        for k, v in enumerate(out):
            if not math.isfinite(v) or abs(v) > BLOWUP_LIMIT:
                raise DivergenceError(
                    f"trajectory blew up at t={t:g} (component {k} = {v!r})", t=t
                )
            if v < 0.0:
                self.min_component = min(self.min_component, v)
                if v < HARD_NEG:
                    raise PositivityError(
                        f"component {k} reached {v:g} at t={t:g}, below the "
                        f"{HARD_NEG:g} tolerance", t=t,
                    )
                if v >= -CLAMP_TOL:
                    out[k] = 0.0
                    self.clamp_count += 1
                else:
                    self.warn_count += 1
        return tuple(out)


def _make_delayed_lookup(states, derivs, hist_sq, h):
    """Delayed (S, Q) lookup. `states`/`derivs` are the growing node lists."""

    def delayed(td):
        if td <= 0.0:
            return hist_sq(td)
        x2 = round(2.0 * td / h) / 2.0  # delayed times are exact (half-)multiples of h
        j = int(x2)
        theta = x2 - j
        if theta == 0.0:
            y = states[j]
            return y[0], y[-1]
        y = _hermite(
            np.asarray(states[j]), np.asarray(derivs[j]),
            np.asarray(states[j + 1]), np.asarray(derivs[j + 1]),
            theta, h,
        )
        return y[0], y[-1]

    return delayed


def integrate(p, hist, T, K, sigma=None):
    """Integrate the coinfection system from a history; returns a dense Trajectory."""
    if T <= 0.0:
        raise DomainError("horizon T must be positive")
    if K < 8:
        raise DomainError("need at least 8 steps per delay interval")
    if sigma is None:
        sigma = SigmaFn(p.M)

    def rhs(y, delayed_sq):
        return _drift_terms(y[0], y[1], y[2], delayed_sq[0], delayed_sq[1], p, sigma)

    def hist_sq(td):
        return hist.s(td), hist.q(td)

    tau = p.tau
    h = tau / K
    n_steps = max(1, math.ceil(T / h - 1e-9))
    guard = _PositivityGuard()

    states = [(hist.s(0.0), hist.i0, hist.q(0.0))]
    # node derivatives, needed for the Hermite lookups at midpoints
    derivs = [rhs(states[0], hist_sq(-tau))]
    delayed = _make_delayed_lookup(states, derivs, hist_sq, h)

    for n in range(n_steps):
        t = n * h
        y = states[n]
        k1 = derivs[n]
        d_mid = delayed(t + 0.5 * h - tau)
        d_end = delayed(t + h - tau)
        y2 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1))
        k2 = rhs(y2, d_mid)
        y3 = tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2))
        k3 = rhs(y3, d_mid)
        y4 = tuple(yi + h * ki for yi, ki in zip(y, k3))
        k4 = rhs(y4, d_end)
        y_next = tuple(
            yi + h / 6.0 * (a + 2.0 * b + 2.0 * c + dd)
            for yi, a, b, c, dd in zip(y, k1, k2, k3, k4)
        )
        y_next = guard.apply(y_next, t + h)
        states.append(y_next)
        derivs.append(rhs(y_next, d_end))

    return Trajectory(
        t0=0.0,
        h=h,
        states=np.array(states),
        derivs=np.array(derivs),
        history=hist,
        clamp_count=guard.clamp_count,
        warn_count=guard.warn_count,
        min_component=guard.min_component,
    )


@dataclass(frozen=True)
class RegionExit:
    t: float
    component: str
    value: float
    bound: float


def monitor_region(traj, region, atol=1e-9):
    """First node, if any, where a trajectory leaves the invariant box."""
    times = traj.times
    for t, y in zip(times, traj.states):
        s, i, q = y[0], y[1], y[2]
        if s < -atol or s > region.s_max + atol:
            return RegionExit(float(t), "S", float(s), region.s_max)
        if i < -atol or i > region.i_max + atol:
            return RegionExit(float(t), "I", float(i), region.i_max)
        if q < region.q_min - atol:
            return RegionExit(float(t), "Q", float(q), region.q_min)
        if q > region.q_max + atol:
            return RegionExit(float(t), "Q", float(q), region.q_max)
    return None


@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope |Z(t)-E0| <= prefactor * exp(-eta*t) plus a fitted tail rate."""

    prefactor: float
    fitted_rate: float
    eta: float
    window: tuple
    bound_residual: float
    rate_ok: bool


def distances(traj, target):
    """Euclidean node distances to a fixed point."""
    target = np.asarray(target, dtype=float)
    return np.linalg.norm(traj.states - target, axis=1)


def fit_decay(traj, e0, window, eta):
    """Least-squares decay rate over a window plus the tight envelope prefactor.

    The prefactor is sup over all nodes of |Z(t)-E0| e^{eta t}, so the
    exponential bound holds with equality somewhere on the trajectory.
    """
    t_a, t_b = window
    times = traj.times
    if t_a < times[0] - 1e-12 or t_b > times[-1] + 1e-12 or t_b <= t_a:
        raise WindowError(f"window [{t_a:g}, {t_b:g}] not inside the trajectory")
    dist = distances(traj, e0)
    mask = (times >= t_a - 1e-12) & (times <= t_b + 1e-12)
    if mask.sum() < 2:
        raise WindowError("window contains fewer than two nodes")
    if np.any(dist[mask] < 1e-14):
        raise WindowError(
            "distance to the equilibrium underflows inside the window; use an earlier window"
        )
    slope, _ = np.polyfit(times[mask], np.log(dist[mask]), 1)
    fitted_rate = -float(slope)
    prefactor = float(np.max(dist * np.exp(eta * times)))
    bound_residual = float(np.max(dist - prefactor * np.exp(-eta * times)))
    return DecayFit(
        prefactor=prefactor,
        fitted_rate=fitted_rate,
        eta=eta,
        window=(float(t_a), float(t_b)),
        bound_residual=bound_residual,
        rate_ok=fitted_rate >= 0.95 * eta,
    )


def auto_window(traj, e0, lo_frac=0.25, hi_frac=0.75):
    """A fitting window clear of both the transient and distance underflow."""
    dist = distances(traj, e0)
    alive = np.nonzero(dist > 1e-12)[0]
    if len(alive) < 4:
        raise WindowError("trajectory sits on the equilibrium; no decay to fit")
    t_last = traj.times[alive[-1]]
    return (lo_frac * t_last, hi_frac * t_last)
