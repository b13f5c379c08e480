"""Method-of-steps RK4 integrator with cubic-Hermite dense output.

The step is locked to h = tau/K so every delayed argument t - tau lands on
a stored node or a half-step midpoint of an already-computed interval; the
midpoints are served by the Hermite interpolant built from node values and
node derivatives.
"""

import math
from array import array
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError, DomainError, PositivityError, WindowError
from .model import SigmaFn, _influx, _rates_for

BLOWUP_LIMIT = 1e12
CLAMP_TOL = 1e-12  # undershoot treated as floating-point dust
HARD_NEG = -1e-6  # beyond this the run is declared invalid
REGION_ATOL = 1e-9  # how far a node may sit outside the invariant box
AUTO_WINDOW = (0.25, 0.75)  # the fitting window, as fractions of the last resolved time
AUTO_FIT_NODES = 4  # nodes above DIST_FLOOR that AUTO_WINDOW needs, for two inside it
DIST_FLOOR = 1e-12  # a distance to the equilibrium at or below this is rounding, not decay
# Steps of tau/K a run may take to reach T; at about 3.2 us and 48 bytes a dde
# step, `simulate` at the limit takes about 7 s and 115 MB (docs/scenario-schema.md)
MAX_STEPS = 10**6


def step_count(T, tau, K):
    """Steps of tau/K reaching T, at most MAX_STEPS; a T within 1e-9 steps of a node ends there."""
    try:
        n_steps = max(1, math.ceil(T / (tau / K) - 1e-9))
    except OverflowError:  # T/h is infinite, or K is too large for a float
        n_steps = math.inf
    if n_steps > MAX_STEPS:
        raise ConfigurationError(f"T = {T:g} at tau/K = {tau:g}/{K} needs {n_steps:.7g} "
                                 f"steps; the limit is {MAX_STEPS} steps")
    return n_steps


@dataclass
class Trajectory:
    """Uniform-step node data from t = 0, with enough derivative information for dense output."""

    h: float
    states: np.ndarray  # (n_nodes, dim)
    derivs: np.ndarray  # (n_nodes, dim)
    clamp_count: int = 0
    warn_count: int = 0
    min_component: float = 0.0

    @property
    def dim(self):
        return self.states.shape[1]

    @property
    def times(self):
        return self.h * np.arange(len(self.states))

    @property
    def t_end(self):
        return self.h * (len(self.states) - 1)

    def __len__(self):
        return len(self.states)

    def sq(self):
        """The (S, Q) columns. Of a k2 = 0 run, this is the system without coinfection."""
        return replace(self, states=self.states[:, ::2], derivs=self.derivs[:, ::2])

    @classmethod
    def from_buffers(cls, h, states, derivs, guard):
        """Nodes and drifts viewed, not copied, from flat array('d') buffers; the guard's counts."""
        return cls(h, *(np.frombuffer(b).reshape(-1, 3) for b in (states, derivs)),
                   guard.clamp_count, guard.warn_count, guard.min_component)

    def eval(self, t):
        """Dense state at a time t in [0, t_end], (dim,), or at a 1-d array of them, (len(t), dim).

        Exact at nodes. A time outside raises DomainError, for an array naming the first.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        x, n_last = ts / self.h, len(self.states) - 1
        outside = ~((0.0 <= x) & (x <= n_last + 1e-9))  # a NaN is outside too
        if outside.any():
            raise DomainError(f"time {ts[outside.argmax()]:g} outside the trajectory "
                              f"[0, {self.t_end:g}]")
        # t/h of a node time h*j need not round to j exactly; np.rint rounds half to even
        near = np.rint(x)
        node = ts == self.h * near
        j = np.where(node, near, np.minimum(np.floor(x), max(n_last - 1, 0))).astype(np.intp)
        theta = x - j
        out = self.states[j]
        inner = ~node & (theta > 0.0)  # the others take node j's state
        k = j[inner]
        out[inner] = _hermite(self.states[k], self.derivs[k], self.states[k + 1],
                              self.derivs[k + 1], theta[inner, None], self.h)
        return out if np.ndim(t) else out[0]


def _hermite(y0, f0, y1, f1, theta, h):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y0
        + (t3 - 2.0 * t2 + theta) * h * f0
        + (-2.0 * t3 + 3.0 * t2) * y1
        + (t3 - t2) * h * f1
    )


class _Guard:
    """The positivity rule of both engines, applied to a (3, n) state.

    A component in [-CLAMP_TOL, 0) is float dust and becomes 0; -0.0 keeps
    its sign. One down to HARD_NEG stays and counts as a warning. Lower
    raises PositivityError; non-finite or past BLOWUP_LIMIT raises
    DivergenceError. Messages name column c as path name(c), or as the
    trajectory when there is no name function.
    """

    def __init__(self, name=None):
        self.name = name
        self.clamp_count = 0
        self.warn_count = 0
        self.min_component = 0.0

    def _who(self, col):
        return "trajectory" if self.name is None else f"path {self.name(int(col))}"

    def apply(self, y, t):
        low, high = np.minimum.reduce(y, None), np.maximum.reduce(y, None)
        # a NaN fails both comparisons
        if not (-BLOWUP_LIMIT <= low and high <= BLOWUP_LIMIT):
            col, k = np.argwhere(~np.isfinite(y.T) | (np.abs(y.T) > BLOWUP_LIMIT))[0]
            raise DivergenceError(
                f"{self._who(col)} blew up at t={t:g} (component {k} = {float(y[k, col])!r})",
                t=t,
            )
        low = float(low)
        if low < 0.0:
            self.min_component = min(self.min_component, low)
            if low < HARD_NEG:
                k, col = np.unravel_index(int(np.argmin(y)), y.shape)
                raise PositivityError(
                    f"{self._who(col)} component {k} reached {low:g} at t={t:g}", t=t
                )
            dust = (y < 0.0) & (y >= -CLAMP_TOL)
            self.clamp_count += int(dust.sum())
            self.warn_count += int((y < -CLAMP_TOL).sum())
            y = np.where(dust, 0.0, y)
        return y


def integrate(p, hist, T, K):
    """Integrate the coinfection system from a history; returns a dense Trajectory."""
    if T <= 0.0:
        raise DomainError("horizon T must be positive")
    if K < 8:
        raise DomainError("need at least 8 steps per delay interval")
    sigma, alpha, k1, k2, d, m, b, mu = SigmaFn(p.M), p.alpha, p.k1, p.k2, p.d, p.m, p.b, p.mu

    tau, M = p.tau, sigma.m_threshold
    h = tau / K
    n_steps = step_count(T, tau, K)
    guard = _Guard()
    ka = p.k1 * p.attenuation  # the lysis influx is ka * sigma(Q) * S, as in model._influx

    # Step n reads the delayed (S, Q) at its midpoint t_n + h/2 - tau and its
    # influx at its end t_{n+1} - tau: the history's for the first K steps,
    # then midpoint n-K+1/2 and node n+1-K. The history part is one vectorised
    # lookup at t = 0, -tau and the delayed times of the first steps; it seeds
    # one queue of (S, Q, influx) triples, and each step pops its front and
    # appends its own midpoint (S, Q) and node influx at the back. An end time
    # that rounds above 0 reads the history at 0, node 0's value.
    k = min(n_steps, K)
    ts = np.arange(k) * h
    td = np.concatenate(([0.0, -tau], ts + 0.5 * h - tau, np.minimum(ts + h - tau, 0.0)))
    s_hist, q_hist = hist.s(td), hist.q(td)
    f_hist = _influx(s_hist, sigma(q_hist), p).tolist()
    delayed = deque(zip(s_hist[2:2 + k].tolist(), q_hist[2:2 + k].tolist(), f_hist[2 + k:]))

    s, i, q = float(s_hist[0]), hist.i0, float(q_hist[0])
    ds1, di1, dq1 = _rates_for(p)(s, i, q, sigma(q), f_hist[1])  # the drift at the current node
    states, derivs = array("d", (s, i, q)), array("d", (ds1, di1, dq1))
    # bound once: a node goes in a component at a time, not as a tuple
    pop, push, put_state, put_deriv = delayed.popleft, delayed.append, states.append, derivs.append
    limit = BLOWUP_LIMIT

    # _hermite's coefficients at theta = 1/2
    hh, h6, c_f0, c_f1 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    # Stages 2-4 and the node write _rates_for out, its operations in its order. sigma
    # rejects a negative argument; here that is a stage, midpoint or node Q below 0, a
    # positivity failure of step n. Each site skips the call when sigma is the identity there.
    try:
        for n in range(n_steps):
            s_mid, q_mid, f_end = pop()
            f_mid = ka * (q_mid if 0.0 <= q_mid <= M else sigma(q_mid)) * s_mid
            bf_mid, bf_end = b * f_mid, b * f_end

            s2, i2, q2 = s + hh * ds1, i + hh * di1, q + hh * dq1
            sq = q2 if 0.0 <= q2 <= M else sigma(q2)
            adsorbed = (k1_sq := k1 * sq) * s2
            ds2, di2, dq2 = ((alpha - k1_sq) * s2, adsorbed - mu * i2 - f_mid,
                             d - m * q2 - adsorbed - k2 * sq * i2 + bf_mid)
            s3, i3, q3 = s + hh * ds2, i + hh * di2, q + hh * dq2
            sq = q3 if 0.0 <= q3 <= M else sigma(q3)
            adsorbed = (k1_sq := k1 * sq) * s3
            ds3, di3, dq3 = ((alpha - k1_sq) * s3, adsorbed - mu * i3 - f_mid,
                             d - m * q3 - adsorbed - k2 * sq * i3 + bf_mid)
            s4, i4, q4 = s + h * ds3, i + h * di3, q + h * dq3
            sq = q4 if 0.0 <= q4 <= M else sigma(q4)
            adsorbed = (k1_sq := k1 * sq) * s4
            ds4, di4, dq4 = ((alpha - k1_sq) * s4, adsorbed - mu * i4 - f_end,
                             d - m * q4 - adsorbed - k2 * sq * i4 + bf_end)
            s1 = s + h6 * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
            i1 = i + h6 * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
            q1 = q + h6 * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
            # comparisons with NaN fail, so a NaN takes the full guard too
            if not (0.0 <= s1 <= limit and 0.0 <= i1 <= limit and 0.0 <= q1 <= limit):
                s1, i1, q1 = guard.apply(np.array([[s1], [i1], [q1]]), n * h + h)[:, 0].tolist()

            sq = q1 if 0.0 <= q1 <= M else sigma(q1)
            adsorbed = (k1_sq := k1 * sq) * s1
            fs, fi, fq = ((alpha - k1_sq) * s1, adsorbed - mu * i1 - f_end,
                          d - m * q1 - adsorbed - k2 * sq * i1 + bf_end)
            push((0.5 * s + c_f0 * ds1 + 0.5 * s1 + c_f1 * fs,
                  0.5 * q + c_f0 * dq1 + 0.5 * q1 + c_f1 * fq, ka * sq * s1))
            put_state(s1)
            put_state(i1)
            put_state(q1)
            put_deriv(fs)
            put_deriv(fi)
            put_deriv(fq)
            s, i, q, ds1, di1, dq1 = s1, i1, q1, fs, fi, fq
    except DomainError as exc:
        t = n * h + h
        raise PositivityError(f"trajectory Q went negative before t={t:g}: {exc}", t=t) from exc

    return Trajectory.from_buffers(h, states, derivs, guard)


@dataclass(frozen=True)
class RegionExit:
    t: float
    component: str
    value: float
    bound: float


def monitor_region(traj, region):
    """First node, if any, where a trajectory leaves the invariant box.

    A node is checked for S, I, Q low, then Q high; a NaN counts as inside.
    """
    s, i, q = traj.states.T
    outside = np.stack([
        (s < -REGION_ATOL) | (s > region.s_max + REGION_ATOL),
        (i < -REGION_ATOL) | (i > region.i_max + REGION_ATOL),
        q < region.q_min - REGION_ATOL,
        q > region.q_max + REGION_ATOL,
    ], axis=1)
    if not outside.any():
        return None
    j, k = divmod(int(outside.argmax()), 4)  # the first True, node by node
    component, col, bound = (("S", 0, region.s_max), ("I", 1, region.i_max),
                             ("Q", 2, region.q_min), ("Q", 2, region.q_max))[k]
    return RegionExit(traj.h * j, component, float(traj.states[j, col]), bound)


@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope |Z(t)-E0| <= prefactor * exp(-eta*t) plus a fitted tail rate."""

    prefactor: float
    fitted_rate: float
    window: tuple
    rate_ok: bool


def node_times(T, tau, K):
    """The node times of a run to T at tau/K, Trajectory.times, known before it is integrated."""
    return (tau / K) * np.arange(step_count(T, tau, K) + 1)


def _window_nodes(times, window):
    """Which of the node times lie in the window [t_a, t_b], each end widened by 1e-12."""
    t_a, t_b = window
    return (times >= t_a - 1e-12) & (times <= t_b + 1e-12)


def fit_nodes(times, window=None):
    """The nodes a decay fit takes from the window; WindowError for fewer than two.

    Without a window the fit picks AUTO_WINDOW of its nodes above DIST_FLOOR, of which it
    needs AUTO_FIT_NODES: fewer node times are refused, naming their count, and all are taken.
    """
    if window is None:
        if len(times) < AUTO_FIT_NODES:
            raise WindowError(f"a run of {len(times)} nodes is too short for the decay fit, "
                              f"whose automatic window needs at least {AUTO_FIT_NODES}")
        return np.ones(len(times), dtype=bool)
    mask = _window_nodes(times, window)
    if mask.sum() < 2:
        raise WindowError("window contains fewer than two nodes")
    return mask


def fit_decay(traj, e0, eta, window=None):
    """Least-squares decay rate over a window plus the tight envelope prefactor.

    Without a window it fits on AUTO_WINDOW of the last node above DIST_FLOOR. A window may
    end where step_count lets a run end: ceil(t_b/h - 1e-9) <= n_steps.
    The prefactor is sup of |Z(t)-E0| e^{eta t} over the nodes above
    DIST_FLOOR, so the exponential bound holds with equality at one of them;
    past the floor the distance is rounding, whose product with e^{eta t}
    would grow without bound.
    """
    # the Euclidean distances to E0, squared in place: bitwise np.linalg.norm(axis=1)
    sq = traj.states - e0
    dist = np.sqrt(np.multiply(sq, sq, out=sq).sum(axis=1))
    del sq
    times = traj.times
    alive = np.nonzero(dist > DIST_FLOOR)[0]
    if window is None:
        if len(alive) < AUTO_FIT_NODES:
            raise WindowError("trajectory sits on the equilibrium; no decay to fit")
        t_last = times[alive[-1]]
        window = (AUTO_WINDOW[0] * t_last, AUTO_WINDOW[1] * t_last)
    t_a, t_b = window
    if t_a < -1e-12 or t_b / traj.h - 1e-9 > len(traj) - 1 or t_b <= t_a:
        raise WindowError(f"window [{t_a:g}, {t_b:g}] not inside the trajectory")
    mask = fit_nodes(times, window)
    if np.any(dist[mask] < 1e-14):
        raise WindowError(
            "distance to the equilibrium underflows inside the window; use an earlier window"
        )
    slope, _ = np.polyfit(times[mask], np.log(dist[mask]), 1)
    fitted_rate = -float(slope)
    if len(alive) == 0:
        raise WindowError("trajectory sits on the equilibrium; no envelope to fit")
    # the sup in log space, where e^{eta t} cannot overflow; the products at the nodes
    # within 1e-9 of the top (far above rounding) hold the bits of the max over all
    log_env = np.log(dist[alive]) + eta * times[alive]
    top = alive[log_env >= log_env.max() - 1e-9]
    prefactor = float(np.max(dist[top] * np.exp(eta * times[top])))
    return DecayFit(
        prefactor=prefactor,
        fitted_rate=fitted_rate,
        window=(float(t_a), float(t_b)),
        rate_ok=fitted_rate >= 0.95 * eta,
    )

