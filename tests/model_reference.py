"""Reference formulas the tests check the engines against, kept out of the package.

The package steps the model through `model._rates_for`, `model._influx` and
`SigmaFn` only. The functions here spell the same right-hand sides, lysis
influx, noise amplitudes, noise streams, step kernels and characteristic
matrix out on their own, in the arithmetic the package had before they
moved, so a test built from them is independent of the production kernels;
only sigma is the package's. `integrate_through_rates` is the exception: it is
the RK4 loop before `dde.integrate` wrote `model._rates_for` out, and it calls
the package's drift, influx, guard and step count.
"""

import math
from array import array
from collections import deque

import numpy as np

from phagesim.dde import BLOWUP_LIMIT, Trajectory, _Guard, step_count
from phagesim.errors import DomainError, PositivityError
from phagesim.model import SigmaFn, _influx, _rates_for

S, I, Q = 0, 1, 2


def path_normals(seed, path_index, n_steps):
    """The (n_steps, 2) Gaussian increments of one path in one draw, from its own Philox stream.

    The key is the two 64-bit words (seed, path index), written as an array
    where `sde._increments` writes one integer.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, 2))


def _drift_terms(s, i, q, s_tau, q_tau, p, sigma):
    """Elementwise right-hand side of the coinfection system; returns (dS, dI, dQ)."""
    sq = sigma(q)
    lysis_influx = p.k1 * math.exp(-p.mu * p.tau) * sigma(q_tau) * s_tau
    adsorbed = p.k1 * sq * s
    ds = (p.alpha - p.k1 * sq) * s
    di = adsorbed - p.mu * i - lysis_influx
    dq = p.d - p.m * q - adsorbed - p.k2 * sq * i + p.b * lysis_influx
    return ds, di, dq


def _require_finite(values, what):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite, got {values!r}")
    return arr


def drift(now, delayed, p, sigma):
    """Deterministic rates (dS, dI, dQ)/dt of the coinfection system.

    `now` and `delayed` are (S, I, Q) triples; only the S and Q components
    of `delayed` enter the equations. At k2 = 0 the S and Q rates do not
    depend on I, so `drift(...)[::2]` is the system without coinfection.
    """
    now = _require_finite(now, "current state")
    delayed = _require_finite(delayed, "delayed state")
    ds, di, dq = _drift_terms(now[S], now[I], now[Q], delayed[S], delayed[Q], p, sigma)
    return np.array([ds, di, dq])


def diffusion(now, p, sigma):
    """Noise amplitudes (eps*sigma(S), 0, eps*sigma(Q)); I carries no noise."""
    now = _require_finite(now, "state")
    gs = p.eps * sigma(now[S])
    gq = p.eps * sigma(now[Q])
    return np.array([gs, np.zeros_like(gs), gq])


def stratonovich_correction(now, p, sigma):
    """Drift added when the Stratonovich system is rewritten in Ito form."""
    now = _require_finite(now, "state")
    half_eps2 = 0.5 * p.eps * p.eps
    cs = half_eps2 * sigma(now[S]) * sigma.prime(now[S])
    cq = half_eps2 * sigma(now[Q]) * sigma.prime(now[Q])
    return np.array([cs, np.zeros_like(cs), cq])


def heun_step(y, dw, h, f_now, g_now, terms):
    """One Stratonovich-Heun step: the same increment drives predictor and corrector.

    `terms(pred)` returns the drift and the noise amplitude at the predictor.
    """
    pred = y + h * f_now + g_now * dw
    f_pred, g_pred = terms(pred)
    return y + 0.5 * h * (f_now + f_pred) + 0.5 * (g_now + g_pred) * dw


def ito_euler_step(y, dw, h, f_corrected, g_now):
    """Euler-Maruyama on the Ito form (drift already carries the Stratonovich correction)."""
    return y + h * f_corrected + g_now * dw


def characteristic_determinant(lam, p):
    """Determinant of the delayed characteristic matrix at E0, evaluated at lam."""
    dm = p.d / p.m
    delay = math.exp(-(p.mu + lam) * p.tau)
    mat = np.array(
        [
            [lam - (p.alpha - p.k1 * dm), 0.0, 0.0],
            [-p.k1 * dm + p.k1 * delay * dm, lam + p.mu, 0.0],
            [p.k1 * dm - p.k1 * p.b * delay * dm, p.k2 * dm, lam + p.m],
        ]
    )
    return float(np.linalg.det(mat))


def scalar_eval(traj, t):
    """A trajectory's dense state at one time, node by node as `Trajectory.eval` once read it.

    A node time is its stored state; elsewhere the cubic Hermite interpolant of
    the interval's end states and slopes, written out on the scalar theta.
    """
    x = t / traj.h
    n_last = len(traj.states) - 1
    if not (0.0 <= x <= n_last + 1e-9):  # a NaN fails too
        raise DomainError(f"time {t:g} outside the trajectory [0, {traj.t_end:g}]")
    j = round(x)
    if j <= n_last and t == traj.h * j:
        return traj.states[j].copy()
    j = min(int(x), n_last - 1) if n_last > 0 else 0
    theta = x - j
    if theta <= 0.0:
        return traj.states[j].copy()
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * traj.states[j]
        + (t3 - 2.0 * t2 + theta) * traj.h * traj.derivs[j]
        + (-2.0 * t3 + 3.0 * t2) * traj.states[j + 1]
        + (t3 - t2) * traj.h * traj.derivs[j + 1]
    )


def dense_times(t_end, dt):
    """The resampled CSV's times: k*dt while at most t_end + 1e-12, clipped to t_end."""
    k = 0
    t = 0.0
    while t <= t_end + 1e-12:
        yield min(t, t_end)
        k += 1
        t = k * dt


def dense_rows(traj, dt):
    """The resampled CSV's rows, one scalar evaluation each."""
    for t in dense_times(traj.t_end, dt):
        yield (t, *scalar_eval(traj, t).tolist())


def integrate_through_rates(p, hist, T, K):
    """`dde.integrate` as it stepped before it wrote the drift out: each stage calls `rates`.

    The loop is kept as it was, so a test can hold the written-out drift to it bit for bit.
    """
    if T <= 0.0:
        raise DomainError("horizon T must be positive")
    if K < 8:
        raise DomainError("need at least 8 steps per delay interval")
    sigma, rates = SigmaFn(p.M), _rates_for(p)

    tau, M = p.tau, sigma.m_threshold
    h = tau / K
    n_steps = step_count(T, tau, K)
    guard = _Guard()
    ka = p.k1 * p.attenuation  # the lysis influx is ka * sigma(Q) * S, as in model._influx

    # Step n reads the delayed (S, Q) at its midpoint t_n + h/2 - tau and its
    # influx at its end t_{n+1} - tau: the history's for the first K steps,
    # then midpoint n-K+1/2 and node n+1-K. The history part is one vectorised
    # lookup at t = 0, -tau and the delayed times of the first steps; it seeds
    # two queues, and each step pops their fronts and appends its own midpoint
    # and node influx at the backs. An end time that rounds above 0 reads the
    # history at 0, node 0's value.
    ts = np.arange(min(n_steps, K)) * h
    td = np.concatenate(([0.0, -tau], ts + 0.5 * h - tau, np.minimum(ts + h - tau, 0.0)))
    s_hist, q_hist = hist.s(td), hist.q(td)
    f_hist = _influx(s_hist, sigma(q_hist), p).tolist()
    mids = deque(zip(s_hist[2:2 + len(ts)].tolist(), q_hist[2:2 + len(ts)].tolist()))
    ends = deque(f_hist[2 + len(ts):])

    s, i, q = float(s_hist[0]), hist.i0, float(q_hist[0])
    ds1, di1, dq1 = rates(s, i, q, sigma(q), f_hist[1])  # the drift at the current node
    states, derivs = array("d", (s, i, q)), array("d", (ds1, di1, dq1))

    # _hermite's coefficients at theta = 1/2
    hh, h6, c_f0, c_f1 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    # sigma rejects a negative argument; in this loop that is a stage,
    # midpoint or node Q below 0, a positivity failure of step n. Each site
    # skips the call when sigma is the identity there.
    try:
        for n in range(n_steps):
            s_mid, q_mid = mids.popleft()
            f_mid = ka * (q_mid if 0.0 <= q_mid <= M else sigma(q_mid)) * s_mid
            f_end = ends.popleft()

            s2, i2, q2 = s + hh * ds1, i + hh * di1, q + hh * dq1
            ds2, di2, dq2 = rates(s2, i2, q2, q2 if 0.0 <= q2 <= M else sigma(q2), f_mid)
            s3, i3, q3 = s + hh * ds2, i + hh * di2, q + hh * dq2
            ds3, di3, dq3 = rates(s3, i3, q3, q3 if 0.0 <= q3 <= M else sigma(q3), f_mid)
            s4, i4, q4 = s + h * ds3, i + h * di3, q + h * dq3
            ds4, di4, dq4 = rates(s4, i4, q4, q4 if 0.0 <= q4 <= M else sigma(q4), f_end)
            s1 = s + h6 * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
            i1 = i + h6 * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
            q1 = q + h6 * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
            # comparisons with NaN fail, so a NaN takes the full guard too
            if not (0.0 <= s1 <= BLOWUP_LIMIT and 0.0 <= i1 <= BLOWUP_LIMIT
                    and 0.0 <= q1 <= BLOWUP_LIMIT):
                s1, i1, q1 = guard.apply(np.array([[s1], [i1], [q1]]), n * h + h)[:, 0].tolist()

            sq = q1 if 0.0 <= q1 <= M else sigma(q1)
            fs, fi, fq = rates(s1, i1, q1, sq, f_end)
            mids.append((0.5 * s + c_f0 * ds1 + 0.5 * s1 + c_f1 * fs,
                         0.5 * q + c_f0 * dq1 + 0.5 * q1 + c_f1 * fq))
            states.extend((s1, i1, q1))
            derivs.extend((fs, fi, fq))
            ends.append(ka * sq * s1)
            s, i, q, ds1, di1, dq1 = s1, i1, q1, fs, fi, fq
    except DomainError as exc:
        t = n * h + h
        raise PositivityError(f"trajectory Q went negative before t={t:g}: {exc}", t=t) from exc

    return Trajectory.from_buffers(h, states, derivs, guard)
