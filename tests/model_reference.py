"""Reference formulas the tests check the engines against, kept out of the package.

The package steps the model through `model._rates_for`, `model._influx` and
`SigmaFn` only. The functions here spell the same right-hand sides, lysis
influx, noise amplitudes, noise streams, step kernels and characteristic
matrix out on their own, in the arithmetic the package had before they
moved, so a test built from them is independent of the production kernels;
only sigma is the package's.
"""

import math

import numpy as np

from phagesim.errors import DomainError

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
