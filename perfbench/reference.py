"""Independent references for the benchmark's checks, built on numpy and scipy only.

Nothing here imports phagesim: each function re-derives a quantity from the
model's equations, so the checks compare the program against a separate
computation rather than against itself.

Model (state S, I, Q; delayed S_tau = S(t - tau), Q_tau = Q(t - tau)):

    S' = (alpha - k1 sigma(Q)) S
    I' = k1 sigma(Q) S - mu I - k1 e^{-mu tau} sigma(Q_tau) S_tau
    Q' = d - m Q - k1 sigma(Q) S - k2 sigma(Q) I + b k1 e^{-mu tau} sigma(Q_tau) S_tau

with Stratonovich noise eps sigma(S) o dW1 on S and eps sigma(Q) o dW2 on Q.
"""

import math
from types import SimpleNamespace

import numpy as np

HEUN = "stratonovich-heun"
EULER = "ito-euler-corrected"
WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile

# sigma(M + u) on [M, M+1] is the quintic with value/slope/curvature (M, 1, 0)
# at u = 0 and (M + 1, 0, 0) at u = 1; those six conditions fix
# M + u + 4u^3 - 7u^4 + 3u^5.
_BRIDGE = (1.0, 4.0, -7.0, 3.0)


def params(doc):
    """The scenario's `parameters` section as an attribute record."""
    return SimpleNamespace(**{"eps": 0.0, **doc})


def sigma(x, M):
    """Truncated identity on x >= 0, extended by sigma(x) = 0 below 0."""
    a1, a3, a4, a5 = _BRIDGE
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    u = np.clip(x - M, 0.0, 1.0)
    bridge = M + u * (a1 + u * u * (a3 + u * (a4 + a5 * u)))
    out = np.where(x <= M, x, np.where(x >= M + 1.0, M + 1.0, bridge))
    return out if out.ndim else float(out)


def sigma_prime(x, M):
    a1, a3, a4, a5 = _BRIDGE
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    u = np.clip(x - M, 0.0, 1.0)
    slope = a1 + u * u * (3.0 * a3 + u * (4.0 * a4 + 5.0 * a5 * u))
    out = np.where(x <= M, 1.0, np.where(x >= M + 1.0, 0.0, slope))
    return out if out.ndim else float(out)


def drift(s, i, q, s_tau, q_tau, p):
    sq = sigma(q, p.M)
    lysis = p.k1 * math.exp(-p.mu * p.tau) * sigma(q_tau, p.M) * s_tau
    adsorbed = p.k1 * sq * s
    return (
        (p.alpha - p.k1 * sq) * s,
        adsorbed - p.mu * i - lysis,
        p.d - p.m * q - adsorbed - p.k2 * sq * i + p.b * lysis,
    )


# ---------------------------------------------------------------- closed forms


def e0(p):
    return np.array([0.0, 0.0, p.d / p.m])


def eigenvalues(p):
    """Spectrum at E0; the characteristic matrix is triangular, so tau drops out."""
    return (p.alpha - p.k1 * p.d / p.m, -p.mu, -p.m)


def eta(p):
    return min(p.k1 * p.d / p.m - p.alpha, p.m, p.mu)


def burst_rate(p):
    return p.b * math.exp(-p.mu * p.tau) * p.mu


def minimal_dose(p):
    """Solve the dose hypothesis d = (alpha m/k1)(B + k2 (M - d/m))/B for d."""
    B = burst_rate(p)
    return (p.alpha * p.m / p.k1) * (B + p.k2 * p.M) / (B + p.alpha * p.k2 / p.k1)


def dose_threshold(p):
    B = burst_rate(p)
    return (p.alpha * p.m / p.k1) * (B + p.k2 * (p.M - p.d / p.m)) / B


def nu(p):
    B = burst_rate(p)
    return p.d * B / (p.m * B + p.k2 * (p.m * p.M - p.d))


def invariant_box(p):
    """(s_max, i_max, nu, M): the box [0, s_max] x [0, i_max] x [nu, M]."""
    head = p.m * p.M - p.d
    eb = p.b * math.exp(-p.mu * p.tau)
    return head / (p.k1 * eb * p.M), head / (eb * p.mu), nu(p), p.M


def hypotheses_hold(p, s0, q0, i0):
    """Every standing hypothesis for a constant history (S0, I0, Q0) = (s0, i0, q0)."""
    if not p.m * p.M > p.d:
        return False
    s_max, i_max, q_min, q_max = invariant_box(p)
    B = burst_rate(p)
    mass = p.k1 * math.exp(-p.mu * p.tau) * p.tau * sigma(q0, p.M) * s0
    return (
        i0 >= mass
        and 0.0 <= s0 <= p.M and 0.0 <= i0 <= p.M and q_min <= q0 <= q_max
        and (p.m * B + p.k2 * (p.m * p.M - p.d)) * q0 * s0 > p.d * p.mu * s0
        and p.b * math.exp(-p.mu * p.tau) > 1.0
        and s0 < s_max and i0 < i_max
        and p.d / p.m < p.M and p.d > dose_threshold(p)
    )


def wilson(successes, n):
    """95% Wilson score interval from scipy's binomial test."""
    from scipy.stats import binomtest

    ci = binomtest(int(successes), int(n)).proportion_ci(0.95, method="wilson")
    return float(ci.low), float(ci.high)


# ------------------------------------------------------- deterministic solution


class DelayedSolution:
    """Method of steps: one tight-tolerance solve_ivp per delay interval.

    On [k tau, (k+1) tau] the delayed terms come from the previous interval's
    dense output (the constant history for k = 0), so every breakpoint where
    the solution loses smoothness is an interval end.
    """

    RTOL, ATOL = 1e-12, 1e-14

    def __init__(self, p, s0, q0, i0, T):
        from scipy.integrate import solve_ivp

        self.tau = p.tau
        self.s0, self.i0, self.q0 = s0, i0, q0
        self.pieces = []
        y = np.array([s0, i0, q0], dtype=float)
        n_pieces = math.ceil(T / p.tau - 1e-9)
        for k in range(n_pieces):
            a, b = k * p.tau, min((k + 1) * p.tau, T)
            prev = self.pieces[-1] if self.pieces else None

            def rhs(t, z, prev=prev):
                if prev is None:
                    s_tau, q_tau = s0, q0
                else:
                    w = prev(t - p.tau)
                    s_tau, q_tau = w[0], w[2]
                return drift(z[0], z[1], z[2], s_tau, q_tau, p)

            sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=self.RTOL, atol=self.ATOL,
                            dense_output=True)
            if not sol.success:
                raise RuntimeError(f"reference solve failed on [{a:g}, {b:g}]: {sol.message}")
            self.pieces.append(sol.sol)
            y = sol.y[:, -1]

    def __call__(self, t):
        """State (3,) at scalar t >= 0, or (len(t), 3) for an array of times."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.clip(np.floor(ts / self.tau).astype(int), 0, len(self.pieces) - 1)
        out = np.empty((len(ts), 3))
        for piece in np.unique(k):
            sel = k == piece
            out[sel] = self.pieces[piece](ts[sel]).T
        return out if np.ndim(t) else out[0]


# ------------------------------------------------------------ stochastic loops


def philox_increments(seed, path_index, n_steps, h):
    """The (n_steps, 2) Brownian increments of one path: Philox keyed on (seed, index)."""
    gen = np.random.Generator(np.random.Philox(key=(seed, path_index)))
    return gen.standard_normal((n_steps, 2)) * math.sqrt(h)


def _clamp_dust(v):
    # the engine zeroes undershoot in [-1e-12, 0) and rejects anything below -1e-6
    if v < -1e-6:
        raise RuntimeError(f"reference path went negative ({v:g})")
    return 0.0 if -1e-12 <= v < 0.0 else v


def scalar_path(p, s0, q0, i0, T, K, seed, scheme, path_index=0):
    """One path of the Heun or corrected-Euler scheme as a plain Python loop.

    Returns the (n_steps + 1, 3) node array on the lattice h = tau/K.
    """
    h = p.tau / K
    n_steps = math.ceil(T / h - 1e-9)
    dw = philox_increments(seed, path_index, n_steps, h)
    nodes = np.empty((n_steps + 1, 3))
    nodes[0] = (s0, i0, q0)
    half_eps2 = 0.5 * p.eps * p.eps

    def delayed(n):
        return (s0, q0) if n <= 0 else (nodes[n, 0], nodes[n, 2])

    def g(y):
        return (p.eps * sigma(y[0], p.M), 0.0, p.eps * sigma(y[2], p.M))

    for n in range(n_steps):
        y = tuple(nodes[n])
        inc = (dw[n, 0], 0.0, dw[n, 1])
        f = drift(*y, *delayed(n - K), p)
        gy = g(y)
        if scheme == HEUN:
            pred = tuple(y[c] + h * f[c] + gy[c] * inc[c] for c in range(3))
            f_pred = drift(*pred, *delayed(n + 1 - K), p)
            g_pred = g(pred)
            new = [y[c] + 0.5 * h * (f[c] + f_pred[c]) + 0.5 * (gy[c] + g_pred[c]) * inc[c]
                   for c in range(3)]
        else:
            corr = [half_eps2 * sigma(y[c], p.M) * sigma_prime(y[c], p.M) for c in (0, 2)]
            corr = (corr[0], 0.0, corr[1])
            new = [y[c] + h * (f[c] + corr[c]) + gy[c] * inc[c] for c in range(3)]
        nodes[n + 1] = [_clamp_dust(v) for v in new]
    return nodes


def vector_paths(p, s0, q0, i0, T, K, seed, scheme, n_paths):
    """n_paths paths advanced together on (3, n) arrays; returns (n_steps + 1, 3, n)."""
    h = p.tau / K
    n_steps = math.ceil(T / h - 1e-9)
    dw = np.stack([philox_increments(seed, j, n_steps, h) for j in range(n_paths)], axis=2)
    nodes = np.empty((n_steps + 1, 3, n_paths))
    nodes[0] = np.array([s0, i0, q0])[:, None]
    half_eps2 = 0.5 * p.eps * p.eps
    hist = (np.full(n_paths, s0), np.full(n_paths, q0))

    def delayed(n):
        return hist if n <= 0 else (nodes[n, 0], nodes[n, 2])

    def g(y):
        return np.array([p.eps * sigma(y[0], p.M), np.zeros(n_paths), p.eps * sigma(y[2], p.M)])

    for n in range(n_steps):
        y = nodes[n]
        inc = np.array([dw[n, 0], np.zeros(n_paths), dw[n, 1]])
        f = np.array(drift(*y, *delayed(n - K), p))
        gy = g(y)
        if scheme == HEUN:
            pred = y + h * f + gy * inc
            f_pred = np.array(drift(*pred, *delayed(n + 1 - K), p))
            new = y + 0.5 * h * (f + f_pred) + 0.5 * (gy + g(pred)) * inc
        else:
            corr = half_eps2 * sigma(y, p.M) * sigma_prime(y, p.M)
            corr[1] = 0.0
            new = y + h * (f + corr) + gy * inc
        if new.min() < -1e-6:
            raise RuntimeError(f"reference ensemble went negative ({new.min():g})")
        nodes[n + 1] = np.where((new < 0.0) & (new >= -1e-12), 0.0, new)
    return nodes
