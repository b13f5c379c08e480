"""Stochastic integration of the Stratonovich-perturbed system and Monte Carlo tooling.

Paths are driven by per-path Philox streams keyed on (seed, path index), so
any path is reproducible in isolation and ensembles are order-independent.
`_step_paths` steps whatever increments it is given, so a convergence test
can drive the production stepper with Brownian paths of its own.
All paths of an ensemble advance together on (3, n) arrays, at most DRAW_STEPS
steps at a time, each path drawing into its own row and each stage writing into
buffers made once; a sample path steps on three floats in `_float_path`. Both lanes
run the same elementwise formulas in the same order, so an ensemble's column is
bitwise the sample path with the same index, whatever the block length.
The noise amplitude is a per-column argument of the array lane, so
`concentration_experiment` steps every eps row in one pass over the paths:
each path's increments are drawn once and drive its column in every row.
"""

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import dde, equilibria
from .dde import BLOWUP_LIMIT
from .errors import ConfigurationError, DomainError
from .model import SigmaFn, _influx, _rates_for

SCHEME_HEUN = "stratonovich-heun"
SCHEME_EULER = "ito-euler-corrected"
SCHEMES = (SCHEME_HEUN, SCHEME_EULER)
Z95 = 1.959963984540054  # the standard normal quantile of a two-sided 95% interval
DRAW_STEPS = 256  # steps per time block: increments drawn and nodes held at once
# Bytes a run's paths may hold, a quarter of an 8 GB host. A path of E lockstep eps
# rows (E = 1 but in mc-concentration) holds its Philox generator (about 1 KB traced),
# K + 1 floats of delayed influx per row, blocks of increments (2 floats a step, shared
# by the rows), nodes (3 a row) and deviations (1 a row), the stepper's six (3, E n)
# per-step buffers (144 B a row) and the float lane's K history influxes, which pass
# through a list (32 B an entry). At K = 64 that is 16.0 KB a path at E = 1 up to
# n = 21 845 and 14.6 KB at E = 3 up to n = 28 197; past that the blocks count an
# eighth of the budget (_check_budget): 502 957 paths fit at E = 1, 371 060 at E = 3.
PATH_BYTES_BUDGET = 2**31


@dataclass(frozen=True)
class PathConfig:
    seed: int
    T: float
    K: int = 64
    scheme: str = SCHEME_HEUN

    def __post_init__(self):
        if self.K < 8:
            raise DomainError("need at least 8 steps per delay interval")
        if self.T <= 0.0:
            raise DomainError("horizon T must be positive")
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")


def _block_steps(n, rows=1):
    """Steps a block of n paths of `rows` eps rows: one row's node bytes, at most budget / 8."""
    return max(1, min(DRAW_STEPS // rows, PATH_BYTES_BUDGET // 8 // (max(n, 1) * (16 + 32 * rows))))


def _check_budget(n, K, rows=1):
    """Refuse n paths of `rows` eps rows at K steps a delay over the budget, before any exists.

    The blocks count as r = n (16 + 32 rows) bytes a step for max(1, DRAW_STEPS // rows) steps,
    at most max(r, budget / 8): at least _block_steps' blocks, and rising with n. dde.MAX_STEPS
    bounds a float lane's nodes, drifts and influx (56 B a step, not counted) to about 60 MB.
    """
    row = n * (16 + 32 * rows)
    blocks = min(row * max(1, DRAW_STEPS // rows), max(row, PATH_BYTES_BUDGET // 8))
    need = n * (1024 + 8 * (K + 1) * rows + 144 * rows + 32 * K) + blocks
    if need > PATH_BYTES_BUDGET:
        raise MemoryError(f"paths need {need:.4g} bytes at n = {n}, K = {K}, {rows} eps "
                          f"row(s); the path budget is {PATH_BYTES_BUDGET} bytes")


def _increments(p, cfg, path_indices, block_steps):
    """The paths' increments of W_S and W_Q at h = tau/K, as (m, 2, n) blocks of block_steps steps.

    A block is the transposed view of one (n, m, 2) buffer, each path's draw in its own
    contiguous row. A path's generator lives on between blocks, so its blocks stack to
    one (n_steps, 2) draw times sqrt(h), bit for bit. Each block overwrites the one before.
    """
    n_steps, seed = dde.step_count(cfg.T, p.tau, cfg.K), cfg.seed & 0xFFFFFFFFFFFFFFFF
    gens = [np.random.Generator(np.random.Philox(key=seed | int(j) << 64)) for j in path_indices]
    draws = np.empty((len(gens), min(block_steps, n_steps), 2))
    for start in range(0, n_steps, block_steps):
        block = draws[:, :n_steps - start]
        for j, gen in enumerate(gens):
            gen.standard_normal(out=block[j])
        block *= math.sqrt(p.tau / cfg.K)
        yield block.transpose(1, 2, 0)


def _stage(y, delayed_influx, rates, sigma, eps, g):
    """At a (3, n) state: the S and Q rows clipped at 0, their sigma, and the drift.

    The noise amplitudes go into g's S and Q rows. `rates` is `model._rates_for(p)`;
    `eps` holds one amplitude per column.
    """
    clipped = np.maximum(y[::2], 0.0)
    sig = sigma._values(clipped)
    np.multiply(eps, sig, out=g[::2])
    return clipped, sig, np.array(rates(y[0], y[1], y[2], sig[1], delayed_influx))


def _history_influx(hist, p, sigma, K):
    """Lysis influx of the history at -tau, ..., -h, the delayed terms of nodes 0 to K-1."""
    t = (p.tau / K) * np.arange(-K, 0)
    return _influx(hist.s(t), sigma(hist.q(t)), p)


def _step_paths(p, hist, cfg, eps, increments, guard):
    """Step columns on (m, 2, n) blocks of increments of W_S and W_Q at h = tau/K.

    `eps` holds the noise amplitudes of the N columns, E groups of n: column
    r n + j takes path j's increments at amplitude eps[r n + j], so E rows
    share one draw of n paths. Yields (j, nodes): the guarded nodes j, j + 1,
    ... as an (m, 3, N) block, node 0 first. Columns step together on (3, N)
    arrays into one buffer, a block per increment block; the stepper never
    reads it back, so a caller may reduce a block in place. `p.eps` is not read.
    """
    n_paths = len(eps)
    if n_paths < 1:
        raise DomainError("need at least one path")
    sigma, rates = SigmaFn(p.M), _rates_for(p)
    K, h = cfg.K, p.tau / cfg.K

    # Lysis influx of node j, in row j % (K + 1): written when node j is the
    # current state, read K - 1 and K steps later as the delayed term.
    ring = K + 1
    influx = np.empty((ring, n_paths))
    influx[1:] = _history_influx(hist, p, sigma, K)[:, None]

    y0 = (hist.s(0.0), hist.i0, hist.q(0.0))
    y = np.repeat(np.array(y0)[:, None], n_paths, axis=1)
    nodes = y[None].copy()
    yield 0, nodes
    # every per-step array; I's rows stay 0, as I carries no noise and no Ito correction
    g_now, g_pred, inc, corr, pred, tmp = np.zeros((6, 3, n_paths))
    ka, hh, half_eps2 = p.k1 * p.attenuation, 0.5 * h, 0.5 * eps * eps
    heun = cfg.scheme == SCHEME_HEUN
    n = 0
    for dw in increments:
        if len(nodes) < len(dw):
            nodes = np.empty((len(dw), 3, n_paths))
        # inc's S and Q rows as (2, E, n): each column group views the same draws
        noise = inc[::2].reshape(2, -1, dw.shape[2])
        for k in range(len(dw)):
            clipped, sig, f_now = _stage(y, influx[(n - K) % ring], rates, sigma, eps, g_now)
            np.multiply(ka * sig[1], y[0], out=influx[n % ring])  # model._influx's order
            noise[...] = dw[k][:, None]
            if heun:
                # Stratonovich-Heun: the same increment drives predictor and corrector;
                # pred = y + h f + g inc, then y + hh (f + f_pred) + 0.5 (g + g_pred) inc
                np.add(y, np.multiply(h, f_now, out=pred), out=pred)
                pred += np.multiply(g_now, inc, out=tmp)
                _, _, f_pred = _stage(pred, influx[(n + 1 - K) % ring], rates, sigma, eps, g_pred)
                np.multiply(hh, np.add(f_now, f_pred, out=f_now), out=f_now)
                np.multiply(0.5, np.add(g_now, g_pred, out=g_now), out=g_now)
            else:
                # Euler-Maruyama on the Ito form, y + h (f + corr) + g inc: corr is Stratonovich's
                np.multiply(half_eps2, sig, out=corr[::2])
                if sig is not clipped:  # sigma' is 1 where sigma is the identity
                    corr[::2] *= sigma._slopes(clipped)
                np.multiply(h, np.add(f_now, corr, out=f_now), out=f_now)
            node = np.add(y, f_now, out=nodes[k])
            node += np.multiply(g_now, inc, out=g_now)
            y = guard.apply(node, n * h + h)
            if y is not node:  # clamped
                node[...] = y
            n += 1
        y = y.copy()  # callers may change the block
        yield n + 1 - len(dw), nodes[:len(dw)]


def _float_path(p, hist, cfg, steps, guard):
    """The (3, n) step above for one path, written out on floats; `steps` yields (dW_S, dW_Q).

    Returns its Trajectory on flat array('d') buffers of the nodes and of the drift the
    step evaluates at each, then the last node's. `influx[n]`, a third buffer, is node n's
    delayed influx: the history's at (n - K) h while n < K, and node n - K's after.
    `0.0 if x <= 0.0 else x` clips as np.maximum(x, 0.0) does, -0.0 to +0.0, and a
    clipped x goes through sigma or sigma' only past M, where sigma is not the identity.
    The `+ 0.0` on I is the arrays' noise term on I, 0.0 * 0.0.
    """
    sigma, rates = SigmaFn(p.M), _rates_for(p)
    K, h, M = cfg.K, p.tau / cfg.K, sigma.m_threshold
    eps, ka, hh, half_eps2 = p.eps, p.k1 * p.attenuation, 0.5 * h, 0.5 * p.eps * p.eps
    heun = cfg.scheme == SCHEME_HEUN
    influx = array("d", _history_influx(hist, p, sigma, K).tolist())
    s, i, q = hist.s(0.0), hist.i0, hist.q(0.0)
    nodes, drifts = array("d", (s, i, q)), array("d")
    for n, (ws, wq) in enumerate(steps):
        cs, cq = 0.0 if s <= 0.0 else s, 0.0 if q <= 0.0 else q
        sig_s, sig_q = cs if cs <= M else sigma(cs), cq if cq <= M else sigma(cq)
        fs, fi, fq = rates(s, i, q, sig_q, influx[n])
        drifts.extend((fs, fi, fq))
        gs, gq = eps * sig_s, eps * sig_q
        influx.append(ka * sig_q * s)
        if heun:
            ps, pi, pq = s + h * fs + gs * ws, i + h * fi + 0.0, q + h * fq + gq * wq
            cps, cpq = 0.0 if ps <= 0.0 else ps, 0.0 if pq <= 0.0 else pq
            sig_ps, sig_pq = cps if cps <= M else sigma(cps), cpq if cpq <= M else sigma(cpq)
            fps, fpi, fpq = rates(ps, pi, pq, sig_pq, influx[n + 1])
            s = s + hh * (fs + fps) + 0.5 * (gs + eps * sig_ps) * ws
            i = i + hh * (fi + fpi) + 0.0
            q = q + hh * (fq + fpq) + 0.5 * (gq + eps * sig_pq) * wq
        else:
            s = s + h * (fs + half_eps2 * sig_s * (1.0 if cs <= M else sigma.prime(cs))) + gs * ws
            i = i + h * (fi + 0.0) + 0.0  # I's Ito correction is 0.0 too
            q = q + h * (fq + half_eps2 * sig_q * (1.0 if cq <= M else sigma.prime(cq))) + gq * wq
        # comparisons with NaN fail, so a NaN takes the full guard too
        if not (0.0 <= s <= BLOWUP_LIMIT and 0.0 <= i <= BLOWUP_LIMIT
                and 0.0 <= q <= BLOWUP_LIMIT):
            s, i, q = guard.apply(np.array([[s], [i], [q]]), n * h + h)[:, 0].tolist()
        nodes.extend((s, i, q))
    cq = 0.0 if q <= 0.0 else q
    drifts.extend(rates(s, i, q, cq if cq <= M else sigma(cq), influx[len(nodes) // 3 - 1]))
    return dde.Trajectory.from_buffers(h, nodes, drifts, guard)


def sample_path(p, hist, cfg, path_index=0):
    """One sample path as a dense Trajectory (noise off reproduces the deterministic run).

    Its Hermite slopes are the drifts the stepper evaluated at the nodes.
    """
    _check_budget(1, cfg.K)
    blocks = _increments(p, cfg, [path_index], DRAW_STEPS)
    steps = chain.from_iterable(dw[:, :, 0].tolist() for dw in blocks)
    return _float_path(p, hist, cfg, steps, dde._Guard(lambda c: path_index))


@dataclass
class EnsembleStats:
    n_paths: int
    times: np.ndarray
    mean: np.ndarray  # (n_nodes, 3)
    dev_p50: np.ndarray  # per-node median of max-component deviation
    dev_p95: np.ndarray
    sup_devs: np.ndarray  # per-path sup over window of max-component deviation
    min_component: float = 0.0
    clamp_count: int = 0  # components clamped from float dust to 0
    warn_count: int = 0  # components left negative within the tolerance


def _window_mask(T, tau, K, window):
    """The window's nodes, known from the node count before any path is drawn."""
    mask = dde._window_nodes((tau / K) * np.arange(dde.step_count(T, tau, K) + 1), window)
    if not np.any(mask):
        raise ConfigurationError(f"window [{window[0]:g}, {window[1]:g}] contains no nodes")
    return mask


def _reduce_block(j, block, ref, window, sup):
    """Nodes j, j + 1, ... of a spent (m, 3, n) block as each path's largest |node - ref[j]|.

    Forms the (m, n) deviations in place on the block and folds each path's
    max over the block's window nodes into its running `sup`.
    """
    rows = slice(j, j + len(block))
    block -= ref[rows, :, None]
    dev = np.abs(block, out=block).max(axis=1)
    np.maximum(sup, dev.max(axis=0, where=window[rows, None], initial=0.0), out=sup)
    return dev


def ensemble(p, hist, cfg, n, reference, window):
    """Run n paths and aggregate deviation statistics against a reference.

    `reference` is either a fixed point or a Trajectory on the ensemble's
    nodes, the same h = tau/K and node count as
    `dde.integrate(p, hist, cfg.T, cfg.K)` gives. Its states are compared
    node by node; any other layout raises ConfigurationError. The per-path
    statistic is the sup over window nodes of the largest componentwise
    deviation. Each node block is reduced as it is stepped, to its mean, its
    deviation percentiles and the running sups, so a run holds O(n) memory.
    """
    _check_budget(n, cfg.K)
    h = p.tau / cfg.K
    mask = _window_mask(cfg.T, p.tau, cfg.K, window)
    if isinstance(reference, dde.Trajectory):
        if (reference.h, len(reference)) != (h, len(mask)):
            raise ConfigurationError(
                f"reference (h={reference.h:g}, {len(reference)} nodes) is "
                f"not on the ensemble's nodes (h={h:g}, {len(mask)} nodes)"
            )
        reference = reference.states
    ref = np.broadcast_to(np.asarray(reference, dtype=float).reshape(-1, 3), (len(mask), 3))
    paths = range(n)
    guard = dde._Guard(paths.__getitem__)
    mean, pct, sup_devs = np.empty((len(mask), 3)), np.empty((2, len(mask))), np.zeros(n)
    increments = _increments(p, cfg, paths, _block_steps(n))
    for j, block in _step_paths(p, hist, cfg, np.full(n, p.eps), increments, guard):
        rows = slice(j, j + len(block))
        mean[rows] = block.mean(axis=2)
        dev = _reduce_block(j, block, ref, mask, sup_devs)
        # in place: each node's row of deviations is only reordered
        pct[:, rows] = np.percentile(dev, [50.0, 95.0], axis=1, overwrite_input=True)
    dev_p50, dev_p95 = pct
    return EnsembleStats(
        n_paths=n, times=h * np.arange(len(mask)), mean=mean, dev_p50=dev_p50, dev_p95=dev_p95,
        sup_devs=sup_devs, min_component=guard.min_component, clamp_count=guard.clamp_count,
        warn_count=guard.warn_count,
    )


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise DomainError("need n > 0")
    p_hat = successes / n
    z2 = Z95 * Z95
    denom = 1.0 + z2 / n
    # boundary counts give exactly 0/1 endpoints; the closed form would land
    # one ulp inside and fail to cover the point estimate
    if successes == 0:
        return 0.0, (z2 / n) / denom
    if successes == n:
        return 1.0 / denom, 1.0
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ConcentrationRow:
    eps: float
    rho: float
    t_lo: float
    t_hi: float
    n: int
    exceed: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass
class ConcentrationTable:
    rows: list = field(default_factory=list)
    prefactor: float = float("nan")
    eta: float = float("nan")

    def log_prob_slope(self):
        """Slope of ln(p_hat) against 1/eps^2 over rows with 0 < exceed < n.

        A row where every path exceeds has ln(p_hat) = 0 whatever the tail,
        and a row where none does has no logarithm, so both are left out.
        Returns None when fewer than two usable rows exist.
        """
        xs, ys = [], []
        for r in self.rows:
            if r.eps > 0.0 and 0 < r.exceed < r.n:
                xs.append(1.0 / (r.eps * r.eps))
                ys.append(math.log(r.p_hat))
        if len(xs) < 2:
            return None
        slope, _ = np.polyfit(xs, ys, 1)
        return float(slope)


def concentration_experiment(
    p, hist, eps_list, rho, kappa1, kappa2, n, seed,
    K=64, scheme=SCHEME_HEUN,
):
    """Empirical exceedance probabilities around E0 on the predicted time window.

    The window [k1 ln(c/rho)/eta, k2 ln(c/rho)/eta] uses the deterministic
    decay prefactor as c and the spectral eta; seeds are coupled across the
    eps values so the exceedance counts are comparable. One pass over the
    paths serves every eps row: the E rows step in lockstep on (3, E n)
    columns, eps-major, on one draw of each path's increments, in blocks of
    _block_steps(n, E) steps. A path that fails stops the run at the earliest
    time any row fails, and the error names it as (eps, path).
    """
    if not (1.0 < kappa1 < kappa2):
        raise ConfigurationError("need 1 < kappa1 < kappa2")
    if rho <= 0.0:
        raise ConfigurationError("need rho > 0")
    if len(eps_list) == 0:
        raise ConfigurationError("need at least one eps value")
    _check_budget(n, K, len(eps_list))

    st = equilibria.stability_at_e0(p)
    if st.eta <= 0.0:
        raise ConfigurationError("E0 is not attracting (eta <= 0); no window exists")
    e0 = equilibria.bacteria_free(p)
    t_det = max(50.0, 10.0 / st.eta)
    det = dde.integrate(p, hist, t_det, K)
    fit = dde.fit_decay(det, e0, st.eta)
    c = fit.prefactor
    if rho >= c:
        raise ConfigurationError(
            f"rho={rho:g} >= decay prefactor c={c:g}; the window is empty"
        )
    log_ratio = math.log(c / rho)
    t_lo = kappa1 * log_ratio / st.eta
    t_hi = kappa2 * log_ratio / st.eta

    table = ConcentrationTable(prefactor=c, eta=st.eta)
    cfg = PathConfig(seed=seed, T=t_hi, K=K, scheme=scheme)
    window = _window_mask(t_hi, p.tau, K, (t_lo, t_hi))
    ref = np.broadcast_to(e0, (len(window), 3))
    paths = range(n)
    # column r n + j is path j of row r; Parameters checks each amplitude
    amplitudes = np.repeat([p.with_eps(eps).eps for eps in eps_list], n)
    sup = np.zeros(len(amplitudes))  # each column's sup over the window, block by block
    increments = _increments(p, cfg, paths, _block_steps(n, len(eps_list)))
    guard = dde._Guard(lambda c: (eps_list[c // n], c % n))
    for j, block in _step_paths(p, hist, cfg, amplitudes, increments, guard):
        _reduce_block(j, block, ref, window, sup)
    for r, eps in enumerate(eps_list):
        exceed = int(np.count_nonzero(sup[r * n:(r + 1) * n] >= 2.0 * rho))
        lo, hi = wilson_interval(exceed, n)
        table.rows.append(
            ConcentrationRow(
                eps=float(eps), rho=float(rho), t_lo=t_lo, t_hi=t_hi, n=n,
                exceed=exceed, p_hat=exceed / n, ci_lo=lo, ci_hi=hi,
            )
        )
    return table
