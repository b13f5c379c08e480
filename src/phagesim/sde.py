"""Stochastic integration of the Stratonovich-perturbed system and Monte Carlo tooling.

Paths are driven by per-path Philox streams keyed on (seed, path index), so
any path is reproducible in isolation and ensembles are order-independent.
`_step_paths` steps whatever increments it is given, so a convergence test
can drive the production stepper with Brownian paths of its own.
All paths of an ensemble advance together on (3, n) arrays, every per-step array
a buffer made once a run: `_stage` writes `model._rates_for`'s arithmetic out into
them, and the first stage's drift goes into its node's row of the node block. Their
increments are drawn in blocks of S steps (the length _check_budget returns, at most
DRAW_STEPS), each path into its own row, and each draw block is stepped in node
blocks of at most NODE_BLOCK_BYTES, which the caller reduces while they are still in
cache; a sample path steps on three floats in `_float_path`, which calls
`_rates_for`. Both lanes run the same elementwise formulas in the same order, so an
ensemble's column is bitwise the sample path with the same index, whatever either
block length.
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
DRAW_STEPS = 256  # steps of increments drawn at once, at most: a draw block is S steps
# Bytes of nodes a node block holds, and so of the deviations a caller forms on it: a
# draw block of N columns is stepped max(1, NODE_BLOCK_BYTES // (24 N)) steps at a time,
# a node being 24 N bytes, so only runs of more than about 43 000 columns hold more
NODE_BLOCK_BYTES = 2**20
# Bytes a run's paths may hold, a quarter of an 8 GB host. A path of E lockstep eps
# rows (E = 1 but in mc-concentration) holds its Philox generator (about 1 KB traced),
# K + 1 floats of delayed influx per row, blocks of increments (2 floats a step, shared
# by the rows), nodes (3 a row) and deviations (1 a row), the stepper's per-step
# buffers (six (3, E n) under Heun, 144 B a row, and four under Euler; a step's first
# drift goes into the node block) and the float lane's K history influxes, which pass
# through a list (32 B an entry). Nodes and deviations are counted at the draw block's
# S steps, an upper bound: they are held NODE_BLOCK_BYTES at a time, or one step where
# a step is more. At K = 64 that is 16.0 KB a path at E = 1 up to
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


def _check_budget(n, K, rows=1):
    """The draw block length, in steps, of n paths of `rows` eps rows at K steps a delay.

    A block step is r = n (16 + 32 rows) bytes, and a block S = max(1, DRAW_STEPS // rows)
    steps, fewer where it would pass budget / 8 bytes, but one at least. Refuses paths over
    the budget with MemoryError, before any exists: the need counts the blocks as
    min(r S, max(r, budget / 8)) bytes, at least the block's and rising with n. That counts
    nodes and deviations at S steps too, an upper bound, as _step_paths holds them in node
    blocks of at most max(NODE_BLOCK_BYTES, 24 n rows) bytes. dde.MAX_STEPS bounds a float
    lane's nodes, drifts and influx (56 B a step, not counted) to about 60 MB.
    """
    row, steps = max(n, 1) * (16 + 32 * rows), max(1, DRAW_STEPS // rows)
    need = n * (1024 + 8 * (K + 1) * rows + 144 * rows + 32 * K)
    need += min(row * steps, max(row, PATH_BYTES_BUDGET // 8))
    if need > PATH_BYTES_BUDGET:
        raise MemoryError(f"paths need {need:.4g} bytes at n = {n}, K = {K}, {rows} eps "
                          f"row(s); the path budget is {PATH_BYTES_BUDGET} bytes")
    return max(1, min(steps, PATH_BYTES_BUDGET // 8 // row))


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


def _stage(y, delayed_influx, c, sigma, eps, g, f, clipped, tmp):
    """At a (3, N) state: the noise amplitudes into g, the drift into f.

    The drift is `model._rates_for`'s arithmetic written out, its operations in its
    order, on the state and the sigma of its clipped Q; `c` holds (alpha, k1, k2, d, m,
    b, mu, 0.0). `eps` holds one amplitude per column, and g, clipped and sigma are (2, N),
    S and Q, and tmp an (N,) scratch row. The S and Q rows clipped at 0 go into `clipped`;
    returns their sigma, which is `clipped` itself where no entry is past M.
    """
    alpha, k1, k2, d, m, b, mu, zero = c
    s, i, q, fs, fi, fq = y[0], y[1], y[2], f[0], f[1], f[2]
    np.maximum(y[::2], zero, out=clipped)
    sig = sigma._values(clipped)
    np.multiply(eps, sig, out=g)
    sq = sig[1]
    np.multiply(k1, sq, out=tmp)  # k1 sigma(Q)
    np.multiply(np.subtract(alpha, tmp, out=fs), s, out=fs)
    tmp *= s  # adsorbed
    np.subtract(tmp, np.multiply(mu, i, out=fi), out=fi)
    fi -= delayed_influx
    np.subtract(d, np.multiply(m, q, out=fq), out=fq)
    fq -= tmp
    fq -= np.multiply(np.multiply(k2, sq, out=tmp), i, out=tmp)
    fq += np.multiply(b, delayed_influx, out=tmp)
    return sig


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
    arrays into one buffer, an increment block at a time in views of at most
    max(1, NODE_BLOCK_BYTES // (24 N)) steps, so a node block stays in cache;
    the stepper never reads it back, so a caller may reduce a block in place.
    `p.eps` is not read.
    """
    n_paths = len(eps)
    if n_paths < 1:
        raise DomainError("need at least one path")
    # The constants as 0-d arrays: a ufunc converts a Python float on every call,
    # which costs about as much as the operation on a few dozen columns
    sigma, h = SigmaFn(p.M), p.tau / cfg.K
    c = tuple(np.array(v) for v in (p.alpha, p.k1, p.k2, p.d, p.m, p.b, p.mu, 0.0))
    ka, step, hh, half = (np.array(v) for v in (p.k1 * p.attenuation, h, 0.5 * h, 0.5))
    K, half_eps2 = cfg.K, 0.5 * eps * eps

    # Lysis influx of node j, in row j % (K + 1): written when node j is the
    # current state, read K - 1 and K steps later as the delayed term.
    ring = K + 1
    influx = np.empty((ring, n_paths))
    influx[1:] = _history_influx(hist, p, sigma, K)[:, None]

    y0 = (hist.s(0.0), hist.i0, hist.q(0.0))
    y = np.repeat(np.array(y0)[:, None], n_paths, axis=1)
    nodes = y[None].copy()
    yield 0, nodes
    # Every per-step array is a (3, N) buffer made here, Heun's six and Euler's four; a
    # step's first drift goes into its node's row of the node block, which the node then
    # overwrites. I's rows of g, inc and corr stay 0, as I carries no noise and no Ito
    # correction; `work` holds the clipped S and Q rows and a scratch row.
    heun = cfg.scheme == SCHEME_HEUN
    g_now, inc, work = np.zeros((3, 3, n_paths))
    if heun:
        g_pred, pred, f_pred = np.zeros((3, 3, n_paths))
        g_pred_sq = g_pred[::2]
    else:
        corr = np.zeros((3, n_paths))
        corr_sq = corr[::2]
    g_now_sq, clipped, tmp = g_now[::2], work[:2], work[2]
    span, n = max(1, NODE_BLOCK_BYTES // (24 * n_paths)), 0  # steps a node block holds
    for dw in (block[a:a + span] for block in increments for a in range(0, len(block), span)):
        if len(nodes) < len(dw):
            nodes = np.empty((len(dw), 3, n_paths))
        # inc's S and Q rows as (2, E, n): each column group views the same draws
        noise = inc[::2].reshape(2, -1, dw.shape[2])
        for k in range(len(dw)):
            node = nodes[k]  # the first stage's drift f, then the node
            sig = _stage(y, influx[(n - K) % ring], c, sigma, eps, g_now_sq, node, clipped, tmp)
            row = influx[n % ring]
            np.multiply(np.multiply(ka, sig[1], out=row), y[0], out=row)  # model._influx's order
            noise[...] = dw[k][:, None]
            if heun:
                # Stratonovich-Heun: the same increment drives predictor and corrector;
                # pred = y + h f + g inc, then y + hh (f + f_pred) + 0.5 (g + g_pred) inc;
                # f_pred holds g inc until the corrector's stage writes its drift there
                np.add(y, np.multiply(step, node, out=pred), out=pred)
                pred += np.multiply(g_now, inc, out=f_pred)
                _stage(pred, influx[(n + 1 - K) % ring], c, sigma, eps, g_pred_sq, f_pred,
                       clipped, tmp)
                np.multiply(hh, np.add(node, f_pred, out=node), out=node)
                np.multiply(half, np.add(g_now, g_pred, out=g_now), out=g_now)
            else:
                # Euler-Maruyama on the Ito form, y + h (f + corr) + g inc: corr is Stratonovich's
                np.multiply(half_eps2, sig, out=corr_sq)
                if sig is not clipped:  # sigma' is 1 where sigma is the identity
                    corr_sq *= sigma._slopes(clipped)
                np.multiply(step, np.add(node, corr, out=node), out=node)
            np.add(y, node, out=node)
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
    delayed influx: the history's at (n - K) h while n < K, and node n - K's after. Each
    buffer takes a float at a time through its bound `append`: a step on the reference
    scenario costs about 1.6 us under Heun and 1.1 us under Euler, against 1.8 and 1.3 us
    with a tuple `extend` a node (2 cores, Python 3.11).
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
    # bound once: a node goes in a component at a time, not as a tuple
    put_node, put_drift, put_influx = nodes.append, drifts.append, influx.append
    limit = BLOWUP_LIMIT
    for n, (ws, wq) in enumerate(steps):
        cs, cq = 0.0 if s <= 0.0 else s, 0.0 if q <= 0.0 else q
        sig_s, sig_q = cs if cs <= M else sigma(cs), cq if cq <= M else sigma(cq)
        fs, fi, fq = rates(s, i, q, sig_q, influx[n])
        put_drift(fs)
        put_drift(fi)
        put_drift(fq)
        gs, gq = eps * sig_s, eps * sig_q
        put_influx(ka * sig_q * s)
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
        if not (0.0 <= s <= limit and 0.0 <= i <= limit and 0.0 <= q <= limit):
            s, i, q = guard.apply(np.array([[s], [i], [q]]), n * h + h)[:, 0].tolist()
        put_node(s)
        put_node(i)
        put_node(q)
    cq = 0.0 if q <= 0.0 else q
    drifts.extend(rates(s, i, q, cq if cq <= M else sigma(cq), influx[len(nodes) // 3 - 1]))
    return dde.Trajectory.from_buffers(h, nodes, drifts, guard)


def sample_path(p, hist, cfg, path_index=0):
    """One sample path as a dense Trajectory (noise off reproduces the deterministic run).

    Its Hermite slopes are the drifts the stepper evaluated at the nodes.
    """
    blocks = _increments(p, cfg, [path_index], _check_budget(1, cfg.K))
    steps = chain.from_iterable(dw[:, :, 0].tolist() for dw in blocks)
    return _float_path(p, hist, cfg, steps, dde._Guard(lambda c: path_index))


@dataclass
class EnsembleStats:
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
    mask = dde._window_nodes(dde.node_times(T, tau, K), window)
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


def ensemble(p, hist, cfg, n, window):
    """Run n paths and aggregate their deviations from the deterministic run.

    The reference is `dde.integrate(p, hist, cfg.T, cfg.K)`, on the paths' own nodes; it is
    integrated once the budget and the window are checked, so a refused run integrates nothing.
    The per-path statistic is the sup over window nodes of the largest componentwise deviation.
    Each node block is reduced as it is stepped, to its mean, its deviation percentiles and the
    running sups, so a run holds O(n) memory.
    """
    block_steps = _check_budget(n, cfg.K)
    mask = _window_mask(cfg.T, p.tau, cfg.K, window)
    det = dde.integrate(p, hist, cfg.T, cfg.K)
    paths = range(n)
    guard = dde._Guard(paths.__getitem__)
    mean, pct, sup_devs = np.empty((len(det), 3)), np.empty((2, len(det))), np.zeros(n)
    increments = _increments(p, cfg, paths, block_steps)
    for j, block in _step_paths(p, hist, cfg, np.full(n, p.eps), increments, guard):
        rows = slice(j, j + len(block))
        mean[rows] = block.mean(axis=2)
        dev = _reduce_block(j, block, det.states, mask, sup_devs)
        # in place: each node's row of deviations is only reordered
        pct[:, rows] = np.percentile(dev, [50.0, 95.0], axis=1, overwrite_input=True)
    return EnsembleStats(
        times=det.times, mean=mean, dev_p50=pct[0], dev_p95=pct[1], sup_devs=sup_devs,
        min_component=guard.min_component, clamp_count=guard.clamp_count,
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
    columns, eps-major, on one draw of each path's increments, drawn in blocks
    of the length _check_budget(n, K, E) returns; a node block with no window
    node is not reduced. A path that fails stops the run at the earliest time
    any row fails, and the error names it as (eps, path).
    """
    if not (1.0 < kappa1 < kappa2):
        raise ConfigurationError("need 1 < kappa1 < kappa2")
    if rho <= 0.0:
        raise ConfigurationError("need rho > 0")
    if len(eps_list) == 0:
        raise ConfigurationError("need at least one eps value")
    block_steps = _check_budget(n, K, len(eps_list))

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
    increments = _increments(p, cfg, paths, block_steps)
    guard = dde._Guard(lambda c: (eps_list[c // n], c % n))
    for j, block in _step_paths(p, hist, cfg, amplitudes, increments, guard):
        if window[j:j + len(block)].any():
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
