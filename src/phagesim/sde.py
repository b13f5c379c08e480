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
from dataclasses import dataclass, field, replace
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


def _increments(p, run, path_indices, block_steps):
    """The paths' increments of W_S and W_Q at h = tau/K, as (m, 2, n) blocks of block_steps steps.

    A block is the transposed view of one (n, m, 2) buffer, each path's draw in its own
    contiguous row. A path's generator lives on between blocks, so its blocks stack to
    one (n_steps, 2) draw times sqrt(h), bit for bit. Each block overwrites the one before.
    """
    n_steps, seed = dde.step_count(run.T, p.tau, run.K), run.seed
    gens = [np.random.Generator(np.random.Philox(key=seed | int(j) << 64)) for j in path_indices]
    draws = np.empty((len(gens), min(block_steps, n_steps), 2))
    for start in range(0, n_steps, block_steps):
        block = draws[:, :n_steps - start]
        for j, gen in enumerate(gens):
            gen.standard_normal(out=block[j])
        block *= math.sqrt(p.tau / run.K)
        yield block.transpose(1, 2, 0)


def _rows(x):
    """A (3, N) buffer's row views as `_stage` reads them: S, I, Q and the S and Q rows."""
    return x[0], x[1], x[2], x[::2]


def _stage(y, delayed_influx, c, values, eps, g, f, work):
    """At a (3, N) state: the noise amplitudes into g, the drift into f.

    The drift is `model._rates_for`'s arithmetic written out, its operations in its
    order, on the state and the sigma of its clipped Q; `c` holds (alpha, k1, k2, d, m,
    b, mu, 0.0). `y` and `f` are the state's and the drift's `_rows`, `eps` holds one
    amplitude per column and g is (2, N), S and Q. `work` holds a (2, N) buffer, its Q
    row and an (N,) scratch row: the S and Q rows clipped at 0 go into the buffer, and
    their sigma is `values(buffer)` (SigmaFn._values), the buffer itself where no entry
    is past M. A caller that knows no entry of y is past M passes `values` None, which
    takes sigma as the identity without its scan. Returns the sigma.
    """
    alpha, k1, k2, d, m, b, mu, zero = c
    (s, i, q, s_q), (fs, fi, fq, _), (clipped, clipped_q, tmp) = y, f, work
    np.maximum(s_q, zero, out=clipped)
    sig = clipped if values is None else values(clipped)
    np.multiply(eps, sig, out=g)
    sq = clipped_q if sig is clipped else sig[1]
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


def _step_paths(p, hist, run, eps, increments, guard):
    """Step columns on (m, 2, n) blocks of increments of W_S and W_Q at h = tau/K.

    `eps` holds the noise amplitudes of the N columns, E groups of n: column
    r n + j takes path j's increments at amplitude eps[r n + j], so E rows
    share one draw of n paths. Yields (j, nodes): the guarded nodes j, j + 1,
    ... as an (m, 3, N) block, node 0 first. Columns step together on (3, N)
    arrays into one buffer, an increment block at a time in views of at most
    max(1, NODE_BLOCK_BYTES // (24 N)) steps, so a node block stays in cache;
    the stepper never reads it back, so a caller may reduce a block in place.
    `p.eps` is not read.
    Each node is tested inline, as the float lane tests its floats: one minimum and
    one maximum over the node, and the guard's method only for a component below 0,
    past BLOWUP_LIMIT or NaN. A node whose maximum is at most M has no S or Q past M
    once clipped, so the next step's first stage takes sigma as the identity without
    its scan. The row views the loop reads are made once a run, or once a block. A
    step costs about 29 us under Heun and 16.5 us under Euler at 24 columns, where
    per-call overhead bounds it, and 0.20 and 0.11 ms at 6 000 (2 cores, Python 3.11).
    """
    n_paths = len(eps)
    # The constants as 0-d arrays: a ufunc converts a Python float on every call,
    # which costs about as much as the operation on a few dozen columns
    sigma, h = SigmaFn(p.M), p.tau / run.K
    c = tuple(np.array(v) for v in (p.alpha, p.k1, p.k2, p.d, p.m, p.b, p.mu, 0.0))
    ka, step, hh, half = (np.array(v) for v in (p.k1 * p.attenuation, h, 0.5 * h, 0.5))
    K, M, limit, half_eps2 = run.K, sigma.m_threshold, BLOWUP_LIMIT, 0.5 * eps * eps

    # Lysis influx of node j, in row j % (K + 1): written when node j is the
    # current state, read K - 1 and K steps later as the delayed term.
    ring = K + 1
    influx = np.empty((ring, n_paths))
    influx[1:] = _history_influx(hist, p, sigma, K)[:, None]
    influx_rows = list(influx)

    y0 = (hist.s(0.0), hist.i0, hist.q(0.0))
    y = np.repeat(np.array(y0)[:, None], n_paths, axis=1)
    nodes = y[None].copy()
    yield 0, nodes
    # Every per-step array is a (3, N) buffer made here, Heun's six and Euler's four; a
    # step's first drift goes into its node's row of the node block, which the node then
    # overwrites. I's rows of g, inc and corr stay 0, as I carries no noise and no Ito
    # correction; `work` holds the clipped S and Q rows, their Q row and a scratch row.
    heun = run.scheme == SCHEME_HEUN
    g_now, inc, scratch = np.zeros((3, 3, n_paths))
    if heun:
        g_pred, pred, f_pred = np.zeros((3, 3, n_paths))
        g_pred_sq, pred_rows, f_pred_rows = g_pred[::2], _rows(pred), _rows(f_pred)
    else:
        corr = np.zeros((3, n_paths))
        corr_sq = corr[::2]
    g_now_sq, clipped, clipped_q = g_now[::2], scratch[:2], scratch[1]
    work = (clipped, clipped_q, scratch[2])
    scan = sigma._values
    y_rows, values = _rows(y), scan  # node 0 takes the scan
    block_rows = [(x, _rows(x)) for x in nodes]
    span, n = max(1, NODE_BLOCK_BYTES // (24 * n_paths)), 0  # steps a node block holds
    for dw in (block[a:a + span] for block in increments for a in range(0, len(block), span)):
        if len(nodes) < len(dw):
            nodes = np.empty((len(dw), 3, n_paths))
            block_rows = [(x, _rows(x)) for x in nodes]
        # inc's S and Q rows as (2, E, n): each column group views the same draws
        noise = inc[::2].reshape(2, -1, dw.shape[2])
        # a node's rows f take its step's first drift, then the node overwrites them
        for (node, f), w in zip(block_rows, dw[:, :, None]):
            sig = _stage(y_rows, influx_rows[(n - K) % ring], c, values, eps, g_now_sq, f,
                         work)
            row = influx_rows[n % ring]
            sq = clipped_q if sig is clipped else sig[1]
            np.multiply(np.multiply(ka, sq, out=row), y_rows[0], out=row)  # model._influx's order
            noise[...] = w
            if heun:
                # Stratonovich-Heun: the same increment drives predictor and corrector;
                # pred = y + h f + g inc, then y + hh (f + f_pred) + 0.5 (g + g_pred) inc;
                # f_pred holds g inc until the corrector's stage writes its drift there
                np.add(y, np.multiply(step, node, out=pred), out=pred)
                pred += np.multiply(g_now, inc, out=f_pred)
                _stage(pred_rows, influx_rows[(n + 1 - K) % ring], c, scan, eps, g_pred_sq,
                       f_pred_rows, work)
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
            low, high = np.minimum.reduce(node, None), np.maximum.reduce(node, None)
            # comparisons with NaN fail, so a NaN takes the full guard too
            if not (0.0 <= low and high <= limit):
                node[...] = guard.apply(node, n * h + h)
            # clamped dust becomes 0, so `high` bounds the clipped node as well
            values = None if high <= M else scan
            y, y_rows = node, f
            n += 1
        y = y.copy()  # callers may change the block
        y_rows = _rows(y)
        yield n + 1 - len(dw), nodes[:len(dw)]


def _float_path(p, hist, run, steps, guard):
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
    K, h, M = run.K, p.tau / run.K, sigma.m_threshold
    eps, ka, hh, half_eps2 = p.eps, p.k1 * p.attenuation, 0.5 * h, 0.5 * p.eps * p.eps
    heun = run.scheme == SCHEME_HEUN
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


def sample_path(p, hist, run, path_index=0):
    """One sample path to run.T as a dense Trajectory (noise off reproduces the deterministic run).

    Its Hermite slopes are the drifts the stepper evaluated at the nodes.
    """
    blocks = _increments(p, run, [path_index], _check_budget(1, run.K))
    steps = chain.from_iterable(dw[:, :, 0].tolist() for dw in blocks)
    return _float_path(p, hist, run, steps, dde._Guard(lambda c: path_index))


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


def ensemble(p, hist, run):
    """Run run.n paths and aggregate their deviations from the deterministic run.

    The reference is `dde.integrate(p, hist, run.T, run.K)`, on the paths' own nodes; it is
    integrated once the budget and the window are checked, so a refused run integrates nothing.
    The per-path statistic is the sup over run.window's nodes of the largest componentwise
    deviation; run.window must be set (the CLI sets an absent one to [0, T]).
    Each node block is reduced as it is stepped, to its mean, its deviation percentiles and the
    running sups, so a run holds O(n) memory.
    """
    n = run.n
    block_steps = _check_budget(n, run.K)
    mask = _window_mask(run.T, p.tau, run.K, run.window)
    det = dde.integrate(p, hist, run.T, run.K)
    paths = range(n)
    guard = dde._Guard(paths.__getitem__)
    mean, pct, sup_devs = np.empty((len(det), 3)), np.empty((2, len(det))), np.zeros(n)
    increments = _increments(p, run, paths, block_steps)
    for j, block in _step_paths(p, hist, run, np.full(n, p.eps), increments, guard):
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


def concentration_experiment(p, hist, run):
    """Empirical exceedance probabilities around E0 on the predicted time window.

    The window [k1 ln(c/rho)/eta, k2 ln(c/rho)/eta] uses the deterministic
    decay prefactor as c and the spectral eta, with rho, kappa1 and kappa2 from
    `run`; the paths run to the window's end, whatever run.T and run.window say.
    Seeds are coupled across the eps values so the exceedance counts are
    comparable. One pass over the paths serves every eps row: the E rows step
    in lockstep on (3, E n) columns, eps-major, on one draw of each path's
    increments, drawn in blocks of the length _check_budget(n, K, E) returns; a
    node block with no window node is not reduced. A path that fails stops the
    run at the earliest time any row fails, and the error names it as (eps, path).
    RunSettings has checked the settings; the refusals here are the model's:
    eta <= 0, rho >= c, a window with no node and a horizon over dde.MAX_STEPS.
    """
    eps_list, rho, n, K = run.eps_list, run.rho, run.n, run.K
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
    t_lo = run.kappa1 * log_ratio / st.eta
    t_hi = run.kappa2 * log_ratio / st.eta

    table = ConcentrationTable(prefactor=c, eta=st.eta)
    # counted first: a horizon past dde.MAX_STEPS is the model's refusal, not the run's
    window = _window_mask(t_hi, p.tau, K, (t_lo, t_hi))
    run = replace(run, T=t_hi, window=[t_lo, t_hi])
    ref = np.broadcast_to(e0, (len(window), 3))
    paths = range(n)
    amplitudes = np.repeat(eps_list, n)  # column r n + j is path j of row r
    sup = np.zeros(len(amplitudes))  # each column's sup over the window, block by block
    increments = _increments(p, run, paths, block_steps)
    guard = dde._Guard(lambda c: (eps_list[c // n], c % n))
    for j, block in _step_paths(p, hist, run, amplitudes, increments, guard):
        if window[j:j + len(block)].any():
            _reduce_block(j, block, ref, window, sup)
    for r, eps in enumerate(eps_list):
        exceed = int(np.count_nonzero(sup[r * n:(r + 1) * n] >= 2.0 * rho))
        lo, hi = wilson_interval(exceed, n)
        table.rows.append(
            ConcentrationRow(
                eps=eps, rho=rho, t_lo=t_lo, t_hi=t_hi, n=n,
                exceed=exceed, p_hat=exceed / n, ci_lo=lo, ci_hi=hi,
            )
        )
    return table
