import dataclasses
import math

import numpy as np
import pytest

from phagesim import History, Parameters, SigmaFn, dde, equilibria, sde
from phagesim.errors import (
    ConfigurationError, DivergenceError, DomainError, PositivityError, ScenarioError,
)
from phagesim.model import _rates_for
from phagesim.scenario import RunSettings, parse_scenario
from phagesim.sde import (
    SCHEME_EULER,
    SCHEME_HEUN,
    SCHEMES,
    ConcentrationRow,
    ConcentrationTable,
    concentration_experiment,
    ensemble,
    sample_path,
    wilson_interval,
)

from conftest import (
    CONCENTRATION_SCENARIO, REFERENCE_SCENARIO, peak_bytes, simulate_paths, step_all,
)
from model_reference import (
    _drift_terms,
    diffusion,
    drift,
    heun_step,
    ito_euler_step,
    path_normals,
    stratonovich_correction,
)


class TestNoiseStreams:
    def test_reproducible_and_index_separated(self):
        a = path_normals(7, 0, 64)
        b = path_normals(7, 0, 64)
        c = path_normals(7, 1, 64)
        d = path_normals(8, 0, 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert a.shape == (64, 2)

    def test_roughly_standard_normal(self):
        z = path_normals(0, 0, 20000).ravel()
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05


class TestZeroNoiseDegeneracy:
    @pytest.mark.parametrize("scheme", [SCHEME_HEUN, SCHEME_EULER])
    def test_matches_deterministic_run(self, p_star, hist_standard, scheme):
        cfg = RunSettings(seed=3, T=5.0, K=128, scheme=scheme)
        path = sample_path(p_star.with_eps(0.0), hist_standard, cfg)
        det = dde.integrate(p_star, hist_standard, T=5.0, K=128)
        err = float(np.max(np.abs(path.states - det.states)))
        # Heun is second order, the corrected Euler first order; both shrink with K
        assert err < (1e-4 if scheme == SCHEME_HEUN else 5e-2)

    def test_heun_error_shrinks_quadratically(self, p_star, hist_standard):
        errs = []
        for K in (64, 128):
            cfg = RunSettings(seed=3, T=5.0, K=K, scheme=SCHEME_HEUN)
            path = sample_path(p_star.with_eps(0.0), hist_standard, cfg)
            det = dde.integrate(p_star, hist_standard, T=5.0, K=512)
            errs.append(float(np.max(np.abs(path.eval(5.0) - det.eval(5.0)))))
        assert errs[1] < 0.35 * errs[0]

    def test_residual_draw_undershoots_within_the_tolerance(self):
        # The `residual` draw of the CLI tests on the reference history and run.
        # Without noise, I dips below 0 just after t = tau, and dde.integrate's
        # I dips too, so the discrete delayed subtraction causes the undershoot.
        # It stays above HARD_NEG; at eps = 0.01 path 1 goes past it.
        p = Parameters(alpha=0.4512, k1=8.051, k2=0.6335, d=0.3439, m=0.012, b=1417.26,
                       mu=16.757, tau=1.1036, M=286.49)
        hist = History.constant(p.tau, 0.5, 10.0, 1.0)
        path = sample_path(p, hist, RunSettings(seed=12345, T=50.0, K=64))
        det = dde.integrate(p, hist, T=50.0, K=64)
        assert path.t_end >= 50.0 and len(path) == len(det)
        for run in (path, det):
            assert dde.HARD_NEG <= run.min_component < 0.0 and run.warn_count > 0


class TestReproducibility:
    def test_bitwise_identical_reruns(self, p_star, hist_standard):
        cfg = RunSettings(seed=11, T=5.0, K=32)
        a = sample_path(p_star.with_eps(0.02), hist_standard, cfg, path_index=4)
        b = sample_path(p_star.with_eps(0.02), hist_standard, cfg, path_index=4)
        assert np.array_equal(a.states, b.states)

    def test_ensemble_slice_equals_standalone_path(self, p_star, hist_standard):
        p = p_star.with_eps(0.02)
        cfg = RunSettings(seed=11, T=5.0, K=32)
        _, nodes, _ = simulate_paths(p, hist_standard, cfg, list(range(5)))
        solo = sample_path(p, hist_standard, cfg, path_index=3)
        assert np.array_equal(nodes[:, :, 3], solo.states)

    def test_scheme_changes_the_path(self, p_star, hist_standard):
        p = p_star.with_eps(0.02)
        a = sample_path(p, hist_standard, RunSettings(seed=1, T=2.0, K=128))
        b = sample_path(
            p, hist_standard, RunSettings(seed=1, T=2.0, K=128, scheme=SCHEME_EULER)
        )
        assert not np.array_equal(a.states, b.states)
        # ... but they share the driving noise, so stay pathwise close
        assert float(np.max(np.abs(a.states - b.states))) < 0.05


def _per_path_loop(p, hist, cfg, path_indices):
    """Each path stepped alone from the reference right-hand sides and step kernels."""
    sigma = SigmaFn(p.M)
    clipped = lambda x: sigma(np.maximum(x, 0.0))
    g = lambda x: diffusion(np.maximum(x, 0.0), p, sigma)
    h = p.tau / cfg.K
    n_steps = max(1, math.ceil(cfg.T / h - 1e-9))
    out = np.empty((n_steps + 1, 3, len(path_indices)))
    for col, idx in enumerate(path_indices):
        dw = path_normals(cfg.seed, idx, n_steps) * math.sqrt(h)
        ys = [np.array([hist.s(0.0), hist.i0, hist.q(0.0)])]

        def delayed(j):
            return np.array([hist.s(j * h), hist.i0, hist.q(j * h)]) if j <= 0 else ys[j]

        for n in range(n_steps):
            y = ys[n]
            inc = np.array([dw[n, 0], 0.0, dw[n, 1]])
            f_now = drift(y, delayed(n - cfg.K), p, clipped)
            if cfg.scheme == SCHEME_HEUN:
                terms = lambda x: (drift(x, delayed(n + 1 - cfg.K), p, clipped), g(x))
                y_next = heun_step(y, inc, h, f_now, g(y), terms)
            else:
                corr = stratonovich_correction(np.maximum(y, 0.0), p, sigma)
                y_next = ito_euler_step(y, inc, h, f_now + corr, g(y))
            dust = (y_next < 0.0) & (y_next >= -dde.CLAMP_TOL)
            ys.append(np.where(dust, 0.0, y_next))
        out[:, :, col] = ys
    return out


def _table_history(tau):
    """A sampled history whose Q crosses the bridge of M = 12 and reaches the plateau."""
    grid = np.linspace(0.0, math.pi, 17)
    return History(tau, 0.5 + 0.2 * np.sin(grid), 11.0 + 2.5 * np.cos(grid), 1.0)


# T = 0.5 < tau: every delay is history. The first two cases keep their ids.
_SLOPE_CASES = [
    pytest.param(
        T, scheme, M, table,
        id=(f"{T}" if (scheme, M, table) == (SCHEME_HEUN, 100.0, False)
            else f"{T}-{scheme}-M{M:g}-{'table' if table else 'constant'}"),
    )
    for T in (3.0, 0.5) for scheme in SCHEMES for M in (100.0, 12.0) for table in (False, True)
]


class TestFusedStepper:
    """The ensemble stepper shares sigma and delayed terms across stages and
    paths; every node must still equal a path stepped on its own."""

    @pytest.mark.parametrize("scheme", [SCHEME_HEUN, SCHEME_EULER])
    @pytest.mark.parametrize("M", [100.0, 12.0])
    def test_nodes_equal_per_path_loop(self, p_star, hist_standard, scheme, M):
        p = dataclasses.replace(p_star, M=M, eps=0.05)
        cfg = RunSettings(seed=17, T=5.0, K=16, scheme=scheme)
        paths = [0, 3, 7]
        _, nodes, _ = simulate_paths(p, hist_standard, cfg, paths)
        q = nodes[:, 2]
        if M == 12.0:  # Q runs through the bridge onto the plateau
            assert np.any((q > M) & (q < M + 1.0)) and np.any(q >= M + 1.0)
        else:
            assert q.max() < M
        assert np.array_equal(nodes, _per_path_loop(p, hist_standard, cfg, paths))

    @pytest.mark.parametrize("T, scheme, M, table", _SLOPE_CASES)
    def test_sample_path_slopes_are_node_drifts(self, p_star, hist_standard, T, scheme, M, table):
        p = dataclasses.replace(p_star, M=M, eps=0.05)
        hist = _table_history(p.tau) if table else hist_standard
        cfg = RunSettings(seed=11, T=T, K=16, scheme=scheme)
        path = sample_path(p, hist, cfg, path_index=2)
        if M == 12.0 and T > p.tau:  # Q runs through the bridge onto the plateau
            q = path.states[:, 2]
            assert np.any((q > M) & (q < M + 1.0)) and np.any(q >= M + 1.0)
        sigma = SigmaFn(p.M)
        clipped = lambda x: sigma(np.maximum(x, 0.0))
        h = p.tau / cfg.K
        states = path.states
        for n, y in enumerate(states):
            td = (n - cfg.K) * h
            if td <= 0.0:
                d_s, d_q = hist.s(td), hist.q(td)
            else:
                d_s, d_q = states[n - cfg.K, 0], states[n - cfg.K, 2]
            expected = _drift_terms(y[0], y[1], y[2], d_s, d_q, p, clipped)
            assert np.array_equal(path.derivs[n], expected)


# name: (overrides of p_star, low and high ends of the random S and Q rows)
_STAGE_CASES = {
    "q-below-m": ({}, (0.0, 2.0), (0.0, 90.0)),
    "bridge": ({"M": 12.0}, (0.0, 2.0), (11.5, 13.5)),
    "q-past-m": ({"M": 2.0}, (0.0, 2.0), (3.5, 60.0)),
    "k2-zero": ({"k2": 0.0}, (0.0, 2.0), (0.0, 90.0)),
    "clipped": ({"M": 12.0}, (-0.5, 2.0), (-4.0, 13.5)),
}


class TestStageWrittenOut:
    """The array lane's stage writes `model._rates_for` out; calling it gives the same bits."""

    @pytest.mark.parametrize("case", sorted(_STAGE_CASES))
    def test_bitwise_equal(self, p_star, case):
        overrides, s_range, q_range = _STAGE_CASES[case]
        p, n = dataclasses.replace(p_star, **overrides), 64
        sigma = SigmaFn(p.M)
        rng = np.random.default_rng(sorted(_STAGE_CASES).index(case))
        y = np.stack([rng.uniform(*s_range, n), rng.uniform(0.0, 2.0, n), rng.uniform(*q_range, n)])
        influx, eps = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 0.1, n)
        if case == "clipped":
            y[::2, :4] = -0.0
        c = tuple(np.array(v) for v in (p.alpha, p.k1, p.k2, p.d, p.m, p.b, p.mu, 0.0))
        g, f, work = np.full((3, 3, n), np.nan)
        clipped_rows = work[:2]
        sig = sde._stage(y, influx, c, sigma, eps, g[::2], f, clipped_rows, work[2])
        clipped = np.maximum(y[::2], 0.0)
        expected = np.array(_rates_for(p)(*y, sigma(clipped[1]), influx))
        assert f.tobytes() == expected.tobytes()  # the sign bits of zeros count
        assert clipped_rows.tobytes() == clipped.tobytes() and np.array_equal(sig, sigma(clipped))
        assert np.array_equal(g[::2], eps * sigma(clipped)) and np.isnan(g[1]).all()
        past_m = clipped[1] > p.M
        assert (sig is clipped_rows) == (not past_m.any())
        if case == "bridge":
            assert (past_m & (clipped[1] < p.M + 1.0)).any()
        if case == "clipped":
            assert (y[0] < 0.0).any() and (y[2] < 0.0).any()


# name: (overrides of p_star, history, T, path index (Heun, Euler), what the run shows).
# Path indices are picked so that the single path itself clamps, warns or fails.
_LANE_CASES = {
    "M100": ({"eps": 0.05}, "standard", 5.0, (3, 3), None),
    "M12": ({"M": 12.0, "eps": 0.05}, "standard", 5.0, (3, 3), None),
    "M19.5": ({"M": 19.5, "eps": 0.05}, "standard", 5.0, (3, 3), None),
    "M13": ({"M": 13.0, "eps": 0.05}, "standard", 5.0, (3, 3), None),
    "M0.5": ({"M": 0.5, "eps": 0.05}, "standard", 5.0, (3, 3), None),
    "table": ({"M": 12.0, "eps": 0.05}, "table", 5.0, (2, 2), None),
    "T<tau": ({"eps": 0.05}, "standard", 0.5, (2, 2), None),
    # the delayed influx's boundary: at T = tau an Euler run reads only the K history
    # entries (Heun's last predictor reads node 0's), and at T = tau + tau/K the last
    # step of either scheme reads node 0's; a table history makes the two differ
    "at-tau": ({"eps": 0.05}, "table", 1.0, (2, 2), None),
    "one-past-tau": ({"eps": 0.05}, "table", 1.0 + 1.0 / 16, (2, 2), None),
    "zero-noise": ({}, "standard", 5.0, (0, 0), None),
    "clamp": ({"M": 0.5, "eps": 3.0}, "tiny-s", 2.0, (2, 0), "clamp_count"),
    "warn": ({"M": 0.5, "eps": 10.0}, "tiny-s", 2.0, (1, 4), "warn_count"),
    "hard-negative": ({"M": 0.5, "eps": 30.0}, "tiny-s", 2.0, (1, 1), PositivityError),
    "blow-up": ({"alpha": 40.0, "k1": 1e-15, "k2": 0.0, "d": 1.0, "eps": 0.5}, "ones", 5.0,
                (0, 0), DivergenceError),
}


class TestFloatLane:
    """A sample path steps on floats; it must be the array lane's path to the bit.

    The path listed twice runs on the array lane. Its guard counts every
    event twice and names column 0 first, so counters and errors compare too.
    """

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("case", sorted(_LANE_CASES))
    def test_equals_array_lane(self, p_star, hist_standard, case, scheme):
        overrides, kind, T, indices, shows = _LANE_CASES[case]
        p = dataclasses.replace(p_star, **overrides)
        hist = {
            "standard": hist_standard,
            "table": _table_history(p.tau),
            "tiny-s": History.constant(p.tau, 1e-13, 10.0, 1.0),
            "ones": History.constant(p.tau, 1.0, 1.0, 1.0),
        }[kind]
        idx = indices[SCHEMES.index(scheme)]
        cfg = RunSettings(seed=7, T=T, K=16, scheme=scheme)
        if isinstance(shows, type):
            with pytest.raises(shows) as floats:
                sample_path(p, hist, cfg, path_index=idx)
            with pytest.raises(shows) as arrays:
                simulate_paths(p, hist, cfg, [idx, idx])
            assert (type(floats.value), floats.value.t, str(floats.value)) == (
                type(arrays.value), arrays.value.t, str(arrays.value))
            return
        path = sample_path(p, hist, cfg, path_index=idx)
        times, pair, pair_guard = simulate_paths(p, hist, cfg, [idx, idx])
        assert path.states.shape == (len(times), 3)
        # as bytes, so the sign bits of zeros count
        assert path.states.tobytes() == np.ascontiguousarray(pair[:, :, 0]).tobytes()
        assert (2 * path.clamp_count, 2 * path.warn_count, path.min_component) == (
            pair_guard.clamp_count, pair_guard.warn_count, pair_guard.min_component)
        if shows:
            assert getattr(path, shows) > 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nan_takes_the_guard(self, p_star, hist_standard, scheme, monkeypatch):
        # a NaN increment of Q: a NaN fails every range comparison, not only one
        increments = sde._increments

        def with_nan(*args):
            blocks = increments(*args)
            first = next(blocks)
            first[3, 1] = np.nan
            yield first
            yield from blocks

        monkeypatch.setattr(sde, "_increments", with_nan)
        p = p_star.with_eps(0.05)
        cfg = RunSettings(seed=7, T=1.0, K=16, scheme=scheme)
        with pytest.raises(DivergenceError) as floats:
            sample_path(p, hist_standard, cfg, path_index=2)
        with pytest.raises(DivergenceError) as arrays:
            simulate_paths(p, hist_standard, cfg, [2, 2])
        assert (floats.value.t, str(floats.value)) == (arrays.value.t, str(arrays.value))
        assert floats.value.t == 4 * p.tau / cfg.K and str(floats.value).endswith(" = nan)")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_past_m_floats_skip_the_kernels(self, p_star, scheme, monkeypatch):
        # every node's Q sits past M = 2, so each stage takes sigma past M; after the
        # one vectorised history lookup that seeds a loop, sigma runs on floats only
        p = dataclasses.replace(p_star, M=2.0, d=1.5, eps=0.05)
        hist = History.constant(p.tau, 0.5, 50.0, 1.0)
        calls = []
        for name in ("_values", "_slopes"):
            kernel = getattr(SigmaFn, name)

            def counted(self, x, kernel=kernel, name=name):
                calls.append(name)
                return kernel(self, x)

            monkeypatch.setattr(SigmaFn, name, counted)
        det = dde.integrate(p, hist, 100.0, 64)
        assert det.states[:, 2].min() > p.M + 1.0 and calls == ["_values"]
        calls.clear()
        path = sample_path(p, hist, RunSettings(seed=7, T=100.0, K=64, scheme=scheme))
        assert path.states[:, 2].min() > p.M + 1.0 and calls == ["_values"]


class TestLockstepRows:
    """mc-concentration's E eps rows step as E n columns, one amplitude each.

    Column r n + j must be path j's sample path at eps_r, to the bit.
    """

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("case", ["standard", "clamp"])
    def test_columns_are_sample_paths(self, p_star, hist_standard, case, scheme):
        if case == "clamp":
            p, eps_list = dataclasses.replace(p_star, M=0.5), [3.0, 2.0, 1.0]
            hist = History.constant(p.tau, 1e-13, 10.0, 1.0)
        else:
            p, eps_list, hist = p_star, [0.05, 0.02, 0.01], hist_standard
        n, cfg = 4, RunSettings(seed=7, T=2.0, K=16, scheme=scheme)
        guard = dde._Guard(lambda c: (eps_list[c // n], c % n))
        # blocks of 5 of the 32 steps; each block is spoilt once read, as callers may
        increments = sde._increments(p, cfg, range(n), 5)
        blocks = []
        for _, block in sde._step_paths(p, hist, cfg, np.repeat(eps_list, n), increments, guard):
            blocks.append(block.copy())
            block[...] = np.nan
        nodes = np.concatenate(blocks)
        clamps = 0
        for r, eps in enumerate(eps_list):
            for j in range(n):
                path = sample_path(p.with_eps(eps), hist, cfg, path_index=j)
                column = np.ascontiguousarray(nodes[:, :, r * n + j])
                assert path.states.tobytes() == column.tobytes()
                clamps += path.clamp_count
        assert guard.clamp_count == clamps
        assert case == "standard" or clamps > 0


class TestGeometricNoiseOracle:
    """Strong convergence of the S row against S0*exp(a*t + eps*W(t)) with shared Brownian paths.

    At k1 = 1e-300, alpha - k1*sigma(Q) rounds to alpha, and below M sigma(S)
    is S, so the production stepper runs dS = a S dt + eps S o dW on S.
    """

    A, EPS, X0, T = 0.5, 0.3, 1.0, 1.0
    P = Parameters(alpha=A, k1=1e-300, k2=0.0, d=1.0, m=1.0, b=1.0, mu=1.0, tau=T, M=1e3,
                   eps=EPS)

    def _strong_errors(self, scheme, levels=(32, 64, 128, 256), n_paths=400):
        rng = np.random.default_rng(99)
        fine = max(levels)
        dw_fine = rng.standard_normal((n_paths, fine)) * math.sqrt(self.T / fine)
        w_T = dw_fine.sum(axis=1)
        exact = self.X0 * np.exp(self.A * self.T + self.EPS * w_T)
        hist = History.constant(self.T, self.X0, 1.0, 1.0)
        errs = []
        for n_steps in levels:
            dw = np.zeros((n_steps, 2, n_paths))  # Q is driven by no noise
            dw[:, 0] = dw_fine.reshape(n_paths, n_steps, fine // n_steps).sum(axis=2).T
            cfg = RunSettings(seed=0, T=self.T, K=n_steps, scheme=scheme)
            nodes = step_all(self.P, hist, cfg, dw, range(n_paths))
            assert np.all(self.P.alpha - self.P.k1 * nodes[:, 2] == self.P.alpha)
            assert nodes[:, 0].max() <= self.P.M
            errs.append(math.sqrt(float(np.mean((nodes[-1, 0] - exact) ** 2))))
        return levels, errs

    def test_heun_strong_order(self):
        levels, errs = self._strong_errors(SCHEME_HEUN)
        hs = [self.T / n for n in levels]
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        assert slope >= 0.9

    def test_euler_converges(self):
        levels, errs = self._strong_errors(SCHEME_EULER)
        assert errs[-1] < errs[0]
        hs = [self.T / n for n in levels]
        slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
        assert slope >= 0.4

    def test_both_schemes_consistent_in_the_mean(self):
        _, errs_h = self._strong_errors(SCHEME_HEUN, levels=(256,))
        _, errs_e = self._strong_errors(SCHEME_EULER, levels=(256,))
        assert errs_h[0] < 5e-3
        assert errs_e[0] < 5e-2


class TestDelayedStrongOrder:
    """Strong order of the production stepper on the delayed model itself.

    Reference scenario at eps = 0.05 up to T = 5. The Philox increments of 50
    paths at K = 1024 are summed to K = 16, 32, 64 and 128, so every level
    runs on the same Brownian paths with its lattice locked at h = tau/K. The
    error is the RMS over paths of the sup over the coarse nodes of the
    distance to the K = 1024 run. The noise is diagonal and the delay sits
    only in the drift, so Heun is expected to converge with order 1.
    """

    FINE, LEVELS, T, N = 1024, (16, 32, 64, 128), 5.0, 50

    @pytest.mark.parametrize("scheme, order", [(SCHEME_HEUN, 0.9), (SCHEME_EULER, 0.45)])
    def test_strong_order(self, p_star, hist_standard, scheme, order):
        p = p_star.with_eps(0.05)
        n_fine = dde.step_count(self.T, p.tau, self.FINE)
        dw_fine = np.stack([path_normals(0, j, n_fine) for j in range(self.N)], axis=2)
        dw_fine *= math.sqrt(p.tau / self.FINE)
        cfg = RunSettings(seed=0, T=self.T, K=self.FINE, scheme=scheme)
        fine = step_all(p, hist_standard, cfg, dw_fine, range(self.N))
        errs = []
        for K in self.LEVELS:
            r = self.FINE // K
            dw = dw_fine.reshape(-1, r, 2, self.N).sum(axis=1)
            assert len(dw) == dde.step_count(self.T, p.tau, K)
            cfg = RunSettings(seed=0, T=self.T, K=K, scheme=scheme)
            nodes = step_all(p, hist_standard, cfg, dw, range(self.N))
            sup = np.sqrt(np.sum((nodes - fine[::r]) ** 2, axis=1)).max(axis=0)
            errs.append(math.sqrt(float(np.mean(sup ** 2))))
        slope, _ = np.polyfit(np.log([p.tau / K for K in self.LEVELS]), np.log(errs), 1)
        assert slope >= order


class TestEnsemble:
    def test_deviation_scales_with_eps(self, p_star, hist_standard):
        means = {}
        for eps in (0.01, 0.05):
            cfg = RunSettings(seed=5, T=10.0, K=32, n=100, window=[0.0, 10.0])
            stats = ensemble(p_star.with_eps(eps), hist_standard, cfg)
            means[eps] = float(stats.sup_devs.mean())
        assert means[0.05] > means[0.01]  # coupled seeds: strictly larger spread
        assert means[0.01] < 60 * 0.01
        assert means[0.05] < 60 * 0.05

    def test_mean_tracks_deterministic_solution(self, p_star, hist_standard):
        det = dde.integrate(p_star, hist_standard, T=10.0, K=32)
        cfg = RunSettings(seed=5, T=10.0, K=32, n=100, window=[0.0, 10.0])
        stats = ensemble(p_star.with_eps(0.01), hist_standard, cfg)
        gap = np.abs(stats.mean - det.states).max()
        assert gap < 0.05
        assert len(stats.sup_devs) == 100 and np.array_equal(stats.times, det.times)
        assert np.all(stats.dev_p50 <= stats.dev_p95 + 1e-15)

    def test_cross_scheme_mean_agreement(self, p_star, hist_standard):
        # short horizon and fine step: the Monte Carlo spread still dominates
        # the per-scheme discretization bias there
        p = p_star.with_eps(0.05)
        final = {}
        for scheme in (SCHEME_HEUN, SCHEME_EULER):
            cfg = RunSettings(seed=21, T=2.0, K=256, scheme=scheme)
            _, nodes, _ = simulate_paths(p, hist_standard, cfg, list(range(100)))
            final[scheme] = nodes[-1]  # (3, n)
        for k in range(3):
            a, b = final[SCHEME_HEUN][k], final[SCHEME_EULER][k]
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            assert abs(a.mean() - b.mean()) <= 3.0 * se

    def test_guard_counters_reach_stats(self):
        # S starts at 1e-13 and strong noise on the Euler scheme overshoots
        # it: small undershoots are clamped, larger ones are counted
        p = Parameters(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0,
                       mu=0.2, tau=1.0, M=0.5, eps=3.0)
        hist = History.constant(p.tau, 1e-13, 10.0, 1.0)
        cfg = RunSettings(seed=5, T=2.0, K=16, scheme=SCHEME_EULER, n=20, window=[0.0, 2.0])
        _, _, guard = simulate_paths(p, hist, cfg, list(range(20)))
        stats = ensemble(p, hist, cfg)
        assert guard.clamp_count > 0 and guard.warn_count > 0
        assert stats.clamp_count == guard.clamp_count
        assert stats.warn_count == guard.warn_count
        assert stats.min_component == guard.min_component

    @pytest.mark.parametrize("n", [1, 24])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reduction_equals_full_difference(self, p_star, n, scheme):
        # the reduction works in place on the nodes; pin it to the expression
        # that builds |nodes - ref| in fresh arrays.
        # h = 0.3/13 and 0.1/13 are not dyadic: (t - t0)/h misses some node
        # indices, and at 0.1/13 a Hermite value off a node would show in dev
        for tau, K in ((1.0, 32), (0.3, 13), (0.1, 13)):
            p = dataclasses.replace(p_star, tau=tau, eps=0.05)
            hist = History.constant(tau, 0.5, 10.0, 1.0)
            cfg = RunSettings(seed=9, T=5.0, K=K, scheme=scheme, n=n, window=[1.0, 4.0])
            det = dde.integrate(p, hist, T=5.0, K=K)
            times, nodes, _ = simulate_paths(p, hist, cfg, list(range(n)))
            ref = np.array([det.eval(t) for t in times])
            dev = np.abs(nodes - ref[:, :, None]).max(axis=1)
            mask = (times >= 1.0 - 1e-12) & (times <= 4.0 + 1e-12)
            sup_devs = dev[mask].max(axis=0)
            stats = ensemble(p, hist, cfg)
            assert np.array_equal(stats.mean, nodes.mean(axis=2))
            assert np.array_equal(stats.sup_devs, sup_devs)
            assert np.array_equal(stats.dev_p50, np.percentile(dev, 50.0, axis=1))
            assert np.array_equal(stats.dev_p95, np.percentile(dev, 95.0, axis=1))
            if n == 1:
                assert np.array_equal(stats.dev_p50, dev[:, 0])

    def test_empty_window_rejected_before_any_path(self, p_star, hist_standard, monkeypatch):
        # h = 1/64: the nodes next to the window are 10 and 10.015625
        cfg = RunSettings(seed=5, T=50.0, K=64, window=[10.001, 10.002])

        def no_run(*args):
            raise AssertionError("the window is checked before anything is integrated or drawn")

        monkeypatch.setattr(sde, "_increments", no_run)
        monkeypatch.setattr(dde, "integrate", no_run)
        with pytest.raises(ConfigurationError,
                           match=r"window \[10.001, 10.002\] contains no nodes"):
            ensemble(p_star.with_eps(0.01), hist_standard, cfg)

    def test_empty_window_rejected(self):
        # a window past T holds no node: RunSettings refuses it before any engine runs
        with pytest.raises(ScenarioError, match=r"must lie inside \[0, T\]"):
            RunSettings(seed=5, T=5.0, K=32, n=2, window=[100.0, 200.0])

    def test_needs_at_least_one_path(self):
        # RunSettings refuses n = 0, so no engine meets a run without paths
        cfg = RunSettings(seed=5, T=5.0, K=32)
        with pytest.raises(ScenarioError, match=r"^run.n must be >= 1, got 0$"):
            dataclasses.replace(cfg, n=0)


class TestWilsonInterval:
    def test_reference_value(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=2e-4)
        assert hi == pytest.approx(0.7634, abs=2e-4)

    def test_edge_cases(self):
        lo0, hi0 = wilson_interval(0, 40)
        assert lo0 == 0.0 and 0.0 < hi0 < 0.15
        lo1, hi1 = wilson_interval(40, 40)
        assert hi1 == 1.0 and 0.85 < lo1 < 1.0
        with pytest.raises(DomainError):
            wilson_interval(0, 0)

    def test_contains_point_estimate(self):
        for k, n in [(1, 7), (3, 11), (9, 13)]:
            lo, hi = wilson_interval(k, n)
            assert lo < k / n < hi


class TestConcentrationExperiment:
    def test_parameter_validation(self, p_conc, hist_conc):
        # the run's own rules are RunSettings' (test_scenario_cli.TestRunRules); a radius
        # larger than the decay prefactor is the model's, and leaves no window
        with pytest.raises(ConfigurationError, match="the window is empty"):
            concentration_experiment(
                p_conc, hist_conc, RunSettings(eps_list=[0.05], rho=1e6, n=10, seed=0)
            )

    def test_small_run_structure(self, p_conc, hist_conc):
        table = concentration_experiment(
            p_conc, hist_conc,
            RunSettings(eps_list=[0.05, 0.01], rho=0.05, kappa1=1.2, kappa2=2.0, n=60, seed=2024),
        )
        assert len(table.rows) == 2
        p_hats = [r.p_hat for r in table.rows]
        assert p_hats[0] >= p_hats[1]  # less noise, fewer exceedances
        for r in table.rows:
            assert 0.0 <= r.ci_lo <= r.p_hat <= r.ci_hi <= 1.0
            assert r.t_lo < r.t_hi
            assert r.n == 60

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_exceedances_equal_fresh_sups(self, p_conc, hist_conc, scheme):
        # the count reduces the nodes in place; pin it to |nodes - E0| built in
        # fresh arrays from the same paths
        n, rho, K, seed = 40, 0.05, 32, 7
        table = concentration_experiment(
            p_conc, hist_conc, RunSettings(eps_list=[0.025, 0.02], rho=rho, kappa1=1.2,
                                           kappa2=2.0, n=n, seed=seed, K=K, scheme=scheme),
        )
        e0 = equilibria.bacteria_free(p_conc)
        for r in table.rows:
            cfg = RunSettings(seed=seed, T=r.t_hi, K=K, scheme=scheme)
            times, nodes, guard = simulate_paths(
                p_conc.with_eps(r.eps), hist_conc, cfg, list(range(n))
            )
            dev = np.abs(nodes - e0[None, :, None]).max(axis=1)
            window = (times >= r.t_lo - 1e-12) & (times <= r.t_hi + 1e-12)
            assert r.exceed == np.count_nonzero(dev[window].max(axis=0) >= 2.0 * rho)
            assert guard.min_component >= -1e-6
        # a row strictly inside (0, n) shows a count, not a saturated one
        assert any(0 < r.exceed < n for r in table.rows)

    def test_earliest_failure_of_any_row_is_reported(self, p_conc, hist_conc):
        # alone, the eps = 1 row fails at t = 5.9 and the eps = 2 row at t = 1.8; the rows
        # step in lockstep, so the second row's failure stops the run, named (eps, path)
        def run(eps_list):
            with pytest.raises(PositivityError) as exc:
                concentration_experiment(p_conc, hist_conc, RunSettings(
                    eps_list=eps_list, rho=0.05, kappa1=1.2, kappa2=2.0, n=20, seed=7, K=32))
            return exc.value.t, str(exc.value)

        first, second = run([1.0]), run([2.0])
        assert second[0] < first[0]
        assert run([1.0, 2.0]) == second
        assert second[1].startswith("path (2.0, 15) component")

    def test_run_window_past_the_derived_horizon(self):
        # the paths run on the derived window [t_lo, t_hi], whatever run.window says: with
        # run.window = [0, 50] the table is bitwise the run without one, though t_hi = 33.3
        sc = parse_scenario(CONCENTRATION_SCENARIO)
        run = dataclasses.replace(sc.run, n=20)
        windowed = concentration_experiment(
            sc.parameters, sc.history, dataclasses.replace(run, window=[0.0, 50.0]))
        assert windowed.rows[0].t_hi < 50.0
        assert _bits(windowed) == _bits(concentration_experiment(sc.parameters, sc.history, run))

    def test_slope_requires_two_nonzero_rows(self, p_conc, hist_conc):
        table = concentration_experiment(
            p_conc, hist_conc,
            RunSettings(eps_list=[0.01], rho=0.05, kappa1=1.2, kappa2=2.0, n=20, seed=2024),
        )
        assert table.log_prob_slope() is None


def _bits(obj):
    """Every field of a result dataclass as bytes, so signed zeros and NaN payloads count."""
    return [(f.name, np.asarray(getattr(obj, f.name)).tobytes() if f.name != "rows"
             else repr(obj.rows)) for f in dataclasses.fields(obj)]


class TestTimeBlocks:
    """Ensembles draw DRAW_STEPS steps at a time and step NODE_BLOCK_BYTES of nodes at a time;
    no result may depend on either length."""

    def test_increments_equal_one_draw_per_path(self, p_star):
        # 600 steps, a multiple of neither block length; a seed above 2**63
        cfg = RunSettings(seed=2**64 - 5, T=600 * p_star.tau / 64, K=64)
        paths, h = [0, 5, 2**40], p_star.tau / cfg.K
        expected = np.stack([path_normals(cfg.seed, j, 600) * math.sqrt(h) for j in paths], axis=2)
        for steps in (sde.DRAW_STEPS, 7):
            blocks = [block.copy() for block in sde._increments(p_star, cfg, paths, steps)]
            assert [len(b) for b in blocks] == [steps] * (600 // steps) + [600 % steps]
            assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 24])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ensemble_stats(self, p_star, hist_standard, n, scheme, monkeypatch):
        # the second run clamps and warns, so the guard counters count too
        clamping = Parameters(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0,
                              mu=0.2, tau=1.0, M=0.5, eps=3.0)
        runs = [  # 320 steps, then 32
            (p_star.with_eps(0.05), hist_standard,
             RunSettings(seed=3, T=5.0, K=64, scheme=scheme, n=n, window=[1.0, 4.0])),
            (clamping, History.constant(1.0, 1e-13, 10.0, 1.0),
             RunSettings(seed=5, T=2.0, K=16, scheme=SCHEME_EULER, n=n, window=[0.5, 2.0])),
        ]
        stats = [ensemble(*run) for run in runs]
        assert n == 1 or (stats[1].clamp_count > 0 and stats[1].warn_count > 0)
        baseline = [_bits(s) for s in stats]
        # node blocks of 1 step, of 7 steps of n columns (24 n bytes a step), and of a draw block
        blocks = [(steps, sde.NODE_BLOCK_BYTES) for steps in (1, 7, 64, 320)]
        blocks += [(sde.DRAW_STEPS, node_bytes) for node_bytes in (1, 7 * 24 * n, 2**40)]
        for steps, node_bytes in blocks:
            monkeypatch.setattr(sde, "DRAW_STEPS", steps)
            monkeypatch.setattr(sde, "NODE_BLOCK_BYTES", node_bytes)
            for run, base in zip(runs, baseline):
                assert _bits(ensemble(*run)) == base

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_concentration_table(self, p_conc, hist_conc, scheme, monkeypatch):
        # three lockstep rows draw blocks of DRAW_STEPS // 3 steps, at least 1
        increments, lengths = sde._increments, []

        def recorded(p, cfg, paths, block_steps):
            lengths.append(block_steps)
            return increments(p, cfg, paths, block_steps)

        monkeypatch.setattr(sde, "_increments", recorded)

        def table():
            return concentration_experiment(p_conc, hist_conc, RunSettings(
                eps_list=[0.025, 0.02, 0.015], rho=0.05, kappa1=1.2, kappa2=2.0, n=20, seed=7,
                K=32, scheme=scheme,
            ))

        baseline = table()
        assert any(0 < r.exceed < r.n for r in baseline.rows)
        n_steps = dde.step_count(baseline.rows[0].t_hi, p_conc.tau, 32)
        # 20 paths of three rows step as 60 columns, 24 * 60 bytes a node step
        blocks = [(steps, sde.NODE_BLOCK_BYTES) for steps in (1, 7, 64, n_steps)]
        blocks += [(sde.DRAW_STEPS, node_bytes) for node_bytes in (1, 7 * 24 * 60, 2**40)]
        for steps, node_bytes in blocks:
            monkeypatch.setattr(sde, "DRAW_STEPS", steps)
            monkeypatch.setattr(sde, "NODE_BLOCK_BYTES", node_bytes)
            assert _bits(table()) == _bits(baseline)
        assert lengths == [256 // 3, 1, 2, 21, n_steps // 3] + [256 // 3] * 3

    @pytest.mark.parametrize("node_bytes", [1, 7 * 24 * 60, sde.NODE_BLOCK_BYTES, 2**40])
    def test_node_blocks_hold_at_most_node_block_bytes(self, p_conc, hist_conc, node_bytes,
                                                      monkeypatch):
        # 20 paths of three rows step as N = 60 columns in draw blocks of 256 // 3 steps; a
        # node block holds max(1, node_bytes // (24 N)) steps of one, node 0 a block alone
        step_paths, lengths = sde._step_paths, []

        def recorded(p, hist, cfg, eps, increments, guard):
            for j, block in step_paths(p, hist, cfg, eps, increments, guard):
                assert block.shape[1:] == (3, 60)
                assert block.nbytes <= max(24 * 60, node_bytes)
                lengths.append(len(block))
                yield j, block

        monkeypatch.setattr(sde, "_step_paths", recorded)
        monkeypatch.setattr(sde, "NODE_BLOCK_BYTES", node_bytes)
        table = concentration_experiment(p_conc, hist_conc, RunSettings(
            eps_list=[0.025, 0.02, 0.015], rho=0.05, kappa1=1.2, kappa2=2.0, n=20, seed=7, K=32,
        ))
        assert sum(lengths) == dde.step_count(table.rows[0].t_hi, p_conc.tau, 32) + 1
        assert max(lengths) == min(max(1, node_bytes // (24 * 60)), 256 // 3)

    def test_budget_shortens_blocks(self, p_conc, hist_conc, monkeypatch):
        # 20 paths of three rows take 20 (16 + 32 * 3) = 2 240 bytes a block step, so an
        # eighth of a budget of 2 240 * 8 * 9 bytes holds blocks of 9 steps, not 256 // 3
        increments, lengths = sde._increments, []

        def recorded(p, cfg, paths, block_steps):
            lengths.append(block_steps)
            return increments(p, cfg, paths, block_steps)

        monkeypatch.setattr(sde, "_increments", recorded)

        def table():
            return concentration_experiment(p_conc, hist_conc, RunSettings(
                eps_list=[0.025, 0.02, 0.015], rho=0.05, kappa1=1.2, kappa2=2.0, n=20, seed=7,
                K=32,
            ))

        baseline = table()
        monkeypatch.setattr(sde, "PATH_BYTES_BUDGET", 2_240 * 8 * 9)
        assert _bits(table()) == _bits(baseline)
        assert lengths == [256 // 3, 9]


class TestMemory:
    """A Monte Carlo row holds its nodes and increments one time block at a time."""

    def test_concentration_row(self):
        # the full increments and nodes of the row would be 2 134 x 5 x 400 x 8 B, 34 MB
        sc = parse_scenario(CONCENTRATION_SCENARIO)
        r = sc.run
        peak = peak_bytes(lambda: concentration_experiment(
            sc.parameters, sc.history, dataclasses.replace(r, eps_list=r.eps_list[:1], n=400),
        ))
        assert peak < 8e6

    def test_concentration_rows_in_lockstep(self):
        # three rows step as 1 200 columns, in blocks of a third of the one row's length,
        # so they hold no more than one row
        sc = parse_scenario(CONCENTRATION_SCENARIO)
        r = sc.run
        assert len(r.eps_list) == 3
        peak = peak_bytes(lambda: concentration_experiment(
            sc.parameters, sc.history, dataclasses.replace(r, n=400),
        ))
        assert peak < 8e6

    def test_concentration_rows_at_2000_paths(self):
        # 6 000 columns step in node blocks of 2**20 // (24 * 6 000) = 7 steps, 1.0 MB, not
        # in the 85-step draw blocks, whose nodes would be 12.2 MB and their deviations 4.1 MB
        # more; run alone, nodes held a draw block at a time peaked at 26.0 MB, in node
        # blocks at 11.0 MB
        sc = parse_scenario(CONCENTRATION_SCENARIO)
        r = sc.run
        assert len(r.eps_list) == 3
        peak = peak_bytes(lambda: concentration_experiment(
            sc.parameters, sc.history, dataclasses.replace(r, n=2000),
        ))
        assert peak < 14e6

    def test_ensemble(self):
        # each block is reduced to its mean, percentiles and sups as it comes; the
        # (n_nodes, n) deviations of all nodes would be 3 201 x 400 x 8 B, 10 MB
        sc = parse_scenario(REFERENCE_SCENARIO)
        p, r = sc.parameters, sc.run
        args = (p, sc.history, dataclasses.replace(r, n=400, window=[0.0, r.T]))
        ensemble(*args)  # pays the one-time costs: its np.percentile imports numpy.ma, 1.8 MB
        assert peak_bytes(lambda: ensemble(*args)) < 8e6

    def test_path_budget(self):
        # n (1024 + 8 (K + 1) E + 144 E + 32 K) + B bytes for n paths of E eps rows, where
        # the blocks count B = min(r max(1, DRAW_STEPS // E), max(r, 2**31 // 8)) bytes with
        # r = n (16 + 32 E): at K = 64, 14 584 a path at E = 3 (85 steps) and 16 024 at E = 1
        # (256 steps) up to n = 21 845; past that B = 2**28, so n (3 736 + 1 528 (E - 1))
        # fits in 7/8 of the budget up to n = 371 060 at E = 3 and 502 957 at E = 1; the
        # returned block length is that many steps of r bytes, at most 2**28 bytes
        assert [sde._check_budget(n, 64, rows) for n in (2000, 21_845) for rows in (1, 3)] == [
            256, 85, 256, 85]
        assert (sde._check_budget(21_846, 64), sde._check_budget(1, 64, 300)) == (255, 1)
        for n_max, rows, steps in ((371_060, 3, 6), (502_957, 1, 11)):
            assert sde._check_budget(n_max, 64, rows) == steps
            with pytest.raises(MemoryError, match=f"at n = {n_max + 1}, K = 64, {rows} eps row"):
                sde._check_budget(n_max + 1, 64, rows)
        with pytest.raises(MemoryError):  # the K-long history prefix of one path
            sde._check_budget(1, 10**8)

    @pytest.mark.parametrize("rows", [1, 3, 4])
    def test_path_budget_refuses_every_larger_n(self, rows):
        # The block length drops a step at each n past 2**28 / (S (16 + 32 E)). Counting the
        # blocks at S steps refused n = 503 632 to 508 400 at E = 1 (S = 11) and accepted
        # 508 401 (S = 10), and did so at E = 4 from n = 372 828; a bound that rises with n
        # refuses every n past the first.
        def block(n):  # the block length admitted, or None for a refusal
            try:
                return sde._check_budget(n, 64, rows)
            except MemoryError:
                return None

        row = 16 + 32 * rows
        for steps in range(sde.DRAW_STEPS // rows, 1, -1):
            drop = (sde.PATH_BYTES_BUDGET // 8) // (row * steps) + 1
            blocks = [block(n) for n in range(drop - 3, drop + 3)]  # blocks[3] is n = drop
            assert (blocks[2] or steps) >= steps > (blocks[3] or 0)  # where admitted
            verdicts = [b is None for b in blocks]
            assert verdicts == sorted(verdicts), f"n = {drop} at {steps} steps"
        assert block(503_632) is None and block(508_401) is None

    @pytest.mark.parametrize("lane", ["integrate", SCHEME_HEUN, SCHEME_EULER])
    def test_float_lane_holds_a_float_buffer_a_step(self, p_star, hist_standard, lane):
        # 2 * 10**4 steps of h = 1/8 hold each node and its drift, 48 B a step, and a sample
        # path its delayed influx too, 56 B. The 256 KB over that is for the buffers' growth
        # slack (array('d') allocates up to 1/16 ahead, at most 70 KB here), the delayed
        # queues and the increment blocks; lists of 3-tuples took about 340 B a step.
        # Tracing runs these loops some 30 times slower, hence the short run.
        n_steps = 2 * 10**4

        def run(T):
            if lane == "integrate":
                return dde.integrate(p_star, hist_standard, T, 8)
            return sample_path(p_star.with_eps(0.01), hist_standard,
                               RunSettings(seed=5, T=T, K=8, scheme=lane))

        assert len(run(n_steps / 8)) == n_steps + 1  # also pays the one-time costs
        per_step = 48 if lane == "integrate" else 56
        assert peak_bytes(lambda: run(n_steps / 8)) <= per_step * n_steps + 256 * 1024


def _row(eps, exceed, n=400):
    return ConcentrationRow(eps=eps, rho=0.05, t_lo=1.0, t_hi=2.0, n=n, exceed=exceed,
                            p_hat=exceed / n, ci_lo=0.0, ci_hi=1.0)


class TestLogProbSlope:
    def test_fits_only_rows_strictly_inside(self):
        table = ConcentrationTable(
            rows=[_row(0.05, 400), _row(0.03, 200), _row(0.02, 50), _row(0.01, 0)]
        )
        expected = (math.log(50 / 400) - math.log(200 / 400)) / (
            1.0 / 0.02**2 - 1.0 / 0.03**2
        )
        assert table.log_prob_slope() == pytest.approx(expected, rel=1e-12)

    def test_saturated_rows_give_no_slope(self):
        table = ConcentrationTable(rows=[_row(0.05, 400), _row(0.02, 400), _row(0.01, 3)])
        assert table.log_prob_slope() is None
