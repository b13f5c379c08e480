import dataclasses
import math
import operator
import warnings
from functools import partial

import numpy as np
import pytest

from phagesim import History, Parameters, SigmaFn, dde, equilibria, hypotheses
from phagesim.dde import (
    fit_decay,
    integrate,
    monitor_region,
)
from phagesim.errors import DivergenceError, DomainError, PositivityError, WindowError
from phagesim.scenario import parse_scenario

from conftest import CONCENTRATION_SCENARIO, REFERENCE_SCENARIO, peak_bytes
from model_reference import _drift_terms, integrate_through_rates, scalar_eval


def _distances(traj, e0):
    return np.linalg.norm(traj.states - e0, axis=1)


@pytest.fixture(scope="module")
def traj_star(p_star, hist_standard):
    return integrate(p_star, hist_standard, T=50.0, K=64)


class TestBasicIntegration:
    def test_node_grid(self, p_star, traj_star):
        assert traj_star.h == pytest.approx(p_star.tau / 64, rel=1e-15)
        assert traj_star.times[0] == 0.0
        assert traj_star.t_end >= 50.0 - 1e-9

    def test_starts_on_history(self, hist_standard, traj_star):
        assert traj_star.states[0] == pytest.approx([0.5, 1.0, 10.0], abs=1e-12)

    def test_equilibrium_is_a_fixed_point(self, p_star):
        e0 = equilibria.bacteria_free(p_star)
        hist = History.constant(p_star.tau, 0.0, e0[2], 0.0)
        traj = integrate(p_star, hist, T=10.0, K=16)
        assert np.max(np.abs(traj.states - e0)) < 1e-12

    def test_converges_to_bacteria_free(self, p_star, traj_star):
        e0 = equilibria.bacteria_free(p_star)
        assert np.linalg.norm(traj_star.states[-1] - e0) < 1e-3
        assert traj_star.states[-1][0] < 1e-20  # bacteria are wiped out

    def test_argument_validation(self, p_star, hist_standard):
        with pytest.raises(DomainError):
            integrate(p_star, hist_standard, T=10.0, K=4)
        with pytest.raises(DomainError):
            integrate(p_star, hist_standard, T=0.0, K=16)

    def test_divergence_detected(self, hist_standard):
        p = Parameters(alpha=40.0, k1=1e-30, k2=0.0, d=20.0, m=1.0, b=2.0,
                       mu=0.2, tau=1.0, M=100.0)
        with pytest.raises(DivergenceError):
            integrate(p, hist_standard, T=1.0, K=64)

    def test_negative_stage_names_its_step(self, p_star):
        # k1 = 10 drives the second RK4 stage's Q of the first step below 0,
        # where sigma is undefined
        p = dataclasses.replace(p_star, k1=10.0)
        hist = History.constant(p.tau, 0.5, 10.0, 0.0)
        with pytest.raises(PositivityError, match=r"before t=0\.125: sigma") as err:
            integrate(p, hist, T=3.0, K=8)
        assert err.value.t == 0.125
        assert isinstance(err.value.__cause__, DomainError)

    def test_positivity_accounting_clean_run(self, traj_star):
        assert traj_star.min_component >= -1e-6
        assert traj_star.warn_count == 0


class TestAccuracy:
    def test_richardson_order_at_least_three(self, p_star, hist_standard):
        finals = {}
        for K in (16, 32, 64, 128):
            finals[K] = integrate(p_star, hist_standard, T=5.0, K=K).eval(5.0)
        e1 = np.linalg.norm(finals[16] - finals[32])
        e2 = np.linalg.norm(finals[32] - finals[64])
        e3 = np.linalg.norm(finals[64] - finals[128])
        order12 = math.log2(e1 / e2)
        order23 = math.log2(e2 / e3)
        assert order12 >= 3.0
        assert order23 >= 3.0

    @pytest.mark.parametrize("T", [5.0, 20.0])
    @pytest.mark.parametrize("history", ["constant", "table"])
    def test_richardson_order_near_four(self, history, T):
        # the pairs read 3.99-4.02 here, where criterion 6's gate at 3 would pass a
        # defect that costs one order; coarser pairs sit further from the asymptote
        sc = parse_scenario(REFERENCE_SCENARIO)
        hist = sc.history if history == "constant" else _table_history(sc.parameters.tau)
        finals = [integrate(sc.parameters, hist, T=T, K=K).eval(T) for K in (32, 64, 128, 256)]
        errors = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
        orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert min(orders) >= 3.8, orders

    def test_dense_output_matches_fine_grid(self, p_star, hist_standard):
        coarse = integrate(p_star, hist_standard, T=5.0, K=32)
        fine = integrate(p_star, hist_standard, T=5.0, K=256)
        ts = np.linspace(0.1, 4.9, 37)
        err = max(
            float(np.max(np.abs(coarse.eval(t) - fine.eval(t)))) for t in ts
        )
        assert err < 1e-5

    def test_dense_output_exact_at_nodes(self, p_star, traj_star):
        for j in (0, 7, 100, len(traj_star) - 1):
            t = traj_star.times[j]
            assert np.array_equal(traj_star.eval(t), traj_star.states[j])
        assert np.array_equal(
            traj_star.eval(traj_star.times[5]), traj_star.states[5]
        )
        # h = 0.3/13 is not dyadic: (t - t0)/h is not an integer at some nodes
        p = dataclasses.replace(p_star, tau=0.3)
        traj = integrate(p, History.constant(p.tau, 0.5, 10.0, 1.0), T=5.0, K=13)
        times = traj.times
        assert np.any(times / traj.h != np.arange(len(traj)))
        for j, t in enumerate(times):
            assert np.array_equal(traj.eval(t), traj.states[j])

    def test_eval_beyond_end_rejected(self, traj_star):
        with pytest.raises(DomainError):
            traj_star.eval(traj_star.t_end + 1.0)

    @pytest.mark.parametrize("t", [-1e-300, -0.5, math.nan])
    def test_eval_before_start_rejected(self, traj_star, t):
        # a trajectory holds only its nodes from t = 0
        with pytest.raises(DomainError, match="outside the trajectory"):
            traj_star.eval(t)


    def test_array_eval_is_the_scalar_eval(self, p_star, traj_star):
        # h = 0.3/13 is not dyadic: (t - t0)/h is not an integer at some nodes
        p = dataclasses.replace(p_star, tau=0.3)
        odd = integrate(p, History.constant(p.tau, 0.5, 10.0, 1.0), T=5.0, K=13)
        rng = np.random.default_rng(23)
        for traj in (traj_star, traj_star.sq(), odd, odd.sq()):
            ts = np.concatenate([
                traj.times[::7], traj.times[:-1:11] + 0.5 * traj.h, rng.uniform(0.0, traj.t_end, 300),
                [traj.t_end, np.nextafter(traj.t_end, np.inf), np.nextafter(traj.h, 0.0)],
            ])
            values = traj.eval(ts)
            assert values.shape == (len(ts), traj.dim)
            for t, row in zip(ts.tolist(), values):
                assert np.array_equal(row, traj.eval(t))
                assert np.array_equal(row, scalar_eval(traj, t))
            assert traj.eval(np.array([])).shape == (0, traj.dim)
        assert np.any(odd.times / odd.h != np.arange(len(odd)))

    def test_scalar_eval_is_a_new_array(self, traj_star):
        y = traj_star.eval(traj_star.times[9])
        assert y.shape == (3,)
        y[:] = -1.0
        assert np.all(traj_star.states[9] >= 0.0)

    @pytest.mark.parametrize("t", [-0.5, math.nan, 51.0])
    def test_eval_messages_are_the_scalar_reference(self, traj_star, t):
        with pytest.raises(DomainError) as ref:
            scalar_eval(traj_star, t)
        with pytest.raises(DomainError) as new:
            traj_star.eval(t)
        assert str(new.value) == str(ref.value)
        # an array names its first bad time
        with pytest.raises(DomainError) as first:
            traj_star.eval(np.array([1.0, t, -2.0, 3.0]))
        assert str(first.value) == str(ref.value)

    def test_eval_leaves_non_finite_nodes_out_of_the_interpolant(self):
        # a node that is inf or NaN is returned as stored; the Hermite rows never touch it
        states = np.array([[0.0, 1.0, 2.0], [math.inf, math.nan, -math.inf], [1.0, 1.0, 1.0],
                           [2.0, 2.0, 2.0]])
        traj = dde.Trajectory(h=0.5, states=states, derivs=np.ones_like(states))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = traj.eval(np.array([0.0, 0.5, 1.25, 1.5]))
        assert np.array_equal(out[:2], states[:2], equal_nan=True)
        assert np.array_equal(out[2], scalar_eval(traj, 1.25))
        assert np.array_equal(out[3], states[3])

def _loop_monitor(traj, region, atol=1e-9):
    """The node-by-node loop that monitor_region vectorises, kept as its reference."""
    for t, y in zip(traj.times, traj.states):
        s, i, q = y[0], y[1], y[2]
        if s < -atol or s > region.s_max + atol:
            return dde.RegionExit(float(t), "S", float(s), region.s_max)
        if i < -atol or i > region.i_max + atol:
            return dde.RegionExit(float(t), "I", float(i), region.i_max)
        if q < region.q_min - atol:
            return dde.RegionExit(float(t), "Q", float(q), region.q_min)
        if q > region.q_max + atol:
            return dde.RegionExit(float(t), "Q", float(q), region.q_max)
    return None


_BOX = hypotheses.RegionBounds(s_max=1.0, i_max=2.0, q_min=0.5, q_max=3.0)
# (node, component, value) written into six nodes inside _BOX, and the
# component the exit names (None: no exit)
_EXIT_CASES = {
    "inside": ([], None),
    "on-the-tolerance": ([(1, 0, -1e-9), (2, 1, 2.0 + 1e-9), (3, 2, 3.0 + 1e-9)], None),
    "S-low": ([(2, 0, -2e-9)], "S"),
    "S-high": ([(3, 0, 1.5)], "S"),
    "I-low": ([(1, 1, -1.0)], "I"),
    "I-high": ([(4, 1, 2.1)], "I"),
    "Q-low": ([(2, 2, 0.4)], "Q"),
    "Q-high": ([(5, 2, 7.0)], "Q"),
    "I-and-Q-at-one-node": ([(3, 2, 0.1), (3, 1, 5.0)], "I"),
    "S-and-Q-at-one-node": ([(2, 2, 9.0), (2, 0, -1.0)], "S"),
    "later-node-first-bound": ([(4, 0, 2.0), (2, 2, 0.0)], "Q"),
    "nan-then-exit": ([(1, 0, np.nan), (1, 2, np.nan), (3, 1, 2.5)], "I"),
    "nan-only": ([(2, 1, np.nan)], None),
}


class TestInvariantRegion:
    def test_reference_run_stays_inside(self, p_star, traj_star):
        region = hypotheses.invariant_region(p_star)
        assert monitor_region(traj_star, region) is None

    def test_exit_reported_with_first_time(self, p_star, traj_star):
        region = hypotheses.invariant_region(p_star)
        # shrink the phage band until the initial condition is already outside
        squeezed = dataclasses.replace(region, q_min=12.0)
        exit_info = monitor_region(traj_star, squeezed)
        assert exit_info is not None
        assert exit_info.component == "Q"
        assert exit_info.t == 0.0
        assert exit_info.value == pytest.approx(10.0, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(_EXIT_CASES))
    def test_equals_node_loop(self, case):
        changes, component = _EXIT_CASES[case]
        states = np.tile([0.5, 1.0, 2.0], (6, 1))
        for node, k, value in changes:
            states[node, k] = value
        traj = dde.Trajectory(h=0.1, states=states, derivs=np.zeros_like(states))
        found = monitor_region(traj, _BOX)
        assert found == _loop_monitor(traj, _BOX)
        assert (found and found.component) == component


class TestDecayFit:
    def test_envelope_and_rate(self, p_star, traj_star):
        e0 = equilibria.bacteria_free(p_star)
        eta = equilibria.stability_at_e0(p_star).eta
        fit = fit_decay(traj_star, e0, window=(10.0, 40.0), eta=eta)
        assert fit.fitted_rate >= 0.19
        assert fit.rate_ok
        # the envelope prefactor is tight: the bound holds at every node
        dist = _distances(traj_star, e0)
        envelope = fit.prefactor * np.exp(-eta * traj_star.times)
        assert np.all(dist <= envelope * (1 + 1e-12))
        assert np.max(dist - envelope) <= 1e-12
        # fit_decay's distances are np.linalg.norm's to the bit
        assert fit.prefactor == np.max(dist * np.exp(eta * traj_star.times))

    def test_envelope_past_exp_overflow(self):
        # e^{eta t} overflows past t = 709/eta = 1418 and the distance
        # underflows to 0 past t = 745/0.51 = 1461; the envelope is c at t = 0
        eta, rate, c = 0.5, 0.51, 2.0
        h = 0.5
        times = h * np.arange(3201)  # to t = 1600
        states = np.zeros((len(times), 3))
        states[:, 0] = c * np.exp(-rate * times)
        traj = dde.Trajectory(h=h, states=states, derivs=np.zeros_like(states))
        assert np.any(states[:, 0] == 0.0) and np.any(states[times > 1418.0, 0] > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_decay(traj, np.zeros(3), window=(1.0, 20.0), eta=eta)
        assert fit.prefactor == c
        assert np.all(states[:, 0] <= c * np.exp(-eta * times))
        assert fit.fitted_rate == pytest.approx(rate, rel=1e-9)

    def test_envelope_ignores_the_rounding_floor(self, p_star, hist_standard, traj_star):
        # from t = 184.6 on |Z - E0| stays at 1.1e-13 (Q rounds 32 ulps off d/m);
        # times e^{eta t} that floor would set c to about 1e-13 e^{0.2 T}
        e0 = equilibria.bacteria_free(p_star)
        eta = equilibria.stability_at_e0(p_star).eta
        long = integrate(p_star, hist_standard, T=400.0, K=64)
        dist = _distances(long, e0)
        assert dist[-1] <= dde.DIST_FLOOR
        fit = fit_decay(long, e0, window=(10.0, 40.0), eta=eta)
        assert fit.prefactor == fit_decay(traj_star, e0, window=(10.0, 40.0), eta=eta).prefactor
        alive = dist > dde.DIST_FLOOR
        assert np.all(dist[alive] <= fit.prefactor * np.exp(-eta * long.times[alive]) + 1e-12)

    def test_temporaries_are_bounded_per_node(self, p_star, hist_standard):
        # 10**5 steps: the node offsets from E0 are squared in place, 24 B a node, beside
        # their sums and roots, 8 B each; then the distances and the node times are held
        traj = integrate(p_star, hist_standard, T=1562.5, K=64)
        assert len(traj) == 10**5 + 1
        e0 = equilibria.bacteria_free(p_star)
        eta = equilibria.stability_at_e0(p_star).eta
        fit_decay(traj, e0, eta)  # pays the one-time costs
        assert peak_bytes(lambda: fit_decay(traj, e0, eta)) <= 56 * len(traj) + 64 * 1024

    def test_envelope_needs_a_node_above_the_floor(self):
        states = np.full((20, 3), 0.5 * dde.DIST_FLOOR)
        traj = dde.Trajectory(h=0.5, states=states, derivs=np.zeros_like(states))
        with pytest.raises(WindowError, match="no envelope"):
            fit_decay(traj, np.zeros(3), window=(1.0, 5.0), eta=0.2)

    def test_auto_window_is_usable(self, p_star, traj_star):
        e0 = equilibria.bacteria_free(p_star)
        fit = fit_decay(traj_star, e0, eta=0.2)
        lo, hi = fit.window
        assert 0.0 < lo < hi <= traj_star.t_end
        assert fit.rate_ok
        assert fit == fit_decay(traj_star, e0, eta=0.2, window=(lo, hi))

    def test_window_may_end_where_the_run_ends(self, p_star, hist_standard):
        # step_count ends a T within 1e-9 steps past a node on that node
        e0 = equilibria.bacteria_free(p_star)
        T = 50.00000000001
        traj = integrate(p_star, hist_standard, T=T, K=64)
        assert traj.t_end == 50.0 < T
        fit = fit_decay(traj, e0, eta=0.2, window=(10.0, T))
        assert fit.window == (10.0, T)
        assert fit.fitted_rate == fit_decay(traj, e0, eta=0.2, window=(10.0, 50.0)).fitted_rate
        with pytest.raises(WindowError, match="not inside"):
            fit_decay(traj, e0, eta=0.2, window=(10.0, 50.0 + 2e-9 * traj.h))

    def test_window_outside_trajectory(self, p_star, traj_star):
        e0 = equilibria.bacteria_free(p_star)
        with pytest.raises(WindowError):
            fit_decay(traj_star, e0, window=(10.0, 90.0), eta=0.2)
        with pytest.raises(WindowError):
            fit_decay(traj_star, e0, window=(20.0, 20.0), eta=0.2)

    def test_window_on_equilibrium_rejected(self, p_star):
        e0 = equilibria.bacteria_free(p_star)
        hist = History.constant(p_star.tau, 0.0, e0[2], 0.0)
        traj = integrate(p_star, hist, T=10.0, K=16)
        with pytest.raises(WindowError):
            fit_decay(traj, e0, window=(2.0, 8.0), eta=0.2)
        with pytest.raises(WindowError, match="no decay to fit"):
            fit_decay(traj, e0, eta=0.2)


class TestTwoComponentSubsystem:
    """Without coinfection, the system is the (S, Q) projection of a k2 = 0 run."""

    def test_sq_columns_independent_of_i0(self, p_star, hist_standard):
        p = p_star.with_k2(0.0)
        hist_other = History(p.tau, hist_standard.s_samples, hist_standard.q_samples, 3.0)
        full_a = integrate(p, hist_standard, T=20.0, K=32)
        full_b = integrate(p, hist_other, T=20.0, K=32)
        assert not np.array_equal(full_a.states[:, 1], full_b.states[:, 1])
        a, b = full_a.sq(), full_b.sq()
        assert a.dim == 2
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)

    def test_faster_decay_without_coinfection(self, p_star, hist_standard):
        p = p_star.with_k2(0.0)
        traj = integrate(p, hist_standard, T=20.0, K=64).sq()
        st = equilibria.stability_at_e0(p)
        rate_bound = min(st.gamma, p.m)  # no infected class, so mu drops out
        fit = fit_decay(traj, (0.0, p.d / p.m), window=(8.0, 16.0), eta=rate_bound)
        assert rate_bound == pytest.approx(1.0, rel=1e-12)
        assert fit.fitted_rate >= 0.8
        assert fit.fitted_rate >= 4.0 * 0.2


class _ParentGuard:
    """The tuple guard `integrate` used before both engines shared one."""

    def __init__(self):
        self.clamp_count = 0
        self.warn_count = 0
        self.min_component = 0.0

    def apply(self, y, t):
        out = list(y)
        for k, v in enumerate(out):
            if not math.isfinite(v) or abs(v) > dde.BLOWUP_LIMIT:
                raise DivergenceError(
                    f"trajectory blew up at t={t:g} (component {k} = {v!r})", t=t
                )
            if v < 0.0:
                self.min_component = min(self.min_component, v)
                if v < dde.HARD_NEG:
                    raise PositivityError(
                        f"component {k} reached {v:g} at t={t:g}, below the "
                        f"{dde.HARD_NEG:g} tolerance", t=t,
                    )
                if v >= -dde.CLAMP_TOL:
                    out[k] = 0.0
                    self.clamp_count += 1
                else:
                    self.warn_count += 1
        return tuple(out)


def _parent_integrate(p, hist, T, K, sigma=None):
    """The tuple-RK4 loop with a general delayed lookup that `integrate` replaced.

    Every delayed (S, Q) is found by rounding t - tau to a half-step, read
    from the history, a node, or a three-component Hermite midpoint, and
    each stage evaluates sigma at both its own and its delayed Q.
    """
    sigma = SigmaFn(p.M) if sigma is None else sigma

    def rhs(y, delayed_sq):
        return _drift_terms(y[0], y[1], y[2], delayed_sq[0], delayed_sq[1], p, sigma)

    def hist_sq(td):
        return hist.s(td), hist.q(td)

    tau = p.tau
    h = tau / K
    n_steps = max(1, math.ceil(T / h - 1e-9))
    guard = _ParentGuard()
    states = [(hist.s(0.0), hist.i0, hist.q(0.0))]
    derivs = [rhs(states[0], hist_sq(-tau))]

    def delayed(td):
        if td <= 0.0:
            return hist_sq(td)
        x2 = round(2.0 * td / h) / 2.0
        j = int(x2)
        theta = x2 - j
        if theta == 0.0:
            y = states[j]
            return y[0], y[-1]
        y = dde._hermite(
            np.asarray(states[j]), np.asarray(derivs[j]),
            np.asarray(states[j + 1]), np.asarray(derivs[j + 1]),
            theta, h,
        )
        return y[0], y[-1]

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
    return np.array(states), np.array(derivs), guard


def _table_history(tau, q_shift=0.0, i0=0.7):
    grid = np.linspace(0.0, 1.0, 97)
    return History(tau, 0.5 + 0.3 * np.sin(5.0 * grid), q_shift + 8.0 + 3.0 * np.cos(4.0 * grid), i0)


_P = dict(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0, mu=0.2, tau=1.0, M=100.0)

# (parameter overrides, history, T, K); `table` is a smooth sampled history
_PARENT_CASES = {
    "constant": ({}, "constant", 6.0, 64),
    "table": ({}, "table", 6.0, 64),
    "k2-zero": ({"k2": 0.0}, "table", 6.0, 32),
    "bridge": ({"M": 12.0}, "constant", 8.0, 16),  # Q climbs over [M, M+1] onto the plateau
    "bridge-history": ({"M": 10.0}, "table", 4.0, 16),  # the history's Q straddles the bridge
    "short": ({}, "table", 0.4, 16),  # T < tau: only history lookups
    "K8": ({}, "table", 3.0, 8),
    "odd-K": ({"tau": 0.7}, "table", 3.0, 13),
    # (K-1)h + h - tau is +5.6e-17 at tau = 1/3 (node 0) and -5.6e-17 at tau = 0.3 (history)
    "tau-third": ({"tau": 1.0 / 3.0}, "table", 2.0, 13),
    "tau-0.3": ({"tau": 0.3}, "table", 2.0, 13),
    "clamping": ({"k1": 1.0}, "tiny-s", 3.0, 16),
    # the queue's boundary: T = tau pops exactly the K history entries that seed it,
    # and T = tau + tau/K pops its first own entry, step 0's midpoint and end influx
    "at-tau": ({}, "table", 1.0, 16),
    "one-past-tau": ({}, "table", 1.0 + 1.0 / 16, 16),
}


class TestParentLoop:
    """`integrate` keeps the replaced loop's states, slopes and counters to the bit."""

    @pytest.mark.parametrize("case", sorted(_PARENT_CASES))
    def test_bitwise_equal(self, case):
        overrides, kind, T, K = _PARENT_CASES[case]
        p = Parameters(**{**_P, **overrides})
        hist = {
            "constant": lambda: History.constant(p.tau, 0.5, 10.0, 1.0),
            "table": lambda: _table_history(p.tau),
            "tiny-s": lambda: History.constant(p.tau, 3e-12, 10.0, 0.0),
        }[kind]()
        traj = integrate(p, hist, T=T, K=K)
        states, derivs, guard = _parent_integrate(p, hist, T, K)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.derivs, derivs)
        assert (traj.clamp_count, traj.warn_count, traj.min_component) == (
            guard.clamp_count, guard.warn_count, guard.min_component)
        if case == "clamping":
            assert traj.clamp_count > 0 and traj.warn_count > 0

    def test_same_blowup(self, hist_standard):
        p = Parameters(**{**_P, "alpha": 40.0, "k1": 1e-30, "k2": 0.0})
        with pytest.raises(DivergenceError) as new:
            integrate(p, hist_standard, T=1.0, K=64)
        with pytest.raises(DivergenceError) as old:
            _parent_integrate(p, hist_standard, 1.0, 64)
        assert new.value.t == old.value.t

    def test_same_positivity_error(self):
        # with k1 = 1 the RK4 step drives I below HARD_NEG within a few steps
        p = Parameters(**{**_P, "k1": 1.0})
        hist = History.constant(p.tau, 1e-3, 10.0, 0.0)
        with pytest.raises(PositivityError) as new:
            integrate(p, hist, T=3.0, K=16)
        with pytest.raises(PositivityError) as old:
            _parent_integrate(p, hist, 3.0, 16)
        assert new.value.t == old.value.t

    def test_unread_negative_midpoint(self):
        # the Hermite Q at the midpoint of step 16 is -2.88, but only step 24 reads it;
        # a stage Q of step 17 goes to -19.04 first. Sigma of a midpoint is taken by the
        # step that reads it, so the run fails at step 17, as the parent loop does.
        p = Parameters(alpha=3.1083749610555245, k1=0.37251218892822213, k2=0.770341549388862,
                       d=4.380605930061192, m=0.9795003880230945, b=16.79385934324882,
                       mu=0.3178833207280794, tau=0.9176594066234001, M=100.0)
        hist = History.constant(p.tau, 4.291277458592439, 1.8066747693548275, 1.0725755202694103)
        h = p.tau / 8
        with pytest.raises(PositivityError, match=r"before t=2\.06473: sigma is only defined "
                           r"for x >= 0, got -19\.0379") as new:
            integrate(p, hist, T=5.0, K=8)
        assert new.value.t == 18 * h
        assert isinstance(new.value.__cause__, DomainError)
        # the parent loop raises sigma's DomainError itself: through step 16 it runs,
        # and step 17 fails on the same value
        _parent_integrate(p, hist, 17 * h, 8)
        with pytest.raises(DomainError) as old:
            _parent_integrate(p, hist, 18 * h, 8)
        value = float(str(new.value.__cause__).rsplit("got ", 1)[1])
        assert repr(value) in str(old.value).rsplit("got ", 1)[1]


def _written_out_case(case):
    """(p, hist, T, K) of a TestDriftWrittenOut case, from a committed scenario."""
    sc = parse_scenario(CONCENTRATION_SCENARIO if case == "concentration" else REFERENCE_SCENARIO)
    p, hist = sc.parameters, sc.history
    if case == "table":
        hist = _table_history(p.tau)
    elif case == "q-past-m":  # Q stays on sigma's plateau, past M + 1
        p = dataclasses.replace(p, M=2.0, d=1.5)
        hist = History.constant(p.tau, 0.5, 50.0, 1.0)
    elif case == "bridge":  # Q climbs from 10 over the bridge (M, M + 1)
        p = dataclasses.replace(p, M=12.0)
    elif case == "k2-zero":  # the run compare-coinfection makes beside the scenario's
        p = p.with_k2(0.0)
    return p, hist, sc.run.T, sc.run.K


# (parameters, history, T, K) of runs that fail: the guard's PositivityError, sigma's
# DomainError at a stage, re-raised as PositivityError, and a DivergenceError
_FAILING_CASES = {
    "guard": (dict(_P, k1=1.0), (1e-3, 10.0, 0.0), 3.0, 16),
    "negative-stage": (dict(_P, k1=10.0), (0.5, 10.0, 0.0), 3.0, 8),
    "blowup": (dict(_P, alpha=40.0, k1=1e-30, k2=0.0), (0.5, 10.0, 1.0), 1.0, 64),
}


class TestDriftWrittenOut:
    """`integrate` writes `model._rates_for` out; the loop that calls it gives the same bits."""

    @pytest.mark.parametrize("case", ["reference", "concentration", "table", "q-past-m",
                                      "bridge", "k2-zero"])
    def test_bitwise_equal(self, case):
        p, hist, T, K = _written_out_case(case)
        traj, ref = integrate(p, hist, T, K), integrate_through_rates(p, hist, T, K)
        assert np.array_equal(traj.states, ref.states)
        assert np.array_equal(traj.derivs, ref.derivs)
        assert (traj.clamp_count, traj.warn_count, traj.min_component) == (
            ref.clamp_count, ref.warn_count, ref.min_component)
        q = traj.states[:, 2]
        if case == "q-past-m":
            assert q.min() > p.M + 1.0
        if case == "bridge":
            assert ((p.M < q) & (q < p.M + 1.0)).any()

    @pytest.mark.parametrize("case", sorted(_FAILING_CASES))
    def test_same_failure(self, case):
        params, (s0, q0, i0), T, K = _FAILING_CASES[case]
        p = Parameters(**params)
        hist = History.constant(p.tau, s0, q0, i0)
        with pytest.raises((PositivityError, DivergenceError)) as new:
            integrate(p, hist, T, K)
        with pytest.raises(new.type) as old:
            integrate_through_rates(p, hist, T, K)
        assert (new.value.t, str(new.value)) == (old.value.t, str(old.value))


def _column(*values):
    return np.array(values, dtype=float).reshape(3, -1)


class TestGuard:
    """The positivity rule both engines share, on hand-built (3, n) states."""

    def test_clean_state_passes_through(self):
        guard = dde._Guard()
        y = _column(0.0, 1.0, 1e12)
        assert guard.apply(y, 1.0) is y
        assert (guard.clamp_count, guard.warn_count, guard.min_component) == (0, 0, 0.0)

    def test_dust_clamped_and_negative_zero_kept(self):
        guard = dde._Guard(range(2).__getitem__)
        y = np.array([[-1e-13, -0.0], [0.5, -1e-12], [-0.0, 2.0]])
        out = guard.apply(y, 0.5)
        assert np.array_equal(out, [[0.0, 0.0], [0.5, 0.0], [0.0, 2.0]])
        assert np.array_equal(np.signbit(out), [[False, True], [False, False], [True, False]])
        assert (guard.clamp_count, guard.warn_count, guard.min_component) == (2, 0, -1e-12)

    def test_warnings_counted_and_kept(self):
        guard = dde._Guard()
        y = _column(-1e-9, 3.0, -1e-6)
        assert np.array_equal(guard.apply(y, 0.5), y)
        guard.apply(_column(-2e-12, 1.0, 1.0), 0.75)
        assert (guard.clamp_count, guard.warn_count, guard.min_component) == (0, 3, -1e-6)

    # `labels` is the guard's function naming a column
    @pytest.mark.parametrize("labels, who", [(None, "trajectory"),
                                             (partial(operator.getitem, [4, 9]), "path 9")])
    def test_hard_negative(self, labels, who):
        guard = dde._Guard(labels)
        y = np.array([[1.0, -1e-13], [1.0, 1.0], [1.0, -2e-6]])
        with pytest.raises(PositivityError) as err:
            guard.apply(y, 2.5)
        assert err.value.t == 2.5
        assert str(err.value).startswith(f"{who} component 2 reached -2e-06 at t=2.5")
        assert guard.min_component == -2e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12, -2e12])
    @pytest.mark.parametrize("labels, who", [(None, "trajectory"),
                                             (partial(operator.add, 100), "path 101")])
    def test_blowup(self, bad, labels, who):
        guard = dde._Guard(labels)
        y = np.array([[1.0, 1.0], [1.0, bad], [1.0, -1.0]])  # also hard-negative in path 1
        with pytest.raises(DivergenceError) as err:
            guard.apply(y, 3.0)
        assert err.value.t == 3.0
        assert str(err.value) == f"{who} blew up at t=3 (component 1 = {float(bad)!r})"
        assert (guard.clamp_count, guard.warn_count, guard.min_component) == (0, 0, 0.0)

    def test_blowup_names_the_first_path(self):
        y = np.array([[1.0, np.inf], [1.0, 1.0], [np.nan, 1.0]])
        with pytest.raises(DivergenceError, match=r"^path 3 blew up .*\(component 2 = nan\)$"):
            dde._Guard([3, 8].__getitem__).apply(y, 1.0)

    def test_columns_are_named_only_in_errors(self):
        # an ensemble's columns are named through a function, called by a failure alone
        def unasked(c):
            raise AssertionError(f"column {c} was named without an error")

        guard = dde._Guard(unasked)
        y = np.array([[0.0, 1.0], [0.5, 2.0], [1e12, 3.0]])
        assert guard.apply(y, 1.0) is y
        out = guard.apply(np.array([[-1e-13, 1.0], [0.5, -1e-9], [1.0, 2.0]]), 1.5)
        assert np.array_equal(out, [[0.0, 1.0], [0.5, -1e-9], [1.0, 2.0]])
        assert (guard.clamp_count, guard.warn_count) == (1, 1)
        guard = dde._Guard(lambda j: 100 + j)
        with pytest.raises(PositivityError, match=r"^path 101 component 2 reached -2e-06 "):
            guard.apply(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -2e-6]]), 2.0)
        with pytest.raises(DivergenceError, match=r"^path 101 blew up at t=3 "):
            guard.apply(np.array([[1.0, 1.0], [1.0, np.inf], [1.0, 1.0]]), 3.0)
