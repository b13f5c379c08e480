"""Acceptance gate: one test (and one pass/fail line) per release criterion.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines;
each test also prints an explicit verdict line (visible with -s or on failure).
"""

import math
import time

import numpy as np

from phagesim import (
    History,
    Parameters,
    RunSettings,
    SigmaFn,
    dde,
    equilibria,
    hypotheses,
)
from phagesim.sde import (
    SCHEME_EULER,
    SCHEME_HEUN,
    concentration_experiment,
    ensemble,
    sample_path,
)

from artifacts import failing_ids
from conftest import random_validated_scenario, simulate_paths, step_all
from model_reference import drift

P_STAR = Parameters(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0,
                    mu=0.2, tau=1.0, M=100.0)
P_CO = Parameters(alpha=0.5, k1=0.1, k2=0.05, d=3.0, m=1.0, b=10.0,
                  mu=0.2, tau=1.0, M=100.0)
P_CONC = Parameters(alpha=0.5, k1=1.0, k2=0.05, d=2.4, m=1.0, b=10.0,
                    mu=0.2, tau=1.0, M=100.0)
HIST_STANDARD = History.constant(1.0, 0.5, 10.0, 1.0)
HIST_CONC = History.constant(1.0, 0.05, 1.0, 0.05)
SIGMA = SigmaFn(100.0)


def _verdict(num, name, checks, elapsed, budget):
    failed = [label for label, ok in checks if not ok]
    ok = not failed and elapsed < budget
    line = (
        f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s / budget {budget:g}s"
        + (f"; failed: {', '.join(failed)}" if failed else "")
        + (", over budget" if elapsed >= budget else "")
        + ")"
    )
    print(line)
    assert ok, line


def test_criterion_1_equilibrium_correctness():
    start = time.perf_counter()
    checks = []
    for p in (P_STAR, P_CO):
        e0 = equilibria.bacteria_free(p)
        res = float(np.max(np.abs(drift(e0, e0, p, SIGMA))))
        checks.append((f"E0 residual (d={p.d:g})", res < 1e-10))
        st = equilibria.stability_at_e0(p)
        expected = (p.alpha - p.k1 * p.d / p.m, -p.mu, -p.m)
        gap = max(abs(a - b) for a, b in zip(st.eigenvalues, expected))
        checks.append((f"eigenvalues (d={p.d:g})", gap < 1e-12))
    point, regime = equilibria.coexistence(P_CO)
    res = float(np.max(np.abs(drift(point, point, P_CO, SIGMA))))
    checks.append(("coexistence residual", res < 1e-10))
    checks.append(("coexistence regime", regime == "small-dose-efficient"))
    _verdict(1, "equilibrium correctness", checks, time.perf_counter() - start, 1.0)


def test_criterion_2_hypothesis_suite():
    start = time.perf_counter()
    checks = []

    report = hypotheses.validate(P_STAR, HIST_STANDARD)
    checks.append(("reference scenario passes", report.passed))
    # the two sigma checks assert exact identities (margin 0 by construction);
    # every inequality hypothesis must hold strictly
    exact_ids = {"sigma-identity", "sigma-monotone"}
    margins_positive = all(
        e.margin > 0
        for e in report.entries
        if not e.informational and e.id not in exact_ids
    )
    checks.append(("positive margins", margins_positive))

    import dataclasses

    low_dose = hypotheses.validate(dataclasses.replace(P_STAR, d=10.0), HIST_STANDARD)
    checks.append(("d=10 fails only the dose bound",
                   failing_ids(low_dose) == ["dose-threshold"]))

    # oversized bacteria: the initial infected mass is raised alongside so the
    # integral precondition keeps holding and only the S-bound clause trips
    big_s = hypotheses.validate(P_STAR, History.constant(P_STAR.tau, 2.0, 10.0, 2.0))
    checks.append(("S0=2 fails only the S-region clause",
                   failing_ids(big_s) == ["bacteria-cap"]))

    # b=1 also drags the (downstream) dose threshold above d; the predicted
    # clause is the effective-burst companion, asserted as the only failure
    # among the sigma/mass/delay checks
    small_b = hypotheses.validate(dataclasses.replace(P_STAR, b=1.0), HIST_STANDARD)
    pre_dose_failures = [i for i in failing_ids(small_b) if not i.startswith("dose-")]
    checks.append(("b=1 fails only the burst-viability clause",
                   pre_dose_failures == ["burst-viability"]))

    d_min = hypotheses.minimal_dose(P_STAR)
    hi = dataclasses.replace(P_STAR, d=d_min * (1 + 1e-6))
    lo = dataclasses.replace(P_STAR, d=d_min * (1 - 1e-6))
    dose_entry = lambda p: next(
        e for e in hypotheses.check_dose(p) if e.id == "dose-threshold"
    )
    checks.append(("bracketing at +1e-6 relative", dose_entry(hi).passed))
    checks.append(("bracketing at -1e-6 relative", not dose_entry(lo).passed))

    _verdict(2, "hypothesis suite", checks, time.perf_counter() - start, 1.0)


def test_criterion_3_invariant_region():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    exits = 0
    for _ in range(25):
        p, hist = random_validated_scenario(rng)
        traj = dde.integrate(p, hist, T=100.0, K=64)
        region = hypotheses.invariant_region(p)
        if dde.monitor_region(traj, region) is not None:
            exits += 1
    checks = [("zero region exits over 25 validated scenarios", exits == 0)]
    _verdict(3, "invariant region", checks, time.perf_counter() - start, 60.0)


def test_criterion_4_exponential_convergence():
    start = time.perf_counter()
    e0 = equilibria.bacteria_free(P_STAR)
    eta = equilibria.stability_at_e0(P_STAR).eta
    traj = dde.integrate(P_STAR, HIST_STANDARD, T=50.0, K=64)
    fit = dde.fit_decay(traj, e0, window=(10.0, 40.0), eta=eta)
    dist = np.linalg.norm(traj.states - e0, axis=1)
    envelope_holds = bool(
        np.all(dist <= fit.prefactor * np.exp(-eta * traj.times) * (1 + 1e-12))
    )
    checks = [
        ("eta equals 0.2", abs(eta - 0.2) < 1e-14),
        ("envelope holds at every node", envelope_holds),
        ("fitted tail rate >= 0.19", fit.fitted_rate >= 0.19),
    ]
    _verdict(4, "exponential convergence", checks, time.perf_counter() - start, 10.0)


def test_criterion_5_coinfection_comparison():
    start = time.perf_counter()
    d_min = hypotheses.minimal_dose(P_STAR)
    B = P_STAR.b * math.exp(-P_STAR.mu * P_STAR.tau) * P_STAR.mu
    d_min_oracle = (P_STAR.alpha * P_STAR.m / P_STAR.k1) * (
        (B + P_STAR.k2 * P_STAR.M) / (B + (P_STAR.alpha / P_STAR.k1) * P_STAR.k2)
    )
    d_min0 = hypotheses.minimal_dose(P_STAR.with_k2(0.0))

    p0 = P_STAR.with_k2(0.0)
    traj = dde.integrate(p0, HIST_STANDARD, T=20.0, K=64).sq()
    fit = dde.fit_decay(traj, (0.0, p0.d / p0.m), window=(8.0, 16.0), eta=1.0)

    checks = [
        ("d_min(k2=0.05) matches closed form to 1e-6 relative",
         abs(d_min - d_min_oracle) <= 1e-6 * d_min_oracle),
        ("d_min(k2=0.05) near 17.5831", abs(d_min - 17.5831) < 1e-4),
        ("d_min(0) = 5 to 1e-6 relative", abs(d_min0 - 5.0) <= 5e-6),
        ("coinfection raises the dose", d_min > d_min0),
        ("subsystem rate beats the full-model bound 4x",
         fit.fitted_rate >= 4.0 * 0.2),
    ]
    _verdict(5, "coinfection comparison", checks, time.perf_counter() - start, 20.0)


def test_criterion_6_integrator_order():
    start = time.perf_counter()
    finals = {
        K: dde.integrate(P_STAR, HIST_STANDARD, T=5.0, K=K).eval(5.0)
        for K in (16, 32, 64, 128)
    }
    e1 = np.linalg.norm(finals[16] - finals[32])
    e2 = np.linalg.norm(finals[32] - finals[64])
    e3 = np.linalg.norm(finals[64] - finals[128])
    orders = (math.log2(e1 / e2), math.log2(e2 / e3))
    checks = [
        ("Richardson order (16/32/64) >= 3.0", orders[0] >= 3.0),
        ("Richardson order (32/64/128) >= 3.0", orders[1] >= 3.0),
    ]
    _verdict(6, "deterministic integrator order", checks,
             time.perf_counter() - start, 10.0)


def test_criterion_7_stochastic_scheme_validity():
    start = time.perf_counter()
    checks = []

    # zero-noise degeneracy: the Heun kernel is compared on the standard
    # transient; the first-order Euler kernel on a small-amplitude start near
    # the equilibrium, where its O(h) bias fits under the 1e-6 bar
    path = sample_path(
        P_STAR, HIST_STANDARD, RunSettings(seed=0, T=5.0, K=2048, scheme=SCHEME_HEUN)
    )
    det = dde.integrate(P_STAR, HIST_STANDARD, T=5.0, K=2048)
    err_heun = float(np.max(np.abs(path.states - det.states)))
    checks.append(("eps=0 degeneracy (heun) < 1e-6", err_heun < 1e-6))

    hist_near = History.constant(P_STAR.tau, 1e-4, 19.9999, 1e-3)
    path = sample_path(
        P_STAR, hist_near, RunSettings(seed=0, T=5.0, K=1024, scheme=SCHEME_EULER)
    )
    det = dde.integrate(P_STAR, hist_near, T=5.0, K=1024)
    err_euler = float(np.max(np.abs(path.states - det.states)))
    checks.append(("eps=0 degeneracy (euler) < 1e-6", err_euler < 1e-6))

    # strong order on the geometric oracle with shared coarsened Brownian paths:
    # at k1 = 1e-300 the production stepper runs dS = a S dt + eps S o dW on S
    a, eps, x0, T = 0.5, 0.3, 1.0, 1.0
    p_geo = Parameters(alpha=a, k1=1e-300, k2=0.0, d=1.0, m=1.0, b=1.0, mu=1.0, tau=T,
                       M=1e3, eps=eps)
    hist_geo = History.constant(T, x0, 1.0, 1.0)
    rng = np.random.default_rng(99)
    levels = (32, 64, 128, 256)
    fine = max(levels)
    dw_fine = rng.standard_normal((400, fine)) * math.sqrt(T / fine)
    exact = x0 * np.exp(a * T + eps * dw_fine.sum(axis=1))
    errs = []
    for n_steps in levels:
        dw = np.zeros((n_steps, 2, 400))  # Q is driven by no noise
        dw[:, 0] = dw_fine.reshape(400, n_steps, fine // n_steps).sum(axis=2).T
        cfg = RunSettings(seed=0, T=T, K=n_steps)
        nodes = step_all(p_geo, hist_geo, cfg, dw, range(400))
        errs.append(math.sqrt(float(np.mean((nodes[-1, 0] - exact) ** 2))))
    slope, _ = np.polyfit(np.log([T / n for n in levels]), np.log(errs), 1)
    checks.append(("geometric-noise strong order >= 0.9", slope >= 0.9))

    p_noisy = P_STAR.with_eps(0.02)
    cfg = RunSettings(seed=11, T=5.0, K=64)
    run_a = sample_path(p_noisy, HIST_STANDARD, cfg, path_index=7)
    run_b = sample_path(p_noisy, HIST_STANDARD, cfg, path_index=7)
    checks.append(("bitwise seed reproducibility",
                   bool(np.array_equal(run_a.states, run_b.states))))

    # cross-scheme mean agreement at n=400 on a short horizon, where the Monte
    # Carlo spread dominates the per-scheme discretization bias
    p_cross = P_STAR.with_eps(0.05)
    final = {}
    for scheme in (SCHEME_HEUN, SCHEME_EULER):
        cfg = RunSettings(seed=21, T=2.0, K=256, scheme=scheme)
        _, nodes, _ = simulate_paths(p_cross, HIST_STANDARD, cfg, list(range(400)))
        final[scheme] = nodes[-1]
    agree = True
    for k in range(3):
        va, vb = final[SCHEME_HEUN][k], final[SCHEME_EULER][k]
        se = math.sqrt(va.var(ddof=1) / 400 + vb.var(ddof=1) / 400)
        agree = agree and abs(va.mean() - vb.mean()) <= 3.0 * se
    checks.append(("cross-scheme mean agreement within 3 SE at n=400", agree))

    _verdict(7, "stochastic scheme validity", checks,
             time.perf_counter() - start, 120.0)


def test_criterion_8_concentration_structure():
    start = time.perf_counter()
    # eps = 0.05 saturates (400/400) and eps = 0.01 sees no exceedance, so
    # eps = 0.03 gives the slope its second row with tail information
    table = concentration_experiment(
        P_CONC, HIST_CONC, RunSettings(eps_list=[0.05, 0.03, 0.02, 0.01], rho=0.05, kappa1=1.2,
                                       kappa2=2.0, n=400, seed=2024),
    )
    p_hats = [r.p_hat for r in table.rows]
    non_increasing = all(p_hats[i] >= p_hats[i + 1] for i in range(len(p_hats) - 1))
    checks = [("exceedance non-increasing in eps", non_increasing)]
    usable_rows = sum(1 for r in table.rows if 0 < r.exceed < r.n)
    checks.append(("at least 2 rows with 0 < exceed < n", usable_rows >= 2))
    slope = table.log_prob_slope()
    checks.append(("ln(p_hat) vs 1/eps^2 slope < 0", slope is not None and slope < 0.0))
    _verdict(8, "concentration structure", checks, time.perf_counter() - start, 300.0)


def test_criterion_9_positivity():
    start = time.perf_counter()
    checks = []

    det = dde.integrate(P_STAR, HIST_STANDARD, T=50.0, K=64)
    checks.append(("deterministic min component >= -1e-6",
                   det.min_component >= -1e-6))

    rng = np.random.default_rng(7)
    worst_random = 0.0
    for _ in range(5):
        p, hist = random_validated_scenario(rng)
        traj = dde.integrate(p, hist, T=50.0, K=64)
        worst_random = min(worst_random, traj.min_component)
    checks.append(("deterministic validated scenarios >= -1e-6",
                   worst_random >= -1e-6))

    cfg = RunSettings(seed=13, T=50.0, K=64, n=200, window=[0.0, 50.0])
    stats = ensemble(P_STAR.with_eps(0.01), HIST_STANDARD, cfg)
    checks.append(("stochastic (eps=0.01, 200 paths) >= -1e-6",
                   stats.min_component >= -1e-6))

    _verdict(9, "positivity", checks, time.perf_counter() - start, 120.0)
