import os
import tracemalloc

import numpy as np
import pytest

from phagesim import History, Parameters, SigmaFn, dde, hypotheses, sde

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
REFERENCE_SCENARIO = os.path.abspath(os.path.join(SCENARIO_DIR, "reference.json"))
CONCENTRATION_SCENARIO = os.path.abspath(os.path.join(SCENARIO_DIR, "concentration.json"))


@pytest.fixture(scope="session")
def p_star():
    """Reference parameter set: strongly dosed, bacteria-free regime."""
    return Parameters(alpha=0.5, k1=0.1, k2=0.05, d=20.0, m=1.0, b=10.0,
                      mu=0.2, tau=1.0, M=100.0)


@pytest.fixture(scope="session")
def p_co():
    """Low-dose variant admitting a coexistence equilibrium."""
    return Parameters(alpha=0.5, k1=0.1, k2=0.05, d=3.0, m=1.0, b=10.0,
                      mu=0.2, tau=1.0, M=100.0)


@pytest.fixture(scope="session")
def p_conc():
    """Small-equilibrium variant used for the concentration experiment."""
    return Parameters(alpha=0.5, k1=1.0, k2=0.05, d=2.4, m=1.0, b=10.0,
                      mu=0.2, tau=1.0, M=100.0)


@pytest.fixture(scope="session")
def sigma(p_star):
    return SigmaFn(p_star.M)


@pytest.fixture(scope="session")
def hist_standard(p_star):
    """The standard initial data: S0=0.5, Q0=10, I0=1, all hypotheses hold."""
    return History.constant(p_star.tau, 0.5, 10.0, 1.0)


@pytest.fixture(scope="session")
def hist_conc(p_conc):
    return History.constant(p_conc.tau, 0.05, 1.0, 0.05)


def step_all(p, hist, run, dw, path_indices):
    """All nodes of `sde._step_paths` driven by full (n_steps, 2, n) increments as one block."""
    eps, guard = np.full(len(path_indices), p.eps), dde._Guard(path_indices.__getitem__)
    blocks = sde._step_paths(p, hist, run, eps, [dw], guard)
    return np.concatenate([block.copy() for _, block in blocks])


def simulate_paths(p, hist, run, path_indices):
    """Every node of the paths, stepped together on arrays: (times, nodes, guard)."""
    guard = dde._Guard(path_indices.__getitem__)
    increments = sde._increments(p, run, path_indices, sde.DRAW_STEPS)
    blocks = sde._step_paths(p, hist, run, np.full(len(path_indices), p.eps), increments, guard)
    nodes = np.concatenate([block.copy() for _, block in blocks])
    return (p.tau / run.K) * np.arange(len(nodes)), nodes, guard


def peak_bytes(fn):
    """The most memory fn held at once beyond what was held before it, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def random_validated_scenario(rng, max_tries=200):
    """Draw (Parameters, History) until the full hypothesis suite passes."""
    for _ in range(max_tries):
        p = Parameters(
            alpha=rng.uniform(0.2, 1.0),
            k1=rng.uniform(0.05, 0.5),
            k2=rng.uniform(0.0, 0.1),
            d=1.0,  # placeholder, replaced below
            m=rng.uniform(0.5, 2.0),
            b=rng.uniform(5.0, 20.0),
            mu=rng.uniform(0.1, 0.5),
            tau=rng.uniform(0.5, 2.0),
            M=100.0,
        )
        d = hypotheses.minimal_dose(p) * rng.uniform(1.05, 1.5)
        if d / p.m >= 0.5 * p.M:
            continue
        import dataclasses

        p = dataclasses.replace(p, d=d)
        try:
            region = hypotheses.invariant_region(p)
        except Exception:
            continue
        s0 = rng.uniform(0.05, 0.9) * region.s_max
        q0 = rng.uniform(max(1.2 * region.q_min, 0.8 * d / p.m), 1.5 * d / p.m)
        if q0 >= p.M:
            continue
        # the sharp positivity threshold for I with a constant history is
        # k1*q0*s0*(1 - e^{-mu*tau})/mu (exponentially weighted integral); it
        # dominates the validator's plain integral bound, so sampling above it
        # keeps both the hypothesis check and true positivity satisfied
        import math

        sharp = p.k1 * q0 * s0 * (1.0 - math.exp(-p.mu * p.tau)) / p.mu
        i0 = 1.1 * sharp + 0.01
        if i0 >= region.i_max:
            continue
        hist = History.constant(p.tau, s0, q0, i0)
        report = hypotheses.validate(p, hist)
        if report.passed:
            return p, hist
    raise RuntimeError("could not sample a validated scenario")
