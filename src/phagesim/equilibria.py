"""Closed-form equilibria and linear stability at the bacteria-free point."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumExistenceError

REGIME_UNIQUE_E0 = "unique-e0"
REGIME_SMALL_DOSE = "small-dose-efficient"
REGIME_LARGE_DOSE = "large-dose-nonefficient"
REGIME_TRUNCATION = "truncation-excluded"


@dataclass(frozen=True)
class StabilityInfo:
    eigenvalues: tuple
    stable: bool
    gamma: float
    eta: float


def bacteria_free(p):
    """The bacteria-free equilibrium (0, 0, d/m); the one test of d/m < M, which makes sigma
    the identity there and on which stability at E0, nu and the invariant region rest."""
    if p.d / p.m >= p.M:
        raise EquilibriumExistenceError(
            f"bacteria-free equilibrium needs d/m < M, got d/m={p.d / p.m:g} >= M={p.M:g}"
        )
    return np.array([0.0, 0.0, p.d / p.m])


def coexistence(p):
    """Interior equilibrium, if the dose/efficiency regime admits one.

    Returns (point or None, regime tag). The two existence bands come from
    requiring the closed-form S_c to be positive.
    """
    qc = p.alpha / p.k1
    if p.M + 1.0 < qc:
        return None, REGIME_TRUNCATION
    if p.M < qc:
        # sigma is not the identity at alpha/k1; outside the analyzed regimes
        return None, REGIME_UNIQUE_E0

    ebt = p.effective_burst
    fade = 1.0 - math.exp(-p.mu * p.tau)
    band_edge = (p.alpha / p.mu) * (p.k2 / p.k1) * fade + 1.0
    small_dose = p.d <= p.m * qc and ebt > band_edge
    large_dose = p.d >= p.m * qc and 1.0 < ebt < band_edge
    if not (small_dose or large_dose):
        return None, REGIME_UNIQUE_E0

    denom = p.alpha * (p.mu * p.k1 * (1.0 - ebt) + p.alpha * p.k2 * fade)
    if denom == 0.0:
        return None, REGIME_UNIQUE_E0
    sc = p.mu * (p.k1 * p.d - p.m * p.alpha) / denom
    if sc <= 0.0:
        # boundary d = m*alpha/k1: the point degenerates onto S = 0
        return None, REGIME_UNIQUE_E0
    ic = (p.alpha / p.mu) * fade * sc
    point = np.array([sc, ic, qc])
    return point, REGIME_SMALL_DOSE if small_dose else REGIME_LARGE_DOSE


def stability_at_e0(p):
    """Explicit eigenvalues at E0 plus the convergence-rate constants.

    The delayed characteristic matrix is lower triangular with diagonal
    (lam - lam1, lam + mu, lam + m), so these are its roots for every tau.
    """
    bacteria_free(p)
    lam1 = p.alpha - p.k1 * p.d / p.m
    gamma = -lam1
    return StabilityInfo(
        eigenvalues=(lam1, -p.mu, -p.m),
        stable=lam1 < 0.0,
        gamma=gamma,
        eta=min(gamma, p.m, p.mu),
    )


def report(p):
    """Equilibrium/stability summary as (dict, text) for the CLI."""
    point, regime = coexistence(p)
    e0 = bacteria_free(p)
    st = stability_at_e0(p)
    payload = {
        "e0": list(e0),
        "coexistence": None if point is None else list(point),
        "regime": regime,
        "eigenvalues": list(st.eigenvalues),
        "stable": st.stable,
        "gamma": st.gamma,
        "eta": st.eta,
    }
    lines = [
        f"bacteria-free equilibrium E0 = (0, 0, {e0[2]:.12g})",
        f"regime: {regime}",
    ]
    if point is not None:
        s, i, q = point
        lines.append(f"coexistence point = ({s:.12g}, {i:.12g}, {q:.12g})")
    lines.append(
        "eigenvalues at E0: "
        + ", ".join(f"{lam:.12g}" for lam in st.eigenvalues)
        + f"  ({'stable' if st.stable else 'unstable'})"
    )
    lines.append(f"gamma = {st.gamma:.12g}, eta = {st.eta:.12g}")
    return payload, "\n".join(lines)
