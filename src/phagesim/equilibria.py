"""Closed-form equilibria and linear stability at the bacteria-free point."""

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EquilibriumExistenceError

REGIME_UNIQUE_E0 = "unique-e0"
REGIME_SMALL_DOSE = "small-dose-efficient"
REGIME_LARGE_DOSE = "large-dose-nonefficient"
REGIME_TRUNCATION = "truncation-excluded"
DET_TOL = 1e-10  # the largest characteristic-determinant residual accepted at a root


@dataclass(frozen=True)
class EquilibriumSet:
    e0: np.ndarray
    coexistence: Optional[np.ndarray]
    regime: str


@dataclass(frozen=True)
class StabilityInfo:
    eigenvalues: tuple
    stable: bool
    gamma: float
    eta: float


def bacteria_free(p):
    """The bacteria-free equilibrium (0, 0, d/m); needs d/m < M so sigma is the identity there."""
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


def equilibrium_set(p):
    point, regime = coexistence(p)
    return EquilibriumSet(e0=bacteria_free(p), coexistence=point, regime=regime)


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


def stability_at_e0(p):
    """Explicit eigenvalues at E0 plus the convergence-rate constants.

    The delayed characteristic matrix is lower triangular, so the spectrum
    is independent of tau; the determinant is still evaluated at each root
    as a consistency check.
    """
    if p.d / p.m >= p.M:
        raise EquilibriumExistenceError("stability at E0 needs d/m < M")
    lam1 = p.alpha - p.k1 * p.d / p.m
    eigenvalues = (lam1, -p.mu, -p.m)
    for lam in eigenvalues:
        residual = abs(characteristic_determinant(lam, p))
        if residual >= DET_TOL:
            raise RuntimeError(
                f"characteristic determinant residual {residual:g} at lambda={lam:g}"
            )
    gamma = -lam1
    return StabilityInfo(
        eigenvalues=eigenvalues,
        stable=lam1 < 0.0,
        gamma=gamma,
        eta=min(gamma, p.m, p.mu),
    )


def report(p):
    """Equilibrium/stability summary as (dict, text) for the CLI."""
    eq = equilibrium_set(p)
    st = stability_at_e0(p)
    payload = {
        "e0": list(eq.e0),
        "coexistence": None if eq.coexistence is None else list(eq.coexistence),
        "regime": eq.regime,
        "eigenvalues": list(st.eigenvalues),
        "stable": st.stable,
        "gamma": st.gamma,
        "eta": st.eta,
    }
    lines = [
        f"bacteria-free equilibrium E0 = (0, 0, {eq.e0[2]:.12g})",
        f"regime: {eq.regime}",
    ]
    if eq.coexistence is not None:
        s, i, q = eq.coexistence
        lines.append(f"coexistence point = ({s:.12g}, {i:.12g}, {q:.12g})")
    lines.append(
        "eigenvalues at E0: "
        + ", ".join(f"{lam:.12g}" for lam in st.eigenvalues)
        + f"  ({'stable' if st.stable else 'unstable'})"
    )
    lines.append(f"gamma = {st.gamma:.12g}, eta = {st.eta:.12g}")
    return payload, "\n".join(lines)


def to_json(p):
    return json.dumps(report(p)[0], indent=2)
