"""Validation of the standing assumptions and the derived thresholds.

Every inequality the analysis relies on is checked numerically for a given
parameter/history pair; failures are reported with their raw margins. The
margin is signed so that "pass" means margin > 0 for a strict inequality and
margin >= 0 for a non-strict one; `_check` is that rule.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import bacteria_free
from .errors import HypothesisError
from .model import SigmaFn

_SCAN_STEP = 1e-4
_REFINE = 8  # points of the dense history lookup per history grid interval


@dataclass(frozen=True)
class RegionBounds:
    """The invariant box R1 x R2 x R3 = [0,s_max] x [0,i_max] x [q_min, q_max]."""

    s_max: float
    i_max: float
    q_min: float
    q_max: float


@dataclass
class CheckEntry:
    id: str
    description: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    informational: bool = False

    def __post_init__(self):
        # numpy scalars sneak in from vectorized checks; keep entries JSON-friendly
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.margin = float(self.margin)
        self.passed = bool(self.passed)


def _check(entry_id, description, lhs, relation, rhs, informational=False):
    """The entry for `lhs relation rhs`, relation one of >, >=, <, <=.

    The margin is lhs - rhs for > and >=, rhs - lhs for < and <=; a strict
    relation passes on margin > 0, a non-strict one on margin >= 0.
    """
    margin = lhs - rhs if relation in (">", ">=") else rhs - lhs
    passed = margin > 0.0 if relation in (">", "<") else margin >= 0.0
    return CheckEntry(entry_id, description, lhs, rhs, margin, passed, informational)


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries if not e.informational)

    def to_json(self):
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {
                        "id": e.id,
                        "description": e.description,
                        "lhs": e.lhs,
                        "rhs": e.rhs,
                        "margin": e.margin,
                        "pass": e.passed,
                        "informational": e.informational,
                    }
                    for e in self.entries
                ],
            },
            indent=2,
        )

    def to_text(self):
        lines = [
            f"{'check':<14} {'pass':<5} {'lhs':>14} {'rhs':>14} {'margin':>14}  description"
        ]
        for e in self.entries:
            flag = "info" if e.informational and e.passed else ("ok" if e.passed else "FAIL")
            lines.append(
                f"{e.id:<14} {flag:<5} {e.lhs:>14.6g} {e.rhs:>14.6g} "
                f"{e.margin:>14.6g}  {e.description}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _burst_rate(p):
    # b * exp(-mu*tau) * mu, the recurring group in the thresholds; they divide by it,
    # and the region's S bound by k1 b exp(-mu*tau) M
    br = p.effective_burst * p.mu
    if br == 0.0 or p.k1 * p.effective_burst * p.M == 0.0:
        raise HypothesisError(f"b e^(-mu tau) = {p.effective_burst:.3g} at mu tau = "
                              f"{p.mu * p.tau:g} underflows in the thresholds that divide by it")
    return br


def _headroom(p):
    # m M - d, the capacity above the dose that nu and the region bounds scale with
    return p.m * p.M - p.d


def compute_nu(p):
    """Lower boundary of the phage component of the invariant region; needs E0 (d/m < M)."""
    bacteria_free(p)
    br = _burst_rate(p)
    return p.d * br / (p.m * br + p.k2 * _headroom(p))


def minimal_dose(p):
    """Smallest inoculation rate d for which the dose hypothesis holds.

    Solves the dose inequality as an equality in d; the k2 term makes the
    threshold grow with the coinfection adsorption rate.
    """
    br = _burst_rate(p)
    return (p.alpha * p.m / p.k1) * (br + p.k2 * p.M) / (br + (p.alpha / p.k1) * p.k2)


def invariant_region(p):
    """The box of the boundedness result; needs E0 (d/m < M), through compute_nu."""
    q_min = compute_nu(p)
    head = _headroom(p)
    return RegionBounds(
        s_max=head / (p.k1 * p.effective_burst * p.M),
        i_max=head / (p.effective_burst * p.mu),
        q_min=q_min,
        q_max=p.M,
    )


def check_sigma(sigma):
    """Lattice verification of the truncation-function invariants.

    The lattice is i * _SCAN_STEP on [max(0, M-1), M+2], the points of a
    scan of [0, M+2] that hold the bridge with a unit of each side. Below it
    sigma returns x and past it M+1 by construction, so a longer scan adds
    no coverage, only memory that grows with M.
    """
    m = sigma.m_threshold
    n_end = math.ceil((m + 2.0 + _SCAN_STEP) / _SCAN_STEP)  # len(np.arange(0, m+2+step, step))
    xs = np.arange(int(max(0.0, m - 1.0) / _SCAN_STEP), n_end) * _SCAN_STEP
    vals = sigma(xs)
    primes = sigma.prime(xs)

    ident = xs <= m
    identity_err = float(np.max(np.abs(vals[ident] - xs[ident])))
    plateau_err = float(np.max(np.abs(vals[xs >= m + 1.0] - (m + 1.0))))
    mono_margin = float(np.min(np.diff(vals)))
    prime_min = float(np.min(primes))
    prime_max = float(np.max(primes))
    centered = (vals[2:] - vals[:-2]) / (2.0 * _SCAN_STEP)
    fd_err = float(np.max(np.abs(centered - primes[1:-1]) / np.maximum(1.0, np.abs(primes[1:-1]))))
    # xs and vals near M+2 are rounded to about spacing(M+2), which the
    # difference quotient divides by 2*_SCAN_STEP: from M of about 1e6 that
    # alone exceeds 1e-6
    fd_bound = 1e-6 + 4.0 * float(np.spacing(m + 2.0)) / (2.0 * _SCAN_STEP)

    # Not _check entries: the identity margin is -err, which is -0.0 on a pass
    # where 0.0 - err would be +0.0, and its verdict fails on a NaN in either
    # error; the other two verdicts join several conditions.
    err = max(identity_err, plateau_err)
    return [
        CheckEntry(
            "sigma-identity", "sigma(x) = x on [0, M] and sigma = M+1 past M+1 (max abs error)",
            err, 0.0, -err, identity_err == 0.0 and plateau_err == 0.0,
        ),
        CheckEntry(
            "sigma-monotone", "sigma nondecreasing on a dense grid (min forward difference)",
            mono_margin, 0.0, mono_margin, mono_margin >= 0.0 and prime_min >= 0.0,
        ),
        CheckEntry(
            "sigma-slope", "0 <= sigma' <= 1.9 on [0, M+2], agreeing with finite differences",
            prime_max, 1.9, 1.9 - prime_max,
            prime_min >= 0.0 and prime_max <= 1.9 and fd_err <= fd_bound,
        ),
    ]


def _simpson(f, a, b, n):
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def required_initial_mass(hist, p):
    """k1*exp(-mu*tau) * integral of sigma(Q0)*S0 over [-tau, 0], by adaptive Simpson."""
    sigma = SigmaFn(p.M)
    f = lambda t: sigma(hist.q(t)) * hist.s(t)
    n = max(2 * (len(hist.grid) - 1), 8)
    prev = _simpson(f, -p.tau, 0.0, n)
    for _ in range(20):
        n *= 2
        cur = _simpson(f, -p.tau, 0.0, n)
        if abs(cur - prev) <= 1e-10 * max(abs(cur), 1e-30):
            prev = cur
            break
        prev = cur
    return p.k1 * p.attenuation * prev


def check_initial_mass(hist, p):
    """Initial infected mass must cover the pre-history lysis debt."""
    return _check(
        "infected-mass", "I0 >= k1 e^{-mu tau} int sigma(Q0) S0",
        hist.i0, ">=", required_initial_mass(hist, p),
    )


def check_delay_hypotheses(hist, p):
    """The four initial-condition clauses, each as a worst-case margin over [-tau, 0]; need E0."""
    region = invariant_region(p)
    ts = np.linspace(-hist.tau, 0.0, _REFINE * (len(hist.grid) - 1) + 1)
    s0, q0 = hist.s(ts), hist.q(ts)
    br = _burst_rate(p)

    region_margin = min(
        float(s0.min()),
        float(p.M - s0.max()),
        hist.i0,
        p.M - hist.i0,
        float(q0.min()) - region.q_min,
        float(p.M - q0.max()),
    )
    pressure = (p.m * br + p.k2 * _headroom(p)) * q0 * s0
    return [
        _check(
            "init-region", "(S0(t), I0, Q0(t)) in R0 = [0,M] x [0,M] x [nu, M]",
            region_margin, ">=", 0.0,
        ),
        _check(
            "phage-pressure", "(m b e^{-mu tau} mu + k2(mM-d)) Q0(t) S0(t) > d mu S0(0)",
            float(pressure.min()), ">", p.d * p.mu * hist.s(0.0),
        ),
        _check("burst-viability", "b e^{-mu tau} > 1", p.effective_burst, ">", 1.0),
        _check(
            "bacteria-cap", "S0(t) < (mM-d)/(k1 b e^{-mu tau} M)",
            float(s0.max()), "<", region.s_max,
        ),
        _check("infected-cap", "I0 < (mM-d)/(b e^{-mu tau} mu)", hist.i0, "<", region.i_max),
    ]


def check_dose(p):
    """The dose hypothesis: d/m < M and the k2-inflated dose threshold."""
    br = _burst_rate(p)
    threshold = (p.alpha * p.m / p.k1) * (br + p.k2 * (p.M - p.d / p.m)) / br
    capacity = _check("dose-capacity", "d/m < M", p.d / p.m, "<", p.M)
    entries = [
        capacity,
        _check(
            "dose-threshold",
            "d > (alpha m / k1)(b e^{-mu tau} mu + k2(M - d/m))/(b e^{-mu tau} mu)",
            p.d, ">", threshold,
        ),
    ]
    # Derived chain alpha/k1 < nu < d/m < M; reported, not a hypothesis itself.
    if capacity.passed:
        nu = compute_nu(p)
        chain = min(nu - p.alpha / p.k1, p.d / p.m - nu, p.M - p.d / p.m)
        entries.append(
            _check(
                "dose-chain", "derived chain alpha/k1 < nu < d/m < M",
                chain, ">", 0.0, informational=True,
            )
        )
    return entries


def validate(p, hist):
    """Full report over every standing assumption for one parameter/history pair."""
    report = ValidationReport()
    report.entries.extend(check_sigma(SigmaFn(p.M)))
    report.entries.append(check_initial_mass(hist, p))
    dose = check_dose(p)
    capacity = dose[0]  # d/m < M: whether E0, and with it the region, exists
    if capacity.passed:
        report.entries.extend(check_delay_hypotheses(hist, p))
    else:
        # the dose-capacity failure restated; always a failure, so not a _check entry
        report.entries.append(CheckEntry(
            "init-clauses", "delay hypotheses unevaluable: d/m >= M breaks the region definition",
            capacity.lhs, capacity.rhs, capacity.margin, False,
        ))
    report.entries.extend(dose)
    return report
