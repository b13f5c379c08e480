import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phagesim import History, Parameters, SigmaFn, compute_nu, invariant_region, minimal_dose
from phagesim import equilibria, hypotheses
from phagesim.errors import EquilibriumExistenceError

from artifacts import failing_ids


def test_nu_reference_value(p_star):
    assert compute_nu(p_star) == pytest.approx(5.8092, abs=5e-5)
    # independent re-derivation through the grouped constant
    br = p_star.b * math.exp(-p_star.mu * p_star.tau) * p_star.mu
    assert compute_nu(p_star) == pytest.approx(20 * br / (br + 0.05 * 80), rel=1e-14)


def test_nu_collapses_without_coinfection(p_star):
    p = p_star.with_k2(0.0)
    assert compute_nu(p) == pytest.approx(p.d / p.m, rel=1e-14)


def test_nu_vanishing_dose(p_star):
    p = dataclasses.replace(p_star, d=1e-12)
    assert compute_nu(p) == pytest.approx(0.0, abs=1e-10)


def test_nu_precondition(p_star):
    p = dataclasses.replace(p_star, d=200.0)
    with pytest.raises(EquilibriumExistenceError):
        compute_nu(p)


@given(k2a=st.floats(0.0, 0.2), k2b=st.floats(0.0, 0.2))
@settings(max_examples=100, deadline=None)
def test_nu_decreasing_in_k2(p_star, k2a, k2b):
    lo, hi = sorted((k2a, k2b))
    if hi - lo < 1e-12:
        return
    assert compute_nu(p_star.with_k2(hi)) < compute_nu(p_star.with_k2(lo))


class TestMinimalDose:
    def test_reference_value(self, p_star):
        assert minimal_dose(p_star) == pytest.approx(17.5831, abs=1e-4)
        assert minimal_dose(p_star) == pytest.approx(
            5.0 * 6.637462 / 1.887462, rel=1e-6
        )

    def test_no_coinfection_reduction(self, p_star):
        p = p_star.with_k2(0.0)
        assert minimal_dose(p) == pytest.approx(p.alpha * p.m / p.k1, rel=1e-14)

    def test_doubled_coinfection_rate(self, p_star):
        br = p_star.b * math.exp(-0.2) * 0.2
        expected = 5.0 * (br + 10.0) / (br + 0.5)
        assert minimal_dose(p_star.with_k2(0.1)) == pytest.approx(expected, rel=1e-12)

    def test_bracketing(self, p_star):
        d_min = minimal_dose(p_star)
        hi = dataclasses.replace(p_star, d=d_min * (1 + 1e-6))
        lo = dataclasses.replace(p_star, d=d_min * (1 - 1e-6))
        assert next(e for e in hypotheses.check_dose(hi) if e.id == "dose-threshold").passed
        assert not next(e for e in hypotheses.check_dose(lo) if e.id == "dose-threshold").passed

    def test_matches_bisection_on_dose_margin(self, p_star):
        def margin(d):
            p = dataclasses.replace(p_star, d=d)
            return next(e for e in hypotheses.check_dose(p) if e.id == "dose-threshold").margin

        lo, hi = 1.0, 100.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert minimal_dose(p_star) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    @given(k2a=st.floats(0.0, 0.2), k2b=st.floats(0.0, 0.2))
    @settings(max_examples=100, deadline=None)
    def test_increasing_in_k2(self, p_star, k2a, k2b):
        lo, hi = sorted((k2a, k2b))
        if hi - lo < 1e-12:
            return
        assert minimal_dose(p_star.with_k2(hi)) > minimal_dose(p_star.with_k2(lo))


class TestInvariantRegion:
    def test_reference_bounds(self, p_star):
        region = invariant_region(p_star)
        assert region.s_max == pytest.approx(0.97712, abs=5e-6)
        assert region.i_max == pytest.approx(48.856, abs=5e-4)
        assert region.q_min == pytest.approx(5.8092, abs=5e-5)
        assert region.q_max == 100.0

    def test_contained_in_truncation_box(self, p_star):
        region = invariant_region(p_star)
        assert 0.0 < region.s_max <= p_star.M
        assert 0.0 < region.i_max <= p_star.M
        assert 0.0 < region.q_min < region.q_max == p_star.M

    def test_collapse_without_coinfection(self, p_star):
        region = invariant_region(p_star.with_k2(0.0))
        assert region.q_min == pytest.approx(20.0, rel=1e-14)

    def test_degenerates_as_dose_approaches_capacity(self, p_star):
        p = dataclasses.replace(p_star, d=p_star.m * p_star.M * (1 - 1e-9))
        region = invariant_region(p)
        assert region.s_max < 1e-6
        assert region.i_max < 1e-4

    def test_precondition(self, p_star):
        with pytest.raises(EquilibriumExistenceError):
            invariant_region(dataclasses.replace(p_star, d=100.0))


def _full_scan_entries(sigma):
    """check_sigma's verdicts from a scan of every lattice point of [0, M+2]."""
    step = hypotheses._SCAN_STEP
    m = sigma.m_threshold
    xs = np.arange(0.0, m + 2.0 + step, step)
    vals = sigma(xs)
    primes = sigma.prime(xs)
    ident = xs[xs <= m]
    identity_err = float(np.max(np.abs(sigma(ident) - ident))) if len(ident) else 0.0
    plateau = xs[xs >= m + 1.0]
    plateau_err = float(np.max(np.abs(sigma(plateau) - (m + 1.0)))) if len(plateau) else 0.0
    mono_margin = float(np.min(np.diff(vals)))
    prime_min = float(np.min(primes))
    prime_max = float(np.max(primes))
    centered = (sigma(xs[2:]) - sigma(xs[:-2])) / (2.0 * step)
    fd_err = float(np.max(np.abs(centered - primes[1:-1]) / np.maximum(1.0, np.abs(primes[1:-1]))))
    err = max(identity_err, plateau_err)
    return [
        ("sigma-identity", err, 0.0, -err, identity_err == 0.0 and plateau_err == 0.0),
        ("sigma-monotone", mono_margin, 0.0, mono_margin, mono_margin >= 0.0 and prime_min >= 0.0),
        ("sigma-slope", prime_max, 1.9, 1.9 - prime_max,
         prime_min >= 0.0 and prime_max <= 1.9 and fd_err <= 1e-6),
    ]


class TestSigmaCheck:
    @pytest.mark.parametrize("sigma_fn", [
        *(SigmaFn(m) for m in (0.5, 1.0, 12.0, 19.5, 100.0, 300.0)),
        SigmaFn(100.0, bridge=(1.0, -10.0, 7.0, 3.0)),
    ], ids=["0.5", "1", "12", "19.5", "100", "300", "broken"])
    def test_window_equals_full_scan(self, sigma_fn):
        got = [(e.id, e.lhs, e.rhs, e.margin, e.passed) for e in hypotheses.check_sigma(sigma_fn)]
        want = _full_scan_entries(sigma_fn)
        # bitwise, signs of zeros included
        assert [str(g) for g in got] == [str(w) for w in want]

    def test_scan_memory_bounded(self):
        tracemalloc.start()
        try:
            hypotheses.check_sigma(SigmaFn(1e6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_default_bridge_passes(self, sigma):
        assert all(e.passed for e in hypotheses.check_sigma(sigma))

    @pytest.mark.parametrize("m", [1e6, 1e8])
    def test_large_threshold_slope_within_rounding(self, m):
        # the finite differences carry float spacing of M over the 1e-4 lattice
        assert all(e.passed for e in hypotheses.check_sigma(SigmaFn(m)))
        broken = {e.id: e for e in hypotheses.check_sigma(SigmaFn(m, bridge=(1.0, -10.0, 7.0, 3.0)))}
        assert not broken["sigma-monotone"].passed
        assert not broken["sigma-slope"].passed

    def test_broken_bridge_fails_monotonicity(self):
        broken = SigmaFn(100.0, bridge=(1.0, -10.0, 7.0, 3.0))
        entries = {e.id: e for e in hypotheses.check_sigma(broken)}
        assert not entries["sigma-monotone"].passed

    def test_tiny_threshold_passes(self):
        assert all(e.passed for e in hypotheses.check_sigma(SigmaFn(1.0)))


class TestInitialMass:
    def test_zero_phage_preset_needs_only_nonnegative_i0(self, p_star):
        hist = History.zero_phage(p_star.tau, 1.0, 0.3)
        entry = hypotheses.check_initial_mass(hist, p_star)
        assert entry.passed
        assert entry.margin == pytest.approx(0.3, abs=1e-12)

    def test_constant_history_matches_closed_form(self, p_star):
        hist = History(p_star.tau, np.full(129, 1.0), np.full(129, 2.0), 0.0)
        entry = hypotheses.check_initial_mass(hist, p_star)
        expected = 0.1 * math.exp(-0.2) * 2.0 * 1.0 * 1.0
        assert entry.rhs == pytest.approx(expected, abs=1e-12)
        assert not entry.passed

    def test_margin_with_sufficient_mass(self, p_star):
        hist = History(p_star.tau, np.full(129, 1.0), np.full(129, 2.0), 0.2)
        entry = hypotheses.check_initial_mass(hist, p_star)
        assert entry.passed
        assert entry.margin == pytest.approx(0.2 - 0.1 * math.exp(-0.2) * 2.0, abs=1e-12)

    def test_simpson_on_smooth_history(self, p_star):
        # quadratic profiles: the exact integral is available in closed form
        ts = np.linspace(-1.0, 0.0, 129)
        s_vals = 1.0 + ts * ts
        q_vals = 2.0 - ts
        hist = History(p_star.tau, s_vals, q_vals, 0.0)
        # int_{-1}^{0} (2 - t)(1 + t^2) dt = 2 + 1/3 + ... computed symbolically
        exact = 2.0 - (-0.5) + 2.0 / 3.0 - (-0.25)
        entry = hypotheses.check_initial_mass(hist, p_star)
        assert entry.rhs == pytest.approx(0.1 * math.exp(-0.2) * exact, rel=1e-9)


class TestDelayHypotheses:
    def test_reference_history_passes(self, p_star, hist_standard):
        entries = hypotheses.check_delay_hypotheses(hist_standard, p_star)
        assert all(e.passed for e in entries)
        by_id = {e.id: e for e in entries}
        assert by_id["phage-pressure"].lhs == pytest.approx(28.187, abs=5e-3)
        assert by_id["bacteria-cap"].rhs == pytest.approx(0.97712, abs=5e-6)
        assert by_id["infected-cap"].rhs == pytest.approx(48.856, abs=5e-4)

    def test_oversized_bacteria_history_fails_bacteria_cap(self, p_star):
        hist = History.constant(p_star.tau, 2.0, 10.0, 2.0)
        entries = {e.id: e for e in hypotheses.check_delay_hypotheses(hist, p_star)}
        assert not entries["bacteria-cap"].passed
        assert entries["phage-pressure"].passed

    def test_small_burst_fails_viability(self, p_star, hist_standard):
        p = dataclasses.replace(p_star, b=1.0)
        entries = {e.id: e for e in hypotheses.check_delay_hypotheses(hist_standard, p)}
        assert not entries["burst-viability"].passed
        assert entries["burst-viability"].lhs == pytest.approx(math.exp(-0.2), rel=1e-12)


class TestDose:
    def test_reference_passes_with_chain(self, p_star):
        entries = {e.id: e for e in hypotheses.check_dose(p_star)}
        assert entries["dose-threshold"].passed
        assert entries["dose-threshold"].rhs == pytest.approx(17.214, abs=5e-3)
        assert entries["dose-chain"].passed
        nu = compute_nu(p_star)
        assert 5.0 < nu < 20.0 < 100.0

    def test_low_dose_fails(self, p_star):
        p = dataclasses.replace(p_star, d=10.0)
        entries = {e.id: e for e in hypotheses.check_dose(p)}
        assert not entries["dose-threshold"].passed
        assert entries["dose-threshold"].rhs == pytest.approx(18.74, abs=5e-3)

    def test_k2_zero_reduces_to_two_species_threshold(self, p_star):
        p = p_star.with_k2(0.0)
        entries = {e.id: e for e in hypotheses.check_dose(p)}
        assert entries["dose-threshold"].rhs == pytest.approx(5.0, rel=1e-12)


class TestFullReport:
    def test_reference_scenario_all_pass(self, p_star, hist_standard):
        report = hypotheses.validate(p_star, hist_standard)
        assert report.passed
        assert failing_ids(report) == []
        delay_ids = {
            "init-region", "phage-pressure", "burst-viability",
            "bacteria-cap", "infected-cap",
        }
        assert all(e.margin > 0 for e in report.entries if e.id in delay_ids)

    def test_json_rendering_round_trips(self, p_star, hist_standard):
        import json

        report = hypotheses.validate(p_star, hist_standard)
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert {c["id"] for c in doc["checks"]} >= {"infected-mass", "dose-threshold"}
        assert "overall: PASS" in report.to_text()

    def test_chain_holds_whenever_dose_passes(self, p_star):
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(100):
            p = Parameters(
                alpha=rng.uniform(0.2, 1.0), k1=rng.uniform(0.05, 0.5),
                k2=rng.uniform(0.0, 0.1), d=rng.uniform(1.0, 80.0),
                m=rng.uniform(0.5, 2.0), b=rng.uniform(2.0, 20.0),
                mu=rng.uniform(0.1, 0.5), tau=rng.uniform(0.5, 2.0), M=100.0,
            )
            entries = {e.id: e for e in hypotheses.check_dose(p)}
            if entries["dose-threshold"].passed and entries["dose-capacity"].passed:
                found += 1
                nu = compute_nu(p)
                assert p.alpha / p.k1 < nu < p.d / p.m < p.M
        assert found > 5


def _written_out(p, hist):
    """The nine entries with the margin and verdict of each inequality written out by hand.

    Keyed by id: (lhs, rhs, margin, passed), the oracle for `hypotheses._check`.
    """
    br = p.effective_burst * p.mu
    required = hypotheses.required_initial_mass(hist, p)
    threshold = (p.alpha * p.m / p.k1) * (br + p.k2 * (p.M - p.d / p.m)) / br
    out = {
        "infected-mass": (hist.i0, required, hist.i0 - required, hist.i0 >= required),
        "dose-capacity": (p.d / p.m, p.M, p.M - p.d / p.m, p.d / p.m < p.M),
        "dose-threshold": (p.d, threshold, p.d - threshold, p.d > threshold),
    }
    if p.d / p.m >= p.M:
        return out
    nu = compute_nu(p)
    region = invariant_region(p)
    ts = np.linspace(-hist.tau, 0.0, hypotheses._REFINE * (len(hist.grid) - 1) + 1)
    s0, q0 = hist.s(ts), hist.q(ts)
    region_margin = min(
        float(s0.min()), float(p.M - s0.max()), hist.i0, p.M - hist.i0,
        float(q0.min()) - nu, float(p.M - q0.max()),
    )
    pressure = float(((p.m * br + p.k2 * (p.m * p.M - p.d)) * q0 * s0).min())
    dose_pull = p.d * p.mu * hist.s(0.0)
    s_top = float(s0.max())
    burst = p.effective_burst
    chain = min(nu - p.alpha / p.k1, p.d / p.m - nu, p.M - p.d / p.m)
    out.update({
        "init-region": (region_margin, 0.0, region_margin, region_margin >= 0.0),
        "phage-pressure": (pressure, dose_pull, pressure - dose_pull, pressure > dose_pull),
        "burst-viability": (burst, 1.0, burst - 1.0, burst > 1.0),
        "bacteria-cap": (s_top, region.s_max, region.s_max - s_top, s_top < region.s_max),
        "infected-cap": (hist.i0, region.i_max, region.i_max - hist.i0, hist.i0 < region.i_max),
        "dose-chain": (chain, 0.0, chain, chain > 0.0),
    })
    return out


@st.composite
def _parameters_and_history(draw):
    m = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.2, 2.0))
    M = draw(st.sampled_from([40.0, 100.0]) | st.floats(1.0, 300.0))
    p = Parameters(
        alpha=draw(st.floats(0.05, 1.0)), k1=draw(st.floats(0.01, 1.0)),
        k2=draw(st.just(0.0) | st.floats(0.0, 0.2)), d=1.0, m=m,
        b=draw(st.floats(0.5, 30.0)), mu=draw(st.floats(0.05, 0.8)),
        tau=draw(st.floats(0.2, 3.0)), M=M,
    )
    dose = draw(st.sampled_from(["capacity", "minimal", "free"]))
    if dose == "capacity":  # d/m == M exactly when m is a power of two
        d = m * M
    elif dose == "minimal":  # near the dose threshold, where most checks pass
        d = hypotheses.minimal_dose(p) * draw(st.floats(0.98, 1.5))
    else:
        d = m * M * draw(st.floats(0.01, 1.5))
    p = dataclasses.replace(p, d=d)

    preset = draw(st.sampled_from(["constant", "zero-phage", "table"]))
    s0 = draw(st.floats(0.0, 1.5))
    q0 = draw(st.floats(0.0, 1.5 * min(M, d / m)))
    if preset == "constant":
        hist = History.constant(p.tau, s0, q0, 0.0, n_grid=draw(st.integers(3, 64)))
    elif preset == "zero-phage":
        hist = History.zero_phage(p.tau, s0, 0.0, n_grid=draw(st.integers(3, 64)))
    else:
        x = np.linspace(0.0, 1.0, draw(st.integers(4, 32)))
        w = draw(st.floats(0.0, 6.0))
        hist = History(p.tau, s0 * (1.0 + 0.5 * np.sin(w * x)), q0 * (1.0 + 0.5 * np.cos(w * x)), 0.0)
    required = hypotheses.required_initial_mass(hist, p)
    i0 = draw(st.sampled_from([0.0, required]) | st.floats(0.0, 2.0 * required + 1.0))
    return p, History(p.tau, hist.s_samples, hist.q_samples, i0)


def _entries(report):
    return {e.id: e for e in report.entries}


class TestMarginRule:
    @pytest.mark.parametrize("relation, lhs, rhs, margin, passed", [
        (">", 3.0, 1.0, 2.0, True), (">", 1.0, 1.0, 0.0, False), (">", 1.0, 3.0, -2.0, False),
        (">=", 1.0, 1.0, 0.0, True), (">=", 1.0, 3.0, -2.0, False),
        ("<", 1.0, 3.0, 2.0, True), ("<", 1.0, 1.0, 0.0, False), ("<", 3.0, 1.0, -2.0, False),
        ("<=", 1.0, 1.0, 0.0, True), ("<=", 3.0, 1.0, -2.0, False),
        (">", math.nan, 1.0, math.nan, False), ("<=", 1.0, math.nan, math.nan, False),
    ])
    def test_rule(self, relation, lhs, rhs, margin, passed):
        e = hypotheses._check("x", "x", lhs, relation, rhs)
        assert str((e.lhs, e.rhs, e.margin, e.passed)) == str((lhs, rhs, margin, passed))

    @given(_parameters_and_history())
    @settings(max_examples=300, deadline=None)
    def test_matches_written_out_inequalities(self, draw):
        p, hist = draw
        expected = _written_out(p, hist)
        got = _entries(hypotheses.validate(p, hist))
        assert expected.keys() <= got.keys()
        for entry_id, (lhs, rhs, margin, passed) in expected.items():
            e = got[entry_id]
            # str keeps the sign of a zero margin
            assert str((e.lhs, e.rhs, e.margin, e.passed)) == str(
                (float(lhs), float(rhs), float(margin), bool(passed))
            ), entry_id

    @pytest.mark.parametrize("entry_id, passed", [
        ("infected-mass", True), ("init-region", True), ("phage-pressure", False),
        ("burst-viability", False), ("bacteria-cap", False), ("infected-cap", False),
        ("dose-capacity", False), ("dose-threshold", False), ("dose-chain", False),
    ])
    def test_equality_sits_on_the_strictness(self, p_star, entry_id, passed):
        # each case makes its inequality hold with equality: the margin is +0.0,
        # and only a non-strict inequality passes
        p, s0, q0, i0 = p_star, 0.5, 10.0, 1.0
        if entry_id == "init-region":
            s0 = 0.0
        elif entry_id == "phage-pressure":  # both sides are 0 with no bacteria
            s0 = q0 = 0.0
        elif entry_id == "burst-viability":  # e^{-mu tau} rounds to 1
            p = dataclasses.replace(p, b=1.0, mu=1e-9, tau=1e-9)
        elif entry_id == "bacteria-cap":
            s0 = invariant_region(p).s_max
        elif entry_id == "infected-cap":
            i0 = invariant_region(p).i_max
        elif entry_id == "dose-capacity":
            p = dataclasses.replace(p, d=p.m * p.M)
        elif entry_id == "dose-threshold":  # alpha m / k1 = 1 and k2 = 0 give threshold 1
            p = dataclasses.replace(p, alpha=1.0, k1=1.0, k2=0.0, d=1.0)
        elif entry_id == "dose-chain":  # k2 = 0 and power-of-two d, m give nu = d/m
            p = dataclasses.replace(p, alpha=0.1, k1=0.1, k2=0.0, d=4.0)
        hist = History.constant(p.tau, s0, q0, i0)
        if entry_id == "infected-mass":
            hist = History.constant(p.tau, s0, q0, hypotheses.required_initial_mass(hist, p))
        e = _entries(hypotheses.validate(p, hist))[entry_id]
        assert e.lhs == e.rhs
        assert str((e.margin, e.passed)) == str((0.0, passed))


@given(
    d=st.floats(1e-3, 1e3), m=st.floats(1e-2, 1e2), k=st.integers(-4, 4),
)
@settings(max_examples=300, deadline=None)
def test_one_existence_test_near_capacity(p_star, hist_standard, d, m, k):
    # M within a few ulps of d/m, where d/m < M and m*M > d can disagree: every
    # function that needs E0 raises exactly when the dose-capacity entry fails
    p = dataclasses.replace(p_star, d=d, m=m, M=d / m * (1.0 + k * 2.0**-52))
    capacity = next(e for e in hypotheses.check_dose(p) if e.id == "dose-capacity")
    needs_e0 = (
        equilibria.bacteria_free, equilibria.stability_at_e0, compute_nu, invariant_region,
        lambda p: hypotheses.check_delay_hypotheses(hist_standard, p),
    )
    for fn in needs_e0:
        if capacity.passed:
            fn(p)
        else:
            with pytest.raises(EquilibriumExistenceError):
                fn(p)
    entries = _entries(hypotheses.validate(p, hist_standard))
    assert ("init-clauses" in entries) is not capacity.passed
    assert entries["dose-capacity"].passed is capacity.passed
