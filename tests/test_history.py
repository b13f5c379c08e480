import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly

import phagesim
from phagesim import History
from phagesim.errors import DomainError
from phagesim.history import _EDGE_SLACK

from conftest import CONCENTRATION_SCENARIO, REFERENCE_SCENARIO


class TestConstruction:
    def test_constant_preset(self):
        hist = History.constant(2.0, 0.5, 10.0, 1.0)
        for t in (-2.0, -1.3, 0.0):
            assert hist.s(t) == pytest.approx(0.5, abs=1e-12)
            assert hist.q(t) == pytest.approx(10.0, abs=1e-12)

    def test_zero_phage_preset(self):
        hist = History.zero_phage(1.0, 2.0, 0.0)
        assert hist.q(-0.5) == 0.0
        assert hist.s(-0.5) == pytest.approx(2.0, abs=1e-12)

    def test_needs_enough_samples(self):
        with pytest.raises(DomainError):
            History(1.0, [1.0, 1.0], [1.0, 1.0], 0.0)

    def test_mismatched_sample_lengths(self):
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 9, [1.0] * 10, 0.0)

    def test_rejects_negative_samples(self):
        q = [1.0] * 10
        q[4] = -0.1
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 10, q, 0.0)
        with pytest.raises(DomainError):
            History(1.0, [1.0] * 10, [1.0] * 10, -0.5)

    def test_rejects_interpolant_undershoot(self):
        # samples are nonnegative but the spline dips below zero between nodes
        s = np.ones(17)
        s[8] = 0.0
        s[7] = 1e-9
        s[9] = 1e-9
        q = 5.0 - 4.9 * np.cos(np.linspace(0.0, 2 * np.pi, 17))
        with pytest.raises(DomainError):
            History(1.0, np.where(s > 0.5, 4.0, 0.0), q * 0 + 1.0, 0.0)


class TestEvaluation:
    def test_interpolates_smooth_profiles_accurately(self):
        ts = np.linspace(-1.0, 0.0, 129)
        hist = History(1.0, np.exp(ts), 2.0 + np.sin(ts), 0.3)
        probe = np.linspace(-1.0, 0.0, 487)
        s_err = max(abs(hist.s(t) - np.exp(t)) for t in probe)
        q_err = max(abs(hist.q(t) - (2.0 + np.sin(t))) for t in probe)
        assert s_err < 1e-8
        assert q_err < 1e-8

    def test_domain_is_enforced(self):
        hist = History.constant(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            hist.s(-1.5)
        with pytest.raises(DomainError):
            hist.q(0.5)

    def test_edge_dust_is_clamped(self):
        hist = History.constant(1.0, 1.0, 1.0, 0.0)
        assert hist.s(-1.0 - 1e-10) == pytest.approx(1.0, abs=1e-12)
        assert hist.q(1e-10) == pytest.approx(1.0, abs=1e-12)


_CONSTANT_PROFILES = {
    "constant": lambda: History.constant(1.0, 0.5, 10.0, 1.0),
    "constant-coarse": lambda: History.constant(1.7, 3e-13, 123.456, 0.0, n_grid=8),
    "zero-phage": lambda: History.zero_phage(2.0, 2.0, 0.5),
    "zero-everything": lambda: History.constant(0.3, 0.0, 0.0, 0.0),
}


class TestConstantProfiles:
    """Equal samples skip the spline solve; the values stay CubicSpline's."""

    @pytest.mark.parametrize("case", sorted(_CONSTANT_PROFILES))
    def test_equals_cubic_spline(self, case):
        hist = _CONSTANT_PROFILES[case]()
        t = np.linspace(-hist.tau, 0.0, 10001)
        for got, samples in ((hist.s, hist.s_samples), (hist.q, hist.q_samples)):
            expected = np.maximum(CubicSpline(hist.grid, samples)(t), 0.0)
            assert np.array_equal(got(t), expected)
            assert np.array_equal(np.signbit(got(t)), np.signbit(expected))
            scalars = np.array([got(float(x)) for x in t[::10]])
            assert np.array_equal(scalars, expected[::10])
            assert np.array_equal(np.signbit(scalars), np.signbit(expected[::10]))

    @pytest.mark.parametrize("case", sorted(_CONSTANT_PROFILES))
    def test_edge_slack_still_enforced(self, case):
        hist = _CONSTANT_PROFILES[case]()
        assert hist.s(-hist.tau - 1e-10) == hist.s(-hist.tau)
        assert hist.q(1e-10) == hist.q(0.0)
        with pytest.raises(DomainError):
            hist.s(-hist.tau - 1e-8)
        with pytest.raises(DomainError):
            hist.q(np.array([-0.5 * hist.tau, 1e-8]))


def _ppoly_constant(hist, samples, t):
    """A constant profile as it was evaluated through scipy: a degree-3 PPoly of one piece."""
    f = PPoly(np.array([[0.0], [0.0], [0.0], [samples[0]]]), hist.grid[[0, -1]])
    out = np.maximum(f(np.clip(np.asarray(t, dtype=float), -hist.tau, 0.0)), 0.0)
    return float(out) if out.ndim == 0 else out


def _same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    return (got.shape == expected.shape and np.array_equal(got, expected)
            and np.array_equal(np.signbit(got), np.signbit(expected)))


class TestConstantEvaluator:
    """The numpy constant gives the bits scipy's one-piece PPoly gave, without scipy."""

    @pytest.mark.parametrize("c", [0.0, -0.0, 3e-13, 0.5, 123.456])
    @pytest.mark.parametrize("preset", ["constant", "zero-phage"])
    def test_bitwise_equal_to_ppoly(self, c, preset):
        tau = 1.7
        if preset == "constant":
            hist = History.constant(tau, c, c, 0.0, n_grid=8)
        else:
            hist = History.zero_phage(tau, c, 0.0, n_grid=8)
        ends = [-tau - 0.5 * _EDGE_SLACK, -tau, -tau + 0.5 * _EDGE_SLACK,
                -0.5 * _EDGE_SLACK, -0.0, 0.0, 0.5 * _EDGE_SLACK]
        inputs = [
            *ends,
            *(np.array(x) for x in ends),
            np.array(ends),
            np.linspace(-tau, 0.0, 1001),
            np.array([]),
        ]
        for got, samples in ((hist.s, hist.s_samples), (hist.q, hist.q_samples)):
            for t in inputs:
                expected = _ppoly_constant(hist, samples, t)
                assert type(got(t)) is type(expected)
                assert _same_bits(got(t), expected)
        for t in ends:
            assert type(hist.s(t)) is float and type(hist.q(np.array(t))) is float

    def test_negative_zero_reads_positive_zero(self):
        # np.maximum(-0.0, 0.0) reads +0.0 on current numpy, so the evaluator
        # itself is compared with the PPoly before the clip as well
        hist = History.constant(1.0, -0.0, -0.0, 0.0)
        t = np.linspace(-1.0, 0.0, 5)
        raw = PPoly(np.array([[0.0], [0.0], [0.0], [-0.0]]), hist.grid[[0, -1]])
        assert _same_bits(hist._s(t), raw(t)) and _same_bits(hist._q(-0.5), raw(-0.5))
        assert not np.signbit(hist.s(-0.5))
        assert not np.any(np.signbit(hist.q(t)))

    @pytest.mark.parametrize("hist", [
        History.constant(1.0, 0.5, 10.0, 0.0),
        History(1.0, 1.0 + 0.1 * np.sin(np.linspace(0.0, 3.0, 17)), np.full(17, 2.0), 0.0),
    ])
    def test_nan_time_is_refused(self, hist):
        for f in (hist.s, hist.q):
            with pytest.raises(DomainError):
                f(float("nan"))
            with pytest.raises(DomainError):
                f(np.array([-0.5, np.nan]))


class TestTableSpline:
    def test_distinct_samples_build_a_cubic_spline(self):
        grid = np.linspace(-1.0, 0.0, 33)
        s_samples = 0.5 + 0.2 * np.sin(4.0 * grid)
        hist = History(1.0, s_samples, np.full(33, 3.0), 0.2)
        assert isinstance(hist._s, CubicSpline)
        assert not isinstance(hist._q, CubicSpline)
        t = np.linspace(-1.0, 0.0, 1000)
        assert _same_bits(hist.s(t), np.maximum(CubicSpline(hist.grid, s_samples)(t), 0.0))
        assert _same_bits(hist.q(t), _ppoly_constant(hist, hist.q_samples, t))

    def test_startup_imports_no_scipy(self, tmp_path):
        # One fresh interpreter: the CLI's import, both committed scenarios'
        # parse and two in-process subcommands on constant histories.
        child = (
            "import sys\n"
            "from phagesim import cli, scenario\n"
            "outdir = sys.argv[1]\n"
            "for path in sys.argv[2:]:\n"
            "    scenario.parse_scenario(path)\n"
            "    for cmd in ('validate', 'equilibria'):\n"
            "        code = cli.main([cmd, path, '--outdir', outdir])\n"
            "        assert code == cli.EXIT_OK, (cmd, path, code)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(phagesim.__file__))
        env = {**os.environ, "PYTHONPATH": src_dir}
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path), REFERENCE_SCENARIO, CONCENTRATION_SCENARIO],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
