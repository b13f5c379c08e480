"""Command-line surface: reproducible experiments from scenario files.

Exit codes: 0 success, 2 hypothesis validation failure (or a burst b e^{-mu tau}
that underflows in the thresholds), 3 numeric divergence/positivity failure, 4 IO
or scenario parse error, or a run over its budget: more than dde.MAX_STEPS = 10**6
steps of tau/K to reach run.T or history samples (both refused when parsed) or
rows of `simulate --dense`, or paths over sde.PATH_BYTES_BUDGET bytes (refused
before any is built). A longer horizon that mc-concentration derives exits 3
before any path. A model whose numbers leave no window exits 3 too (error:model):
mc-concentration with rho at or above the decay prefactor c, with eta <= 0, or with
a window [kappa1, kappa2] ln(c/rho)/eta that holds no node, simulate with a
run.window of fewer than two nodes, and simulate without one or compare-coinfection
on a run of fewer than dde.AUTO_FIT_NODES = 4 nodes, which the automatic decay fit
window cannot fit (each before it integrates or writes anything).
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import csvio, dde, equilibria, hypotheses, sde
from .errors import (
    DivergenceError,
    DomainError,
    HypothesisError,
    PhagesimError,
    PositivityError,
    ScenarioError,
)
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load(args):
    sc = parse_scenario(args.scenario)
    return sc, sc.parameters, sc.history


def _outpath(sc, args, name):
    outdir = args.outdir or sc.run.outdir
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def cmd_validate(args):
    sc, p, hist = _load(args)
    report = hypotheses.validate(p, hist)
    print(report.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_equilibria(args):
    sc, p, hist = _load(args)
    payload, text = equilibria.report(p)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_simulate(args):
    sc, p, hist = _load(args)
    if args.dense is not None:
        # the rows run to the trajectory's end, Trajectory.t_end, up to a step h past T
        t_end = dde.step_count(sc.run.T, p.tau, sc.run.K) * (p.tau / sc.run.K)
        try:  # before anything is integrated
            csvio.check_dense(t_end, args.dense)
        except DomainError as exc:
            raise ScenarioError(str(exc)) from None
    # without E0 and its region nothing can be fitted or monitored, so nothing is integrated
    e0 = equilibria.bacteria_free(p)
    st = equilibria.stability_at_e0(p)
    region = hypotheses.invariant_region(p)
    # the fit's nodes, or its window's, are counted before anything is integrated
    dde.fit_nodes(dde.node_times(sc.run.T, p.tau, sc.run.K), sc.run.window)
    traj = dde.integrate(p, hist, sc.run.T, sc.run.K)
    path = _outpath(sc, args, "trajectory.csv")
    csvio.write_trajectory(traj, path, dense_dt=args.dense)
    print(f"trajectory written to {path} ({len(traj)} nodes, h={traj.h:g})")

    fit = dde.fit_decay(traj, e0, st.eta, sc.run.window)
    print(
        f"decay fit on [{fit.window[0]:g}, {fit.window[1]:g}]: "
        f"rate={fit.fitted_rate:.6g} (eta={st.eta:g}, "
        f"{'ok' if fit.rate_ok else 'below eta'}), c={fit.prefactor:.6g}"
    )
    exit_record = dde.monitor_region(traj, region)
    if exit_record is None:
        print("region monitor: trajectory stays inside the invariant box")
    else:
        print(
            f"region monitor: first exit at t={exit_record.t:g} "
            f"({exit_record.component}={exit_record.value:g}, bound {exit_record.bound:g})"
        )
    return EXIT_OK


def cmd_simulate_sde(args):
    if args.paths is not None and args.paths < 1:
        raise ScenarioError(f"--paths must be at least 1, got {args.paths}")
    sc, p, hist = _load(args)
    n = sc.run.n if args.paths is None else args.paths
    if n == 1:
        traj = sde.sample_path(p, hist, sc.run)
        path = _outpath(sc, args, "sde_path.csv")
        csvio.write_trajectory(traj, path)
        print(f"sample path written to {path}")
        return EXIT_OK
    # the one place an absent run.window becomes [0, T]
    run = dataclasses.replace(sc.run, n=n, window=sc.run.window or [0.0, sc.run.T])
    stats = sde.ensemble(p, hist, run)
    path = _outpath(sc, args, "ensemble.csv")
    csvio.write_ensemble(stats, path)
    print(
        f"ensemble of {n} paths written to {path}; mean sup-deviation "
        f"{stats.sup_devs.mean():.6g} on [{run.window[0]:g}, {run.window[1]:g}]"
    )
    return EXIT_OK


def cmd_mc_concentration(args):
    sc, p, hist = _load(args)
    table = sde.concentration_experiment(p, hist, sc.run)
    path = _outpath(sc, args, "concentration.csv")
    csvio.write_concentration(table, path)
    print(f"concentration table written to {path} (c={table.prefactor:.6g}, eta={table.eta:g})")
    for r in table.rows:
        print(
            f"  eps={r.eps:g}: {r.exceed}/{r.n} exceed 2*rho={2 * r.rho:g} "
            f"on [{r.t_lo:.3g}, {r.t_hi:.3g}]  p={r.p_hat:.4g} "
            f"[{r.ci_lo:.4g}, {r.ci_hi:.4g}]"
        )
    slope = table.log_prob_slope()
    if slope is not None:
        print(f"  ln(p) vs 1/eps^2 slope: {slope:.6g}")
    return EXIT_OK


def cmd_min_dose(args):
    sc, p, hist = _load(args)
    d_min = hypotheses.minimal_dose(p)
    print(f"minimal dose d_min = {d_min:.10g} (current d = {p.d:g})")
    for factor, label in ((1.0 + 1e-6, "d_min*(1+1e-6)"), (1.0 - 1e-6, "d_min*(1-1e-6)")):
        probe = dataclasses.replace(p, d=d_min * factor)
        entry = next(e for e in hypotheses.check_dose(probe) if e.id == "dose-threshold")
        print(f"  {label}: margin {entry.margin:+.3e} -> {'pass' if entry.passed else 'fail'}")
    return EXIT_OK


def cmd_compare_coinfection(args):
    sc, p, hist = _load(args)
    st = equilibria.stability_at_e0(p)
    e0 = equilibria.bacteria_free(p)
    T, K = sc.run.T, sc.run.K

    dde.fit_nodes(dde.node_times(T, p.tau, K))  # both fits' nodes, before either run
    traj = dde.integrate(p, hist, T, K)
    fit = dde.fit_decay(traj, e0, st.eta)

    p0 = p.with_k2(0.0)
    traj2 = dde.integrate(p0, hist, T, K).sq()
    eta2 = min(st.gamma, p.m)
    fit2 = dde.fit_decay(traj2, e0[[0, 2]], eta2)

    d_min = hypotheses.minimal_dose(p)
    d_min0 = hypotheses.minimal_dose(p0)
    print(f"with coinfection (k2={p.k2:g}):")
    print(f"  decay rate bound eta = {st.eta:g}, fitted rate = {fit.fitted_rate:.6g}")
    print(f"  minimal dose = {d_min:.10g}")
    print("without coinfection (k2=0, (S,Q) subsystem):")
    print(f"  decay rate bound {eta2:g}, fitted rate = {fit2.fitted_rate:.6g}")
    print(f"  minimal dose = {d_min0:.10g}")
    rates = fit2.fitted_rate, fit.fitted_rate
    slows = (f"slows convergence by factor {rates[0] / rates[1]:.3g}"
             if all(0.0 < r < math.inf for r in rates)  # a NaN rate fails too
             else "gives no convergence factor on this horizon (a fitted rate is not positive)")
    print(f"coinfection {slows} and raises the dose by factor {d_min / d_min0:.3g}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The parser, built by the first call and reused. It names each command's cmd_* function,
    which main looks up in this module when it runs the command."""
    parser = argparse.ArgumentParser(
        prog="phagesim",
        description="Simulation and analysis of the delayed phage-coinfection model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("scenario", help="scenario JSON file")
        sp.add_argument("--outdir", help="override the scenario's output directory")
        sp.set_defaults(func=func.__name__)
        return sp

    sp = add("validate", cmd_validate, help="check all standing hypotheses")
    sp.add_argument("--json", help="also write the report as JSON")
    sp = add("equilibria", cmd_equilibria, help="equilibrium points and stability")
    sp.add_argument("--json", help="also write the report as JSON")
    sp = add("simulate", cmd_simulate, help="deterministic trajectory + decay fit")
    sp.add_argument("--dense", type=float, help="resample the CSV at this time step")
    sp = add("simulate-sde", cmd_simulate_sde, help="stochastic path or ensemble")
    sp.add_argument("--paths", type=int, help="number of paths (1 = single path CSV)")
    add("mc-concentration", cmd_mc_concentration, help="empirical concentration table")
    add("min-dose", cmd_min_dose, help="minimal inoculation dose and its bracketing")
    add("compare-coinfection", cmd_compare_coinfection, help="k2 vs k2=0 comparison")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except ScenarioError as exc:
        print(f"error:parse: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DivergenceError, PositivityError) as exc:
        print(f"error:numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error:resource: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except HypothesisError as exc:
        print(f"error:hypothesis: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PhagesimError as exc:
        print(f"error:model: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
