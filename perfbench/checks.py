"""Checks of every artifact a workload writes, against reference.py.

Each check has a name; a failed expectation is recorded under it, so the
self-test can show that a corrupted artifact trips the check it targets.
Every check function returns the integration steps its operations did per
round, counted from the inputs (h = tau/K, n_steps = ceil(T/h)) and from
the checked outputs (row counts, the concentration window).
"""

import json
import math
import os
import re

import numpy as np

import reference as ref

# RK4's global error is O((h L)^4) with L the fastest rate of the system;
# against the method-of-steps reference the constant measured at most 2e-3
# over 80 generated sweep scenarios, so 0.02 leaves a tenfold margin
RK4_CONSTANT = 0.02
# the reference's own error (rtol 1e-12 per delay interval) and the
# 17-significant-digit CSV rounding
REF_FLOOR = 1e-9
# same formulas, arithmetic possibly reordered: a few ulps per step, and the
# system contracts, so 3200 steps stay far below this relative bound
REORDER_RTOL = 1e-10
# scipy's Wilson bounds and the closed form differ by at most 1 ulp of 1.0
WILSON_ATOL = 1e-15
# closed forms evaluated in a different order, and the validator's Simpson sum
# of a constant history
CLOSED_RTOL = 1e-10
# the program prints min-dose with 10 significant digits and rates with 6
PRINT10_RTOL = 1e-9
PRINT6_RTOL = 1e-5
BOX_ATOL = 1e-9  # the invariant-region monitor's own slack
RATE_FRACTION = 0.95


class Report:
    def __init__(self):
        self.failures = []

    def expect(self, check, ok, detail):
        if not ok:
            self.failures.append(f"{check}: {detail}")

    def names(self):
        return {f.split(":", 1)[0] for f in self.failures}


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _number(pattern, text):
    m = re.search(pattern, text)
    return float(m.group(1)) if m else math.nan


def _csv(path, header):
    with open(path) as fh:
        first = fh.readline().strip()
    if first != header:
        raise ValueError(f"{path}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _steps(p, run):
    return math.ceil(run["T"] / (p.tau / run["K"]) - 1e-9)


class Solutions:
    """Method-of-steps solutions, shared by operations with the same model and history."""

    def __init__(self):
        self._cache = {}

    def get(self, doc, T):
        key = json.dumps([{k: v for k, v in doc["parameters"].items() if k != "eps"},
                          doc["history"], T], sort_keys=True)
        if key not in self._cache:
            p, h = ref.params(doc["parameters"]), doc["history"]
            self._cache[key] = ref.DelayedSolution(p, h["s0"], h["q0"], h["i0"], T)
        return self._cache[key]


def rk4_tolerance(p, sol, T, h):
    """Relative error bound of an RK4 solution with step h, and the component scales.

    The error is taken relative to each component's largest magnitude on
    [0, T]; the fastest rate is bounded by the Jacobian's diagonal there.
    """
    scale = np.abs(sol(np.linspace(0.0, T, 2001))).max(axis=0)
    rate = max(p.alpha, p.k1 * scale[2], p.m + p.k1 * scale[0] + p.k2 * scale[1], p.mu)
    return RK4_CONSTANT * (h * rate) ** 4 + REF_FLOOR, scale


# ------------------------------------------------------------------ det-sweep


def check_det_sweep(ops, outputs, outroot, rep, solutions):
    steps = 0
    for op, outs in zip(ops, outputs):
        if any(rc != 0 for rc, _ in outs):
            continue  # counted as failed, not checked
        text = {sub: out for (sub, _), (_, out) in zip(op.commands, outs)}
        out = os.path.join(outroot, op.name)
        p, h, run = ref.params(op.doc["parameters"]), op.doc["history"], op.doc["run"]
        n_steps = _steps(p, run)
        _det_validate(rep, op.name, p, h, os.path.join(out, "validate.json"))
        _det_equilibria(rep, op.name, p, os.path.join(out, "equilibria.json"))
        _det_min_dose(rep, op.name, p, text["min-dose"])
        _det_coinfection(rep, op.name, p, text["compare-coinfection"])
        _det_trajectory(rep, op.name, p, h, run, n_steps, text["simulate"],
                        os.path.join(out, "trajectory.csv"), solutions.get(op.doc, run["T"]))
        steps += 3 * n_steps  # simulate, and compare-coinfection with and without k2
    return steps


def _det_validate(rep, name, p, h, path):
    with open(path) as fh:
        doc = json.load(fh)
    rep.expect("det.validate", doc["passed"] is True, f"{name}: validator did not pass")
    entries = {c["id"]: c for c in doc["checks"]}
    s_max, i_max, _, _ = ref.invariant_box(p)
    mass = p.k1 * math.exp(-p.mu * p.tau) * p.tau * ref.sigma(h["q0"], p.M) * h["s0"]
    expected = {
        ("dose-threshold", "rhs"): ref.dose_threshold(p),
        ("dose-capacity", "lhs"): p.d / p.m,
        ("bacteria-cap", "rhs"): s_max,
        ("infected-cap", "rhs"): i_max,
        ("burst-viability", "lhs"): p.b * math.exp(-p.mu * p.tau),
        ("infected-mass", "rhs"): mass,
    }
    for (entry, side), value in expected.items():
        got = entries[entry][side] if entry in entries else math.nan
        rep.expect("det.validate", _close(got, value, CLOSED_RTOL),
                   f"{name}: {entry}.{side} = {got!r}, closed form {value!r}")


def _det_equilibria(rep, name, p, path):
    with open(path) as fh:
        doc = json.load(fh)
    lam = ref.eigenvalues(p)
    pairs = list(zip(doc["e0"], ref.e0(p))) + list(zip(doc["eigenvalues"], lam))
    pairs += [(doc["eta"], ref.eta(p)), (doc["gamma"], -lam[0])]
    for got, want in pairs:
        rep.expect("det.equilibria", _close(got, want, CLOSED_RTOL),
                   f"{name}: {got!r} against closed form {want!r}")
    rep.expect("det.equilibria", doc["stable"] is bool(lam[0] < 0.0), f"{name}: stability flag")


def _det_min_dose(rep, name, p, text):
    d_min = _number(r"minimal dose d_min = (\S+)", text)
    rep.expect("det.min-dose", _close(d_min, ref.minimal_dose(p), PRINT10_RTOL),
               f"{name}: d_min {d_min!r}, closed form {ref.minimal_dose(p)!r}")
    rep.expect("det.min-dose", re.search(r"\(1\+1e-6\): margin \S+ -> pass", text)
               and re.search(r"\(1-1e-6\): margin \S+ -> fail", text),
               f"{name}: d_min does not bracket the dose threshold")


def _det_coinfection(rep, name, p, text):
    doses = [float(v) for v in re.findall(r"  minimal dose = (\S+)", text)]
    want = [ref.minimal_dose(p), ref.minimal_dose(ref.params(vars(p) | {"k2": 0.0}))]
    rep.expect("det.coinfection-dose",
               len(doses) == 2 and all(_close(a, b, PRINT10_RTOL) for a, b in zip(doses, want))
               and doses[0] > doses[1],
               f"{name}: minimal doses {doses}, closed forms {want} (with > without)")
    bound = _number(r"decay rate bound eta = (\S+),", text)
    rate = _number(r"eta = \S+, fitted rate = (\S+)", text)
    _decay(rep, name, p, bound, rate, "compare-coinfection")


def _decay(rep, name, p, eta_printed, rate, where):
    eta = ref.eta(p)
    rep.expect("det.decay-rate",
               _close(eta_printed, eta, PRINT6_RTOL) and rate >= RATE_FRACTION * eta,
               f"{name} ({where}): fitted rate {rate!r}, eta {eta_printed!r} (closed form {eta!r})")


def _det_trajectory(rep, name, p, h, run, n_steps, text, path, sol):
    m = re.search(r"rate=(\S+) \(eta=(\S+),", text)
    _decay(rep, name, p, float(m.group(2)) if m else math.nan,
           float(m.group(1)) if m else math.nan, "simulate")
    data = _csv(path, "t,S,I,Q")
    step = p.tau / run["K"]
    ok = data.shape == (n_steps + 1, 4) and np.allclose(
        data[:, 0], step * np.arange(n_steps + 1), rtol=0.0, atol=1e-9 * run["T"])
    rep.expect("det.trajectory-reference", ok,
               f"{name}: {data.shape[0]} rows, expected {n_steps + 1} on h={step!r}")
    if ok:
        at_tau = np.arange(0, n_steps + 1, run["K"])
        expect = sol((at_tau // run["K"]) * p.tau)
        err = np.abs(data[at_tau, 1:] - expect)
        rtol, scale = rk4_tolerance(p, sol, run["T"], step)
        tol = rtol * scale
        rep.expect("det.trajectory-reference", bool(np.all(err <= tol)),
                   f"{name}: error at multiples of tau {err.max(axis=0)} above {tol}")
    s_max, i_max, q_min, q_max = ref.invariant_box(p)
    s, i, q = data[:, 1], data[:, 2], data[:, 3]
    inside = (
        s.min() >= -BOX_ATOL and s.max() <= s_max + BOX_ATOL
        and i.min() >= -BOX_ATOL and i.max() <= i_max + BOX_ATOL
        and q.min() >= q_min - BOX_ATOL and q.max() <= q_max + BOX_ATOL
    )
    rep.expect("det.invariant-box", inside and "stays inside the invariant box" in text,
               f"{name}: nodes leave [0,{s_max:g}]x[0,{i_max:g}]x[{q_min:g},{q_max:g}] "
               "or the monitor reports an exit")


# -------------------------------------------------------------- sde-few-paths


def check_sde_few_paths(ops, outputs, outroot, rep, solutions):
    steps = 0
    for op, outs in zip(ops, outputs):
        if any(rc != 0 for rc, _ in outs):
            continue
        out = os.path.join(outroot, op.name)
        p, h, run = ref.params(op.doc["parameters"]), op.doc["history"], op.doc["run"]
        n_steps = _steps(p, run)
        args = (p, h["s0"], h["q0"], h["i0"], run["T"], run["K"], run["seed"], run["scheme"])
        start = np.array([h["s0"], h["i0"], h["q0"]])
        if op.paths == 1:
            data = _csv(os.path.join(out, "sde_path.csv"), "t,S,I,Q")
            want = ref.scalar_path(*args)
            scale = np.abs(want).max(axis=0)
            ok = data.shape == (n_steps + 1, 4) and bool(
                np.all(np.abs(data[:, 1:] - want) <= REORDER_RTOL * scale))
            rep.expect("sde.path-scalar-loop", ok,
                       f"{op.name}: path differs from the scalar {run['scheme']} loop")
            rep.expect("sde.row0", np.array_equal(data[0, 1:], start),
                       f"{op.name}: row 0 {data[0, 1:]} is not the initial state {start}")
            rep.expect("sde.nonnegative", data[:, 1:].min() >= 0.0,
                       f"{op.name}: a node is negative ({data[:, 1:].min()!r})")
            steps += n_steps
            continue
        data = _csv(os.path.join(out, "ensemble.csv"), "t,mean_S,mean_I,mean_Q,dev_p50,dev_p95")
        nodes = ref.vector_paths(*args, op.paths)
        sol = solutions.get(op.doc, run["T"])
        step = p.tau / run["K"]
        det = sol(step * np.arange(n_steps + 1))
        dev = np.abs(nodes - det[:, :, None]).max(axis=1)
        mean = nodes.mean(axis=2)
        scale = np.abs(mean).max(axis=0)
        rtol, det_scale = rk4_tolerance(p, sol, run["T"], step)
        dev_tol = rtol * det_scale.max() + REORDER_RTOL * scale.max()
        ok = data.shape == (n_steps + 1, 6) and bool(
            np.all(np.abs(data[:, 1:4] - mean) <= REORDER_RTOL * scale)
            and np.all(np.abs(data[:, 4] - np.percentile(dev, 50.0, axis=1)) <= dev_tol)
            and np.all(np.abs(data[:, 5] - np.percentile(dev, 95.0, axis=1)) <= dev_tol))
        rep.expect("sde.ensemble-vector-loop", ok,
                   f"{op.name}: ensemble differs from the vectorised {run['scheme']} loop")
        # a mean of equal values may round in its last bit; the deviation is exactly 0
        rep.expect("sde.row0",
                   np.allclose(data[0, 1:4], start, rtol=REORDER_RTOL, atol=0.0)
                   and np.array_equal(data[0, 4:], [0.0, 0.0]),
                   f"{op.name}: row 0 {data[0, 1:]} is not the initial state with zero deviation")
        rep.expect("sde.nonnegative", data[:, 1:].min() >= 0.0,
                   f"{op.name}: a mean or deviation is negative ({data[:, 1:].min()!r})")
        steps += op.paths * n_steps + n_steps  # paths, and the deterministic reference
    return steps


# ------------------------------------------------------------- sde-many-paths


def check_sde_many_paths(ops, outputs, outroot, rep, solutions):
    steps = 0
    for op, outs in zip(ops, outputs):
        if any(rc != 0 for rc, _ in outs):
            continue
        p, run = ref.params(op.doc["parameters"]), op.doc["run"]
        rows = _csv(os.path.join(outroot, op.name, "concentration.csv"),
                    "eps,rho,t_lo,t_hi,n,exceed,p_hat,ci_lo,ci_hi")
        eps, rho, t_lo, t_hi, n, exceed, p_hat, ci_lo, ci_hi = rows.T
        eta = ref.eta(p)
        rep.expect("mc.table",
                   list(eps) == run["eps_list"] and np.all(rho == run["rho"])
                   and np.all(n == run["n"]) and np.all(p_hat == exceed / n)
                   and np.all((exceed >= 0) & (exceed <= n)),
                   f"{op.name}: rows do not match the inputs eps/rho/n or p_hat != exceed/n")
        for k in range(len(rows)):
            lo, hi = ref.wilson(exceed[k], n[k])
            rep.expect("mc.wilson",
                       abs(ci_lo[k] - lo) <= WILSON_ATOL and abs(ci_hi[k] - hi) <= WILSON_ATOL,
                       f"{op.name} eps={eps[k]:g}: [{ci_lo[k]!r}, {ci_hi[k]!r}], scipy [{lo!r}, {hi!r}]")
        rep.expect("mc.window",
                   np.all(t_lo == t_lo[0]) and np.all(t_hi == t_hi[0])
                   and _close(t_hi[0] / t_lo[0], run["kappa2"] / run["kappa1"], 1e-12),
                   f"{op.name}: t_hi/t_lo = {t_hi[0] / t_lo[0]!r}, kappa2/kappa1 = "
                   f"{run['kappa2'] / run['kappa1']!r}")
        text = outs[0][1]
        eta_printed = _number(r"eta=(\S+)\)", text)
        rep.expect("mc.eta", _close(eta_printed, eta, PRINT6_RTOL),
                   f"{op.name}: eta {eta_printed!r}, closed form {eta!r}")
        # t_lo = kappa1 ln(c/rho)/eta, so the window carries c at full precision
        c_csv = run["rho"] * math.exp(t_lo[0] * eta / run["kappa1"])
        c_printed = _number(r"\(c=(\S+),", text)
        t_det = max(50.0, 10.0 / eta)
        step = p.tau / run["K"]
        n_det = math.ceil(t_det / step - 1e-9)
        sol = solutions.get(op.doc, t_det)
        times = step * np.arange(n_det + 1)
        dist = np.linalg.norm(sol(times) - ref.e0(p), axis=1)
        c_ref = float(np.max(dist * np.exp(eta * times)))
        # |sup f - sup g| <= sup |f - g|: c inherits the relative error of the nodes
        rtol, _ = rk4_tolerance(p, sol, t_det, step)
        rep.expect("mc.prefactor",
                   _close(c_csv, c_ref, rtol) and _close(c_printed, c_csv, PRINT6_RTOL),
                   f"{op.name}: c from the window {c_csv!r} (printed {c_printed!r}), "
                   f"reference envelope {c_ref!r}")
        _mc_counts(rep, op, p, exceed, eps, t_lo, t_hi, step)
        order = np.argsort(-eps, kind="stable")
        rep.expect("mc.monotone", bool(np.all(np.diff(exceed[order]) <= 0)),
                   f"{op.name}: exceedance counts {exceed[order]} rise as eps falls")
        steps += n_det + int(sum(n[k] * math.ceil(t_hi[k] / step - 1e-9) for k in range(len(rows))))
    return steps


def _mc_counts(rep, op, p, exceed, eps, t_lo, t_hi, step):
    """Each row's count against the vectorised loop on the same Philox streams.

    The statistic is the engine's: per path, the sup over the window nodes of
    the largest componentwise |node - E0|, counted at or above 2 rho. A path
    whose reference sup lies within the reordering tolerance of the threshold
    may fall on either side.
    """
    h, run = op.doc["history"], op.doc["run"]
    for k in range(len(eps)):
        pk = ref.params(op.doc["parameters"] | {"eps": float(eps[k])})
        nodes = ref.vector_paths(pk, h["s0"], h["q0"], h["i0"], t_hi[k], run["K"],
                                 run["seed"], run["scheme"], run["n"])
        times = step * np.arange(nodes.shape[0])
        window = (times >= t_lo[k] - 1e-12) & (times <= t_hi[k] + 1e-12)
        sup = np.abs(nodes[window] - ref.e0(p)[:, None]).max(axis=(0, 1))
        tol = REORDER_RTOL * np.abs(nodes).max()
        threshold = 2.0 * run["rho"]
        least = int(np.count_nonzero(sup >= threshold + tol))
        most = int(np.count_nonzero(sup >= threshold - tol))
        rep.expect("mc.counts", least <= exceed[k] <= most,
                   f"{op.name} eps={eps[k]:g}: {int(exceed[k])} exceedances, the vectorised "
                   f"{run['scheme']} loop gives {least}" + (f" to {most}" if most > least else ""))


CHECKS = {"det-sweep": check_det_sweep, "sde-few-paths": check_sde_few_paths,
          "sde-many-paths": check_sde_many_paths}
