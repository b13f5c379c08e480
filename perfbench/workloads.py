"""Seeded inputs and operation lists of the three workloads.

Every input is a scenario file written here; the program receives only
those files. A workload is a list of operations, run one after another by a
single client (closed loop). An operation is one CLI invocation, or on
det-sweep one scenario's chain of five invocations.
"""

import copy
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

HEUN, EULER = ref.HEUN, ref.EULER

# scenarios/reference.json and scenarios/concentration.json, held here so the
# benchmark's inputs do not change when the repository's examples do
REFERENCE = {
    "parameters": {"alpha": 0.5, "k1": 0.1, "k2": 0.05, "d": 20.0, "m": 1.0, "b": 10.0,
                   "mu": 0.2, "tau": 1.0, "M": 100.0, "eps": 0.01},
    "history": {"preset": "constant", "s0": 0.5, "q0": 10.0, "i0": 1.0, "n_grid": 128},
    "run": {"T": 50.0, "K": 64, "n": 400, "seed": 12345, "eps_list": [0.05, 0.02, 0.01],
            "rho": 0.05, "kappa1": 1.2, "kappa2": 2.0, "scheme": HEUN, "outdir": "out"},
}
CONCENTRATION = {
    "parameters": {"alpha": 0.5, "k1": 1.0, "k2": 0.05, "d": 2.4, "m": 1.0, "b": 10.0,
                   "mu": 0.2, "tau": 1.0, "M": 100.0, "eps": 0.01},
    "history": {"preset": "constant", "s0": 0.05, "q0": 1.0, "i0": 0.05, "n_grid": 128},
    "run": {"T": 50.0, "K": 64, "n": 400, "seed": 2024, "eps_list": [0.05, 0.02, 0.01],
            "rho": 0.05, "kappa1": 1.2, "kappa2": 2.0, "scheme": HEUN, "outdir": "out"},
}

# det-sweep: the delays and thresholds form fixed ladders that the seed only
# permutes, so the step count and the M-sized validator scan are the same work
# on every seed; the seed draws everything else
SWEEP_T = 100.0
SWEEP_K = 64
SWEEP_TAUS = tuple(np.linspace(0.5, 2.0, 8))
SWEEP_MS = (100.0,) * 6 + (200.0, 300.0)
DET_CHAIN = (
    ("validate", ("--json", "{out}/validate.json")),
    ("equilibria", ("--json", "{out}/equilibria.json")),
    ("min-dose", ()),
    ("simulate", ()),
    ("compare-coinfection", ()),
)

FEW_ENSEMBLE = 24  # paths of the small ensemble
MANY_PATHS = 2000  # paths per eps row of mc-concentration


@dataclass
class Op:
    name: str
    doc: dict
    commands: tuple  # (subcommand, extra argv) pairs; "{out}" is the op's output dir
    paths: int = 1  # --paths of simulate-sde
    scenario: str = field(default="", init=False)


def _sweep_scenario(rng, tau, M):
    """Draw parameters and a constant history until every hypothesis holds."""
    while True:
        p = ref.params(dict(
            alpha=rng.uniform(0.2, 1.0), k1=rng.uniform(0.05, 0.5),
            k2=rng.uniform(0.01, 0.1), d=1.0, m=rng.uniform(0.5, 2.0),
            b=rng.uniform(5.0, 20.0), mu=rng.uniform(0.1, 0.5), tau=float(tau), M=float(M),
        ))
        p.d = ref.minimal_dose(p) * rng.uniform(1.05, 1.5)
        if p.d / p.m >= 0.5 * p.M:
            continue
        # a fit over a finite window reads the slowest rate eta only when the
        # next mode is clearly faster; near-equal rates bias it below eta
        rates = sorted((p.k1 * p.d / p.m - p.alpha, p.m, p.mu))
        if rates[1] < 2.0 * rates[0]:
            continue
        s_max, i_max, q_min, _ = ref.invariant_box(p)
        s0 = rng.uniform(0.05, 0.9) * s_max
        q0 = rng.uniform(max(1.2 * q_min, 0.8 * p.d / p.m), 1.5 * p.d / p.m)
        # I0 above k1 q0 s0 (1 - e^{-mu tau})/mu keeps I positive, which the
        # plain-integral mass hypothesis alone does not guarantee
        i0 = 1.1 * p.k1 * q0 * s0 * (1.0 - math.exp(-p.mu * p.tau)) / p.mu + 0.01
        if q0 < p.M and i0 < i_max and ref.hypotheses_hold(p, s0, q0, i0):
            return {
                "parameters": vars(p),
                "history": {"preset": "constant", "s0": s0, "q0": q0, "i0": i0},
                "run": {"T": SWEEP_T, "K": SWEEP_K},
            }


def det_sweep(rng, n_generated=len(SWEEP_TAUS)):
    taus = rng.permutation(SWEEP_TAUS)[:n_generated]
    ms = rng.permutation(SWEEP_MS)[:n_generated]
    docs = [("reference", copy.deepcopy(REFERENCE)), ("concentration", copy.deepcopy(CONCENTRATION))]
    docs += [(f"gen{j:02d}", _sweep_scenario(rng, tau, M)) for j, (tau, M) in enumerate(zip(taus, ms))]
    return [Op(name, doc, DET_CHAIN) for name, doc in docs]


def _with_run(doc, **run):
    doc = copy.deepcopy(doc)
    doc["run"].update(run)
    return doc


def sde_few_paths(rng, ensemble=FEW_ENSEMBLE):
    ops = []
    for base_name, base in (("reference", REFERENCE), ("concentration", CONCENTRATION)):
        for scheme in (HEUN, EULER):
            tag = f"{base_name}-{'heun' if scheme == HEUN else 'euler'}"
            seed = int(rng.integers(0, 2**32))
            ops.append(Op(f"{tag}-path", _with_run(base, scheme=scheme, seed=seed),
                          (("simulate-sde", ("--paths", "1")),)))
            seed = int(rng.integers(0, 2**32))
            ops.append(Op(f"{tag}-ensemble", _with_run(base, scheme=scheme, seed=seed),
                          (("simulate-sde", ("--paths", str(ensemble))),), paths=ensemble))
    return ops


def sde_many_paths(rng, n=MANY_PATHS):
    return [
        Op(f"concentration-{'heun' if scheme == HEUN else 'euler'}",
           _with_run(CONCENTRATION, scheme=scheme, n=n, seed=int(rng.integers(0, 2**32))),
           (("mc-concentration", ()),), paths=n)
        for scheme in (HEUN, EULER)
    ]


WORKLOADS = {"det-sweep": det_sweep, "sde-few-paths": sde_few_paths,
             "sde-many-paths": sde_many_paths}


def generate(workload, seed, directory, **sizes):
    """Write the workload's scenario files for this seed; return its operations."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    ops = WORKLOADS[workload](rng, **sizes)
    os.makedirs(directory, exist_ok=True)
    for op in ops:
        op.scenario = os.path.join(directory, f"{op.name}.json")
        with open(op.scenario, "w") as fh:
            json.dump(op.doc, fh, indent=2)
    return ops


def argv(op, command, out):
    sub, extra = command
    return [sub, op.scenario, "--outdir", out, *(a.replace("{out}", out) for a in extra)]
