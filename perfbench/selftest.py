"""Self-test of the checks: a corrupted artifact must fail the check it targets.

    python3 perfbench/selftest.py

Runs one round of each workload at reduced size, confirms that the checks
pass on the untouched artifacts, then corrupts one artifact at a time in a
copy and confirms that the targeted check rejects it. Exits 1 if a clean
round fails or a corruption goes unnoticed, which would make that check
vacuous.
"""

import json
import os
import shutil
import sys

import numpy as np

import checks
import reference as ref
import workloads
from run import SRC, WORK, fingerprint, run_round

SEED = 1
SMALL = {
    "det-sweep": {"n_generated": 1},
    "sde-few-paths": {"ensemble": 4},
    "sde-many-paths": {"n": 50},
}


def edit_csv(path, change):
    with open(path) as fh:
        header = fh.readline()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    change(data)
    with open(path, "w") as fh:
        fh.write(header)
        for row in data:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def edit_json(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_text(outputs, op, command, change):
    rc, text = outputs[op][command]
    outputs[op][command] = (rc, change(text))


def _swap_doses(text):
    a, b = [line for line in text.splitlines() if line.startswith("  minimal dose = ")]
    return text.replace(a, "@").replace(b, a).replace("@", b)


def _set_entry(doc, entry, side, factor):
    next(c for c in doc["checks"] if c["id"] == entry)[side] *= factor


def _swap_rows(data, column, i, j):
    data[[i, j], column] = data[[j, i], column]


def _lower_count(data):
    """Drop one path from a row's count, leaving every other check satisfied."""
    order = np.argsort(-data[:, 0], kind="stable")  # eps falling, counts must not rise
    counts = list(data[order, 5]) + [0.0]
    k = next(j for j in range(len(order)) if counts[j] > counts[j + 1])
    row = data[order[k]]
    row[5] -= 1
    row[6] = row[5] / row[4]
    row[7:9] = ref.wilson(row[5], row[4])


def corruptions(ops, out):
    """(check, what is corrupted, function of (outputs)) per targeted check."""
    if ops[0].name == "reference":  # det-sweep
        run, K = ops[0].doc["run"], ops[0].doc["run"]["K"]
        i_max = ref.invariant_box(ref.params(ops[0].doc["parameters"]))[1]
        traj = os.path.join(out, "reference", "trajectory.csv")
        d_min = ref.minimal_dose(ref.params(ops[0].doc["parameters"]))
        return [
            ("det.trajectory-reference", "S at t = tau moved by 1e-5 of its scale",
             lambda o: edit_csv(traj, lambda a: a.__setitem__((K, 1), a[K, 1] + 1e-5 * abs(a[:, 1]).max()))),
            ("det.invariant-box", "one I node 1% above i_max",
             lambda o: edit_csv(traj, lambda a: a.__setitem__((5, 2), 1.01 * i_max))),
            ("det.equilibria", "first eigenvalue off by 1e-9 relative",
             lambda o: edit_json(os.path.join(out, "reference", "equilibria.json"),
                                 lambda d: d["eigenvalues"].__setitem__(0, d["eigenvalues"][0] * (1 + 1e-9)))),
            ("det.validate", "dose threshold off by 1e-8 relative",
             lambda o: edit_json(os.path.join(out, "reference", "validate.json"),
                                 lambda d: _set_entry(d, "dose-threshold", "rhs", 1 + 1e-8))),
            ("det.min-dose", "printed d_min off by 1e-8 relative",
             lambda o: edit_text(o, 0, 2, lambda t: t.replace(
                 f"d_min = {d_min:.10g}", f"d_min = {d_min * (1 + 1e-8):.10g}"))),
            ("det.coinfection-dose", "doses with and without coinfection swapped",
             lambda o: edit_text(o, 0, 4, _swap_doses)),
            ("det.decay-rate", "fitted rate lowered to 0.9 eta",
             lambda o: edit_text(o, 0, 3, lambda t: t.replace(
                 t[t.index("rate=") + 5:t.index(" (eta=")], "0.18"))),
        ]
    if ops[0].paths == 1:  # sde-few-paths: reference-heun-path, reference-heun-ensemble, ...
        path = os.path.join(out, ops[0].name, "sde_path.csv")
        ens = os.path.join(out, ops[1].name, "ensemble.csv")
        return [
            ("sde.path-scalar-loop", "S at row 100 moved by 1e-9 of its scale",
             lambda o: edit_csv(path, lambda a: a.__setitem__((100, 1), a[100, 1] + 1e-9 * abs(a[:, 1]).max()))),
            ("sde.ensemble-vector-loop", "mean_Q shifted by 1e-8 of its scale",
             lambda o: edit_csv(ens, lambda a: a.__setitem__((slice(1, None), 3), a[1:, 3] * (1 + 1e-8)))),
            ("sde.row0", "row 0 given a deviation of 1e-12",
             lambda o: edit_csv(ens, lambda a: a.__setitem__((0, 5), 1e-12))),
            ("sde.nonnegative", "last I node made negative",
             lambda o: edit_csv(path, lambda a: a.__setitem__((-1, 2), -abs(a[-1, 2]) - 1e-300))),
        ]
    table = os.path.join(out, ops[0].name, "concentration.csv")  # sde-many-paths
    return [
        ("mc.table", "p_hat of row 1 off by 1e-3",
         lambda o: edit_csv(table, lambda a: a.__setitem__((1, 6), a[1, 6] + 1e-3))),
        ("mc.wilson", "ci_hi of row 1 off by 1e-12",
         lambda o: edit_csv(table, lambda a: a.__setitem__((1, 8), a[1, 8] + 1e-12))),
        ("mc.window", "t_hi stretched by 0.1%",
         lambda o: edit_csv(table, lambda a: a.__setitem__((slice(None), 3), a[:, 3] * 1.001))),
        ("mc.prefactor", "window moved by 1%, ratio kept",
         lambda o: edit_csv(table, lambda a: a.__setitem__((slice(None), slice(2, 4)), a[:, 2:4] * 1.01))),
        ("mc.eta", "printed eta 0.21",
         lambda o: edit_text(o, 0, 0, lambda t: t.replace("eta=0.2)", "eta=0.21)"))),
        ("mc.counts", "one count lowered by 1; p_hat, Wilson and order kept",
         lambda o: edit_csv(table, _lower_count)),
        ("mc.monotone", "exceedance counts of the largest and smallest eps swapped",
         lambda o: edit_csv(table, lambda a: _swap_rows(a, slice(5, 9), 0, -1))),
    ]


def main():
    sys.path.insert(0, SRC)
    from phagesim import cli

    ok = True
    for workload, sizes in SMALL.items():
        work = os.path.join(WORK, f"selftest-{workload}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        try:
            ops = workloads.generate(workload, SEED, os.path.join(work, "inputs"), **sizes)
            clean = os.path.join(work, "clean")
            _, outputs = run_round(cli, ops, clean, scaled=False)
            solutions = checks.Solutions()
            rep = checks.Report()
            checks.CHECKS[workload](ops, outputs, clean, rep, solutions)
            print(f"{workload}: clean artifacts {'pass' if not rep.failures else 'FAIL'}")
            for failure in rep.failures:
                print(f"  {failure}")
            ok &= not rep.failures
            bad = os.path.join(work, "bad")
            first = True
            for check, what, corrupt in corruptions(ops, bad):
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(clean, bad)
                # as a later round would print it: under its own directory
                bad_outputs = json.loads(json.dumps(outputs).replace(clean, bad))
                same = fingerprint(bad, bad_outputs) == fingerprint(clean, outputs)
                corrupt(bad_outputs)
                rep = checks.Report()
                checks.CHECKS[workload](ops, bad_outputs, bad, rep, solutions)
                caught = check in rep.names()
                ok &= caught
                print(f"  {check:26s} {what:58s} {'rejected' if caught else 'NOT REJECTED'}")
                if first:  # a later round is compared with round 0 by fingerprint
                    caught = same and fingerprint(bad, bad_outputs) != fingerprint(clean, outputs)
                    ok &= caught
                    print(f"  {'rounds-identical':26s} {'the same corruption in a later round':58s} "
                          f"{'rejected' if caught else 'NOT REJECTED'}")
                    first = False
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
