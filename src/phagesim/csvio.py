"""CSV emission: full-precision, header always present, LF line endings."""

import csv
import math

from .errors import DomainError


def write_csv(header, rows, path):
    """Write a table of tuple rows; numeric cells carry 17 significant digits.

    Each row is formatted by one %-string as wide as the header. `%.17g`
    prints an int of magnitude up to 2**53, such as a path count, as `str`
    does, and formatted numbers never need quoting; the header goes through
    the csv module.
    """
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for row in rows:
            fh.write(line % row)


def trajectory_rows(traj, dense_dt=None):
    """(t, S, I, Q) rows at node resolution, optionally resampled at dense_dt.

    The dense grid is k*dense_dt, so it does not drift and a grid
    point that lands on the end is exactly t_end.
    """
    if dense_dt is None:
        for t, y in zip(traj.times.tolist(), traj.states.tolist()):
            yield (t, *y)
        return
    if not (math.isfinite(dense_dt) and dense_dt > 0.0):
        raise DomainError(f"dense step must be positive and finite, got {dense_dt!r}")
    k = 0
    t = 0.0
    while t <= traj.t_end + 1e-12:
        t = min(t, traj.t_end)
        yield (t, *traj.eval(t).tolist())
        k += 1
        t = k * dense_dt


def write_trajectory(traj, path, dense_dt=None):
    header = ["t", "S", "I", "Q"] if traj.dim == 3 else ["t", "S", "Q"]
    write_csv(header, trajectory_rows(traj, dense_dt), path)


def write_ensemble(stats, path):
    header = ["t", "mean_S", "mean_I", "mean_Q", "dev_p50", "dev_p95"]
    columns = (stats.times, stats.mean, stats.dev_p50, stats.dev_p95)
    rows = ((t, *m, p50, p95) for t, m, p50, p95 in zip(*(c.tolist() for c in columns)))
    write_csv(header, rows, path)


def write_concentration(table, path):
    header = ["eps", "rho", "t_lo", "t_hi", "n", "exceed", "p_hat", "ci_lo", "ci_hi"]
    rows = (
        (r.eps, r.rho, r.t_lo, r.t_hi, r.n, r.exceed, r.p_hat, r.ci_lo, r.ci_hi)
        for r in table.rows
    )
    write_csv(header, rows, path)
