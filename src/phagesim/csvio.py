"""CSV emission: full-precision, header always present, LF line endings."""

import csv
import math

import numpy as np

from . import dde
from .errors import DomainError

ROW_CHUNK = 2**12  # trajectory rows evaluated and formatted at once


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


def check_dense(t_end, dense_dt):
    """Refuse, with DomainError, a `simulate --dense` step that is not positive and finite,
    or that resamples [0, t_end] into more than dde.MAX_STEPS rows, t_end / dense_dt + 1."""
    if not (math.isfinite(dense_dt) and dense_dt > 0.0):
        raise DomainError(f"--dense must be a positive finite time step, got {dense_dt!r}")
    if (rows := t_end / dense_dt + 1.0) > dde.MAX_STEPS:
        raise DomainError(f"--dense {dense_dt:g} to the trajectory's end t = {t_end:g} gives "
                          f"{rows:.7g} rows; the limit is {dde.MAX_STEPS} rows")


def trajectory_rows(traj, dense_dt=None):
    """(t, S, I, Q) rows at node resolution, or resampled at dense_dt, ROW_CHUNK at a time.

    Row k is Trajectory.eval at k*step, step h or dense_dt, while at most t_end + 1e-12, and
    clipped to t_end: the grid does not drift, and a point on the end is exactly t_end.
    """
    step, last = traj.h, len(traj)
    if dense_dt is not None:
        check_dense(traj.t_end, dense_dt)
        span = (traj.t_end + 1e-12) / dense_dt
        # k*dense_dt may round to within t_end + 1e-12 at k = floor(span) + 1, not past it
        step, last = dense_dt, int(span) + 2
    for k in range(0, last, ROW_CHUNK):
        ts = np.arange(k, min(k + ROW_CHUNK, last)) * step
        ts = np.minimum(ts[ts <= traj.t_end + 1e-12], traj.t_end)
        yield from zip(ts.tolist(), *traj.eval(ts).T.tolist())


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
