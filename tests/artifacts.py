"""Readers the tests use on the package's outputs, kept out of the package."""

import csv

import numpy as np


def read_csv(path):
    """Read back a numeric CSV as (header, float array)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows) if rows else np.empty((0, len(header)))


def failing_ids(report):
    """The ids of a ValidationReport's failing non-informational entries, in order."""
    return [e.id for e in report.entries if not e.informational and not e.passed]
