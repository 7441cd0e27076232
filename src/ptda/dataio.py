"""Dataset ingestion, preprocessing, and fold plumbing.

CSV files are RFC-4180-style with a header row, UTF-8.  Labels must take
exactly two distinct values; the mapping onto {0, 1} is recorded on the
Dataset.  Preprocessing filters variables by median and variance floors
and keeps the surviving columns in their raw units: the model's only
scale is each variable's centring Gaussian, fitted when the forest is
built.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .rng import FOLD_STREAM, substream

__all__ = [
    "Dataset",
    "load_csv",
    "preprocess",
    "split_folds",
    "write_predictions_csv",
]


@dataclass
class Dataset:
    """Dense numeric matrix in raw units with optional binary labels."""

    matrix: np.ndarray
    labels: np.ndarray | None
    names: list
    label_mapping: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise InputError("matrix must be two-dimensional")
        if len(self.names) != self.matrix.shape[1]:
            raise InputError("one name per variable is required")
        if self.labels is not None:
            self.labels = np.asarray(self.labels).astype(np.int8)
            if self.labels.shape != (self.matrix.shape[0],):
                raise InputError("one label per row is required")
            if not np.all((self.labels == 0) | (self.labels == 1)):
                raise InputError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


def _map_labels(raw: list, positive_label: str | None) -> tuple[np.ndarray, dict]:
    values = sorted(set(raw))
    if len(values) != 2:
        raise InputError(f"labels must take exactly two distinct values, found {len(values)}: {values[:5]}")
    if positive_label is not None:
        if positive_label not in values:
            raise InputError(f"positive label {positive_label!r} not among label values {values}")
        negative = values[0] if values[1] == positive_label else values[1]
        mapping = {negative: 0, positive_label: 1}
    elif values == ["0", "1"]:
        mapping = {"0": 0, "1": 1}
    else:
        # deterministic fallback: lexicographically smaller value is group 0
        mapping = {values[0]: 0, values[1]: 1}
    return np.array([mapping[v] for v in raw], dtype=np.int8), mapping


def load_csv(path, label_column: str | None = None, orientation: str = "samples-in-rows",
             positive_label: str | None = None) -> Dataset:
    """Read a dataset from CSV.

    With `orientation="variables-in-rows"` the first column holds row
    names, the header holds sample ids, and the row named `label_column`
    carries the labels.  Cells that fail to parse are reported with their
    row numbers (1-based, header included).
    """
    if orientation not in ("samples-in-rows", "variables-in-rows"):
        raise InputError(f"unknown orientation {orientation!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header, body = rows[0], rows[1:]

    if orientation == "samples-in-rows":
        names = header
        if label_column is not None:
            if label_column not in names:
                raise InputError(f"label column {label_column!r} not in header")
            label_idx = names.index(label_column)
            names = names[:label_idx] + names[label_idx + 1:]
        raw_labels, cells = [], []
        bad = []
        for i, row in enumerate(body, start=2):
            if len(row) != len(header):
                bad.append((i, "wrong field count"))
                continue
            if label_column is not None:
                raw_labels.append(row[label_idx])
                row = row[:label_idx] + row[label_idx + 1:]
            try:
                cells.append([float(v) for v in row])
            except ValueError:
                bad.append((i, "non-numeric cell"))
        if bad:
            detail = "; ".join(f"row {i}: {msg}" for i, msg in bad[:20])
            raise InputError(f"{path}: {len(bad)} unparseable row(s): {detail}")
        matrix = np.array(cells, dtype=float)
    else:
        sample_ids = header[1:]
        names, data_rows, label_row = [], [], None
        bad = []
        for i, row in enumerate(body, start=2):
            if len(row) != len(header):
                bad.append((i, "wrong field count"))
                continue
            if label_column is not None and row[0] == label_column:
                label_row = row[1:]
                continue
            try:
                data_rows.append([float(v) for v in row[1:]])
                names.append(row[0])
            except ValueError:
                bad.append((i, "non-numeric cell"))
        if bad:
            detail = "; ".join(f"row {i}: {msg}" for i, msg in bad[:20])
            raise InputError(f"{path}: {len(bad)} unparseable row(s): {detail}")
        if label_column is not None and label_row is None:
            raise InputError(f"label row {label_column!r} not found")
        raw_labels = label_row if label_column is not None else []
        matrix = np.array(data_rows, dtype=float).T
        if matrix.size == 0:
            matrix = matrix.reshape(len(sample_ids), 0)

    if len(set(names)) != len(names):
        dupes = sorted({v for v in names if names.count(v) > 1})
        raise InputError(f"duplicate variable names: {dupes[:10]}")

    labels, mapping = (None, {})
    if label_column is not None:
        labels, mapping = _map_labels(list(raw_labels), positive_label)
    return Dataset(matrix, labels, list(names), mapping)


def preprocess(dataset: Dataset, median_floor: float | None = None,
               variance_floor: float | None = None) -> Dataset:
    """Filter variables by median then variance; the kept columns stay raw.

    A variable is dropped when its median is <= `median_floor` or its
    sample variance is <= `variance_floor` (inclusive, matching the
    filtering protocol this mirrors).  No column is rescaled: up to float
    rounding at cell boundaries, every fitted result is invariant to a
    per-column affine map with positive slope.
    """
    x = dataset.matrix
    keep = np.ones(dataset.p, dtype=bool)
    if median_floor is not None:
        keep &= np.median(x, axis=0) > median_floor
    if variance_floor is not None:
        variances = x.var(axis=0, ddof=1) if dataset.n > 1 else np.zeros(dataset.p)
        keep &= variances > variance_floor
    if not keep.any():
        raise InputError("preprocessing filtered out every variable")
    names = [nm for nm, k in zip(dataset.names, keep) if k]
    return Dataset(x[:, keep], dataset.labels, names, dict(dataset.label_mapping))


def split_folds(dataset: Dataset, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split: list of (train_idx, test_idx) pairs.

    Group proportions are preserved within one member per fold; both
    groups must have at least k members.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    if dataset.labels is None:
        raise InputError("fold splitting requires labels")
    rng = substream(seed, FOLD_STREAM)
    folds: list[list] = [[] for _ in range(k)]
    for group in (1, 0):
        idx = np.flatnonzero(dataset.labels == group)
        if idx.size < k:
            raise InputError(f"group {group} has {idx.size} member(s), fewer than k={k}")
        perm = rng.permutation(idx)
        for f in range(k):
            folds[f].extend(perm[f::k].tolist())
    out = []
    all_idx = np.arange(dataset.n)
    for f in range(k):
        test = np.array(sorted(folds[f]), dtype=int)
        mask = np.ones(dataset.n, dtype=bool)
        mask[test] = False
        out.append((all_idx[mask], test))
    return out


def write_predictions_csv(path, psi, labels=None):
    """Emit (row id, psi, label) rows; labels default to the 0.5 threshold."""
    psi = np.asarray(psi, dtype=float)
    if labels is None:
        labels = (psi >= 0.5).astype(int)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,psi,label\n")
        for i, (value, lab) in enumerate(zip(psi, labels)):
            fh.write(f"{i},{float(value)!r},{int(lab)}\n")
