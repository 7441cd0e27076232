"""Dataset ingestion, preprocessing, fold plumbing and the two output writers.

CSV files are RFC-4180-style with a header row, UTF-8.  Labels must take
exactly two distinct values; the mapping onto {0, 1} is recorded on the
Dataset.  Preprocessing filters variables by median and variance floors
and keeps the surviving columns in their raw units: the model's only
scale is each variable's centring Gaussian, fitted when the forest is
built.
"""

from __future__ import annotations

import csv
import json
import os
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError
from .polya_tree import column_sums, integer, number
from .rng import FOLD_STREAM, substream

__all__ = [
    "Dataset",
    "load_csv",
    "preprocess",
    "read_json",
    "split_folds",
    "write_csv",
    "write_json",
]


@dataclass
class Dataset:
    """Dense numeric matrix in raw units with optional binary labels.  The
    matrix is kept C-ordered (a C-ordered one is not copied), so no column sum,
    and no fitted result, depends on the orientation the data came in."""

    matrix: np.ndarray
    labels: np.ndarray | None
    names: list
    label_mapping: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise InputError("matrix must be two-dimensional")
        if not isinstance(self.names, (list, tuple)) or len(self.names) != self.matrix.shape[1]:
            raise InputError("names must be a list of one name per variable")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.matrix.shape[0],):
                raise InputError("one label per row is required")
            # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
            if not np.all((labels == 0) | (labels == 1)):
                raise InputError("labels must be 0 or 1")
            self.labels = labels.astype(np.int8)

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
    carries the labels.  Blank lines are skipped.  Cells that fail to parse
    are reported with their row numbers (1-based, header included, blank
    lines not counted).  A label named by more than one column, or by more
    than one well-formed row, is refused.

    Rows are parsed as they are read: each accepted row's cells go through
    `float` into one float buffer, which becomes the matrix without a copy;
    with variables in rows, the transpose is copied once into C order
    (`Dataset`).
    Beyond the Dataset, the loader holds one row of strings at a time (and
    the labels and names), never a list of all the rows.
    """
    if orientation not in ("samples-in-rows", "variables-in-rows"):
        raise InputError(f"unknown orientation {orientation!r}")
    by_rows = orientation == "variables-in-rows"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = filter(None, csv.reader(fh))  # a blank line reads as []
        header, first = next(rows, None), next(rows, None)
        if first is None:
            raise InputError(f"{path}: need a header row and at least one data row")

        # `lead` is the field of each data row that is not a value: the row's
        # variable name with variables in rows, the label with samples in rows
        names = header
        lead = 0 if by_rows else None
        if label_column is not None and not by_rows:
            if label_column not in names:
                raise InputError(f"label column {label_column!r} not in header")
            lead = names.index(label_column)
            names = names[:lead] + names[lead + 1:]
        values = array("d")
        accepted, leads, label_rows, bad = 0, [], [], []
        for i, row in enumerate(chain([first], rows), start=2):
            if len(row) != len(header):
                bad.append((i, "wrong field count"))
                continue
            if by_rows and row[0] == label_column:
                label_rows.append(row[1:])
                continue
            if lead is not None:
                leads.append(row.pop(lead))
            end = len(values)
            try:
                values.extend(map(float, row))
            except ValueError:
                del values[end:]  # the row's cells parsed before the bad one
                bad.append((i, "non-numeric cell"))
            else:
                accepted += 1
    if bad:
        detail = "; ".join(f"row {i}: {msg}" for i, msg in bad[:20])
        raise InputError(f"{path}: {len(bad)} unparseable row(s): {detail}")
    matrix = np.frombuffer(values, dtype=float).reshape(accepted, len(header) - (lead is not None))
    raw_labels = label_rows[0] if by_rows and label_rows else leads
    if label_column is not None:
        named = len(label_rows) if by_rows else header.count(label_column)
        if named == 0:  # with samples in rows, the header check above refused it
            raise InputError(f"label row {label_column!r} not found")
        if named > 1:
            raise InputError(f"label {label_column!r} is named {named} times; name it once")
    if by_rows:
        names, matrix = leads, matrix.T

    if len(set(names)) != len(names):
        dupes = sorted({v for v in names if names.count(v) > 1})
        raise InputError(f"duplicate variable names: {dupes[:10]}")

    labels, mapping = (None, {})
    if label_column is not None:
        labels, mapping = _map_labels(raw_labels, positive_label)
    return Dataset(matrix, labels, list(names), mapping)


def preprocess(dataset: Dataset, median_floor: float | None = None,
               variance_floor: float | None = None) -> Dataset:
    """Filter variables by median then variance; the kept columns stay raw.

    A variable is dropped when its median is <= `median_floor` or its
    sample variance is <= `variance_floor` (inclusive, matching the
    filtering protocol this mirrors); a floor must be None or a number
    (InputError).  The variances are the ddof-1 sums of squared deviations
    of `polya_tree.column_sums`, the bits of x.var(axis=0, ddof=1) on the
    C-ordered matrix, with no (n, p) temporary.  No column is rescaled: up
    to float rounding at cell boundaries, every fitted result is invariant
    to a per-column affine map with positive slope.
    """
    x, n = dataset.matrix, dataset.n
    keep = np.ones(dataset.p, dtype=bool)
    if median_floor is not None:
        keep &= np.median(x, axis=0) > number(median_floor, "median_floor")
    if variance_floor is not None:
        variances = (column_sums(x, centre=column_sums(x) / n) / (n - 1) if n > 1
                     else np.zeros(dataset.p))
        keep &= variances > number(variance_floor, "variance_floor")
    if not keep.any():
        raise InputError("preprocessing filtered out every variable")
    names = [nm for nm, k in zip(dataset.names, keep) if k]
    return Dataset(x[:, keep], dataset.labels, names, dict(dataset.label_mapping))


def split_folds(dataset: Dataset, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split: list of (train_idx, test_idx) pairs.

    Group proportions are preserved within one member per fold; both
    groups must have at least k members, and k and seed must be integers
    (InputError).
    """
    seed = integer(seed, "seed")
    if integer(k, "k") < 2:
        raise InputError("k must be at least 2")
    if dataset.labels is None:
        raise InputError("fold splitting requires labels")
    rng = substream(seed, FOLD_STREAM)
    fold = np.full(dataset.n, -1)
    for group in (1, 0):  # a group's permuted members are dealt to folds 0, 1, ..., k - 1, 0, ...
        idx = np.flatnonzero(dataset.labels == group)
        if idx.size < k:
            raise InputError(f"group {group} has {idx.size} member(s), fewer than k={k}")
        fold[rng.permutation(idx)] = np.arange(idx.size) % k
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


@contextmanager
def _kept_if_complete(fh):
    """The open file `fh`, closed at the end of the block; if the block or the
    close raises, the file is removed, so a failed write leaves no file."""
    try:
        with fh:
            yield fh
    except BaseException:
        with suppress(OSError):  # the write's own error is the one to report
            os.remove(fh.name)
        raise


def write_csv(path, header, rows):
    """Write a header row, unless it is empty, and then `rows` as CSV lines.
    A field holding a comma, a quote or a line break is quoted, and a float
    is written as its repr.  If a row fails (a raising iterator, say), the
    file is removed.  This and `write_json` are the only file writers."""
    with _kept_if_complete(open(path, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def read_json(path, what: str):
    """The JSON document in the file at `path`; one that is not UTF-8 JSON
    raises InputError naming `what`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise InputError(f"cannot parse {what} {path}: {exc}") from exc


def write_json(path, doc):
    """Write `doc` as compact JSON on one line, keys in its own order, and a newline.

    The whole text is encoded (by the C encoder, floats as their repr) before
    the file is opened, so a value JSON cannot hold raises TypeError or
    ValueError and no file is created.  `python -m json.tool FILE`
    pretty-prints the result."""
    text = json.dumps(doc, separators=(",", ":"))
    with _kept_if_complete(open(path, "w", encoding="utf-8")) as fh:
        fh.write(text + "\n")
