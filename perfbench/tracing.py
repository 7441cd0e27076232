"""Spans, counts and output checks around ptda's layer functions, from outside.

`install` replaces each function named in LAYERS with a wrapper: in every
loaded `ptda` module that holds the function under any name, and on the
class for methods.  A name that a refactor removed is skipped, so it gives
no span instead of a crash.  With tracing off only the functions that carry
an output check are wrapped, and the wrappers record no spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays an object stores, directly or in lists."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, (list, tuple)) else (value,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


def _omega_counts(args, result):
    return {"sweeps": int(result.iteration), "unconverged": int(not result.converged)}


def _check_omega(result):
    omega = np.asarray(getattr(result, "omega", result), dtype=float)
    if not np.all((omega >= 0.0) & (omega <= 1.0)):
        return "an omega lies outside [0, 1]"
    return None


def _check_psi(result):
    psi = np.asarray(getattr(result, "psi", result), dtype=float)
    if not np.all(np.isfinite(psi) & (psi > 0.0) & (psi < 1.0)):
        return "a psi is not finite and strictly inside (0, 1)"
    return None


# (home module, attribute or Class.method, span name, counter, output check)
LAYERS = (
    ("ptda.simgen", "generate", "simgen.generate", None, None),
    ("ptda.dataio", "load_csv", "dataio.load_csv", None, None),
    ("ptda.smoothing", "select_c", "smoothing.select_c", None, None),
    ("ptda.smoothing", "column_pvalues", "smoothing.column_pvalues", None, None),
    ("ptda.polya_tree", "TreeForest.from_matrix", "polya_tree.forest_build",
     lambda args, result: {"bytes": _array_bytes(result)}, None),
    ("ptda.bnp_test", "log_bayes_factors", "bnp_test.log_bf", None, None),
    ("ptda.cvb", "update_omega", "cvb.update_omega", _omega_counts, _check_omega),
    ("ptda.cvb", "log_path_probability_matrix", "cvb.path_prob",
     lambda args, result: {"cells": int(np.size(result[0]))}, None),
    ("ptda.cvb", "update_psi", "cvb.update_psi", None, _check_psi),
    ("ptda.stats", "normal_cdf", "stats.normal_cdf",
     lambda args, result: {"values": int(np.size(args[0]))}, None),
    ("ptda.cvb", "fit_model", "cvb.fit_model", None, None),
    ("ptda.cvb", "FittedModel.save", "cvb.model_save",
     lambda args, result: {"bytes": os.path.getsize(args[1])}, None),
    ("ptda.cvb", "FittedModel.load", "cvb.model_load", None, None),
)


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "counts")

    def __init__(self, index, name, start, parent):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans kept in memory (single caller, so one stack) plus failed checks."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[Span] = []
        self.failures: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(s.index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def profile(self, root: int) -> dict:
        """Per span name under `root`: calls, seconds, self seconds, summed counts.

        The root itself is reported under the key "self".  Self time is a
        span's duration minus its direct children's durations.
        """
        child_s: dict[int, float] = {}
        inside = {root}
        out: dict = {}
        for i in range(root + 1, len(self.spans)):
            s = self.spans[i]
            if s.parent is None:
                break  # the next root: spans are appended in start order
            if s.parent not in inside:
                continue
            inside.add(i)
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
        for i in sorted(inside):
            s = self.spans[i]
            key = "self" if i == root else s.name
            entry = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "under": {}})
            entry["calls"] += 1
            entry["s"] += s.seconds
            entry["self_s"] += s.seconds - child_s.get(i, 0.0)
            if s.parent is not None and i != root:
                parent = "self" if s.parent == root else self.spans[s.parent].name
                entry["under"][parent] = entry["under"].get(parent, 0) + 1
            for k, v in s.counts.items():
                entry[k] = entry.get(k, 0) + v
        return out


def _wrap(fn, name, rec: Recorder, count, check):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.tracing:
            with rec.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, result))
        else:
            result = fn(*args, **kwargs)
        if check is not None:
            problem = check(result)
            if problem:
                rec.failures.append(f"{name}: {problem}")
        return result

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Wrap every LAYERS function that exists; returns the names wrapped."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ptda" or n.startswith("ptda."))]
    wrapped = []
    for home_name, target, name, count, check in LAYERS:
        if not (rec.tracing or check):
            continue
        home = sys.modules.get(home_name)
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(raw.__func__, name, rec, count, check)))
            else:
                setattr(owner, attr, _wrap(raw, name, rec, count, check))
        else:
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = _wrap(fn, name, rec, count, check)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        wrapped.append(name)
    return wrapped
