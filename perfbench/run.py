"""ptda benchmark: full simulation reps and streamed prediction in one process.

Run from the repository root:

    python3 perfbench/run.py --workload rep_wide --seed 1 --seconds 20 --trace 0

One caller drives one workload in a closed loop for --seconds, checks every
output, prints each value as `name value unit`, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 wraps ptda's layer functions
(tracing.py) and reports its per-layer metrics instead.  README.md in this
directory describes the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# one BLAS thread: the numpy import below must see these
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BATCH = 10          # points per streamed update_psi call
SETUP_PASSES = 3    # set-up is repeated; setup_s takes the median pass
REL_TOL = 1e-12     # batched psi from the loaded model against one in-memory call

# rep: the run_simulation_study shape, one rep per main op.  stream: the
# setting-1 training set of the saved model, and the pool of fresh points
# that the main op scores BATCH at a time, cycling through the pool.
WORKLOADS = {
    "rep_wide": dict(rep=dict(setting=1, n_train=100, n_test=1000, p=5000)),
    "rep_tall": dict(rep=dict(setting=2, n_train=1000, n_test=1000, p=1000)),
    "predict_stream": dict(stream=dict(n_train=100, p=5000, pool=300)),
}


def sub_seed(seed: int, k: int) -> int:
    """Input seed k of a workload seed: main reps use k < 500."""
    return seed * 1000 + k


def rows_problem(rows, p):
    if not rows:
        return "no rows"
    for row in rows:
        if row["tp"] + row["tn"] + row["fp"] + row["fn"] != p:
            return f"{row['method']} row: tp+tn+fp+fn != p"
    return None


class Bench:
    """One workload's inputs, operations and tallies."""

    def __init__(self, modules, rec, work: Path, seed: int):
        self.cvb, self.dataio, self.evalharness, self.simgen = modules
        self.rec = rec
        self.seed = seed
        self.csv = work / "train.csv"
        self.model_path = work / "model.json"
        self.attempted = 0
        self.failed = 0
        self.roots: dict[str, list[int]] = {}   # op kind -> root span indices
        self.cpu: dict[str, list[float]] = {}   # op kind -> process CPU seconds
        self.rep_rows: list[dict] = []           # ptda rows of the main reps

    def fail(self, problem: str):
        self.failed += 1
        print(f"failed {problem}", file=sys.stderr)

    def op(self, kind, fn, check=None):
        """Run one operation under a root span, then check its output.

        An exception, a failed output check inside ptda (tracing.py) or a
        failed `check` counts the operation as failed.  The span holds the
        op's wall time; its process CPU time goes to `self.cpu`.  Returns
        (span, result).
        """
        before = len(self.rec.failures)
        self.attempted += 1
        result = None
        cpu = time.process_time()
        with self.rec.span(kind) as span:
            try:
                result = fn()
            except Exception:
                traceback.print_exc()
                self.rec.failures.append(f"{kind}: raised")
        self.cpu.setdefault(kind, []).append(time.process_time() - cpu)
        self.roots.setdefault(kind, []).append(span.index)
        if check is not None and len(self.rec.failures) == before:
            try:
                problem = check(result)
            except Exception:
                traceback.print_exc()
                problem = "the check raised"
            if problem:
                self.rec.failures.append(f"{kind}: {problem}")
        if len(self.rec.failures) > before:
            self.fail(self.rec.failures[-1])
        return span, result

    # -- rep workloads -----------------------------------------------------

    def run_rep(self, kind, shape, seed, **options) -> float:
        run = self.evalharness.run_simulation_study
        span, rows = self.op(kind, lambda: run(reps=1, base_seed=seed, **shape, **options)[0],
                             lambda rows: rows_problem(rows, shape["p"]))
        if kind == "rep" and rows:
            self.rep_rows.append(next(r for r in rows if r["method"] == "ptda"))
        return span.seconds

    def warm_up(self, shape, i) -> float:
        """Set-up pass of a rep workload: a rep at the workload's setting and
        n with p=200, 100 test points and one c candidate, so that caches
        fill and lazy set-up finishes before timing."""
        return self.run_rep("setup", dict(shape, n_test=100, p=200), sub_seed(self.seed, 500 + i),
                            grid=[(1.0,) * 4])

    # -- predict_stream ----------------------------------------------------

    def make_stream_inputs(self, s):
        """Training CSV and fresh query points: input generation, not set-up."""
        import numpy as np

        spec = self.simgen.SimulationSpec(1, n_train=s["n_train"], n_test=s["pool"], p=s["p"],
                                          n_discriminative=min(50, s["p"]),
                                          seed=sub_seed(self.seed, 900))
        train, test, truth = self.simgen.generate(spec)
        np.savetxt(self.csv, np.column_stack([train.matrix, train.labels]), delimiter=",",
                   header=",".join(train.names + ["y"]), comments="", fmt="%.17g")
        self.pool, self.pool_labels, self.truth = test.matrix, test.labels, truth

    def stream_setup(self):
        """Set-up pass of predict_stream, what `ptda fit` then `ptda predict`
        pay: load the CSV, fit at c=1, save, load the model cold and make the
        first call.  Returns (seconds, in-memory model, loaded model, first psi)."""
        def run():
            ds = self.dataio.load_csv(self.csv, label_column="y")
            fitted = self.cvb.fit_model(ds.matrix, ds.labels, 1.0, names=ds.names)
            fitted.save(self.model_path)
            loaded = self.cvb.FittedModel.load(self.model_path)
            return fitted, loaded, self.cvb.update_psi(loaded, self.pool[:BATCH]).psi

        span, result = self.op("setup", run)
        return (span.seconds,) + (result or (None, None, None))

    def matches(self, psi, lo):
        """Problem, if any, with a batch's psi against the in-memory reference."""
        import numpy as np

        ref = self.ref[lo:lo + BATCH]
        if np.shape(psi) != np.shape(ref) or not np.all(np.abs(psi - ref) <= REL_TOL * np.abs(ref)):
            return "batched psi from the loaded model differs from the in-memory call"
        return None

    def batch(self, model, lo) -> float:
        points = self.pool[lo:lo + BATCH]
        span, _ = self.op("batch", lambda: self.cvb.update_psi(model, points).psi,
                          lambda psi: self.matches(psi, lo))
        return span.seconds


def layer_metrics(bench: Bench, main_kind: str) -> dict:
    """Per-layer metrics of a traced run.

    Times are medians over the main ops (per rep or per batch); counts come
    from the first main op, so they repeat exactly for a seed.  Model save,
    model load and CSV load come from the set-up passes.
    """
    rec = bench.rec
    mains = bench.roots.get(main_kind, [])
    profs = [rec.profile(i) for i in mains]
    first = profs[0] if profs else {}
    setups = [rec.profile(i) for i in bench.roots.get("setup", [])]

    def med(name, field="s", over=profs):
        return statistics.median(p.get(name, {}).get(field, 0.0) for p in over) if over else 0.0

    def count(name, field="calls"):
        return first.get(name, {}).get(field, 0)

    omega_calls = count("cvb.update_omega")
    builds = count("polya_tree.forest_build")
    return {
        "smoothing.select_c_s": med("smoothing.select_c"),
        "smoothing.select_c_self_s": med("smoothing.select_c", "self_s"),
        "smoothing.column_pvalues_s": med("smoothing.column_pvalues"),
        "smoothing.candidates": first.get("cvb.update_omega", {}).get("under", {})
                                     .get("smoothing.select_c", 0),
        "cvb.update_omega_s": med("cvb.update_omega"),
        "cvb.omega_calls": omega_calls,
        "cvb.omega_sweeps": count("cvb.update_omega", "sweeps"),
        "cvb.omega_unconverged": count("cvb.update_omega", "unconverged") / max(omega_calls, 1),
        "polya_tree.forest_build_s": med("polya_tree.forest_build"),
        "polya_tree.forest_builds_per_rep": builds,
        "polya_tree.forest_bytes": count("polya_tree.forest_build", "bytes") // max(builds, 1),
        "bnp_test.log_bf_s": med("bnp_test.log_bf"),
        "bnp_test.log_bf_calls": count("bnp_test.log_bf"),
        "cvb.path_prob_s": med("cvb.path_prob"),
        "cvb.path_prob_cells": count("cvb.path_prob", "cells"),
        "cvb.update_psi_s": med("cvb.update_psi"),
        "stats.normal_cdf_s": med("stats.normal_cdf"),
        "stats.normal_cdf_values": count("stats.normal_cdf", "values"),
        "cvb.fit_model_s": med("cvb.fit_model"),
        "simgen.generate_s": med("simgen.generate"),
        "evalharness.rep_self_s": med("self", "self_s"),
        "cvb.model_save_s": med("cvb.model_save", over=setups),
        "cvb.model_load_s": med("cvb.model_load", over=setups),
        "cvb.model_json_bytes": setups[-1].get("cvb.model_save", {}).get("bytes", 0) if setups else 0,
        "dataio.load_csv_s": med("dataio.load_csv", over=setups),
        "trace.op_s": statistics.median(rec.spans[i].seconds for i in mains) if mains else 0.0,
        "trace.spans_per_op": sum(e["calls"] for e in first.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ptda" / "__init__.py").is_file():
        print(f"perfbench: no ptda package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ptda
    from ptda import cvb, dataio, evalharness, simgen

    import_s = time.perf_counter() - start
    if Path(ptda.__file__).resolve().parent != SRC / "ptda":
        print(f"perfbench: imported ptda from {ptda.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    import tracing

    rec = tracing.Recorder(tracing=args.trace == 1)
    wrapped = tracing.install(rec)
    if args.trace:
        print("traced layers: " + " ".join(wrapped))
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    bench = Bench((cvb, dataio, evalharness, simgen), rec, work, args.seed)
    ops = []
    try:
        if "rep" in workload:
            shape = workload["rep"]
            setups = [bench.warm_up(shape, i) for i in range(SETUP_PASSES)]
            points_per_op = shape["n_test"]
            begin = time.perf_counter()
            while not ops or time.perf_counter() - begin < args.seconds:
                ops.append(bench.run_rep("rep", shape, sub_seed(args.seed, len(ops))))
            main_kind = "rep"
        else:
            bench.make_stream_inputs(workload["stream"])
            passes = [bench.stream_setup() for _ in range(SETUP_PASSES)]
            setups = [p[0] for p in passes]
            fitted, model = passes[-1][1], passes[-1][2]
            _, bench.ref = bench.op("reference", lambda: cvb.update_psi(fitted, bench.pool).psi)
            for _, _, loaded, first in passes:
                if loaded is not None:  # a pass that raised is counted already
                    problem = bench.matches(first, 0)
                    if problem:
                        bench.fail(f"setup: {problem}")
            points_per_op = BATCH
            n_batches = len(bench.pool) // BATCH
            begin = time.perf_counter()
            while not ops or time.perf_counter() - begin < args.seconds:
                ops.append(bench.batch(model, BATCH * (len(ops) % n_batches)))
            main_kind = "batch"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {
        "op_p50_s": float(np.percentile(ops, 50)),
        "op_p95_s": float(np.percentile(ops, 95)),
        "op_cpu_p95_s": float(np.percentile(bench.cpu[main_kind], 95)),
        "points_per_s": points_per_op * len(ops) / sum(ops),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if main_kind == "rep":
        values["result.test_error"] = statistics.fmean(
            r["classification_error"] for r in bench.rep_rows)
        values["result.selection_accuracy"] = statistics.fmean(
            r["selection_accuracy"] for r in bench.rep_rows)
    else:
        values["result.test_error"] = float(np.mean((bench.ref >= 0.5) != bench.pool_labels))
        values["result.selection_accuracy"] = float(np.mean((fitted.omega >= 0.5) == bench.truth))
    if args.trace:
        values.update(layer_metrics(bench, main_kind))

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {"op_p95_s": "s", "points_per_s": "1/s"}  # printed, not bounded
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units[name]}")
    print(f"ops: {bench.attempted} attempted, {bench.failed} failed; "
          f"{len(ops)} timed {main_kind} ops, {len(setups)} set-up passes")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
