#!/usr/bin/env python3
"""cellforge benchmark: end-to-end and per-layer cost of the public API.

Run from the root of a cellforge checkout:

    python3 perfbench/run.py --workload quickstart --seed 0 --seconds 30 --trace 0

Workloads (closed loop, one client, default knobs):

* ``quickstart``: the README quickstart step for step. Generate the default
  ``SynthSpec`` corpus, ``write_cell`` each cell into an empty directory,
  ``run_train`` ``configs/synthetic_variance_linear.yaml``, ``run_evaluate``
  the checkpoint, load the cells back for a degradation plot, then plot
  predicted vs. true from the checkpoint.
* ``forest``: the quickstart corpus is written in set-up; the timed part is
  ``run_train`` of ``configs/synthetic_qdmatrix_forest.yaml`` and
  ``run_evaluate``. Model fit, save, load and predict dominate.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``; ``--trace
1`` repeats the untraced iterations with spans around every layer and prints
the per-layer metrics. Every output is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Work files go to ``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import OpFailed, Ops, diff_records, summarize
from tracing import LAYERS, Tracer, tree_bytes, layer_values, self_times, subtree

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
CONFIGS = ROOT / "configs"
SETUP_STARTS = 9  # cold interpreter starts per run; setup_s takes their median
CHILD_TIMEOUT_S = 150

# Size of the default SynthSpec corpus at seed 0. The ten cell lives are drawn
# with a 45% spread, so the corpus of an arbitrary seed is ±15% (quartiles)
# away from it and every record-bound timing would move with it. The
# quickstart corpus is therefore a default corpus whose cycle count is within
# 1% of this one and, like it, has no cell shorter than MIN_CELL_CYCLES:
# SynthSpec.seed is the first of seed, seed + 16, seed + 32, ... that qualifies
# (steps of 16 give disjoint per-cell sub-seeds ``seed ^ i``).
QUICKSTART_CYCLES = 8733
QUICKSTART_TOLERANCE = 0.01
# The shipped configs read cycle index 99 and raise FeatureError (by design)
# on a shorter cell; the life draw is clamped at 10 cycles, so a few seeds
# have one.
MIN_CELL_CYCLES = 100

WORKLOADS = {
    "quickstart": {"config": "synthetic_variance_linear.yaml", "corpus_in_setup": False},
    "forest": {"config": "synthetic_qdmatrix_forest.yaml", "corpus_in_setup": True},
}
PROBE_CONFIG = "synthetic_soh_mlp.yaml"


def predicted_cell_cycles(synthetic, spec) -> list[int]:
    """Cycle count of each cell of ``spec``'s corpus, without generating it.

    Uses the generator's own per-cell life draw and cycle count (private
    helpers, so no copy of them can drift); :func:`check_corpus` confirms the
    prediction against every corpus the benchmark generates."""
    return [synthetic._n_cycles(
                synthetic._cell_life(np.random.default_rng((spec.seed ^ i) & synthetic._MASK64),
                                     spec),
                spec.knee_fraction)
            for i in range(spec.n_cells)]


def corpus_spec(synthetic, seed: int):
    """The quickstart ``SynthSpec`` for workload seed ``seed`` and its
    predicted per-cell cycle counts."""
    for k in range(10_000):
        spec = synthetic.SynthSpec(seed=seed + 16 * k)
        cells = predicted_cell_cycles(synthetic, spec)
        if (abs(sum(cells) - QUICKSTART_CYCLES) <= QUICKSTART_TOLERANCE * QUICKSTART_CYCLES
                and min(cells) >= MIN_CELL_CYCLES):
            return spec, cells
    raise RuntimeError(f"no quickstart-sized corpus near seed {seed}")


def _cellforge():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from cellforge import battery_data, pipeline, plots, synthetic

    return battery_data, pipeline, plots, synthetic


def _mb(n_bytes) -> float:
    return n_bytes / 1e6


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_records(ops, battery_data, generated, loaded):
    """Loaded cells equal the generated ones exactly, and each validates."""
    ops.check("records.count", len(generated) == len(loaded),
              f"{len(generated)} generated, {len(loaded)} loaded")
    by_id = {c.cell_id: c for c in loaded}
    for cell in generated:
        other = by_id.get(cell.cell_id)
        diffs = ["missing after load"] if other is None else diff_records(cell, other)
        ops.check("records.equal", not diffs, f"{cell.cell_id}: {diffs}")
    for cell in loaded:
        violations = battery_data.validate(cell)
        ops.check("records.validate", not violations, f"{cell.cell_id}: {violations[:3]}")


def check_corpus(ops, predicted, cells):
    """The generated corpus has the cycle counts its seed was chosen for."""
    got = [len(c.cycle_data) for c in cells]
    ops.check("corpus.predicted_cycles", got == predicted,
              f"generated {got}, predicted {predicted}")


def check_report(ops, checkpoint, report):
    ops.check("evaluate.equals_train_report", report == checkpoint.report,
              "run_evaluate differs from the train report")
    rmse = report.get("mean_rmse")
    ops.check("report.mean_rmse_finite", isinstance(rmse, float) and math.isfinite(rmse),
              f"mean_rmse={rmse!r}")


# ---------------------------------------------------------------------------
# Set-up child: one cold interpreter start, optionally building the corpus

def child_main(args) -> int:
    battery_data, pipeline, plots, synthetic = _cellforge()
    out = {"imported_at": time.monotonic(), "attempted": 0, "failures": [], "spans": []}
    if args.build:
        ops, tracer = Ops(), Tracer()
        if args.trace:
            tracer.install(LAYERS)
        spec, predicted = corpus_spec(synthetic, args.seed)
        cell_dir = WORK / "corpus" / "data" / "synthetic"
        cell_dir.mkdir(parents=True)
        try:
            with tracer.span("setup"):
                t0 = time.perf_counter()
                cells = ops.call("generate_synthetic", synthetic.generate_synthetic, spec)
                t1 = time.perf_counter()
                for cell in cells:
                    ops.call("write_cell", battery_data.write_cell, cell, cell_dir)
                t2 = time.perf_counter()
            with tracer.suspended():
                check_corpus(ops, predicted, cells)
                loaded = ops.call("load_cells", battery_data.load_cells, cell_dir)
                check_records(ops, battery_data, cells, loaded)
            out["build"] = {
                "generate_s": t1 - t0, "write_s": t2 - t1,
                **_corpus_facts(spec, cells, cell_dir),
            }
        except OpFailed:
            pass
        tracer.uninstall()
        out.update(attempted=ops.attempted, failures=ops.failures, spans=tracer.to_dicts(),
                   missing=sorted(tracer.missing))
    print(json.dumps(out))
    return 0


def _corpus_facts(spec, cells, cell_dir) -> dict:
    cycles = sum(len(c.cycle_data) for c in cells)
    points = sum(len(cyc.time_in_s) for c in cells for cyc in c.cycle_data)
    return {"synthspec_seed": spec.seed, "cells": len(cells), "cycles": cycles,
            "points_per_cycle": points / cycles, "corpus_bytes": tree_bytes(cell_dir)[0]}


def run_setup(args, workload) -> dict:
    """Cold starts in fresh interpreters; for ``forest`` the first also builds
    the corpus. ``setup_s`` is the median of the starts' import times; the
    corpus build, a single sample, is reported on its own and not bounded."""
    import_s, build, ops, spans, missing = [], None, Ops(), [], []
    for i in range(SETUP_STARTS):
        builds = workload["corpus_in_setup"] and i == 0
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child-setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--build", str(int(builds))]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        import_s.append(child["imported_at"] - spawned)
        ops.merge(child["attempted"], child["failures"])
        if builds:
            build, spans, missing = child.get("build"), child["spans"], child["missing"]
            if build is None:
                raise RuntimeError(f"corpus set-up failed: {ops.failures}")
    return {"setup_s": statistics.median(import_s), "import_s": import_s,
            "build": build, "ops": ops, "spans": spans, "missing": missing}


# ---------------------------------------------------------------------------
# Timed iterations (run in this process)

class Context:
    def __init__(self, args, workload, tracer, ops):
        self.battery_data, self.pipeline, self.plots, self.synthetic = _cellforge()
        self.tracer, self.ops = tracer, ops
        self.config = CONFIGS / workload["config"]
        self.spec, self.predicted = corpus_spec(self.synthetic, args.seed)
        self.last_cells = None
        self.corpus = None


def quickstart_iteration(ctx: Context, k: int) -> dict:
    bd, pl, plots, ops = ctx.battery_data, ctx.pipeline, ctx.plots, ctx.ops
    ctx.last_cells = None  # hold one generated corpus at a time
    work = WORK / f"iter{k}"
    (work / "data" / "synthetic").mkdir(parents=True)
    os.chdir(work)
    try:
        with ctx.tracer.span("iteration") as root:
            t0 = time.perf_counter()
            cells = ops.call("generate_synthetic", ctx.synthetic.generate_synthetic, ctx.spec)
            t1 = time.perf_counter()
            for cell in cells:
                ops.call("write_cell", bd.write_cell, cell, "data/synthetic")
            t2 = time.perf_counter()
            ckpt = ops.call("run_train", pl.run_train, ctx.config)
            t3 = time.perf_counter()
            report = ops.call("run_evaluate", pl.run_evaluate, ckpt.directory)
            loaded = ops.call("load_cells", bd.load_cells, "data/synthetic")
            soh = ops.call("make_plot", plots.make_plot, "degradation", "soh", cells=loaded)
            fit = ops.call("make_plot", plots.make_plot, "pred-vs-truth", "fit",
                           checkpoint=ckpt.directory)
            t4 = time.perf_counter()
        with ctx.tracer.suspended():
            check_corpus(ops, ctx.predicted, cells)
            check_records(ops, bd, cells, loaded)
            check_report(ops, ckpt, report)
            for path in (*soh, *fit):
                ops.check("plot.written", Path(path).is_file() and Path(path).stat().st_size > 0,
                          f"{path} missing or empty")
        if ctx.corpus is None:
            ctx.corpus = _corpus_facts(ctx.spec, cells, work / "data" / "synthetic")
        ctx.last_cells = cells
        return {
            "run_s": t4 - t0, "generate_s": t1 - t0, "write_s": t2 - t1, "train_s": t3 - t2,
            "corpus_mb": _mb(tree_bytes(work / "data" / "synthetic")[0]),
            "checkpoint_mb": _mb(tree_bytes(work / "workspace")[0]),
            "report_sha256": _sha256(Path(ckpt.directory) / "report.json"),
            "mean_rmse": report["mean_rmse"], "root": root.id,
        }
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def corpus_iteration(ctx: Context, k: int) -> dict:
    """forest: train and evaluate from the corpus built in set-up."""
    pl, ops = ctx.pipeline, ctx.ops
    work = WORK / "corpus"
    os.chdir(work)
    try:
        with ctx.tracer.span("iteration") as root:
            t0 = time.perf_counter()
            ckpt = ops.call("run_train", pl.run_train, ctx.config)
            t1 = time.perf_counter()
            report = ops.call("run_evaluate", pl.run_evaluate, ckpt.directory)
            t2 = time.perf_counter()
        with ctx.tracer.suspended():
            check_report(ops, ckpt, report)
        return {
            "run_s": t2 - t0, "train_s": t1 - t0,
            "corpus_mb": _mb(tree_bytes(work / "data" / "synthetic")[0]),
            "checkpoint_mb": _mb(tree_bytes(work / "workspace")[0]),
            "report_sha256": _sha256(Path(ckpt.directory) / "report.json"),
            "mean_rmse": report["mean_rmse"], "root": root.id,
        }
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work / "workspace", ignore_errors=True)


def run_iterations(ctx, iteration, seconds, count=None) -> list[dict]:
    """Closed loop: start another iteration until ``seconds`` have passed, or
    run exactly ``count`` of them."""
    samples, start, k = [], time.perf_counter(), 0
    while True:
        gc.collect()
        try:
            samples.append(iteration(ctx, k))
        except OpFailed:
            pass
        k += 1
        if k >= count if count is not None else time.perf_counter() - start >= seconds:
            return samples


def probe_known_defect(ctx: Context) -> dict:
    """Train the shipped SOH/MLP config on the in-memory quickstart cells.

    Runs after the timed interval and is reported on its own, outside
    ``attempted``/``failed``: it raises today (zero-variance first-cycle
    columns reach ColumnwiseZScoreDataTransformation), and its fix should
    show as this outcome changing, without moving any timing."""
    name = PROBE_CONFIG.removesuffix(".yaml")
    try:
        with ctx.tracer.suspended():
            ctx.pipeline.run_train(CONFIGS / PROBE_CONFIG, workspace=WORK / "probe",
                                   cells=ctx.last_cells)
    except Exception as exc:  # the outcome is the measurement
        return {"config": name, "outcome": "raised", "error": type(exc).__name__,
                "detail": str(exc)[:300]}
    return {"config": name, "outcome": "trained"}


# ---------------------------------------------------------------------------
# Aggregation and output

def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,  # look for .git in ROOT only
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, corpus) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, **corpus,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def end_to_end(setup, samples) -> dict:
    """Metric name -> summary (median with sample count)."""
    out = {"setup_s": {**summarize([setup["setup_s"]]), "n": SETUP_STARTS}}
    build = setup["build"]
    if build:
        out["corpus_build_s"] = summarize([build["generate_s"] + build["write_s"]])
    for key in ("run_s", "generate_s", "write_s", "train_s", "corpus_mb", "checkpoint_mb"):
        got = [s[key] for s in samples if key in s]
        out[key] = summarize(got if got else [build[key]])
    out["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6])
    return out


def per_layer(tracer, setup_spans, traced, untraced, names, missing, ops) -> tuple[dict, dict]:
    """Set-up spans once plus the median over traced iterations."""
    tracer.absorb(setup_spans)
    layer_names = [n for n in names if not n.startswith("trace.")]
    roots = [s for s in tracer.spans if s.parent is None]  # set-up and traced iterations
    selfs = self_times(tracer.spans)
    root_s = sum(r.end - r.start for r in roots)
    self_sum = sum(selfs.values())
    ops.check("trace.self_times_sum_to_roots", abs(self_sum - root_s) <= 1e-6,
              f"self {self_sum!r} vs roots {root_s!r}")
    setup_root = [r for r in roots if r.name == "setup"]
    base = (layer_values(subtree(tracer.spans, setup_root[0].id), layer_names, missing)
            if setup_root else dict.fromkeys(layer_names, 0))
    per_iter = [layer_values(subtree(tracer.spans, s["root"]), layer_names, missing)
                for s in traced]
    out = {}
    for name in layer_names:
        if base[name] is None:
            out[name] = None
        else:
            values = [v[name] for v in per_iter]
            pick = statistics.median_low if all(isinstance(x, int) for x in values) \
                else statistics.median  # a count stays a whole number
            out[name] = base[name] + pick(values)
    traced_s = statistics.median(s["run_s"] for s in traced)
    untraced_s = statistics.median(s["run_s"] for s in untraced)
    out["trace.overhead_s"] = traced_s - untraced_s
    facts = {"trace_id": tracer.trace_id, "spans": len(tracer.spans), "root_s": root_s,
             "self_sum_s": self_sum, "traced_run_s": summarize([s["run_s"] for s in traced]),
             "overhead_ratio": {"value": out["trace.overhead_s"] / untraced_s,
                                "base": "median untraced run_s", "base_value": untraced_s}}
    return out, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "cellforge").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a cellforge checkout "
              "(src/cellforge and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    if args.child_setup:
        return child_main(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result = run_workload(args, bench)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(WORK, ignore_errors=True)
    for line in result["lines"]:
        print(line)
    print("details: " + json.dumps(result["details"], sort_keys=True))
    print(json.dumps(result["final"]))
    return 0


def run_workload(args, bench) -> dict:
    workload = WORKLOADS[args.workload]
    setup = run_setup(args, workload)
    ops = setup["ops"]
    ctx = Context(args, workload, Tracer(), ops)
    iteration = quickstart_iteration if args.workload == "quickstart" else corpus_iteration
    untraced = run_iterations(ctx, iteration, args.seconds)
    if not untraced:
        raise SystemExit(f"perfbench: no iteration of {args.workload} completed: {ops.failures}")
    e2e = end_to_end(setup, untraced)

    traced, layers, facts = [], None, None
    if args.trace:
        ctx.tracer = tracer = Tracer()
        tracer.install(LAYERS)
        try:
            traced = run_iterations(ctx, iteration, args.seconds, count=len(untraced))
        finally:
            tracer.uninstall()
        if not traced:
            raise SystemExit(f"perfbench: no traced iteration completed: {ops.failures}")
        layers, facts = per_layer(tracer, setup["spans"], traced, untraced,
                                  [m["name"] for m in bench["per_layer"]],
                                  tracer.missing | set(setup["missing"]), ops)
    probe = probe_known_defect(ctx) if ctx.last_cells else None

    corpus = setup["build"] or ctx.corpus
    corpus = {k: corpus[k] for k in ("synthspec_seed", "cells", "cycles", "points_per_cycle",
                                     "corpus_bytes")}
    details = {
        "provenance": provenance(args, corpus),
        "end_to_end": e2e,
        "setup_import_s": setup["import_s"],
        "samples": [{k: v for k, v in s.items() if k != "root"} for s in untraced],
        "report_sha256": sorted({s["report_sha256"] for s in untraced + traced}),
        "mean_rmse": untraced[0]["mean_rmse"],
        "ops": ops.attempted, "ops_failed": len(ops.failures), "failures": ops.failures,
        "failure_share": {"value": len(ops.failures) / ops.attempted,
                          "base": "ops attempted", "base_value": ops.attempted},
        "known_defect_probe": probe,
    }
    lines = [f"workload {args.workload}  seed {args.seed}"
             f"  SynthSpec.seed {corpus['synthspec_seed']}"
             f"  {corpus['cells']} cells  {corpus['cycles']} cycles"
             f"  {len(untraced)} timed iteration(s)"]
    for name, summ in e2e.items():
        unit = "s" if name.endswith("_s") else "MB"
        lines.append(f"  {name:<16} {summ['median']:>14.6f} {unit}  (median of {summ['n']})")
    lines.append(f"  {'mean_rmse':<16} {details['mean_rmse']:>14.6f} cycles")
    lines.append(f"  {'ops':<16} {ops.attempted:>14d} count")
    lines.append(f"  {'ops_failed':<16} {len(ops.failures):>14d} count")
    for failure in ops.failures:
        lines.append(f"    failed {failure['op']}: {failure['error']}: {failure['detail']}")
    if probe:
        lines.append(f"  known defect probe {probe['config']}: {probe['outcome']}"
                     + (f" ({probe['error']})" if "error" in probe else ""))

    if args.trace:
        details["trace"], details["per_layer"] = facts, layers
        for m in bench["per_layer"]:
            value = layers[m["name"]]
            shown = ("missing" if value is None
                     else f"{value:.6f}" if isinstance(value, float) else str(value))
            lines.append(f"  {m['name']:<34} {shown:>14} {m['unit']}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["median"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    final = {"correct": not ops.failures, "attempted": ops.attempted,
             "failed": len(ops.failures), "metrics": metrics}
    return {"lines": lines, "details": details, "final": final}


if __name__ == "__main__":
    raise SystemExit(main())
