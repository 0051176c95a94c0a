"""The mclift benchmark: seeded CLI job mixes, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's jobs (see workloads.py and
NOTES.md) are generated from the seed and run as a closed loop with one
client: each job is a fresh ``python3 perfbench/job.py`` process, one at a
time, timed around ``mclift.cli.main(argv)``.  Whole passes over the job
list repeat while another pass fits in ``--seconds``, and at least
MIN_PASSES run, so every job has that many samples; the shared host's
speed drifts by tens of percent within seconds, and per-job medians over
passes keep a burst from moving the result.  Every answer is checked
after the passes, outside the timed region.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` MIN_PASSES untraced and MIN_PASSES traced passes alternate,
and the result holds the per-layer metrics of the first traced pass plus
the tracing overhead, taken from per-job medians over the passes.
The last line of stdout is the JSON result; the lines before it repeat
the metrics for people, with units and sample counts.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 100
RUN_LIMIT_S = 150
MIN_PASSES = 3


def run_job(job, trace):
    """Run one job in a fresh process; returns its record."""
    request = json.dumps({"argv": job["argv"], "trace": bool(trace)}).encode()
    spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "job.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(request, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"id": job["id"], "timeout": True}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    try:
        record = json.loads(out)
    except ValueError:
        return {"id": job["id"], "traceback": "job process failed: "
                + err.decode(errors="replace").strip()[-300:]}
    record["id"] = job["id"]
    record["wall_s"] = time.perf_counter() - spawn
    record["setup_s"] = record["ready"] - spawn
    record["job_s"] = record["end"] - record["start"]
    return record


def run_pass(jobs, trace, deadline):
    """Run every job once, in order; the pass wall time and the records.
    Jobs not started by the deadline are recorded as skipped."""
    start = time.perf_counter()
    records = []
    for job in jobs:
        if time.perf_counter() > deadline:
            records.append({"id": job["id"], "skipped": True})
        else:
            records.append(run_job(job, trace))
    return time.perf_counter() - start, records


def write_inputs(workload, jobs):
    shutil.rmtree(os.path.join(ROOT, workloads.WORK, workload), ignore_errors=True)
    for job in jobs:
        for path, text in job["files"].items():
            full = os.path.join(ROOT, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as fh:
                fh.write(text)


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def check_all(jobs, records, expected, seed):
    """Failure reasons by record index."""
    by_id = {job["id"]: job for job in jobs}
    failures = {}
    for i, rec in enumerate(records):
        if rec.get("skipped"):
            failures[i] = "not started: run exceeded %d s" % RUN_LIMIT_S
            continue
        reason = oracle.check(by_id[rec["id"]], rec, expected, seed)
        if reason:
            failures[i] = reason
    return failures


def end_to_end(records, failures):
    """jobs_per_s is the job list's length over the sum of each job's
    median wall time (spawn to exit) across passes; the rest are medians
    and the maximum over every sample."""
    ok = [r for i, r in enumerate(records) if i not in failures]
    job_s = [r["job_s"] for r in ok]
    return {
        "jobs_per_s": (_ratio(len({r["id"] for r in ok}), _list_s(ok, "wall_s")), "1/s"),
        "job_s.p50": (statistics.median(job_s) if job_s else 0.0, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in ok) if ok else 0.0, "s"),
        "peak_rss_mib": (max((r["maxrss_kib"] for r in ok), default=0) / 1024, "MiB"),
    }


# (span name, key, unit) read straight from the aggregated trace
COUNTED = [
    ("linalg.rref", "calls", "count"), ("linalg.rref", "self_s", "s"),
    ("linalg.rref", "cells_in", "count"), ("linalg.rref", "nnz_in", "count"),
    ("linalg.rref", "nnz_out", "count"), ("linalg.rref", "max_bits", "bits"),
    ("linalg.rank", "calls", "count"), ("linalg.rank", "s", "s"),
    ("linalg.homology_dim", "calls", "count"), ("linalg.homology_dim", "s", "s"),
    ("linalg.solve", "calls", "count"), ("linalg.solve", "s", "s"),
    ("linalg.kernel_basis", "calls", "count"), ("linalg.kernel_basis", "s", "s"),
    ("linalg.matmul", "calls", "count"), ("linalg.matmul", "s", "s"),
    ("hochschild.hochschild_cohomology", "self_s", "s"),
    ("hochschild.unit_first_basis", "s", "s"),
    ("cyclic.algebra_cocyclic_module", "s", "s"),
    ("cyclic.lambda_complex", "self_s", "s"),
    ("cyclic.BBTotal.init", "calls", "count"),
    ("cyclic.BBTotal.d", "calls", "count"), ("cyclic.BBTotal.d", "self_s", "s"),
    ("cyclic.periodicity_S_matrix", "calls", "count"),
    ("cyclic.periodicity_S_matrix", "self_s", "s"),
    ("cyclic.hc_class_rank_through", "calls", "count"),
    ("cyclic.hc_class_rank_through", "self_s", "s"),
    ("cyclic.localize_c1", "s", "s"),
    ("cyclic.deformation_complex", "self_s", "s"),
    ("dg.DGModule.init", "calls", "count"), ("dg.DGModule.init", "self_s", "s"),
    ("dg.cone", "s", "s"),
    ("operads.mc_operad", "s", "s"),
    ("operads.check_operad_map", "s", "s"),
    ("operads.derivation_complex", "calls", "count"),
    ("operads.derivation_complex", "self_s", "s"),
    ("operads.derivation_complex", "columns", "count"),
    ("operads.evaluate_key_with_values", "calls", "count"),
    ("operads.evaluate_key_with_values", "s", "s"),
    ("operads.FreeOperad.nc_basis", "calls", "count"),
    ("operads.FreeOperad.nc_basis", "self_s", "s"),
    ("trees.enumerate_trees", "calls", "count"), ("trees.enumerate_trees", "s", "s"),
    ("trees.enumerate_trees", "trees_out", "count"),
    ("trees.parse_tree", "calls", "count"),
    ("lifting.solve_step", "calls", "count"), ("lifting.solve_step", "self_s", "s"),
    ("lifting.residuals_at_weight", "calls", "count"),
    ("lifting.residuals_at_weight", "s", "s"),
    ("lifting.defect", "s", "s"), ("lifting.verify_cocycle", "s", "s"),
    ("cli.load", "s", "s"), ("cli.emit", "s", "s"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def _list_s(records, key):
    """Sum over jobs of each job's median `key` time across passes."""
    times = {}
    for r in records:
        if key in r:
            times.setdefault(r["id"], []).append(r[key])
    return sum(statistics.median(t) for t in times.values())


def per_layer(jobs, plain, traced_passes):
    """Per-layer metrics of the first traced pass, with the tracing
    overhead measured between per-job medians of the traced and the
    untraced passes, which alternate so that host drift hits both."""
    traced = traced_passes[0]
    agg = tracer.aggregate([r["trace"] for r in traced if "trace" in r])

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {"%s.%s" % (name, key): (get(name, key), unit) for name, key, unit in COUNTED}
    traced_s = sum(r.get("job_s", 0.0) for r in traced)
    out.update({
        "linalg.rref.distinct_frac": (_ratio(get("linalg.rref", "distinct"),
                                             get("linalg.rref", "calls")), "ratio"),
        "linalg.rref.fill": (_ratio(get("linalg.rref", "nnz_out"),
                                    get("linalg.rref", "nnz_in")), "ratio"),
        "linalg.solve.none_frac": (_ratio(get("linalg.solve", "none"),
                                          get("linalg.solve", "calls")), "ratio"),
        "linalg.solve.frac": (_ratio(get("linalg.solve", "s"), traced_s), "ratio"),
        "operads.evaluate_key_with_values.per_column": (
            _ratio(get("operads.evaluate_key_with_values", "calls"),
                   get("operads.derivation_complex", "columns")), "ratio"),
        "trees.parse_tree.distinct_frac": (_ratio(get("trees.parse_tree", "distinct"),
                                                  get("trees.parse_tree", "calls")), "ratio"),
        "lifting.residuals_at_weight.per_stage": (
            _ratio(get("lifting.residuals_at_weight", "calls"),
                   get("lifting.solve_step", "calls")), "ratio"),
    })
    lift_ids = {job["id"] for job in jobs if job["argv"][0] == "lift"}
    lifts = [r for r in traced if r.get("stdout") and r["id"] in lift_ids]
    obstructed = sum(json.loads(r["stdout"])["result"]["status"] == "obstructed"
                     for r in lifts)
    out["lifting.obstructed_frac"] = (_ratio(obstructed, len(lifts)), "ratio")
    total_self = 0.0
    for layer in tracer.LAYERS:
        self_s = sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer)
        total_self += self_s
        out["%s.self_frac" % layer] = (_ratio(self_s, traced_s), "ratio")
    # Self times cover the traced job time except the tracer's own
    # bookkeeping and the little outside every span (argument parsing).
    out["trace.attributed_frac"] = (_ratio(total_self, traced_s), "ratio")
    out["trace.unattributed_s"] = (traced_s - total_self, "s")
    out["trace.bookkeeping_s"] = (sum(span[4] for r in traced if "trace" in r
                                      for span in r["trace"]["spans"]), "s")
    plain_s = _list_s(plain, "job_s")
    overhead_s = _list_s((r for records in traced_passes for r in records), "job_s") - plain_s
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_frac"] = (_ratio(overhead_s, plain_s), "ratio")
    return out


def run_workload(workload, seed, seconds, trace):
    """Generate, run and check one workload; print its metrics for people
    and return the result object."""
    jobs = workloads.jobs(workload, seed)
    write_inputs(workload, jobs)
    expected = load_expected()
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    passes = []
    traced_passes = []
    while True:
        wall_s, records = run_pass(jobs, False, deadline)
        passes.append((wall_s, records))
        if trace:
            traced_passes.append(run_pass(jobs, True, deadline)[1])
            if len(passes) >= MIN_PASSES:
                break
        elif len(passes) >= MIN_PASSES and time.perf_counter() - begin + wall_s > seconds:
            break
    plain = [r for _, records in passes for r in records]
    records = plain + [r for traced in traced_passes for r in traced]
    failures = check_all(jobs, records, expected, seed)
    for i, reason in sorted(failures.items()):
        print("FAILED %s: %s" % (records[i]["id"], reason), file=sys.stderr)

    print("workload %s, seed %d: %d jobs x %d untraced pass(es)%s"
          % (workload, seed, len(jobs), len(passes),
             " + %d traced" % len(traced_passes) if trace else ""))
    if trace:
        metrics = per_layer(jobs, plain, traced_passes)
    else:
        metrics = end_to_end(plain, failures)
        n = len(plain) - len(failures)
        print("  job_s.p50, setup_s: medians of %d samples; jobs_per_s: per-job medians "
              "over %d passes; job_s.p90 not reported: %d samples leave fewer than 10 "
              "above it" % (n, len(passes), n))
    print("  %-44s %.6g ratio (%d of %d)" % ("failed_frac", _ratio(len(failures), len(records)),
                                             len(failures), len(records)))
    for name, (value, unit) in metrics.items():
        print("  %-44s %.6g %s" % (name, value, unit))
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="'all' runs every workload in turn and ends with one "
                        "JSON object keyed by workload")
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_job kills its job process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mclift", "cli.py")):
        print("no mclift sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in workloads.WORKLOADS}
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
