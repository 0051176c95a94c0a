"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They generate inputs and run two small jobs in fresh processes; they do
not time anything.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _answers(jobs):
    return sorted((job["argv"][0], sorted(job["expect"].items())) for job in jobs)


def test_same_seed_same_jobs_and_bytes():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs(workload, 7) == workloads.jobs(workload, 7)


def test_other_seed_other_inputs_same_answers():
    for workload in workloads.WORKLOADS:
        a, b = workloads.jobs(workload, 1), workloads.jobs(workload, 2)
        assert _answers(a) == _answers(b)
        files_a = sorted(t for job in a for t in job["files"].values())
        files_b = sorted(t for job in b for t in job["files"].values())
        assert files_a != files_b


def test_other_seed_same_checked_answer():
    expected = run.load_expected()
    for seed in (1, 2):
        jobs = workloads.jobs("homology", seed)
        run.write_inputs("homology", jobs)
        job = next(j for j in jobs if j["argv"][0] == "hh"
                   and j["expect"] == {"family": "x3", "n_max": 6})
        rec = run.run_job(job, False)
        assert oracle.check(job, rec, expected, seed) is None


def test_traced_cyclic_job_counts_solve_and_keeps_report_bytes():
    jobs = workloads.jobs("cyclic", 3)
    run.write_inputs("cyclic", jobs)
    job = next(j for j in jobs if j["expect"] == {"family": "x2", "n_max": 6})
    plain = run.run_job(job, False)
    traced = run.run_job(job, True)
    assert plain["stdout"] and traced["stdout"] == plain["stdout"]
    assert traced["trace"]["missing"] == []
    agg = tracer.aggregate([traced["trace"]])
    assert agg["linalg.solve"]["calls"] > 0
    # the calls come through cyclic's own binding of solve
    names, spans = traced["trace"]["names"], traced["trace"]["spans"]
    solve = names.index("linalg.solve")
    parents = {names[spans[s[3]][0]] for s in spans if s[0] == solve and s[3] >= 0}
    assert any(p.startswith("cyclic.") for p in parents)
    # self times of all spans cover the job, less bookkeeping and argv parsing
    self_s = sum(v["self_s"] for v in agg.values())
    assert 0.8 * traced["job_s"] < self_s <= traced["job_s"]


def test_tree_counts_match_closed_forms():
    assert oracle.trees_count(["trees", "--arity", "2", "--inputs", "8"]) == 429
    assert oracle.trees_count(["trees", "--arity", "2", "--min-arity",
                               "--inputs", "7"]) == 903
    assert oracle.operad_dims(["operad-dims", "--generators", "b:2:0:0",
                               "--n-max", "5"]) == [0, 1, 1, 2, 5, 14]


def test_kuenneth_closed_form():
    assert oracle.hh_dims("x2y2", 4) == [4, 4, 5, 6, 7]
    assert oracle.hh_dims("x4", 3) == [4, 3, 3, 3]
