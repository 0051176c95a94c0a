"""Seeded job lists for the four workloads.

A job is a dict with ``id``, ``argv`` (the CLI arguments, input paths
relative to the repository root), ``files`` (relative path -> text to
write before the run) and ``expect`` (what the oracle checks).  The same
workload and seed always give the same list and the same bytes.

Why each workload exists, and what it leaves out, is in NOTES.md.
"""

import json
import random
from fractions import Fraction

import algebras

WORK = "perfbench/work"
WORKLOADS = ("homology", "dense", "cyclic", "operads")

# Each algebra job writes one algebra in a basis taken from a fixed
# catalogue: a signed permutation with rescaling by 1..3 (homology,
# cyclic) or a few elementary shears (dense).  A seed-drawn basis moves a
# job's time by up to 1.6x for monomial bases and 25x for shears (see
# NOTES.md), so a run's cost would depend on its seed.  Instead the seed
# flips the sign of every basis vector and orders the jobs: signs change
# every input byte but no pivot choice or entry size, so every run carries
# the same share of slow and fast bases.

# (command, family, n_max, catalogue entry).  The middle of each list by
# job time is a group of jobs of similar length (here the 0.13 s hh jobs),
# so the median job time is not a jump between two unlike jobs.
HOMOLOGY = [("hh", "x3", 6, 0), ("hh", "x4", 4, 0), ("hh", "x4", 4, 1),
            ("hh", "x4", 5, 0), ("hh", "x5", 4, 0), ("hh", "x2y2", 4, 0),
            ("hh", "m2", 4, 0), ("hh", "m2", 4, 1),
            ("defcomplex", "x3", 4, 0), ("defcomplex", "x4", 4, 0),
            ("defcomplex", "x4", 4, 1), ("defcomplex", "m2", 3, 0),
            ("defcomplex", "t2", 4, 0)]

# (family, n_max, catalogue entry).  Entry 0 of x4 at n_max 4 is a 6.1 s
# cliff (NOTES.md); the entries used here take 0.03-1.7 s.
DENSE = [("x4", 4, 1), ("x4", 4, 2), ("x4", 4, 3), ("x2y2", 4, 1), ("x2y2", 4, 2),
         ("x2y2", 4, 3), ("m2", 4, 1), ("m2", 4, 2), ("m2", 4, 3), ("x3", 5, 1),
         ("x3", 5, 2), ("x3", 5, 3), ("t2", 5, 1), ("x4", 3, 1), ("m2", 3, 1)]
DENSE_SHEARS = 3

# (family, n_max, catalogue entry)
CYCLIC = [("x2", 6, 0), ("x3", 4, 0), ("m2", 3, 0)]

# (kind, family, max_arity, max_weight)
LIFTS = [("curvature", "x3", 6, 2), ("curvature", "x3", 5, 2),
         ("curvature", "x3", 4, 3), ("curvature", "x2", 6, 3),
         ("curvature", "m2", 4, 2), ("pinned", "x2", 4, 2),
         ("pinned", "x2", 6, 2)]
ENUMERATIONS = [["trees", "--arity", "2", "--min-arity", "--inputs", "6"],
                ["trees", "--arity", "2", "--inputs", "8"],
                ["trees", "--arity", "3", "--inputs", "7"],
                ["operad-dims", "--generators", "b:2:0:0", "--n-max", "6"],
                ["operad-dims", "--generators", "b:2:0:0,c:3:1:0", "--n-max", "5"],
                ["operad-dims", "--generators", "b:2:0:0,c:2:0:0", "--n-max", "6"]]


def _dump(data):
    return json.dumps(data, sort_keys=True)


def _catalogue_basis(workload, family, entry):
    """Entry `entry` of the fixed basis catalogue of a workload."""
    d = algebras.FAMILIES[family]()["dim"]
    rng = random.Random("%s-catalogue:%s:%d" % (workload, family, entry))
    if workload == "dense":
        return algebras.sheared_basis(rng, d, DENSE_SHEARS)
    return algebras.monomial_basis(rng, d)


def _algebra_jobs(workload, rng, templates, extra=()):
    """One job per (command, family, n_max, entry), in seeded order, each
    in its catalogue basis with seeded signs."""
    order = list(range(len(templates)))
    rng.shuffle(order)
    jobs = []
    for t in order:
        command, family, n_max, entry = templates[t]
        cols = _catalogue_basis(workload, family, entry)
        alg = algebras.change_basis(algebras.FAMILIES[family](), cols)
        # Basis vectors in the unit's support share one sign, so the unit
        # changes at most by a sign and the program's unit-first rebasing
        # sees the same basis up to signs; flipping them independently
        # changes that basis and moved one dense job from 1.7 s to 7.7 s.
        unit_sign = rng.choice((-1, 1))
        signs = [unit_sign if j in alg["unit"] else rng.choice((-1, 1))
                 for j in range(len(cols))]
        cols = [{i: v * sign for i, v in col.items()} for col, sign in zip(cols, signs)]
        alg = algebras.change_basis(algebras.FAMILIES[family](), cols)
        index = len(jobs)
        path = "%s/%s/j%02d-%s.json" % (WORK, workload, index, family)
        jobs.append({"id": "%s-%02d" % (workload, index),
                     "argv": [command, path, "--n-max", str(n_max)] + list(extra),
                     "files": {path: _dump(algebras.to_json(alg))},
                     "expect": {"family": family, "n_max": n_max}})
    return jobs


def homology(rng):
    return _algebra_jobs("homology", rng, HOMOLOGY)


def dense(rng):
    return _algebra_jobs("dense", rng, [("hh",) + t for t in DENSE])


def cyclic(rng):
    return _algebra_jobs("cyclic", rng, [("hc",) + t for t in CYCLIC],
                         extra=["--localize"])


def _cochain(terms):
    """CLI cochain terms, sorted, zero coefficients dropped."""
    return [[out, list(args), str(c)] for (out, args), c in sorted(terms.items()) if c]


def _curvature(rng, alg, family):
    """A weight-1 m0: any element of a commutative algebra; for M_2 one
    with a nonzero E12 part, which is not central."""
    d = alg["dim"]
    coeffs = [rng.randint(-2, 2) for _ in range(d)]
    if family == "m2":
        coeffs[1] = rng.choice((-2, -1, 1, 2))
    elif not any(coeffs):
        coeffs[d - 1] = 1
    return [{"gen": "m0", "weight": 1,
             "cochain": {"level": 0, "terms": _cochain(
                 {(k, ()): Fraction(c) for k, c in enumerate(coeffs)})}}]


def _pinned(rng, alg):
    """m2 at weight 1 pinned to c * (x, x -> 1) + b(g) for a random
    1-cochain g, and m2 at weight 2 pinned to zero."""
    d = alg["dim"]
    mult = alg["mult"]
    g = [{k: Fraction(rng.randint(-2, 2)) for k in range(d)} for _ in range(d)]
    terms = {(0, (1, 1)): Fraction(rng.choice((-2, -1, 1, 2)))}

    def add(key, c):
        terms[key] = terms.get(key, Fraction(0)) + c

    # (b g)(a, b) = a g(b) - g(ab) + g(a) b
    for a in range(d):
        for b in range(d):
            for k, x in g[b].items():
                for out, c in mult.get((a, k), {}).items():
                    add((out, (a, b)), c * x)
            for i, c in mult.get((a, b), {}).items():
                for out, x in g[i].items():
                    add((out, (a, b)), -c * x)
            for k, x in g[a].items():
                for out, c in mult.get((k, b), {}).items():
                    add((out, (a, b)), c * x)
    return [{"gen": "m2", "weight": 1, "cochain": {"level": 2, "terms": _cochain(terms)}},
            {"gen": "m2", "weight": 2, "cochain": {"level": 2, "terms": []}}]


def operads(rng):
    jobs = []
    for kind, family, arity, weight in LIFTS:
        alg = algebras.FAMILIES[family]()
        prescribed = _curvature(rng, alg, family) if kind == "curvature" \
            else _pinned(rng, alg)
        problem = {"algebra": algebras.to_json(alg), "max_weight": weight,
                   "max_arity": arity, "prescribed": prescribed}
        index = len(jobs)
        path = "%s/operads/j%02d-%s.json" % (WORK, index, family)
        jobs.append({"id": "operads-%02d" % index, "argv": ["lift", path],
                     "files": {path: _dump(problem)},
                     "expect": {"family": family, "max_arity": arity,
                                "max_weight": weight}})
    for argv in ENUMERATIONS:
        jobs.append({"id": "operads-%02d" % len(jobs), "argv": list(argv),
                     "files": {}, "expect": {}})
    return jobs


def jobs(workload, seed):
    """The job list of a workload for a seed."""
    build = {"homology": homology, "dense": dense, "cyclic": cyclic,
             "operads": operads}[workload]
    return build(random.Random("%s:%d" % (workload, seed)))
