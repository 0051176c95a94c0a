"""Answer checks for every job, run outside the timed region.

Closed forms that no basis change can move:

- HH^n(Q[x]/x^k) = (k, k-1, k-1, ...); HH of M_2 and T_2 = (1, 0, 0, ...);
  tensor products by the Kuenneth formula, so Q[x,y]/(x^2, y^2) gives
  (4, 4, 5, 6, 7, ...).
- HC of Q[x]/x^k = (k, 0, k, 0, ...) and of M_2 = (1, 0, 1, 0, ...), in
  both the lambda and the (b, B) model; localized (even, odd) = (1, 0).
- Planar-tree counts (Catalan: 429 binary trees on 8 inputs; little
  Schroeder: 903 trees of arity >= 2 on 7 inputs) and free-operad
  dimensions, both from an independent count of planar trees.
- A lifted report satisfies the curved Maurer-Cartan equation, re-checked
  with ``mclift.hochschild.check_curved_mc``; an obstructed report carries
  a nonzero class.

``defcomplex`` dimensions and the periodicity ranks of ``hc`` come from
``expected.json``, keyed by algebra and size and recorded once at the
seed commit (NOTES.md says how).  For the default
seed, ``expected.json`` also holds the sha256 of every job's report:
report bytes must not change.
"""

import functools
import hashlib
import json

DEFAULT_SEED = 0


def _trunc(k, n_max):
    return [k] + [k - 1] * n_max


def hh_dims(family, n_max):
    if family in ("m2", "t2"):
        return [1] + [0] * n_max
    if family == "x2y2":
        a = _trunc(2, n_max)
        return [sum(a[p] * a[n - p] for p in range(n + 1)) for n in range(n_max + 1)]
    return _trunc(int(family[1:]), n_max)


def hc_dims(family, n_max):
    top = 1 if family == "m2" else int(family[1:])
    return [0 if n % 2 else top for n in range(n_max + 1)]


def count_trees(n, weight, max_vertices):
    """Planar trees with n leaves and at most max_vertices vertices, a
    vertex of arity k counted weight(k) times; the unit tree is the one
    tree with one leaf and no vertex.  Arities are >= 1."""

    @functools.lru_cache(maxsize=None)
    def trees(leaves, budget):
        # trees with a root vertex and at most `budget` vertices
        if budget < 1:
            return 0
        return sum(weight(k) * forests(leaves, k, budget - 1)
                   for k in range(1, leaves + 1) if weight(k))

    @functools.lru_cache(maxsize=None)
    def forests(leaves, slots, budget):
        # ordered slots, each a leaf or a tree, at most `budget` vertices
        if slots == 0:
            return int(leaves == 0)
        total = forests(leaves - 1, slots - 1, budget)
        for first in range(1, leaves - slots + 2):
            for used in range(1, budget + 1):
                exact = trees(first, used) - trees(first, used - 1)
                if exact:
                    total += exact * forests(leaves - first, slots - 1, budget - used)
        return total

    return trees(n, max_vertices) + int(n == 1)


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def trees_count(argv):
    """The count a ``trees`` job must report (default vertex budget 10)."""
    arities = {int(a) for a in _opt(argv, "--arity").split(",")}
    if "--min-arity" in argv:
        weight = lambda k: int(k >= min(arities))
    else:
        weight = lambda k: int(k in arities)
    return count_trees(int(_opt(argv, "--inputs")), weight, 10)


def operad_dims(argv):
    """The dimensions an ``operad-dims`` job must report (budget 8)."""
    per_arity = {}
    for gen in _opt(argv, "--generators").split(","):
        arity = int(gen.split(":")[1])
        per_arity[arity] = per_arity.get(arity, 0) + 1
    return [count_trees(n, lambda k: per_arity.get(k, 0), 8)
            for n in range(int(_opt(argv, "--n-max")) + 1)]


def check_lift(result, problem):
    """Re-check a lifted report, or require a nonzero obstruction class."""
    weight = problem["max_weight"]
    if result["status"] == "obstructed":
        if not 1 <= result["stage"] <= weight:
            return "obstructed at stage %r outside 1..%d" % (result["stage"], weight)
        if not any(c != "0" for cls in result["classes"].values() for c in cls.values()):
            return "obstructed report without a nonzero class"
        return None
    if result["status"] != "lifted" or result["stage"] != weight:
        return "status %r at stage %r" % (result["status"], result["stage"])
    from fractions import Fraction
    from mclift.hochschild import CurvedMC, HochCochain, check_curved_mc
    dim = problem["algebra"]["dim"]
    comps = {}
    for key, terms in result["components"].items():
        name, w = key.split("@")
        if not name.startswith("m") or name.startswith("mu"):
            continue
        arity = int(name[1:])
        vals = {(out, tuple(args)): Fraction(c) for out, args, c in terms}
        comps[(arity, int(w))] = HochCochain(dim, arity, vals)
    report = check_curved_mc(CurvedMC(dim, comps), problem["max_arity"], weight)
    if not report.ok:
        return "lifted components fail the curved MC equation at %r" % (
            report.first_failure(),)
    return None


def check(job, run, expected, seed):
    """None if the job's answer is right, else the reason it is not."""
    if run.get("timeout"):
        return "timed out"
    if run["traceback"]:
        return "traceback: " + run["traceback"].strip().splitlines()[-1]
    if run["code"] != 0:
        return "exit code %r: %s" % (run["code"], run["stderr"].strip()[:200])
    try:
        report = json.loads(run["stdout"])
    except ValueError:
        return "report is not JSON"
    argv, want = job["argv"], job["expect"]
    command = argv[0]
    if report.get("command") != command:
        return "report for %r" % (report.get("command"),)
    hashes = {p: hashlib.sha256(text.encode()).hexdigest() for p, text in job["files"].items()}
    if report.get("inputs") != hashes:
        return "input hashes %r" % (report.get("inputs"),)
    result = report["result"]
    key = "%s:%s" % (want.get("family"), want.get("n_max"))
    if command == "hh":
        if result["dims"] != hh_dims(want["family"], want["n_max"]):
            return "HH dims %r" % (result["dims"],)
    elif command == "defcomplex":
        if result["cone_dims"] != expected["defcomplex"][key]:
            return "cone dims %r" % (result["cone_dims"],)
    elif command == "hc":
        dims = hc_dims(want["family"], want["n_max"])
        if result["lambda_dims"] != dims or result["bb_dims"] != dims:
            return "HC dims %r / %r" % (result["lambda_dims"], result["bb_dims"])
        local = result["localized"]
        if (local["even"], local["odd"]) != (1, 0):
            return "localized %r" % (local,)
        if {"periodicity_ranks": result["periodicity_ranks"],
                "certificate": local["certificate"]} != expected["hc"][key]:
            return "periodicity ranks %r" % (result["periodicity_ranks"],)
    elif command == "lift":
        problem = json.loads(job["files"][argv[1]])
        reason = check_lift(result, problem)
        if reason:
            return reason
    elif command == "trees":
        if result["count"] != trees_count(argv):
            return "tree count %r" % (result["count"],)
    elif command == "operad-dims":
        if result["dims"] != operad_dims(argv):
            return "operad dims %r" % (result["dims"],)
    else:
        return "no oracle for %r" % (command,)
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(run["stdout"].encode()).hexdigest()
        if digest != expected["reports"].get(job["id"]):
            return "report bytes differ from the recorded ones"
    return None
