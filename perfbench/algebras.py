"""Canonical algebras and seeded basis changes, in plain Fraction arithmetic.

The benchmark builds its inputs here rather than through mclift, so the
input bytes (and with them the report bytes, which embed each input's
sha256) do not move when the program under test changes.

An algebra is a dict with ``dim``, ``mult`` (``{(i, j): {k: c}}``),
``unit`` (``{k: c}``) and ``trace`` (a list).  ``to_json`` writes the
CLI's algebra format.
"""

from fractions import Fraction

ONE = Fraction(1)


def truncated_poly(k):
    """Q[x]/x^k with basis 1, x, ..., x^{k-1}; trace reads off x^{k-1}."""
    mult = {(i, j): {i + j: ONE} for i in range(k) for j in range(k) if i + j < k}
    return {"dim": k, "mult": mult, "unit": {0: ONE},
            "trace": [ONE if i == k - 1 else Fraction(0) for i in range(k)]}


def tensor(a, b):
    """A (x) B with basis e_i (x) f_j at index i * dim B + j."""
    db = b["dim"]
    mult = {}
    for (i1, j1), p1 in a["mult"].items():
        for (i2, j2), p2 in b["mult"].items():
            out = {}
            for k1, c1 in p1.items():
                for k2, c2 in p2.items():
                    out[k1 * db + k2] = c1 * c2
            mult[(i1 * db + i2, j1 * db + j2)] = out
    unit = {k1 * db + k2: c1 * c2 for k1, c1 in a["unit"].items()
            for k2, c2 in b["unit"].items()}
    trace = [ta * tb for ta in a["trace"] for tb in b["trace"]]
    return {"dim": a["dim"] * db, "mult": mult, "unit": unit, "trace": trace}


def matrix_algebra(n):
    """M_n with basis E_ij at index i * n + j; the matrix trace."""
    mult = {(i * n + j, j * n + l): {i * n + l: ONE}
            for i in range(n) for j in range(n) for l in range(n)}
    return {"dim": n * n, "mult": mult,
            "unit": {i * n + i: ONE for i in range(n)},
            "trace": [ONE if i == j else Fraction(0)
                      for i in range(n) for j in range(n)]}


def upper_triangular_2():
    """T_2 with basis E11, E12, E22; the diagonal trace."""
    mult = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 2): {1: ONE}, (2, 2): {2: ONE}}
    return {"dim": 3, "mult": mult, "unit": {0: ONE, 2: ONE},
            "trace": [ONE, Fraction(0), ONE]}


FAMILIES = {
    "x2": lambda: truncated_poly(2),
    "x3": lambda: truncated_poly(3),
    "x4": lambda: truncated_poly(4),
    "x5": lambda: truncated_poly(5),
    "x2y2": lambda: tensor(truncated_poly(2), truncated_poly(2)),
    "m2": lambda: matrix_algebra(2),
    "t2": upper_triangular_2,
}


def monomial_basis(rng, d):
    """Columns f_j = s_j c_j e_{pi(j)}: a signed permutation with small
    integer rescaling.  Sparsity is kept; entries become non-unit."""
    perm = list(range(d))
    rng.shuffle(perm)
    return [{perm[j]: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3))}
            for j in range(d)]


def sheared_basis(rng, d, shears):
    """A unimodular integer basis: the identity after `shears` elementary
    column operations f_a += c f_b with c = +-1, then a permutation."""
    cols = [{i: ONE} for i in range(d)]
    for _ in range(shears):
        a, b = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        for i, v in cols[b].items():
            w = cols[a].get(i, 0) + c * v
            if w:
                cols[a][i] = w
            else:
                cols[a].pop(i, None)
    rng.shuffle(cols)
    return cols


def _solve(cols, vec):
    """Coordinates of vec in the basis `cols` (exact Gauss-Jordan)."""
    d = len(cols)
    rows = [[cols[j].get(i, Fraction(0)) for j in range(d)] + [vec.get(i, Fraction(0))]
            for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [v / pv for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return {i: rows[i][d] for i in range(d) if rows[i][d] != 0}


def change_basis(alg, cols):
    """The same algebra written in the basis f_j = sum_i cols[j][i] e_i."""
    d = alg["dim"]
    mult = {}
    for a in range(d):
        for b in range(d):
            prod = {}
            for i, u in cols[a].items():
                for j, v in cols[b].items():
                    for k, c in alg["mult"].get((i, j), {}).items():
                        prod[k] = prod.get(k, Fraction(0)) + u * v * c
            prod = {k: c for k, c in prod.items() if c != 0}
            if prod:
                mult[(a, b)] = _solve(cols, prod)
    trace = [sum((alg["trace"][i] * c for i, c in cols[j].items()), Fraction(0))
             for j in range(d)]
    return {"dim": d, "mult": mult, "unit": _solve(cols, alg["unit"]),
            "trace": trace}


def to_json(alg):
    """The CLI algebra format, rationals as strings."""
    d = alg["dim"]
    return {
        "dim": d,
        "unit": [str(alg["unit"].get(k, 0)) for k in range(d)],
        "mult": [[[str(alg["mult"].get((i, j), {}).get(k, 0)) for k in range(d)]
                  for j in range(d)] for i in range(d)],
        "trace": [str(c) for c in alg["trace"]],
    }
