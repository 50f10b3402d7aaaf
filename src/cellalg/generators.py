"""Constructors for concrete schemes, the family specs that `cellalg gen`
and the shared test corpus both build from, and the corpus itself.

Schurian schemes come from permutation generators: relations are the orbits
of the generated group acting on ordered pairs, found by flooding pairs with
the generators (the group itself is never enumerated).  Thin schemes come
from a group's multiplication table.  rank2 / discrete / hamming / johnson
are classical families, and direct_sum glues two schemes with full cross
relations between cells.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np

from .scheme import Scheme, SchemeError, from_color_matrix

# largest point count (group order for the tables) a constructor accepts,
# checked before anything of that size is allocated
MAX_POINTS = 4096


def _check_size(what: str, n: int) -> None:
    if n > MAX_POINTS:
        raise SchemeError(f"{what} too large: {n} > {MAX_POINTS} points")


def validate_permutation(perm, n: int) -> np.ndarray:
    img = np.asarray(perm, dtype=np.int64)
    if img.shape != (n,) or sorted(img.tolist()) != list(range(n)):
        raise SchemeError(f"not a permutation of 0..{n - 1}: {list(perm)}")
    return img


def schurian(generators, n: int) -> Scheme:
    """Orbits of the generated permutation group on ordered pairs.

    With no generators this is the discrete scheme; with a transitive,
    2-transitive group it is rank2(n).
    """
    if n < 1:
        raise SchemeError("need at least one point")
    _check_size("schurian scheme", n)
    gens = [validate_permutation(g, n) for g in generators]
    colors = np.full((n, n), -1, dtype=np.int64)
    nxt = 0
    for start in range(n * n):
        if colors.flat[start] >= 0:
            continue
        stack = [divmod(start, n)]
        colors[stack[0]] = nxt
        while stack:
            u, v = stack.pop()
            for g in gens:
                img = (int(g[u]), int(g[v]))
                if colors[img] < 0:
                    colors[img] = nxt
                    stack.append(img)
        nxt += 1
    return from_color_matrix(colors)


def check_group_table(table) -> np.ndarray:
    """Validate a multiplication table: closure, identity, inverses,
    associativity (t[t[a,b],c] == t[a,t[b,c]], one row a at a time)."""
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise SchemeError("group table must be square")
    n = t.shape[0]
    if n == 0 or t.min() < 0 or t.max() >= n:
        raise SchemeError("group table entries must index elements")
    ident = _identity(t)
    if ident is None:
        raise SchemeError("group table has no identity")
    unit = t == ident
    lacking = np.nonzero(~(unit & unit.T).any(axis=1))[0]
    if lacking.size:
        raise SchemeError(f"element {lacking[0]} has no inverse")
    for a in range(n):
        bad = np.argwhere(t[t[a]] != t[a][t])
        if bad.size:
            b, c = bad[0]
            raise SchemeError(f"table is not associative at ({a},{b},{c})")
    return t


def _identity(t: np.ndarray) -> int | None:
    """First two-sided identity of a square table, if any."""
    elems = np.arange(t.shape[0])
    found = np.nonzero((t == elems).all(axis=1) & (t.T == elems).all(axis=1))[0]
    return int(found[0]) if found.size else None


def thin_group_scheme(table) -> Scheme:
    """Thin scheme of a finite group: R_g = {(x, xg)}; every relation is a
    permutation matrix and the algebra is the group algebra."""
    t = check_group_table(table)
    # inv[x] is the unique y with xy = e
    inv = np.argmax(t == _identity(t), axis=1)
    # color of (x, y) is the unique g with xg = y
    colors = t[inv, :]
    return from_color_matrix(colors)


def rank2(n: int) -> Scheme:
    """Diagonal plus everything else (the trivial scheme on n points)."""
    if n < 1:
        raise SchemeError("need at least one point")
    _check_size("rank2 scheme", n)
    if n == 1:
        return from_color_matrix([[0]])
    return from_color_matrix(np.where(np.eye(n, dtype=bool), 0, 1))


def discrete(n: int) -> Scheme:
    """Every pair its own relation (the full matrix algebra)."""
    if n < 1:
        raise SchemeError("need at least one point")
    _check_size("discrete scheme", n)
    m = np.arange(n * n, dtype=np.int64).reshape(n, n)
    return from_color_matrix(m)


def hamming(d: int, q: int) -> Scheme:
    """Hamming scheme H(d, q): words of length d over q symbols, colored by
    Hamming distance."""
    if d < 1 or q < 2:
        raise SchemeError("need d >= 1 and q >= 2")
    _check_size("hamming scheme", q**d)
    words = np.array(list(product(range(q), repeat=d)), dtype=np.int64)
    colors = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    return from_color_matrix(colors)


def johnson(v: int, k: int) -> Scheme:
    """Johnson scheme J(v, k): k-subsets of a v-set, colored by k minus the
    intersection size."""
    if not 1 <= k < v:
        raise SchemeError("need 1 <= k < v")
    _check_size("johnson scheme", comb(v, k))
    subsets = list(combinations(range(v), k))
    n = len(subsets)
    colors = np.zeros((n, n), dtype=np.int64)
    sets = [frozenset(s) for s in subsets]
    for i in range(n):
        for j in range(n):
            colors[i, j] = k - len(sets[i] & sets[j])
    return from_color_matrix(colors)


def direct_sum(a: Scheme, b: Scheme) -> Scheme:
    """Disjoint union with one cross relation per ordered pair of cells.

    The coarsest valid gluing: finer cross colorings are never needed, and a
    single color per whole cross block would break regularity as soon as a
    summand has more than one cell.
    """
    na, nb = a.size, b.size
    _check_size("direct sum", na + nb)
    colors = np.zeros((na + nb, na + nb), dtype=np.int64)
    colors[:na, :na] = a.colors
    colors[na:, na:] = b.colors + a.rank
    nxt = a.rank + b.rank
    cell_a = a.point_cell
    cell_b = b.point_cell
    for x in range(len(a.cells)):
        for y in range(len(b.cells)):
            block = np.ix_(np.nonzero(cell_a == x)[0], na + np.nonzero(cell_b == y)[0])
            colors[block] = nxt
            nxt += 1
    for y in range(len(b.cells)):
        for x in range(len(a.cells)):
            block = np.ix_(na + np.nonzero(cell_b == y)[0], np.nonzero(cell_a == x)[0])
            colors[block] = nxt
            nxt += 1
    return from_color_matrix(colors)


# ---------------------------------------------------------------------------
# group multiplication tables

def cyclic_table(n: int) -> np.ndarray:
    if n < 1:
        raise SchemeError("need a positive order")
    _check_size("cyclic group table", n)
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def symmetric_table(m: int) -> np.ndarray:
    """S_m with elements sorted lexicographically; composition acts left."""
    if m < 1:
        raise SchemeError("need a positive degree")
    _check_size("symmetric group table", factorial(m))
    elems = sorted(permutations(range(m)))
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    t = np.zeros((n, n), dtype=np.int64)
    for i, pi in enumerate(elems):
        for j, sigma in enumerate(elems):
            t[i, j] = index[tuple(pi[s] for s in sigma)]
    return t


def dihedral_table(m: int) -> np.ndarray:
    """Dihedral group of order 2m: element k + m*s is rotation k, flip s."""
    if m < 1:
        raise SchemeError("need a positive order")
    n = 2 * m
    _check_size("dihedral group table", n)

    def mul(x, y):
        k1, s1 = x % m, x // m
        k2, s2 = y % m, y // m
        k = (k1 - k2) % m if s1 else (k1 + k2) % m
        return k + m * (s1 ^ s2)

    return np.array([[mul(x, y) for y in range(n)] for x in range(n)], dtype=np.int64)


def quaternion_table() -> np.ndarray:
    """The quaternion group {±1, ±i, ±j, ±k} as (sign, axis) pairs."""
    axes = "1ijk"
    mul_axis = {
        ("1", a): (1, a) for a in axes
    }
    mul_axis.update({(a, "1"): (1, a) for a in axes})
    for a, b, c in (("i", "j", "k"), ("j", "k", "i"), ("k", "i", "j")):
        mul_axis[(a, b)] = (1, c)
        mul_axis[(b, a)] = (-1, c)
        mul_axis[(a, a)] = (-1, "1")
    mul_axis[("k", "k")] = (-1, "1")
    elems = [(s, a) for a in axes for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}
    n = 8
    t = np.zeros((n, n), dtype=np.int64)
    for i, (s1, a1) in enumerate(elems):
        for j, (s2, a2) in enumerate(elems):
            s, a = mul_axis[(a1, a2)]
            t[i, j] = index[(s * s1 * s2, a)]
    return t


def product_table(a, b) -> np.ndarray:
    """Direct product of two groups: element x * nb + y is the pair (x, y)."""
    nb = len(b)
    n = len(a) * nb
    _check_size("product group table", n)
    ta = np.asarray(a, dtype=np.int64)
    tb = np.asarray(b, dtype=np.int64)
    return (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(n, n)


# ---------------------------------------------------------------------------
# families and the corpus

def _permutation(token: str) -> list[int]:
    return [int(x) for x in token.split(",")]


# family -> (fewest parameters, most parameters or None for no limit, parser
# of one parameter token, constructor of the parsed parameters).  The
# constructors name the module-level functions, so a function rebound on the
# module (as a tracer does) is the one that runs.
FAMILIES = {
    "rank2": (1, 1, int, lambda n: rank2(n)),
    "discrete": (1, 1, int, lambda n: discrete(n)),
    "thin-cyclic": (1, 1, int, lambda n: thin_group_scheme(cyclic_table(n))),
    "thin-sym": (1, 1, int, lambda m: thin_group_scheme(symmetric_table(m))),
    "thin-dihedral": (1, 1, int, lambda m: thin_group_scheme(dihedral_table(m))),
    "thin-quaternion": (0, 0, int, lambda: thin_group_scheme(quaternion_table())),
    "thin-abelian": (
        2, None, int,
        lambda *ns: thin_group_scheme(reduce(product_table, map(cyclic_table, ns))),
    ),
    "hamming": (2, 2, int, lambda d, q: hamming(d, q)),
    "johnson": (2, 2, int, lambda v, k: johnson(v, k)),
    "schurian": (1, None, _permutation, lambda *gens: schurian(gens, len(gens[0]))),
    "direct-sum": (
        2, None, lambda token: token.split(":"),
        lambda *parts: reduce(direct_sum, map(_build, parts)),
    ),
}


def _build(tokens: list[str]) -> Scheme:
    if not tokens:
        raise ValueError("empty family spec")
    family, *params = tokens
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    low, high, parse, make = FAMILIES[family]
    if len(params) < low or (high is not None and len(params) > high):
        count = low if low == high else f"at least {low}"
        raise ValueError(f"{family} takes {count} parameter(s), got {len(params)}")
    try:
        args = [parse(tok) for tok in params]
    except ValueError:
        raise ValueError(f"bad {family} parameter in {params}") from None
    return make(*args)


def from_spec(spec: str) -> Scheme:
    """Scheme of a family spec such as "johnson 5 2", "schurian 1,0,2" or
    "direct-sum rank2:2 discrete:1" (operands are specs joined by ':').
    Malformed specs raise ValueError."""
    return _build(spec.split())


CORPUS_SPECS = {
    **{f"rank2-{n:02d}": f"rank2 {n}" for n in range(2, 25)},
    **{f"discrete-{n}": f"discrete {n}" for n in range(1, 6)},
    **{f"thin-z{n:02d}": f"thin-cyclic {n}" for n in range(2, 13)},
    "thin-s3": "thin-sym 3",
    "thin-d4": "thin-dihedral 4",
    "thin-q8": "thin-quaternion",
    "thin-z2x2": "thin-abelian 2 2",
    "thin-z2x4": "thin-abelian 2 4",
    "thin-z2x2x2": "thin-abelian 2 2 2",
    "hamming-2-2": "hamming 2 2",
    "hamming-3-2": "hamming 3 2",
    "hamming-2-3": "hamming 2 3",
    "johnson-4-2": "johnson 4 2",
    "johnson-5-2": "johnson 5 2",
    "schurian-swap-3": "schurian 1,0,2",
    "schurian-swap2-4": "schurian 1,0,2,3 0,1,3,2",
    "schurian-cyc-5": "schurian 1,2,3,4,0",
    "schurian-dihedral-4": "schurian 1,2,3,0 0,3,2,1",
    "dsum-r2-d1": "direct-sum rank2:2 discrete:1",
    "dsum-r2-r2": "direct-sum rank2:2 rank2:2",
    "dsum-r2-r3": "direct-sum rank2:2 rank2:3",
    "dsum-r3-r3": "direct-sum rank2:3 rank2:3",
    "dsum-r3-h22": "direct-sum rank2:3 hamming:2:2",
    "dsum-d2-r4": "direct-sum discrete:2 rank2:4",
    "dsum-z3-r2": "direct-sum thin-cyclic:3 rank2:2",
    "dsum-r2-r2-r3": "direct-sum rank2:2 rank2:2 rank2:3",
}


def corpus_ids() -> list[str]:
    return sorted(CORPUS_SPECS)


def build_scheme(scheme_id: str) -> Scheme:
    """Fresh instance of a corpus scheme by id."""
    if scheme_id not in CORPUS_SPECS:
        raise KeyError(f"unknown corpus scheme {scheme_id!r}")
    return from_spec(CORPUS_SPECS[scheme_id])


@lru_cache(maxsize=1)
def corpus() -> tuple[tuple[str, Scheme], ...]:
    """The shared corpus, cached: tests and the CLI iterate the same list."""
    return tuple((sid, build_scheme(sid)) for sid in corpus_ids())
