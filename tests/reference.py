"""Plain-loop references the tests compare the package against: exact
structure-constant products, group-axiom checks, the regularity check,
the construction checks and relation facts of a color matrix, the degrees
by row and column sums, direct-product tables, the center from every
commutator row, the RREF, kernel and center by elimination on Fractions,
nilpotency by plain squaring, the cell-module traces from
the cell indicator matrix, the exhaustive radical with one ideal test per
element, the nilpotent-ideal test by one three-operand einsum and the
radical chain run through every step with every ordered pair.  Also the
corpus, built once for all test modules, and the benchmark's workload
schemes as its own builder makes them."""

import importlib.util
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import cellalg
from cellalg.generators import build_scheme, corpus_ids
from cellalg.linalg import (
    charpoly_mod_p,
    kernel_mod_p,
    kernel_rational,
    primitive_integer_vector,
    regular_matrices,
    rref_mod_p,
)
from cellalg.radical import InternalCheckError, _ideal_is_nilpotent


def multiply(x, y, c) -> list:
    """Product of two algebra elements given structure constants c[i][j][k].

    Exact: works for int or Fraction coefficients.  c is an (r, r, r)
    integer array with A_i A_j = sum_k c[i][j][k] A_k.
    """
    cc = np.asarray(c)
    r = cc.shape[0]
    if len(x) != r or len(y) != r:
        raise ValueError("coefficient vector length does not match rank")
    out: list = [0] * r
    for i in range(r):
        xi = x[i]
        if not xi:
            continue
        for j in range(r):
            yj = y[j]
            if not yj:
                continue
            for k in np.nonzero(cc[i, j])[0]:
                out[k] = out[k] + xi * yj * int(cc[i, j, k])
    return out


def group_table_error(t) -> str | None:
    """First failure of the group axioms, worded as check_group_table words
    it, found by direct loops over a square table of element indices."""
    n = len(t)
    ident = next(
        (e for e in range(n)
         if all(t[e][x] == x and t[x][e] == x for x in range(n))),
        None,
    )
    if ident is None:
        return "group table has no identity"
    for x in range(n):
        if not any(t[x][y] == ident and t[y][x] == ident for y in range(n)):
            return f"element {x} has no inverse"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return f"table is not associative at ({a},{b},{c})"
    return None


def regularity_by_loops(scheme):
    """(tensor, None) or (None, (message, witness)) from one (i, j, k) at a
    time, worded as verify_regularity words its failure."""
    r, n = scheme.rank, scheme.size
    adj = scheme.adjacency
    flat_colors = scheme.colors.ravel()
    class_index = [np.nonzero(flat_colors == k)[0] for k in range(r)]
    c = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            counts = (adj[i] @ adj[j]).ravel()
            for k in range(r):
                vals = counts[class_index[k]]
                v0 = int(vals[0])
                if not np.all(vals == v0):
                    hit = int(np.nonzero(vals != v0)[0][0])
                    p0 = divmod(int(class_index[k][0]), n)
                    p1 = divmod(int(class_index[k][hit]), n)
                    v1 = int(vals[hit])
                    message = (
                        f"intersection count for ({i},{j}) is not constant on "
                        f"relation {k}: pair {p0} gives {v0}, pair {p1} gives {v1}"
                    )
                    return None, (message, (i, j, k, p0, v0, p1, v1))
                c[i, j, k] = v0
    return c, None


def scheme_facts_by_loops(matrix):
    """(facts, None) or (None, (message, witness)) for a square non-negative
    color matrix, from one color or relation at a time, worded as
    from_color_matrix words its failures.  facts holds colors, cells,
    point_cell, fiber_of and transpose_of as lists and tuples, and tensor:
    the tensor as nested lists, or the (message, witness) of the regularity
    failure."""
    colors = np.asarray(matrix, dtype=np.int64)
    n = colors.shape[0]
    nrel = int(colors.max()) + 1
    for c in range(nrel):
        if not (colors == c).any():
            return None, (f"color {c} missing: colors must be contiguous 0..{nrel - 1}", c)
    off = ~np.eye(n, dtype=bool)
    for c in range(nrel):
        on = np.nonzero(colors.diagonal() == c)[0]
        rows, cols = np.nonzero((colors == c) & off)
        if on.size and rows.size:
            u, pair = int(on[0]), (int(rows[0]), int(cols[0]))
            message = (
                f"relation {c} contains diagonal pair ({u},{u}) "
                f"and off-diagonal pair ({pair[0]},{pair[1]})"
            )
            return None, (message, (c, (u, u), pair))
    for c in range(nrel):
        imgs = sorted(set(colors.T[colors == c].tolist()))
        if len(imgs) != 1:
            return None, (f"transpose of relation {c} meets relations {imgs}", (c, imgs))

    # diagonal colors by their smallest point, then the rest by first
    # row-major occurrence
    relabel = {}
    for c in colors.diagonal().tolist() + colors.ravel().tolist():
        relabel.setdefault(c, len(relabel))
    colors = np.array([[relabel[c] for c in row] for row in colors.tolist()])

    diag = colors.diagonal().tolist()
    diag_colors = sorted(set(diag))
    cells = tuple(tuple(u for u in range(n) if diag[u] == c) for c in diag_colors)
    point_cell = [0] * n
    for x, cell in enumerate(cells):
        for u in cell:
            point_cell[u] = x
    fiber_of = []
    transpose_of = []
    for rel in range(nrel):
        pairs = [(u, v) for u in range(n) for v in range(n) if colors[u, v] == rel]
        src = {point_cell[u] for u, _ in pairs}
        tgt = {point_cell[v] for _, v in pairs}
        fiber_of.append((src.pop(), tgt.pop()) if len(src) == len(tgt) == 1 else None)
        u, v = pairs[0]
        transpose_of.append(int(colors[v, u]))
    shape = SimpleNamespace(
        rank=nrel,
        size=n,
        colors=colors,
        adjacency=np.stack([colors == k for k in range(nrel)]).astype(np.int64),
    )
    tensor, failure = regularity_by_loops(shape)
    return {
        "colors": colors.tolist(),
        "cells": cells,
        "point_cell": point_cell,
        "fiber_of": tuple(fiber_of),
        "transpose_of": tuple(transpose_of),
        "tensor": failure if tensor is None else tensor.tolist(),
    }, None


def product_table_by_loops(a, b) -> np.ndarray:
    """Direct product table, element x * nb + y being the pair (x, y)."""
    na, nb = len(a), len(b)
    t = np.zeros((na * nb, na * nb), dtype=np.int64)
    for x1 in range(na):
        for y1 in range(nb):
            for x2 in range(na):
                for y2 in range(nb):
                    t[x1 * nb + y1, x2 * nb + y2] = a[x1][x2] * nb + b[y1][y2]
    return t


def center_by_all_rows(scheme) -> list[list[int]]:
    """Center basis from the exact kernel of all r^3 commutator rows."""
    left, right = regular_matrices(scheme.tensor)
    kernel = kernel_rational((left - right).reshape(-1, scheme.rank).tolist())
    return [primitive_integer_vector(v) for v in kernel]


def rref_by_fractions(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Exact RREF over Q with first-nonzero pivoting, each pivot row scaled
    by the inverse of its pivot and subtracted from every other row, all on
    Fractions; drops zero rows."""
    a = [[Fraction(x) for x in row] for row in mat]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == len(a):
            break
        j = next((i for i in range(row, len(a)) if a[i][col]), None)
        if j is None:
            continue
        a[row], a[j] = a[j], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    return a[: len(pivots)], pivots


def kernel_by_fractions(mat) -> list[list[Fraction]]:
    """RREF basis of the rational right null space, from rref_by_fractions:
    one vector per free column, then reduced."""
    rows = [list(r) for r in mat]
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref_by_fractions(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for j, pc in enumerate(pivots):
            v[pc] = -reduced[j][fc]
        basis.append(v)
    return rref_by_fractions(basis)[0] if basis else []


def center_by_fractions(scheme) -> list[list[int]]:
    """Center basis from kernel_by_fractions of the distinct nonzero
    commutator rows."""
    left, right = regular_matrices(scheme.tensor)
    rows = {tuple(v) for v in (left - right).reshape(-1, scheme.rank).tolist() if any(v)}
    if not rows:
        return np.eye(scheme.rank, dtype=np.int64).tolist()
    return [primitive_integer_vector(v) for v in kernel_by_fractions(sorted(rows))]


def nilpotent_by_squaring(mats, p) -> np.ndarray:
    """Mask of the nilpotent matrices of a (b, d, d) stack over F_p: the
    power x^(2^k) with 2^k >= d is zero."""
    d = mats.shape[-1]
    power = mats % p
    t = 1
    while t < d:
        power = power @ power % p
        t *= 2
    return ~power.any(axis=(1, 2))


def degrees_by_rows(scheme) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(out_degrees, in_degrees) recounted from each adjacency matrix: the
    row sums over the source cell and the column sums over the target cell,
    each checked constant."""
    out_d, in_d = [], []
    for rel in range(scheme.rank):
        x, y = scheme.fiber_of[rel]
        mat = scheme.adjacency[rel]
        rows = mat[list(scheme.cells[x])].sum(axis=1)
        cols = mat[:, list(scheme.cells[y])].sum(axis=0)
        assert (rows == rows[0]).all() and (cols == cols[0]).all(), rel
        out_d.append(int(rows[0]))
        in_d.append(int(cols[0]))
    return tuple(out_d), tuple(in_d)


def cell_traces_by_indicators(scheme) -> np.ndarray:
    """Trace of each A_k on the span of the cell indicator vectors: with E
    the n x f indicator matrix, A_k E = E M_k is checked and tr M_k
    returned."""
    ind = np.zeros((scheme.size, len(scheme.cells)), dtype=np.int64)
    for x, cell in enumerate(scheme.cells):
        ind[list(cell), x] = 1
    traces = np.zeros(scheme.rank, dtype=np.int64)
    for k in range(scheme.rank):
        image = scheme.adjacency[k] @ ind
        # E^T E is diag(|X|), so M_k = E^T A_k E / |X| row by row
        m = (ind.T @ image) // ind.sum(axis=0)[:, None]
        assert np.array_equal(image, ind @ m), f"A_{k} leaves the cell module"
        traces[k] = np.trace(m)
    return traces


def radical_oracle_by_ideals(alg):
    """Exhaustive radical basis over F_p: every element enumerated; the
    matrix-nilpotency prefilter (x and every x A_j nilpotent), then each
    survivor's own two-sided ideal tested, unless the algebra is
    commutative."""
    p, r = alg.p, alg.rank
    vecs = np.array(np.meshgrid(*[range(p)] * r, indexing="ij")).reshape(r, -1).T
    # int64 arithmetic, whatever dtype the package's products return
    mats = alg.element_matrices(vecs).astype(np.int64)
    keep = (np.einsum("bii->b", mats) % p == 0) & nilpotent_by_squaring(mats, p)
    for j in range(r):
        keep &= nilpotent_by_squaring(mats @ alg.mats[j], p)
    survivors = vecs[keep]
    if not np.array_equal(alg.c, alg.c.transpose(1, 0, 2)):
        survivors = np.array(
            [v for v in survivors if _ideal_is_nilpotent(alg, v)],
            dtype=np.int64,
        ).reshape(-1, r)
    return rref_mod_p(survivors, p)[0]


def ideal_is_nilpotent_by_einsum(alg, vecs) -> bool:
    """Span-power test on the two-sided ideal generated by a stack of
    vectors, each power span formed by one three-operand einsum."""
    p, r = alg.p, alg.rank
    gens = np.asarray(vecs, dtype=np.int64).reshape(-1, r) % p
    left, right = regular_matrices(alg.c)
    lideal = rref_mod_p(np.einsum("iab,kb->kia", left, gens).reshape(-1, r), p)[0]
    ideal = rref_mod_p(np.einsum("iab,kb->kia", right, lideal).reshape(-1, r), p)[0]
    if ideal.shape[0] == 0:
        return True
    span = ideal
    while True:
        prods = np.einsum("ijk,ai,bj->abk", alg.c, span, ideal) % p
        nxt = rref_mod_p(prods.reshape(-1, r), p)[0]
        if nxt.shape[0] == 0:
            return True
        if nxt.shape[0] == span.shape[0]:
            return False
        span = nxt


def radical_chain_all_steps(alg) -> np.ndarray:
    """Radical basis from the characteristic-coefficient chain run through
    all floor(log_p d) + 1 steps, with the product x y formed for every
    ordered pair, and one nilpotent-ideal check on the final basis."""
    p, dim = alg.p, alg.d
    steps = 1
    while p**steps <= dim:
        steps += 1
    basis = np.eye(alg.rank, dtype=np.int64)
    for i in range(steps):
        if basis.shape[0] == 0:
            break
        d = basis.shape[0]
        mats = alg.element_matrices(basis).astype(np.int64)
        if i == 0:
            coeff = (-np.einsum("aij,bji->ab", mats, mats)) % p
        else:
            prods = (mats[:, None] @ mats[None, :]).reshape(d * d, dim, dim) % p
            coeff = charpoly_mod_p(prods, p, p**i)[:, p**i].reshape(d, d)
        combos = kernel_mod_p(coeff.T, p)
        basis = rref_mod_p((combos @ basis) % p, p)[0]
    if basis.shape[0] and not _ideal_is_nilpotent(alg, basis):
        raise InternalCheckError(f"chain basis {basis.tolist()} is not nilpotent")
    return basis


@lru_cache(maxsize=1)
def corpus() -> tuple:
    """(id, scheme) for every corpus scheme, in id order."""
    return tuple((sid, build_scheme(sid)) for sid in corpus_ids())


@lru_cache(maxsize=None)
def workload_schemes(workload: str, seed: int) -> tuple:
    """(id, scheme) for one benchmark workload at one seed, built by
    perfbench/workloads.py, so relabelled as the benchmark runs them.  The
    module is loaded from its file without writing bytecode next to it."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
    return tuple(workloads.build(cellalg, workload, seed).items())
