"""Plain-loop references the tests compare the package against: exact
structure-constant products, group-axiom checks, the regularity check,
direct-product tables, the center from every commutator row, nilpotency by
plain squaring, the exhaustive radical with one ideal test per element, the
nilpotent-ideal test by one three-operand einsum and the radical chain run
through every step with every ordered pair.  Also the corpus, built once for
all test modules."""

from functools import lru_cache

import numpy as np

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


def radical_oracle_by_ideals(alg):
    """Exhaustive radical basis over F_p: every element enumerated; the
    matrix-nilpotency prefilter (x and every x A_j nilpotent), then each
    survivor's own two-sided ideal tested, unless the algebra is
    commutative."""
    p, r = alg.p, alg.rank
    vecs = np.array(np.meshgrid(*[range(p)] * r, indexing="ij")).reshape(r, -1).T
    mats = alg.element_matrices(vecs)
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
        mats = alg.element_matrices(basis)
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
