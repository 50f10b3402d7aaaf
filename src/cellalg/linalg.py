"""Exact linear algebra: prime-field elimination, fraction-free determinants,
characteristic polynomials, and structure-constant arithmetic.

Integers are Python ints (arbitrary precision); rationals are
fractions.Fraction.  Mod-p elimination uses int64 numpy arrays with explicit
reduction.  Every mod-p matrix product of the radical goes through
matmul_mod, the one place that decides when such a product is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def primes_upto(bound: int) -> list[int]:
    return [m for m in range(2, bound + 1) if is_prime(m)]


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m >= 1, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# elimination over F_p

def rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p with first-nonzero pivoting.

    Returns (rows, pivot_columns) where rows contains only the nonzero rows.
    The pivot choice (first nonzero entry scanning down each column) is fixed
    so results are reproducible.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        j = row + int(nz[0])
        if j != row:
            a[[row, j]] = a[[j, row]]
        a[row] = (a[row] * pow(int(a[row, col]), -1, p)) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != row]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[row])) % p
        pivots.append(col)
        row += 1
    return a[: len(pivots)], pivots


def kernel_mod_p(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) basis of the right null space of mat over F_p.

    Returns a (dim, ncols) array; dim may be 0.  rank + nullity = ncols.
    """
    a = np.asarray(mat, dtype=np.int64)
    ncols = a.shape[1]
    reduced, pivots = rref_mod_p(a, p)
    basis = np.zeros((ncols - len(pivots), ncols), dtype=np.int64)
    if basis.shape[0] == 0:
        return basis
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    # row k: 1 in the k-th free column, the negated column of reduced at the
    # pivots
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -reduced[:, free].T % p
    # normalize to a canonical subspace representative
    return rref_mod_p(basis, p)[0]


def in_row_space_mod_p(vec: np.ndarray, rref_rows: np.ndarray, p: int) -> bool:
    """Membership test against an RREF basis."""
    v = np.asarray(vec, dtype=np.int64) % p
    for row in rref_rows:
        lead = int(np.nonzero(row)[0][0])
        if v[lead]:
            v = (v - v[lead] * row) % p
    return not v.any()


# ---------------------------------------------------------------------------
# elimination over Q

def rref_rational(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Exact RREF over Q with first-nonzero pivoting; drops zero rows.

    Fraction-free: rows are scaled to integers, then Gauss-Jordan runs in
    Bareiss form, each update dividing exactly by the previous pivot.  A
    pivot row is negated to make its pivot positive, so a row with a zero
    in the pivot column stays as it is while the pivot repeats; rows that
    vanish are dropped.  Every pivot row ends with the last pivot D at its
    pivot, and one division by D per entry gives the RREF."""
    a = []
    for row in mat:
        # Fraction(np.int64) keeps an int64 numerator, whose products wrap
        fracs = [x if isinstance(x, (int, Fraction)) else int(x)
                 if isinstance(x, np.integer) else Fraction(x) for x in row]
        scale = math.lcm(*(f.denominator for f in fracs))
        a.append([f.numerator * (scale // f.denominator) for f in fracs])
    pivots: list[int] = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        k = len(pivots)
        j = next((i for i in range(k, len(a)) if a[i][col]), None)
        if j is None:
            continue
        # the stale a[k] is left out of rest; top goes back in at k
        top, a[j] = a[j], a[k]
        if top[col] < 0:
            top = [-x for x in top]
        piv = top[col]
        rest = ([(piv * x - row[col] * y) // prev for x, y in zip(row, top)]
                if row[col] or piv != prev else row for row in a[:k] + a[k + 1:])
        a = [row for i, row in enumerate(rest) if i < k or any(row)]
        a.insert(k, top)
        prev = piv
        pivots.append(col)
    return [[Fraction(x, prev) for x in row] for row in a[: len(pivots)]], pivots


def kernel_rational(mat) -> list[list[Fraction]]:
    """Canonical (RREF) basis of the rational right null space."""
    rows = [list(r) for r in mat]
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref_rational(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for j, pc in enumerate(pivots):
            v[pc] = -reduced[j][fc]
        basis.append(v)
    return rref_rational(basis)[0] if basis else []


def primitive_integer_vector(vec) -> list[int]:
    """Scale a rational vector to coprime integers with positive leading entry."""
    fracs = [Fraction(x) for x in vec]
    if not any(fracs):
        raise ValueError("zero vector has no primitive form")
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials

def det_fraction_free(mat) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination.

    All intermediate quantities are integers; divisions are exact.
    """
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("expected a square integer matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            j = next((i for i in range(k + 1, n) if a[i][k]), None)
            if j is None:
                return 0
            a[k], a[j] = a[j], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def charpoly_mod_p(mats: np.ndarray, p: int, terms: int) -> np.ndarray:
    """Characteristic polynomials of a batch of matrices over F_p.

    mats has shape (B, n, n); returns shape (B, k+1) with coefficients of
    det(tI - M) ordered from t^n down to t^(n-k), where k = min(terms, n),
    so terms = n gives the whole polynomial.  Uses a division-free
    (Berkowitz-style) recurrence, so it is valid in any characteristic.
    The recurrence is lower triangular, so the leading k+1 coefficients
    need only the first k+1 entries of each Toeplitz column.
    """
    a = np.asarray(mats, dtype=np.int64) % p
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a batch of square matrices")
    batch, n, _ = a.shape
    if terms < 0:
        raise ValueError("terms must be non-negative")
    width = min(terms, n) + 1
    coeffs = np.ones((batch, 1), dtype=np.int64)
    for i in range(n):
        # charpoly of the leading (i+1) x (i+1) block, first w coefficients
        w = min(i + 2, width)
        blk = a[:, :i, :i]
        row = a[:, i : i + 1, :i]
        col = a[:, :i, i : i + 1]
        # Toeplitz column: 1, -a_ii, -row.col, -row.blk.col, -row.blk^2.col, ...
        t = np.zeros((batch, w), dtype=np.int64)
        t[:, 0] = 1
        if w > 1:
            t[:, 1] = (-a[:, i, i]) % p
        v = col
        for k in range(2, w):
            if k > 2:
                v = (blk @ v) % p
            t[:, k] = (-(row @ v)[:, 0, 0]) % p
        nxt = np.zeros((batch, w), dtype=np.int64)
        for j in range(coeffs.shape[1]):
            nxt[:, j:] = (nxt[:, j:] + coeffs[:, j : j + 1] * t[:, : w - j]) % p
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# structure-constant arithmetic

def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residues 0 <= x < p, stacked operands too.  Every
    partial sum is an integer y below k (p - 1)^2 for the inner dimension k.
    Below 2^53 it runs in float64 through BLAS and returns float64 residues
    y - floor(y / p) p, exact since the rounded y / p is off by less than
    1 / p (np.fmod is slower); below 2^63 it runs in int64; past, it raises."""
    bound = a.shape[-1] * (p - 1) ** 2
    if bound < 1 << 53:
        out = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        quot = out / p
        np.floor(quot, out=quot)
        quot *= p
        out -= quot
        return out
    if bound >= 1 << 63:
        raise OverflowError(
            f"{a.shape[-1]} products of residues mod {p} can pass 2^63, "
            "where int64 sums wrap"
        )
    return np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64) % p


def multiply_mod(x: np.ndarray, y: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Product of coefficient vectors over F_p."""
    xv = np.asarray(x, dtype=np.int64) % p
    yv = np.asarray(y, dtype=np.int64) % p
    cc = np.asarray(c, dtype=np.int64) % p
    if xv.shape[0] != cc.shape[0] or yv.shape[0] != cc.shape[0]:
        raise ValueError("coefficient vector length does not match rank")
    r = cc.shape[0]
    # sum_ij x_i y_j c_ijk by two products: einsum runs three operands as
    # one nested loop
    return matmul_mod(yv, matmul_mod(xv, cc.reshape(r, r * r), p).reshape(r, r), p)


def regular_matrices(c) -> tuple[np.ndarray, np.ndarray]:
    """Left and right regular representations as (r, r, r) stacks: column s
    of left[i] holds the coefficients of A_i A_s, column s of right[j]
    those of A_s A_j."""
    cc = np.asarray(c, dtype=np.int64)
    return cc.transpose(0, 2, 1), cc.transpose(1, 2, 0)
