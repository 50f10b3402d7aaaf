"""Jacobson radical of the adjacency algebra over a prime field.

Both routes act on one faithful module of dimension d = min(n, r): the
n-dimensional point module of the adjacency matrices, or the r-dimensional
left-regular module when r < n (faithful because the algebra has an
identity).

Two independent routes:

* radical_chain: a descending chain of subspaces cut out by characteristic
  polynomial coefficients of products (Cohen, Ivanyos, Wales, valid on any
  faithful module).  Step i keeps x with the coefficient of t^(d - p^i) of
  charpoly(x y) vanishing for all y in the current basis.  Step 0 is the
  trace-form kernel: that coefficient is -tr(x y), and tr(A_a A_b) =
  sum_k c_abk chi(A_k) for the module's character chi: the kernel of the
  Gram matrix G = c chi mod p, built with no module matrix.  It is zero
  exactly when p misses the integer det G, +-prod |R| on the point module
  and det G_reg, taken once per scheme, on the left-regular one; then the
  chain returns the zero radical at once.  Later steps take the coefficient
  vectors of the products x y from the structure constants, one product
  per unordered pair {x, y}, since charpoly(x y) = charpoly(y x) makes the
  coefficient matrix symmetric.  Equal products are merged, and each
  distinct one gets one module matrix and one characteristic polynomial
  truncated after its first p^i + 1 terms; on its basis of group elements a
  group algebra has r distinct products, not r (r + 1) / 2.  Over the prime
  field each step is a linear system because the Frobenius fixes F_p, and
  after floor(log_p d)+1 steps the chain stabilizes at the radical.  Every
  subspace of the chain contains the radical (for x in it every x y is
  nilpotent), so once the two-sided ideal generated by a subspace is
  nilpotent, that subspace is the radical.  That test runs after each step
  that shrinks the basis, and the chain stops at the first subspace that
  passes; one that ends without passing raises.

* radical_oracle: the radical cut out by nilpotency alone.  Linear
  conditions come first: every radical element has zero trace on the
  faithful module and on the cell module (the characters of
  discriminant.py), and so has e_X x e_X for each cell X, since the radical
  is a two-sided ideal; its point trace is x_k |X| for the diagonal
  relation k of X.  The cell conditions prune where the module trace
  cannot, when p divides the module dimension.  A matrix x is nilpotent
  exactly when x^e = 0 for any e >= d, and that is the oracle's one
  nilpotency test.  In a commutative algebra the radical is exactly the
  set of nilpotent elements, and for e the least power of p with e >= d,
  x -> x^e is F_p-linear, so the radical is the kernel of one linear map:
  the e-th powers of a basis of the kernel of the conditions, with no
  enumeration; its only bound is matmul_mod's, raised as BudgetExceeded.
  Otherwise the oracle enumerates that kernel (at most ORACLE_BUDGET
  elements): every F_p-combination of its basis, counted in base p, in
  batches of at most ORACLE_BATCH_ENTRIES / d^2.  Each batch's module
  matrices are one product of its coefficients with the basis's matrices.  A
  candidate x survives when x and every x A_j are nilpotent, tested with e
  the least power of 2, by squarings alone; the survivors are reduced once,
  and one span-power test on the ideal of that basis accepts them together,
  with one test per survivor only if it fails.  The enumeration is
  exponential and only for cross-checking the chain on small non-commutative
  instances.  The oracle never uses the chain or the trace-form kernel as a
  subspace.

Bases are reduced to row echelon form in relation coordinates, so the two
routes are comparable array-for-array.  Every product mod p goes through
linalg.matmul_mod, which alone decides when it is exact.  The prime must be
below 2^31, so that a product of two residues fits in int64.

central_nilpotent_witness builds, from the cell sizes alone, one central
element that squares to zero mod p when p divides a cell size and vanishes
on Scheme.commutator_rows; the report checks it lies in the chain's radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .discriminant import product_relation_sizes
from .linalg import (
    charpoly_mod_p,
    is_prime,
    kernel_mod_p,
    matmul_mod,
    multiply_mod,
    regular_matrices,
    rref_mod_p,
)
from .scheme import InternalCheckError, Scheme


# largest p^rank the oracle enumerates on a non-commutative algebra; the
# report runs the oracle only on rows within it
ORACLE_BUDGET = 1 << 16
# most module-matrix entries one oracle batch builds
ORACLE_BATCH_ENTRIES = 1 << 18


class BudgetExceeded(ValueError):
    """Oracle input past its bounds: an enumeration larger than
    ORACLE_BUDGET, or a prime too large for matmul_mod's exact sums."""


@dataclass(frozen=True)
class RadicalResult:
    basis: np.ndarray  # (dim, rank) echelonized coefficient vectors

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below 2^31, testing the bound
    first: is_prime's trial division runs for minutes on a huge p."""
    if p >= 1 << 31:
        raise ValueError(f"p = {p} is too large: the prime must be below 2^31")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


class ModularAlgebra:
    """Adjacency algebra over F_p, all mod p: structure constants, the basis
    acting on the smaller faithful module (of dimension d = min(n, rank);
    left-regular only when strictly smaller), that module's character
    traces, the point-module character point_traces and the cell character
    cell_traces, reduced from the scheme's characters, gram_det, the integer
    det (up to sign) of the module's trace form c @ chi, and commutative,
    whether Scheme.commutator_rows vanish mod p.  The 0/1 adjacency
    matrices, and the tensor once p exceeds its entries, are the scheme's
    read-only arrays: reduction would not change them."""

    def __init__(self, scheme: Scheme, p: int):
        _check_prime(p)
        self.p = p
        self.rank = scheme.rank
        c = scheme.tensor
        self.c = c if p > c.max() else c % p
        self.commutative = not (scheme.commutator_rows % p).any()
        standard, regular, cell = scheme.characters
        if self.rank < scheme.size:
            self.mats = regular_matrices(self.c)[0]
            self.traces = regular % p
            self.gram_det = scheme.regular_gram_det
        else:
            self.mats = scheme.adjacency
            self.traces = standard % p
            self.gram_det = product_relation_sizes(scheme)
        self.d = self.mats.shape[1]
        self.point_traces = standard % p
        self.cell_traces = cell % p

    def element_matrices(self, vecs: np.ndarray) -> np.ndarray:
        """Module matrices of coefficient vectors (batched)."""
        v = np.asarray(vecs, dtype=np.int64) % self.p
        r, d = self.mats.shape[:2]
        return matmul_mod(v, self.mats.reshape(r, d * d), self.p).reshape(-1, d, d)


def modular_algebra(scheme: Scheme, p: int) -> ModularAlgebra:
    return ModularAlgebra(scheme, p)


def _ideal_is_nilpotent(alg: ModularAlgebra, vecs: np.ndarray) -> bool:
    """Span-power iteration on the two-sided ideal generated by one vector or
    a (k, rank) stack of them.  The ideal is built as the left ideal and then
    its right closure, which is two-sided because the algebra has an
    identity; a sum of nilpotent ideals is nilpotent, so one test on a stack
    is as strong as one test per row."""
    p, r = alg.p, alg.rank
    gens = np.asarray(vecs, dtype=np.int64).reshape(-1, r) % p
    # row (k, i) of each product: coefficients of A_i g_k, then of u_k A_i
    by_left = alg.c.transpose(1, 0, 2).reshape(r, r * r)
    lideal = rref_mod_p(matmul_mod(gens, by_left, p).reshape(-1, r), p)[0]
    by_right = alg.c.reshape(r, r * r)
    ideal = rref_mod_p(matmul_mod(lideal, by_right, p).reshape(-1, r), p)[0]
    if ideal.shape[0] == 0:
        return True
    span = ideal
    while True:
        # row (a, b) of prods: coefficients of span_a ideal_b
        prods = matmul_mod(ideal, matmul_mod(span, by_right, p).reshape(-1, r, r), p)
        nxt = rref_mod_p(prods.reshape(-1, r), p)[0]
        if nxt.shape[0] == 0:
            return True
        if nxt.shape[0] == span.shape[0]:
            # chain of spans is descending; equal dimension means stable
            return False
        span = nxt


def _product_coefficients(alg: ModularAlgebra, basis: np.ndarray, power: int) -> np.ndarray:
    """(k, k) matrix whose entry (x, y) is the coefficient of
    t^(d - power) in charpoly(x y), for the rows x, y of a (k, rank) basis.
    The coefficient vectors of the products come from the structure
    constants; since charpoly(x y) = charpoly(y x), one product per
    unordered pair is kept, and the module matrix and truncated charpoly
    are formed once per distinct product."""
    p, r, d = alg.p, alg.rank, alg.d
    k = basis.shape[0]
    # left[x, b, s]: coefficient of A_s in x A_b
    left = matmul_mod(basis, alg.c.reshape(r, r * r), p).reshape(k, r, r)
    # prods[y, x, s]: coefficient of A_s in x y
    prods = matmul_mod(basis, left.transpose(1, 0, 2).reshape(r, k * r), p)
    rows, cols = np.triu_indices(k)
    vecs = prods.reshape(k, k, r)[cols, rows]
    # sorted, equal vectors are adjacent; inverse maps each pair to its
    # distinct product
    order = np.lexsort(vecs.T)
    ordered = vecs[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    mats = matmul_mod(ordered[first], alg.mats.reshape(r, d * d), p).reshape(-1, d, d)
    upper = charpoly_mod_p(mats, p, power)[:, power][inverse]
    coeff = np.empty((k, k), dtype=np.int64)
    coeff[rows, cols] = coeff[cols, rows] = upper
    return coeff


def radical_chain(alg: ModularAlgebra) -> RadicalResult:
    """Radical via the characteristic-coefficient chain.  Stops at the first
    subspace whose generated ideal is nilpotent; a chain that ends on
    another subspace raises."""
    p, dim = alg.p, alg.d
    if alg.gram_det % p:
        # step 0 keeps the kernel of the trace form's Gram matrix G mod p,
        # which is zero exactly when p misses det G
        return RadicalResult(basis=np.zeros((0, alg.rank), dtype=np.int64))
    steps = 1
    while p**steps <= dim:
        steps += 1
    basis = np.eye(alg.rank, dtype=np.int64)
    for i in range(steps):
        d = basis.shape[0]
        # row x, column y: coefficient of t^(dim - p^i) in charpoly(x y)
        if i == 0:
            # basis is the identity: x y runs over the products A_a A_b
            coeff = -matmul_mod(alg.c, alg.traces, p) % p
        else:
            coeff = _product_coefficients(alg, basis, p**i)
        # solve for x: the coefficient vanishes against every y
        combos = kernel_mod_p(coeff.T, p)
        basis = rref_mod_p(matmul_mod(combos, basis, p), p)[0]
        # a basis that did not shrink has failed the test already, or is
        # the whole algebra, which contains the identity
        if basis.shape[0] == 0 or (
            basis.shape[0] < d and _ideal_is_nilpotent(alg, basis)
        ):
            return RadicalResult(basis=basis)
    raise InternalCheckError(
        f"chain basis {basis.tolist()} does not generate a nilpotent ideal"
    )


def _trace_conditions(alg: ModularAlgebra) -> np.ndarray:
    """Rows of linear conditions mod p that every radical element x meets:
    zero trace on the module, zero cell character, and, in row 2 + k,
    x_k chi_std(A_k) = 0.  That row is zero unless k is the diagonal relation
    e_X of a cell X, and then it is the point trace x_k |X| of e_X x e_X,
    which lies in the radical, a two-sided ideal, and so is nilpotent."""
    return np.vstack([alg.traces, alg.cell_traces, np.diag(alg.point_traces)])


def _frobenius_powers(mats: np.ndarray, p: int, base: int) -> np.ndarray:
    """x^e for each matrix x of a (k, d, d) stack of residues mod p, where e
    is the least power of base with e >= d; so x^e = 0 exactly when x is
    nilpotent.  With base p, in a commutative algebra over F_p, x -> x^e is
    F_p-linear, so the powers of a basis give every element's; base 2
    takes squarings alone.  Square-and-multiply runs over the bits of e
    from the top, starting from x itself, not from an identity stack."""
    d = mats.shape[-1]
    e = 1
    while e < d:
        e *= base
    x = power = mats
    for bit in bin(e)[3:]:
        power = matmul_mod(power, power, p)
        if bit == "1":
            power = matmul_mod(power, x, p)
    return power


def radical_oracle(alg: ModularAlgebra) -> RadicalResult:
    """Radical by nilpotency alone, within the kernel of the trace
    conditions: on a commutative algebra the kernel of x -> x^e, within
    matmul_mod's bound, otherwise every element of the kernel, at most
    ORACLE_BUDGET of them, keeping generators of nilpotent ideals, as the
    module docstring says.  The enumeration checks that the kept set is a
    subspace."""
    p, r, d = alg.p, alg.rank, alg.d
    count = p**r
    if not alg.commutative and count > ORACLE_BUDGET:
        raise BudgetExceeded(f"{p}^{r} = {count} exceeds budget {ORACLE_BUDGET}")
    kernel = kernel_mod_p(_trace_conditions(alg), p)
    k = kernel.shape[0]
    try:
        # row i: the module matrix of kernel row i; no later product has an
        # inner dimension above this one's r, so this one meets the bound
        span = alg.element_matrices(kernel)
    except OverflowError as exc:
        raise BudgetExceeded(str(exc)) from exc
    if alg.commutative:
        # row i: the e-th power of kernel row i; the radical is the kernel
        # of this linear map
        powers = _frobenius_powers(span, p, p).reshape(k, d * d)
        basis = matmul_mod(kernel_mod_p(powers.T, p), kernel, p)
        return RadicalResult(basis=rref_mod_p(basis, p)[0])
    span = span.reshape(k, d * d)
    # candidate i has the base-p digits of i as its kernel coordinates
    place = p ** np.arange(k - 1, -1, -1)
    step = max(1, ORACLE_BATCH_ENTRIES // (d * d))
    kept = []
    for start in range(0, p**k, step):
        combos = np.arange(start, min(start + step, p**k))[:, None] // place % p
        mats = matmul_mod(combos, span, p).reshape(-1, d, d)
        keep = ~_frobenius_powers(mats, p, 2).any(axis=(1, 2))
        for j in range(r):
            sel = np.flatnonzero(keep)
            sub = _frobenius_powers(matmul_mod(mats[sel], alg.mats[j], p), p, 2)
            keep[sel[sub.any(axis=(1, 2))]] = False
        kept.append(matmul_mod(combos[keep], kernel, p))
    members = np.concatenate(kept)
    basis = rref_mod_p(members, p)[0]
    if not _ideal_is_nilpotent(alg, basis):
        members = np.array(
            [v for v in members if _ideal_is_nilpotent(alg, v)], dtype=np.int64
        ).reshape(-1, r)
        basis = rref_mod_p(members, p)[0]
    if len(members) != p ** basis.shape[0]:
        raise InternalCheckError(
            f"oracle kept {len(members)} elements, not the {p}^{basis.shape[0]} "
            "of a subspace"
        )
    return RadicalResult(basis=basis)


def central_nilpotent_witness(scheme: Scheme, p: int) -> np.ndarray | None:
    """Explicit nonzero central element squaring to zero mod p, built from
    cell-block all-ones matrices; exists whenever p divides a cell size.

    Over Q, sum_X J_X / |X| is central: for a relation R in the fiber
    X x Y, (J_X / |X|) A_R = |R| J_XY / (|X| |Y|) = A_R (J_Y / |Y|).  Write
    |X| = p^a_X * u_X with u_X prime to p and let lam be the largest a_X.
    Scaled by p^lam * prod u_Y, the coefficient of J_X is
    p^(lam - a_X) * prod_{Y != X} u_Y, which mod p survives only on the
    cells with a_X = lam.  Distinct J_X multiply to 0 and J_X^2 = |X| J_X,
    so the square vanishes when lam >= 1; with lam = 0 there is no witness.
    """
    _check_prime(p)
    vals = []
    for s in (len(x) for x in scheme.cells):
        a = 0
        while s % p == 0:
            a += 1
            s //= p
        vals.append((a, s))
    lam = max(a for a, _ in vals)
    if lam == 0:
        return None
    coeffs = [
        prod(u for j, (_, u) in enumerate(vals) if j != i) % p if a == lam else 0
        for i, (a, _) in enumerate(vals)
    ]
    vec = np.zeros(scheme.rank, dtype=np.int64)
    for rel in range(scheme.rank):
        fiber = scheme.fiber_of[rel]
        if fiber is not None and fiber[0] == fiber[1]:
            vec[rel] = coeffs[fiber[0]]
    if not vec.any():
        raise InternalCheckError(f"witness mod {p} is zero")
    if matmul_mod(scheme.commutator_rows % p, vec, p).any():
        raise InternalCheckError(f"witness mod {p} is not central")
    if multiply_mod(vec, vec, scheme.tensor, p).any():
        raise InternalCheckError(f"witness mod {p} does not square to zero")
    return vec
