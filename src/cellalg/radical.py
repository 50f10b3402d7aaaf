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
  sum_k c_abk chi(A_k) for the module's character chi, so no module
  matrix, product or charpoly is built.  Later steps read the coefficient
  from a characteristic polynomial truncated after its first p^i + 1
  terms.  Since charpoly(x y) = charpoly(y x), the coefficient matrix is
  symmetric and one product per unordered pair {x, y} fills it.  Over the
  prime field each step is a linear system because the Frobenius fixes
  F_p, and after floor(log_p d)+1 steps the chain stabilizes at the
  radical.  Every subspace of the chain contains the radical (for x in it
  every x y is nilpotent), so once the two-sided ideal generated by a
  subspace is nilpotent, that subspace is the radical.  That test runs
  after each step that shrinks the basis, and the chain stops at the
  first subspace that passes; one that ends without passing raises.

* radical_oracle: enumerate the algebra (at most ORACLE_BUDGET elements)
  and keep the elements whose two-sided ideal is nilpotent.  Linear
  conditions come first: every radical element has zero trace on the
  faithful module and on the cell module (the characters of
  discriminant.py), and so has e_X x e_X for each cell X, since the radical
  is a two-sided ideal; its point trace is x_k |X| for the diagonal
  relation k of X.  The cell conditions prune where the module trace
  cannot, when p divides the module dimension.  The candidates are every
  F_p-combination of a basis of the kernel of these conditions, counted
  in base p, in batches of at most ORACLE_BATCH_ENTRIES / d^2 of them.  In
  a commutative algebra the radical is exactly the set of nilpotent
  elements, and x -> x^e, for e the least power of p with e >= d, is
  F_p-linear and zero exactly on them; so the e-th powers of the kernel
  basis are formed once, and each batch is one product of its
  coefficients with those powers and a zero test.  Otherwise each batch's
  module matrices are one product of its coefficients with the kernel
  basis's matrices; a candidate is dropped when its matrix, or one of its
  repeated squares, has nonzero trace, the rest get the exact zero test,
  every x A_j must be nilpotent too, and one span-power test on the ideal
  of all survivors accepts them together, with one test per survivor only
  if it fails.  The batch products run in float64, exact because their
  entries are residues below p and the k <= r products summed per entry
  stay below 2^53 when p^r <= ORACLE_BUDGET.  Exponential and only for
  cross-checking the chain on small instances; it never uses the chain or
  the trace-form kernel as a subspace.

Bases are reduced to row echelon form in relation coordinates, so the two
routes are comparable array-for-array.  The prime must be below 2^31, so
that a product of two residues fits in int64.

central_nilpotent_witness builds, from the cell sizes alone, one central
element that squares to zero mod p when p divides a cell size; the report
checks that it lies in the chain's radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import (
    charpoly_mod_p,
    is_prime,
    kernel_mod_p,
    multiply_mod,
    regular_matrices,
    rref_mod_p,
)
from .scheme import InternalCheckError, Scheme


# largest p^rank the exhaustive oracle enumerates
ORACLE_BUDGET = 1 << 16
# most module-matrix entries one oracle batch builds
ORACLE_BATCH_ENTRIES = 1 << 18


class BudgetExceeded(ValueError):
    """Oracle enumeration would be larger than the allowed budget."""


@dataclass(frozen=True)
class RadicalResult:
    dim: int
    basis: np.ndarray  # (dim, rank) echelonized coefficient vectors


class ModularAlgebra:
    """Adjacency algebra over F_p, all mod p: structure constants, the basis
    acting on the smaller faithful module (of dimension d = min(n, rank);
    left-regular only when strictly smaller), that module's character
    traces, the point-module character point_traces and the cell character
    cell_traces, reduced from the scheme's characters."""

    def __init__(self, scheme: Scheme, p: int):
        # before is_prime, whose trial division runs for minutes on huge p
        if p >= 1 << 31:
            raise ValueError(f"p = {p} is too large: the prime must be below 2^31")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.rank = scheme.rank
        self.c = scheme.tensor % p
        standard, regular, cell = scheme.characters
        if self.rank < scheme.size:
            self.mats = regular_matrices(self.c)[0] % p
            self.traces = regular % p
        else:
            self.mats = scheme.adjacency % p
            self.traces = standard % p
        self.d = self.mats.shape[1]
        self.point_traces = standard % p
        self.cell_traces = cell % p

    def element_matrices(self, vecs: np.ndarray) -> np.ndarray:
        """Module matrices of coefficient vectors (batched)."""
        v = np.asarray(vecs, dtype=np.int64) % self.p
        out = np.einsum("br,rij->bij", v, self.mats)
        out %= self.p
        return out


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
    left, right = regular_matrices(alg.c)
    # row (k, i) of each stack: coefficients of A_i g_k, then of u_k A_i
    lideal = rref_mod_p(np.einsum("iab,kb->kia", left, gens).reshape(-1, r), p)[0]
    ideal = rref_mod_p(np.einsum("iab,kb->kia", right, lideal).reshape(-1, r), p)[0]
    if ideal.shape[0] == 0:
        return True
    span = ideal
    while True:
        # row (a, b) of prods: coefficients of span_a ideal_b; two-operand
        # products, since einsum runs three operands as one nested loop
        prods = ideal @ (span @ alg.c.reshape(r, r * r)).reshape(-1, r, r)
        prods %= p
        nxt = rref_mod_p(prods.reshape(-1, r), p)[0]
        if nxt.shape[0] == 0:
            return True
        if nxt.shape[0] == span.shape[0]:
            # chain of spans is descending; equal dimension means stable
            return False
        span = nxt


def radical_chain(alg: ModularAlgebra) -> RadicalResult:
    """Radical via the characteristic-coefficient chain.  Stops at the first
    subspace whose generated ideal is nilpotent; a chain that ends on
    another subspace raises."""
    p, dim = alg.p, alg.d
    steps = 1
    while p**steps <= dim:
        steps += 1
    basis = np.eye(alg.rank, dtype=np.int64)
    for i in range(steps):
        d = basis.shape[0]
        # row x, column y: coefficient of t^(dim - p^i) in charpoly(x y)
        if i == 0:
            # basis is the identity: x y runs over the products A_a A_b
            coeff = -(alg.c @ alg.traces) % p
        else:
            mats = alg.element_matrices(basis)
            rows, cols = np.triu_indices(d)
            prods = mats[rows] @ mats[cols]
            prods %= p
            # charpoly(x y) = charpoly(y x): one product per unordered pair
            upper = charpoly_mod_p(prods, p, p**i)[:, p**i]
            coeff = np.empty((d, d), dtype=np.int64)
            coeff[rows, cols] = coeff[cols, rows] = upper
        # solve for x: the coefficient vanishes against every y
        combos = kernel_mod_p(coeff.T, p)
        basis = rref_mod_p((combos @ basis) % p, p)[0]
        # a basis that did not shrink has failed the test already, or is
        # the whole algebra, which contains the identity
        if basis.shape[0] == 0 or (
            basis.shape[0] < d and _ideal_is_nilpotent(alg, basis)
        ):
            return RadicalResult(dim=basis.shape[0], basis=basis)
    raise InternalCheckError(
        f"chain basis {basis.tolist()} does not generate a nilpotent ideal"
    )


def _nilpotent_mask(mats: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (b, d, d) stack over F_p are nilpotent.

    Squares until the exponent reaches d (x nilpotent iff x^d = 0).  Every
    power of a nilpotent matrix has trace zero, so a candidate whose matrix
    or current power has a nonzero trace is dropped before the next
    squaring; the candidates left at the end get the exact zero test."""
    d = mats.shape[-1]
    alive = np.flatnonzero(np.einsum("bii->b", mats) % p == 0)
    power = mats[alive]
    t = 1
    while t < d and alive.size:
        power = power @ power
        power %= p
        t *= 2
        traceless = np.einsum("bii->b", power) % p == 0
        alive, power = alive[traceless], power[traceless]
    mask = np.zeros(mats.shape[0], dtype=bool)
    mask[alive[~power.any(axis=(1, 2))]] = True
    return mask


def _trace_conditions(alg: ModularAlgebra) -> np.ndarray:
    """Rows of linear conditions mod p that every radical element x meets:
    zero trace on the module, zero cell character, and, in row 2 + k,
    x_k chi_std(A_k) = 0.  That row is zero unless k is the diagonal relation
    e_X of a cell X, and then it is the point trace x_k |X| of e_X x e_X,
    which lies in the radical, a two-sided ideal, and so is nilpotent."""
    return np.vstack([alg.traces, alg.cell_traces, np.diag(alg.point_traces)])


def _frobenius_powers(mats: np.ndarray, p: int) -> np.ndarray:
    """x^e for each matrix x of a (k, d, d) stack over F_p, by
    square-and-multiply, where e is the least power of p with e >= d; so
    x^e = 0 exactly when x is nilpotent.  In a commutative algebra over F_p,
    x -> x^e is F_p-linear, so the powers of a basis give every element's."""
    d = mats.shape[-1]
    e = 1
    while e < d:
        e *= p
    base = mats % p
    power = np.broadcast_to(np.eye(d, dtype=np.int64), mats.shape).copy()
    while True:
        if e & 1:
            power = power @ base
            power %= p
        e >>= 1
        if not e:
            return power
        base = base @ base
        base %= p


def _combinations(coeffs: np.ndarray, stack: np.ndarray, p: int) -> np.ndarray:
    """Row b: sum_i coeffs[b, i] stack[i] mod p, for residues below p, as
    one float64 GEMM; the float64 residues it returns are exact while
    k (p - 1)^2 < 2^53 for the inner dimension k, since then every partial
    sum is an integer below 2^53."""
    k = coeffs.shape[1]
    if k * (p - 1) ** 2 >= 1 << 53:
        raise InternalCheckError(
            f"{k} products of residues mod {p} can pass 2^53, where float64 "
            "sums stop being exact"
        )
    out = coeffs.astype(np.float64) @ stack.astype(np.float64)
    np.fmod(out, p, out=out)
    return out


def radical_oracle(alg: ModularAlgebra) -> RadicalResult:
    """Exhaustive radical: every element of the kernel of the trace
    conditions, at most ORACLE_BUDGET of them, keeping generators of
    nilpotent ideals; batched and tested as the module docstring says.  In a
    commutative algebra the nilpotent elements are exactly the radical,
    since there (x A_j)^d = x^d A_j^d.  Checks that the kept set is a
    subspace."""
    p, r, d = alg.p, alg.rank, alg.d
    count = p**r
    if count > ORACLE_BUDGET:
        raise BudgetExceeded(f"{p}^{r} = {count} exceeds budget {ORACLE_BUDGET}")
    kernel = kernel_mod_p(_trace_conditions(alg), p)
    k = kernel.shape[0]
    # row i: the module matrix of kernel row i, in a commutative algebra
    # its e-th power
    span = alg.element_matrices(kernel)
    commutative = np.array_equal(alg.c, alg.c.transpose(1, 0, 2))
    if commutative:
        span = _frobenius_powers(span, p)
    span = span.reshape(k, d * d)
    # candidate i has the base-p digits of i as its kernel coordinates
    place = p ** np.arange(k - 1, -1, -1)
    step = max(1, ORACLE_BATCH_ENTRIES // (d * d))
    kept = []
    for start in range(0, p**k, step):
        combos = np.arange(start, min(start + step, p**k))[:, None] // place % p
        vecs = combos @ kernel % p
        mats = _combinations(combos, span, p)
        if commutative:
            # row b is the e-th power of candidate b
            keep = ~mats.any(axis=1)
        else:
            mats = mats.astype(np.int64).reshape(-1, d, d)
            keep = _nilpotent_mask(mats, p)
            for j in range(r):
                sel = np.nonzero(keep)[0]
                sub = mats[sel] @ alg.mats[j]
                sub %= p
                keep[sel[~_nilpotent_mask(sub, p)]] = False
        kept.append(vecs[keep])
    survivors = np.concatenate(kept)
    if commutative or _ideal_is_nilpotent(alg, rref_mod_p(survivors, p)[0]):
        members = survivors
    else:
        members = np.array(
            [v for v in survivors if _ideal_is_nilpotent(alg, v)], dtype=np.int64
        ).reshape(-1, r)
    basis = rref_mod_p(members, p)[0]
    if len(members) != p ** basis.shape[0]:
        raise InternalCheckError(
            f"oracle kept {len(members)} elements, not the {p}^{basis.shape[0]} "
            "of a subspace"
        )
    return RadicalResult(dim=basis.shape[0], basis=basis)


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
    c = scheme.tensor
    r = scheme.rank
    left, right = regular_matrices(c)
    # column s: coefficients of vec A_s - A_s vec
    commutators = (vec @ (left - right).reshape(r, r * r) % p).reshape(r, r)
    bad = np.flatnonzero(commutators.any(axis=0))
    if bad.size:
        raise InternalCheckError(
            f"witness mod {p} does not commute with basis element {bad[0]}"
        )
    if multiply_mod(vec, vec, c, p).any():
        raise InternalCheckError(f"witness mod {p} does not square to zero")
    return vec
