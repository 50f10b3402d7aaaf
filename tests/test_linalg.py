"""Exact linear algebra kernels, cross-checked against independent oracles
(cofactor determinants, sympy characteristic polynomials, brute-force
null-space enumeration)."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from reference import multiply

from cellalg.generators import symmetric_table, thin_group_scheme
from cellalg.linalg import (
    charpoly_mod_p,
    det_fraction_free,
    in_row_space_mod_p,
    is_prime,
    kernel_mod_p,
    kernel_rational,
    multiply_mod,
    prime_factors,
    primes_upto,
    primitive_integer_vector,
    regular_matrices,
    rref_mod_p,
)


def cofactor_det(m):
    """Independent determinant oracle: Laplace expansion."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def rank_mod_p(mat, p):
    return len(rref_mod_p(mat, p)[1])


def test_primes():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(50)[-1] == 47
    assert len(primes_upto(50)) == 15
    assert prime_factors(1) == []
    assert prime_factors(2592) == [2, 3]
    assert prime_factors(2 * 3 * 49) == [2, 3, 7]


def test_det_known_values():
    assert det_fraction_free([[3, 0], [0, 6]]) == 18
    assert det_fraction_free([[0, 1], [1, 0]]) == -1
    assert det_fraction_free(np.eye(5, dtype=np.int64)) == 1
    assert det_fraction_free([[2, 4], [1, 2]]) == 0
    assert det_fraction_free([]) == 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_matches_cofactor_expansion(seed, n):
    rng = np.random.default_rng(1000 * n + seed)
    m = rng.integers(-5, 6, size=(n, n))
    assert det_fraction_free(m) == cofactor_det(m.tolist())


def test_rref_mod_p_canonical():
    reduced, pivots = rref_mod_p([[2, 2], [1, 1]], 3)
    assert pivots == [0]
    assert reduced.tolist() == [[1, 1]]
    again, _ = rref_mod_p(reduced, 3)
    assert np.array_equal(again, reduced)


def test_kernel_mod_p_frozen_examples():
    k = kernel_mod_p([[1, 1], [1, 1]], 2)
    assert k.tolist() == [[1, 1]]
    k = kernel_mod_p([[1, 1], [1, 1]], 3)
    assert k.tolist() == [[1, 2]]
    assert kernel_mod_p(np.eye(3, dtype=np.int64), 5).shape == (0, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_mod_p_matches_enumeration(p, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(3, 4))
    basis = kernel_mod_p(m, p)
    members = {
        v
        for v in product(range(p), repeat=4)
        if not (np.asarray(m) @ np.asarray(v) % p).any()
    }
    assert len(members) == p ** basis.shape[0]
    for row in basis:
        assert tuple(int(x) for x in row) in members
    assert rank_mod_p(m, p) + basis.shape[0] == 4


@pytest.mark.parametrize("p", [2, 3, 5, 23])
@pytest.mark.parametrize("seed", range(3))
def test_rank_nullity_and_membership(p, seed):
    rng = np.random.default_rng(100 + seed)
    m = rng.integers(0, p, size=(5, 6))
    basis = kernel_mod_p(m, p)
    assert rank_mod_p(m, p) + basis.shape[0] == 6
    for row in basis:
        assert not ((m @ row) % p).any()
    rows, _ = rref_mod_p(m, p)
    for row in m:
        assert in_row_space_mod_p(row, rows, p)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 47])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_charpoly_matches_sympy(p, n):
    rng = np.random.default_rng(10 * n + p)
    mats = rng.integers(0, p, size=(3, n, n))
    ours = charpoly_mod_p(mats, p)
    lam = sympy.symbols("lam")
    for b in range(3):
        expected = sympy.Matrix(mats[b].tolist()).charpoly(lam).all_coeffs()
        assert [int(c) % p for c in expected] == ours[b].tolist()


@pytest.mark.parametrize("p", [2, 3, 5, 47])
@pytest.mark.parametrize("n", range(10))
def test_truncated_charpoly_is_the_leading_part(p, n):
    rng = np.random.default_rng(100 * n + p)
    mats = rng.integers(0, p, size=(6, n, n))
    full = charpoly_mod_p(mats, p)
    assert full.shape == (6, n + 1)
    for terms in range(n + 2):
        expected = full[:, : min(terms, n) + 1]
        assert np.array_equal(charpoly_mod_p(mats, p, terms), expected), terms
    with pytest.raises(ValueError):
        charpoly_mod_p(mats, p, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 47])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_charpoly_of_xy_is_charpoly_of_yx(p, n):
    # the chain fills its symmetric coefficient matrix from one product per pair
    rng = np.random.default_rng(1000 * n + p)
    x = rng.integers(0, p, size=(40, n, n))
    y = rng.integers(0, p, size=(40, n, n))
    # singular factors too: x of rank at most 1, y strictly upper triangular
    x[20:] = rng.integers(0, p, size=(20, n, 1)) @ rng.integers(0, p, size=(20, 1, n))
    y[30:] = np.triu(y[30:], k=1)
    xy = charpoly_mod_p(x @ y % p, p)
    assert np.array_equal(xy, charpoly_mod_p(y @ x % p, p))
    assert np.array_equal(xy[:, :3], charpoly_mod_p(y @ x % p, p, 2))


def test_charpoly_identity():
    # det(tI - I) = (t-1)^n
    out = charpoly_mod_p(np.eye(4, dtype=np.int64)[None], 5)[0]
    assert out.tolist() == [1, (-4) % 5, 6 % 5, (-4) % 5, 1]


def test_kernel_rational():
    basis = kernel_rational([[1, 1, 0], [0, 1, 1]])
    assert basis == [[Fraction(1), Fraction(-1), Fraction(1)]]
    assert kernel_rational([[1, 0], [0, 1]]) == []
    m = [[2, 4, 6], [1, 2, 3]]
    for v in kernel_rational(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == [1, -2]
    with pytest.raises(ValueError):
        primitive_integer_vector([0, 0])


# matrix-unit structure constants for the 2x2 matrix algebra in basis
# (E00, E11, E01, E10): a tiny independent test bed for multiply.
def matrix_unit_tensor():
    pos = {0: (0, 0), 1: (1, 1), 2: (0, 1), 3: (1, 0)}
    idx = {v: k for k, v in pos.items()}
    c = np.zeros((4, 4, 4), dtype=np.int64)
    for i, (a, b) in pos.items():
        for j, (d, e) in pos.items():
            if b == d:
                c[i, j, idx[(a, e)]] = 1
    return c


def test_multiply_matrix_units():
    c = matrix_unit_tensor()
    e00 = [1, 0, 0, 0]
    e01 = [0, 0, 1, 0]
    e10 = [0, 0, 0, 1]
    assert multiply(e01, e10, c) == [1, 0, 0, 0]
    assert multiply(e10, e01, c) == [0, 1, 0, 0]
    assert multiply(e00, e00, c) == e00
    assert multiply(e01, e01, c) == [0, 0, 0, 0]
    ident = [1, 1, 0, 0]
    x = [Fraction(1, 2), 3, Fraction(-2, 7), 5]
    assert multiply(ident, x, c) == x
    assert multiply(x, ident, c) == x


def test_multiply_mod_agrees_with_exact():
    # the 2 x 2 matrix units, and the non-commutative thin S_3
    s3 = thin_group_scheme(symmetric_table(3)).tensor
    rng = np.random.default_rng(7)
    for c in (matrix_unit_tensor(), s3):
        for p in (2, 5):
            x = rng.integers(0, p, size=len(c))
            y = rng.integers(0, p, size=len(c))
            exact = [v % p for v in multiply(x.tolist(), y.tolist(), c)]
            assert multiply_mod(x, y, c, p).tolist() == exact


def test_regular_matrices_are_homomorphisms():
    c = matrix_unit_tensor()
    left, right = regular_matrices(c)
    rng = np.random.default_rng(11)
    x = rng.integers(-4, 5, size=4)
    y = rng.integers(-4, 5, size=4)
    lx = sum(int(x[i]) * left[i] for i in range(4))
    ly = sum(int(y[i]) * left[i] for i in range(4))
    prod = np.array(multiply(x.tolist(), y.tolist(), c))
    lprod = sum(int(prod[i]) * left[i] for i in range(4))
    assert np.array_equal(lx @ ly, lprod)
    # right multiplications: R(xy) = R(y) R(x)
    rx = sum(int(x[i]) * right[i] for i in range(4))
    ry = sum(int(y[i]) * right[i] for i in range(4))
    rprod = sum(int(prod[i]) * right[i] for i in range(4))
    assert np.array_equal(ry @ rx, rprod)


@pytest.mark.parametrize("seed", range(5))
def test_multiply_associative_on_matrix_units(seed):
    c = matrix_unit_tensor()
    rng = np.random.default_rng(seed)
    x, y, z = (rng.integers(-3, 4, size=4).tolist() for _ in range(3))
    assert multiply(multiply(x, y, c), z, c) == multiply(x, multiply(y, z, c), c)
