"""Scheme construction, axiom checking and the intersection tensor.

The tensor oracle here is deliberately naive: count midpoints with a triple
loop and compare."""

from collections import Counter

import numpy as np
import pytest

from cellalg.generators import (
    build_scheme,
    cyclic_table,
    hamming,
    johnson,
    rank2,
    schurian,
    symmetric_table,
    thin_group_scheme,
)
from cellalg.linalg import regular_matrices
from cellalg.scheme import (
    InternalCheckError,
    Scheme,
    SchemeError,
    classify,
    from_color_matrix,
    relation_stats,
    verify_regularity,
)
from reference import (
    corpus,
    degrees_by_rows,
    regularity_by_loops,
    scheme_facts_by_loops,
    workload_schemes,
)

RANK2_3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
Z3_CIRCULANT = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
# passes the partition/diagonal/transpose checks but not regularity
IRREGULAR_3 = [[0, 1, 1], [1, 0, 1], [1, 1, 2]]


def brute_counts(colors):
    """Midpoint counts per (i, j, pair), straight from the definition."""
    colors = np.asarray(colors)
    n = colors.shape[0]
    out = {}
    for u in range(n):
        for w in range(n):
            for v in range(n):
                key = (int(colors[u, v]), int(colors[v, w]), u, w)
                out[key] = out.get(key, 0) + 1
    return out


def brute_tensor_or_witness(scheme):
    """Returns (tensor, None) or (None, witness triple) by brute force."""
    counts = brute_counts(scheme.colors)
    r, n = scheme.rank, scheme.size
    c = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for k in range(r):
                pairs = [(u, w) for u in range(n) for w in range(n)
                         if scheme.colors[u, w] == k]
                vals = [counts.get((i, j, u, w), 0) for u, w in pairs]
                if len(set(vals)) > 1:
                    return None, (i, j, k)
                c[i, j, k] = vals[0]
    return c, None


def test_rank2_3_construction():
    s = from_color_matrix(RANK2_3)
    assert s.size == 3
    assert s.rank == 2
    assert s.cells == ((0, 1, 2),)
    assert s.diagonal_colors == (0,)
    assert s.transpose_of == (0, 1)
    assert s.fiber_of == ((0, 0), (0, 0))


def test_rank2_3_tensor_against_brute_force():
    s = from_color_matrix(RANK2_3)
    c = s.tensor
    expected, witness = brute_tensor_or_witness(s)
    assert witness is None
    assert np.array_equal(c, expected)
    assert c[1, 1, 0] == 2
    assert c[1, 1, 1] == 1
    assert c[0, 1, 1] == 1
    assert c[1, 0, 1] == 1


def test_regularity_matches_the_loop_version_on_the_corpus():
    for scheme_id, s in corpus():
        expected, failure = regularity_by_loops(s)
        assert failure is None, scheme_id
        assert np.array_equal(verify_regularity(s), expected), scheme_id


@pytest.mark.parametrize(
    "make",
    [
        lambda: rank2(96),
        lambda: hamming(3, 3),
        lambda: johnson(7, 3),
        lambda: thin_group_scheme(symmetric_table(4)),
        lambda: thin_group_scheme(cyclic_table(30)),
    ],
    ids=["rank2-96", "hamming-3-3", "johnson-7-3", "thin-s4", "thin-z30"],
)
def test_regularity_matches_the_loop_version_on_the_largest_counts(make):
    # the benchmark schemes past the corpus: the largest n and rank, where
    # the float32 counts reach their largest values
    s = make()
    expected, failure = regularity_by_loops(s)
    assert failure is None
    assert np.array_equal(verify_regularity(s), expected)


def test_regularity_witness_matches_the_loop_version():
    # random symmetric colorings with a one-color diagonal pass the
    # construction checks; most of them are not regular
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        upper = np.triu(rng.integers(1, 4, size=(n, n)), 1)
        colors = np.unique(upper + upper.T, return_inverse=True)[1].reshape(n, n)
        s = from_color_matrix(colors)
        expected, failure = regularity_by_loops(s)
        if failure is None:
            assert np.array_equal(verify_regularity(s), expected)
            continue
        with pytest.raises(SchemeError) as err:
            verify_regularity(s)
        assert (str(err.value), err.value.witness) == failure
        failures += 1
    assert failures >= 100


def package_facts(matrix):
    """scheme_facts_by_loops's record, from the package."""
    try:
        s = from_color_matrix(matrix)
    except SchemeError as err:
        return None, (str(err), err.witness)
    try:
        tensor = s.tensor.tolist()
    except SchemeError as err:
        tensor = (str(err), err.witness)
    return {
        "colors": s.colors.tolist(),
        "cells": s.cells,
        "point_cell": s.point_cell.tolist(),
        "fiber_of": s.fiber_of,
        "transpose_of": s.transpose_of,
        "tensor": tensor,
    }, None


def permuted(colors, rng):
    """colors with its points and its color values permuted at random."""
    points = rng.permutation(colors.shape[0])
    values = rng.permutation(int(colors.max()) + 1)
    return values[colors[np.ix_(points, points)]]


def test_scheme_facts_match_the_loop_version_on_the_corpus():
    rng = np.random.default_rng(12)
    for scheme_id, s in corpus():
        for matrix in (s.colors, permuted(s.colors, rng)):
            expected = scheme_facts_by_loops(matrix)
            assert expected[1] is None, scheme_id
            assert package_facts(matrix) == expected, scheme_id


def random_coloring(rng):
    """A color matrix on at most 8 points that fails one construction or
    regularity check about as often as it passes them all."""
    n = int(rng.integers(1, 9))
    kind = rng.integers(6)
    if kind == 0:
        # any values: mostly contiguity and diagonal-closure failures
        return rng.integers(0, int(rng.integers(1, 6)), size=(n, n))
    if kind == 1:
        # contiguous: diagonal-closure and transpose-closure failures
        return np.unique(rng.integers(0, 4, size=(n, n)), return_inverse=True)[1].reshape(n, n)
    if kind in (2, 3):
        # diagonal colors apart from the others; kind 3 pairs each color
        # with its transpose, so that regularity decides
        diag = rng.integers(0, int(rng.integers(1, 3)), size=n)
        off = rng.integers(0, 4, size=(n, n)) + 2
        if kind == 3:
            off = np.where(np.triu(np.ones((n, n), dtype=bool)), off, off.T ^ 1)
        colors = np.where(np.eye(n, dtype=bool), diag[:, None], off)
        return np.unique(colors, return_inverse=True)[1].reshape(n, n)
    # orbitals of a random permutation group: coherent, so every check
    # passes; more generators until the rank keeps the loop tensor quick
    gens = [rng.permutation(n).tolist()]
    while (colors := schurian(gens, n).colors).max() >= 10:
        gens.append(rng.permutation(n).tolist())
    return permuted(colors, rng)


def test_scheme_facts_match_the_loop_version_on_random_colorings():
    rng = np.random.default_rng(2026)
    outcomes = Counter()
    for _ in range(5000):
        matrix = random_coloring(rng)
        expected = scheme_facts_by_loops(matrix)
        assert package_facts(matrix) == expected, matrix.tolist()
        facts, failure = expected
        if failure is None:
            failure = facts["tensor"] if isinstance(facts["tensor"], tuple) else ("pass",)
        kinds = ("missing", "diagonal pair", "transpose", "intersection", "pass")
        outcomes[next(k for k in kinds if k in failure[0])] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 100, outcomes


def test_canonical_relabel_discrete2():
    # any labeling of the 4 singleton relations lands on the same canonical form
    s = from_color_matrix([[3, 0], [1, 2]])
    assert s.colors.tolist() == [[0, 2], [3, 1]]
    assert s.rank == 4
    assert s.transpose_of == (0, 1, 3, 2)
    assert s.cells == ((0,), (1,))
    assert s.diagonal_colors == (0, 1)


def test_canonicalization_idempotent():
    for m in (RANK2_3, Z3_CIRCULANT, [[3, 0], [1, 2]]):
        s = from_color_matrix(m)
        again = from_color_matrix(s.colors)
        assert np.array_equal(again.colors, s.colors)


def test_single_point():
    s = from_color_matrix([[0]])
    assert s.rank == 1
    assert s.tensor.tolist() == [[[1]]]
    assert s.relation_sizes == (1,)
    assert relation_stats(s).out_degrees == (1,)


def test_irregular_matrix_constructs_then_fails_regularity():
    s = from_color_matrix(IRREGULAR_3)
    assert [len(x) for x in s.cells] == [2, 1]
    assert s.cells == ((0, 1), (2,))
    # the off-diagonal relation spans two fibers, so no fiber is recorded
    assert None in s.fiber_of
    _, witness = brute_tensor_or_witness(s)
    assert witness is not None
    with pytest.raises(SchemeError) as err:
        verify_regularity(s)
    assert err.value.witness is not None
    i, j, k = err.value.witness[:3]
    assert brute_tensor_or_witness(s)[0] is None


def test_diagonal_closure_violation():
    with pytest.raises(SchemeError, match="diagonal pair"):
        from_color_matrix([[0, 0], [1, 0]])


def test_transpose_closure_violation():
    with pytest.raises(SchemeError, match="transpose of relation 1"):
        from_color_matrix([[0, 1, 1], [1, 0, 2], [2, 2, 0]])


def test_missing_color():
    with pytest.raises(SchemeError, match="color 1 missing"):
        from_color_matrix([[0, 2], [2, 0]])


def test_shape_and_sign_errors():
    with pytest.raises(SchemeError, match="square"):
        from_color_matrix([[0, 1]])
    with pytest.raises(SchemeError, match="non-negative"):
        from_color_matrix([[0, -1], [-1, 0]])
    with pytest.raises(SchemeError, match="empty"):
        from_color_matrix(np.zeros((0, 0), dtype=np.int64))


def test_stats_rank2_3():
    s = from_color_matrix(RANK2_3)
    st = relation_stats(s)
    assert s.relation_sizes == (3, 6)
    assert st.out_degrees == (1, 2)
    assert st.in_degrees == (1, 2)
    assert [src for src, _ in s.fiber_of] == [0, 0]


def test_stats_z3_circulant():
    s = from_color_matrix(Z3_CIRCULANT)
    st = relation_stats(s)
    assert s.relation_sizes == (3, 3, 3)
    assert st.out_degrees == (1, 1, 1)
    # homogeneous: out-degrees sum to n
    assert sum(st.out_degrees) == 3


def _degrees(scheme):
    stats = relation_stats(scheme)
    return stats.out_degrees, stats.in_degrees


def test_degrees_match_the_row_recount_on_the_corpus():
    for scheme_id, s in corpus():
        assert _degrees(s) == degrees_by_rows(s), scheme_id


def test_degrees_match_the_row_recount_on_random_colorings():
    rng = np.random.default_rng(77)
    regular = 0
    for _ in range(2000):
        try:
            s = from_color_matrix(random_coloring(rng))
            s.tensor
        except SchemeError:
            continue
        assert _degrees(s) == degrees_by_rows(s), s.colors.tolist()
        regular += 1
    assert regular >= 500


def test_relation_stats_reads_no_adjacency_matrix(monkeypatch):
    # the degrees come from the certified tensor alone
    s = build_scheme("dsum-r2-r3")
    s.tensor
    expected = degrees_by_rows(s)

    def refuse(scheme):
        raise AssertionError("adjacency matrices read")

    monkeypatch.setattr(Scheme, "adjacency", property(refuse))
    with pytest.raises(AssertionError):
        s.adjacency
    assert _degrees(s) == expected == ((1, 1, 1, 3, 2, 2), (1, 1, 1, 2, 3, 2))


def test_classify():
    f = classify(from_color_matrix(RANK2_3))
    assert (f.homogeneous, f.commutative, f.symmetric) == (True, True, True)
    f = classify(from_color_matrix(Z3_CIRCULANT))
    assert (f.homogeneous, f.commutative, f.symmetric) == (True, True, False)
    f = classify(from_color_matrix([[3, 0], [1, 2]]))
    assert (f.homogeneous, f.commutative, f.symmetric) == (False, False, False)


def test_flag_checks_raise_with_a_reason(monkeypatch):
    # thin S_3 is not commutative; claiming every relation symmetric must fail
    s3 = build_scheme("thin-s3")
    monkeypatch.setattr(s3, "transpose_of", tuple(range(s3.rank)))
    with pytest.raises(InternalCheckError, match="symmetric"):
        classify(s3)


def test_relabeling_points_preserves_tensor():
    # conjugating the coloring by a point permutation gives an isomorphic
    # scheme; canonical relation numbering may differ, but the tensor agrees
    # up to the induced relabeling
    base = from_color_matrix(Z3_CIRCULANT)
    rng = np.random.default_rng(3)
    for _ in range(4):
        perm = rng.permutation(base.size)
        shuffled = base.colors[np.ix_(perm, perm)]
        other = from_color_matrix(shuffled)
        # induced relation map: follow one witness pair per relation
        mapping = {}
        for rel in range(base.rank):
            u, v = np.argwhere(shuffled == rel)[0]
            mapping[rel] = int(other.colors[u, v])
        for i in range(base.rank):
            for j in range(base.rank):
                for k in range(base.rank):
                    assert (
                        base.tensor[i, j, k]
                        == other.tensor[mapping[i], mapping[j], mapping[k]]
                    )


def test_scheme_equality_and_hash():
    a = from_color_matrix(RANK2_3)
    b = from_color_matrix(RANK2_3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != from_color_matrix(Z3_CIRCULANT)


def test_colors_are_read_only():
    s = from_color_matrix(RANK2_3)
    with pytest.raises(ValueError):
        s.colors[0, 0] = 5
    # every array a Scheme hands out is shared, by ModularAlgebra across
    # primes too, so none may be written
    s = build_scheme("thin-s3")
    arrays = [s.colors, s.first_pair, s.point_cell, s.adjacency, s.tensor]
    for a in arrays + [*s.characters, s.commutator_rows]:
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 5


def test_commutator_rows_are_the_distinct_nonzero_rows():
    # in first-occurrence order among the rows (i, k) of left - right
    schemes = list(corpus()) + list(workload_schemes("high-rank", 0))
    for scheme_id, scheme in schemes:
        left, right = regular_matrices(scheme.tensor)
        rows = (left - right).reshape(-1, scheme.rank).tolist()
        expected = list(dict.fromkeys(tuple(v) for v in rows if any(v)))
        got = scheme.commutator_rows
        assert got.shape == (len(expected), scheme.rank), scheme_id
        assert list(map(tuple, got.tolist())) == expected, scheme_id
