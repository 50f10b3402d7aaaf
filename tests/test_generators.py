"""Scheme families and the corpus registry."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from cellalg import generators
from cellalg.generators import (
    build_scheme,
    check_group_table,
    corpus_ids,
    cyclic_table,
    dihedral_table,
    direct_sum,
    discrete,
    from_spec,
    hamming,
    johnson,
    product_table,
    quaternion_table,
    rank2,
    schurian,
    symmetric_table,
    thin_group_scheme,
)
from cellalg.scheme import SchemeError
from reference import corpus, group_table_error, product_table_by_loops

# latin square with identity and two-sided inverses that is not associative
NON_GROUP_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 4, 2, 3],
    [2, 3, 0, 4, 1],
    [3, 4, 1, 0, 2],
    [4, 2, 3, 1, 0],
]


def test_rank2_and_discrete_shapes():
    s = rank2(3)
    assert s.colors.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert discrete(2).colors.tolist() == [[0, 2], [3, 1]]
    assert rank2(1) == discrete(1)
    assert discrete(3).rank == 9


def test_group_tables_are_groups():
    for t in (
        cyclic_table(1),
        cyclic_table(7),
        symmetric_table(3),
        dihedral_table(4),
        quaternion_table(),
        product_table(cyclic_table(2), cyclic_table(4)),
    ):
        check_group_table(t)


def test_quaternion_and_dihedral_are_not_abelian():
    for t in (quaternion_table(), dihedral_table(4)):
        assert not np.array_equal(t, np.asarray(t).T)
        assert np.asarray(t).shape == (8, 8)


def test_bad_group_tables():
    with pytest.raises(SchemeError, match="identity"):
        check_group_table([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(SchemeError, match="inverse"):
        check_group_table([[0, 1, 2], [1, 2, 1], [2, 1, 0]])
    with pytest.raises(SchemeError, match="associative"):
        check_group_table(NON_GROUP_LOOP)
    with pytest.raises(SchemeError, match="entries"):
        check_group_table([[0, 5], [5, 0]])


def _table_error(t):
    try:
        check_group_table(t)
    except SchemeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(6))
def test_group_table_check_matches_loops(seed):
    # relabelled groups, the loop, and perturbed copies that break one axiom
    # at a place the loops find first
    rng = np.random.default_rng(seed)
    base = [cyclic_table(6), symmetric_table(3), dihedral_table(4),
            quaternion_table(), np.asarray(NON_GROUP_LOOP)][seed % 5]
    n = len(base)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    tables = [perm[np.asarray(base)[np.ix_(inv, inv)]]]
    for _ in range(20):
        t = tables[0].copy()
        t[rng.integers(n), rng.integers(n)] = rng.integers(n)
        tables.append(t)
    tables.append(rng.integers(n, size=(n, n)))
    for t in tables:
        assert _table_error(t) == group_table_error(t.tolist())


def test_thin_cyclic():
    s = thin_group_scheme(cyclic_table(2))
    assert s.colors.tolist() == [[0, 1], [1, 0]]
    s3 = thin_group_scheme(cyclic_table(3))
    assert s3.colors.tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert s3.transpose_of == (0, 2, 1)
    # every relation of a thin scheme is a permutation: all degrees 1
    assert s3.stats.out_degrees == (1, 1, 1)


def test_thin_s3_flags():
    s = thin_group_scheme(symmetric_table(3))
    assert s.size == 6
    assert s.rank == 6
    f = s.flags
    assert f.homogeneous and not f.commutative and not f.symmetric
    assert s.stats.sizes == (6,) * 6


def test_schurian_two_transitive_is_rank2():
    s = schurian([[1, 0, 2], [1, 2, 0]], 3)  # generates S_3
    assert s == rank2(3)


def test_schurian_no_generators_is_discrete():
    assert schurian([], 2) == discrete(2)


def test_schurian_single_swap_matches_direct_sum():
    s = schurian([[1, 0, 2]], 3)
    assert s.rank == 5
    assert s.cells == ((0, 1), (2,))
    assert s.colors.tolist() == [[0, 2, 3], [2, 0, 3], [4, 4, 1]]
    assert s == direct_sum(rank2(2), discrete(1))


def test_schurian_colors_are_invariant_under_generators():
    gens = [[1, 2, 3, 0], [0, 3, 2, 1]]
    s = schurian(gens, 4)
    for g in gens:
        for u in range(4):
            for v in range(4):
                assert s.colors[g[u], g[v]] == s.colors[u, v]


def test_schurian_rejects_bad_permutation():
    with pytest.raises(SchemeError, match="permutation"):
        schurian([[0, 0, 1]], 3)


def test_hamming_2_2():
    s = hamming(2, 2)
    assert s.size == 4
    assert s.rank == 3
    assert s.stats.out_degrees == (1, 2, 1)
    assert s.flags.symmetric


def test_hamming_3_2_and_2_3():
    s = hamming(3, 2)
    assert (s.size, s.rank) == (8, 4)
    assert s.stats.out_degrees == (1, 3, 3, 1)
    t = hamming(2, 3)
    assert (t.size, t.rank) == (9, 3)
    assert t.stats.out_degrees == (1, 4, 4)


def test_johnson():
    s = johnson(4, 2)
    assert (s.size, s.rank) == (6, 3)
    assert s.flags.symmetric
    t = johnson(5, 2)
    assert (t.size, t.rank) == (10, 3)
    assert t.stats.out_degrees == (1, 6, 3)


def test_family_bounds():
    for bad in (lambda: rank2(0), lambda: discrete(0), lambda: hamming(0, 2),
                lambda: hamming(1, 1), lambda: johnson(3, 3), lambda: hamming(13, 2),
                lambda: symmetric_table(0), lambda: symmetric_table(-2)):
        with pytest.raises(SchemeError):
            bad()


def test_sizes_capped_before_allocating(monkeypatch):
    for name in ("from_color_matrix", "permutations", "product"):
        monkeypatch.setattr(generators, name, None)
    for big in (lambda: rank2(4097), lambda: discrete(4097), lambda: hamming(13, 2),
                lambda: cyclic_table(4097), lambda: dihedral_table(2049),
                lambda: symmetric_table(7), lambda: symmetric_table(8)):
        with pytest.raises(SchemeError, match="too large"):
            big()


def test_product_table_matches_loops():
    tables = [cyclic_table(1), cyclic_table(3), symmetric_table(3), quaternion_table()]
    for a in tables:
        for b in tables:
            assert np.array_equal(product_table(a, b), product_table_by_loops(a, b))


def test_product_sum_and_schurian_sizes_capped_before_allocating(monkeypatch):
    monkeypatch.setattr(generators, "np", None)
    big = SimpleNamespace(size=generators.MAX_POINTS)
    for oversized in (lambda: product_table(range(64), range(65)),
                      lambda: direct_sum(big, SimpleNamespace(size=1)),
                      lambda: schurian([], generators.MAX_POINTS + 1)):
        with pytest.raises(SchemeError, match="too large"):
            oversized()


def test_size_cap_is_inclusive():
    generators._check_size("table", generators.MAX_POINTS)
    assert symmetric_table(6).shape == (720, 720)  # 6! = 720, 7! = 5040


def test_johnson_size_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(generators, "combinations", None)
    with pytest.raises(SchemeError, match="too large"):
        johnson(40, 20)


def test_direct_sum_small():
    s = direct_sum(rank2(2), rank2(3))
    assert s.size == 5
    assert s.rank == 6
    assert tuple(len(x) for x in s.cells) == (2, 3)
    assert s.stats.sizes == (2, 3, 2, 6, 6, 6)
    assert not s.flags.homogeneous
    assert direct_sum(discrete(1), discrete(1)) == discrete(2)


def test_direct_sum_with_inhomogeneous_summand():
    inner = direct_sum(rank2(2), rank2(3))
    s = direct_sum(rank2(2), inner)
    # cross relations split per cell pair, otherwise regularity would fail
    assert s.rank == 2 + 6 + 2 * 2
    assert tuple(len(x) for x in s.cells) == (2, 2, 3)
    s.tensor  # certifies


def test_direct_sum_with_inhomogeneous_left_summand():
    s = direct_sum(direct_sum(rank2(2), rank2(2)), rank2(2))
    assert tuple(len(x) for x in s.cells) == (2, 2, 2)
    s.tensor


def test_corpus_registry():
    ids = corpus_ids()
    assert len(ids) >= 25
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    entries = corpus()
    assert [sid for sid, _ in entries] == ids
    assert build_scheme("rank2-03") == rank2(3)
    with pytest.raises(KeyError):
        build_scheme("nope")
    with pytest.raises(ValueError):
        from_spec("")
    # at least 5 inhomogeneous direct sums
    assert sum(1 for sid, s in entries if sid.startswith("dsum-")) >= 5
    for sid, s in entries:
        if sid.startswith("dsum-"):
            assert not s.flags.homogeneous


def test_corpus_schemes_are_regular():
    for sid, s in corpus():
        s.tensor  # raises on any regularity failure
        # row sums of out-degrees per fiber were asserted in stats
        st = s.stats
        if s.flags.homogeneous:
            assert sum(st.out_degrees) == s.size


def test_corpus_tensor_degree_identities():
    # c[i][i^t][diag(source)] = out-degree, c[i^t][i][diag(target)] = in-degree
    for sid, s in corpus():
        c = s.tensor
        st = s.stats
        for rel in range(s.rank):
            it = s.transpose_of[rel]
            src, tgt = st.source_cells[rel], st.target_cells[rel]
            assert c[rel, it, s.diagonal_colors[src]] == st.out_degrees[rel]
            assert c[it, rel, s.diagonal_colors[tgt]] == st.in_degrees[rel]


# sha256 over (id, shape, colors) of every corpus scheme: a change to a family
# or to a corpus spec changes the corpus the reports are made from
CORPUS_COLORS_SHA256 = "b2a6acdb78664857e516d2e244fa8128f660edd21433f046e57f64309ecce690"


def test_corpus_colors_are_pinned():
    digest = hashlib.sha256()
    for sid, s in corpus():
        digest.update(f"{sid}:{s.colors.shape}:".encode())
        digest.update(s.colors.tobytes())
    assert len(corpus()) == 62
    assert digest.hexdigest() == CORPUS_COLORS_SHA256
