"""Radical of the adjacency algebra mod p: chain method vs exhaustive oracle.

Group-algebra expectations use two classical facts: for abelian G the
radical of F_p[G] has dimension |G| minus the p-free part of |G|, and for
a p-group the algebra is local so the radical is the augmentation ideal.
"""

import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import (
    cell_traces_by_indicators,
    corpus,
    ideal_is_nilpotent_by_einsum,
    nilpotent_by_squaring,
    radical_chain_all_steps,
    radical_oracle_by_ideals,
    workload_schemes,
)

import cellalg
from cellalg import harness, radical
from cellalg.discriminant import cell_character
from cellalg.generators import (
    build_scheme,
    cyclic_table,
    dihedral_table,
    direct_sum,
    discrete,
    hamming,
    johnson,
    product_table,
    quaternion_table,
    rank2,
    schurian,
    symmetric_table,
    thin_group_scheme,
)
from cellalg.linalg import (
    charpoly_mod_p,
    det_fraction_free,
    in_row_space_mod_p,
    kernel_mod_p,
    prime_factors,
    primes_upto,
    regular_matrices,
)
from cellalg.radical import (
    ORACLE_BATCH_ENTRIES,
    ORACLE_BUDGET,
    BudgetExceeded,
    InternalCheckError,
    ModularAlgebra,
    _frobenius_powers,
    _ideal_is_nilpotent,
    _trace_conditions,
    central_nilpotent_witness,
    modular_algebra,
    radical_chain,
    radical_oracle,
)
from cellalg.scheme import classify, from_color_matrix

# p^r at most this many elements in the tests that enumerate the algebra
SMALL = 4096


def witness_matrix(scheme, vec, p):
    return np.einsum("r,rij->ij", vec % p, scheme.adjacency) % p


def block_ones(scheme, cell_idx):
    out = np.zeros((scheme.size, scheme.size), dtype=np.int64)
    pts = list(scheme.cells[cell_idx])
    out[np.ix_(pts, pts)] = 1
    return out


@pytest.mark.parametrize("p", [1, 4, 6, 9, 15])
def test_modular_algebra_rejects_composite(p):
    with pytest.raises(ValueError):
        modular_algebra(rank2(3), p)


def test_thin_z2_radical_basis():
    alg = modular_algebra(build_scheme("thin-z02"), 2)
    res = radical_chain(alg)
    assert res.dim == 1
    assert res.basis.tolist() == [[1, 1]]


def test_rank2_3_radical():
    scheme = rank2(3)
    over3 = radical_chain(modular_algebra(scheme, 3))
    assert over3.dim == 1
    # the all-ones matrix I + A squares to 3J = 0 mod 3
    assert over3.basis.tolist() == [[1, 1]]
    assert radical_chain(modular_algebra(scheme, 2)).dim == 0


ABELIAN_TABLES = {
    "z2": cyclic_table(2),
    "z4": cyclic_table(4),
    "z6": cyclic_table(6),
    "z8": cyclic_table(8),
    "z9": cyclic_table(9),
    "z12": cyclic_table(12),
    "z2x2": product_table(cyclic_table(2), cyclic_table(2)),
    "z2x4": product_table(cyclic_table(2), cyclic_table(4)),
}


@pytest.mark.parametrize("name", sorted(ABELIAN_TABLES))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_abelian_group_algebra_radical_dim(name, p):
    table = ABELIAN_TABLES[name]
    n = len(table)
    free = n
    while free % p == 0:
        free //= p
    scheme = thin_group_scheme(table)
    assert radical_chain(modular_algebra(scheme, p)).dim == n - free


@pytest.mark.parametrize("table", [dihedral_table(4), quaternion_table()])
def test_2_group_algebra_is_local_mod_2(table):
    # rad is the augmentation ideal, codimension 1
    scheme = thin_group_scheme(table)
    assert radical_chain(modular_algebra(scheme, 2)).dim == len(table) - 1


@pytest.mark.parametrize(
    "p,expected", [(2, 1), (3, 4), (5, 0), (7, 0)]
)
def test_s3_group_algebra_radical_dim(p, expected):
    alg = modular_algebra(build_scheme("thin-s3"), p)
    assert radical_chain(alg).dim == expected


@pytest.mark.parametrize(
    "name,p,expected",
    [
        # abelian: |G| minus the p-free part of |G|
        ("z30", 2, 15), ("z30", 3, 20), ("z30", 5, 24),
        # S_4: simple modules of dimensions 1, 2 over F_2 and 1, 1, 3, 3 over F_3
        ("s4", 2, 24 - 1 - 4), ("s4", 3, 24 - 20),
    ],
)
def test_larger_group_algebra_radical_dim(name, p, expected):
    table = {"z30": cyclic_table(30), "s4": symmetric_table(4)}[name]
    assert radical_chain(modular_algebra(thin_group_scheme(table), p)).dim == expected


@pytest.mark.parametrize("name", ["discrete-2", "discrete-3", "discrete-4"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_full_matrix_algebra_semisimple(name, p):
    assert radical_chain(modular_algebra(build_scheme(name), p)).dim == 0


ORACLE_CASES = [
    ("thin-z02", 2), ("thin-z02", 3), ("thin-z04", 2), ("thin-z06", 2),
    ("thin-z06", 3), ("thin-z08", 2), ("thin-z12", 2), ("thin-z2x2", 2),
    ("thin-q8", 2), ("thin-s3", 2), ("thin-s3", 3), ("thin-s3", 5),
    ("rank2-03", 2), ("rank2-03", 3), ("rank2-04", 2), ("rank2-05", 5),
    ("discrete-2", 2), ("discrete-2", 3), ("discrete-2", 5),
    ("discrete-3", 2), ("discrete-3", 3), ("discrete-4", 2),
    ("hamming-2-2", 2), ("hamming-2-2", 3), ("hamming-3-2", 2),
    ("johnson-4-2", 2), ("johnson-5-2", 2),
    ("dsum-r2-r2", 2), ("dsum-r2-r3", 2), ("dsum-r2-r3", 3),
    ("dsum-r2-r2-r3", 2),
    ("schurian-swap-3", 2), ("schurian-dihedral-4", 2),
]


@pytest.mark.parametrize("scheme_id,p", ORACLE_CASES)
def test_chain_matches_oracle(scheme_id, p):
    alg = modular_algebra(build_scheme(scheme_id), p)
    chain = radical_chain(alg)
    oracle = radical_oracle(alg)
    assert chain.dim == oracle.dim
    assert np.array_equal(chain.basis, oracle.basis)


def _benchmark_schemes():
    """Corpus, then the large-n and high-rank schemes in their seed-0
    labelling, then those schemes again with their points relabelled by one
    permutation each, drawn from a fixed seed."""
    yield from corpus()
    extra = [
        ("rank2-96", rank2(96)), ("hamming-3-3", hamming(3, 3)),
        ("johnson-7-3", johnson(7, 3)),
        ("thin-s4", thin_group_scheme(symmetric_table(4))),
        ("discrete-6", discrete(6)),
    ]
    extra += [(f"thin-z{n}", thin_group_scheme(cyclic_table(n))) for n in (18, 20, 30)]
    yield from extra
    rng = np.random.default_rng(20)
    for scheme_id, scheme in extra:
        perm = rng.permutation(scheme.size)
        yield f"{scheme_id}-relabelled", from_color_matrix(scheme.colors[np.ix_(perm, perm)])


def test_chain_equals_the_all_steps_chain():
    # stopping at the first nilpotent subspace, reading the products from
    # the structure constants and taking one charpoly per distinct product
    # leave the basis as it was; the reference forms the module-matrix
    # product of every ordered pair
    checked = 0
    for scheme_id, scheme in _benchmark_schemes():
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            expected = radical_chain_all_steps(alg)
            assert np.array_equal(radical_chain(alg).basis, expected), (scheme_id, p)
            checked += 1
    assert checked == 1170


@pytest.mark.parametrize(
    "table,p,dim,batches",
    [
        pytest.param(cyclic_table(30), 2, 15, [(2, 30)], id="2-15"),
        pytest.param(cyclic_table(30), 5, 24, [(5, 30)], id="5-24"),
        pytest.param(symmetric_table(4), 2, 19, [(2, 24), (4, 24), (8, 24)], id="s4-2-19"),
    ],
)
def test_chain_stops_at_the_first_nilpotent_subspace(monkeypatch, table, p, dim, batches):
    # thin Z_30 at p = 2 has 4 charpoly steps and at p = 5 has 2; the basis
    # after the first of them already generates a nilpotent ideal.  Thin S_4
    # at p = 2 stops after 3 of its 4.  The products of group elements are
    # the |G| group elements, so the first step takes |G| charpolys, not one
    # per unordered pair (465 for Z_30); thin S_4's later bases have 24
    # distinct products too
    seen = []

    def counting(mats, q, terms):
        seen.append((terms, len(mats)))
        return charpoly_mod_p(mats, q, terms)

    monkeypatch.setattr(radical, "charpoly_mod_p", counting)
    alg = modular_algebra(thin_group_scheme(table), p)
    assert radical_chain(alg).dim == dim
    assert seen == batches


def test_module_is_the_smaller_faithful_one():
    alg = modular_algebra(rank2(96), 2)  # r < n: left-regular module
    assert alg.mats.shape == (2, 2, 2) and alg.d == 2
    assert np.array_equal(alg.mats, regular_matrices(alg.c)[0] % 2)
    for name in ("thin-z09", "discrete-3"):  # r = n and r > n: point module
        scheme = build_scheme(name)
        alg = modular_algebra(scheme, 3)
        assert alg.mats.shape == (scheme.rank, scheme.size, scheme.size)
        assert alg.d == scheme.size
        assert np.array_equal(alg.mats, scheme.adjacency % 3)
    assert modular_algebra(build_scheme("thin-z09"), 3).mats.shape == (9, 9, 9)


def _corpus_cases(budget):
    """(id, scheme, p) for every corpus scheme and prime with p^r <= budget."""
    for scheme_id, scheme in corpus():
        for p in primes_upto(int(budget ** (1 / scheme.rank)) + 1):
            if p**scheme.rank <= budget:
                yield scheme_id, scheme, p


def _is_commutative(scheme):
    c = scheme.tensor
    return np.array_equal(c, c.transpose(1, 0, 2))


def test_commutativity_read_from_the_commutator_rows():
    # dropping zero and repeated commutator rows keeps both tests: the
    # full tensor against its transpose, over Q and mod each tested prime
    for scheme_id, scheme in list(corpus()) + list(workload_schemes("high-rank", 0)):
        assert classify(scheme).commutative == _is_commutative(scheme), scheme_id
        for p in harness.tested_primes(scheme):
            c = scheme.tensor % p
            expected = np.array_equal(c, c.transpose(1, 0, 2))
            assert modular_algebra(scheme, p).commutative == expected, (scheme_id, p)


def test_commutative_oracle_members_generate_nilpotent_ideals(monkeypatch):
    # the commutative oracle keeps every nilpotent element without the
    # span-power test; that test must still accept each element it kept
    def no_span_test(alg, vec):
        raise AssertionError("span-power test run on a commutative algebra")

    checked = 0
    for scheme_id, scheme, p in _corpus_cases(SMALL):
        if not _is_commutative(scheme):
            continue
        alg = modular_algebra(scheme, p)
        with monkeypatch.context() as m:
            m.setattr(radical, "_ideal_is_nilpotent", no_span_test)
            basis = radical_oracle(alg).basis
        for coeffs in product(range(p), repeat=basis.shape[0]):
            member = (np.array(coeffs, dtype=np.int64) @ basis) % p
            assert _ideal_is_nilpotent(alg, member), (scheme_id, p)
        checked += 1
    assert checked >= 1000


def test_oracle_equals_reference_on_corpus():
    checked = 0
    for scheme_id, scheme, p in _corpus_cases(SMALL):
        alg = modular_algebra(scheme, p)
        expected = radical_oracle_by_ideals(alg)
        assert np.array_equal(radical_oracle(alg).basis, expected), (scheme_id, p)
        checked += 1
    assert checked >= 1000


def test_oracle_per_survivor_fallback_matches_chain(monkeypatch):
    # reject the one test on the survivors' span, so that every survivor
    # goes through its own span-power test
    def reject_span(alg, vecs):
        return vecs.ndim == 1 and _ideal_is_nilpotent(alg, vecs)

    checked = 0
    for scheme_id, scheme, p in _corpus_cases(ORACLE_BUDGET):
        if _is_commutative(scheme):
            continue
        alg = modular_algebra(scheme, p)
        chain = radical_chain(alg)
        with monkeypatch.context() as m:
            m.setattr(radical, "_ideal_is_nilpotent", reject_span)
            oracle = radical_oracle(alg)
        assert np.array_equal(oracle.basis, chain.basis), (scheme_id, p)
        checked += 1
    assert checked >= 43


def test_noncommutative_oracle_runs_one_span_power_test(monkeypatch):
    # the x A_j nilpotency tests leave only radical elements, so the one
    # span-power test on the survivors passes and no run reaches the
    # per-survivor fallback
    calls = []

    def counting(alg, vecs):
        calls.append(vecs.ndim)
        return _ideal_is_nilpotent(alg, vecs)

    monkeypatch.setattr(radical, "_ideal_is_nilpotent", counting)
    checked = 0
    for scheme_id, scheme, p in _corpus_cases(ORACLE_BUDGET):
        if _is_commutative(scheme):
            continue
        calls.clear()
        radical_oracle(modular_algebra(scheme, p))
        assert calls == [2], (scheme_id, p)
        checked += 1
    assert checked == 43


def test_cell_traces_equal_the_indicator_reference_on_corpus():
    for scheme_id, scheme in corpus():
        expected = cell_traces_by_indicators(scheme)
        assert np.array_equal(cell_character(scheme), expected), scheme_id
        traces = modular_algebra(scheme, 2).cell_traces
        assert np.array_equal(traces, expected % 2), scheme_id


@st.composite
def schurian_schemes(draw):
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)), max_size=2))
    return schurian(gens, n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(schurian_schemes())
def test_cell_traces_equal_the_indicator_reference_on_random_schurian_schemes(scheme):
    expected = cell_traces_by_indicators(scheme)
    assert np.array_equal(cell_character(scheme), expected)
    assert np.array_equal(modular_algebra(scheme, 2).cell_traces, expected % 2)


def test_relation_without_a_fiber_raises():
    scheme = build_scheme("dsum-r2-r3")
    scheme.fiber_of = (None,) + scheme.fiber_of[1:]
    with pytest.raises(InternalCheckError, match="relation 0 lies in no fiber"):
        modular_algebra(scheme, 2)


def _record_batches(monkeypatch):
    """Spy on the oracle's batch products, the matmul_mod calls whose left
    operand is radical_oracle's candidate coordinates `combos`; the list
    gets the candidates (rows) and the matrix entries (rows times d^2) of
    each batch."""
    batches = []
    combine = radical.matmul_mod

    def recording(a, b, p):
        out = combine(a, b, p)
        if sys._getframe(1).f_locals.get("combos") is a:
            batches.append((len(a), out.size))
        return out

    monkeypatch.setattr(radical, "matmul_mod", recording)
    return batches


def test_cell_trace_leaves_exactly_the_nilpotent_elements_of_thin_z09(monkeypatch):
    # p = 3 divides the module dimension 9, so every element has module
    # trace 0, and the point trace of e_X x e_X is 9 x_0 = 0; the cell
    # trace, the coefficient sum, leaves an 8-dimensional kernel: the
    # augmentation ideal, which is the radical of F_3[Z_9]; Z_9 is abelian,
    # so the oracle takes the Frobenius kernel and enumerates nothing
    alg = modular_algebra(build_scheme("thin-z09"), 3)
    assert not (np.einsum("rii->r", alg.mats) % 3).any()
    assert alg.cell_traces.tolist() == [1] * 9
    assert kernel_mod_p(_trace_conditions(alg), 3).shape[0] == 8
    batches = _record_batches(monkeypatch)
    assert radical_oracle(alg).dim == 8
    assert batches == []


def test_chain_step_0_builds_no_module_matrix(monkeypatch):
    # rank2(3) is semisimple mod 2 (F = 9): the trace-form kernel of step 0,
    # read from the character, is already the zero radical
    built = []
    build = ModularAlgebra.element_matrices

    def recording(alg, vecs):
        built.append(len(vecs))
        return build(alg, vecs)

    monkeypatch.setattr(ModularAlgebra, "element_matrices", recording)
    assert radical_chain(modular_algebra(rank2(3), 2)).dim == 0
    assert built == []


def _step_0_schemes():
    """The corpus, which the benchmark does not relabel, then the large-n
    and high-rank schemes at seeds 0 and 1, as the benchmark builds them."""
    yield from corpus()
    for seed in (0, 1):
        for workload in ("large-n", "high-rank"):
            yield from workload_schemes(workload, seed)


def test_step_0_rule_matches_the_elimination_it_replaces():
    # the integer Gram matrix G_ab = tr(M_a M_b) of the module matrices; its
    # kernel mod p, the elimination step 0 used to run at every prime, is
    # zero exactly when p misses det G, which ModularAlgebra holds up to sign
    checked = decided = 0
    for scheme_id, scheme in _step_0_schemes():
        if scheme.rank < scheme.size:
            mats = regular_matrices(scheme.tensor)[0]
        else:
            mats = scheme.adjacency
        gram = np.einsum("aij,bji->ab", mats, mats)
        det = det_fraction_free(gram)
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            assert abs(alg.gram_det) == abs(det), scheme_id
            empty = kernel_mod_p(gram % p, p).shape[0] == 0
            assert empty == (det % p != 0), (scheme_id, p)
            checked += 1
            decided += empty
    # the corpus once (930 rows, 850 decided), then per seed 45 large-n
    # rows (38 decided) and 75 high-rank rows (66 decided)
    assert (checked, decided) == (930 + 2 * 120, 850 + 2 * (38 + 66))


def test_chain_eliminates_only_where_p_divides_det_g(monkeypatch):
    # the 850 corpus rows whose step 0 the determinant decides make no
    # elimination; each of the other 80 makes at least one
    calls = []

    def counting(mat, q):
        calls.append(q)
        return kernel_mod_p(mat, q)

    monkeypatch.setattr(radical, "kernel_mod_p", counting)
    decided = eliminated = 0
    for scheme_id, scheme in corpus():
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            calls.clear()
            result = radical_chain(alg)
            if alg.gram_det % p:
                assert calls == [] and result.basis.shape == (0, scheme.rank)
                assert result.basis.dtype == np.int64
                decided += 1
            else:
                assert calls, (scheme_id, p)
                eliminated += 1
    assert (decided, eliminated) == (850, 80)


def test_modular_algebra_shares_the_arrays_reduction_leaves_alone():
    # thin Z_30's structure constants are 0/1, so every prime shares the
    # scheme's tensor and adjacency matrices; rank2(12) has c = 11 at one
    # position and acts on its left-regular module, so primes up to 11 hold
    # reduced copies and larger ones share the tensor
    scheme = thin_group_scheme(cyclic_table(30))
    for p in harness.tested_primes(scheme):
        alg = modular_algebra(scheme, p)
        assert alg.c is scheme.tensor and alg.mats is scheme.adjacency
        assert not alg.c.flags.writeable and not alg.mats.flags.writeable
    scheme = rank2(12)
    assert scheme.tensor.max() == 11
    for p in harness.tested_primes(scheme):
        alg = modular_algebra(scheme, p)
        assert np.shares_memory(alg.mats, alg.c)
        assert np.array_equal(alg.mats, regular_matrices(scheme.tensor % p)[0])
        if p > 11:
            assert alg.c is scheme.tensor
        else:
            assert not np.shares_memory(alg.c, scheme.tensor)
            assert np.array_equal(alg.c, scheme.tensor % p)


def test_module_traces_are_the_traces_of_the_module_matrices():
    # every (scheme, p) row of the corpus report; c @ traces is the step-0
    # matrix of traces tr(A_a A_b) on the module
    checked = 0
    for scheme_id, scheme in corpus():
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            assert np.array_equal(alg.traces, np.einsum("rii->r", alg.mats) % p)
            gram = np.einsum("aij,bji->ab", alg.mats, alg.mats) % p
            assert np.array_equal(alg.c @ alg.traces % p, gram), (scheme_id, p)
            checked += 1
    assert checked == 930


def test_oracle_batches_stay_within_the_entry_bound(monkeypatch):
    # every oracle run of the corpus report: the non-commutative ones
    # enumerate in batches, the commutative ones take the Frobenius kernel
    # and make none
    batches = _record_batches(monkeypatch)
    enumerated = direct = 0
    for scheme_id, scheme in corpus():
        for p in harness.tested_primes(scheme):
            if p**scheme.rank > ORACLE_BUDGET:
                continue
            alg = modular_algebra(scheme, p)
            start = len(batches)
            radical_oracle(alg)
            if _is_commutative(scheme):
                assert len(batches) == start, (scheme_id, p)
                direct += 1
                continue
            assert len(batches) > start, (scheme_id, p)
            entries = max(size for _, size in batches[start:])
            assert entries <= ORACLE_BATCH_ENTRIES, (scheme_id, p)
            enumerated += 1
    assert (enumerated, direct) == (43, 490)


def test_small_oracle_batches_give_the_same_bases(monkeypatch):
    # 64 entries leave one candidate per batch once d^2 > 64, so the oracle
    # runs through many batches
    expected = {
        (scheme_id, p): radical_oracle(modular_algebra(scheme, p)).basis
        for scheme_id, scheme, p in _corpus_cases(SMALL)
    }
    monkeypatch.setattr(radical, "ORACLE_BATCH_ENTRIES", 64)
    batches = _record_batches(monkeypatch)
    most_batches = 0
    for scheme_id, scheme, p in _corpus_cases(SMALL):
        alg = modular_algebra(scheme, p)
        start = len(batches)
        basis = radical_oracle(alg).basis
        assert np.array_equal(basis, expected[scheme_id, p]), (scheme_id, p)
        if len(batches) == start:  # the commutative Frobenius kernel
            continue
        entries = max(size for _, size in batches[start:])
        assert entries <= max(64, alg.d**2), (scheme_id, p)
        most_batches = max(most_batches, len(batches) - start)
    assert len(expected) >= 1000
    assert most_batches > 1000


def test_chain_radical_meets_the_trace_conditions():
    # every (scheme, p) row of the corpus report: the oracle works in the
    # kernel of these rows, so the radical must lie in it; the cell rows
    # are the point traces of e_X x e_X, here for one random x per row
    rng = np.random.default_rng(16)
    checked = 0
    for scheme_id, scheme in corpus():
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            rows = _trace_conditions(alg)
            assert not (rows @ radical_chain(alg).basis.T % p).any(), (scheme_id, p)
            x = rng.integers(0, p, scheme.rank)
            mat = np.einsum("r,rij->ij", x, scheme.adjacency)
            for k in scheme.diagonal_colors:
                e = scheme.adjacency[k]
                assert np.trace(e @ mat @ e) % p == rows[2 + k] @ x % p
            checked += 1
    assert checked == 930


def test_frobenius_powers_of_a_basis_give_every_power():
    # in a commutative algebra x -> x^e is F_p-linear: sum_k x_k A_k^e is
    # x^e, here formed by e - 1 plain products, for random x
    rng = np.random.default_rng(17)
    checked = 0
    for scheme_id, scheme in corpus():
        if not _is_commutative(scheme):
            continue
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            linear = _frobenius_powers(alg.mats, p, p)
            x = rng.integers(0, p, (3, alg.rank))
            mats = alg.element_matrices(x)
            power, e = mats, 1
            while e < alg.d:
                e *= p
            for _ in range(e - 1):
                power = power @ mats % p
            combined = np.einsum("br,rij->bij", x, linear) % p
            assert np.array_equal(combined, power), (scheme_id, p)
            checked += 1
    assert checked == 675


def test_frobenius_kernel_equals_the_chain_on_commutative_rows():
    # the commutative oracle on every commutative row of the corpus report,
    # those past the oracle budget among them, and thin Z_18, Z_20 and Z_30
    # at every tested prime
    extra = [(f"thin-z{n}", thin_group_scheme(cyclic_table(n))) for n in (18, 20, 30)]
    checked = past = 0
    for scheme_id, scheme in list(corpus()) + extra:
        if not _is_commutative(scheme):
            continue
        for p in harness.tested_primes(scheme):
            alg = modular_algebra(scheme, p)
            expected = radical_chain(alg).basis
            assert np.array_equal(radical_oracle(alg).basis, expected), (scheme_id, p)
            checked += 1
            past += p**scheme.rank > ORACLE_BUDGET
    assert (checked, past) == (720, 230)


def test_oracle_at_the_budget_edge_holds_bounded_memory():
    # thin Z_16 and thin D_8 (order 16) at p = 2 have exactly ORACLE_BUDGET
    # elements; built at once, their 16 x 16 int64 matrices alone would take
    # 128 MiB.  Z_16 is abelian, so the oracle takes the Frobenius kernel;
    # D_8 is not, and the oracle enumerates the 2^15 elements of its trace
    # kernel in batches
    for table in (cyclic_table(16), dihedral_table(8)):
        alg = modular_algebra(thin_group_scheme(table), 2)
        assert 2**alg.rank == ORACLE_BUDGET
        tracemalloc.start()
        try:
            oracle = radical_oracle(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(oracle.basis, radical_chain(alg).basis)
        assert peak < 32 << 20


def _jordan_block(d, eigenvalue):
    return eigenvalue * np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 9])
def test_nilpotent_mask_is_plain_squaring(d, p):
    rng = np.random.default_rng(100 * d + p)
    dense = rng.integers(0, p, (200, d, d))
    # strictly upper triangular, then relabelled: nilpotent, not triangular
    perm = rng.permutation(d)
    hidden = np.triu(rng.integers(0, p, (50, d, d)), k=1)[:, perm][:, :, perm]
    # zero, identity (all power traces d, zero mod p when p | d), Jordan
    # blocks with eigenvalues 0, 1 and p - 1
    special = np.array(
        [np.zeros((d, d), dtype=np.int64), np.eye(d, dtype=np.int64)]
        + [_jordan_block(d, e) % p for e in (0, 1, p - 1)]
    )
    mats = np.concatenate([dense, hidden, special])
    # the enumeration's squarings and the commutative branch's powers of p
    for base in (2, p):
        mask = ~_frobenius_powers(mats, p, base).any(axis=(1, 2))
        assert np.array_equal(mask, nilpotent_by_squaring(mats, p)), base
        assert mask[200:250].all()
        assert mask[-5:].tolist() == [True, False, True, False, False]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 9])
def test_frobenius_powers_to_base_2_only_square(monkeypatch, d, p):
    # base 2 gives x^(2^k) for the least 2^k >= d by k squarings and no
    # other product, whatever p is
    rng = np.random.default_rng(10 * d + p)
    mats = rng.integers(0, p, (20, d, d))
    expected, k = mats % p, 0
    while 2**k < d:
        expected = expected @ expected % p
        k += 1
    products = []
    combine = radical.matmul_mod

    def counting(a, b, q):
        products.append(a is b)
        return combine(a, b, q)

    monkeypatch.setattr(radical, "matmul_mod", counting)
    assert np.array_equal(_frobenius_powers(mats, p, 2), expected)
    assert products == [True] * k


@st.composite
def schurian_cases(draw):
    scheme = draw(schurian_schemes())
    primes = [p for p in (2, 3, 5) if p**scheme.rank <= SMALL]
    assume(primes)
    return scheme, draw(st.sampled_from(primes))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(schurian_cases())
def test_chain_matches_oracle_on_random_schurian_schemes(case):
    scheme, p = case
    alg = modular_algebra(scheme, p)
    assert alg.d == min(scheme.size, scheme.rank)
    chain = radical_chain(alg)
    oracle = radical_oracle(alg)
    assert np.array_equal(chain.basis, oracle.basis)


@st.composite
def schurian_stacks(draw):
    scheme, p = draw(schurian_cases())
    alg = modular_algebra(scheme, p)
    rad = radical_chain(alg).basis
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # radical members, and with them sometimes an arbitrary element
    count = draw(st.integers(1, 3))
    rows = [rng.integers(0, p, rad.shape[0]) @ rad % p for _ in range(count)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rng.integers(0, p, scheme.rank))
    return alg, np.array(rows, dtype=np.int64).reshape(-1, scheme.rank)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(schurian_stacks())
def test_stack_ideal_test_is_the_rowwise_test(case):
    alg, stack = case
    assert _ideal_is_nilpotent(alg, stack) == all(
        _ideal_is_nilpotent(alg, row) for row in stack
    )


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(schurian_stacks())
def test_ideal_test_equals_the_einsum_reference(case):
    alg, stack = case
    assert _ideal_is_nilpotent(alg, stack) == ideal_is_nilpotent_by_einsum(alg, stack)


NONCOMMUTATIVE_PARTS = {
    "thin-s3": lambda: thin_group_scheme(symmetric_table(3)),
    "thin-d4": lambda: thin_group_scheme(dihedral_table(4)),
    "thin-q8": lambda: thin_group_scheme(quaternion_table()),
    "discrete-2": lambda: discrete(2),
}


@st.composite
def noncommutative_regular_cases(draw):
    """A non-commutative scheme plus rank2(k), relabelled, with r < n, so
    that the chain acts on the left-regular module."""
    part = NONCOMMUTATIVE_PARTS[draw(st.sampled_from(sorted(NONCOMMUTATIVE_PARTS)))]()
    scheme = direct_sum(part, rank2(draw(st.integers(5, 9))))
    assume(scheme.rank < scheme.size)
    perm = draw(st.permutations(range(scheme.size)))
    scheme = from_color_matrix(scheme.colors[np.ix_(perm, perm)])
    primes = [p for p in (2, 3, 5) if p**scheme.rank <= ORACLE_BUDGET]
    return scheme, draw(st.sampled_from(primes))


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(noncommutative_regular_cases())
def test_chain_matches_oracle_on_the_noncommutative_regular_module(case):
    scheme, p = case
    assert not _is_commutative(scheme)
    alg = modular_algebra(scheme, p)
    assert alg.d == scheme.rank < scheme.size
    assert np.array_equal(radical_chain(alg).basis, radical_oracle(alg).basis)


def test_failed_checks_raise_with_a_reason(monkeypatch):
    monkeypatch.setattr(radical, "_ideal_is_nilpotent", lambda alg, vec: False)
    with pytest.raises(InternalCheckError, match="nilpotent ideal"):
        radical_chain(modular_algebra(build_scheme("thin-z02"), 2))
    # thin-s3 is not commutative; rejecting the survivors' span sends each
    # survivor to its own test, and keeping only the first two, 0 and some
    # v, gives {0, v}, which is not a subspace over F_3
    calls = []

    def accept_first_two(alg, vec):
        if vec.ndim == 2:
            return False
        calls.append(vec)
        return len(calls) <= 2

    monkeypatch.setattr(radical, "_ideal_is_nilpotent", accept_first_two)
    with pytest.raises(InternalCheckError, match="subspace"):
        radical_oracle(modular_algebra(build_scheme("thin-s3"), 3))
    monkeypatch.undo()

    lone_cell = SimpleNamespace(cells=[[0, 1]], rank=1, fiber_of=[None])
    with pytest.raises(InternalCheckError, match="is zero"):
        central_nilpotent_witness(lone_cell, 2)
    scheme = build_scheme("thin-z04")
    monkeypatch.setattr(radical, "multiply_mod", lambda x, y, c, p: np.ones(4))
    with pytest.raises(InternalCheckError, match="square to zero"):
        central_nilpotent_witness(scheme, 2)
    # a commutator row e_0 meets the witness J of thin Z_4 in its first
    # coefficient, 1; commutator_rows is a cached_property, which an entry
    # in the instance dict overrides
    monkeypatch.setitem(
        scheme.__dict__, "commutator_rows", np.eye(1, scheme.rank, dtype=np.int64)
    )
    with pytest.raises(InternalCheckError, match="not central"):
        central_nilpotent_witness(scheme, 2)


def test_failed_check_raises_under_python_O():
    script = (
        "from cellalg import radical\n"
        "from cellalg.generators import build_scheme\n"
        "assert False, 'asserts run'\n"
        "radical._ideal_is_nilpotent = lambda alg, vec: False\n"
        "try:\n"
        "    radical.radical_chain(radical.modular_algebra(build_scheme('thin-z02'), 2))\n"
        "except radical.InternalCheckError as exc:\n"
        "    print('raised:', exc)\n"
        "# the survivors' span is rejected, and of the single survivors only\n"
        "# the 0/1 vectors are kept: v without 2v, not a subspace over F_3\n"
        "radical._ideal_is_nilpotent = lambda alg, vec: vec.ndim == 1 and vec.max() <= 1\n"
        "try:\n"
        "    radical.radical_oracle(radical.modular_algebra(build_scheme('thin-s3'), 3))\n"
        "except radical.InternalCheckError as exc:\n"
        "    print('raised:', exc)\n"
    )
    paths = [str(Path(cellalg.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    chain, oracle = proc.stdout.splitlines()
    assert chain.startswith("raised: chain basis [[1, 1]] does not generate")
    assert oracle.startswith("raised: oracle kept") and oracle.endswith("of a subspace")


def test_oracle_budget():
    alg = modular_algebra(build_scheme("discrete-4"), 3)
    with pytest.raises(BudgetExceeded):
        radical_oracle(alg)  # 3^16 candidates
    # discrete-2 has rank 4: 13^4 fits ORACLE_BUDGET = 2^16, 17^4 does not
    assert radical_oracle(modular_algebra(build_scheme("discrete-2"), 13)).dim == 0
    with pytest.raises(BudgetExceeded, match="83521 exceeds budget 65536"):
        radical_oracle(modular_algebra(build_scheme("discrete-2"), 17))
    # a commutative algebra takes the Frobenius kernel, with no enumeration
    # budget: thin Z_12 at p = 3 has 3^12 > 2^16 elements
    alg = modular_algebra(build_scheme("thin-z12"), 3)
    assert 3**alg.rank > ORACLE_BUDGET
    chain = radical_chain(alg)
    assert chain.dim == 8
    assert np.array_equal(radical_oracle(alg).basis, chain.basis)
    # no enumeration, but int64 sums: thin Z_3 at 2^31 - 1 has 3 (p - 1)^2
    # >= 2^63
    with pytest.raises(BudgetExceeded, match=r"2\^63"):
        radical_oracle(modular_algebra(build_scheme("thin-z03"), 2**31 - 1))


@pytest.mark.parametrize(
    "name,p,expected_ss",
    [
        ("hamming-2-2", 2, False), ("hamming-2-2", 3, True),
        ("hamming-2-2", 5, True), ("hamming-2-2", 7, True),
        ("thin-z06", 2, False), ("thin-z06", 3, False),
        ("thin-z06", 5, True), ("thin-z06", 7, True),
    ],
)
def test_is_semisimple(name, p, expected_ss):
    assert (radical_chain(modular_algebra(build_scheme(name), p)).dim == 0) is expected_ss


def test_witness_absent_when_p_misses_every_cell():
    assert central_nilpotent_witness(rank2(3), 2) is None
    assert central_nilpotent_witness(rank2(5), 3) is None
    assert central_nilpotent_witness(build_scheme("discrete-3"), 2) is None
    assert central_nilpotent_witness(build_scheme("thin-s3"), 5) is None
    assert central_nilpotent_witness(build_scheme("hamming-2-2"), 3) is None


def test_witness_rejects_composite_modulus():
    with pytest.raises(ValueError):
        central_nilpotent_witness(rank2(4), 4)


def test_witness_rejects_a_huge_prime_at_once():
    # the bound comes before is_prime, whose trial division would run to
    # about 1.5e9 on this prime
    with pytest.raises(ValueError, match="too large"):
        central_nilpotent_witness(rank2(3), 2**61 - 1)


def test_witness_homogeneous_is_all_ones():
    for name, p in [("thin-z04", 2), ("thin-s3", 2), ("thin-s3", 3)]:
        scheme = build_scheme(name)
        vec = central_nilpotent_witness(scheme, p)
        ones = np.ones((scheme.size, scheme.size), dtype=np.int64)
        assert np.array_equal(witness_matrix(scheme, vec, p), ones)
    scheme = rank2(3)
    vec = central_nilpotent_witness(scheme, 3)
    assert np.array_equal(
        witness_matrix(scheme, vec, 3), np.ones((3, 3), dtype=np.int64)
    )


def test_witness_single_divisible_cell():
    scheme = build_scheme("dsum-r2-r3")  # cells of sizes 2 and 3
    vec2 = central_nilpotent_witness(scheme, 2)
    assert np.array_equal(witness_matrix(scheme, vec2, 2), block_ones(scheme, 0) % 2)
    vec3 = central_nilpotent_witness(scheme, 3)
    # coefficient on the size-3 block is |X0| = 2 mod 3
    assert np.array_equal(
        witness_matrix(scheme, vec3, 3), 2 * block_ones(scheme, 1) % 3
    )


def test_witness_every_cell_divisible():
    scheme = build_scheme("dsum-r2-r2")
    vec = central_nilpotent_witness(scheme, 2)
    expected = (block_ones(scheme, 0) + block_ones(scheme, 1)) % 2
    assert np.array_equal(witness_matrix(scheme, vec, 2), expected)


def test_witness_two_of_three_cells_divisible():
    # cells of sizes 2, 2, 3 and p = 2: the size-product coefficients all
    # vanish mod 2, so the p-adically scaled form has to take over
    scheme = build_scheme("dsum-r2-r2-r3")
    vec = central_nilpotent_witness(scheme, 2)
    sizes = [len(c) for c in scheme.cells]
    assert sorted(sizes) == [2, 2, 3]
    expected = np.zeros((scheme.size, scheme.size), dtype=np.int64)
    for idx, size in enumerate(sizes):
        if size % 2 == 0:
            expected += block_ones(scheme, idx)
    assert np.array_equal(witness_matrix(scheme, vec, 2), expected % 2)


def test_witness_lies_in_radical_across_corpus():
    checked = 0
    for _, scheme in corpus():
        prod_cells = 1
        for cell in scheme.cells:
            prod_cells *= len(cell)
        if prod_cells % 11:
            assert central_nilpotent_witness(scheme, 11) is None
        for p in prime_factors(prod_cells):
            vec = central_nilpotent_witness(scheme, p)
            assert vec is not None
            rad = radical_chain(modular_algebra(scheme, p))
            assert rad.dim > 0
            assert in_row_space_mod_p(vec, rad.basis, p)
            checked += 1
    assert checked >= 20
