"""Standard trace form: Gram matrix, discriminant, size products.

Oracle: the trace form is literally (x, y) -> trace(x @ y) on the point
space, so we recompute Gram entries from actual matrix products, and the
determinant with sympy's exact det."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

import cellalg
from cellalg import discriminant
from cellalg.discriminant import (
    cell_character,
    discriminant_standard,
    gram_standard,
    product_cell_sizes,
    product_relation_sizes,
    regular_character,
    standard_character,
    transpose_pair_count,
)
from cellalg.generators import (
    cyclic_table,
    direct_sum,
    discrete,
    rank2,
    symmetric_table,
    thin_group_scheme,
)
from cellalg.linalg import regular_matrices
from cellalg.scheme import InternalCheckError
from reference import cell_traces_by_indicators, corpus


def gram_by_matrix_traces(scheme):
    adj = scheme.adjacency
    r = scheme.rank
    return [[int(np.trace(adj[i] @ adj[j])) for j in range(r)] for i in range(r)]


def test_standard_character_frozen():
    assert standard_character(rank2(3)).tolist() == [3, 0]
    d = direct_sum(rank2(2), rank2(3))
    assert standard_character(d).tolist() == [2, 3, 0, 0, 0, 0]


def test_characters_are_traces_of_explicit_matrices():
    cases = [
        *corpus(),
        ("thin-s4", thin_group_scheme(symmetric_table(4))),
        ("discrete-6", discrete(6)),
        ("thin-z30", thin_group_scheme(cyclic_table(30))),
    ]
    for scheme_id, scheme in cases:
        c = scheme.tensor
        for chi, mats in (
            (standard_character(scheme), scheme.adjacency),
            (regular_character(c), regular_matrices(c)[0]),
        ):
            assert chi.dtype == np.int64, scheme_id
            assert chi.tolist() == [int(np.trace(m)) for m in mats], scheme_id
        cell = cell_character(scheme)
        assert cell.dtype == np.int64, scheme_id
        assert np.array_equal(cell, cell_traces_by_indicators(scheme)), scheme_id


def test_gram_rank2_3():
    g = gram_standard(rank2(3))
    assert g.tolist() == [[3, 0], [0, 6]]


def test_gram_discrete_2():
    g = gram_standard(discrete(2))
    assert g.tolist() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_gram_thin_z2():
    g = gram_standard(thin_group_scheme(cyclic_table(2)))
    assert g.tolist() == [[2, 0], [0, 2]]


def test_discriminant_frozen_values():
    assert discriminant_standard(rank2(3)) == (18, 1)
    assert discriminant_standard(discrete(2)) == (-1, -1)
    assert discriminant_standard(thin_group_scheme(cyclic_table(3))) == (-27, -1)
    assert discriminant_standard(discrete(1)) == (1, 1)


def test_size_products_frozen():
    assert product_relation_sizes(rank2(3)) == 18
    assert product_cell_sizes(rank2(3)) == 3
    assert product_relation_sizes(discrete(2)) == 1
    assert product_cell_sizes(discrete(2)) == 1
    d = direct_sum(rank2(2), rank2(3))
    assert product_relation_sizes(d) == 2592
    assert product_cell_sizes(d) == 6


def test_transpose_pair_count():
    assert transpose_pair_count(rank2(3)) == 0
    assert transpose_pair_count(discrete(2)) == 1
    assert transpose_pair_count(thin_group_scheme(cyclic_table(3))) == 1
    assert transpose_pair_count(discrete(3)) == 3


@pytest.mark.parametrize(
    "sid", ["rank2-05", "discrete-3", "thin-z06", "thin-s3", "hamming-2-2",
            "johnson-4-2", "dsum-r2-r3", "dsum-r2-r2-r3", "schurian-swap-3"]
)
def test_gram_matches_matrix_traces(sid):
    scheme = dict(corpus())[sid]
    g = gram_standard(scheme)
    assert g.tolist() == gram_by_matrix_traces(scheme)


def test_gram_matches_matrix_traces_past_corpus():
    for scheme in (thin_group_scheme(symmetric_table(4)), discrete(6),
                   thin_group_scheme(cyclic_table(30))):
        g = gram_standard(scheme)
        assert g.tolist() == gram_by_matrix_traces(scheme)


@pytest.mark.parametrize(
    "sid", ["rank2-04", "discrete-3", "thin-z05", "thin-s3", "johnson-4-2",
            "dsum-d2-r4"]
)
def test_discriminant_matches_sympy_det(sid):
    scheme = dict(corpus())[sid]
    det, sign = discriminant_standard(scheme)
    oracle = sympy.Matrix(gram_by_matrix_traces(scheme)).det()
    assert det == int(oracle)
    assert sign == (1 if oracle > 0 else -1)
    assert abs(det) == product_relation_sizes(scheme)


def test_failed_checks_raise_with_a_reason(monkeypatch):
    monkeypatch.setattr(discriminant, "det_fraction_free", lambda rows: 0)
    with pytest.raises(InternalCheckError, match="product of relation sizes"):
        discriminant_standard(rank2(3))
    monkeypatch.setattr(
        discriminant, "standard_character", lambda scheme: np.ones(scheme.rank, dtype=np.int64)
    )
    with pytest.raises(InternalCheckError, match="closed form"):
        gram_standard(rank2(3))


def test_closed_form_check_raises_under_python_O():
    script = (
        "from cellalg import discriminant\n"
        "from cellalg.generators import rank2\n"
        "assert False, 'asserts run'\n"
        "discriminant.det_fraction_free = lambda rows: 0\n"
        "try:\n"
        "    discriminant.discriminant_standard(rank2(3))\n"
        "except discriminant.InternalCheckError as exc:\n"
        "    print('raised:', exc)\n"
    )
    paths = [str(Path(cellalg.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: discriminant 0 is not 1 times")
