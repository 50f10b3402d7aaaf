"""Center, block decomposition and Frame numbers.

The rounded block data is trusted only because it reproduces exact integer
identities; tests freeze known decompositions and check the identities
across the corpus."""

import math
from fractions import Fraction

import pytest
from reference import center_by_all_rows, corpus, multiply

from cellalg.generators import (
    cyclic_table,
    dihedral_table,
    direct_sum,
    discrete,
    hamming,
    quaternion_table,
    rank2,
    symmetric_table,
    thin_group_scheme,
)
from cellalg.wedderburn import (
    FrameNumberError,
    WedderburnData,
    center_basis,
    check_blocks,
    decompose,
    frame_number,
    regular_discriminant,
)


def test_center_equals_kernel_of_all_commutator_rows():
    schemes = [scheme for _, scheme in corpus()]
    schemes += [thin_group_scheme(symmetric_table(4)), discrete(6),
                thin_group_scheme(cyclic_table(30))]
    for scheme in schemes:
        assert center_basis(scheme) == center_by_all_rows(scheme)


def test_center_dimensions():
    assert len(center_basis(rank2(3))) == 2
    assert len(center_basis(discrete(2))) == 1
    assert len(center_basis(thin_group_scheme(symmetric_table(3)))) == 3
    assert len(center_basis(thin_group_scheme(quaternion_table()))) == 5


def test_center_of_full_matrix_algebra_is_identity():
    s = discrete(2)
    assert center_basis(s) == [[1, 1, 0, 0]]


def test_center_elements_commute():
    for s in (thin_group_scheme(symmetric_table(3)), direct_sum(rank2(2), rank2(3))):
        c = s.tensor
        for z in center_basis(s):
            for i in range(s.rank):
                e = [0] * s.rank
                e[i] = 1
                assert multiply(z, e, c) == multiply(e, z, c)


def test_decompose_frozen_blocks():
    assert decompose(rank2(3)).blocks == ((1, 1), (1, 2))
    assert decompose(discrete(2)).blocks == ((2, 1),)
    assert decompose(thin_group_scheme(cyclic_table(3))).blocks == ((1, 1),) * 3
    assert decompose(thin_group_scheme(symmetric_table(3))).blocks == (
        (1, 1),
        (1, 1),
        (2, 2),
    )
    assert decompose(thin_group_scheme(dihedral_table(4))).blocks == (
        (1, 1),
        (1, 1),
        (1, 1),
        (1, 1),
        (2, 2),
    )
    assert decompose(hamming(2, 2)).blocks == ((1, 1), (1, 1), (1, 2))
    assert decompose(thin_group_scheme(symmetric_table(4))).blocks == (
        (1, 1),
        (1, 1),
        (2, 2),
        (3, 3),
        (3, 3),
    )
    assert decompose(discrete(6)).blocks == ((6, 1),)


def test_decompose_direct_sum():
    wd = decompose(direct_sum(rank2(2), rank2(3)))
    assert wd.blocks == ((1, 1), (1, 2), (2, 1))
    assert wd.rank == 6
    assert wd.points == 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_seed_stable(seed):
    for sid in ("thin-s3", "dsum-r2-r3", "thin-z04", "johnson-4-2"):
        scheme = dict(corpus())[sid]
        assert decompose(scheme, seed=seed).blocks == decompose(scheme, seed=0).blocks


@pytest.mark.parametrize("sid", ["thin-z2x2x2", "thin-z2x4", "thin-q8"])
def test_decompose_needs_no_retry(sid):
    # the central element's coefficients come from a range wide enough that
    # distinct blocks do not share an eigenvalue at any of these seeds
    scheme = dict(corpus())[sid]
    for seed in range(41):
        assert decompose(scheme, seed=seed).seed == seed, seed


def test_frame_frozen_values():
    assert frame_number(rank2(3)).frame == 9
    assert frame_number(rank2(3)).quotient == 1
    assert frame_number(thin_group_scheme(cyclic_table(2))).frame == 4
    assert frame_number(discrete(2)).frame == 1
    assert frame_number(thin_group_scheme(symmetric_table(3))).frame == 2916
    assert frame_number(hamming(2, 2)).frame == 64
    assert frame_number(hamming(2, 2)).quotient == 4
    fn = frame_number(direct_sum(rank2(2), rank2(3)))
    assert fn.frame == 1296
    assert fn.quotient == 36


def test_frame_thin_cyclic_closed_form():
    for n in (2, 3, 5, 8, 14, 16, 18, 20, 24, 28, 30):
        fn = frame_number(thin_group_scheme(cyclic_table(n)))
        assert fn.frame == n**n


@pytest.mark.parametrize("seed", range(5))
def test_decompose_thin_cyclic_past_corpus(seed):
    # thin Z_14 is where the block data used to depend on the seed
    for n in range(14, 31):
        wd = decompose(thin_group_scheme(cyclic_table(n)), seed=seed)
        assert wd.blocks == ((1, 1),) * n, n


def test_regular_discriminant_identity_rejects_wrong_blocks():
    scheme = rank2(4)
    det_reg = regular_discriminant(scheme)
    assert det_reg == 16  # commutative: |det G_reg| is the Frame number
    right = decompose(scheme)
    assert right.blocks == ((1, 1), (1, 3))
    assert check_blocks(scheme, right, det_reg) is None
    # the sums and the divisibility check cannot tell these blocks apart
    wrong = WedderburnData(blocks=((1, 2), (1, 2)), seed=0, residual=0.0)
    assert (wrong.rank, wrong.points) == (scheme.rank, scheme.size)
    assert frame_number(scheme, wrong).frame == 12
    assert check_blocks(scheme, wrong, det_reg) == (
        "blocks miss the regular trace form identity"
    )


def test_frame_divisibility_error():
    wrong = WedderburnData(blocks=((1, 5),), seed=0, residual=0.0)
    with pytest.raises(FrameNumberError, match="not divisible"):
        frame_number(rank2(2), wrong)


def test_block_identities_across_corpus():
    for sid, scheme in corpus():
        wd = decompose(scheme)
        assert wd.rank == scheme.rank, sid
        assert wd.points == scheme.size, sid
        assert wd.residual < 1e-8, sid
        assert all(f >= 1 and m >= 1 for f, m in wd.blocks), sid
        fn = frame_number(scheme, wd)
        assert fn.frame >= 1, sid
        assert fn.quotient.denominator == 1, sid
        assert fn.quotient == Fraction(
            fn.frame, math.prod(len(x) for x in scheme.cells) ** 2
        )
