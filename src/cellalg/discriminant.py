"""The characters of the adjacency algebra, and the discriminant of the
standard trace form.

Each trace of the basis matrices A_k is derived here, once, as an (r,) int64
vector: on the standard module, the action on points (the number of points u
with (u, u) in R_k, so |R_k| on a diagonal relation and 0 elsewhere); on the
regular module (sum_s c_kss); and on the cell module spanned by the cell
indicator vectors 1_X (A_k 1_Y = (|R_k|/|X|) 1_X for R_k in X x Y, so the
valency |R_k|/|X| when X = Y, 0 elsewhere).  A trace form's Gram matrix is
the tensor contracted with its character.  The standard one has a closed
form (relation size at transpose-paired positions); the discriminant is its
determinant, computed fraction-free and cross-checked against the
closed-form sign.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .linalg import det_fraction_free
from .scheme import InternalCheckError, Scheme, fiber_cells


def standard_character(scheme: Scheme) -> np.ndarray:
    """Trace of each basis matrix on the standard module."""
    return np.bincount(scheme.colors.diagonal(), minlength=scheme.rank)


def regular_character(c: np.ndarray) -> np.ndarray:
    """Trace of left multiplication by each basis element."""
    return np.einsum("kss->k", c)


def cell_character(scheme: Scheme) -> np.ndarray:
    """Trace of each basis matrix on the cell module."""
    src, tgt = fiber_cells(scheme)
    valency = np.asarray(scheme.relation_sizes) // np.bincount(scheme.point_cell)[src]
    return valency * (src == tgt)


def gram_standard(scheme: Scheme) -> np.ndarray:
    """Exact (r, r) int64 Gram matrix in the relation basis, computed two
    ways: through the intersection tensor and the character, and from the
    closed form size(i) at (i, i-transpose).  The two must agree; a mismatch
    would be an internal error."""
    r = scheme.rank
    closed = np.zeros((r, r), dtype=np.int64)
    closed[np.arange(r), scheme.transpose_of] = scheme.relation_sizes
    if not np.array_equal(scheme.tensor @ standard_character(scheme), closed):
        raise InternalCheckError("trace-form Gram matrix differs from its closed form")
    return closed


def transpose_pair_count(scheme: Scheme) -> int:
    """Number of unordered pairs {i, i^t} with i != i^t."""
    return sum(1 for i, t in enumerate(scheme.transpose_of) if i < t)


def discriminant_standard(scheme: Scheme) -> tuple[int, int]:
    """(determinant, sign) of the standard trace form.

    |det| is the product of relation sizes; the sign is -1 to the number of
    non-symmetric transpose pairs.  The determinant is computed by
    elimination and the sign formula is checked against it.
    """
    det = det_fraction_free(gram_standard(scheme))
    sign = -1 if transpose_pair_count(scheme) % 2 else 1
    if det != sign * product_relation_sizes(scheme):
        raise InternalCheckError(
            f"discriminant {det} is not {sign} times the product of relation sizes"
        )
    return det, sign


def product_relation_sizes(scheme: Scheme) -> int:
    return prod(scheme.relation_sizes)


def product_cell_sizes(scheme: Scheme) -> int:
    return prod(len(x) for x in scheme.cells)
