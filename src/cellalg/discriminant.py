"""Trace form of the standard module and its discriminant.

The standard module is the defining action on points.  Its character sends a
basis matrix to the number of fixed points it covers: cell size for a
diagonal relation, 0 otherwise.  The Gram matrix of (x, y) -> trace(xy) in
the relation basis has a closed form (relation size at transpose-paired
positions); the discriminant is its determinant, computed fraction-free and
cross-checked against the closed-form sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import det_fraction_free
from .scheme import InternalCheckError, Scheme


@dataclass(frozen=True)
class GramMatrix:
    """Exact Gram matrix of the standard trace form in the relation basis."""

    rows: tuple[tuple[int, ...], ...]
    basis: tuple[int, ...]


def standard_character(scheme: Scheme, rel: int) -> int:
    """Trace of a basis matrix on the standard module."""
    if not 0 <= rel < scheme.rank:
        raise ValueError(f"relation index {rel} out of range")
    if rel in scheme.diagonal_colors:
        return len(scheme.cells[scheme.diagonal_colors.index(rel)])
    return 0


def gram_standard(scheme: Scheme) -> GramMatrix:
    """Gram matrix computed two ways: through the intersection tensor and the
    character, and from the closed form size(i) at (i, i-transpose).  The two
    must agree; a mismatch would be an internal error."""
    c = scheme.tensor.c
    r = scheme.rank
    chi = np.array([standard_character(scheme, k) for k in range(r)], dtype=np.int64)
    via_tensor = c @ chi
    closed = np.zeros((r, r), dtype=np.int64)
    closed[np.arange(r), scheme.transpose_of] = scheme.relation_sizes
    if not np.array_equal(via_tensor, closed):
        raise InternalCheckError("trace-form Gram matrix differs from its closed form")
    return GramMatrix(rows=tuple(map(tuple, closed.tolist())), basis=tuple(range(r)))


def transpose_pair_count(scheme: Scheme) -> int:
    """Number of unordered pairs {i, i^t} with i != i^t."""
    return sum(1 for i, t in enumerate(scheme.transpose_of) if i < t)


def discriminant_standard(scheme: Scheme) -> tuple[int, int]:
    """(determinant, sign) of the standard trace form.

    |det| is the product of relation sizes; the sign is -1 to the number of
    non-symmetric transpose pairs.  The determinant is computed by
    elimination and the sign formula is checked against it.
    """
    gram = gram_standard(scheme)
    det = det_fraction_free(gram.rows)
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
