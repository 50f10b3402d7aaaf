"""Coherent configurations as colorings of V x V.

A configuration is stored as an n x n matrix of relation indices (colors).
Construction checks that the colors partition the pairs, that the diagonal
is a union of colors, and that colors are closed under transposition.
The regularity axiom (constant intersection numbers) is certified separately
by verify_regularity, which produces the intersection tensor.

Relations are canonically numbered: relations in the order of their first
pair, diagonal ones first.  A diagonal relation's first pair is (u, u) for
the smallest point u of its cell.  This makes serialized schemes and all
downstream bases reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SchemeError(ValueError):
    """Axiom violation; carries a human-readable witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalCheckError(RuntimeError):
    """A result failed a check that the mathematics guarantees; raised in
    place of `assert`, so that `python -O` keeps the check."""


@dataclass(frozen=True)
class RelationStats:
    """Per-relation out- and in-degree; sizes are Scheme.relation_sizes and
    fibers Scheme.fiber_of."""

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]


@dataclass(frozen=True)
class SchemeFlags:
    homogeneous: bool
    commutative: bool
    symmetric: bool


class Scheme:
    """A validated (axioms C1-C3) configuration; immutable after construction.

    Use from_color_matrix to build one.  Accessing .tensor certifies the
    regularity axiom and raises SchemeError if it fails.
    """

    def __init__(self, colors: np.ndarray):
        colors = np.asarray(colors, dtype=np.int64)
        n = self.size = int(colors.shape[0])
        self.rank = int(colors.max()) + 1
        self.colors = colors
        diag_colors, point_cell = np.unique(colors.diagonal(), return_inverse=True)
        self.diagonal_colors = tuple(diag_colors.tolist())
        self.cells = tuple(
            tuple(np.nonzero(point_cell == x)[0].tolist()) for x in range(diag_colors.size)
        )
        self.point_cell = point_cell
        # first_pair[k]: flat index of the first row-major pair of relation k;
        # a relation lies in one fiber when each pair lies in its first pair's
        first = self.first_pair = np.unique(colors, return_index=True)[1]
        src, tgt = point_cell[first // n], point_cell[first % n]
        leaves = (src[colors] != point_cell[:, None]) | (tgt[colors] != point_cell)
        stray = np.zeros(self.rank, dtype=bool)
        stray[colors[leaves]] = True
        self.fiber_of = tuple(
            None if out else (x, y)
            for out, x, y in zip(stray.tolist(), src.tolist(), tgt.tolist())
        )
        for a in (colors, point_cell, first):
            a.flags.writeable = False

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Stacked 0/1 adjacency matrices, shape (rank, n, n)."""
        a = np.stack([(self.colors == rel) for rel in range(self.rank)]).astype(np.int64)
        a.flags.writeable = False
        return a

    @cached_property
    def relation_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.colors.ravel(), minlength=self.rank).tolist())

    @cached_property
    def transpose_of(self) -> tuple[int, ...]:
        """rel -> relation of the transposed pairs (an involution)."""
        return tuple(self.colors.T.ravel()[self.first_pair].tolist())

    @cached_property
    def tensor(self) -> np.ndarray:
        """Certified, read-only structure constants c[i][j][k]:
        A_i A_j = sum_k c[i][j][k] A_k."""
        return verify_regularity(self)

    @cached_property
    def commutator_rows(self) -> np.ndarray:
        """The distinct nonzero rows of the commutator map, read-only (m, rank)
        int64 in first-occurrence order: entry s of row (i, k) is the
        coefficient of A_k in A_i A_s - A_s A_i, so the center is its kernel.
        Built one i at a time, with no (r, r, r) array beside the tensor, and
        deduplicated by bytes in a dict: np.unique's first call costs ~20 ms."""
        # viewed as one opaque item of 8 r bytes, a row lists as its bytes
        c, row = self.tensor, f"V{8 * self.rank}"
        rows = {}
        for i in range(self.rank):
            block = (c[i] - c[:, i]).T
            rows.update(dict.fromkeys(block[block.any(axis=1)].view(row).ravel().tolist()))
        return np.frombuffer(b"".join(rows), dtype=np.int64).reshape(-1, self.rank)

    @cached_property
    def characters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The standard, regular and cell characters, read-only (r,) int64
        vectors derived once per scheme by discriminant.py; they do not
        depend on the prime."""
        # discriminant.py imports this module
        from .discriminant import cell_character, regular_character, standard_character

        chars = (
            standard_character(self),
            regular_character(self.tensor),
            cell_character(self),
        )
        for a in chars:
            a.flags.writeable = False
        return chars

    @cached_property
    def regular_gram_det(self) -> int:
        """det of the regular trace form's Gram matrix tensor @ chi_reg."""
        from .linalg import det_fraction_free

        return det_fraction_free(self.tensor @ self.characters[1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Scheme) and np.array_equal(self.colors, other.colors)

    def __hash__(self) -> int:
        return hash((self.size, self.rank, self.colors.tobytes()))

    def __repr__(self) -> str:
        return f"Scheme(n={self.size}, rank={self.rank}, cells={len(self.cells)})"


def _canonical_relabel(colors: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Renumber colors in the order of their first pair, diagonal ones first.

    Needs diagonal closure, so that a diagonal color's first pair is (u, u)
    for the smallest point u of its cell."""
    off_diag = first // colors.shape[0] != first % colors.shape[0]
    relabel = np.empty(first.size, dtype=np.int64)
    relabel[np.argsort(first + colors.size * off_diag)] = np.arange(first.size)
    return relabel[colors]


def from_color_matrix(matrix) -> Scheme:
    """Build a Scheme from an n x n matrix of 0-based colors.

    Checks: matrix shape, color contiguity (every value in 0..max occurs),
    diagonal closure (no color both on and off the diagonal), and transpose
    closure (the transpose of each color class is a single color class).
    Does not certify regularity; see verify_regularity.
    """
    colors = np.asarray(matrix, dtype=np.int64)
    if colors.ndim != 2 or colors.shape[0] != colors.shape[1]:
        raise SchemeError("color matrix must be square")
    n = colors.shape[0]
    if n == 0:
        raise SchemeError("empty point set")
    if colors.min() < 0:
        raise SchemeError("colors must be non-negative (use --one-based for 1-based files)")
    nrel = int(colors.max()) + 1
    present = np.bincount(colors.ravel(), minlength=nrel)
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise SchemeError(
            f"color {int(missing[0])} missing: colors must be contiguous 0..{nrel - 1}",
            witness=int(missing[0]),
        )

    on_diag = np.bincount(colors.diagonal(), minlength=nrel)
    both = np.nonzero((on_diag > 0) & (present > on_diag))[0]
    if both.size:
        c = int(both[0])
        u = int(np.nonzero(colors.diagonal() == c)[0][0])
        rows, cols = np.nonzero((colors == c) & ~np.eye(n, dtype=bool))
        raise SchemeError(
            f"relation {c} contains diagonal pair ({u},{u}) "
            f"and off-diagonal pair ({int(rows[0])},{int(cols[0])})",
            witness=(c, (u, u), (int(rows[0]), int(cols[0]))),
        )

    # transpose closure: every pair's transpose has the color of the
    # transpose of its relation's first pair
    first = np.unique(colors, return_index=True)[1]
    image = colors.T.ravel()[first]
    bad = image[colors] != colors.T
    if bad.any():
        c = int(colors[bad].min())
        imgs = np.unique(colors.T[colors == c]).tolist()
        raise SchemeError(
            f"transpose of relation {c} meets relations {imgs}",
            witness=(c, imgs),
        )

    return Scheme(_canonical_relabel(colors, first))


def verify_regularity(scheme: Scheme) -> np.ndarray:
    """Certify the regularity axiom and return the intersection tensor, a
    read-only (r, r, r) int64 array.

    For each pair of relations (i, j), the number of midpoints v with
    (u,v) in R_i and (v,w) in R_j must depend only on the relation of (u,w).
    Raises SchemeError with a witness triple and two differing pairs
    otherwise.  The counts are float32 products of the 0/1 adjacency
    matrices, which BLAS runs; every count is at most n, so they are exact
    for n < 2^24, where every partial sum is an integer that float32 holds.
    """
    r = scheme.rank
    n = scheme.size
    if n >= 1 << 24:
        raise InternalCheckError(f"{n} points: float32 counts are exact only below 2^24")
    adj = scheme.adjacency.astype(np.float32)
    flat_colors = scheme.colors.ravel()
    first = scheme.first_pair
    c = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        # counts[j, uw]: midpoints v with (u,v) in R_i and (v,w) in R_j
        counts = (adj[i] @ adj).reshape(r, n * n)
        c[i] = counts[:, first]
        bad = counts != c[i][:, flat_colors]
        if bad.any():
            j = int(np.nonzero(bad.any(axis=1))[0][0])
            k = int(flat_colors[bad[j]].min())
            hit = int(np.nonzero(bad[j] & (flat_colors == k))[0][0])
            v0, v1 = int(c[i, j, k]), int(counts[j, hit])
            p0 = divmod(int(first[k]), n)
            p1 = divmod(hit, n)
            raise SchemeError(
                f"intersection count for ({i},{j}) is not constant on "
                f"relation {k}: pair {p0} gives {v0}, pair {p1} gives {v1}",
                witness=(i, j, k, p0, v0, p1, v1),
            )
    c.flags.writeable = False
    return c


def fiber_cells(scheme: Scheme) -> np.ndarray:
    """(2, rank) int64: the source and target cell of every relation."""
    if None in scheme.fiber_of:
        k = scheme.fiber_of.index(None)
        raise InternalCheckError(f"relation {k} lies in no fiber")
    return np.array(scheme.fiber_of, dtype=np.int64).reshape(-1, 2).T


def relation_stats(scheme: Scheme) -> RelationStats:
    """Out- and in-degrees from the certified tensor, for R_k in X x Y:
    d_out = c[k][k^t][1_X] and d_in = c[k^t][k][1_Y], the diagonals of
    A_k A_k^t and A_k^t A_k.  The identities it checks cannot fail."""
    c = scheme.tensor
    src, tgt = fiber_cells(scheme)
    k, kt = np.arange(scheme.rank), np.array(scheme.transpose_of, dtype=np.int64)
    one = np.array(scheme.diagonal_colors, dtype=np.int64)
    out_d, in_d = c[k, kt, one[src]], c[kt, k, one[tgt]]
    # |X| d_out = |R| = |Y| d_in
    cell_sizes = np.bincount(scheme.point_cell)
    sizes = np.asarray(scheme.relation_sizes)
    bad = (cell_sizes[src] * out_d != sizes) | (sizes != cell_sizes[tgt] * in_d)
    if bad.any():
        raise InternalCheckError(f"relation {bad.argmax()}: |X| d_out, |R|, |Y| d_in differ")
    # the degrees over a fiber X x Y sum to the cell sizes: out to |Y|, in to |X|
    f = cell_sizes.size
    fiber = src * f + tgt
    sums = [np.bincount(fiber, degrees, f * f)[fiber] for degrees in (out_d, in_d)]
    wrong = (sums[0] != cell_sizes[tgt]) | (sums[1] != cell_sizes[src])
    if wrong.any():
        x, y = divmod(int(fiber[wrong].min()), f)
        raise InternalCheckError(
            f"degrees over fiber ({x},{y}) do not sum to the cell sizes"
        )
    return RelationStats(tuple(out_d.tolist()), tuple(in_d.tolist()))


def classify(scheme: Scheme) -> SchemeFlags:
    """Homogeneity, commutativity and symmetry flags (tensor-certified)."""
    homogeneous = len(scheme.cells) == 1
    commutative = not scheme.commutator_rows.size
    symmetric = all(t == i for i, t in enumerate(scheme.transpose_of))
    if symmetric and not commutative:
        raise InternalCheckError("symmetric scheme with a non-commutative tensor")
    if commutative and not homogeneous:
        raise InternalCheckError("commutative tensor on more than one cell")
    return SchemeFlags(homogeneous=homogeneous, commutative=commutative, symmetric=symmetric)
