"""Coherent configurations as colorings of V x V.

A configuration is stored as an n x n matrix of relation indices (colors).
Construction checks that the colors partition the pairs, that the diagonal
is a union of colors, and that colors are closed under transposition.
The regularity axiom (constant intersection numbers) is certified separately
by verify_regularity, which produces the intersection tensor.

Relations are canonically numbered: diagonal relations first, ordered by the
smallest point of their cell, then off-diagonal relations in row-major order
of first occurrence.  This makes serialized schemes and all downstream bases
reproducible.
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
    """Per-relation size, out/in degree, and fiber (source cell, target cell)."""

    sizes: tuple[int, ...]
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    source_cells: tuple[int, ...]
    target_cells: tuple[int, ...]


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
        self.size = int(colors.shape[0])
        self.rank = int(colors.max()) + 1
        self.colors = colors
        diag = colors.diagonal()
        diag_set = sorted(set(diag.tolist()))
        self.diagonal_colors = tuple(diag_set)
        self.cells = tuple(
            tuple(np.nonzero(diag == c)[0].tolist()) for c in diag_set
        )
        point_cell = np.zeros(self.size, dtype=np.int64)
        for idx, cell in enumerate(self.cells):
            point_cell[list(cell)] = idx
        self.point_cell = point_cell
        fibers = []
        for rel in range(self.rank):
            rows, cols = np.nonzero(colors == rel)
            src = set(point_cell[rows].tolist())
            tgt = set(point_cell[cols].tolist())
            fibers.append((src.pop(), tgt.pop()) if len(src) == 1 and len(tgt) == 1 else None)
        self.fiber_of = tuple(fibers)
        colors.flags.writeable = False
        point_cell.flags.writeable = False

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
        first = np.unique(self.colors.ravel(), return_index=True)[1]
        return tuple(self.colors.T.ravel()[first].tolist())

    @cached_property
    def tensor(self) -> np.ndarray:
        """Certified, read-only structure constants c[i][j][k]:
        A_i A_j = sum_k c[i][j][k] A_k."""
        return verify_regularity(self)

    @cached_property
    def stats(self) -> RelationStats:
        return relation_stats(self)

    @cached_property
    def flags(self) -> SchemeFlags:
        return classify(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scheme) and np.array_equal(self.colors, other.colors)

    def __hash__(self) -> int:
        return hash((self.size, self.rank, self.colors.tobytes()))

    def __repr__(self) -> str:
        return f"Scheme(n={self.size}, rank={self.rank}, cells={len(self.cells)})"


def _canonical_relabel(colors: np.ndarray) -> np.ndarray:
    """Renumber colors: diagonal ones first (by smallest cell point), then
    off-diagonal ones by first row-major occurrence."""
    n = colors.shape[0]
    nrel = int(colors.max()) + 1
    diag = colors.diagonal()
    relabel = np.full(nrel, -1, dtype=np.int64)
    nxt = 0
    seen_diag = set()
    for u in range(n):
        c = int(diag[u])
        if c not in seen_diag:
            seen_diag.add(c)
            relabel[c] = nxt
            nxt += 1
    flat = colors.ravel()
    for c in flat.tolist():
        if relabel[c] < 0:
            relabel[c] = nxt
            nxt += 1
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

    diag_colors = set(colors.diagonal().tolist())
    off = colors[~np.eye(n, dtype=bool)] if n > 1 else np.empty(0, dtype=np.int64)
    off_colors = set(off.tolist())
    both = diag_colors & off_colors
    if both:
        c = min(both)
        u = int(np.nonzero(colors.diagonal() == c)[0][0])
        rows, cols = np.nonzero((colors == c) & ~np.eye(n, dtype=bool))
        raise SchemeError(
            f"relation {c} contains diagonal pair ({u},{u}) "
            f"and off-diagonal pair ({int(rows[0])},{int(cols[0])})",
            witness=(c, (u, u), (int(rows[0]), int(cols[0]))),
        )

    # transpose closure
    transposed = colors.T
    for c in range(nrel):
        imgs = set(transposed[colors == c].tolist())
        if len(imgs) != 1:
            raise SchemeError(
                f"transpose of relation {c} meets relations {sorted(imgs)}",
                witness=(c, sorted(imgs)),
            )

    return Scheme(_canonical_relabel(colors))


def verify_regularity(scheme: Scheme) -> np.ndarray:
    """Certify the regularity axiom and return the intersection tensor, a
    read-only (r, r, r) int64 array.

    For each pair of relations (i, j), the number of midpoints v with
    (u,v) in R_i and (v,w) in R_j must depend only on the relation of (u,w).
    Raises SchemeError with a witness triple and two differing pairs
    otherwise.
    """
    r = scheme.rank
    n = scheme.size
    adj = scheme.adjacency
    flat_colors = scheme.colors.ravel()
    # first[k]: flat index of the first pair of color k
    first = np.unique(flat_colors, return_index=True)[1]
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


def relation_stats(scheme: Scheme) -> RelationStats:
    """Sizes, degrees and fibers.  Requires a certified scheme; the counting
    identities it checks cannot fail after verify_regularity."""
    scheme.tensor  # certify
    sizes = scheme.relation_sizes
    out_d = []
    in_d = []
    src = []
    tgt = []
    for rel in range(scheme.rank):
        fiber = scheme.fiber_of[rel]
        if fiber is None:
            raise InternalCheckError(f"relation {rel} lies in no single fiber")
        x, y = fiber
        mat = scheme.adjacency[rel]
        row_counts = mat[list(scheme.cells[x])].sum(axis=1)
        col_counts = mat[:, list(scheme.cells[y])].sum(axis=0)
        if np.any(row_counts != row_counts[0]) or np.any(col_counts != col_counts[0]):
            raise InternalCheckError(f"relation {rel} has no constant degrees")
        out_d.append(int(row_counts[0]))
        in_d.append(int(col_counts[0]))
        src.append(x)
        tgt.append(y)
        # |X| d_out = |R| = |Y| d_in
        size_x, size_y = len(scheme.cells[x]), len(scheme.cells[y])
        if not size_x * out_d[-1] == sizes[rel] == size_y * in_d[-1]:
            raise InternalCheckError(f"relation {rel}: |X| d_out, |R|, |Y| d_in differ")
    # degree sums per fiber: sum of out-degrees over X x Y equals |Y|
    for x in range(len(scheme.cells)):
        for y in range(len(scheme.cells)):
            rels = [m for m in range(scheme.rank) if scheme.fiber_of[m] == (x, y)]
            if rels and (
                sum(out_d[m] for m in rels) != len(scheme.cells[y])
                or sum(in_d[m] for m in rels) != len(scheme.cells[x])
            ):
                raise InternalCheckError(
                    f"degrees over fiber ({x},{y}) do not sum to the cell sizes"
                )
    return RelationStats(
        sizes=sizes,
        out_degrees=tuple(out_d),
        in_degrees=tuple(in_d),
        source_cells=tuple(src),
        target_cells=tuple(tgt),
    )


def classify(scheme: Scheme) -> SchemeFlags:
    """Homogeneity, commutativity and symmetry flags (tensor-certified)."""
    c = scheme.tensor
    homogeneous = len(scheme.cells) == 1
    commutative = bool(np.array_equal(c, c.transpose(1, 0, 2)))
    symmetric = all(t == i for i, t in enumerate(scheme.transpose_of))
    if symmetric and not commutative:
        raise InternalCheckError("symmetric scheme with a non-commutative tensor")
    if commutative and not homogeneous:
        raise InternalCheckError("commutative tensor on more than one cell")
    return SchemeFlags(homogeneous=homogeneous, commutative=commutative, symmetric=symmetric)
