"""Wedderburn block data (degrees and multiplicities) and the Frame number.

The center of the algebra is computed exactly over Q.  A seeded random
integer combination of the center basis is then eigendecomposed numerically
on the point space; eigenvalue clusters correspond to blocks, and Lagrange
interpolation at the cluster means yields the block projectors.  Degrees
come from the rank of the compressed algebra, multiplicities from projector
traces.  Every rounded quantity is validated against exact integer
identities (sum of squared degrees = rank, weighted degrees = points), so a
bad draw is detected and retried rather than silently accepted.

Everything downstream of the rounded integers is exact again: the Frame
number is an exact integer quotient and the cell-normalized quotient an
exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .discriminant import product_cell_sizes, product_relation_sizes
from .linalg import kernel_rational, primitive_integer_vector, regular_matrices
from .scheme import Scheme

# eigenvalue clustering gap, singular-value cut and rounding residual bound
TOL = 1e-8
# consecutive seeds tried before decompose gives up
RETRIES = 8


class DecompositionError(RuntimeError):
    """No usable central element found within the retry budget."""


class FrameNumberError(ValueError):
    """Block data inconsistent with the relation sizes (divisibility failed)."""


@dataclass(frozen=True)
class WedderburnData:
    """Blocks as (degree, multiplicity) pairs, sorted; seed that produced
    them and the largest rounding residual observed."""

    blocks: tuple[tuple[int, int], ...]
    seed: int
    residual: float

    @property
    def rank(self) -> int:
        return sum(f * f for f, _ in self.blocks)

    @property
    def points(self) -> int:
        return sum(f * m for f, m in self.blocks)


@dataclass(frozen=True)
class FrameNumber:
    """frame = product of relation sizes / product of m^(f^2); quotient
    additionally divides out the squared cell-size product."""

    frame: int
    quotient: Fraction

    @property
    def quotient_integral(self) -> bool:
        return self.quotient.denominator == 1


def center_basis(scheme: Scheme) -> list[list[int]]:
    """Exact basis of the center: joint kernel of all commutator maps,
    scaled to primitive integer vectors.  Zero and repeated commutator rows
    are dropped before the exact elimination; with none left the center is
    the whole algebra."""
    left, right = regular_matrices(scheme.tensor.c)
    rows = (left - right).reshape(-1, scheme.rank)
    # a dict, not np.unique, whose first call in a process costs ~20 ms
    rows = list(dict.fromkeys(map(tuple, rows[rows.any(axis=1)].tolist())))
    if not rows:
        return np.eye(scheme.rank, dtype=np.int64).tolist()
    return [primitive_integer_vector(v) for v in kernel_rational(rows)]


def _cluster(values: np.ndarray) -> list[np.ndarray]:
    """Single-linkage clusters of complex values at absolute gap TOL*scale."""
    n = len(values)
    scale = max(1.0, float(np.abs(values).max()))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= TOL * scale:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # deterministic order: by smallest member index
    return [np.array(idx) for _, idx in sorted((min(g), g) for g in groups.values())]


def _attempt(scheme: Scheme, center: list[list[int]], seed: int):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(1, 32, size=len(center))
    vec = np.zeros(scheme.rank, dtype=np.int64)
    for w, basis_vec in zip(coeffs, center):
        vec += int(w) * np.asarray(basis_vec, dtype=np.int64)
    zmat = np.einsum("r,rij->ij", vec, scheme.adjacency).astype(np.float64)
    eigvals = np.linalg.eigvals(zmat)
    clusters = _cluster(eigvals)
    if len(clusters) != len(center):
        return None, f"{len(clusters)} clusters for center dimension {len(center)}"

    means = [eigvals[idx].mean() for idx in clusters]
    n = scheme.size
    eye = np.eye(n, dtype=np.complex128)
    projectors = []
    for j, mu in enumerate(means):
        p = eye
        # far factors first keeps intermediate products tame
        for nu in sorted((nu for l, nu in enumerate(means) if l != j),
                         key=lambda nu: -abs(mu - nu)):
            p = p @ (zmat - nu * eye) / (mu - nu)
        # polish toward the exact idempotent (quadratic convergence)
        for _ in range(3):
            if float(np.abs(p @ p - p).max()) < 1e-13:
                break
            p = p @ p @ (3 * eye - 2 * p)
        projectors.append(p)

    residual = 0.0
    total = np.zeros((n, n), dtype=np.complex128)
    for p in projectors:
        residual = max(residual, float(np.abs(p @ p - p).max()))
        total += p
    residual = max(residual, float(np.abs(total - eye).max()))
    if residual >= TOL:
        return None, f"projector residual {residual:.3g}"

    blocks = []
    adj = scheme.adjacency.astype(np.complex128)
    for p in projectors:
        compressed = np.stack([(p @ a @ p).ravel() for a in adj])
        svals = np.linalg.svd(compressed, compute_uv=False)
        cut = TOL * max(1.0, float(svals[0]))
        rank = int((svals > cut).sum())
        f = round(rank**0.5)
        if f < 1 or f * f != rank:
            return None, f"compressed rank {rank} is not a square"
        tr = complex(np.trace(p))
        residual = max(residual, abs(tr.imag), abs(tr.real - round(tr.real)))
        m, rem = divmod(round(tr.real), f)
        if rem or m < 1:
            return None, f"projector trace {tr.real:.6g} not divisible by degree {f}"
        blocks.append((f, m))

    if residual >= TOL:
        return None, f"rounding residual {residual:.3g}"
    blocks.sort()
    wd = WedderburnData(blocks=tuple(blocks), seed=seed, residual=residual)
    if wd.rank != scheme.rank or wd.points != scheme.size:
        return None, f"block sums {wd.rank}/{wd.points} disagree with {scheme.rank}/{scheme.size}"
    return wd, None


def decompose(scheme: Scheme, seed: int = 0) -> WedderburnData:
    """Block degrees and multiplicities; deterministic given the seed.

    Retries with consecutive seeds when the random central element is
    degenerate (collided eigenvalues) or validation fails.
    """
    center = center_basis(scheme)
    failures = []
    for attempt in range(RETRIES):
        wd, reason = _attempt(scheme, center, seed + attempt)
        if wd is not None:
            return wd
        failures.append(f"seed {seed + attempt}: {reason}")
    raise DecompositionError(
        "no generic central element found; " + "; ".join(failures)
    )


def frame_number(scheme: Scheme, wd: WedderburnData | None = None) -> FrameNumber:
    """Exact Frame number and its cell-normalized quotient.

    The product of relation sizes must be divisible by the product of
    m^(f^2); anything else means the block data is wrong and raises.
    The quotient is expected to be an integer for every scheme; callers
    treat a non-integral quotient as a reportable finding, not a crash.
    """
    if wd is None:
        wd = decompose(scheme)
    numer = product_relation_sizes(scheme)
    denom = prod(m ** (f * f) for f, m in wd.blocks)
    frame, rem = divmod(numer, denom)
    if rem:
        raise FrameNumberError(
            f"size product {numer} not divisible by multiplicity product {denom}"
        )
    quotient = Fraction(frame, product_cell_sizes(scheme) ** 2)
    return FrameNumber(frame=frame, quotient=quotient)
