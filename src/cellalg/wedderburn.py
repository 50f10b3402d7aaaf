"""Wedderburn block data (degrees and multiplicities) and the Frame number.

The center of the algebra is computed exactly over Q, as the kernel of
Scheme.commutator_rows.  A seeded random integer combination z of the center
basis gives the Hermitian central element h = (z + z^T) + i(z - z^T) (the
algebra is closed under transpose), which acts on each block by one real
scalar.  One eigendecomposition of h on the point space splits its sorted
eigenvalues into runs, one per block; the eigenvectors of a run are an
orthonormal basis of that block's isotypic component, of dimension f*m.  The
degree f is the square root of the rank of the algebra compressed to that
component.  Every eigenspace must be invariant under the basis matrices, and
the block data must satisfy exact integer identities: sum f^2 = rank,
sum f*m = points, and prod |R| * prod f^(f^2) = |det G_reg| * prod m^(f^2),
where G_reg is the Gram matrix of the regular trace form.  A bad draw is
detected and retried rather than silently accepted.

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
from .linalg import kernel_rational, primitive_integer_vector
from .scheme import Scheme

# eigenvalue gap, singular-value cut and eigenspace residual bound
TOL = 1e-8
# consecutive seeds tried before decompose gives up
RETRIES = 8
# the random central element's coefficients come from 1..COEFF_BOUND, wide
# enough that distinct blocks rarely share an eigenvalue
COEFF_BOUND = 1 << 20


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


def center_basis(scheme: Scheme) -> list[list[int]]:
    """Exact basis of the center, the kernel of Scheme.commutator_rows,
    scaled to primitive integer vectors; with no rows the center is the
    whole algebra."""
    rows = scheme.commutator_rows
    if not rows.size:
        return np.eye(scheme.rank, dtype=np.int64).tolist()
    return [primitive_integer_vector(v) for v in kernel_rational(rows.tolist())]


def check_blocks(scheme: Scheme, wd: WedderburnData) -> str | None:
    """Why the block data cannot be right, or None.  Besides the sums
    sum f^2 = r and sum f*m = n, the standard and regular trace forms give
    prod |R| * prod f^(f^2) = |det G_reg| * prod m^(f^2), with det G_reg
    Scheme.regular_gram_det, taken once per scheme."""
    if wd.rank != scheme.rank or wd.points != scheme.size:
        return f"block sums {wd.rank}/{wd.points} disagree with {scheme.rank}/{scheme.size}"
    if product_relation_sizes(scheme) * prod(f ** (f * f) for f, _ in wd.blocks) != (
        abs(scheme.regular_gram_det) * prod(m ** (f * f) for f, m in wd.blocks)
    ):
        return "blocks miss the regular trace form identity"
    return None


def _attempt(scheme: Scheme, center: list[list[int]], seed: int):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(1, COEFF_BOUND, size=len(center), endpoint=True)
    vec = coeffs @ np.asarray(center, dtype=np.int64)
    z = np.einsum("r,rij->ij", vec, scheme.adjacency).astype(np.float64)
    # z^T is central too (the algebra is closed under transpose), so h is
    # central and Hermitian and acts on each block by one real scalar
    values, vectors = np.linalg.eigh((z + z.T) + 1j * (z - z.T))
    scale = max(1.0, float(np.abs(values).max()))
    cuts = np.flatnonzero(np.diff(values) > TOL * scale) + 1
    runs = np.split(np.arange(scheme.size), cuts)
    if len(runs) != len(center):
        return None, f"{len(runs)} clusters for center dimension {len(center)}"

    adj = scheme.adjacency.astype(np.complex128)
    residual = 0.0
    blocks = []
    for run in runs:
        # orthonormal basis of one isotypic component, of dimension f*m
        v = vectors[:, run]
        compressed = v.conj().T @ adj @ v
        res = float(np.abs(adj @ v - v @ compressed).max())
        # "not <" so that a NaN residual fails too
        if not res < TOL:
            return None, f"eigenspace residual {res:.3g}"
        residual = max(residual, res)
        svals = np.linalg.svd(compressed.reshape(scheme.rank, -1), compute_uv=False)
        rank = int((svals > TOL * max(1.0, float(svals[0]))).sum())
        f = round(rank**0.5)
        if f < 1 or f * f != rank:
            return None, f"compressed rank {rank} is not a square"
        # a degree that does not divide the run length fails the sum f*m = n
        blocks.append((f, len(run) // f))

    blocks.sort()
    wd = WedderburnData(blocks=tuple(blocks), seed=seed, residual=residual)
    reason = check_blocks(scheme, wd)
    return (None, reason) if reason else (wd, None)


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


def frame_number(scheme: Scheme, wd: WedderburnData) -> FrameNumber:
    """Exact Frame number and its cell-normalized quotient.

    The product of relation sizes must be divisible by the product of
    m^(f^2); anything else means the block data is wrong and raises.
    The quotient is expected to be an integer for every scheme; callers
    treat a non-integral quotient as a reportable finding, not a crash.
    """
    numer = product_relation_sizes(scheme)
    denom = prod(m ** (f * f) for f, m in wd.blocks)
    frame, rem = divmod(numer, denom)
    if rem:
        raise FrameNumberError(
            f"size product {numer} not divisible by multiplicity product {denom}"
        )
    quotient = Fraction(frame, product_cell_sizes(scheme) ** 2)
    return FrameNumber(frame=frame, quotient=quotient)
