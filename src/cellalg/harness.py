"""Corpus-wide verification: semisimple mod p exactly when p misses the
Frame number.

verify_scheme runs every check on one scheme and collects all intermediate
values into a flat record; verify_corpus maps that over the registered
corpus.  Records serialize to JSON lines with a fixed key order, so equal
inputs and seed give byte-identical report files.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .discriminant import (
    discriminant_standard,
    product_cell_sizes,
    product_relation_sizes,
)
from .generators import build_scheme, corpus_ids
from .linalg import in_row_space_mod_p, prime_factors, primes_upto
from .radical import (
    ORACLE_BUDGET,
    central_nilpotent_witness,
    modular_algebra,
    radical_chain,
    radical_oracle,
)
from .scheme import Scheme
from .wedderburn import decompose, frame_number

SCHEMA_VERSION = 1
PRIME_BOUND = 50


@dataclass(frozen=True)
class VerifyOptions:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")


def candidate_primes(scheme: Scheme) -> list[int]:
    """Primes that could divide the Frame number: divisors of prod |R|."""
    return prime_factors(product_relation_sizes(scheme))


def tested_primes(scheme: Scheme) -> list[int]:
    """Candidates plus the controls up to PRIME_BOUND, which must come out
    semisimple when they miss the Frame number."""
    return sorted(set(candidate_primes(scheme)) | set(primes_upto(PRIME_BOUND)))


def encode_quotient(q: Fraction):
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _row_passes(row: dict) -> bool:
    return (
        row["p_divides_frame"] is not None
        and row["semisimple"] is not None
        and row["p_divides_frame"] != row["semisimple"]
        and row["witness_ok"] is not False
        and row["oracle_ok"] is not False
    )


def verify_scheme(
    scheme_id: str, scheme: Scheme, options: VerifyOptions = VerifyOptions()
) -> dict:
    prod_r = product_relation_sizes(scheme)
    prod_x = product_cell_sizes(scheme)

    disc = sign = None
    stages_ok = True
    try:
        disc, sign = discriminant_standard(scheme)
    except Exception:
        stages_ok = False

    blocks = frame = quotient = None
    try:
        wd = decompose(scheme, seed=options.seed)
        fn = frame_number(scheme, wd)
        blocks = [[f, m] for f, m in wd.blocks]
        frame = fn.frame
        quotient = fn.quotient
        if quotient.denominator != 1:
            stages_ok = False
    except Exception:
        stages_ok = False

    rows = []
    for p in tested_primes(scheme):
        divides = None if frame is None else frame % p == 0
        rad_dim = semisimple = None
        rad_basis = None
        try:
            alg = modular_algebra(scheme, p)
            rad = radical_chain(alg)
            rad_dim = rad.dim
            rad_basis = rad.basis
            semisimple = rad_dim == 0
        except Exception:
            alg = None

        witness_ok = None
        if prod_x % p == 0 and rad_basis is not None:
            try:
                vec = central_nilpotent_witness(scheme, p)
                witness_ok = vec is not None and in_row_space_mod_p(
                    vec, rad_basis, p
                )
            except Exception:
                witness_ok = False

        oracle_ok = None
        if alg is not None and p**scheme.rank <= ORACLE_BUDGET:
            try:
                oracle = radical_oracle(alg)
                oracle_ok = oracle.dim == rad_dim and np.array_equal(
                    oracle.basis, rad_basis
                )
            except Exception:
                oracle_ok = False

        rows.append(
            {
                "p": p,
                "p_divides_frame": divides,
                "rad_dim": rad_dim,
                "semisimple": semisimple,
                "witness_ok": witness_ok,
                "oracle_ok": oracle_ok,
            }
        )

    return {
        "v": SCHEMA_VERSION,
        "scheme_id": scheme_id,
        "n": scheme.size,
        "r": scheme.rank,
        "cells": [len(c) for c in scheme.cells],
        "prod_R": prod_r,
        "prod_X": prod_x,
        "disc": disc,
        "disc_sign": sign,
        "blocks": blocks,
        "frame": frame,
        "frame_quotient": None if quotient is None else encode_quotient(quotient),
        "rows": rows,
        "pass": stages_ok and all(_row_passes(row) for row in rows),
    }


def summarize(reports: list[dict]) -> dict:
    rows = [row for rep in reports for row in rep["rows"]]
    failed = sum(1 for row in rows if not _row_passes(row))
    return {
        "schemes": len(reports),
        "schemes_failed": sum(1 for rep in reports if not rep["pass"]),
        "primes_tested": len(rows),
        "rows_failed": failed,
    }


def _verify_worker(scheme_id: str, options: VerifyOptions) -> dict:
    return verify_scheme(scheme_id, build_scheme(scheme_id), options)


def verify_corpus(
    options: VerifyOptions = VerifyOptions(),
    ids: list[str] | None = None,
    jobs: int = 1,
) -> tuple[list[dict], dict]:
    if ids is None:
        ids = corpus_ids()
    ids = sorted(ids)
    if jobs > 1 and len(ids) > 1:
        # the pool forks all its workers at once, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            reports = list(pool.map(_verify_worker, ids, repeat(options)))
    else:
        reports = [_verify_worker(sid, options) for sid in ids]
    return reports, summarize(reports)


def to_json_line(report: dict) -> str:
    return json.dumps(report, separators=(",", ":")) + "\n"


def from_json_line(line: str) -> dict:
    report = json.loads(line)
    if report.get("v") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {report.get('v')!r}")
    return report


def write_reports(path: str, reports: list[dict], append: bool = False) -> None:
    with open(path, "a" if append else "w") as fh:
        for rep in reports:
            fh.write(to_json_line(rep))


def read_reports(path: str) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                out.append(from_json_line(line))
    return out
