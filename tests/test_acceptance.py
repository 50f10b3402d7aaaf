"""Acceptance gate: one test group per numbered criterion.

The conftest terminal-summary hook turns these into one pass/fail line per
criterion.  Criteria 2 and 5 through 8 read the session-wide corpus
verification fixture; 1, 3 (frame checks aside) and the seed-stability half
of 7 recompute from scratch.
"""

import hashlib
import time

from cellalg.discriminant import (
    discriminant_standard,
    product_relation_sizes,
    transpose_pair_count,
)
from cellalg.generators import corpus_ids
from cellalg.harness import to_json_line, verify_corpus
from cellalg.radical import ORACLE_BUDGET
from cellalg.wedderburn import decompose
from reference import corpus


def test_criterion_1_corpus_composition():
    ids = set(corpus_ids())
    assert len(ids) >= 25
    for n in range(2, 25):
        assert f"rank2-{n:02d}" in ids
    for n in range(2, 9):
        assert f"thin-z{n:02d}" in ids
    assert {"thin-z2x2", "thin-z2x4", "thin-z2x2x2", "thin-d4", "thin-q8"} <= ids
    assert {"hamming-2-2", "hamming-3-2", "johnson-4-2", "johnson-5-2"} <= ids
    assert sum(1 for sid in ids if sid.startswith("schurian-")) >= 2
    dsums = [sid for sid in ids if sid.startswith("dsum-")]
    assert len(dsums) >= 5


def test_criterion_1_discriminant_identity():
    start = time.monotonic()
    for sid, scheme in corpus():
        det, sign = discriminant_standard(scheme)
        assert abs(det) == product_relation_sizes(scheme)
        assert sign == (-1) ** transpose_pair_count(scheme)
        assert det == sign * abs(det)
    assert time.monotonic() - start < 10


def test_criterion_2_main_theorem_all_rows(corpus_reports):
    reports, summary, elapsed = corpus_reports
    assert summary["schemes"] >= 25
    assert summary["schemes_failed"] == 0
    assert summary["rows_failed"] == 0
    for rep in reports:
        assert rep["pass"] is True
        for row in rep["rows"]:
            assert row["p_divides_frame"] != row["semisimple"]
    assert elapsed < 60


def test_criterion_3_maschke_recovery(corpus_reports):
    by_id = {rep["scheme_id"]: rep for rep in corpus_reports[0]}
    for n in range(2, 13):
        rep = by_id[f"thin-z{n:02d}"]
        assert rep["frame"] == n**n
        for row in rep["rows"]:
            assert row["semisimple"] == (n % row["p"] != 0)
    for row in by_id["thin-s3"]["rows"]:
        assert row["semisimple"] == (6 % row["p"] != 0)


def test_criterion_4_closed_forms(corpus_reports):
    by_id = {rep["scheme_id"]: rep for rep in corpus_reports[0]}
    for n in range(2, 25):
        assert by_id[f"rank2-{n:02d}"]["frame"] == n * n
    for n in range(1, 6):
        rep = by_id[f"discrete-{n}"]
        assert rep["frame"] == 1
        for row in rep["rows"]:
            assert row["rad_dim"] == 0
            assert row["semisimple"] is True


def test_criterion_5_oracle_equivalence(corpus_reports):
    checked = 0
    for rep in corpus_reports[0]:
        for row in rep["rows"]:
            if row["p"] ** rep["r"] <= ORACLE_BUDGET:
                assert row["oracle_ok"] is True
                checked += 1
            else:
                assert row["oracle_ok"] is None
    assert checked >= 200


def test_criterion_6_witness_and_control_primes(corpus_reports):
    witnessed = 0
    for rep in corpus_reports[0]:
        for row in rep["rows"]:
            if rep["prod_X"] % row["p"] == 0:
                assert row["witness_ok"] is True
                witnessed += 1
            else:
                assert row["witness_ok"] is None
            if rep["prod_R"] % row["p"] != 0:
                assert row["rad_dim"] == 0
    assert witnessed >= 20


def test_criterion_7_wedderburn_identities(corpus_reports):
    for rep in corpus_reports[0]:
        blocks = rep["blocks"]
        assert blocks is not None
        assert sum(f * f for f, _ in blocks) == rep["r"]
        assert sum(m * f for f, m in blocks) == rep["n"]
        assert rep["frame"] is not None  # exact divisibility held
        # a fractional quotient would serialize as a string
        assert isinstance(rep["frame_quotient"], int)


def test_criterion_7_seed_stability():
    for sid, scheme in corpus():
        blocks = {decompose(scheme, seed=s).blocks for s in (0, 1, 2)}
        assert len(blocks) == 1, sid


def test_criterion_8_deterministic_reruns(corpus_reports):
    first = [to_json_line(rep) for rep in corpus_reports[0]]
    rerun, _ = verify_corpus()
    second = [to_json_line(rep) for rep in rerun]
    assert first == second


def test_criterion_8_seed_0_report_bytes_are_pinned(corpus_reports):
    # the default-options (seed 0) corpus report, byte for byte
    text = "".join(map(to_json_line, corpus_reports[0])).encode()
    assert len(text) == 103_081
    assert hashlib.sha256(text).hexdigest() == (
        "af8802256f6bc746d57a3948352860c470c75907531aff8b926729baf88236da"
    )
