"""Verification harness: report content, serialization, determinism."""

import importlib.util
import sys
from pathlib import Path

import pytest

from cellalg import discriminant, harness, linalg
from cellalg.generators import build_scheme, rank2
from cellalg.harness import (
    VerifyOptions,
    candidate_primes,
    from_json_line,
    read_reports,
    summarize,
    to_json_line,
    verify_corpus,
    verify_scheme,
    write_reports,
)
from cellalg.harness import tested_primes as prime_set  # avoid test-name prefix
from cellalg.scheme import from_color_matrix

ALL_PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_candidate_primes():
    assert candidate_primes(rank2(3)) == [2, 3]  # prod |R| = 18
    assert candidate_primes(build_scheme("discrete-2")) == []
    assert candidate_primes(build_scheme("thin-z04")) == [2]


def test_tested_primes_add_controls():
    assert prime_set(rank2(3)) == ALL_PRIMES_TO_50
    # candidate 53 (prod |R| = 53 * 52) stays in above the control bound
    assert prime_set(rank2(53)) == ALL_PRIMES_TO_50 + [53]


def test_verify_rank2_3_report():
    rep = verify_scheme("rank2-03", rank2(3))
    assert rep["v"] == 1
    assert (rep["n"], rep["r"], rep["cells"]) == (3, 2, [3])
    assert (rep["prod_R"], rep["prod_X"]) == (18, 3)
    assert (rep["disc"], rep["disc_sign"]) == (18, 1)
    assert rep["blocks"] == [[1, 1], [1, 2]]
    assert (rep["frame"], rep["frame_quotient"]) == (9, 1)
    assert [row["p"] for row in rep["rows"]] == ALL_PRIMES_TO_50
    by_p = {row["p"]: row for row in rep["rows"]}
    assert by_p[3] == {
        "p": 3,
        "p_divides_frame": True,
        "rad_dim": 1,
        "semisimple": False,
        "witness_ok": True,
        "oracle_ok": True,
    }
    assert by_p[2]["semisimple"] is True
    assert by_p[2]["witness_ok"] is None
    assert rep["pass"] is True


def test_verify_thin_z6_maschke_pattern():
    rep = verify_scheme("thin-z06", build_scheme("thin-z06"))
    for row in rep["rows"]:
        assert row["semisimple"] == (row["p"] not in (2, 3))
    assert rep["pass"] is True


def test_verify_dsum_r2_d1_p2_not_semisimple():
    rep = verify_scheme("dsum-r2-d1", build_scheme("dsum-r2-d1"))
    by_p = {row["p"]: row for row in rep["rows"]}
    assert by_p[2]["semisimple"] is False
    assert by_p[2]["witness_ok"] is True
    assert rep["pass"] is True


def test_control_primes_report_semisimple():
    rep = verify_scheme("johnson-4-2", build_scheme("johnson-4-2"))
    for row in rep["rows"]:
        if rep["prod_R"] % row["p"]:
            assert row["semisimple"] is True
    assert rep["pass"] is True


def test_irregular_scheme_fails_without_crash():
    scheme = from_color_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    rep = verify_scheme("broken", scheme)
    assert rep["disc"] is None
    assert rep["blocks"] is None
    assert rep["frame"] is None
    assert all(row["rad_dim"] is None for row in rep["rows"])
    assert rep["pass"] is False


def test_json_line_roundtrip():
    rep = verify_scheme("hamming-2-2", build_scheme("hamming-2-2"))
    line = to_json_line(rep)
    assert line.endswith("\n")
    assert from_json_line(line) == rep
    with pytest.raises(ValueError):
        from_json_line('{"v": 99}')


def test_write_read_append(tmp_path):
    reports = [
        verify_scheme("rank2-02", rank2(2)),
        verify_scheme("rank2-03", rank2(3)),
    ]
    path = tmp_path / "out.jsonl"
    write_reports(path, reports[:1])
    write_reports(path, reports[1:], append=True)
    assert read_reports(path) == reports


def test_verify_corpus_subset_and_summary():
    reports, summary = verify_corpus(ids=["thin-z02", "rank2-03"])
    assert [rep["scheme_id"] for rep in reports] == ["rank2-03", "thin-z02"]
    assert summary["schemes"] == 2
    assert summary["schemes_failed"] == 0
    assert summary["rows_failed"] == 0
    assert summary["primes_tested"] == sum(len(rep["rows"]) for rep in reports)
    assert summarize(reports) == summary


def test_corpus_derives_each_character_once_per_scheme(monkeypatch):
    # the characters and det G_reg do not depend on the prime: one cell
    # character and two determinants (the standard and the regular trace
    # form) for each of the 62 schemes, not one for each of the 930
    # (scheme, p) rows
    derived = {"cell_character": [], "det_fraction_free": []}
    for fname, seen in derived.items():
        derive = getattr(linalg if fname.startswith("det") else discriminant, fname)

        def counting(arg, derive=derive, seen=seen):
            seen.append(arg)
            return derive(arg)

        # wherever the package holds the function, not only where it is defined
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cellalg" and vars(module).get(fname) is derive:
                monkeypatch.setattr(module, fname, counting)
    reports, summary = verify_corpus()
    assert summary["primes_tested"] == 930 and summary["rows_failed"] == 0
    assert len(derived["cell_character"]) == len(reports) == 62
    assert len(derived["det_fraction_free"]) == 2 * 62


def test_verify_corpus_empty_filter():
    reports, summary = verify_corpus(ids=[])
    assert reports == []
    assert summary == {
        "schemes": 0,
        "schemes_failed": 0,
        "primes_tested": 0,
        "rows_failed": 0,
    }


def test_parallel_matches_serial():
    ids = ["rank2-04", "thin-z03", "discrete-2"]
    serial, _ = verify_corpus(ids=ids, jobs=1)
    parallel, _ = verify_corpus(ids=ids, jobs=2)
    assert [to_json_line(r) for r in serial] == [to_json_line(r) for r in parallel]


def test_pool_starts_no_more_workers_than_schemes(monkeypatch):
    # the pool forks every worker up front; a stub records the request and
    # maps serially, so no process starts
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    reports, _ = verify_corpus(ids=["thin-z02", "rank2-02"], jobs=64)
    assert requested == [2]
    assert [rep["scheme_id"] for rep in reports] == ["rank2-02", "thin-z02"]


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
        VerifyOptions(seed=-1)
    assert VerifyOptions(seed=0).seed == 0


def _tree(root):
    return sorted(
        (str(path.relative_to(root)), path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
    )


def test_benchmark_tracer_leaves_the_reports_unchanged(tmp_path, monkeypatch):
    # the benchmark discards the reports of its traced pass, so a tracing
    # hook that raised inside a stage would go unseen there: verify_scheme
    # turns the exception into a failed row
    perfbench = Path(__file__).parents[1] / "perfbench"
    before = _tree(perfbench)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", perfbench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ids = ["rank2-03", "thin-s3", "dsum-r2-d1"]
    plain = [to_json_line(rep) for rep in verify_corpus(ids=ids)[0]]
    tracer = spans.Tracer(tmp_path, full=True)
    tracer.install()
    try:
        traced = [to_json_line(rep) for rep in harness.verify_corpus(ids=ids)[0]]
    finally:
        tracer.restore()
    assert harness.verify_scheme is verify_scheme
    assert traced == plain
    profile = tracer.profile()
    assert profile["harness.verify_scheme"]["calls"] == len(ids)
    for name in spans.COUNTERS:
        assert profile[name]["calls"] > 0, name
    assert profile["radical.radical_oracle"]["elements"] > 0
    assert list(tmp_path.iterdir()) == []
    assert _tree(perfbench) == before


def test_same_seed_same_bytes():
    opts = VerifyOptions(seed=5)
    one = to_json_line(verify_scheme("thin-s3", build_scheme("thin-s3"), opts))
    two = to_json_line(verify_scheme("thin-s3", build_scheme("thin-s3"), opts))
    assert one == two
