"""Command line interface: golden outputs, exit codes, file parsing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cellalg
from cellalg.cli import main, parse_scheme_file, format_scheme_file
from cellalg.generators import CORPUS_SPECS, build_scheme, corpus_ids, hamming
from cellalg.scheme import Scheme

RANK2_3_FILE = "3\n0 1 1\n1 0 1\n1 1 0\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_goldens(capsys):
    code, out, _ = run(capsys, ["gen", "rank2", "3"])
    assert (code, out) == (0, RANK2_3_FILE)
    code, out, _ = run(capsys, ["gen", "thin-cyclic", "2"])
    assert (code, out) == (0, "2\n0 1\n1 0\n")
    code, out, _ = run(capsys, ["gen", "discrete", "2"])
    assert (code, out) == (0, "2\n0 2\n3 1\n")


# CLI spellings of a few corpus ids, written out, then every other corpus id
# from its spec: each corpus id is a `gen` spec.
GEN_CASES = [
    (["gen", "rank2", "5"], "rank2-05"),
    (["gen", "discrete", "3"], "discrete-3"),
    (["gen", "thin-cyclic", "6"], "thin-z06"),
    (["gen", "thin-sym", "3"], "thin-s3"),
    (["gen", "hamming", "2", "2"], "hamming-2-2"),
    (["gen", "johnson", "4", "2"], "johnson-4-2"),
    (["gen", "schurian", "1,0,2"], "schurian-swap-3"),
    (["gen", "direct-sum", "rank2:2", "discrete:1"], "dsum-r2-d1"),
    (["gen", "direct-sum", "rank2:2", "rank2:2", "rank2:3"], "dsum-r2-r2-r3"),
]
GEN_CASES += [
    (["gen", *CORPUS_SPECS[sid].split()], sid)
    for sid in corpus_ids()
    if sid not in {written for _, written in GEN_CASES}
]


@pytest.mark.parametrize("argv,builder_id", GEN_CASES)
def test_gen_roundtrips_through_parser(capsys, argv, builder_id):
    assert argv[1:] == CORPUS_SPECS[builder_id].split()
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert parse_scheme_file(out) == build_scheme(builder_id)


def test_format_parse_identity():
    scheme = hamming(2, 2)
    assert parse_scheme_file(format_scheme_file(scheme)) == scheme


def write_scheme(tmp_path, text, name="s.scm"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_frame_golden(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, _ = run(capsys, ["frame", path])
    assert (code, out) == (0, "blocks=[(1,1),(1,2)] F=9 N=1\n")


def test_frame_rejects_a_negative_seed(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, err = run(capsys, ["frame", path, "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed must be non-negative, not -1" in err


@pytest.mark.parametrize("count", [0, -2])
def test_nonpositive_point_count_is_named(capsys, tmp_path, count):
    path = write_scheme(tmp_path, f"{count}\n")
    code, out, err = run(capsys, ["info", path])
    assert (code, out) == (2, "")
    assert err == f"error: point count must be positive, not {count}\n"


def test_radical_golden(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, _ = run(capsys, ["radical", path, "--p", "3"])
    assert (code, out) == (0, "rad_dim=1 semisimple=false\n")
    code, out, _ = run(capsys, ["radical", path, "--p", "2"])
    assert (code, out) == (0, "rad_dim=0 semisimple=true\n")


def test_radical_rejects_nonprime(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, _, err = run(capsys, ["radical", path, "--p", "4"])
    assert code == 2
    assert "prime" in err


def test_radical_rejects_huge_p_at_once(capsys, tmp_path):
    # 2^61 - 1 is prime, but trial division up to its square root runs for
    # minutes; the bound on p is checked first
    path = write_scheme(tmp_path, RANK2_3_FILE)
    start = time.monotonic()
    code, _, err = run(capsys, ["radical", path, "--p", str(2**61 - 1)])
    assert time.monotonic() - start < 10
    assert code == 2
    assert "below 2^31" in err


def test_info_output(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, _ = run(capsys, ["info", path])
    assert code == 0
    assert "n=3 r=2 cells=[3]" in out
    assert "homogeneous=true commutative=true symmetric=true" in out
    assert "0 3 1 1 (0,0)" in out
    assert "1 6 2 2 (0,0)" in out
    assert "tensor_digest=" in out


def test_comments_and_blank_lines(capsys, tmp_path):
    text = "# header\n\n3\n# body\n0 1 1\n1 0 1\n\n1 1 0\n"
    path = write_scheme(tmp_path, text)
    code, out, _ = run(capsys, ["radical", path, "--p", "3"])
    assert (code, out) == (0, "rad_dim=1 semisimple=false\n")


def test_one_based_import(capsys, tmp_path):
    shifted = "3\n1 2 2\n2 1 2\n2 2 1\n"
    path = write_scheme(tmp_path, shifted)
    code, out, _ = run(capsys, ["radical", path, "--p", "3", "--one-based"])
    assert (code, out) == (0, "rad_dim=1 semisimple=false\n")
    # without the flag the same file is not a valid scheme
    code, _, _ = run(capsys, ["radical", path, "--p", "3"])
    assert code == 2


def test_one_based_file_below_1_is_named_without_the_flag_hint(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, _, err = run(capsys, ["info", path, "--one-based"])
    assert code == 2
    assert "1-based colors must be at least 1, not 0" in err
    assert "--one-based" not in err


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "2\n0 1\n",  # missing row
        "2\n0 1 1\n1 0\n",  # ragged row
        "x\n0 1\n1 0\n",  # non-integer count
        "2\n0 x\n1 0\n",  # non-integer color
    ],
)
def test_parse_errors_exit_2(capsys, tmp_path, text):
    path = write_scheme(tmp_path, text)
    code, _, err = run(capsys, ["info", path])
    assert code == 2
    assert err


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["info", str(tmp_path / "absent.scm")])
    assert code == 2
    assert "cannot read" in err


def test_invalid_scheme_prints_witness(capsys, tmp_path):
    path = write_scheme(tmp_path, "3\n0 1 1\n1 0 1\n1 1 2\n")
    code, _, err = run(capsys, ["verify", path])
    assert code == 2
    assert "witness" in err


def test_gen_usage_errors(capsys):
    assert run(capsys, ["gen", "nosuch", "3"])[0] == 2
    assert run(capsys, ["gen", "rank2"])[0] == 2
    assert run(capsys, ["gen", "rank2", "3", "4"])[0] == 2
    assert run(capsys, ["gen", "rank2", "x"])[0] == 2
    assert run(capsys, ["gen", "schurian", "1,0,x"])[0] == 2
    assert run(capsys, ["gen", "direct-sum", "rank2:2"])[0] == 2
    assert run(capsys, ["gen", "direct-sum", "rank2:2", "nosuch:1"])[0] == 2
    assert run(capsys, ["gen", "thin-quaternion", "8"])[0] == 2
    assert run(capsys, ["gen", "thin-abelian", "2"])[0] == 2
    assert run(capsys, ["gen", "thin-sym", "0"])[0] == 2
    assert run(capsys, ["gen", "thin-sym", "-2"])[0] == 2


def test_gen_oversized_exits_2_before_building(capsys, monkeypatch):
    from cellalg import generators

    monkeypatch.setattr(generators, "from_color_matrix", None)
    monkeypatch.setattr(generators, "permutations", None)
    for argv in (["gen", "thin-sym", "8"], ["gen", "rank2", "5000"],
                 ["gen", "thin-abelian", "64", "65"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "too large" in err


def test_out_of_memory_exits_2_naming_the_rank(capsys, tmp_path, monkeypatch):
    # stubs raise MemoryError where a large scheme would, allocating nothing
    def no_memory(*args, **kwargs):
        raise MemoryError

    path = write_scheme(tmp_path, RANK2_3_FILE)
    monkeypatch.setattr("cellalg.cli.verify_scheme", no_memory)
    code, _, err = run(capsys, ["verify", path])
    assert code == 2
    assert "out of memory on a scheme of rank r = 2" in err
    monkeypatch.setattr(Scheme, "tensor", property(no_memory))
    code, _, err = run(capsys, ["info", path])
    assert code == 2
    assert "out of memory on a scheme of rank r = 2" in err
    monkeypatch.setattr("cellalg.cli.verify_corpus", no_memory)
    code, _, err = run(capsys, ["verify", "--corpus"])
    assert code == 2
    assert err == "error: out of memory\n"


def test_unknown_command_exit_2(capsys):
    assert run(capsys, ["nosuch"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_verify_single_file(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert "pass=true" in out
    assert "p=3 divides_frame=true rad_dim=1 semisimple=false witness=ok" in out


def test_verify_single_file_json(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE, name="mine.scm")
    code, out, _ = run(capsys, ["verify", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["scheme_id"] == "mine"
    assert report["frame"] == 9
    assert report["pass"] is True


def test_verify_requires_one_target(capsys, tmp_path):
    path = write_scheme(tmp_path, RANK2_3_FILE)
    assert run(capsys, ["verify"])[0] == 2
    assert run(capsys, ["verify", path, "--corpus"])[0] == 2


def test_verify_rejects_jobs_below_one(capsys, monkeypatch):
    monkeypatch.setattr("cellalg.cli.verify_corpus", None)
    code, _, err = run(capsys, ["verify", "--corpus", "--jobs", "0"])
    assert code == 2
    assert "--jobs" in err


def test_verify_rejects_a_negative_seed(capsys, tmp_path, monkeypatch):
    # a seed decompose cannot take is a usage error, not a failed theorem
    path = write_scheme(tmp_path, RANK2_3_FILE)
    code, out, err = run(capsys, ["verify", path, "--seed", "-1"])
    assert (code, out) == (2, "")
    assert "seed must be non-negative, not -1" in err
    monkeypatch.setattr("cellalg.cli.verify_corpus", None)
    assert run(capsys, ["verify", "--corpus", "--seed", "-1"])[0] == 2


def test_verify_failing_report_exits_1(capsys, tmp_path, monkeypatch):
    path = write_scheme(tmp_path, RANK2_3_FILE)

    def fake_verify(scheme_id, scheme, options):
        report = {
            "v": 1, "scheme_id": scheme_id, "n": 3, "r": 2, "cells": [3],
            "prod_R": 18, "prod_X": 3, "disc": 18, "disc_sign": 1,
            "blocks": [[1, 1], [1, 2]], "frame": 9, "frame_quotient": 1,
            "rows": [], "pass": False,
        }
        return report

    monkeypatch.setattr("cellalg.cli.verify_scheme", fake_verify)
    assert run(capsys, ["verify", path])[0] == 1


def test_corpus_out_and_resume(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("cellalg.cli.corpus_ids", lambda: ["rank2-02", "rank2-03"])
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, ["verify", "--corpus", "--out", str(out_path)])
    assert code == 0
    assert "schemes=2" in out
    first = out_path.read_text()
    assert len(first.splitlines()) == 2
    # resume: nothing left to do, file untouched, same summary
    code, out, _ = run(capsys, ["verify", "--corpus", "--out", str(out_path)])
    assert code == 0
    assert "schemes=2" in out
    assert out_path.read_text() == first


def test_corpus_stdout_json(capsys, monkeypatch):
    monkeypatch.setattr("cellalg.cli.corpus_ids", lambda: ["rank2-02"])
    code, out, err = run(capsys, ["verify", "--corpus", "--json"])
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert report["scheme_id"] == "rank2-02"
    assert "schemes=1" in err


def test_module_entry_point():
    # the child imports the same package as the tests, installed or not
    paths = [str(Path(cellalg.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-m", "cellalg.cli", "gen", "rank2", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == RANK2_3_FILE
