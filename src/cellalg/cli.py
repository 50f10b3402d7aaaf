"""Command line front end.

Scheme file format: first non-comment line is the point count n, followed
by n rows of n color indices.  Blank lines and lines starting with '#' are
ignored.  Colors are 0-based with diagonal relations numbered first; the
--one-based flag shifts published 1-based tables on read.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from .generators import corpus_ids, from_spec
from .harness import (
    VerifyOptions,
    encode_quotient,
    read_reports,
    summarize,
    to_json_line,
    verify_corpus,
    verify_scheme,
    write_reports,
)
from .radical import modular_algebra, radical_chain
from .scheme import Scheme, SchemeError, classify, from_color_matrix, relation_stats
from .wedderburn import decompose, frame_number


class UsageError(Exception):
    pass


def format_scheme_file(scheme: Scheme) -> str:
    lines = [str(scheme.size)]
    for row in scheme.colors:
        lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_scheme_file(text: str, one_based: bool = False) -> Scheme:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise UsageError(f"non-integer token in line: {line!r}")
    if not rows or len(rows[0]) != 1:
        raise UsageError("first line must contain the point count")
    n = rows[0][0]
    if n < 1:
        raise UsageError(f"point count must be positive, not {n}")
    body = rows[1:]
    if len(body) != n or any(len(r) != n for r in body):
        raise UsageError(f"expected {n} rows of {n} colors")
    matrix = np.array(body, dtype=np.int64)
    if one_based:
        if (matrix < 1).any():
            raise UsageError(f"1-based colors must be at least 1, not {matrix.min()}")
        matrix -= 1
    return from_color_matrix(matrix)


def _load_scheme(args) -> Scheme:
    path = Path(args.file)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    scheme = parse_scheme_file(text, one_based=args.one_based)
    args.rank = scheme.rank  # named if a later step runs out of memory
    scheme.tensor  # force the regularity certificate; raises with a witness
    return scheme


def _blocks_str(blocks) -> str:
    return "[" + ",".join(f"({f},{m})" for f, m in blocks) + "]"


def cmd_gen(args) -> int:
    scheme = from_spec(" ".join([args.family, *args.params]))
    sys.stdout.write(format_scheme_file(scheme))
    return 0


def cmd_info(args) -> int:
    scheme = _load_scheme(args)
    stats = relation_stats(scheme)
    flags = classify(scheme)
    print(f"n={scheme.size} r={scheme.rank} cells={[len(c) for c in scheme.cells]}")
    print(
        f"flags: homogeneous={str(flags.homogeneous).lower()}"
        f" commutative={str(flags.commutative).lower()}"
        f" symmetric={str(flags.symmetric).lower()}"
    )
    print("rel size out in fiber")
    for rel in range(scheme.rank):
        fiber = scheme.fiber_of[rel]
        print(
            f"{rel} {scheme.relation_sizes[rel]} {stats.out_degrees[rel]}"
            f" {stats.in_degrees[rel]} ({fiber[0]},{fiber[1]})"
        )
    digest = hashlib.sha256()
    digest.update(f"{scheme.size},{scheme.rank};".encode())
    digest.update(scheme.tensor.tobytes())
    print(f"tensor_digest={digest.hexdigest()[:16]}")
    return 0


def cmd_frame(args) -> int:
    options = VerifyOptions(seed=args.seed)
    scheme = _load_scheme(args)
    wd = decompose(scheme, seed=options.seed)
    fn = frame_number(scheme, wd)
    print(
        f"blocks={_blocks_str(wd.blocks)} F={fn.frame} N={encode_quotient(fn.quotient)}"
    )
    return 0


def cmd_radical(args) -> int:
    scheme = _load_scheme(args)
    res = radical_chain(modular_algebra(scheme, args.p))
    print(f"rad_dim={res.dim} semisimple={str(res.dim == 0).lower()}")
    return 0


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(to_json_line(report))
        return
    print(
        f"{report['scheme_id']}: n={report['n']} r={report['r']}"
        f" cells={report['cells']} F={report['frame']}"
        f" pass={str(report['pass']).lower()}"
    )
    marks = {True: "ok", False: "FAIL", None: "-"}
    for row in report["rows"]:
        print(
            f"  p={row['p']} divides_frame={str(row['p_divides_frame']).lower()}"
            f" rad_dim={row['rad_dim']}"
            f" semisimple={str(row['semisimple']).lower()}"
            f" witness={marks[row['witness_ok']]}"
            f" oracle={marks[row['oracle_ok']]}"
        )


def cmd_verify(args) -> int:
    options = VerifyOptions(seed=args.seed)
    if args.corpus == (args.file is not None):
        raise UsageError("give exactly one of a scheme file or --corpus")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, not {args.jobs}")
    if args.file is not None:
        scheme = _load_scheme(args)
        report = verify_scheme(Path(args.file).stem, scheme, options)
        _print_report(report, args.json)
        return 0 if report["pass"] else 1
    ids = corpus_ids()
    done = []
    if args.out and Path(args.out).exists():
        done = read_reports(args.out)
        done_ids = {rep["scheme_id"] for rep in done}
        ids = [sid for sid in ids if sid not in done_ids]
    reports, _ = verify_corpus(options, ids=ids, jobs=args.jobs)
    if args.out:
        write_reports(args.out, reports, append=bool(done))
        reports = sorted(done + reports, key=lambda rep: rep["scheme_id"])
    else:
        for rep in reports:
            _print_report(rep, args.json)
        reports = done + reports
    summary = summarize(reports)
    print(
        f"schemes={summary['schemes']} failed={summary['schemes_failed']}"
        f" primes_tested={summary['primes_tested']}"
        f" rows_failed={summary['rows_failed']}",
        file=sys.stderr if args.json and not args.out else sys.stdout,
    )
    return 0 if summary["schemes_failed"] == 0 and summary["rows_failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellalg",
        description="Build coherent configurations and test modular semisimplicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a scheme file for a named family")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*")
    p_gen.set_defaults(func=cmd_gen)

    for name, func, help_text in [
        ("info", cmd_info, "print structure of a scheme file"),
        ("frame", cmd_frame, "print Wedderburn blocks and Frame number"),
        ("radical", cmd_radical, "radical dimension over F_p"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--one-based", action="store_true")
        if name == "frame":
            p.add_argument("--seed", type=int, default=0)
        if name == "radical":
            p.add_argument("--p", type=int, required=True)
        p.set_defaults(func=func)

    p_ver = sub.add_parser("verify", help="run the full verification")
    p_ver.add_argument("file", nargs="?")
    p_ver.add_argument("--corpus", action="store_true")
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument("--one-based", action="store_true")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemeError as exc:
        print(f"invalid scheme: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        rank = getattr(args, "rank", None)
        where = "" if rank is None else (
            f" on a scheme of rank r = {rank}, whose intersection tensor alone"
            " holds r^3 integers"
        )
        print(f"error: out of memory{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
