"""Benchmark of the cellalg verification pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

All four workloads, then their per-layer profiles:

    for w in corpus corpus-jobs2 large-n high-rank; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done
    for w in corpus corpus-jobs2 large-n high-rank; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done

Run from the root of a source checkout; the package is imported from
`src/`, and nothing is installed.  One run:

1. imports `cellalg` and builds the workload's schemes, several times, and
   reports the median as `setup_s`;
2. verifies every scheme of the workload once, with tracing off apart from
   a timer around each `verify_scheme` call.  The run times this one pass
   whatever `--seconds` says (one pass takes 10-22 s on a 2-core host): it
   runs cold, as in a `cellalg verify` process, while later passes in the
   same process run 10-25 % faster on large-n and high-rank, so a pass
   count that changed with the host's speed would bias the figures;
3. with `--trace 1`, makes one more pass with every layer wrapped (see
   spans.py), writes the spans to `perfbench/out/` as JSONL and prints a
   per-layer table;
4. checks the reports (see workloads.py): the main theorem on every
   completed row, |disc| = prod |R|, closed forms, seed-0 results after
   relabelling, byte-identical same-seed reruns and, for corpus-jobs2,
   pool bytes equal to those of a serial corpus run with the same seed
   (taken from an earlier corpus run on the same sources, else made here).

The last line of standard output is one JSON object with the end-to-end
metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).  The exit
code is 1 when a check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (loaded before timing, so set-up times exclude it)

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("corpus", "corpus-jobs2", "large-n", "high-rank")
SETUP_REPEATS = 15

# (metric, function, field, unit); a field of None sums self time over the
# functions of a layer.
PER_LAYER = (
    ("harness.verify_scheme.self_s", "harness.verify_scheme", "self_s", "s"),
    ("generators.self_s", "generators", None, "s"),
    ("scheme.verify_regularity.self_s", "scheme.verify_regularity", "self_s", "s"),
    ("discriminant.discriminant_standard.self_s", "discriminant.discriminant_standard", "self_s", "s"),
    ("linalg.det_fraction_free.self_s", "linalg.det_fraction_free", "self_s", "s"),
    ("wedderburn.center_basis.self_s", "wedderburn.center_basis", "self_s", "s"),
    ("wedderburn.decompose.self_s", "wedderburn.decompose", "self_s", "s"),
    ("wedderburn.decompose.retries", "wedderburn.decompose", "retries", "count"),
    ("wedderburn.decompose.failed", "wedderburn.decompose", "failed", "count"),
    ("linalg.kernel_rational.self_s", "linalg.kernel_rational", "self_s", "s"),
    ("radical.modular_algebra.self_s", "radical.modular_algebra", "self_s", "s"),
    ("radical.radical_chain.self_s", "radical.radical_chain", "self_s", "s"),
    ("radical.radical_chain.calls", "radical.radical_chain", "calls", "count"),
    ("linalg.charpoly_mod_p.self_s", "linalg.charpoly_mod_p", "self_s", "s"),
    ("linalg.charpoly_mod_p.calls", "linalg.charpoly_mod_p", "calls", "count"),
    ("linalg.charpoly_mod_p.matrices", "linalg.charpoly_mod_p", "matrices", "count"),
    ("linalg.charpoly_mod_p.module_dim", "linalg.charpoly_mod_p", "module_dim", "count"),
    ("linalg.charpoly_mod_p.ops", "linalg.charpoly_mod_p", "ops", "ops"),
    ("radical.radical_oracle.self_s", "radical.radical_oracle", "self_s", "s"),
    ("radical.radical_oracle.calls", "radical.radical_oracle", "calls", "count"),
    ("radical.radical_oracle.elements", "radical.radical_oracle", "elements", "count"),
    ("linalg.rref_mod_p.self_s", "linalg.rref_mod_p", "self_s", "s"),
    ("linalg.rref_mod_p.calls", "linalg.rref_mod_p", "calls", "count"),
    ("radical.central_nilpotent_witness.self_s", "radical.central_nilpotent_witness", "self_s", "s"),
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cellalg():
    """A fresh import of the package (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "cellalg" or m.startswith("cellalg.")]:
        del sys.modules[name]
    return importlib.import_module("cellalg")


def setup(workload: str, seed: int):
    """Import the package afresh and build the workload: (package, seconds).
    All set-ups come before the timed pass, as in a fresh process."""
    start = time.perf_counter()
    cellalg = import_cellalg()
    workloads.build(cellalg, workload, seed)
    return cellalg, time.perf_counter() - start


def run_pass(cellalg, workload: str, seed: int, options, failures: list):
    """One verification of every scheme: (wall seconds, reports)."""
    harness = cellalg.harness
    if workloads.is_corpus(workload):
        start = time.perf_counter()
        reports, _ = harness.verify_corpus(options, jobs=workloads.jobs(workload))
        return time.perf_counter() - start, reports
    schemes = workloads.build(cellalg, workload, seed)
    reports = []
    start = time.perf_counter()
    for sid, scheme in schemes.items():
        try:
            reports.append(harness.verify_scheme(sid, scheme, options))
        except Exception:
            failures.append(sid)
            traceback.print_exc()
    return time.perf_counter() - start, reports


def lines_by_id(cellalg, reports) -> dict[str, str]:
    return {rep["scheme_id"]: cellalg.harness.to_json_line(rep) for rep in reports}


def serial_corpus_file(seed: int) -> Path:
    """Where a serial corpus run leaves its report lines and wall time for
    corpus-jobs2 runs with the same seed and the same package sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cellalg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return OUT / f"serial-corpus-{digest.hexdigest()[:16]}-seed{seed}.json"


def save_serial_corpus(seed: int, wall: float, lines: dict[str, str]) -> None:
    path = serial_corpus_file(seed)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"wall_s": wall, "lines": lines}))
    tmp.replace(path)


def rerun_problems(cellalg, workload, seed, options, first: dict[str, str]):
    """Same-seed rerun of a cheap subset; for corpus-jobs2, the serial corpus
    report, from a corpus run with this seed or else computed here.
    Returns (problems, serial wall seconds or None)."""
    harness = cellalg.harness
    serial_wall = None
    if workload == "corpus-jobs2":
        path = serial_corpus_file(seed)
        if not path.is_file():
            start = time.perf_counter()
            reports, _ = harness.verify_corpus(options, jobs=1)
            save_serial_corpus(seed, time.perf_counter() - start, lines_by_id(cellalg, reports))
        serial = json.loads(path.read_text())
        again, serial_wall = serial["lines"], serial["wall_s"]
    else:
        if workloads.is_corpus(workload):
            reports, _ = harness.verify_corpus(options, ids=list(workloads.RERUN[workload]))
        else:
            schemes = workloads.build(cellalg, workload, seed, ids=workloads.RERUN[workload])
            reports = [harness.verify_scheme(sid, s, options) for sid, s in schemes.items()]
        again = lines_by_id(cellalg, reports)
    what = "serial" if serial_wall is not None else "same-seed rerun"
    problems = [f"{sid}: {what} report bytes differ" for sid, line in again.items()
                if first.get(sid) != line]
    if serial_wall is not None and list(again) != list(first):
        problems.append("pool and serial reports list different schemes")
    return problems, serial_wall


def span_cost(calls: int = 100_000) -> float:
    """Seconds a traced call adds, measured on a function that does nothing.
    The measured overhead of a traced pass moves with the host's speed by
    more than this adds up to, so both are printed."""
    def noop():
        return None

    traced = Tracer(OUT, full=False)._wrap("noop", noop, None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    mid = time.perf_counter()
    for _ in range(calls):
        noop()
    return (2 * mid - start - time.perf_counter()) / calls


def layer_metrics(profile: dict, overhead: float, spans: int) -> dict:
    def get(func, field):
        return float(profile.get(func, {}).get(field, 0))

    out = {}
    for metric, func, field, unit in PER_LAYER:
        if field is None:
            value = sum(row["self_s"] for name, row in profile.items()
                        if name.startswith(func + "."))
        else:
            value = get(func, field)
        out[metric] = {"value": value, "unit": unit}
    elements = get("radical.radical_oracle", "elements")
    members = get("radical.radical_oracle", "members")
    out["radical.radical_oracle.useful_ratio"] = {
        "value": members / elements if elements else 0.0, "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.spans"] = {"value": spans, "unit": "count"}
    return out


def print_profile(profile: dict) -> None:
    total = sum(row["self_s"] for row in profile.values()) or 1.0
    print(f"{'function':38s} {'calls':>8s} {'self_s':>9s} {'share':>6s} {'total_s':>9s}")
    for name, row in sorted(profile.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:38s} {int(row.get('calls', 0)):8d} {row['self_s']:9.3f} "
              f"{row['self_s'] / total:6.1%} {row['total_s']:9.3f}")
    layers: dict[str, float] = {}
    for name, row in profile.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    print("layer self time: " + ", ".join(
        f"{layer} {secs:.3f} s" for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1])))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; a run always times exactly one cold pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload, seed = args.workload, args.seed

    if not (SRC / "cellalg" / "__init__.py").is_file():
        die(f"no cellalg package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cellalg, seconds = setup(workload, seed)
        setup_times.append(seconds)
    if not Path(cellalg.__file__).resolve().is_relative_to(SRC):
        die(f"cellalg was imported from {cellalg.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)

    options = cellalg.VerifyOptions(seed=seed)
    failures: list[str] = []
    timer = Tracer(OUT, full=False)
    timer.install()
    began = time.perf_counter()
    wall_s, reports = run_pass(cellalg, workload, seed, options, failures)
    timer.collect()
    scheme_times = timer.scheme_times()
    lines = lines_by_id(cellalg, reports)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = usage / 1024
    timer.restore()

    layer = None
    if args.trace:
        tracer = Tracer(OUT, full=True)
        tracer.install()
        try:
            traced_wall, _ = run_pass(cellalg, workload, seed, options, [])
        finally:
            tracer.restore()
        tracer.collect()
        # the first pass of a process runs cold, so the untraced base for the
        # overhead is a pass made after the traced one
        base_wall, _ = run_pass(cellalg, workload, seed, options, [])
        path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path, began)
        profile = tracer.profile()
        overhead = traced_wall - base_wall
        layer = layer_metrics(profile, overhead, len(tracer.spans))
        print(f"per-layer profile, {workload}, seed {seed} "
              f"({len(tracer.spans)} spans written to {path.relative_to(ROOT)})")
        if workloads.jobs(workload) > 1:
            print("(the self time of harness.verify_corpus is the parent waiting for the pool)")
        print_profile(profile)
        per_span = span_cost()
        print(f"tracing overhead: traced wall {traced_wall:.3f} s - untraced "
              f"{base_wall:.3f} s = {overhead:.3f} s; computed from the cost of a "
              f"span on a no-op, {len(tracer.spans)} x {per_span * 1e6:.2f} us = "
              f"{len(tracer.spans) * per_span:.3f} s")

    schemes = workloads.build(cellalg, workload, seed)
    expected = workloads.load_expected(workload)
    problems: list[str] = []
    for rep in reports:
        problems.extend(workloads.check_report(rep, schemes[rep["scheme_id"]], expected))
    rerun, serial_wall = rerun_problems(cellalg, workload, seed, options, lines)
    problems.extend(rerun)
    if workload == "corpus":
        save_serial_corpus(seed, wall_s, lines)

    rows = [row for rep in reports for row in rep["rows"]]
    rows_ok = sum(1 for row in rows if workloads.row_ok(row))
    schemes_ok = sum(1 for rep in reports if rep["pass"])
    slowest = sorted(scheme_times.items(), key=lambda kv: -kv[1])[:10]
    end_to_end = {
        "wall_s": (wall_s, "s", "1 cold pass"),
        "scheme_max_s": (slowest[0][1], "s", f"1 cold pass; slowest {slowest[0][0]}"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (peak_rss_mb, "MB", "largest resident set of this process"
                        + (" plus that of the largest pool worker" if workloads.jobs(workload) > 1 else "")),
        "rows_ok_frac": (rows_ok / len(rows), "ratio",
                         f"{rows_ok} of {len(rows)} rows; rows_failed_frac "
                         f"{len(rows) - rows_ok}/{len(rows)}"),
        "schemes_ok_frac": (schemes_ok / len(reports), "ratio",
                            f"{schemes_ok} of {len(reports)} schemes; schemes_failed_frac "
                            f"{len(reports) - schemes_ok}/{len(reports)}"),
    }
    print(f"workload {workload}, seed {seed}: {len(reports)} schemes")
    for name, (value, unit, note) in end_to_end.items():
        print(f"  {name:16s} {value:12.4f} {unit:5s} {note}")
    print("  slowest schemes: " + ", ".join(f"{sid} {secs:.3f} s" for sid, secs in slowest))
    if serial_wall is not None:
        print(f"  parallel efficiency {serial_wall / (2 * wall_s):.3f} = serial corpus wall "
              f"{serial_wall:.3f} s / (2 workers x pool wall {wall_s:.3f} s)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if failures:
        print(f"verify_scheme raised on: {', '.join(failures)}")

    if layer is not None:
        metrics = layer
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in end_to_end.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(scheme_times),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
