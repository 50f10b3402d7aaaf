"""Outside-in tracing of the cellalg layers.

A Tracer wraps public functions of the package from outside: it replaces
every module attribute of a loaded `cellalg.*` module that refers to the
original function (so re-imports such as `cellalg.radical.rref_mod_p` are
covered too) and puts the originals back on `restore()`.  Each call becomes
a span (id, parent id, name, start, end, scheme id, p) kept in memory.

Spans made in worker processes forked by the library's process pool are
appended to one file per worker after each `verify_scheme` call, because a
worker exits without running clean-up code; `collect()` merges them back.
The files are named after the parent process too, so that benchmark runs
sharing a directory leave each other's files alone.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

VERIFY = "harness.verify_scheme"

# (layer, function, where p is found: argument index, "alg" for the .p of
# the first argument, or None to inherit it from the enclosing span)
TARGETS = (
    ("harness", "verify_corpus", None),
    ("harness", "verify_scheme", None),
    ("generators", "build_scheme", None),
    ("generators", "rank2", None),
    ("generators", "discrete", None),
    ("generators", "hamming", None),
    ("generators", "johnson", None),
    ("generators", "thin_group_scheme", None),
    ("generators", "schurian", None),
    ("generators", "direct_sum", None),
    ("scheme", "from_color_matrix", None),
    ("scheme", "verify_regularity", None),
    ("discriminant", "discriminant_standard", None),
    ("discriminant", "gram_standard", None),
    ("wedderburn", "center_basis", None),
    ("wedderburn", "decompose", None),
    ("wedderburn", "frame_number", None),
    ("radical", "modular_algebra", 1),
    ("radical", "radical_chain", "alg"),
    ("radical", "radical_oracle", "alg"),
    ("radical", "central_nilpotent_witness", 1),
    ("linalg", "rref_mod_p", 1),
    ("linalg", "kernel_mod_p", 1),
    ("linalg", "charpoly_mod_p", 1),
    ("linalg", "in_row_space_mod_p", 2),
    ("linalg", "multiply_mod", 3),
    ("linalg", "rref_rational", None),
    ("linalg", "kernel_rational", None),
    ("linalg", "det_fraction_free", None),
)


def _count_oracle(counts, args, kwargs, result):
    alg = args[0]
    counts["elements"] += alg.p**alg.rank
    counts["members"] += alg.p**result.dim


def _count_charpoly(counts, args, kwargs, result):
    batch, n = args[0].shape[0], args[0].shape[1]
    counts["matrices"] += batch
    counts["module_dim"] += n
    counts["ops"] += batch * n**4 / 4


def _count_decompose(counts, args, kwargs, result):
    seed = kwargs.get("seed", args[1] if len(args) > 1 else 0)
    counts["retries"] += result.seed - seed


COUNTERS = {
    "radical.radical_oracle": _count_oracle,
    "linalg.charpoly_mod_p": _count_charpoly,
    "wedderburn.decompose": _count_decompose,
}


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cellalg" or name.startswith("cellalg."))]


class Tracer:
    """Spans for the wrapped functions; `full=False` wraps only
    `verify_scheme`, which is enough for per-scheme times."""

    def __init__(self, workdir: Path, full: bool):
        self.workdir = workdir
        self.targets = TARGETS if full else [t for t in TARGETS if f"{t[0]}.{t[1]}" == VERIFY]
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[tuple] = []  # (span id, scheme id, p)
        self._seq = 0
        self._pid = self._owner = os.getpid()
        self._child = False
        self._patched: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)
        for stale in workdir.glob(f"worker-{self._owner}-*.jsonl"):
            stale.unlink()

    def _after_fork(self):
        self._pid = os.getpid()
        self._child = True
        self.reset()

    def _wrap(self, name, fn, p_arg):
        counter = COUNTERS.get(name)
        top_level = name in (VERIFY, "generators.build_scheme")
        stack = self._stack

        def traced(*args, **kwargs):
            parent, scheme_id, p = stack[-1] if stack else (None, None, None)
            if top_level:
                scheme_id = args[0]
            if p_arg == "alg":
                p = args[0].p
            elif p_arg is not None:
                p = kwargs.get("p", args[p_arg] if len(args) > p_arg else p)
            self._seq += 1
            span_id = f"{self._pid}:{self._seq}"
            stack.append((span_id, scheme_id, p))
            counts = self.counts.setdefault(name, Counter())
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, scheme_id, p))
                counts["calls"] += 1
                counts["failed"] += not ok
                if self._child and name == VERIFY:
                    self._flush()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = _modules()
        for layer, fname, p_arg in self.targets:
            orig = getattr(importlib.import_module(f"cellalg.{layer}"), fname)
            wrapped = self._wrap(f"{layer}.{fname}", orig, p_arg)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _flush(self) -> None:
        with open(self.workdir / f"worker-{self._owner}-{self._pid}.jsonl", "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.reset()

    def collect(self) -> None:
        """Merge and delete what worker processes wrote since the last call."""
        for path in sorted(self.workdir.glob(f"worker-{self._owner}-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.spans.extend(tuple(s) for s in rec["spans"])
                    for name, cnt in rec["counts"].items():
                        self.counts.setdefault(name, Counter()).update(cnt)
            path.unlink()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def scheme_times(self) -> dict[str, float]:
        return {s[5]: s[4] - s[3] for s in self.spans if s[2] == VERIFY}

    def write_jsonl(self, path: Path, origin: float) -> None:
        keys = ("id", "parent", "name", "start", "end", "scheme", "p")
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[3]):
                rec = dict(zip(keys, span))
                rec["start"] -= origin
                rec["end"] -= origin
                fh.write(json.dumps(rec) + "\n")

    def profile(self) -> dict[str, dict[str, float]]:
        """Per function: calls, failed, self_s, total_s and the counters.

        Self time is a span's duration minus that of its direct children in
        the same process; children in pool workers run beside their parent.
        """
        child_time: dict[str, float] = {}
        for span_id, parent, _, start, end, _, _ in self.spans:
            if parent is not None and parent.split(":")[0] == span_id.split(":")[0]:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0})
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(span_id, 0.0)
        for name, cnt in self.counts.items():
            out.setdefault(name, {"self_s": 0.0, "total_s": 0.0}).update(cnt)
        return out
