"""Run one `diamondqc sweep` with a span around the public function of each
layer, recorded from outside the package by replacing module attributes.

    python3 traced_sweep.py SPANS_JSON sweep --preset fig2a --out x.csv ...

Spans are kept in memory and written to SPANS_JSON once, when the sweep
has ended. Each span is {name, parent, pid, t0, t1} plus counts; parent is
the name of the enclosing span in the same process. Pool workers (forked,
so they inherit the wrappers) hand their spans back with each chunk result.
The oracle modules are wrapped when they are first imported, so tracing
does not move their import cost into the sweep's import span.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.worker_chunks = 0  # chunks run in this pool worker (0 in the parent)

    def wrap(self, name, fn, counts=None):
        """fn with a span; counts(result, args) adds numbers to the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                    "pid": os.getpid(), "t0": time.perf_counter()}
            self.stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["t1"] = time.perf_counter()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(result, args))
            return result
        return traced


TRACER = Tracer()


def _rows(result, args):
    return {"rows": int(result[0].size)}


def _csv_bytes(result, args):
    return {"bytes": os.path.getsize(args[1])}


class _Carrier:
    """A worker's chunk result plus the spans recorded while computing it;
    unpickles in the parent as the bare array."""

    def __init__(self, array, spans):
        self.array, self.spans = array, spans

    def __reduce__(self):
        return _unpack, (self.array, self.spans)


def _unpack(array, spans):
    TRACER.spans.extend(spans)
    return array


def _wrap_chunk(fn):
    traced = TRACER.wrap("sweep.chunk", fn)

    @functools.wraps(fn)
    def chunk(*args):
        if os.getpid() == TRACER.pid:
            return traced(*args)
        # Tracing inherited from the parent's run_sweep is stopped. A
        # worker's first chunk is traced afresh for its allocation peak;
        # chunks are of equal size, and tracing every one of them would
        # slow the workers by half.
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        first = TRACER.worker_chunks == 0
        TRACER.worker_chunks += 1
        if first:
            ALLOC.base = ALLOC.peak = 0
            tracemalloc.start()
        start = len(TRACER.spans)
        try:
            out = traced(*args)
        finally:
            if first:
                ALLOC._fold()
                tracemalloc.stop()
        if first:
            TRACER.spans[-1]["worker_alloc_peak_bytes"] = ALLOC.peak
        spans = TRACER.spans[start:]
        del TRACER.spans[start:]
        return _Carrier(out, spans)
    return chunk


class AllocPeak:
    """Peak of traced allocations during run_sweep.

    tracemalloc is paused inside the oracle searches, whose many small
    temporaries would make tracing slow them several-fold; the memory
    live at each pause is carried over as a base for the next segment."""

    def __init__(self):
        self.base = self.peak = 0

    def _fold(self):
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, self.base + peak)
        return current

    def around_run_sweep(self, fn):
        traced = TRACER.wrap("sweep.run_sweep", fn)

        @functools.wraps(fn)
        def run_sweep(*args, **kwargs):
            self.base = self.peak = 0
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self._fold()
                tracemalloc.stop()
                TRACER.spans[-1]["alloc_peak_bytes"] = self.peak
        return run_sweep

    def paused(self, fn):
        @functools.wraps(fn)
        def untraced(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            self.base += self._fold()
            tracemalloc.stop()
            try:
                return fn(*args, **kwargs)
            finally:
                tracemalloc.start()
        return untraced


ALLOC = AllocPeak()


def _patch_sweep(mod):
    mod.figure_preset = TRACER.wrap("sweep.figure_preset", mod.figure_preset)
    mod.read_sweep_config = TRACER.wrap("sweep.read_sweep_config", mod.read_sweep_config)
    mod.grid_coords = TRACER.wrap("sweep.grid_coords", mod.grid_coords)
    mod.thermal_entries_grid = TRACER.wrap("model.thermal_entries_grid",
                                           mod.thermal_entries_grid, _rows)
    mod.x_state_measures = TRACER.wrap("measures.x_state_measures", mod.x_state_measures)
    mod._chunk_measures = _wrap_chunk(mod._chunk_measures)
    mod.run_sweep = ALLOC.around_run_sweep(mod.run_sweep)
    mod.emit_csv = TRACER.wrap("sweep.emit_csv", mod.emit_csv, _csv_bytes)


def _patch_discord_search(mod):
    mod.cond_entropy_grid = TRACER.wrap("oracle.cond_entropy_grid", mod.cond_entropy_grid)
    mod.qd_bruteforce = TRACER.wrap("oracle.qd_bruteforce", ALLOC.paused(mod.qd_bruteforce))


def _patch_cq_search(mod):
    mod.trace_norm_diff_batch = TRACER.wrap("oracle.trace_norm_diff_batch",
                                            mod.trace_norm_diff_batch)
    mod.tdd_bruteforce = TRACER.wrap("oracle.tdd_bruteforce", ALLOC.paused(mod.tdd_bruteforce))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies a patch to a module right after it first executes."""

    def __init__(self, patches):
        self.patches = patches

    def find_spec(self, name, path, target=None):
        patch = self.patches.get(name)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch(module)
        spec.loader.exec_module = exec_and_patch
        return spec


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    sys.meta_path.insert(0, _PatchOnImport({
        "diamondqc.oracle.discord_search": _patch_discord_search,
        "diamondqc.oracle.cq_search": _patch_cq_search,
    }))
    t0 = time.perf_counter()
    import diamondqc.cli as cli
    import diamondqc.sweep as sweep
    TRACER.spans.append({"name": "import", "parent": None, "pid": TRACER.pid,
                         "t0": t0, "t1": time.perf_counter()})
    _patch_sweep(sweep)
    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"start": T_START, "end": time.perf_counter(), "exit": code,
                   "spans": TRACER.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
