"""Sweep benchmark for diamondqc: times `diamondqc sweep` end to end, checks
every row it writes against an independent reference, and, with --trace 1,
times each layer of the sweep path.

    python3 sweepbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
./src. Each sweep is a fresh interpreter, spawned one at a time. A run
repeats whole rounds of its workload until --seconds have passed. Outputs,
traces and the cached reference go to ./.sweepbench/. The last line of
standard output is one JSON object: correct, attempted and failed rows, and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS, round_sweeps  # noqa: E402

SETUP_REPS = 3
# The CLI's --seed picks the oracle's random starts, and with them how long
# each search runs; every sweep gets the same one, so the run seed changes
# only what the workload chooses (the preset order), not the program's work.
SWEEP_SEED = 0
MB = 1024.0 * 1024.0


def metric_units(path=os.path.join(os.path.dirname(HERE), "BENCHMARK.json")):
    """({end-to-end name: unit}, {per-layer name: unit}) from BENCHMARK.json."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class Bench:
    def __init__(self, root, workload, seed):
        self.sweeps = round_sweeps(workload, seed)
        self.out = os.path.join(root, ".sweepbench")
        self.tmp = os.path.join(self.out, "work")
        os.makedirs(self.tmp, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.files = {}    # digest -> path of a kept output with that content

    def spawn(self, argv, log_name):
        """Run python3 ARGV to completion: (wall s, exit code, max RSS MB).

        The RSS is wait4's ru_maxrss: the largest of the process and the
        children it waited for (the sweep's pool workers)."""
        log = os.path.join(self.tmp, log_name + ".log")
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                               (os.POSIX_SPAWN_DUP2, fd, 2)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.close(fd)
        return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0

    def setup_times(self):
        times = []
        for k in range(SETUP_REPS):
            sw = self.sweeps[k % len(self.sweeps)]
            args = sw.cli_args(os.path.join(self.tmp, "unused.csv"), SWEEP_SEED, self.tmp)
            wall, code, _ = self.spawn([os.path.join(HERE, "setup_probe.py")] + args,
                                       "setup")
            if code != 0:
                raise RuntimeError(f"set-up probe for {sw.label} exited {code}")
            times.append(wall)
        return times

    def sweep(self, sw, traced=False):
        """One sweep; returns its record and, if traced, its spans."""
        csv = os.path.join(self.tmp, sw.label + ".csv")
        if os.path.exists(csv):
            os.remove(csv)
        args = sw.cli_args(csv, SWEEP_SEED, self.tmp)
        spans_path = os.path.join(self.tmp, sw.label + ".spans.json")
        argv = ([os.path.join(HERE, "traced_sweep.py"), spans_path] + args if traced
                else ["-m", "diamondqc.cli"] + args)
        wall, code, rss = self.spawn(argv, sw.label)
        rec = {"label": sw.label, "wall": wall, "exit": code, "rss_mb": rss,
               "rows": sw.n_rows(), "digest": None}
        if code == 0 and os.path.exists(csv):
            with open(csv, "rb") as fh:
                rec["digest"] = hashlib.sha256(fh.read()).hexdigest()
                # Keep one file per distinct content, written back now, and
                # drop repeats at once: a large output still being written
                # back would otherwise slow the next sweep.
                if rec["digest"] not in self.files:
                    os.fsync(fh.fileno())
            if rec["digest"] in self.files:
                os.remove(csv)
            else:
                kept = os.path.join(self.tmp, f"{sw.label}.{rec['digest'][:12]}.csv")
                os.replace(csv, kept)
                self.files[rec["digest"]] = kept
        spans = None
        if traced:
            spans = {"spans": []}
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)
                os.remove(spans_path)
        return rec, spans

    def reference_for(self, sw):
        """Reference table for a sweep's grid, cached under .sweepbench/ by
        the grid and the reference code."""
        grid = sw.coords()
        h = hashlib.sha256(grid.tobytes())
        with open(reference.__file__, "rb") as fh:
            h.update(fh.read())
        path = os.path.join(self.out, f"ref-{sw.label}-{h.hexdigest()[:16]}.npz")
        if os.path.exists(path):
            with np.load(path) as data:
                return grid, dict(data)
        ref = reference.reference_table(grid)
        np.savez(path + ".tmp.npz", **ref)
        os.replace(path + ".tmp.npz", path)
        return grid, ref

    def check(self, records):
        """Check every distinct output once; returns per-record results."""
        by_label = {sw.label: sw for sw in self.sweeps}
        results = {}
        for digest, path in self.files.items():
            label = next(r["label"] for r in records if r["digest"] == digest)
            sw = by_label[label]
            grid, ref = self.reference_for(sw)
            with open(path, "rb") as fh:
                results[digest] = checks.check_csv(fh.read(), sw, SWEEP_SEED, grid, ref)
        out = []
        for rec in records:
            res = results.get(rec["digest"])
            if res is None:
                res = checks.CsvResult(n_rows=rec["rows"],
                                       malformed=f"sweep exited with code {rec['exit']}")
            out.append(res)
        return out


def _median(values):
    return float(statistics.median(values))


def _round_walls(rounds):
    return [sum(r["wall"] for r in rnd) for rnd in rounds]


def end_to_end(setup, rounds):
    # Per round, not per sweep: the median of a mix of short and long sweeps
    # (presets) jumps between the two sizes with small timing changes.
    return {
        "setup_s": _median(setup),
        "sweep_s": _median([w / len(rnd) for rnd, w in zip(rounds, _round_walls(rounds))]),
        "rows_per_s": _median([sum(r["rows"] for r in rnd) / w
                               for rnd, w in zip(rounds, _round_walls(rounds))]),
        "peak_rss_mb": _median([max(r["rss_mb"] for r in rnd) for rnd in rounds]),
    }


def layer_totals(spans):
    """Per-layer numbers for one round, from the spans of its sweeps."""
    dur, calls = {}, {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["t1"] - s["t0"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    d = lambda name: dur.get(name, 0.0)
    n = lambda name: calls.get(name, 0)
    top_oracle = sum(s["t1"] - s["t0"] for s in spans
                     if s["name"].endswith("_bruteforce") and s["parent"] == "sweep.run_sweep")
    computed = d("model.thermal_entries_grid") + d("measures.x_state_measures") + top_oracle
    return {
        "import.s": d("import"),
        "sweep.spec_s": d("sweep.figure_preset") + d("sweep.read_sweep_config"),
        "sweep.grid_coords_s": d("sweep.grid_coords"),
        "sweep.run_sweep_s": d("sweep.run_sweep"),
        "sweep.executor_overhead_s": d("sweep.run_sweep") - computed,
        "sweep.chunks": n("sweep.chunk"),
        "sweep.run_sweep_alloc_peak_mb": max(
            [s["alloc_peak_bytes"] / MB for s in spans if "alloc_peak_bytes" in s],
            default=0.0),
        "sweep.worker_chunk_alloc_peak_mb": max(
            [s["worker_alloc_peak_bytes"] / MB for s in spans
             if "worker_alloc_peak_bytes" in s], default=0.0),
        "sweep.emit_csv_s": d("sweep.emit_csv"),
        "sweep.csv_bytes": sum(s.get("bytes", 0) for s in spans),
        "model.thermal_entries_grid_s": d("model.thermal_entries_grid"),
        "model.rows": sum(s.get("rows", 0) for s in spans),
        "measures.x_state_measures_s": d("measures.x_state_measures"),
        "measures.tdd_fallback_calls": sum(
            1 for s in spans if s["name"] == "oracle.tdd_bruteforce"
            and s["parent"] == "measures.x_state_measures"),
        "oracle.qd_bruteforce_calls": n("oracle.qd_bruteforce"),
        "oracle.qd_bruteforce_s": d("oracle.qd_bruteforce"),
        "oracle.tdd_bruteforce_calls": n("oracle.tdd_bruteforce"),
        "oracle.tdd_bruteforce_s": d("oracle.tdd_bruteforce"),
        "oracle.kernel_calls": n("oracle.cond_entropy_grid") + n("oracle.trace_norm_diff_batch"),
        "oracle.kernel_s": d("oracle.cond_entropy_grid") + d("oracle.trace_norm_diff_batch"),
    }


def report(records, results, out):
    """Human-readable lines: rows and failures per sweep, by fault."""
    seen = set()
    for rec, res in zip(records, results):
        if (rec["label"], rec["digest"]) in seen:
            continue
        seen.add((rec["label"], rec["digest"]))
        faults = ", ".join(f"{k}={v}" for k, v in sorted(res.by_fault().items())) or "none"
        print(f"# {rec['label']}: {res.n_rows} rows, {res.failed} failed ({faults})",
              file=out)
        if res.malformed:
            print(f"#   malformed: {res.malformed}", file=out)
        elif res.checks:
            print("#   failing checks: " + ", ".join(f"{k}={v}" for k, v in res.checks.items()),
                  file=out)
    for fault in checks.FAULTS:
        print(f"# {fault}: {checks.FAULT_TEXT[fault]}", file=out)


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diamondqc", "cli.py")):
        print("error: run from the root of a diamondqc checkout (no src/diamondqc/cli.py)",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = metric_units()
    bench = Bench(root, args.workload, args.seed)
    setup = [] if args.trace else bench.setup_times()
    rounds, traced_rounds = [], []
    t0 = time.perf_counter()
    while True:
        rounds.append([bench.sweep(sw)[0] for sw in bench.sweeps])
        if args.trace:
            rnd, spans = [], []
            for sw in bench.sweeps:
                rec, sp = bench.sweep(sw, traced=True)
                rnd.append(rec)
                spans.append(sp)
            traced_rounds.append((rnd, spans))
        if time.perf_counter() - t0 >= args.seconds:
            break

    records = [r for rnd in rounds for r in rnd] + [r for rnd, _ in traced_rounds for r in rnd]
    results = bench.check(records)
    report(records, results, sys.stdout)
    attempted = sum(res.n_rows for res in results)
    failed = sum(res.failed for res in results)
    correct = all(res.unexplained() == 0 for res in results)

    if args.trace:
        per_round = [layer_totals([s for sp in spans for s in sp["spans"]])
                     for _, spans in traced_rounds]
        values = {k: _median([pr[k] for pr in per_round]) for k in per_round[0]}
        plain = _median(_round_walls(rounds))
        traced = _median(_round_walls([rnd for rnd, _ in traced_rounds]))
        values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        units = per_layer_units
        trace_path = os.path.join(bench.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([sp for _, spans in traced_rounds for sp in spans], fh)
    else:
        values = end_to_end(setup, rounds)
        units = end_to_end_units
    print("# sweep walls (s): " + " ".join(f"{r['wall']:.3f}" for r in records))
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# rows attempted = {attempted}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": unit}
                                  for k, unit in units.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
