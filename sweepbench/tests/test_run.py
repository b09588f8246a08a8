"""The driver's per-layer and end-to-end arithmetic."""
import pytest

import run


def _span(name, parent, t0, t1, **extra):
    return dict(name=name, parent=parent, pid=1, t0=t0, t1=t1, **extra)


def test_layer_totals_split_run_sweep():
    spans = [
        _span("import", None, 0.0, 1.5),
        _span("sweep.figure_preset", None, 1.5, 1.6),
        _span("sweep.grid_coords", "sweep.run_sweep", 1.6, 1.7),
        _span("model.thermal_entries_grid", "sweep.chunk", 1.7, 2.0, rows=10),
        _span("oracle.tdd_bruteforce", "measures.x_state_measures", 2.0, 2.5),
        _span("measures.x_state_measures", "sweep.chunk", 2.0, 2.6),
        _span("sweep.chunk", "sweep.run_sweep", 1.7, 2.6, worker_alloc_peak_bytes=1024 * 1024),
        _span("model.thermal_entries_grid", "sweep.run_sweep", 2.6, 2.7, rows=1),
        _span("oracle.qd_bruteforce", "sweep.run_sweep", 2.7, 3.0),
        _span("sweep.run_sweep", None, 1.6, 3.2, alloc_peak_bytes=2 * 1024 * 1024),
        _span("sweep.emit_csv", None, 3.2, 3.5, bytes=1000),
    ]
    got = run.layer_totals(spans)
    assert got["import.s"] == pytest.approx(1.5)
    assert got["sweep.run_sweep_s"] == pytest.approx(1.6)
    # run_sweep less entries (0.4), measures (0.6, the fallback inside it
    # counted once) and the top-level oracle call (0.3).
    assert got["sweep.executor_overhead_s"] == pytest.approx(0.3)
    assert got["model.rows"] == 11
    assert got["measures.tdd_fallback_calls"] == 1
    assert got["oracle.tdd_bruteforce_calls"] == 1
    assert got["oracle.qd_bruteforce_calls"] == 1
    assert got["sweep.chunks"] == 1
    assert got["sweep.run_sweep_alloc_peak_mb"] == pytest.approx(2.0)
    assert got["sweep.worker_chunk_alloc_peak_mb"] == pytest.approx(1.0)
    assert got["sweep.csv_bytes"] == 1000


def test_end_to_end_takes_medians_over_rounds():
    rounds = [[{"wall": 1.0, "rows": 10, "rss_mb": 50.0},
               {"wall": 3.0, "rows": 30, "rss_mb": 70.0}],
              [{"wall": 2.0, "rows": 10, "rss_mb": 60.0},
               {"wall": 4.0, "rows": 30, "rss_mb": 80.0}],
              [{"wall": 1.5, "rows": 10, "rss_mb": 55.0},
               {"wall": 2.5, "rows": 30, "rss_mb": 90.0}]]
    got = run.end_to_end([1.2, 1.0, 1.1], rounds)
    assert got["setup_s"] == pytest.approx(1.1)
    assert got["sweep_s"] == pytest.approx(2.0)      # round means 2, 3, 2
    assert got["rows_per_s"] == pytest.approx(10.0)  # 40 rows over 4, 6, 4 s
    assert got["peak_rss_mb"] == pytest.approx(80.0)
