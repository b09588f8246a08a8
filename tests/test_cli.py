"""Tests for the command-line interface."""
import os
import subprocess
import sys

import numpy as np
import pytest

import diamondqc
from diamondqc import acceptance
from diamondqc.cli import main
from diamondqc.measures import correlation_report
from diamondqc.model import thermal_state
from diamondqc.params import ModelParams, ThermalPoint
from diamondqc.sweep import MEASURE_NAMES, figure_preset, run_sweep

POINT_ARGS = ["point", "--gamma", "0.6", "--Jz", "0.3",
              "--J0", "0.3", "--h", "0.35", "--T", "0.5"]


CLI = ["-m", "diamondqc.cli"]


def run_python(argv, stdout=subprocess.PIPE, unbuffered=False):
    """`python ARGV` in a child; its stdout is block-buffered, as in a shell
    pipeline, unless `unbuffered`."""
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE)


def parse_point_output(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


class TestPoint:
    def test_values_match_library(self, capsys):
        assert main(POINT_ARGS) == 0
        got = parse_point_output(capsys.readouterr().out)
        rep = correlation_report(
            thermal_state(ModelParams(gamma=0.6, jz=0.3, j0=0.3, h=0.35),
                          ThermalPoint(0.5)))
        assert set(got) == {"qd", "tdd", "concurrence", "mutual_info",
                            "entropy_ab", "entropy_a", "d1", "d2"}
        for key, value in got.items():
            assert value == pytest.approx(getattr(rep, key), abs=1e-11), key

    def test_prints_the_sweep_row(self, capsys):
        # `point` and a sweep evaluate one state path, so they print the
        # same text; the first row sits at the cold corner of the box.
        result = run_sweep(figure_preset("fig2a"))
        rows = [0] + list(range(1, result.coords.shape[0], 4999))
        for row in rows:
            j0, t, h, gamma, jz = (repr(float(v)) for v in result.coords[row])
            assert main(["point", "--J0", j0, "--T", t, "--h", h,
                         "--gamma", gamma, "--Jz", jz]) == 0
            printed = capsys.readouterr().out.splitlines()
            want = [f"{key}=%.12g" % result.column(key)[row]
                    for key in MEASURE_NAMES]
            assert printed[:len(MEASURE_NAMES)] == want, (j0, t)
        assert result.coords[0].tolist() == [-2.0, 0.02, 0.27, 0.95, 0.0]

    def test_tdd_is_not_lost_to_cancellation(self, capsys):
        # The closed form evaluated in 60-digit arithmetic on the same entries
        # gives 0.99999999280443578.
        assert main(["point", "--gamma", "1.207390811531298",
                     "--Jz", "-1.8053154014076935",
                     "--J0", "-0.12244319288511463",
                     "--h", "0.9626989942042963",
                     "--T", "0.02414607827188171"]) == 0
        assert "tdd=0.999999992804\n" in capsys.readouterr().out

    def test_cold_zero_field_state_is_spin_flip_symmetric(self, capsys):
        # The aligned bridge sectors tie at h = 0, so the cold state mixes
        # both poles and carries one bit of mutual information.
        assert main(["point", "--J0", "-2", "--T", "0.002"]) == 0
        assert "mutual_info=1\n" in capsys.readouterr().out

    def test_defaults_are_zero_couplings(self, capsys):
        assert main(["point", "--T", "1.0"]) == 0
        got = parse_point_output(capsys.readouterr().out)
        assert got["concurrence"] >= 0.0

    def test_non_positive_temperature(self, capsys):
        # ThermalPoint makes the one temperature check, for every bad value.
        for t in ("0", "-1", "nan", "inf"):
            assert main(["point", "--T", t]) == 1
            assert (f"error: temperature must be finite and positive, got {float(t)}\n"
                    == capsys.readouterr().err)

    @pytest.mark.parametrize("args", [["--T", "1e-300", "--h", "1e10"],
                                      ["--T", "5e-324"]])
    def test_overflowing_temperature_is_refused(self, args, capsys):
        # beta * energy would overflow to inf and the state to nan.
        assert main(["point"] + args) == 1
        assert capsys.readouterr().err.startswith(
            "error: beta * energy overflows float64 at T/J = ")

    def test_missing_temperature(self):
        with pytest.raises(SystemExit) as exc:
            main(["point"])
        assert exc.value.code == 1


class TestSweep:
    def test_preset_sweep(self, tmp_path, capsys):
        out = tmp_path / "fig4a.csv"
        code = main(["sweep", "--preset", "fig4a", "--points", "5",
                     "--out", str(out)])
        assert code == 0
        assert f"wrote 10 rows to {out}" in capsys.readouterr().err
        assert out.exists()

    def test_config_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            "[fixed]\ngamma = 0.5\nJ0_over_J = -0.3\nJz_over_J = 0.3\n"
            "h_over_J = 1.0\n"
            "[axis1]\nname = T_over_J\nstart = 0.2\nstop = 1.0\nn_points = 4\n")
        out = tmp_path / "line.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote 4 rows" in capsys.readouterr().err

    def test_overflowing_grid_is_refused_before_evaluation(self, tmp_path, capsys):
        # The corner h/J = 1e10, T/J = 1e-300 would overflow beta * energy;
        # the spec is refused before any row is evaluated or forked.
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            "[fixed]\ngamma = 0\nJ0_over_J = 0\nJz_over_J = 0\n"
            "[axis1]\nname = h_over_J\nvalues = 0 1e10\n"
            "[axis2]\nname = T_over_J\nvalues = 1e-300 0.5\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: beta * energy overflows float64 at T/J = 1e-300 with "
            "J0/J = 0, h/J = 1e+10, gamma = 0, Jz/J = 0\n")
        assert not out.exists()

    def test_points_requires_preset(self, tmp_path, capsys):
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            "[fixed]\ngamma = 0.5\nJ0_over_J = -0.3\nJz_over_J = 0.3\n"
            "h_over_J = 1.0\n"
            "[axis1]\nname = T_over_J\nstart = 0.2\nstop = 1.0\nn_points = 4\n")
        code = main(["sweep", "--config", str(cfg), "--points", "5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "--points" in capsys.readouterr().err

    def test_zero_points_is_refused(self, tmp_path, capsys):
        # --points 0 is a value, not an absent flag: it must not fall back
        # to the default of 201 points.
        out = tmp_path / "fig4a.csv"
        code = main(["sweep", "--preset", "fig4a", "--points", "0",
                     "--out", str(out)])
        assert code == 1
        assert "n_points must be >= 2, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        # A negative seed is refused whether or not spot checks would draw
        # from it, before anything is evaluated or forked.
        (["--points", "4", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["--points", "4", "--oracle-every", "3", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["--oracle-every", "0"], "oracle_check must be >= 1, got 0"),
    ])
    def test_bad_seed_or_spot_check_step_is_refused(self, args, message,
                                                    tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--preset", "fig4a", *args, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_preset(self, capsys):
        code = main(["sweep", "--preset", "fig9", "--out", "/tmp/x.csv"])
        assert code == 1
        assert "preset" in capsys.readouterr().err

    def test_missing_out_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig4a"])
        assert exc.value.code == 1

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "no_dir" / "x.csv"
        code = main(["sweep", "--preset", "fig4a", "--points", "3",
                     "--out", str(out)])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_out_may_be_a_pipe(self, tmp_path):
        # The forked writers' rows are appended to the output by sendfile,
        # which also writes to a pipe; the status line goes to stderr, so
        # the piped stream is the CSV alone. A process that leaves without
        # teardown writes the bytes that main() writes in-process.
        out, ref = tmp_path / "fig2a.csv", tmp_path / "ref.csv"
        args = ["sweep", "--preset", "fig2a", "--out"]
        piped = run_python(CLI + args + ["/dev/stdout"])
        to_file = run_python(CLI + args + [str(out)])
        assert (piped.returncode, to_file.returncode) == (0, 0)
        assert main(args + [str(ref)]) == 0
        assert piped.stdout == out.read_bytes() == ref.read_bytes()
        assert piped.stderr == b"wrote 40401 rows to /dev/stdout\n"

    def test_seed_flag_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--preset", "fig4b", "--points", "4", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_psd_suite_passes(self, capsys):
        assert main(["verify", "--suite", "psd"]) == 0
        out = capsys.readouterr().out
        assert "PASS density-matrix-validity" in out
        assert "all checks passed" in out

    def test_figures_suite_prints_only_check_lines(self, capsys):
        # The determinism check runs CLI sweeps; their "wrote N rows"
        # lines must not reach the report, which is one line per check
        # plus the summary, all on stdout, with nothing on stderr.
        assert main(["verify", "--suite", "figures"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
        failed = [line.split(":")[0][len("FAIL "):] for line in lines
                  if line.startswith("FAIL ")]
        assert failed == list(acceptance.KNOWN_FAILING)
        assert lines[-1] == "2 check(s) failed"
        assert captured.err == ""

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 1


class TestProcessEntry:
    """The module entry leaves through os._exit once its output is flushed;
    what a caller sees must not change."""

    @pytest.mark.parametrize("args, code", [
        (["sweep", "--preset", "fig4a", "--points", "3", "--out", "{tmp}/x.csv"], 0),
        (["sweep", "--preset", "nope", "--out", "{tmp}/x.csv"], 1),
        (["point"], 1),
        (["verify", "--suite", "figures"], 2),
        (["sweep", "--preset", "fig4a", "--out", "{tmp}/no_dir/x.csv"], 3),
    ])
    def test_exit_code_reaches_the_caller(self, args, code, tmp_path):
        done = run_python(CLI + [a.format(tmp=tmp_path) for a in args])
        assert done.returncode == code, done.stderr
        if args[0] == "verify":
            lines = done.stdout.decode().splitlines()
            assert lines[-1] == "2 check(s) failed"
            assert sum(line.startswith("FAIL ") for line in lines) == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("args", [["point", "--T", "0.5"],
                                      ["verify", "--suite", "psd"]])
    def test_closed_stdout_is_an_io_error(self, args, unbuffered):
        # Block-buffered, the write first fails at the entry's flush;
        # unbuffered, at the command's own write. Either way one line.
        r, w = os.pipe()
        os.close(r)
        try:
            done = run_python(CLI + args, stdout=w, unbuffered=unbuffered)
        finally:
            os.close(w)
        assert done.returncode == 3
        assert done.stderr == b"error: failed to write to stdout: [Errno 32] Broken pipe\n"

    def test_profiler_report_is_written(self):
        # Under a profiler the entry exits normally, so the report is printed.
        done = run_python(["-m", "cProfile"] + CLI + ["point", "--T", "0.5"])
        assert done.returncode == 0
        assert done.stdout.startswith(b"qd=0.160058462017\n")
        assert b"function calls" in done.stdout and b"Ordered by" in done.stdout


class TestParsing:
    def test_no_command_exits_config(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["point", "--T", "1.0", "--volume", "2"])
        assert exc.value.code == 1
