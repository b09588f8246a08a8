"""The figures on simulated hosts: the same verdicts and coordinates, and
measures within a stated bound of this host's.

CSV bytes hold per host (README, "Byte-identical"): some of NumPy's
AVX-512 float64 loops give other last bits than its other paths, and
OpenBLAS picks its kernels by core. Each setting below runs the presets
whose bits differ across hosts, and the figure checks, in a child whose
environment simulates another host. Run with `-s` to see the worst change
of the columns that are reported but not bounded.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

import diamondqc
from diamondqc.sweep import CSV_COLUMNS, PARAM_NAMES

PRESETS = ("fig2a", "fig2c", "fig5")
SETTINGS = {
    "host": {},
    "avx512-off": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}
# Columns whose cells must be byte-equal, bounded, and only reported. The
# bound is 1e-11 relative plus one unit in the 12th significant digit.
EXACT = PARAM_NAMES + ("psd_flag",)
BOUNDED = ("qd", "tdd", "concurrence", "mutual_info")
REPORTED = ("entropy_ab", "rho_eig_min")


def run_setting(name, out_dir):
    """The preset CSVs, as (header lines, (rows, columns) text cells) by
    preset, and the `verify --suite figures` verdicts under setting `name`;
    None if NumPy cannot be imported under it."""
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env.update(SETTINGS[name], PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True)

    if run("-c", "import numpy").returncode:
        return None
    sweeps = {}
    for preset in PRESETS:
        path = out_dir / f"{name}-{preset}.csv"
        proc = run("-m", "diamondqc.cli", "sweep", "--preset", preset, "--points", "201",
                   "--out", str(path))
        assert proc.returncode == 0, proc.stderr
        lines = path.read_text().splitlines()
        body = lines.index(",".join(CSV_COLUMNS)) + 1
        sweeps[preset] = (lines[:body], np.array([line.split(",") for line in lines[body:]]))
    proc = run("-m", "diamondqc.cli", "verify", "--suite", "figures")
    verdicts = [line.split(":")[0] for line in proc.stdout.splitlines()]
    return sweeps, (proc.returncode, verdicts)


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    return run_setting("host", tmp_path_factory.mktemp("host"))


@pytest.mark.parametrize("setting", ["avx512-off", "haswell"])
def test_figures_agree_with_this_host(setting, host, tmp_path):
    other = run_setting(setting, tmp_path)
    if other is None:
        pytest.skip(f"NumPy does not import under {SETTINGS[setting]}")
    assert other[1] == host[1]
    for preset in PRESETS:
        (head, want), (other_head, got) = host[0][preset], other[0][preset]
        assert other_head == head
        assert got.shape == want.shape
        for name in EXACT:
            k = CSV_COLUMNS.index(name)
            assert np.array_equal(got[:, k], want[:, k]), (preset, name)
        worst = {}
        for name in BOUNDED + REPORTED:
            k = CSV_COLUMNS.index(name)
            a, b = want[:, k].astype(float), got[:, k].astype(float)
            change = np.abs(a - b)
            magnitude = np.abs(a)
            with np.errstate(divide="ignore", invalid="ignore"):
                worst[name] = np.max(np.where(change > 0, change / magnitude, 0.0))
                unit = np.where(a != 0, 10.0 ** (np.floor(np.log10(magnitude)) - 11), 0.0)
            if name in BOUNDED:
                assert np.all(change <= 1e-11 * magnitude + unit), (preset, name)
        rows = int(np.sum(np.any(got != want, axis=1)))
        print(f"{setting} {preset}: {rows} of {len(want)} rows differ; worst relative "
              + ", ".join(f"{name} {value:.2g}" for name, value in worst.items()))
