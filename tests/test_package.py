"""Tests for the package's public surface."""
import os
import subprocess
import sys

import diamondqc


def test_every_export_resolves():
    missing = [name for name in diamondqc.__all__ if not hasattr(diamondqc, name)]
    assert not missing


def test_nothing_imports_scipy(tmp_path):
    # NumPy is the only dependency: importing every module and running a
    # sweep with an oracle spot check on each row leaves SciPy unloaded.
    script = (
        "import sys\n"
        "import diamondqc.cli, diamondqc.acceptance, diamondqc.oracle\n"
        "code = diamondqc.cli.main(['sweep', '--preset', 'fig4b', '--points', '2',\n"
        f"    '--oracle-every', '1', '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"wrote 4 rows to {tmp_path / 'out.csv'}",
                                       "0 []"]
