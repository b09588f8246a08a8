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
    # The second sweep's CSV is formatted by forked writers, which are
    # started by hand, so the slow-to-import process pool modules stay
    # unloaded; they leave through os._exit, so none of them flushes the
    # first sweep's line from the buffered stdout a second time.
    script = (
        "import sys\n"
        "import diamondqc.cli, diamondqc.acceptance, diamondqc.oracle\n"
        "code = diamondqc.cli.main(['sweep', '--preset', 'fig4b', '--points', '2',\n"
        f"    '--oracle-every', '1', '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "code += diamondqc.cli.main(['sweep', '--preset', 'fig2a', '--points', '129',\n"
        f"    '--out', {str(tmp_path / 'big.csv')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "    ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))\n")
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"wrote 4 rows to {tmp_path / 'out.csv'}",
                                       f"wrote 16641 rows to {tmp_path / 'big.csv'}",
                                       "0 []"]
