"""Tests for the package's public surface."""
import ast
import os
import pathlib
import subprocess
import sys

import diamondqc
import diamondqc.oracle


def test_every_export_resolves():
    missing = [f"{mod.__name__}.{name}" for mod in (diamondqc, diamondqc.oracle)
               for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_public_surface_is_frozen():
    # Adding or removing an export must edit this list on purpose.
    assert sorted(diamondqc.__all__) == [
        "Axis", "DimerDensityMatrix", "ModelParams", "SweepSpec", "ThermalPoint",
        "__version__", "correlation_report", "count_peaks", "emit_csv",
        "figure_preset", "run_sweep", "thermal_entries_grid", "thermal_state",
        "x_state_measures"]
    assert sorted(diamondqc.oracle.__all__) == [
        "FiniteChainSpec", "enumerate_reduced_state", "finite_chain_reduced_state",
        "qd_bruteforce", "tdd_bruteforce", "trace_norm", "transfer_spectrum_ratio"]


def test_oracles_import_nothing_from_the_fast_path():
    # The oracles check the closed forms, so they must not borrow them.
    fast = ("diamondqc.model", "diamondqc.measures", "diamondqc.sweep")
    package = ["diamondqc", "oracle"]
    found = []
    for path in sorted(pathlib.Path(diamondqc.oracle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # `from .. import model` names the module only in its alias.
                base = package[:len(package) + 1 - node.level] if node.level else []
                base = ".".join(base + ([node.module] if node.module else []))
                targets = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}: {t}" for t in targets
                      if any(t == f or t.startswith(f + ".") for f in fast)]
    assert not found


def test_nothing_imports_scipy(tmp_path):
    # NumPy is the only dependency: importing every module and running a
    # sweep with an oracle spot check on each row leaves SciPy unloaded.
    # The second sweep (66,049 rows: five chunks, 17 CSV blocks) is
    # evaluated and formatted by forked processes, which are started by
    # hand, so the slow-to-import process pool modules stay unloaded. They
    # leave through os._exit, so none of them flushes the "0 " that waits
    # in the block-buffered stdout while they run a second time.
    script = (
        "import sys\n"
        "import diamondqc.cli, diamondqc.acceptance, diamondqc.oracle\n"
        "code = diamondqc.cli.main(['sweep', '--preset', 'fig4b', '--points', '2',\n"
        f"    '--oracle-every', '1', '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "print(code, end=' ')\n"
        "code += diamondqc.cli.main(['sweep', '--preset', 'fig2a', '--points', '257',\n"
        f"    '--out', {str(tmp_path / 'big.csv')!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "    ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))\n"
        "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["0 []"]
    assert out.stderr.splitlines() == [f"wrote 4 rows to {tmp_path / 'out.csv'}",
                                       f"wrote 66049 rows to {tmp_path / 'big.csv'}"]
