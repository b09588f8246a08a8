"""Tests for the package's public surface."""
import ast
import inspect
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
        "qd_bruteforce", "tdd_bruteforce", "transfer_spectrum_ratio"]
    # So must adding or removing a parameter of an exported callable.
    signatures = {f"{mod.__name__}.{name}": list(inspect.signature(obj).parameters)
                  for mod in (diamondqc, diamondqc.oracle)
                  for name, obj in ((n, getattr(mod, n)) for n in mod.__all__)
                  if callable(obj)}
    signatures["DimerDensityMatrix.from_matrix"] = list(
        inspect.signature(diamondqc.DimerDensityMatrix.from_matrix).parameters)
    entries = ["r11", "r22", "r33", "r44", "r14", "r23"]
    chain = ["spec"]
    assert signatures == {
        "diamondqc.Axis": ["name", "start", "stop", "n_points", "spacing", "values"],
        "diamondqc.DimerDensityMatrix": entries,
        "diamondqc.ModelParams": ["gamma", "jz", "j0", "h"],
        "diamondqc.SweepSpec": ["fixed", "axes", "oracle_check"],
        "diamondqc.ThermalPoint": ["t"],
        "diamondqc.correlation_report": ["rho"],
        "diamondqc.count_peaks": ["series", "prominence"],
        "diamondqc.emit_csv": ["result", "path"],
        "diamondqc.figure_preset": ["name", "n_points"],
        "diamondqc.run_sweep": ["spec", "seed", "label"],
        "diamondqc.thermal_entries_grid": ["j0", "t", "h", "gamma", "jz"],
        "diamondqc.thermal_state": ["params", "tp"],
        "diamondqc.x_state_measures": entries,
        "diamondqc.oracle.FiniteChainSpec": ["n_cells", "params", "tp"],
        "diamondqc.oracle.enumerate_reduced_state": chain,
        "diamondqc.oracle.finite_chain_reduced_state": chain,
        "diamondqc.oracle.qd_bruteforce": ["rho"],
        "diamondqc.oracle.tdd_bruteforce": ["rho", "seed"],
        "diamondqc.oracle.transfer_spectrum_ratio": chain,
        "DimerDensityMatrix.from_matrix": ["m"],
    }


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
    # sweep with an oracle spot check on each row leaves SciPy unloaded,
    # and configparser too, which only config-file sweeps import.
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
        "    ('scipy', 'multiprocessing', 'configparser')\n"
        "    or m.startswith('concurrent.futures')))\n"
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


def test_spot_checks_load_no_numpy_random():
    # The tdd search draws its starts from the standard library, so a
    # spot-checked sweep, its forked search processes and a tdd_bruteforce
    # call load no numpy.random module that importing numpy and the CLI had
    # not loaded (a NumPy that imports numpy.random eagerly passes). Two
    # ranges whatever the core count make both sweep stages fork, and each
    # child reports its own modules as it leaves.
    script = (
        "import os, sys\n"
        "import numpy, diamondqc.cli\n"
        "loaded = lambda: {m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']}\n"
        "before, parent, exit_ = loaded(), os.getpid(), os._exit\n"
        "def leave(code):\n"
        "    if os.getpid() != parent:\n"
        "        os.write(1, f'child {code} {sorted(loaded() - before)}\\n'.encode())\n"
        "    exit_(code)\n"
        "os._exit = leave\n"
        "from diamondqc import sweep\n"
        "from diamondqc.oracle import tdd_bruteforce\n"
        "sweep._ranges = lambda n, unit: [0, n // 2, n]\n"
        "spec = sweep.SweepSpec(fixed={'gamma': 0.0, 'h_over_J': 0.0, 'Jz_over_J': 0.0},\n"
        "    axes=(sweep.Axis('J0_over_J', -2.0, 2.0, 5), sweep.Axis('T_over_J', 0.002, 0.05, 3)),\n"
        "    oracle_check=4)\n"
        "result = sweep.run_sweep(spec, seed=0)\n"
        "tdd_bruteforce(numpy.eye(4) / 4.0, seed=0)\n"
        "print(len(result.diagnostics['oracle']), sorted(loaded() - before), flush=True)\n")
    src = os.path.dirname(os.path.dirname(diamondqc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["child 0 []", "child 0 []", "4 []"]
