"""The benchmark's workloads: which `diamondqc sweep` invocations make up one
round, and the grid each one must write, built here independently of the
package's own preset table.

A round is the unit a run repeats; every run attempts whole rounds, so the
share of failed rows is the same in every run.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

PARAMS = ("J0_over_J", "T_over_J", "h_over_J", "gamma", "Jz_over_J")
DEFAULT_POINTS = 201
T_FLOOR = 0.02


@dataclass(frozen=True)
class Axis:
    name: str
    values: tuple

    @classmethod
    def linear(cls, name, start, stop, n):
        return cls(name, tuple(np.linspace(start, stop, n)))


@dataclass(frozen=True)
class Sweep:
    """One CLI sweep: its label, how the CLI is told about it, its grid and
    the known faults of the program that fail rows on it."""
    label: str
    source: tuple          # ("preset", name, points) or ("config", text)
    fixed: dict
    axes: tuple
    workers: int = 1
    oracle_every: int = 0
    faults: tuple = ()

    def coords(self) -> np.ndarray:
        """Row-major grid, one column per name in PARAMS."""
        mesh = np.meshgrid(*(np.asarray(ax.values) for ax in self.axes), indexing="ij")
        flat = {ax.name: m.ravel() for ax, m in zip(self.axes, mesh)}
        n = mesh[0].size
        return np.stack([flat[p] if p in flat else np.full(n, float(self.fixed[p]))
                         for p in PARAMS], axis=1)

    def n_rows(self) -> int:
        return int(np.prod([len(ax.values) for ax in self.axes]))

    def oracle_points(self) -> int:
        return -(-self.n_rows() // self.oracle_every) if self.oracle_every else 0

    def cli_args(self, out_path, seed, out_dir) -> list:
        """Arguments after `diamondqc`; writes the config file if there is one."""
        args = ["sweep"]
        if self.source[0] == "preset":
            args += ["--preset", self.source[1]]
            if self.source[2] != DEFAULT_POINTS:
                args += ["--points", str(self.source[2])]
        else:
            path = os.path.join(out_dir, f"{self.label}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.source[1])
            args += ["--config", path]
        if self.workers > 1:
            args += ["--workers", str(self.workers)]
        if self.oracle_every:
            args += ["--oracle-every", str(self.oracle_every)]
        return args + ["--seed", str(seed), "--out", out_path]


def _preset(name, points=DEFAULT_POINTS, label=None, **kw) -> Sweep:
    """The grid the package documents for each preset (see its README)."""
    if name in ("fig2a", "fig2c"):
        fixed = ({"Jz_over_J": 0.0, "gamma": 0.95, "h_over_J": 0.27} if name == "fig2a"
                 else {"Jz_over_J": 0.3, "gamma": 0.6, "h_over_J": 0.35})
        axes = (Axis.linear("J0_over_J", -2.0, 2.0, points),
                Axis.linear("T_over_J", T_FLOOR, 2.0, points))
    elif name in ("fig3a", "fig4a"):
        fixed = {"gamma": 0.5, "J0_over_J": -0.3, "Jz_over_J": 0.3}
        axes = (Axis.linear("h_over_J", -2.0, 2.0, points),
                Axis("T_over_J", (0.2, 0.5, 0.7, 1.5) if name == "fig3a" else (0.5, 1.0)))
    elif name == "fig5":
        fixed = {"J0_over_J": -0.3, "Jz_over_J": 0.3, "h_over_J": 0.5}
        axes = (Axis.linear("gamma", -8.0, 8.0, points),
                Axis.linear("T_over_J", T_FLOOR, 2.0, points))
    else:
        raise ValueError(f"no such preset: {name}")
    # F1 (qd = min(d1, d2)) shows on the J0-T maps; the other presets fail no rows.
    faults = ("F1",) if name in ("fig2a", "fig2c") else ()
    return Sweep(label or name, ("preset", name, points), fixed, axes, faults=faults, **kw)


_COLD_BOX = """\
[fixed]
gamma = 0
h_over_J = 0
Jz_over_J = 0

[axis1]
name = J0_over_J
start = -2
stop = 2
n_points = 41

[axis2]
name = T_over_J
start = 0.002
stop = 0.05
n_points = 41
"""


def _cold_box() -> Sweep:
    # Every 256th row gets an oracle spot check (7 in all): the only path
    # into qd_bruteforce and its kernel. A fig3a sweep with 51 spot checks
    # did this as a workload of its own, but its timings drifted by up to a
    # quarter between sets of runs (see README.md).
    return Sweep("cold-box", ("config", _COLD_BOX),
                 {"gamma": 0.0, "h_over_J": 0.0, "Jz_over_J": 0.0},
                 (Axis.linear("J0_over_J", -2.0, 2.0, 41),
                  Axis.linear("T_over_J", 0.002, 0.05, 41)),
                 oracle_every=256, faults=("F2", "F3"))


def _workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


WORKLOADS = ("presets", "fig2a-801", "cold-box")


def round_sweeps(workload: str, seed: int) -> list:
    """The sweeps of one round, in the order the seed gives them."""
    if workload == "presets":
        sweeps = [_preset(n) for n in ("fig2a", "fig2c", "fig3a", "fig4a", "fig5")]
        random.Random(seed).shuffle(sweeps)
        return sweeps
    if workload == "fig2a-801":
        return [_preset("fig2a", 801, label="fig2a-801", workers=_workers())]
    if workload == "cold-box":
        return [_cold_box()]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
