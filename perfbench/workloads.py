"""Workloads of the nhssh benchmark: generated inputs and the CLI runs they make.

Seed 0 is the flagship case, which is the empty config. Other seeds move the
inputs only where the work size stays the same: a sweep grid is offset by less
than one step, and the quench target v_final is drawn from [1.4, 1.6]. Sites,
grid points and time samples never change, and the program sees nothing but
the generated config file.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

SPECTRUM_GRID = (0.1, 0.01, 191)  # start, step, points: the spectrum defaults
RATIO_GRID = (1.0, 0.025, 41)  # the ratio-sweep defaults
V_FINAL_RANGE = (1.4, 1.6)
FLAGSHIP_V_FINAL = 1.5
FLAGSHIP_T_SAMPLE = 120.0
TIME_SAMPLES = 1001  # t_max = 500 at dt = 0.5, the lightcone/bipartite defaults
DT = 0.5


@dataclass(frozen=True)
class Inputs:
    """What one seed gives a workload: config settings plus the values they imply.

    ``settings`` is all the program receives. ``grid`` and ``v_final`` are
    derived here, independently of the program, for the checks.
    """

    seed: int
    settings: dict[str, str] = field(default_factory=dict)
    grid: tuple[float, ...] = ()
    v_final: float = FLAGSHIP_V_FINAL
    t_sample: float = FLAGSHIP_T_SAMPLE

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.settings.items())


def _grid_inputs(seed: int, start: float, step: float, points: int) -> Inputs:
    if seed == 0:
        return Inputs(seed, grid=tuple(start + k * step for k in range(points)))
    start += random.Random(seed).random() * step
    # The CLI counts floor((stop - start) / step) + 1 points; half a step of
    # slack keeps that count fixed under rounding.
    settings = {
        "v_grid_start": repr(start),
        "v_grid_stop": repr(start + (points - 0.5) * step),
        "v_grid_step": repr(step),
    }
    return Inputs(seed, settings, grid=tuple(start + k * step for k in range(points)))


def spectrum_inputs(seed: int) -> Inputs:
    return _grid_inputs(seed, *SPECTRUM_GRID)


def ratio_inputs(seed: int) -> Inputs:
    return _grid_inputs(seed, *RATIO_GRID)


def quench_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(seed)
    v_final = random.Random(seed).uniform(*V_FINAL_RANGE)
    return Inputs(seed, {"v_final": repr(v_final)}, v_final=v_final)


@dataclass(frozen=True)
class Workload:
    """One closed-loop iteration runs ``scenarios`` in order, one CLI process each,
    with NHSSH_THREADS set to ``threads``."""

    name: str
    scenarios: tuple[str, ...]
    threads: int
    make_inputs: Callable[[int], Inputs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-sweep", ("spectrum",), 1, spectrum_inputs),
        Workload("quench-pair", ("lightcone", "bipartite"), 1, quench_inputs),
        Workload("ratio-sweep", ("ratio-sweep",), 1, ratio_inputs),
        Workload("ratio-sweep-t2", ("ratio-sweep",), 2, ratio_inputs),
    )
}
