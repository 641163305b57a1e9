"""Benchmark workloads: fixed CLI command sequences and seeded configs.

Each workload is a sequence of `diracsoliton` subcommands run on one
generated config.  The seed jitters only the W amplitudes (by a factor
in [1 - 0.01, 1 + 0.01]) and mu_sharp (by an offset in [-0.005, 0.005]).
A 1% change in W moves theta#, hence the soliton decay length and the
grid size, by about 1%, so the work per run stays within about 1% of
the unjittered config while the program never sees the same floats
twice across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

W_JITTER = 0.01
MU_JITTER = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    base: dict
    why: str

    def config(self, seed: int) -> dict:
        """The base config with W amplitudes and mu_sharp jittered by seed."""
        rng = random.Random(f"{self.name}:{seed}")
        cfg = dict(self.base)
        cfg["W"] = [
            [m, round(amp * (1.0 + rng.uniform(-W_JITTER, W_JITTER)), 9)]
            for m, amp in self.base["W"]
        ]
        cfg["mu_sharp"] = round(
            self.base["mu_sharp"] + rng.uniform(-MU_JITTER, MU_JITTER), 9
        )
        return cfg


def config_text(cfg: dict) -> str:
    """The `key = value` config file the CLI reads."""
    return "".join(f"{key} = {value!r}\n" for key, value in cfg.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="soliton-lattice",
            commands=("verify-all",),
            base={
                "V": [[2, 20.0]],
                "W": [[1, 1.0]],
                "M": 32,
                "mu_sharp": 0.0,
                "deltas": [0.4, 0.2],
                "h": 1.0 / 64.0,
                "L": 900.0,
                "y_max": 370.0,
            },
            why="default lattice verify-all; two-scale ansatz synthesis "
            "(fourier_eval over about 200 modes) dominates",
        ),
        Workload(
            name="soliton-free",
            commands=("verify-all",),
            base={
                "V": [],
                "W": [[1, -1.0]],
                "M": 16,
                "mu_sharp": 0.1,
                "deltas": [0.2, 0.1],
                "h": 1.0 / 64.0,
                "L": 1400.0,
                "y_max": 290.0,
            },
            why="free lattice, theta#<0 (odd parity); sparse carriers, so "
            "ODE dense output and Jacobian min-eig dominate",
        ),
        Workload(
            name="spectral-survey",
            commands=("dirac", "nld"),
            base={
                "V": [[2, 20.0], [4, 5.0]],
                "W": [[1, 1.0], [3, 0.5]],
                "pair": 2,
                "M": 64,
                "mu_sharp": 0.0,
                "deltas": [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625],
            },
            why="two-harmonic lattice, second crossing; no grid work, gap "
            "eigen-sweeps and kernel-check SVDs dominate",
        ),
    )
}
