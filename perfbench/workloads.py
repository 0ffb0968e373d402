"""The benchmark's workloads: the configs each pass hands to lmgsim, and the
grid points the oracles check.

A workload is a list of operations. A "task" operation is one
run_experiment call, which is what one `lmgsim run` invocation does; the
"wigner" operation evaluates multipole_components and wigner on a fixed
state. `smoke=True` gives the same operations at sizes that run in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PRESETS = ("fig2b", "fig2c", "fig2d", "fig3", "fig5")

# fig4's published sampling seed. Across sampling seeds the MLE cost is
# heavy-tailed (3.5 s to 14 s per fig4 run at N = 40, some reconstructions
# stopping at the 2000-iteration cap), so a per-run sampling seed would make
# the workload's time measure the seed rather than the code.
TOMOGRAPHY_SEED = 12345


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "task" or "wigner"
    config: dict = field(default_factory=dict)
    n_atoms: int = 0
    check_points: tuple | None = None  # grid values (ratios for fig2b, else times) the propagation oracles visit; None: all
    known_fault: str | None = None  # named program fault this operation fails on


def _presets(n_atoms: int, seed: int, grids: dict, checks: dict) -> list[Op]:
    return [Op(fig, "task", {"experiment": fig, "n_atoms": n_atoms, "seed": seed, **grids.get(fig, {})},
               check_points=checks.get(fig)) for fig in PRESETS]


_N800_TIMES = [0.0, 0.4, 0.8, 1.2, 1.6, 2.0]
# Thinned so one pass fits the run length: fig5's FOTOC costs ~2.8 s per point at N = 800.
N800_GRIDS = {
    "fig2b": {"ratio_step": 1.0},
    "fig2c": {"s_chi_t_grid": _N800_TIMES},
    "fig2d": {"s_chi_t_grid": _N800_TIMES},
    "fig3": {"s_chi_t_grid": [0.4, 0.8, 1.2]},
    # the exponent fit needs at least four points inside fit_window [0.2, 0.8]
    "fig5": {"s_chi_t_grid": [0.2, 0.4, 0.6, 0.8]},
}
# One oracle-propagated state at the shared time 0.8 serves fig2c, fig2d, fig3 and fig5.
N800_CHECKS = {"fig2b": (1.0,), "fig2c": (0.8,), "fig2d": (0.8,), "fig3": (0.8,), "fig5": (0.8,)}

WIGNER_FAULT = ("multipole_components lowers T_kk by a recurrence that loses all precision "
                "at large N (Parseval off by ~1e24-1e25 at N = 200)")


def build(name: str, seed: int, smoke: bool = False) -> list[Op]:
    """Operations of one pass of workload `name` for the given seed."""
    if name == "presets_n200":
        return _presets(12 if smoke else 200, seed, {}, {})
    if name == "presets_n800":
        return _presets(16 if smoke else 800, seed, N800_GRIDS, N800_CHECKS)
    if name == "tomography":
        fig4 = {"experiment": "fig4", "n_atoms": 8 if smoke else 40, "n_directions": 41, "shots": 30,
                "seed": TOMOGRAPHY_SEED}
        n_wigner = 24 if smoke else 200
        return [Op("fig4", "task", fig4),
                Op(f"wigner_n{n_wigner}", "wigner", n_atoms=n_wigner, known_fault=WIGNER_FAULT)]
    if name == "dephasing":
        fig3 = {"experiment": "fig3", "n_atoms": 6 if smoke else 30, "gamma": 0.1,
                "s_chi_t_grid": [0.3, 0.6, 0.9], "seed": seed}
        return [Op("fig3_dephasing", "task", fig3)]
    raise KeyError(name)


NAMES = ("presets_n200", "presets_n800", "tomography", "dephasing")
