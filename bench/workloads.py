"""The four benchmark workloads: one run config each, plus what it stresses.

Each workload is a flat proxdyn config (the format `cli.parse_config_dict`
accepts) without `seed` and `out_dir`; the runner fills those in.  Solves
are kept to about 1-4 s (shorter horizons than the default T = 1, and 33
nodes for p1) so that a 30-s run holds many of them: the machine's speed
swings over seconds, and a run median over two or three long solves spread
by up to 0.25 between runs.  README.md says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Largest accepted max_n |U^n - u_exact(t_n)|_h for models with a
    # closed-form solution; None where there is none.
    exact_err_bound: float | None = None
    # Whether times are scaled to reference speed by run.Calibration, whose
    # loop reproduces small-array work; wave_large spends its time in large
    # dense LAPACK calls instead, and its raw times are steadier (ten runs:
    # spread 0.06 raw, 0.11 calibrated).
    calibrated: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="p3_friction",
            why="separable prox-gradient; the nodewise SitePotential.prox kernel "
            "dominates, dense linear algebra is negligible",
            config={"model": "p3", "n_nodes": 65, "tau": 1 / 64, "horizon": 0.25},
        ),
        Workload(
            name="p1_admm",
            why="composite ADMM with the iteration spike of the first 32 steps; "
            "the cubic-root prox and cho_solve dominate",
            config={"model": "p1", "n_nodes": 33, "tau": 1 / 64, "horizon": 0.5},
        ),
        Workload(
            name="p2_power",
            why="q = 1.5, the only workload where the non-quadratic composite "
            "conjugate (edge_conjugate_pair bisection) matters",
            config={"model": "p2", "q": 1.5, "n_nodes": 65, "tau": 1 / 64, "horizon": 0.125},
        ),
        Workload(
            name="wave_large",
            why="1025-node linear wave, closed-form inner solve; the convex layer "
            "is idle and the dense per-step linear algebra dominates",
            config={
                "model": "linear_wave",
                "damping": "mass",
                "n_nodes": 1025,
                "tau": 1 / 32,
                "horizon": 0.25,
            },
            exact_err_bound=0.03,
            calibrated=False,
        ),
    )
}
