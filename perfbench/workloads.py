"""Workload definitions: sizes, seed derivation and the configs each run uses.

Everything here is plain data built from the workload seed; it is shared by
the parent (which writes the configs and checks the outputs) and the child
(which loads the configs and runs the program).  Work counts (stages, cells,
rows, operations) are computed here from the configs, never from what the
program reports, so throughput denominators cannot move when the engine does.
"""

from __future__ import annotations

import random

WORKLOADS = ("battery", "long_horizon", "trajectory_csv", "certify")

#: The workload seed that reproduces the README battery.
DEFAULT_SEED = 0
#: harness.DEFAULT_SEEDS and the README simulate seed, repeated here so that a
#: change to the program's defaults cannot silently change the workload.
README_DEVIANT_SEEDS = (11, 23, 37, 41, 53, 67, 79, 83, 97, 101)
README_SIMULATE_SEED = 11

EPS = 0.4

#: Barycentric weights over the vertices (A, B, C1_1, C1_2, C1_3, C2_1, C2_2,
#: C2_3) and the centroid, as in harness.default_starts().
_VERTEX_ORDER = ("A", "B", "C1_1", "C1_2", "C1_3", "C2_1", "C2_2", "C2_3")


def _weights(label: str) -> list[float]:
    if label == "centroid":
        return [0.125] * 8
    w = [0.0] * 8
    w[_VERTEX_ORDER.index(label)] = 1.0
    return w


# Sizes.  The full sizes are scaled so that one repetition takes a few seconds
# on a 2-core Xeon and several repetitions fit in one measured run.
FULL = {
    "battery": {"n": 10_000, "starts": ("A", "B", "C1_1", "centroid")},
    "long_horizon": {"n": 300_000, "starts": ("A", "C1_1", "centroid")},
    "trajectory_csv": {"n": 400_000},
    "certify": {
        "blackwell": ("example1_line", "example1_segment", "example1_singleton",
                      "example2_triangle", "example2_union"),
        "decay_n": 5_000,
        "decay_oracles": ("triangle", "union"),
    },
}
SMOKE = {
    "battery": {"n": 2_000, "starts": ("A",)},
    "long_horizon": {"n": 2_000, "starts": ("A",)},
    "trajectory_csv": {"n": 2_000},
    "certify": {
        "blackwell": ("example1_singleton", "example2_triangle"),
        "decay_n": 2_000,
        "decay_oracles": ("triangle",),
    },
}

# Horizons that `investgame certify blackwell` hard-codes: example 1 runs one
# start, example 2 runs its 5 slice starts plus one start per refinement stage
# (two stages), all at n = 1000.
_CERT_EXAMPLE1_STAGES = 1_000
_CERT_EXAMPLE2_STAGES = (5 + 2) * 1_000


def workload_seeds(seed: int) -> tuple[list[int], int]:
    """Coin-flip deviant seeds and the simulate seed for a workload seed."""
    if seed == DEFAULT_SEED:
        return list(README_DEVIANT_SEEDS), README_SIMULATE_SEED
    drawn = random.Random(seed).sample(range(1, 10**9), 11)
    return drawn[:10], drawn[10]


def deterministic(workload: str) -> bool:
    """long_horizon and certify use no randomness: every seed gives the same inputs."""
    return workload in ("long_horizon", "certify")


def make_plan(workload: str, seed: int, smoke: bool = False) -> dict:
    """Configs, expected operations and work counts of one workload run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = (SMOKE if smoke else FULL)[workload]
    dev_seeds, sim_seed = workload_seeds(seed)
    plan = {"workload": workload, "seed": seed, "smoke": smoke, "eps": EPS}
    if workload == "battery":
        n, starts = size["n"], [_weights(s) for s in size["starts"]]
        # constant I, constant NI, 10 coin flips, defector; t2 pairs: 4
        # constant pairs, 10 coin-flip pairs, the defector pair.
        cells = len(starts) * (13 + 15)
        plan.update(
            configs={"battery.json": {"eps": EPS, "n": n, "starts": starts,
                                      "deviant_seeds": dev_seeds}},
            start_labels=list(size["starts"]), cells=cells, stages=cells * n, ops=cells, n=n,
        )
    elif workload == "long_horizon":
        n, starts = size["n"], [_weights(s) for s in size["starts"]]
        plan.update(
            configs={"t3.json": {"eps": EPS, "n": n, "starts": starts}},
            start_labels=list(size["starts"]), cells=len(starts),
            stages=len(starts) * n, ops=len(starts), n=n,
        )
    elif workload == "trajectory_csv":
        n = size["n"]
        plan.update(
            configs={"run.json": {
                "strategies": [
                    {"kind": "good", "eps": EPS},
                    {"kind": "good", "eps": EPS},
                    {"kind": "random", "p": 0.5, "seed": sim_seed},
                ],
                "start": {"point": [20, 20, 20]},
                "n": n,
            }},
            cells=0, stages=n, ops=1, n=n, rows=n, random_seed=sim_seed,
        )
    else:
        certs = [("blackwell", f"blackwell_{t}.json") for t in size["blackwell"]]
        certs += [("lyapunov", "lyapunov.json"), ("decrease", "decrease.json")]
        configs = {f"blackwell_{t}.json": {"target": t} for t in size["blackwell"]}
        configs["lyapunov.json"] = {"map": "all_good", "c": 0.3}
        configs["decrease.json"] = {"map": "two_good", "eps": EPS, "eta": 0.1}
        configs["decay.json"] = {"eps": EPS, "n": size["decay_n"], "start": "A",
                                 "oracles": list(size["decay_oracles"])}
        stages = size["decay_n"] + sum(
            _CERT_EXAMPLE1_STAGES if t.startswith("example1") else _CERT_EXAMPLE2_STAGES
            for t in size["blackwell"]
        )
        plan.update(configs=configs, certs=certs, cells=0, stages=stages,
                    ops=len(certs) + len(size["decay_oracles"]), n=size["decay_n"])
    return plan
