"""Mean-payoff trajectory engine and tail statistics.

The repeated game is driven by the running mean of realized payoffs:
given a step map phi, the mean after stage n+1 is
(n * mean_n + phi(mean_n)) / (n + 1).  Everything downstream (strategy
decisions, attractor checks, payoff reports) reads only these means.

Limits of the mean sequence are never reported as single numbers: tail
statistics over a trailing window give [tail_min, tail_max] intervals,
which is what a finite run can actually certify.

Two engines share one arithmetic.  `iterate` runs one profile and records
its whole trajectory.  `simulate_batch` steps many (profile, start) cells
together as a (B, 3) array and keeps only what the deviant batteries
report; each of its cells is bit-identical to `iterate` on that cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import project_to_hull
from .stage_game import INVEST, NOT_INVEST, GameParams, payoff, require_valid


class RunningMean:
    """Incremental arithmetic mean with Kahan-compensated updates.

    Compensation keeps the accumulated rounding drift negligible out to
    horizons of 1e7 steps; the recorded means are exactly the values this
    class produces, so replaying it reproduces a trajectory bit for bit.
    """

    __slots__ = ("mean", "count", "_comp")

    def __init__(self, first: Sequence[float]):
        self.mean = tuple(float(c) for c in first)
        self.count = 1
        self._comp = (0.0,) * len(self.mean)

    def update(self, value: Sequence[float]) -> tuple[float, ...]:
        n1 = self.count + 1
        mean = []
        comp = []
        for m, c, s in zip(self.mean, self._comp, value):
            y = (s - m) / n1 - c
            t = m + y
            comp.append((t - m) - y)
            mean.append(t)
        self.mean = tuple(mean)
        self._comp = tuple(comp)
        self.count = n1
        return self.mean


@dataclass
class Trajectory:
    """Recorded run: means x̄_1..x̄_N and realized stage payoffs x_2..x_N."""

    start: tuple[float, ...]
    means: list[tuple[float, ...]]
    steps: list[tuple[float, ...]]
    _means_arr: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.means)

    def means_array(self) -> np.ndarray:
        if self._means_arr is None:
            self._means_arr = np.asarray(self.means, dtype=float)
        return self._means_arr

    @property
    def final(self) -> tuple[float, ...]:
        return self.means[-1]


def iterate(phi: Callable, x1: Sequence[float], n: int) -> Trajectory:
    """Run the mean dynamics from x1 for n stages (x1 counts as stage 1)."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    start = tuple(float(c) for c in x1)
    means = [start]
    steps: list[tuple[float, ...]] = []
    rm = RunningMean(start)
    append_mean = means.append
    append_step = steps.append
    for _ in range(n - 1):
        step = phi(rm.mean)
        append_step(tuple(step))
        append_mean(rm.update(step))
    return Trajectory(start=start, means=means, steps=steps)


def replay(traj: Trajectory) -> list[tuple[float, ...]]:
    """Recompute the mean sequence from the recorded steps (bit-exact)."""
    rm = RunningMean(traj.start)
    means = [rm.mean]
    for step in traj.steps:
        means.append(rm.update(step))
    return means


@dataclass(frozen=True)
class BatchTails:
    """What `simulate_batch` keeps of each cell b: the final mean `final[b]`,
    the tail minimum and maximum of every coordinate `tail_min[b]`,
    `tail_max[b]` (all (B, 3)), and the tail maximum of x2 + x3,
    `tail_max_23[b]`."""

    final: np.ndarray
    tail_min: np.ndarray
    tail_max: np.ndarray
    tail_max_23: np.ndarray

    def intervals(self, b: int) -> list[list[float]]:
        """Cell b's [tail min, tail max] per coordinate, as `tail_interval` gives them."""
        return [list(pair) for pair in zip(self.tail_min[b].tolist(), self.tail_max[b].tolist())]


#: Stages per block: a block's tail means are kept until they are folded
#: into the running extrema, and its planned decisions are gathered at once.
_BLOCK = 512


def _owner(cls: type, name: str) -> type | None:
    return next((k for k in cls.__mro__ if name in vars(k)), None)


def _batch_form(strategy, name: str):
    """strategy.<name> if its class defines it at or below the definer of decide."""
    cls = type(strategy)
    owner = _owner(cls, name)
    if owner is None or not issubclass(owner, _owner(cls, "decide")):
        return None
    return getattr(strategy, name)


def simulate_batch(profiles, params: GameParams, starts, n: int, window: float) -> BatchTails:
    """Run cell b = (profiles[b], starts[b]) for n stages, all cells at once.

    Each stage applies `RunningMean.update`'s Kahan step elementwise to the
    (B, 3) means, so every cell is bit-identical to `iterate` on the step
    map `induced_map(profiles[b], params)`.  The payoff is looked up in an
    (8, 3) table by a 3-bit profile code (bit i set when seat i invests).
    Decisions come from, per strategy kind:
      - `plan`: drawn before the loop, n - 1 per (cell, seat) in cell order;
      - `decide_batch`: one call per instance and stage on its rows, so a
        stateless instance shared by many cells costs one call;
      - otherwise `decide` on each row's mean as a tuple of floats.
    Strategies are left in the state `iterate` would leave them in, provided
    no stateful instance sits in two cells (`fresh()` copies ensure that).
    Tail statistics cover the means from `tail_start(n, window)` on.
    """
    require_valid(params)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    first = tail_start(n, window)
    cells = len(profiles)
    if len(starts) != cells or any(len(p) != 3 for p in profiles) or any(len(x) != 3 for x in starts):
        raise ValueError("need one 3-vector start and one profile of three strategies per cell")
    means = np.array(starts, dtype=float).reshape(cells, 3)
    table = np.array([payoff(params, tuple(INVEST if code >> i & 1 else NOT_INVEST for i in range(3)))
                      for code in range(8)], dtype=float)

    # Route every (cell, seat) slot; dst indexes the flattened (B, 3) decisions.
    cache: dict = {}
    plans: dict[int, tuple[int, np.ndarray]] = {}
    plan_dst, plan_src = [], []
    batched: dict[int, tuple] = {}
    scalar: list[tuple[int, int, object]] = []
    for b, profile in enumerate(profiles):
        for seat, s in enumerate(profile):
            dst = 3 * b + seat
            if (plan := _batch_form(s, "plan")) is not None:
                arr = plan(n - 1, cache)
                plan_dst.append(dst)
                plan_src.append(plans.setdefault(id(arr), (len(plans), arr))[0])
            elif (decide_batch := _batch_form(s, "decide_batch")) is not None:
                group = batched.setdefault(id(s), (decide_batch, [], []))
                group[1].append(b)
                group[2].append(dst)
            else:
                scalar.append((b, dst, s.decide))
    plan_table = np.array([arr for _, arr in plans.values()], dtype=bool).reshape(len(plans), n - 1)
    plan_dst = np.array(plan_dst, dtype=np.intp)
    plan_src = np.array(plan_src, dtype=np.intp)
    batched_groups = [(fn, np.array(rows, dtype=np.intp), np.array(dst, dtype=np.intp))
                      for fn, rows, dst in batched.values()]

    decisions = np.zeros(3 * cells, dtype=bool)
    decision_rows = decisions.reshape(cells, 3)
    comp = np.zeros_like(means)
    y = np.empty_like(means)
    t = np.empty_like(means)
    tail_min = np.full_like(means, np.inf)
    tail_max = np.full_like(means, -np.inf)
    tail_max_23 = np.full(cells, -np.inf)
    tail = np.empty((min(_BLOCK, n - first), cells, 3))
    kept = 0

    def fold(part):
        np.minimum(tail_min, part.min(axis=0), out=tail_min)
        np.maximum(tail_max, part.max(axis=0), out=tail_max)
        np.maximum(tail_max_23, (part[:, :, 1] + part[:, :, 2]).max(axis=0), out=tail_max_23)

    if first == 0:
        tail[0] = means
        kept = 1
    for lo in range(1, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        block_plan = plan_table[plan_src, lo - 1:hi - 1].T
        for k in range(lo, hi):
            decisions[plan_dst] = block_plan[k - lo]
            for decide_batch, rows, dst in batched_groups:
                decisions[dst] = decide_batch(means[rows])
            for b, dst, decide in scalar:
                action = decide(tuple(means[b].tolist()))
                if action not in (INVEST, NOT_INVEST):
                    raise ValueError(f"unknown action {action!r}")
                decisions[dst] = action == INVEST
            codes = np.packbits(decision_rows, axis=1, bitorder="little").ravel()
            # The Kahan step of RunningMean.update, count k -> k + 1.
            np.subtract(table.take(codes, axis=0), means, out=y)
            y /= k + 1
            y -= comp
            np.add(means, y, out=t)
            np.subtract(t, means, out=comp)
            comp -= y
            means, t = t, means
            if k >= first:
                tail[kept] = means
                kept += 1
                if kept == len(tail):
                    fold(tail)
                    kept = 0
    if kept:
        fold(tail[:kept])
    return BatchTails(final=means, tail_min=tail_min, tail_max=tail_max, tail_max_23=tail_max_23)


def step_size_bound(diameter: float, xi: float) -> int:
    """Smallest N0 with |mean_{n+1} - mean_n| < xi for all n > N0, any step map.

    The one-stage move is |phi(x) - x| / (n + 1) <= diameter / (n + 1), so
    N0 = ceil(diameter / xi) suffices.
    """
    if xi <= 0 or diameter < 0:
        raise ValueError("need diameter >= 0 and xi > 0")
    return max(1, math.ceil(diameter / xi))


def tail_start(n: int, w: float) -> int:
    """0-based index of the first mean inside the trailing window."""
    if not 0.0 < w < 1.0:
        raise ValueError("window fraction must be in (0, 1)")
    if n * w < 1.0:
        raise ValueError("window contains no indices")
    return max(0, math.ceil((1.0 - w) * n) - 1)


def tail_limsup(traj: Trajectory, f: Callable[[np.ndarray], np.ndarray], w: float = 0.5) -> float:
    """Max of f over the means in the trailing window (limsup estimate)."""
    arr = traj.means_array()
    return float(np.max(f(arr[tail_start(traj.horizon, w):])))


def tail_liminf(traj: Trajectory, f: Callable[[np.ndarray], np.ndarray], w: float = 0.5) -> float:
    arr = traj.means_array()
    return float(np.min(f(arr[tail_start(traj.horizon, w):])))


def tail_interval(traj: Trajectory, f, w: float = 0.5) -> tuple[float, float]:
    """[tail min, tail max] of a functional; the reportable repeated-game payoff."""
    return (tail_liminf(traj, f, w), tail_limsup(traj, f, w))


def coordinate(i: int) -> Callable[[np.ndarray], np.ndarray]:
    """Functional picking the i-th payoff coordinate, 1-based."""
    return lambda arr: arr[:, i - 1]


def coordinate_sum(i: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda arr: arr[:, i - 1] + arr[:, j - 1]


@dataclass(frozen=True)
class MixingReport:
    ok: bool
    distance: float
    point: tuple[float, ...]


def mixing_bound_check(a0, anchors, t_prefix: int, counts, eps: float) -> MixingReport:
    """Check (T*a0 + sum n_i a_i) / (T + n) lands within eps of co(anchors).

    An old prefix of T identical summands a0 is diluted by n = sum(n_i)
    later summands drawn from the anchors; the witness distance to the
    anchors' hull is returned.
    """
    anchors = [tuple(map(float, a)) for a in anchors]
    counts = [int(c) for c in counts]
    if len(counts) != len(anchors) or any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative, one per anchor")
    n = sum(counts)
    total = t_prefix + n
    if total <= 0:
        raise ValueError("need T + n > 0")
    acc = [t_prefix * c for c in a0]
    for cnt, a in zip(counts, anchors):
        for d in range(len(acc)):
            acc[d] += cnt * a[d]
    point = tuple(c / total for c in acc)
    _, dist = project_to_hull(point, anchors)
    return MixingReport(ok=dist <= eps, distance=dist, point=point)


def write_csv(traj: Trajectory, fh, comment: str | None = None) -> None:
    """Trajectory CSV: header n,x1..,step1.. with one row per stage.

    Stage 1's step columns carry the start itself (the stage-1 payoff in
    the arithmetic-mean reading).  Floats use 17 significant digits, so a
    round trip through the file is exact.
    """
    d = len(traj.start)
    if comment:
        fh.write(f"# {comment}\n")
    cols = ["n"] + [f"x{k + 1}" for k in range(d)] + [f"step{k + 1}" for k in range(d)]
    fh.write(",".join(cols) + "\n")
    fmt = "%.17g"
    for idx, mean in enumerate(traj.means):
        step = traj.start if idx == 0 else traj.steps[idx - 1]
        row = [str(idx + 1)]
        row += [fmt % c for c in mean]
        row += [fmt % c for c in step]
        fh.write(",".join(row) + "\n")
