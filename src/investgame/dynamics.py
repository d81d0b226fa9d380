"""Mean-payoff trajectory engine and tail statistics.

The repeated game is driven by the running mean of realized payoffs:
given a step map phi, the mean after stage n+1 is
(n * mean_n + phi(mean_n)) / (n + 1).  Everything downstream (strategy
decisions, attractor checks, payoff reports) reads only these means.

Limits of the mean sequence are never reported as single numbers: tail
statistics over a trailing window give [tail_min, tail_max] intervals,
which is what a finite run can actually certify.

Three engines share one arithmetic, the running sum of `RunningMean`.
`iterate` runs one profile and records its whole trajectory.
`simulate_batch` steps many (profile, start) cells together as a (B, 3)
array and keeps only what the deviant batteries report.
`simulate_events` runs one profile of good and constant seats and jumps
over the stretches where the action profile provably stays fixed.  The
means of the last two are bit-identical to `iterate` on the same cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Callable, Sequence

import numpy as np

from .geometry import good_region, inequality_margins, project_to_hull
from .stage_game import INVEST, NOT_INVEST, GameParams, payoff, require_valid
from .strategies import ConstantStrategy, GoodStrategy


class RunningMean:
    """Arithmetic mean kept as the start x1 plus a plain running sum P of the
    later values: mean_n = (x1 + P) / n.

    When the values are integer multiples of 2**-e and max|v| * n * 2**e <
    2**53, every partial sum P is exact, so P + m*s equals m sequential
    additions of s bit for bit and the mean at any stage can be computed
    directly.  The recorded means are exactly the values this class
    produces, so replaying it reproduces a trajectory bit for bit.
    """

    __slots__ = ("start", "total", "count", "mean")

    def __init__(self, first: Sequence[float]):
        self.start = tuple(float(c) for c in first)
        self.total = [0.0] * len(self.start)
        self.count = 1
        self.mean = self.start

    def update(self, value: Sequence[float]) -> tuple[float, ...]:
        n1 = self.count + 1
        total = []
        mean = []
        for a, p, s in zip(self.start, self.total, value):
            p += s
            total.append(p)
            mean.append((a + p) / n1)
        self.total = total
        self.count = n1
        self.mean = tuple(mean)
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


#: Decision code of the all-invest profile (bit i set when seat i invests).
ALL_INVEST = 7


def payoff_table(params: GameParams) -> list[tuple[float, float, float]]:
    """The stage payoff of each decision code 0..7 (bit i set when seat i invests)."""
    return [payoff(params, tuple(INVEST if code >> i & 1 else NOT_INVEST for i in range(3)))
            for code in range(8)]


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

    Each stage applies `RunningMean.update`'s running sum elementwise to the
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
    table = np.array(payoff_table(params), dtype=float)

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
    start = means.copy()
    total = np.zeros_like(means)
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
            # RunningMean.update, count k -> k + 1.
            total += table.take(codes, axis=0)
            np.add(start, total, out=means)
            means /= k + 1
            if k >= first:
                tail[kept] = means
                kept += 1
                if kept == len(tail):
                    fold(tail)
                    kept = 0
    if kept:
        fold(tail[:kept])
    return BatchTails(final=means, tail_min=tail_min, tail_max=tail_max, tail_max_23=tail_max_23)


#: Certification margin of `simulate_events`, relative to a bound S on every
#: |mean coordinate| and |constant|.  With u = 2**-53, a computed mean
#: coordinate (x1 + P) / n is within 3u*S of its exact value (one rounding
#: of x1 + P, one of the division), an inequality side (at most two
#: coordinates and a constant, one more rounding) within 11u*S, and a
#: computed margin lhs - rhs within 14u*S.  Margins above 25u*S at both
#: ends of a stretch thus keep the exact margin, monotone along the
#: stretch, above 11u*S at every stage in between, where the computed
#: sides then compare as the exact ones do.
_MARGIN_REL = 32 * 2.0 ** -53


@dataclass(frozen=True)
class SegmentRun:
    """What `simulate_events` keeps of one run.

    `segments` are run-length (first, last, code) triples covering means
    1..n: the profile decided at means first..last has the code `code` (bit
    i set when seat i invests).  `final` is mean n; `tail_min`/`tail_max`
    are per-coordinate extrema of the means from `tail_start(n, window)` on;
    `evaluations` counts the decisions and certificate probes evaluated.
    """

    segments: list[tuple[int, int, int]]
    final: tuple[float, ...]
    tail_min: tuple[float, ...]
    tail_max: tuple[float, ...]
    evaluations: int


def _sums_exact(table, n: int) -> bool:
    """Whether every sum of up to n payoffs is exact: all entries integer
    multiples of 2**-e with max|v| * n * 2**e < 2**53."""
    ratios = [abs(v).as_integer_ratio() for row in table for v in row]
    scale = max(den for _, den in ratios)  # 2**e
    return all(num * (scale // den) * n < 2**53 for num, den in ratios)


def simulate_events(profile, params: GameParams, x1, n: int, window: float) -> SegmentRun:
    """Run one profile of `GoodStrategy` and `ConstantStrategy` seats from x1
    for n stages, jumping over stretches of one fixed profile.

    The means are those of `iterate` on `induced_map(profile, params)`, bit
    for bit.  At each stage the profile is decided, then the farthest stage
    L with the same decisions is found by galloping and bisection over
    candidate ends, each computed in O(1) as (x1 + P + m*s) / L.  A stretch
    is certified when the payoff sums are exact at this horizon (checked
    once, see `_sums_exact`) and every inequality of the good seats'
    regions keeps its truth value at both ends, either with a margin above
    `_MARGIN_REL * S` or because every coordinate it reads is exactly
    stationary (mean equal to the step).  Along a fixed-profile stretch each
    exact margin is monotone in n (alpha + beta/n), so no decision in
    between can differ.  Otherwise, and throughout when the sums are not
    exact, the engine steps one stage.

    Tail extrema are taken at segment endpoints and at the tail's first
    stage: along a stretch every coordinate of (x1 + P)/n is monotone, and
    so are its computed values when x1 + P is exact (x1 dyadic, as the hull
    points of the default starts are).  Otherwise a per-stage scan can
    differ in the last bit, and only past ~1e7 stages.
    """
    require_valid(params)
    if n < 1:
        raise ValueError("horizon must be at least 1")
    start = tuple(float(c) for c in x1)
    if len(profile) != 3 or len(start) != 3:
        raise ValueError("need a 3-vector start and a profile of three strategies")
    specs = []
    for s in profile:
        owner = _owner(type(s), "decide")
        if owner is GoodStrategy:
            specs.append(good_region(s.player, s.eps))
        elif owner is not ConstantStrategy:
            raise ValueError(f"simulate_events runs good and constant seats only, not {s.name}")
    first_tail = tail_start(n, window) + 1
    table = payoff_table(params)
    exact = _sums_exact(table, n)
    scale = max([abs(c) for c in start] + [abs(v) for row in table for v in row]
                + [params.r0, 2.0 * params.p3] + [spec.eps for spec in specs])
    threshold = _MARGIN_REL * scale
    decides = [s.decide for s in profile]
    evaluations = 0

    def margins(x):
        return [m for spec in specs for m in inequality_margins(params, spec, x)]

    def mean_at(stage, k, total, step):
        """Mean `stage` of the stretch from mean k, whose running sum is
        `total`, with every later payoff equal to `step`."""
        m = stage - k
        return tuple((a + (p + m * v)) / stage for a, p, v in zip(start, total, step))

    def farthest(k, total, mean, step) -> int:
        """The last stage of a certified stretch from k with step `step`."""
        nonlocal evaluations
        at_k = margins(mean)
        reads_fixed = None

        def certified(end: int) -> bool:
            nonlocal evaluations, reads_fixed
            evaluations += 1
            at_end = margins(mean_at(end, k, total, step))
            for idx, ((held, margin), (held_end, margin_end)) in enumerate(zip(at_k, at_end)):
                if held_end != held:
                    return False
                if abs(margin) > threshold and abs(margin_end) > threshold:
                    continue
                if reads_fixed is None:
                    # exactly x1 + P == k * step: fsum rounds the exact sum
                    fixed = [c == v and math.fsum((a, p, -k * v)) == 0.0
                             for a, p, v, c in zip(start, total, step, mean)]
                    probe = tuple(c if f else math.nan for c, f in zip(mean, fixed))
                    reads_fixed = [not math.isnan(mg) for _, mg in margins(probe)]
                if not reads_fixed[idx]:
                    return False
            return True

        lo, stride = k, 1
        while True:
            hi = min(k + stride, n)
            if not certified(hi):
                break
            lo = hi
            if hi == n:
                return n
            stride *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if certified(mid):
                lo = mid
            else:
                hi = mid
        return lo

    tail_min = [math.inf] * 3
    tail_max = [-math.inf] * 3

    def fold(x):
        for c, v in enumerate(x):
            if v < tail_min[c]:
                tail_min[c] = v
            if v > tail_max[c]:
                tail_max[c] = v

    segments: list[tuple[int, int, int]] = []
    k, total, mean = 1, [0.0, 0.0, 0.0], start
    while True:
        evaluations += 1
        code = 0
        for i, decide in enumerate(decides):
            action = decide(mean)
            if action == INVEST:
                code |= 1 << i
            elif action != NOT_INVEST:
                raise ValueError(f"unknown action {action!r}")
        step = table[code]
        last = farthest(k, total, mean, step) if exact and k < n else k
        if segments and segments[-1][2] == code:
            segments[-1] = (segments[-1][0], last, code)
        else:
            segments.append((k, last, code))
        # The means k..last+1 follow one step, so their extrema sit at the ends.
        if k >= first_tail:
            fold(mean)
        elif first_tail <= last + 1:
            fold(mean_at(first_tail, k, total, step))
        if last == n:
            break
        mean = mean_at(last + 1, k, total, step)
        total = [p + (last + 1 - k) * v for p, v in zip(total, step)]
        k = last + 1
    if k < n:
        mean = mean_at(n, k, total, step)
        fold(mean)
    return SegmentRun(segments=segments, final=mean, tail_min=tuple(tail_min),
                      tail_max=tuple(tail_max), evaluations=evaluations)


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
    row = "%d" + ",%.17g" * (2 * d) + "\n"
    steps = chain((traj.start,), traj.steps)
    fh.writelines(row % (idx, *mean, *step) for idx, mean, step in zip(count(1), traj.means, steps))
