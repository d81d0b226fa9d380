"""Mean-payoff trajectory engine and tail statistics.

The repeated game is driven by the running mean of realized payoffs:
given a step map phi, the mean after stage n+1 is
(n * mean_n + phi(mean_n)) / (n + 1).  Everything downstream (strategy
decisions, attractor checks, payoff reports) reads only these means.

Limits of the mean sequence are never reported as single numbers: tail
statistics over a trailing window (`Trajectory.tail`, or the extrema the
engines below keep) give [tail_min, tail_max] intervals, which is what a
finite run can actually certify.

Three engines share one payoff lookup, `stage_game.payoff_table` indexed
by the 3-bit code of the seats' decisions.  `iterate` collects the (mean,
step) pairs of `stages`, the running sum of the payoffs in floats, into one
profile's recorded trajectory.  `simulate_batch` applies the same running
sum to many (profile, start) cells together as a (B, 3) array and keeps
only what the deviant batteries report; it decides the good seats in one
`GoodColumns.invests_columns` call per stage on coordinate columns, a
fused test equal to `invests` exactly since rounding is monotone, and
every other seat but constants and coin flips by its own `invests` on
its row's mean as floats, so that cost grows with the number of such
rows; its means are bit-identical to `iterate` on the same cell.
`simulate_events` runs one profile of good seats in exact integers,
jumping over the stretches where the action profile stays fixed: it
decides each stretch and solves its end on the exact mean, and reports
each mean as the exact one correctly rounded, on any admissible game and
at any horizon an index holds.
"""

from __future__ import annotations

import io
import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .geometry import RegionSpec, _inequalities, scaled_ints
from .stage_game import GameParams, payoff_table
from .strategies import ConstantStrategy, GoodColumns, GoodStrategy, RandomStrategy, Strategy


@dataclass
class Trajectory:
    """Recorded run: means x̄_1..x̄_N and realized stage payoffs x_2..x_N.

    A recorded trajectory must not be mutated: it caches its means and steps
    arrays and, per proximal oracle, the projections of its means that
    `approachability.premise_start` made.
    """

    start: tuple[float, ...]
    means: list[tuple[float, ...]]
    steps: list[tuple[float, ...]]
    _means_arr: np.ndarray | None = field(default=None, repr=False, compare=False)
    _steps_arr: np.ndarray | None = field(default=None, repr=False, compare=False)
    _proximal: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def horizon(self) -> int:
        return len(self.means)

    def means_array(self) -> np.ndarray:
        if self._means_arr is None:
            self._means_arr = self._array(self.means)
        return self._means_arr

    def steps_array(self) -> np.ndarray:
        """The steps x_2..x_N as an (N - 1, d) array."""
        if self._steps_arr is None:
            self._steps_arr = self._array(self.steps)
        return self._steps_arr

    def _array(self, points) -> np.ndarray:
        d = len(self.start)
        return np.fromiter(chain.from_iterable(points), float, d * len(points)).reshape(-1, d)

    def tail(self, w: float) -> np.ndarray:
        """The means of the trailing window w as an (m, d) array; its column
        minima and maxima are the reportable [tail min, tail max] intervals."""
        return self.means_array()[tail_start(self.horizon, w):]

    @property
    def final(self) -> tuple[float, ...]:
        return self.means[-1]


def stages(phi: Callable, x1: Sequence[float], n: int) -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Yield (mean_k, step_k) for the stages k = 1..n of the mean dynamics
    from x1, with step_1 = x1 and step_k = phi(mean_{k-1}).  x1 is a 3-vector
    or (example 1's plane) a 2-vector.  n and len(x1) are checked on the
    call, so a caller can fail before it opens an output file.

    mean_k = (x1 + P) / k for the plain running sum P of the later steps.
    With steps that are integer multiples of 2**-e and max|v| * n * 2**e <
    2**53 every P is exact, so P + m*s equals m sequential additions of s.
    """
    _check_horizon(n)
    start = tuple(float(c) for c in x1)
    body = {2: _stages_2d, 3: _stages_3d}.get(len(start))
    if body is None:
        raise ValueError(f"stages runs 2- or 3-vectors, not {len(start)}-vectors")
    return body(phi, start, n)


# One body per dimension, with the running sums as locals: the per-stage
# cost of a generic coordinate loop is about half again as much.
def _stages_3d(phi: Callable, start: tuple[float, ...], n: int):
    a0, a1, a2 = start
    p0 = p1 = p2 = 0.0
    mean = start
    yield mean, start
    for k in range(2, n + 1):
        s0, s1, s2 = step = tuple(phi(mean))
        p0 += s0
        p1 += s1
        p2 += s2
        mean = ((a0 + p0) / k, (a1 + p1) / k, (a2 + p2) / k)
        yield mean, step


def _stages_2d(phi: Callable, start: tuple[float, ...], n: int):
    a0, a1 = start
    p0 = p1 = 0.0
    mean = start
    yield mean, start
    for k in range(2, n + 1):
        s0, s1 = step = tuple(phi(mean))
        p0 += s0
        p1 += s1
        mean = ((a0 + p0) / k, (a1 + p1) / k)
        yield mean, step


def _check_horizon(n: int) -> None:
    """Refuse a horizon below 1, or one that no array index holds: no run of it would end."""
    if n < 1:
        raise ValueError("horizon must be at least 1")
    if n > sys.maxsize:
        raise ValueError(f"n = {n:.15g} is beyond {sys.maxsize}, the largest horizon an array index holds")


def iterate(phi: Callable, x1: Sequence[float], n: int) -> Trajectory:
    """Run the mean dynamics from x1 for n stages (x1 counts as stage 1)."""
    means, steps = [], []
    for mean, step in stages(phi, x1, n):
        means.append(mean)
        steps.append(step)
    return Trajectory(start=means[0], means=means, steps=steps[1:])


@dataclass(frozen=True)
class BatchTails:
    """What `simulate_batch` keeps of each cell b: the final mean `final[b]`,
    the tail minimum and maximum of every coordinate `tail_min[b]`,
    `tail_max[b]` (all (B, 3)) and the tail maximum of x2 + x3
    `tail_max_23[b]`."""

    final: np.ndarray
    tail_min: np.ndarray
    tail_max: np.ndarray
    tail_max_23: np.ndarray

    def intervals(self, b: int) -> list[list[float]]:
        """Cell b's [tail min, tail max] per coordinate."""
        return [list(pair) for pair in zip(self.tail_min[b].tolist(), self.tail_max[b].tolist())]


#: Stages per block: a block's tail means are kept until they are folded
#: into the running extrema, and its planned decisions are gathered at once.
_BLOCK = 512


def simulate_batch(profiles, params: GameParams, starts, n: int, window: float) -> BatchTails:
    """Run cell b = (profiles[b], starts[b]) for n stages, all cells at once.

    Each stage applies the running sum of `stages` elementwise to the
    (B, 3) means, so every cell is bit-identical to `iterate` on the step
    map `induced_map(profiles[b], params)`.  The payoff is looked up in
    `payoff_table` by the 3-bit profile code (bit i set when seat i invests).
    Each seat's decisions come from one route, chosen by its exact type:
      - `ConstantStrategy`: its bit, written once before the loop;
      - `RandomStrategy`: `plan`, drawn before the loop, n - 1 per
        (cell, seat) in cell order;
      - `GoodStrategy`: one fused `GoodColumns.invests_columns` call per
        stage on the columns of all its slots, equal to `invests` as
        rounding is monotone;
      - any other class, `Example2Defector` and subclasses included: its
        own `invests` on its row's mean as a tuple of floats, as `iterate`
        calls it, once per (instance, row) and stage.  This costs a Python
        call per such row and stage, so it grows with their number.
    An instance of a stateful class (one that overrides `Strategy.fresh`)
    may fill one slot only, so that it is left in the state `iterate` would
    leave it in; give each seat its own `fresh()` copy.
    Tail statistics cover the means from `tail_start(n, window)` on.
    """
    _check_horizon(n)
    first = tail_start(n, window)
    cells = len(profiles)
    if len(starts) != cells or any(len(p) != 3 for p in profiles) or any(len(x) != 3 for x in starts):
        raise ValueError("need one 3-vector start and one profile of three strategies per cell")
    start = np.array(starts, dtype=float).reshape(cells, 3)
    table = np.array(payoff_table(params), dtype=float)

    # Route every (cell, seat) slot; dst indexes the flattened (B, 3) decisions.
    cache: dict = {}
    plans: dict[int, tuple[int, np.ndarray]] = {}
    plan_dst, plan_src, invest_dst = [], [], []
    goods, calls, stateful = [], {}, set()
    for b, profile in enumerate(profiles):
        for seat, s in enumerate(profile):
            dst = 3 * b + seat
            kind = type(s)
            if kind.fresh is not Strategy.fresh:
                if id(s) in stateful:
                    raise ValueError(f"{s.name} fills more than one slot of the batch, but keeps "
                                     "state: give each seat its own fresh() copy")
                stateful.add(id(s))
            if kind is ConstantStrategy:
                if s._invests:
                    invest_dst.append(dst)
            elif kind is RandomStrategy:
                arr = s.plan(n - 1, cache)
                plan_dst.append(dst)
                plan_src.append(plans.setdefault(id(arr), (len(plans), arr))[0])
            elif kind is GoodStrategy:
                goods.append((s, b, dst))
            else:
                calls.setdefault((id(s), b), (s.invests, b, []))[2].append(dst)
    plan_table = np.array([arr for _, arr in plans.values()], dtype=bool).reshape(len(plans), n - 1)
    plan_dst = np.array(plan_dst, dtype=np.intp)
    plan_src = np.array(plan_src, dtype=np.intp)
    # Row k - lo: stage k's decisions; a stage writes its good and float slots only.
    decisions = np.zeros((_BLOCK, 3 * cells), dtype=bool)
    decisions[:, invest_dst] = True
    decision_rows = list(decisions)
    # codes = bytes @ weights: bit i set when seat i invests
    decision_bytes = list(decisions.view(np.uint8).reshape(_BLOCK, cells, 3))
    weights = np.array([1, 2, 4], dtype=np.uint8)
    if goods:
        insts, rows, good_dst = zip(*goods)
        good = GoodColumns(insts).invests_columns
        # (3, m) take indices: each slot's own, lower and higher opponent coordinate
        good_idx = 3 * np.array(rows) + np.array([(g._i, g._j, g._k) for g in insts]).T
        good_dst = np.array(good_dst)
    if calls:
        # call c is fns[c] on row call_rows[c], and its result goes to each (c, dst) of float_route
        fns, call_rows, dsts = zip(*calls.values())
        call_rows = np.array(call_rows)
        float_route = [(c, d) for c, ds in enumerate(dsts) for d in ds]

    total = np.zeros_like(start)
    tail_min = np.full_like(start, np.inf)
    tail_max = np.full_like(start, -np.inf)
    tail_max_23 = np.full(cells, -np.inf)
    # Stage k's means go to tail row k - lo, or to the spare last row before the window.
    tail = np.empty((_BLOCK + 1, cells, 3))
    tail_rows = list(tail)

    def fold(part):
        np.minimum(tail_min, part.min(axis=0), out=tail_min)
        np.maximum(tail_max, part.max(axis=0), out=tail_max)
        np.maximum(tail_max_23, (part[:, :, 1] + part[:, :, 2]).max(axis=0), out=tail_max_23)

    means = start
    if first == 0:
        fold(means[None])
    for lo in range(1, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        decisions[:hi - lo, plan_dst] = plan_table[plan_src, lo - 1:hi - 1].T
        for k in range(lo, hi):
            row = decision_rows[k - lo]
            if goods:
                row[good_dst] = good(means.take(good_idx))
            if calls:
                out = [fn(tuple(x)) for fn, x in zip(fns, means.take(call_rows, axis=0).tolist())]
                for c, d in float_route:
                    row[d] = out[c]
            # The running sum of `stages`, count k -> k + 1.
            total += table.take(decision_bytes[k - lo] @ weights, axis=0)
            means = tail_rows[k - lo if k >= first else _BLOCK]
            np.add(start, total, out=means)
            means /= float(k + 1)
        if hi > first:
            fold(tail[max(first, lo) - lo:hi - lo])
    return BatchTails(means.copy(), tail_min, tail_max, tail_max_23)


@dataclass(frozen=True)
class SegmentRun:
    """What `simulate_events` keeps of one run.

    `segments` are run-length (first, last, code) triples covering means
    1..n: the profile decided at means first..last has the code `code` (bit
    i set when seat i invests).  `final` is mean n; `tail_min`/`tail_max`
    are per-coordinate extrema of the means from `tail_start(n, window)` on;
    `evaluations` counts the decisions and the stretch solves.
    """

    segments: list[tuple[int, int, int]]
    final: tuple[float, ...]
    tail_min: tuple[float, ...]
    tail_max: tuple[float, ...]
    evaluations: int


def simulate_events(profile, params: GameParams, x1, n: int, window: float) -> SegmentRun:
    """Run one profile of seats of type exactly `GoodStrategy` from x1 for
    n stages, jumping over stretches of one fixed profile.

    Decisions and stretch ends are exact.  The start, the payoffs, r0, p3
    and each seat's eps (its float's exact value) times their common
    power-of-two denominator D are ints, so the running sum X_k = D (x1 +
    P_k) is an int, and `_inequalities` on X_k with the constants times k
    gives k D times each form's margin at the exact mean X_k / (k D).  At a
    stretch's first mean k the profile is decided from these forms' truth
    values.  With h_v the form on the step, L D times its margin is h_k +
    (L - k) h_v along the stretch, so a form whose truth value changes does
    so at one rational root, and the engine jumps to the earliest such end.

    Each mean reported is the exact mean correctly rounded: X_L / (L D),
    an int over an int.  So every admissible game runs to any horizon an
    index holds.  Where x1 + P_k is exact in floats (a dyadic start and
    game, with sums short of 2**53) `iterate` rounds the same exact mean
    once, so the two agree bit for bit wherever `iterate`'s decisions on
    its rounded means agree with the exact ones.

    Along a stretch every exact coordinate is monotone, and so is its
    correct rounding, so the tail extrema are taken at segment endpoints
    and at the tail's first stage.
    """
    _check_horizon(n)
    start = tuple(float(c) for c in x1)
    if len(profile) != 3 or len(start) != 3:
        raise ValueError("need a 3-vector start and a profile of three strategies")
    if any(type(s) is not GoodStrategy for s in profile):
        raise ValueError("simulate_events runs good seats only")
    first_tail = tail_start(n, window) + 1
    # 3 start coordinates, 8 payoff rows of 3, r0, p3 and one eps per seat
    table = payoff_table(params)
    ints, den = scaled_ints(chain(start, *table, (params.r0, params.p3), (s.eps for s in profile)))
    x, table_int = ints[:3], [ints[c:c + 3] for c in range(3, 27, 3)]
    r0, p3, *eps = ints[27:]
    evaluations = 0

    def forms(c, cols):
        """Per seat, (held, strict, margin) of each inequality of V_i on int
        columns with the constants times c; a margin is signed to be positive
        where its inequality holds, as lhs - rhs is for ">" and ">="."""
        consts = SimpleNamespace(r0=c * r0, p3=c * p3)
        out = []
        for s, e in zip(profile, eps):
            seat = []
            for lhs, op, rhs in _inequalities(consts, RegionSpec("v", s.player, c * e), cols):
                m = lhs - rhs if op[0] == ">" else rhs - lhs
                strict = op in ("<", ">")
                seat.append((m > 0 or (m == 0 and not strict), strict, m))
            out.append(seat)
        return out

    def farthest(k, at_k, step) -> int:
        """The stretch's last stage from k.  A form whose truth value changes
        does so at r = k - h_k / h_v: its last stage before the change is
        ceil(r) - 1 when (strict == held), floor(r) otherwise."""
        last = n
        for (held, strict, h_k), (_, _, h_v) in zip(chain(*at_k), chain(*forms(1, step))):
            if h_v != 0 and held == (h_v < 0):
                num = k * h_v - h_k  # r = num / h_v
                last = min(last, -(-num // h_v) - 1 if strict == held else num // h_v)
        return last

    def mean_at(stage, k, x, step):
        """Mean `stage`, correctly rounded, of the stretch from mean k, whose
        scaled sum is x, with every later scaled payoff equal to `step`."""
        m, d = stage - k, stage * den
        return tuple((c + m * v) / d for c, v in zip(x, step))

    tail_min = [math.inf] * 3
    tail_max = [-math.inf] * 3

    def fold(mean):
        for c, v in enumerate(mean):
            if v < tail_min[c]:
                tail_min[c] = v
            if v > tail_max[c]:
                tail_max[c] = v

    segments: list[tuple[int, int, int]] = []
    k = 1
    while True:
        evaluations += 1 + (k < n)  # a decision, and a stretch solve
        at_k = forms(k, x)
        code = sum(1 << seat for seat, fs in enumerate(at_k) if all(held for held, _, _ in fs))
        step = table_int[code]
        last = farthest(k, at_k, step) if k < n else k
        if segments and segments[-1][2] == code:
            segments[-1] = (segments[-1][0], last, code)
        else:
            segments.append((k, last, code))
        # The means k..last+1 follow one step, so their extrema sit at the ends.
        if first_tail <= last + 1:
            fold(mean_at(max(k, first_tail), k, x, step))
        if last == n:
            break
        x = [c + (last + 1 - k) * v for c, v in zip(x, step)]
        k = last + 1
    final = mean_at(n, k, x, step)
    fold(final)
    return SegmentRun(segments=segments, final=final, tail_min=tuple(tail_min),
                      tail_max=tuple(tail_max), evaluations=evaluations)


def tail_start(n: int, w: float) -> int:
    """0-based index of the first mean inside the trailing window."""
    if not 0.0 < w < 1.0:
        raise ValueError("window fraction must be in (0, 1)")
    if n * w < 1.0:
        raise ValueError("window contains no indices")
    return max(0, math.ceil((1.0 - w) * n) - 1)


#: Step texts `write_csv` keeps at once: induced_map's phi has 8 steps, and
#: a phi that builds a fresh tuple every stage grows no memory.
_STEP_MEMO_CAP = 64

#: Rows per block of `write_csv`: the stage loop packs this many rows'
#: values before one `_format_block` call turns them into text.
_CSV_BLOCK = 2048


def write_csv(rows: Iterable, fh, comment: str | None = None) -> None:
    """Trajectory CSV: header n,x1..,step1.. and one row per (mean, step)
    pair of `rows` (at least one, as `stages` yields them), written in
    blocks of `_CSV_BLOCK` rows as they arrive.  Floats use 17 significant
    digits, so a round trip is exact.

    When fh is a text file over an OS file descriptor (`open`, `sys.stdout`)
    and this process may fork, one forked writer process formats the blocks
    and writes them to fh while this process runs the loop over `rows`;
    otherwise (a `StringIO`, say) they are formatted and written here.  Both
    paths format with `_format_block`, so their bytes are the same.  A failed
    write raises OSError here either way, and the writer is reaped first.  If
    `rows` raises, the writer is stopped, and only some of the rows before
    the failure are written.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        raise ValueError("no rows to write")
    d = len(first[0])
    if comment:
        fh.write(f"# {comment}\n")
    cols = ["n"] + [f"x{k + 1}" for k in range(d)] + [f"step{k + 1}" for k in range(d)]
    fh.write(",".join(cols) + "\n")
    # A row is its index, its mean's coordinates and its step's text.
    row_fmt = "%d" + ",%.17g" * d + "%s"
    step_fmt = ",%.17g" * d + "\n"
    # induced_map's phi returns one shared tuple per action profile, so a
    # step's text is formatted once per object (a yielded step must not
    # change).  Keyed by id, not value, as 0.0 == -0.0; an entry holds its
    # step, so the id is not reused while the entry lives.
    memo: dict[int, tuple[tuple[float, ...], str]] = {}
    block: list = []
    add, extend = block.append, block.extend
    with _block_writer(fh, row_fmt, d + 2) as put:
        for idx, (mean, step) in zip(count(1), chain((first,), rows)):
            hit = memo.get(id(step))
            if hit is None:
                if len(memo) >= _STEP_MEMO_CAP:
                    memo.clear()
                hit = memo[id(step)] = (step, step_fmt % tuple(step))
            add(idx)
            extend(mean)
            add(hit[1])
            if idx % _CSV_BLOCK == 0:
                put(block)  # done with the block when it returns
                block.clear()
        if block:
            put(block)


def _format_block(row_fmt: str, width: int, values: list) -> str:
    """The text of consecutive rows, each `width` of `values` in turn, with
    one % on row_fmt repeated once per row."""
    return (row_fmt * (len(values) // width)) % tuple(values)


def _forkable(fh) -> bool:
    """Whether a forked writer can write to fh as this process would: fh is
    a text file straight over an OS file (`open`, `sys.stdout`), os.fork
    exists and no other thread is alive, which a fork would not copy."""
    raw = getattr(fh, "buffer", None)
    raw = getattr(raw, "raw", raw)  # an unbuffered file (python -u) has no buffer layer
    return (hasattr(os, "fork") and type(fh) is io.TextIOWrapper and type(raw) is io.FileIO
            and threading.active_count() == 1)


@contextmanager
def _block_writer(fh, row_fmt: str, width: int):
    """Yield put(values), which writes a block of rows to fh: through one
    forked writer fed by a one-way pipe, or here (see `write_csv`).

    The writer is reaped on leaving, whatever happened.  If it failed, an
    OSError with its errno (or its exit status) is raised; if the caller's
    loop raised, the writer is killed first, as it may be blocked on fh."""
    if not _forkable(fh):
        yield lambda values: fh.write(_format_block(row_fmt, width, values))
        return
    import pickle  # the process machinery is imported on use
    import signal

    fh.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the writer: it leaves only through os._exit, so no traceback
        status = 255
        try:
            os.close(w)
            status = _write_blocks(r, fh, row_fmt, width)
        finally:
            os._exit(status)
    os.close(r)

    def put(values):
        data = memoryview(pickle.dumps(values, pickle.HIGHEST_PROTOCOL))
        while data:  # a write a signal interrupts may be partial
            data = data[os.write(w, data):]

    killed = False
    try:
        yield put
    except BrokenPipeError:
        raise  # put's, once the writer has exited: its status replaces it
    except BaseException:
        killed = True
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(w)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status and not killed:
            raise (OSError(status, os.strerror(status)) if 0 < status < 255
                   else OSError(f"the CSV writer process ended with status {status}"))


def _write_blocks(fd: int, fh, row_fmt: str, width: int) -> int:
    """The writer's loop: format and write to fh every block read from fd
    until the parent closes it; returns 0, or the errno of a failed write
    (255 when it has none)."""
    import pickle
    import signal

    # Ctrl-C reaches the parent too, which then stops this process: its
    # KeyboardInterrupt, not this one's exit, is what the caller sees.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with open(fd, "rb") as src:
            while True:
                try:
                    values = pickle.load(src)
                except EOFError:
                    break
                fh.write(_format_block(row_fmt, width, values))
        fh.flush()
    except OSError as exc:
        return exc.errno if 0 < (exc.errno or 0) < 255 else 255
    return 0
