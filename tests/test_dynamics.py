import io
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import astuple
from fractions import Fraction
from itertools import chain, cycle

import numpy as np
import pytest
from test_cross_game import SHORT_EXACT_HORIZON, sampled_games
from test_strategies import NON_DYADIC

from investgame import dynamics
from investgame.dynamics import (
    iterate,
    simulate_batch,
    simulate_events,
    stages,
    tail_start,
    write_csv,
)
from investgame.geometry import hull_mask, hull_point, norm3, scaled_ints
from investgame.harness import EXAMPLE1_A, EXAMPLE1_B, example1_phi
from investgame.stage_game import (
    ALL_INVEST,
    INVEST,
    GameParams,
    example_game,
    payoff_table,
    vertices,
)
from investgame.strategies import (
    ConstantStrategy,
    GoodStrategy,
    RandomStrategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)


def all_good_phi(eps=0.4):
    return induced_map(good_profile(PARAMS, eps), PARAMS)


class TestIterate:
    def test_hand_iterated_prefix(self):
        traj = iterate(all_good_phi(), VS.A, 4)
        assert traj.means[0] == (20.0, 20.0, 20.0)
        assert traj.means[1] == (23.0, 23.0, 23.0)
        assert traj.means[2] == (24.0, 24.0, 24.0)

    def test_fixed_point(self):
        traj = iterate(lambda x: (26.0, 26.0, 26.0), VS.B, 500)
        assert all(m == (26.0, 26.0, 26.0) for m in traj.means)

    def test_closed_form_average(self):
        # phi constant at B from start A: mean_n = A/n + B (n-1)/n
        n = 1000
        traj = iterate(lambda x: VS.B, VS.A, n)
        for k in (1, 2, 9, 99, n - 1):
            m = k + 1.0
            expect = tuple(a / m + b * (m - 1.0) / m for a, b in zip(VS.A, VS.B))
            assert norm3([u - v for u, v in zip(traj.means[k], expect)]) <= 1e-11

    def test_replay_is_bit_exact(self):
        phi = induced_map(
            (
                GoodStrategy(1, 0.4, PARAMS),
                GoodStrategy(2, 0.4, PARAMS),
                RandomStrategy(0.5, 7),
            ),
            PARAMS,
        )
        traj = iterate(phi, (18.0, 18.0, 36.0), 5000)
        recorded = iter(traj.steps)
        assert [mean for mean, _ in stages(lambda x: next(recorded), traj.start, traj.horizon)] == traj.means

    def test_recurrence_holds_numerically(self):
        traj = iterate(all_good_phi(), VS.c1[0], 5000)
        for n in range(1, traj.horizon):
            prev = traj.means[n - 1]
            step = traj.steps[n - 1]
            for k in range(3):
                plain = (n * prev[k] + step[k]) / (n + 1)
                assert abs(plain - traj.means[n][k]) <= 1e-9

    def test_means_stay_in_s(self):
        phi = induced_map(
            (
                GoodStrategy(1, 0.4, PARAMS),
                RandomStrategy(0.5, 3),
                RandomStrategy(0.5, 5),
            ),
            PARAMS,
        )
        traj = iterate(phi, VS.c2[2], 20_000)
        assert bool(np.all(hull_mask(VS.all_points(), traj.means_array())))

    def test_absorption_once_inside_v3(self):
        from investgame.geometry import RegionSpec, region_mask

        traj = iterate(all_good_phi(), VS.c1[0], 20_000)
        inside = np.all([region_mask(PARAMS, RegionSpec("v", i, 0.4), traj.means_array())
                         for i in (1, 2, 3)], axis=0)
        assert inside.any()
        entered = int(np.argmax(inside)) + 1
        assert inside[entered - 1:].all()
        assert traj.steps[entered - 1:] == [VS.B] * (traj.horizon - entered)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            iterate(lambda x: x, (0.0, 0.0), 0)

    def test_stages_checks_the_horizon_when_called(self):
        # before the first pair is asked for, so a caller can fail before it opens a file
        with pytest.raises(ValueError):
            stages(lambda x: x, (0.0, 0.0), 0)


def reference_stages(phi, x1, n):
    """The generic per-coordinate stage loop that `stages` unrolls per dimension."""
    start = tuple(float(c) for c in x1)
    mean = start
    total = [0.0] * len(start)
    yield mean, start
    for k in range(2, n + 1):
        step = tuple(phi(mean))
        new_total = []
        new_mean = []
        for a, p, s in zip(start, total, step):
            p += s
            new_total.append(p)
            new_mean.append((a + p) / k)
        total = new_total
        mean = tuple(new_mean)
        yield mean, step


def float_bits(pairs):
    """Every float of (mean, step) pairs as hex, so -0.0 differs from 0.0."""
    return [tuple(tuple(c.hex() for c in v) for v in pair) for pair in pairs]


# Admissible games: integer payoffs, and the canonical game scaled by 1/10,
# whose payoffs are not dyadic, so payoff sums round.
OTHER = GameParams(r0=5.0, r1=8.0, r2=12.0, p1=3.0, p2=7.0, p3=11.0)
TENTHS = GameParams(r0=2.0, r1=2.8, r2=3.6, p1=1.0, p2=1.8, p3=2.6)


class TestStageBodies:
    """The unrolled 2-D and 3-D bodies of `stages` against the generic loop."""

    @pytest.mark.parametrize("make_phi, x1, n", [
        (lambda: induced_map((GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS),
                              RandomStrategy(0.5, 11)), PARAMS), (20.0, 20.0, 20.0), 20_000),
        (lambda: induced_map(good_profile(TENTHS, 0.04), TENTHS),
         hull_point(vertices(TENTHS), [0.1, 0.3, 0.6] + [0.0] * 5), 5000),
        (lambda: example1_phi(EXAMPLE1_A, EXAMPLE1_B), (2.5, -1.7), 5000),
        (lambda: (lambda x: [x[1] * 0.5 + 0.1, -x[0], 1.0 / 3.0]), (0.3, -0.7, 0.1), 2000),
    ], ids=["readme-profile", "tenths-game", "example1-plane", "list-steps"])
    def test_bit_identical_to_reference_loop(self, make_phi, x1, n):
        got = float_bits(stages(make_phi(), x1, n))
        assert len(got) == n
        assert got == float_bits(reference_stages(make_phi(), x1, n))

    @pytest.mark.parametrize("x1", [(1.0,), (1.0, 2.0, 3.0, 4.0)], ids=["1-vector", "4-vector"])
    def test_other_dimensions_fail_on_the_call(self, x1):
        with pytest.raises(ValueError, match="2- or 3-vectors"):
            stages(lambda x: x, x1, 10)


def last_mean(phi, x1, n):
    *_, (mean, _) = stages(phi, x1, n)
    return mean


class TestRunningMean:
    """The running mean of `stages`, driven by a scripted step sequence."""

    def test_matches_plain_average_closely(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-30, 30, size=(50_000, 3))
        script = iter(values[1:])
        mean = last_mean(lambda x: next(script), values[0], len(values))
        direct = values.mean(axis=0)
        assert np.allclose(mean, direct, atol=1e-11)

    def test_dyadic_sums_jump_exactly(self):
        # integer payoffs: P + m*s is m sequential additions, bit for bit
        start = (20.0, 20.125, 19.875)
        mean = last_mean(lambda x: VS.c1[0], start, 1000)
        total = [p + 999 * s for p, s in zip([0.0] * 3, VS.c1[0])]
        assert mean == tuple((a + p) / 1000 for a, p in zip(start, total))


class TestStepSizeBound:
    def test_empirical_sweep(self):
        # one stage moves the mean by |phi(x) - x| / (n + 1) <= diameter / (n + 1),
        # so past N0 = ceil(diameter / xi) every move is below xi
        xi = 0.1
        n0 = math.ceil(60.0 / xi)
        traj = iterate(all_good_phi(), VS.c2[0], 3000)
        arr = traj.means_array()
        moves = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        assert float(moves[n0:].max()) < xi


class TestTailStats:
    def test_constant_trajectory(self):
        traj = iterate(lambda x: VS.B, VS.B, 2000)
        tail = traj.tail(0.5)
        assert tail[:, 2].max() == tail[:, 2].min() == 26.0

    def test_closed_form_window(self):
        traj = iterate(lambda x: VS.B, VS.A, 1000)
        val = traj.tail(0.1)[:, 0].max()
        assert 25.94 <= val <= 26.0
        assert abs(val - (26.0 - 6.0 / 1000.0)) <= 1e-12

    def test_all_good_pair_sum_cap(self):
        traj = iterate(all_good_phi(), VS.c1[0], 20_000)
        tail = traj.tail(0.5)
        cap = (tail[:, 1] + tail[:, 2]).max()
        assert cap <= 2 * PARAMS.p3 + 0.05

    def test_interval_orders_endpoints(self):
        traj = iterate(all_good_phi(), VS.c2[1], 5000)
        tail = traj.tail(0.5)
        assert tail.min(axis=0)[0] <= tail.max(axis=0)[0]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            tail_start(100, 0.0)
        with pytest.raises(ValueError):
            tail_start(100, 1.0)
        with pytest.raises(ValueError):
            tail_start(1, 0.5)


class TestScalarMeanCap:
    """Forcing the next value below c whenever the mean exceeds c pins the
    tail of the mean at c; randomized sequences, premise enforced at c=0."""

    def test_randomized_sequences(self):
        rng = np.random.default_rng(77)
        n = 10_000
        t0 = tail_start(n, 0.5)
        for _ in range(10):
            mean = 1.0 - 2.0 * rng.random()
            tail_max = -math.inf
            for k in range(1, n):
                nxt = -rng.random() if mean > 0.0 else 1.0 - 2.0 * rng.random()
                mean += (nxt - mean) / (k + 1)
                if k >= t0:
                    tail_max = max(tail_max, mean)
            assert tail_max <= 10.0 / n


class TestLimitLocalization:
    def test_tail_interval_confined_by_a_convex_attractor(self):
        # when dist(mean_n, {B}) -> 0, any linear functional's tail interval
        # collapses into the functional's range over the attractor
        traj = iterate(all_good_phi(), VS.c1[1], 50_000)
        tail = traj.tail(0.2)
        assert (PARAMS.p3 - 0.05 <= tail.min(axis=0)).all()
        assert (tail.max(axis=0) <= PARAMS.p3 + 0.05).all()


class TestCsv:
    def test_round_trip_at_full_precision(self):
        traj = iterate(all_good_phi(), (20.0, 20.0, 20.0), 50)
        buf = io.StringIO()
        write_csv(zip(traj.means, [traj.start] + traj.steps), buf, comment="profile: all good")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,x1,x2,x3,step1,step2,step3"
        assert len(lines) == 2 + traj.horizon
        row = lines[3].split(",")  # stage 2
        assert int(row[0]) == 2
        assert tuple(float(c) for c in row[1:4]) == traj.means[1]
        assert tuple(float(c) for c in row[4:7]) == traj.steps[0]

    def test_no_rows_is_a_value_error(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="no rows"):
            write_csv(iter([]), buf)
        assert buf.getvalue() == ""


def old_csv_rows(traj):
    """The row formatting write_csv had before it used one format string."""
    fmt = "%.17g"
    out = []
    for idx, mean in enumerate(traj.means):
        step = traj.start if idx == 0 else traj.steps[idx - 1]
        row = [str(idx + 1)] + [fmt % c for c in mean] + [fmt % c for c in step]
        out.append(",".join(row) + "\n")
    return out


CSV_TRAJS = pytest.mark.parametrize("traj", [
    iterate(induced_map((GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS),
                         RandomStrategy(0.5, 11)), PARAMS), (20.0, 20.0, 20.0), 3000),
    iterate(lambda x: (0.1, -1e-300) if x[1] > 0 else (2.0, 1.0), (2.5, -1.7), 500),
    # equal by value, not by sign: a value-keyed step memo would print 0 for -0
    iterate(lambda x, steps=cycle([(0.0, 1.0), (-0.0, 1.0)]): next(steps), (0.0, -0.0), 500),
    # a fresh tuple every stage, more than the step memo keeps
    iterate(lambda x: (x[1] * 0.5 + 0.1, -x[0], x[2] + 1.0 / 3.0), (0.3, -0.7, 0.1), 500),
    # more than one block of rows, and not a whole number of blocks
    iterate(all_good_phi(), VS.c1[1], 2 * dynamics._CSV_BLOCK + 77),
], ids=["3-d", "2-d", "signed-zeros", "fresh-steps", "blocks-and-a-part"])


def csv_rows(traj):
    return zip(traj.means, [traj.start] + traj.steps)


class ForkLog:
    """The pids os.fork returns to this process, recorded as they are forked."""

    def __init__(self):
        self.pids = []

    def assert_reaped(self):
        assert not multiprocessing.active_children()
        for pid in self.pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    log = ForkLog()
    fork = os.fork

    def logged():
        pid = fork()
        if pid:
            log.pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", logged)
    return log


class TestCsvRows:
    @CSV_TRAJS
    def test_rows_match_old_formatting_byte_for_byte(self, traj):
        buf = io.StringIO()
        write_csv(csv_rows(traj), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        assert lines[1:] == old_csv_rows(traj)

    @CSV_TRAJS
    def test_forked_writer_writes_the_same_bytes(self, traj, tmp_path, forks):
        path = tmp_path / "traj.csv"
        with open(path, "w", newline="") as fh:
            write_csv(csv_rows(traj), fh, comment="c")
        assert len(forks.pids) == 1
        forks.assert_reaped()
        buf = io.StringIO()
        write_csv(csv_rows(traj), buf, comment="c")
        assert path.read_bytes() == buf.getvalue().encode()
        assert path.read_text().splitlines(keepends=True)[2:] == old_csv_rows(traj)

    def test_writes_in_process_without_fork_or_beside_a_thread(self, tmp_path, forks, monkeypatch):
        traj = iterate(all_good_phi(), VS.c1[1], 100)
        buf = io.StringIO()
        write_csv(csv_rows(traj), buf)
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        helper.start()
        try:
            with open(tmp_path / "threaded.csv", "w", newline="") as fh:
                write_csv(csv_rows(traj), fh)
        finally:
            stop.set()
            helper.join()
        monkeypatch.delattr(os, "fork")
        with open(tmp_path / "forkless.csv", "w", newline="") as fh:
            write_csv(csv_rows(traj), fh)
        assert forks.pids == []
        for name in ("threaded.csv", "forkless.csv"):
            assert (tmp_path / name).read_bytes() == buf.getvalue().encode()

    def test_file_continues_after_the_writer(self, tmp_path):
        # the writer shares the file offset, so later writes follow its rows
        traj = iterate(all_good_phi(), VS.c1[1], dynamics._CSV_BLOCK + 1)
        path = tmp_path / "traj.csv"
        with open(path, "w", newline="") as fh:
            write_csv(csv_rows(traj), fh)
            fh.write("# end\n")
        buf = io.StringIO()
        write_csv(csv_rows(traj), buf)
        assert path.read_text() == buf.getvalue() + "# end\n"

    def test_a_failing_writer_raises_its_error_here(self, forks):
        # a reader that takes one byte of the header and exits: the writer's
        # EPIPE comes back here as BrokenPipeError
        traj = iterate(all_good_phi(), VS.c1[1], 3 * dynamics._CSV_BLOCK)
        reader = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.buffer.read(1)"],
                                  stdin=subprocess.PIPE)
        try:
            with open(reader.stdin.fileno(), "w", closefd=False) as fh:
                with pytest.raises(BrokenPipeError, match=r"\[Errno 32\] Broken pipe"):
                    write_csv(csv_rows(traj), fh)
        finally:
            reader.stdin.close()
            reader.wait(timeout=60)
        assert len(forks.pids) == 1
        forks.assert_reaped()

    def test_a_failing_row_source_reaps_the_writer(self, tmp_path, forks):
        traj = iterate(all_good_phi(), VS.c1[1], 3000)

        def rows():
            yield from csv_rows(traj)
            raise RuntimeError("stage loop failed")

        with open(tmp_path / "traj.csv", "w", newline="") as fh:
            with pytest.raises(RuntimeError, match="stage loop failed"):
                write_csv(rows(), fh)
        assert len(forks.pids) == 1
        forks.assert_reaped()
        header, written = (tmp_path / "traj.csv").read_text().split("\n", 1)
        assert "".join(old_csv_rows(traj)).startswith(written)


def codes_along(traj, profile):
    """Run-length (first, last, code) of the decisions at every mean of traj."""
    segments = []
    for k, mean in enumerate(traj.means, start=1):
        code = sum(1 << i for i, s in enumerate(profile) if s.invests(mean))
        if segments and segments[-1][2] == code:
            segments[-1] = (segments[-1][0], k, code)
        else:
            segments.append((k, k, code))
    return segments


def exact_reference(profile, params, x1, n, window):
    """One stage at a time, in exact rationals: the running sum x1 + P_k is
    kept over the common denominator D of the inputs' `Fraction`s, as the
    ints X = D (x1 + P_k), and each good seat is decided by its inequalities
    at the exact mean X / (k D), each side times k D (eps read as its
    float's exact value).  Each mean is X / (k D), correctly rounded.
    Returns (segments, final, tail_min, tail_max) as `simulate_events`
    reports them."""
    table = payoff_table(params)
    inputs = [Fraction(v) for v in (*x1, *chain.from_iterable(table), params.r0, params.p3,
                                    *(s.eps for s in profile))]
    den = math.lcm(*(q.denominator for q in inputs))
    x, exact_table, (r0, p3, *eps) = (
        [int(q * den) for q in part] for part in (inputs[:3], inputs[3:27], inputs[27:]))
    seats = [(s.player - 1, *(m for m in range(3) if m != s.player - 1), e) for s, e in zip(profile, eps)]
    means, segments = [], []
    for k in range(1, n + 1):
        means.append(tuple(c / (k * den) for c in x))
        code = sum(1 << bit for bit, (i, j, m, e) in enumerate(seats)
                   if x[i] > x[j] - k * e and x[i] > x[m] - k * e and x[i] >= k * r0 and x[j] + x[m] <= 2 * k * p3)
        if segments and segments[-1][2] == code:
            segments[-1] = (segments[-1][0], k, code)
        else:
            segments.append((k, k, code))
        x = [c + v for c, v in zip(x, exact_table[3 * code:3 * code + 3])]
    tail = np.array(means[tail_start(n, window):])
    return segments, means[-1], tuple(tail.min(axis=0).tolist()), tuple(tail.max(axis=0).tolist())


def float_sums_exact(params, x1, n) -> bool:
    """Whether every running sum x1 + P_k of `stages` up to mean n is exact
    in floats: the start and the payoffs are ints over a common power of two
    D, and every D |x1 + P_k| stays below 2**53."""
    ints, _ = scaled_ints(chain(x1, *payoff_table(params)))
    return max(map(abs, ints[:3])) + (n - 1) * max(map(abs, ints[3:])) < 2**53


class TestEventEngine:
    def check(self, profile, params, x1, n, window=0.5):
        """simulate_events against the exact reference on every case, and
        against iterate, bit for bit, where iterate's running sums are exact
        and its float means decide as the exact ones do; returns the run,
        whether iterate decided alike and whether its means were compared."""
        run = simulate_events(profile, params, x1, n, window)
        assert (run.segments, run.final, run.tail_min, run.tail_max) == exact_reference(
            profile, params, x1, n, window)
        traj = iterate(induced_map(profile, params), x1, n)
        alike = run.segments == codes_along(traj, profile)
        compared = alike and float_sums_exact(params, x1, n)
        if compared:
            assert run.final == traj.final
            tail = traj.tail(window)
            assert run.tail_min == tuple(tail.min(axis=0).tolist())
            assert run.tail_max == tuple(tail.max(axis=0).tolist())
        return run, alike, compared

    def test_matches_iterate_on_good_profiles(self):
        rng = np.random.default_rng(5)
        compared = []
        for params in (PARAMS, OTHER):
            vs = vertices(params)
            for _ in range(12):
                profile = [GoodStrategy(seat, float(rng.choice([0.1, 0.4, 1.5])), params) for seat in (1, 2, 3)]
                weights = rng.integers(0, 4, size=8).astype(float)
                weights[0] += 1.0
                x1 = hull_point(vs, weights / weights.sum())
                _, alike, same_means = self.check(tuple(profile), params, x1, int(rng.choice([1000, 3000])),
                                                  float(rng.choice([0.2, 0.5, 0.9])))
                assert alike
                compared.append(same_means)
        # a start with weights off every dyadic grid makes x1 + P_k round
        assert compared.count(True) == 4

    def test_matches_iterate_bit_for_bit_from_dyadic_starts(self):
        # weights in eighths on integer payoffs: every x1 + P_k is exact, so
        # iterate rounds the same exact mean once
        rng = np.random.default_rng(8)
        diverged = []
        for case in range(16):
            params = (PARAMS, OTHER)[case // 8]
            profile = tuple(GoodStrategy(seat, float(rng.choice([0.1, 0.4, 1.5])), params) for seat in (1, 2, 3))
            x1 = hull_point(vertices(params), rng.multinomial(8, [1 / 8] * 8) / 8)
            n = int(rng.choice([1000, 3000]))
            assert float_sums_exact(params, x1, n)
            _, alike, compared = self.check(profile, params, x1, n, float(rng.choice([0.2, 0.5, 0.9])))
            assert alike == compared
            if not alike:
                diverged.append(case)
        # a rounded mean lands on x_i = fl(x_j - 0.1) where the exact one
        # does not: cases 5 and 13, at means 45 and 25
        assert diverged == [5, 13]

    @pytest.mark.parametrize("params", (TENTHS, NON_DYADIC, *SHORT_EXACT_HORIZON,
                                        *sampled_games(seed=3, per_grid=3)[:3]),  # the 0.1-grid ones
                             ids=lambda g: ",".join(f"{v:g}" for v in astuple(g)))
    def test_matches_the_exact_reference_where_sums_round(self, params):
        # payoffs on a 0.1 grid and starts off every dyadic grid: x1 + P_k
        # rounds in floats, and every reported mean is still the exact one
        # correctly rounded
        rng = np.random.default_rng(31)
        for _ in range(4):
            profile = tuple(GoodStrategy(seat, float(rng.choice([0.1, 0.4, 1.5])), params) for seat in (1, 2, 3))
            weights = rng.integers(0, 4, size=8).astype(float)
            weights[rng.integers(8)] += 1.0
            x1 = hull_point(vertices(params), weights / weights.sum())
            n = int(rng.choice([200, 2000]))
            assert not float_sums_exact(params, x1, n)
            self.check(profile, params, x1, n, float(rng.choice([0.2, 0.5, 0.9])))

    def test_matches_iterate_from_switching_surfaces(self):
        # a start on x_i = x_j - eps, x_i = r0 or x_j + x_k = 2 p3 has a
        # zero margin there, which a stretch solve must not jump over
        rng = np.random.default_rng(27)
        diverged = []
        for case in range(150):
            params = (PARAMS, OTHER)[rng.integers(2)]
            eps = [float(e) for e in rng.choice([0.1, 0.25, 0.4, 0.5, 1.0, 1.5, 2.0], size=3)]
            profile = tuple(GoodStrategy(seat, eps[seat - 1], params) for seat in (1, 2, 3))
            weights = rng.integers(0, 4, size=8).astype(float)
            weights[0] += 1.0
            x1 = list(hull_point(vertices(params), weights / weights.sum()))
            i, j, k = (int(c) for c in rng.permutation(3))
            surface = rng.integers(4)
            if surface == 1:
                x1[i] = x1[j] - eps[i]
            elif surface == 2:
                x1[i] = params.r0
            elif surface == 3:
                x1[k] = 2.0 * params.p3 - x1[j]
            _, alike, _ = self.check(profile, params, tuple(x1), int(rng.choice([200, 1000, 3000])),
                                     float(rng.choice([0.2, 0.5, 0.9])))
            if not alike:
                diverged.append(case)
        # iterate decides otherwise where fl(x_j - eps) or a rounded mean
        # lands on a boundary that the exact one misses: cases 28, 41 and
        # 110 start on x_i = fl(x_j - eps), cases 75 and 99 reach one later
        assert diverged == [28, 41, 75, 99, 110]

    def test_non_dyadic_start(self):
        # x1 + P rounds.  At mean 18 the exact x1 - x2 is a hair below 0.4,
        # so below eps's exact value Fraction(0.4) > 0.4: seat 2 invests
        # (code 7).  On the rounded mean fl(x1 - 0.4) == x2, and iterate
        # reads code 1 there.
        profile, x1 = good_profile(PARAMS, 0.4), hull_point(VS, [0.1, 0.3, 0.6] + [0.0] * 5)
        run, alike, _ = self.check(profile, PARAMS, x1, 5000)
        assert not alike
        assert run.segments[17:] == [(18, 5000, ALL_INVEST)]
        floats = codes_along(iterate(induced_map(profile, PARAMS), x1, 5000), profile)
        assert floats[:17] == run.segments[:17] and floats[17] == (18, 18, 1)

    def test_jumps_fixed_profile_stretches(self):
        run, *_ = self.check(good_profile(PARAMS, 0.4), PARAMS, VS.A, 20_000)
        assert run.segments == [(1, 20_000, ALL_INVEST)]
        # x_i = r0 holds with zero margin at A, and the step B only moves
        # away from it: one decision and one stretch solve
        assert run.evaluations == 2

    def test_start_on_a_boundary_jumps(self):
        # B sits on every cap x_j + x_k = 2 p3 with zero margin, forever
        run, *_ = self.check(good_profile(PARAMS, 0.4), PARAMS, VS.B, 20_000)
        assert run.final == VS.B
        assert run.evaluations == 2
        # only x2 and x3 stay put: player 1's cap reads nothing else
        run, *_ = self.check(good_profile(PARAMS, 0.4), PARAMS, (25.75, 26.0, 26.0), 20_000)
        assert run.evaluations == 2

    @pytest.mark.parametrize("n", [sys.maxsize + 1, 10**300])
    def test_every_engine_refuses_a_horizon_beyond_an_index(self, n):
        # no run of such a horizon would end
        profile, start = good_profile(TENTHS, 0.04), vertices(TENTHS).c1[0]
        for run in (lambda: stages(induced_map(profile, TENTHS), start, n),
                    lambda: simulate_batch([profile], TENTHS, [start], n, 0.5),
                    lambda: simulate_events(profile, TENTHS, start, n, 0.5)):
            with pytest.raises(ValueError, match=f"is beyond {sys.maxsize}, the largest horizon an array"):
                run()

    def test_rejects_other_seats(self):
        class Shy(GoodStrategy):
            def invests(self, x):
                return False

        for third in (RandomStrategy(0.5, 1), Shy(3, 0.4, PARAMS), ConstantStrategy(INVEST)):
            with pytest.raises(ValueError):
                simulate_events((GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS), third),
                                PARAMS, VS.A, 100, 0.5)
