import io
import math

import numpy as np
import pytest

from investgame.dynamics import (
    RunningMean,
    coordinate,
    coordinate_sum,
    iterate,
    mixing_bound_check,
    replay,
    step_size_bound,
    tail_interval,
    tail_liminf,
    tail_limsup,
    tail_start,
    write_csv,
)
from investgame.geometry import hull_mask, norm3
from investgame.stage_game import example_game, vertices
from investgame.strategies import GoodStrategy, RandomStrategy, good_profile, induced_map

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
        assert replay(traj) == traj.means

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
        from investgame.geometry import good_region, in_region

        traj = iterate(all_good_phi(), VS.c1[0], 20_000)
        specs = [good_region(i, 0.4) for i in (1, 2, 3)]
        entered = None
        for n, m in enumerate(traj.means, start=1):
            if all(in_region(PARAMS, s, m) for s in specs):
                entered = n
                break
        assert entered is not None
        for n in range(entered, traj.horizon):
            assert traj.steps[n - 1] == VS.B
            assert all(in_region(PARAMS, s, traj.means[n]) for s in specs)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            iterate(lambda x: x, (0.0, 0.0), 0)


class TestRunningMean:
    def test_matches_plain_average_closely(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-30, 30, size=(50_000, 3))
        rm = RunningMean(values[0])
        for v in values[1:]:
            rm.update(v)
        direct = values.mean(axis=0)
        assert np.allclose(rm.mean, direct, atol=1e-11)


class TestStepSizeBound:
    def test_formula(self):
        assert step_size_bound(60.0, 0.1) == 600
        assert step_size_bound(60.0, 60.0) == 1
        assert step_size_bound(60.0, 100.0) == 1

    def test_empirical_sweep(self):
        xi = 0.1
        n0 = step_size_bound(60.0, xi)
        traj = iterate(all_good_phi(), VS.c2[0], 3000)
        arr = traj.means_array()
        moves = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        assert float(moves[n0:].max()) < xi

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            step_size_bound(60.0, 0.0)


class TestTailStats:
    def test_constant_trajectory(self):
        traj = iterate(lambda x: VS.B, VS.B, 2000)
        assert tail_limsup(traj, coordinate(3), 0.5) == 26.0
        assert tail_liminf(traj, coordinate(3), 0.5) == 26.0

    def test_closed_form_window(self):
        traj = iterate(lambda x: VS.B, VS.A, 1000)
        val = tail_limsup(traj, coordinate(1), 0.1)
        assert 25.94 <= val <= 26.0
        assert abs(val - (26.0 - 6.0 / 1000.0)) <= 1e-12

    def test_all_good_pair_sum_cap(self):
        traj = iterate(all_good_phi(), VS.c1[0], 20_000)
        cap = tail_limsup(traj, coordinate_sum(2, 3), 0.5)
        assert cap <= 2 * PARAMS.p3 + 0.05

    def test_interval_orders_endpoints(self):
        traj = iterate(all_good_phi(), VS.c2[1], 5000)
        lo, hi = tail_interval(traj, coordinate(1), 0.5)
        assert lo <= hi

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
        for i in (1, 2, 3):
            lo, hi = tail_interval(traj, coordinate(i), 0.2)
            assert PARAMS.p3 - 0.05 <= lo <= hi <= PARAMS.p3 + 0.05


class TestMixingBound:
    def test_single_anchor_exact_distance(self):
        rep = mixing_bound_check((5.0, 1.0), [(1.0, 1.0)], 10, [30], eps=10.0)
        assert abs(rep.distance - np.hypot(4.0, 0.0) * 10 / 40) <= 1e-12

    def test_prefix_equals_anchor(self):
        rep = mixing_bound_check((2.0, 3.0), [(2.0, 3.0)], 5, [95], eps=1e-12)
        assert rep.ok
        assert rep.distance <= 1e-12

    def test_vertex_mixture_lands_in_hull(self):
        anchors = list(VS.c1 + VS.c2)
        counts = [100_000 // 6] * 6
        rep = mixing_bound_check(VS.A, anchors, 10, counts, eps=0.01)
        assert rep.ok

    def test_count_validation(self):
        with pytest.raises(ValueError):
            mixing_bound_check((0.0,), [(1.0,)], 1, [2, 3], eps=1.0)


class TestCsv:
    def test_round_trip_at_full_precision(self):
        traj = iterate(all_good_phi(), (20.0, 20.0, 20.0), 50)
        buf = io.StringIO()
        write_csv(traj, buf, comment="profile: all good")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,x1,x2,x3,step1,step2,step3"
        assert len(lines) == 2 + traj.horizon
        row = lines[3].split(",")  # stage 2
        assert int(row[0]) == 2
        assert tuple(float(c) for c in row[1:4]) == traj.means[1]
        assert tuple(float(c) for c in row[4:7]) == traj.steps[0]
