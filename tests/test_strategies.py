from itertools import permutations, product

import numpy as np
import pytest
from test_geometry import _boundary_points

from investgame.geometry import good_region, in_region, sample_points
from investgame.stage_game import (
    INVEST,
    NOT_INVEST,
    GameParams,
    example_game,
    payoff,
    permute,
    vertices,
)
from investgame.strategies import (
    ConstantStrategy,
    Example2Defector,
    GoodStrategy,
    RandomStrategy,
    build_profile,
    build_strategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)


class TestGoodStrategy:
    def test_invests_at_a(self):
        s = GoodStrategy(1, 0.4, PARAMS)
        assert s.decide((20.0, 20.0, 20.0)) == INVEST

    def test_stops_when_own_mean_drops(self):
        s = GoodStrategy(1, 0.4, PARAMS)
        assert s.decide((19.0, 26.0, 26.0)) == NOT_INVEST

    def test_stops_when_too_far_behind(self):
        s = GoodStrategy(3, 0.4, PARAMS)
        assert s.decide((28.0, 28.0, 10.0)) == NOT_INVEST  # 10 <= 28 - 0.4

    def test_matches_region_predicate_on_samples(self):
        pts = sample_points(PARAMS, 3000, seed=2)
        for i in (1, 2, 3):
            s = GoodStrategy(i, 0.4, PARAMS)
            spec = good_region(i, 0.4)
            for x in pts:
                want = INVEST if in_region(PARAMS, spec, tuple(x)) else NOT_INVEST
                assert s.decide(tuple(x)) == want

    def test_permutation_equivariance(self):
        pts = sample_points(PARAMS, 300, seed=4)
        strategies = {i: GoodStrategy(i, 0.4, PARAMS) for i in (1, 2, 3)}
        for sigma in permutations(range(3)):
            for x in pts:
                x = tuple(x)
                for i in (1, 2, 3):
                    lhs = strategies[sigma[i - 1] + 1].decide(permute(x, sigma))
                    assert lhs == strategies[i].decide(x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            GoodStrategy(1, 0.0, PARAMS)
        with pytest.raises(ValueError):
            GoodStrategy(4, 0.1, PARAMS)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        # a NaN threshold would pass an "eps <= 0" test and then never invest
        with pytest.raises(ValueError, match="finite"):
            GoodStrategy(1, eps, PARAMS)


class TestConstantAndRandom:
    def test_constant(self):
        assert ConstantStrategy(INVEST).decide((0.0, 0.0, 0.0)) == INVEST
        with pytest.raises(ValueError):
            ConstantStrategy("X")

    def test_degenerate_probability(self):
        s = RandomStrategy(0.0, seed=1)
        assert all(s.decide((1.0, 1.0, 1.0)) == NOT_INVEST for _ in range(50))
        t = RandomStrategy(1.0, seed=1)
        assert all(t.decide((1.0, 1.0, 1.0)) == INVEST for _ in range(50))

    def test_golden_transcript_seed_42(self):
        # Mersenne Twister via random.Random(42), invest iff draw < 0.5;
        # frozen once from the documented generator.
        s = RandomStrategy(0.5, seed=42)
        got = [s.decide((0.0, 0.0, 0.0)) for _ in range(5)]
        assert got == [NOT_INVEST, INVEST, INVEST, INVEST, NOT_INVEST]

    def test_fresh_restores_the_transcript(self):
        s = RandomStrategy(0.5, seed=42)
        first = [s.decide((0.0,) * 3) for _ in range(10)]
        clone = s.fresh()
        again = [clone.decide((0.0,) * 3) for _ in range(10)]
        assert first == again

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            RandomStrategy(1.5, seed=0)


class TestDefector:
    def make(self, eps=0.4):
        return Example2Defector(PARAMS, eps)

    def test_refuses_at_b(self):
        assert self.make().decide(VS.B) == NOT_INVEST

    def test_invests_at_a(self):
        # A's coordinate mean sits below the triangle's lowest mean
        assert self.make().decide(VS.A) == INVEST

    def test_invests_off_the_symmetric_slice(self):
        assert self.make().decide((25.0, 25.1, 26.0)) == INVEST

    def test_requires_canonical_game(self):
        other = GameParams(r0=5, r1=8, r2=12, p1=3, p2=7, p3=11)
        with pytest.raises(ValueError):
            Example2Defector(other, 0.4)

    def test_eps_range(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                Example2Defector(PARAMS, bad)

    def test_d_point(self):
        d = self.make(0.4).d_point
        assert d == (25.8, 25.8, 26.2)


def _slice_points(eps: float) -> np.ndarray:
    """Points of the slice x1 == x2: the boundary points moved onto it, a
    grid, and points on the defector triangle's corners and edges."""
    pts = _boundary_points()
    pts[:, 1] = pts[:, 0]
    t, z = np.meshgrid(np.linspace(18.0, 28.0, 41), np.linspace(10.0, 36.0, 105))
    grid = np.column_stack([t.ravel(), t.ravel(), z.ravel()])
    p3, r1, p1 = PARAMS.p3, PARAMS.r1, PARAMS.p1
    corners = [(p3, p3), (p3 - eps / 2.0, p3 + eps / 2.0), (r1, p1)]
    edge = [(a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))
            for a in corners for b in corners for w in np.linspace(0.0, 1.0, 9)]
    tri = np.array([(q[0], q[0], q[1]) for q in edge])
    # The V_1 boundary x3 = x1 + eps runs through the slice as well.
    v1 = np.column_stack([grid[:, 0], grid[:, 0], grid[:, 0] + eps])
    return np.vstack([pts, grid, tri, v1])


def _invest_points(eps: float) -> list[np.ndarray]:
    """The boundary points, the slice points, the slice points moved one ulp
    off the slice in x2, and every sign pattern of zero coordinates."""
    on = _slice_points(eps)
    off = on.copy()
    off[:, 1] = np.nextafter(off[:, 1], np.inf)
    zeros = np.array(list(product((0.0, -0.0), repeat=3)))
    return [_boundary_points(), on, off, zeros]


def _same_on_columns(s, pts: np.ndarray) -> list[bool]:
    """invests at each row as a tuple of floats, checked equal to invests on
    the columns of all rows at once (as simulate_batch calls the good
    strategy's)."""
    want = [s.invests(x) for x in map(tuple, pts.tolist())]
    assert all(type(w) is bool for w in want)
    got = s.invests(pts.T)
    assert got.dtype == bool
    assert got.tolist() == want
    return want


class TestBatchForms:
    """The batched engine's decisions agree with the scalar ones row by row:
    plans with successive decisions, the good strategy's invests on columns
    with its invests on floats; the defector decides on floats only."""

    def test_random_plan_equals_successive_decisions(self):
        s = RandomStrategy(0.3, seed=7)
        s.decide((0.0,) * 3)  # the plan starts from the current state, not the seed
        ref = s.fresh()
        ref.decide((0.0,) * 3)
        want = [ref.decide((0.0,) * 3) == INVEST for _ in range(999)]
        cache = {}
        plan = s.plan(999, cache)
        assert plan.tolist() == want
        assert s._rng.getstate() == ref._rng.getstate()
        # a second instance in the same state reuses the draws and the end state
        again = RandomStrategy(0.3, seed=7)
        again.decide((0.0,) * 3)
        assert again.plan(999, cache) is plan
        assert again._rng.getstate() == ref._rng.getstate()
        assert RandomStrategy(0.3, seed=8).plan(999, cache).tolist() != want

    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_good_batch_matches_decide(self, eps):
        for pts in _invest_points(eps):
            for i in (1, 2, 3):
                _same_on_columns(GoodStrategy(i, eps, PARAMS), pts)

    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_defector_batch_matches_decide(self, eps):
        # the defector decides on floats only: every engine calls it on a row's mean
        s = Example2Defector(PARAMS, eps)
        _, on, off, _ = [[s.invests(x) for x in map(tuple, pts.tolist())] for pts in _invest_points(eps)]
        assert all(type(w) is bool for w in on + off)
        # both actions occur on the slice, so the test tells them apart; one
        # ulp off it the defector always invests
        assert 0 < sum(on) < len(on)
        assert all(off)


class TestInducedMap:
    def test_all_good_at_a_steps_to_b(self):
        phi = induced_map(good_profile(PARAMS, 0.4), PARAMS)
        assert phi((20.0, 20.0, 20.0)) == (26.0, 26.0, 26.0)

    def test_all_good_when_first_player_triggers(self):
        phi = induced_map(good_profile(PARAMS, 0.4), PARAMS)
        assert phi((19.0, 26.0, 26.0)) == (36.0, 18.0, 18.0)

    def test_all_refusers_step_to_a(self):
        profile = tuple(ConstantStrategy(NOT_INVEST) for _ in range(3))
        phi = induced_map(profile, PARAMS)
        assert phi((30.0, 11.0, 22.0)) == (20.0, 20.0, 20.0)

    def test_case_split_consistency(self):
        # the piecewise description over the V-cells reproduces phi exactly
        eps = 0.4
        phi = induced_map(good_profile(PARAMS, eps), PARAMS)
        specs = [good_region(i, eps) for i in (1, 2, 3)]
        pts = sample_points(PARAMS, 4000, seed=8)
        for x in pts:
            x = tuple(x)
            inv = [in_region(PARAMS, spec, x) for spec in specs]
            actions = tuple(INVEST if f else NOT_INVEST for f in inv)
            assert phi(x) == payoff(PARAMS, actions)
            if all(inv):
                assert phi(x) == VS.B
            elif sum(inv) == 1:
                i = inv.index(True)
                assert phi(x) == VS.c1[i]
            elif sum(inv) == 2:
                i = inv.index(False)
                assert phi(x) == VS.c2[i]

    def test_some_player_always_invests_under_all_good(self):
        # the argmax coordinate always lands in its V-region, so the
        # all-refuse cell is empty under the all-good profile
        specs = [good_region(i, 0.4) for i in (1, 2, 3)]
        pts = sample_points(PARAMS, 4000, seed=12)
        for x in pts:
            assert any(in_region(PARAMS, s, tuple(x)) for s in specs)

    def test_safety_step_from_outside_v1(self):
        # wherever the good player refuses, every opponent reply lands the
        # next payoff inside V1
        eps = 0.4
        spec = good_region(1, eps)
        landing = {VS.A, VS.c1[1], VS.c1[2], VS.c2[0]}
        for target in landing:
            assert in_region(PARAMS, spec, target)
        pts = sample_points(PARAMS, 4000, seed=21)
        outside = [tuple(x) for x in pts if not in_region(PARAMS, spec, tuple(x))]
        assert outside
        for x in outside[:800]:
            for a2, a3 in product((INVEST, NOT_INVEST), repeat=2):
                assert payoff(PARAMS, (NOT_INVEST, a2, a3)) in landing


class TestDescriptors:
    def test_round_trip(self):
        descs = [
            {"kind": "good", "eps": 0.4},
            {"kind": "constant", "action": "NI"},
            {"kind": "random", "p": 0.5, "seed": 11},
        ]
        profile = build_profile(descs, PARAMS)
        assert [s.descriptor() for s in profile] == descs

    def test_defector_descriptor(self):
        s = build_strategy({"kind": "example2_defector", "eps": 0.25}, PARAMS, seat=3)
        assert s.descriptor() == {"kind": "example2_defector", "eps": 0.25}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_strategy({"kind": "mystery"}, PARAMS, seat=1)

    def test_profile_needs_three(self):
        with pytest.raises(ValueError):
            build_profile([{"kind": "constant", "action": "I"}], PARAMS)
