from itertools import permutations, product

import numpy as np
import pytest
from test_geometry import _boundary_points

from investgame.geometry import RegionSpec, region_mask, sample_points
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
    GoodColumns,
    GoodStrategy,
    RandomStrategy,
    Strategy,
    build_profile,
    build_strategy,
    good_profile,
    induced_columns,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)
#: An admissible game whose payoff sums round.
NON_DYADIC = GameParams(r0=5.1, r1=8.3, r2=12.7, p1=3.3, p2=7.1, p3=11.3)


class TestGoodStrategy:
    def test_invests_at_a(self):
        s = GoodStrategy(1, 0.4, PARAMS)
        assert s.invests((20.0, 20.0, 20.0))

    def test_stops_when_own_mean_drops(self):
        s = GoodStrategy(1, 0.4, PARAMS)
        assert not s.invests((19.0, 26.0, 26.0))

    def test_stops_when_too_far_behind(self):
        s = GoodStrategy(3, 0.4, PARAMS)
        assert not s.invests((28.0, 28.0, 10.0))  # 10 <= 28 - 0.4

    def test_matches_region_predicate_on_samples(self):
        pts = sample_points(PARAMS, 3000, seed=2)
        for i in (1, 2, 3):
            s = GoodStrategy(i, 0.4, PARAMS)
            want = region_mask(PARAMS, RegionSpec("v", i, 0.4), pts)
            assert [s.invests(tuple(x)) for x in pts] == want.tolist()

    def test_permutation_equivariance(self):
        pts = sample_points(PARAMS, 300, seed=4)
        strategies = {i: GoodStrategy(i, 0.4, PARAMS) for i in (1, 2, 3)}
        for sigma in permutations(range(3)):
            for x in pts:
                x = tuple(x)
                for i in (1, 2, 3):
                    lhs = strategies[sigma[i - 1] + 1].invests(permute(x, sigma))
                    assert lhs == strategies[i].invests(x)

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
        assert ConstantStrategy(INVEST).invests((0.0, 0.0, 0.0)) is True
        with pytest.raises(ValueError):
            ConstantStrategy("X")

    def test_degenerate_probability(self):
        s = RandomStrategy(0.0, seed=1)
        assert not any(s.invests((1.0, 1.0, 1.0)) for _ in range(50))
        t = RandomStrategy(1.0, seed=1)
        assert all(t.invests((1.0, 1.0, 1.0)) for _ in range(50))

    def test_golden_transcript_seed_42(self):
        # Mersenne Twister via random.Random(42), invest iff draw < 0.5;
        # frozen once from the documented generator.
        s = RandomStrategy(0.5, seed=42)
        got = [s.invests((0.0, 0.0, 0.0)) for _ in range(5)]
        assert got == [False, True, True, True, False]

    def test_fresh_restores_the_transcript(self):
        s = RandomStrategy(0.5, seed=42)
        first = [s.invests((0.0,) * 3) for _ in range(10)]
        clone = s.fresh()
        again = [clone.invests((0.0,) * 3) for _ in range(10)]
        assert first == again

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            RandomStrategy(1.5, seed=0)


class TestDefector:
    def make(self, eps=0.4):
        return Example2Defector(PARAMS, eps)

    def test_refuses_at_b(self):
        assert not self.make().invests(VS.B)

    def test_invests_at_a(self):
        # A's coordinate mean sits below the triangle's lowest mean
        assert self.make().invests(VS.A)

    def test_invests_off_the_symmetric_slice(self):
        assert self.make().invests((25.0, 25.1, 26.0))

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


def _ulps(x, steps: int) -> np.ndarray:
    """x moved `steps` ulps up (down when negative), elementwise."""
    x = np.asarray(x, dtype=float)
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return x


def _surface_points(params: GameParams, eps: float) -> np.ndarray:
    """For every player i with opponents j < k, points at 0, +-1 and +-2 ulp
    from each surface of its test: x_i = fl(x_j - eps), x_i = fl(x_k - eps),
    x_i = r0, fl(x_j + x_k) = 2 p3 and x_j = x_k.  The other coordinates are
    values around the game's constants, +-0 included."""
    p, cap = params, 2.0 * params.p3
    base = np.array([0.0, -0.0, p.r0, p.r0 + eps, p.p1, p.p3 - eps, p.p3, p.p3 + eps, p.r1, p.r2, cap - p.r0])
    a, b = (g.ravel() for g in np.meshgrid(base, base))
    triples = []  # (x_i, x_j, x_k) columns
    for u in range(-2, 3):
        triples += [(_ulps(a - eps, u), a, b), (_ulps(b - eps, u), a, b), (_ulps(np.full_like(a, p.r0), u), a, b),
                    (b, a, _ulps(cap - a, u)), (b, a, _ulps(a, u))]
        # on and next to the tie x_j = x_k, where both eps surfaces meet
        triples += [(_ulps(a - eps, v), a, _ulps(a, u)) for v in range(-2, 3)]
    own, low, high = (np.concatenate(c) for c in zip(*triples))
    out = []
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        pts = np.empty((len(own), 3))
        pts[:, i], pts[:, j], pts[:, k] = own, low, high
        out.append(pts)
    return np.vstack(out)


def _invest_points(eps: float, params: GameParams = PARAMS) -> list[np.ndarray]:
    """The boundary points, the slice points, the slice points moved one ulp
    off the slice in x2, every sign pattern of zero coordinates, and the
    points next to every surface of the good strategies' tests."""
    on = _slice_points(eps)
    off = on.copy()
    off[:, 1] = np.nextafter(off[:, 1], np.inf)
    zeros = np.array(list(product((0.0, -0.0), repeat=3)))
    return [_boundary_points(), on, off, zeros, _surface_points(params, eps)]


def _same_on_columns(s, pts: np.ndarray) -> list[bool]:
    """invests at each row as a tuple of floats, checked equal to invests on
    the columns of all rows at once, and to the column form `simulate_batch`
    calls, `GoodColumns.invests_columns`, on the gathered (own, lower, higher
    opponent) columns."""
    want = [s.invests(x) for x in map(tuple, pts.tolist())]
    assert all(type(w) is bool for w in want)
    got = s.invests(pts.T)
    assert got.dtype == bool
    assert got.tolist() == want
    fused = GoodColumns([s] * len(pts)).invests_columns(pts.T[[s._i, s._j, s._k]])
    assert fused.dtype == bool
    assert fused.tolist() == want
    return want


class TestBatchForms:
    """The batched engine's decisions agree with the scalar ones row by row:
    plans with successive decisions, the good strategy's invests on columns
    with its invests on floats; the defector decides on floats only."""

    def test_random_plan_equals_successive_decisions(self):
        s = RandomStrategy(0.3, seed=7)
        s.invests((0.0,) * 3)  # the plan starts from the current state, not the seed
        ref = s.fresh()
        ref.invests((0.0,) * 3)
        want = [ref.invests((0.0,) * 3) for _ in range(999)]
        cache = {}
        plan = s.plan(999, cache)
        assert plan.tolist() == want
        assert s._rng.getstate() == ref._rng.getstate()
        # a second instance in the same state reuses the draws and the end state
        again = RandomStrategy(0.3, seed=7)
        again.invests((0.0,) * 3)
        assert again.plan(999, cache) is plan
        assert again._rng.getstate() == ref._rng.getstate()
        assert RandomStrategy(0.3, seed=8).plan(999, cache).tolist() != want

    @pytest.mark.parametrize("eps", [1e-9, 0.1, 0.4, 7.0])
    def test_good_batch_matches_decide(self, eps):
        # the example game, and one whose payoff sums round
        for params in (PARAMS, NON_DYADIC):
            for pts in _invest_points(eps, params):
                for i in (1, 2, 3):
                    _same_on_columns(GoodStrategy(i, eps, params), pts)

    def test_stacked_columns_keep_their_own_parameters(self):
        # one stack of every player and threshold, each column deciding as its own instance
        pts = _surface_points(NON_DYADIC, 0.4)
        insts = [GoodStrategy(i, eps, NON_DYADIC) for i in (1, 2, 3) for eps in (1e-9, 0.4, 7.0)]
        rows = np.arange(len(pts)) % len(insts)
        cols = np.array([pts[m, [insts[r]._i, insts[r]._j, insts[r]._k]] for m, r in enumerate(rows)]).T
        stack = GoodColumns([insts[r] for r in rows])
        assert not isinstance(stack, Strategy)  # it decides columns, it fills no seat
        got = stack.invests_columns(cols)
        assert got.tolist() == [insts[r].invests(tuple(x)) for r, x in zip(rows, pts.tolist())]

    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_defector_batch_matches_decide(self, eps):
        # the defector decides on floats only: every engine calls it on a row's mean
        s = Example2Defector(PARAMS, eps)
        on, off = [[s.invests(x) for x in map(tuple, pts.tolist())] for pts in _invest_points(eps)[1:3]]
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
        specs = [RegionSpec("v", i, eps) for i in (1, 2, 3)]
        pts = sample_points(PARAMS, 4000, seed=8)
        masks = np.array([region_mask(PARAMS, spec, pts) for spec in specs]).T
        for x, inv in zip(pts, masks.tolist()):
            x = tuple(x)
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
        specs = [RegionSpec("v", i, 0.4) for i in (1, 2, 3)]
        pts = sample_points(PARAMS, 4000, seed=12)
        assert np.any([region_mask(PARAMS, s, pts) for s in specs], axis=0).all()

    def test_safety_step_from_outside_v1(self):
        # wherever the good player refuses, every opponent reply lands the
        # next payoff inside V1
        eps = 0.4
        spec = RegionSpec("v", 1, eps)
        landing = {VS.A, VS.c1[1], VS.c1[2], VS.c2[0]}
        assert region_mask(PARAMS, spec, list(landing)).all()
        pts = sample_points(PARAMS, 4000, seed=21)
        outside = [tuple(x) for x in pts[~region_mask(PARAMS, spec, pts)]]
        assert outside
        for x in outside[:800]:
            for a2, a3 in product((INVEST, NOT_INVEST), repeat=2):
                assert payoff(PARAMS, (NOT_INVEST, a2, a3)) in landing


    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_column_twin_matches_phi_on_every_switching_surface(self, eps):
        # the points on and next to x_i = x_j - eps, x_i = r0, x_j + x_k = 2 p3,
        # x_j = x_k, the slice x1 = x2 and the defector triangle's edges (D-C1_3
        # among them), under every route: columns, per-row calls, constants
        good1, good2, good3 = good_profile(PARAMS, eps)
        invest, refuse = ConstantStrategy(INVEST), ConstantStrategy(NOT_INVEST)
        profiles = [(good1, good2, good3), (good1, good2, Example2Defector(PARAMS, eps)),
                    (good1, invest, refuse), (Example2Defector(PARAMS, eps), refuse, good3),
                    (invest, refuse, invest)]
        pts = np.vstack(_invest_points(eps))
        for profile in profiles:
            phi, steps = induced_map(profile, PARAMS), induced_columns(profile, PARAMS)
            got = steps(pts)
            assert got.shape == pts.shape and got.dtype == float
            assert got.tobytes() == np.array([phi(x) for x in map(tuple, pts.tolist())]).tobytes()
        good = good_profile(NON_DYADIC, eps)
        pts = _surface_points(NON_DYADIC, eps)
        want = [induced_map(good, NON_DYADIC)(x) for x in map(tuple, pts.tolist())]
        assert induced_columns(good, NON_DYADIC)(pts).tobytes() == np.array(want).tobytes()

    def test_column_twin_refuses_a_random_seat(self):
        profile = (GoodStrategy(1, 0.4, PARAMS), RandomStrategy(0.5, seed=3), ConstantStrategy(INVEST))
        with pytest.raises(ValueError, match="random seat"):
            induced_columns(profile, PARAMS)


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
