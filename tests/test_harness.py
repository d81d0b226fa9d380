import json
import sys
from itertools import combinations, product

import numpy as np
import pytest
from test_dynamics import exact_reference
from test_strategies import NON_DYADIC

from investgame import geometry, harness
from investgame.approachability import HullOracle
from investgame.dynamics import (
    iterate,
    simulate_batch,
    simulate_events,
    stages,
    tail_start,
)
from investgame.geometry import (
    HULL_TOL,
    RegionSpec,
    dist_to_region,
    grid_slack,
    hull_halfspaces,
    norm3,
    region_mask,
)
from investgame.harness import (
    HarnessConfig,
    default_starts,
    deviant_pairs,
    example1_limit,
    example1_starts,
    run_example1,
    run_example2,
    standard_deviants,
    verify_t2,
    verify_t3,
    verify_t4,
    z_grid,
    z_starts,
)
from investgame.stage_game import ALL_INVEST, GameParams, example_game, permute, vertices
from investgame.strategies import (
    ConstantStrategy,
    Example2Defector,
    GoodColumns,
    GoodStrategy,
    RandomStrategy,
    Strategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)
CELL_KEYS = {"theorem", "start", "deviants", "N", "measured", "bound", "margin", "pass"}


class TestConfig:
    def test_default_starts_cover_vertices_and_centroid(self):
        starts = default_starts()
        assert len(starts) == 9
        cfg = HarnessConfig(params=PARAMS, n=1000)
        pts = cfg.start_points()
        assert set(pts[:8]) == set(VS.all_points())
        assert pts[8] == (23.0, 23.0, 23.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(params=PARAMS, eps=0.0)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                HarnessConfig(params=PARAMS, eps=eps)
        with pytest.raises(ValueError):
            HarnessConfig(params=PARAMS, n=10)
        with pytest.raises(ValueError):
            HarnessConfig(params=PARAMS, starts=())
        # the window is checked on construction, before any trajectory runs
        for window in (0.0, 1.0, 1.5, float("nan"), 1e-4):
            with pytest.raises(ValueError, match="window"):
                HarnessConfig(params=PARAMS, n=1000, window=window)


class TestBatteries:
    def test_standard_deviants_for_canonical_game(self):
        battery = standard_deviants(PARAMS, 0.4)
        names = [s.name for s in battery]
        assert names[0] == "constant(I)"
        assert names[1] == "constant(NI)"
        assert sum(n.startswith("random(0.5") for n in names) == 10
        assert names[-1].startswith("example2_defector")

    def test_defector_dropped_for_other_games(self):
        other = GameParams(r0=5, r1=8, r2=12, p1=3, p2=7, p3=11)
        battery = standard_deviants(other, 0.4)
        assert not any("defector" in s.name for s in battery)

    def test_pair_battery_size(self):
        assert len(deviant_pairs(PARAMS, 0.4)) == 15


class TestT3:
    def test_quick_battery_passes(self):
        rep = verify_t3(HarnessConfig(params=PARAMS, n=2000))
        assert rep.passed
        for cell in rep.cells:
            assert CELL_KEYS <= set(cell)
            assert cell["entered_v3_at"] is not None

    def test_start_at_b_is_exact(self):
        w = [0.0] * 8
        w[1] = 1.0
        rep = verify_t3(HarnessConfig(params=PARAMS, n=1000, starts=(tuple(w),)))
        assert rep.cells[0]["measured"] == 0.0
        assert rep.cells[0]["entered_v3_at"] == 1

    def test_large_eps_still_converges(self):
        # no upper bound on the threshold is required for full cooperation
        rep = verify_t3(HarnessConfig(params=PARAMS, eps=0.7, n=5000))
        assert rep.passed

    def test_monotone_horizon_margins(self):
        small = verify_t3(HarnessConfig(params=PARAMS, n=2000))
        large = verify_t3(HarnessConfig(params=PARAMS, n=20_000))
        for a, b in zip(small.cells, large.cells):
            assert b["margin"] >= a["margin"] - 1e-12


def _reference_t3(config):
    """verify_t3's report built with iterate, Trajectory.tail and a scan of
    every mean for the first one inside V^3."""
    params = config.params
    phi = induced_map(good_profile(params, config.eps), params)
    b_point = vertices(params).B
    cells = []
    for w, x1 in zip(config.starts, config.start_points()):
        traj = iterate(phi, x1, config.n)
        arr = traj.means_array()
        inside = np.ones(len(arr), dtype=bool)
        for i in (1, 2, 3):
            inside &= region_mask(params, RegionSpec("v", i, config.eps), arr)
        entry = int(np.argmax(inside)) + 1 if inside.any() else None
        dist = norm3([traj.final[k] - b_point[k] for k in range(3)])
        tail = traj.tail(config.window)
        cells.append({
            "theorem": "t3", "start": list(x1), "deviants": [], "N": config.n,
            "measured": dist, "bound": config.slack, "margin": config.slack - dist,
            "pass": bool(dist <= config.slack and entry is not None),
            "start_weights": list(w), "entered_v3_at": entry,
            "tail_intervals": np.stack((tail.min(axis=0), tail.max(axis=0)), axis=1).tolist(),
        })
    return {"name": "t3", "cells": cells, "meta": {"eps": config.eps, "target": list(b_point)},
            "passed": all(c["pass"] for c in cells)}


# The canonical game scaled by 1/10: its payoffs are not dyadic, so payoff
# sums round in floats.
TENTHS = GameParams(r0=2.0, r1=2.8, r2=3.6, p1=1.0, p2=1.8, p3=2.6)
OTHER = GameParams(r0=5.0, r1=8.0, r2=12.0, p1=3.0, p2=7.0, p3=11.0)
# A, C1_1 and the centroid, the starts of the long-horizon benchmark.
LONG_STARTS = tuple(default_starts()[i] for i in (0, 2, 8))


def _exact_reference_t3(config):
    """verify_t3's report built from `exact_reference`, one stage at a time
    in exact rationals, with the first all-invest decision as the entry."""
    params = config.params
    profile = good_profile(params, config.eps)
    b_point = vertices(params).B
    cells = []
    for w, x1 in zip(config.starts, config.start_points()):
        segments, final, tail_min, tail_max = exact_reference(profile, params, x1, config.n, config.window)
        entry = next((first for first, _, code in segments if code == ALL_INVEST), None)
        dist = norm3([final[k] - b_point[k] for k in range(3)])
        cells.append({
            "theorem": "t3", "start": list(x1), "deviants": [], "N": config.n,
            "measured": dist, "bound": config.slack, "margin": config.slack - dist,
            "pass": bool(dist <= config.slack and entry is not None),
            "start_weights": list(w), "entered_v3_at": entry,
            "tail_intervals": [list(pair) for pair in zip(tail_min, tail_max)],
        })
    return {"name": "t3", "cells": cells, "meta": {"eps": config.eps, "target": list(b_point)},
            "passed": all(c["pass"] for c in cells)}


class TestT3Engine:
    """verify_t3 runs on the event engine; its report must match, byte for
    byte, the one built from whole trajectories where every x1 + P_k is
    exact in floats (dyadic starts on dyadic games), and the one built
    stage by stage in exact rationals on a game whose sums round."""

    @pytest.mark.parametrize("config, reference", [
        (HarnessConfig(params=PARAMS, n=100_000), _reference_t3),
        (HarnessConfig(params=PARAMS, eps=0.1, n=100_000), _reference_t3),
        (HarnessConfig(params=PARAMS, n=300_000, starts=LONG_STARTS), _reference_t3),
        (HarnessConfig(params=OTHER, eps=0.1, n=20_000), _reference_t3),
        (HarnessConfig(params=OTHER, n=20_000, window=0.2), _reference_t3),
        (HarnessConfig(params=TENTHS, eps=0.04, n=5000, slack=0.005), _exact_reference_t3),
    ], ids=["default", "eps-0.1", "long-horizon", "other-game", "other-game-window", "non-dyadic"])
    def test_matches_whole_trajectories(self, config, reference):
        got = json.dumps(verify_t3(config).as_dict(), sort_keys=True)
        assert got == json.dumps(reference(config), sort_keys=True)

    def test_work_count_at_a_billion_stages(self):
        # one decision and one stretch solve per stretch, at any horizon;
        # B (zero cap margin) included.  From about 3.25e13 stages on, the
        # example game's cap margins near B are within roundoff of 0, and
        # the exact stretch ends still take no extra step there.  The means
        # are exact too, so neither the example game nor one whose payoff
        # sums round in floats stops short of the largest index.
        horizons = (10**5, 10**9, 10**12, 32_477_881_928_154, 10**14, 2 * 10**14,
                    250_199_979_298_361, 10**18, sys.maxsize)
        for params, n in product((PARAMS, NON_DYADIC), horizons):
            config = HarnessConfig(params=params, n=n)
            profile = good_profile(params, config.eps)
            counts = [simulate_events(profile, params, x1, n, config.window).evaluations
                      for x1 in config.start_points()]
            assert counts == [2, 2, 4, 4, 4, 4, 4, 4, 2], (params, n, counts)
            rep = verify_t3(config)
            assert rep.passed
            assert [c["entered_v3_at"] for c in rep.cells] == [1, 1, 2, 2, 2, 2, 2, 2, 1]

    def test_runs_no_trajectory(self, monkeypatch):
        from investgame import dynamics

        def refuse(*args):
            raise AssertionError("t3 cells must not run iterate")

        monkeypatch.setattr(harness, "iterate", refuse)
        monkeypatch.setattr(dynamics, "iterate", refuse)
        assert verify_t3(HarnessConfig(params=PARAMS, n=1000)).passed


class TestT4:
    def test_quick_battery_passes(self):
        cfg = HarnessConfig(params=PARAMS, n=2000, starts=((0.125,) * 8,))
        rep = verify_t4(cfg)
        assert rep.passed
        assert len(rep.cells) == 13
        assert rep.meta["cap"] == PARAMS.p3 + 2 * 0.4 / 3
        assert rep.meta["coarse_cap"] == PARAMS.p3 + 0.4

    def test_good_deviant_reduces_to_full_cooperation(self):
        cfg = HarnessConfig(params=PARAMS, n=5000, starts=((0.125,) * 8,))
        rep = verify_t4(cfg, deviants=[GoodStrategy(3, 0.4, PARAMS)])
        assert rep.passed
        cell = rep.cells[0]
        assert abs(cell["measured"] - PARAMS.p3) <= 0.05

    def test_defector_overshoots_p3_but_stays_capped(self):
        cfg = HarnessConfig(params=PARAMS, n=20_000, starts=((0.125,) * 8,))
        rep = verify_t4(cfg)
        cell = [c for c in rep.cells if "defector" in c["deviants"][0]][0]
        assert cell["measured"] > PARAMS.p3
        assert cell["pass"]


class TestT2:
    def test_quick_pairs_pass(self):
        cfg = HarnessConfig(params=PARAMS, n=2000, starts=((0.125,) * 8,))
        const_i = ConstantStrategy("I")
        const_ni = ConstantStrategy("NI")
        rep = verify_t2(cfg, pairs=[(const_i, const_i), (const_i, const_ni), (const_ni, const_ni)])
        assert rep.passed
        for cell in rep.cells:
            assert set(cell["checks"]) == {"own_tail_min", "deviators_tail_sum_max", "dist_to_v1"}

    def test_good_pair_reduces_to_full_cooperation(self):
        cfg = HarnessConfig(params=PARAMS, n=5000, starts=((0.125,) * 8,))
        pair = (GoodStrategy(2, 0.4, PARAMS), GoodStrategy(3, 0.4, PARAMS))
        rep = verify_t2(cfg, pairs=[pair])
        cell = rep.cells[0]
        assert rep.passed
        assert cell["measured"]["own_tail_min"] >= PARAMS.p3 - 0.05
        assert cell["measured"]["deviators_tail_sum_max"] <= 2 * PARAMS.p3 + 0.05

    def test_dist_to_v1_against_exact_distance(self, monkeypatch):
        # cl(V_1) and S are polytopes, so their intersection is the hull of
        # the feasible points where three of their bounding planes meet, and
        # the exact distance is the projection onto that hull.  The grid
        # distance may only overestimate it, by at most its slack; `band`
        # is the hull tolerance of `in_closure`, whose zero may sit that far
        # outside S.
        cfg = HarnessConfig(params=PARAMS, n=2000)
        planes = [  # <n, x> <= b: x1 >= x2 - eps, x1 >= x3 - eps, x1 >= r0, x2 + x3 <= 2 p3
            (np.array([-1.0, 1.0, 0.0]), cfg.eps),
            (np.array([-1.0, 0.0, 1.0]), cfg.eps),
            (np.array([-1.0, 0.0, 0.0]), -PARAMS.r0),
            (np.array([0.0, 1.0, 1.0]), 2.0 * PARAMS.p3),
        ] + hull_halfspaces(VS.all_points())
        corners = []
        for trio in combinations(planes, 3):
            a = np.array([n for n, _ in trio])
            if abs(np.linalg.det(a)) > 1e-9:
                x = np.linalg.solve(a, [b for _, b in trio])
                if all(n @ x <= b + 1e-9 for n, b in planes):
                    corners.append(x)
        exact = HullOracle(np.unique(np.round(corners, 9), axis=0))
        band = HULL_TOL * float(np.abs(VS.all_points()).max())

        seen = []

        def recording(params, spec, x, h):
            seen.append((x, dist_to_region(params, spec, x, h)))
            return seen[-1][1]

        monkeypatch.setattr(harness, "dist_to_region", recording)
        rep = verify_t2(cfg)
        assert [d for _, d in seen] == [cell["measured"]["dist_to_v1"] for cell in rep.cells]
        for x, reported in seen:
            d = exact.distances([x])[0]
            assert d - band <= reported <= d + grid_slack(cfg.dist_pitch)
            assert d <= cfg.dist_slack


    def test_distance_builds_few_slabs(self, monkeypatch):
        # the README starts at n = 2e3: the distance search builds only the
        # x1-slabs next to the final means outside cl(V_1)
        built = []
        build = geometry._RegionSlabs._build

        def spy(store, x1):
            built.append(x1)
            return build(store, x1)

        monkeypatch.setattr(geometry._RegionSlabs, "_build", spy)
        geometry._region_slabs.cache_clear()
        try:
            verify_t2(HarnessConfig(params=PARAMS, n=2000))
            slabs = len(geometry._region_slabs(PARAMS, RegionSpec("v", 1, harness.DEFAULT_EPS), 0.25).x1s)
        finally:
            geometry._region_slabs.cache_clear()
        assert slabs == 105
        assert 0 < len(built) <= 8


class Alternator(Strategy):
    """A caller's strategy that reads the mean and keeps state, investing on
    every other call while x3 < p3."""

    name = "alternator"

    def __init__(self):
        self.calls = 0

    def invests(self, x):
        self.calls += 1
        return bool(self.calls % 2) & (x[2] < PARAMS.p3)

    def fresh(self):
        return Alternator()


class Reluctant(GoodStrategy):
    """Overrides invests, refusing while its own mean is below 21."""

    def invests(self, x):
        return (x[self.player - 1] >= 21.0) & super().invests(x)


class Contrary(RandomStrategy):
    """Overrides invests (invest where the draw says refuse), so the inherited
    plan, which gives the parent's decisions, must not be used."""

    def invests(self, x):
        return super().invests(x) ^ True

    def fresh(self):
        return Contrary(self.p, self.seed)


def _reference_cells(theorem, config, battery):
    """The t4/t2 cells built one trajectory at a time with `iterate`."""
    params = config.params
    cells = []
    for x1 in config.start_points():
        for devs in battery:
            goods = [GoodStrategy(i, config.eps, params) for i in (1, 2)][:3 - len(devs)]
            traj = iterate(induced_map(tuple(goods) + tuple(d.fresh() for d in devs), params), x1, config.n)
            tail = traj.tail(config.window)
            cell = {
                "theorem": theorem, "start": list(x1), "deviants": [d.name for d in devs], "N": config.n,
            }
            if theorem == "t4":
                cap = params.p3 + 2.0 * config.eps / 3.0 + config.slack
                measured = float(tail[:, 2].max())
                cell.update(measured=measured, bound=cap, margin=cap - measured)
                passed = measured <= cap
            else:
                bound = {
                    "own_tail_min": params.r0 - config.slack,
                    "deviators_tail_sum_max": 2.0 * params.p3 + config.slack,
                    "dist_to_v1": config.dist_slack + grid_slack(config.dist_pitch),
                }
                measured = {
                    "own_tail_min": float(tail[:, 0].min()),
                    "deviators_tail_sum_max": float((tail[:, 1] + tail[:, 2]).max()),
                    "dist_to_v1": dist_to_region(params, RegionSpec("v", 1, config.eps), traj.final,
                                                 config.dist_pitch),
                }
                margin = {k: m - bound[k] if k == "own_tail_min" else bound[k] - m for k, m in measured.items()}
                cell.update(measured=measured, bound=bound, margin=margin)
                passed = all(m >= 0.0 for m in margin.values())
            cell["tail_intervals"] = np.stack((tail.min(axis=0), tail.max(axis=0)), axis=1).tolist()
            cell["pass"] = bool(passed)
            if theorem == "t2":
                cell["checks"] = {k: bool(m >= 0.0) for k, m in margin.items()}
            cells.append(cell)
    return cells


class TestBatchedEngine:
    """verify_t4/verify_t2 step all cells together; every report must match
    the one built cell by cell with `iterate`, byte for byte."""

    CONFIG = HarnessConfig(params=PARAMS, n=2000)

    def check(self, theorem, battery, config=None):
        config = config or self.CONFIG
        if theorem == "t4":
            report = verify_t4(config, [devs[0] for devs in battery]).as_dict()
        else:
            report = verify_t2(config, battery).as_dict()
        cells = _reference_cells(theorem, config, battery)
        want = dict(report, cells=cells, passed=all(c["pass"] for c in cells))
        assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_standard_batteries(self):
        self.check("t4", [(d,) for d in standard_deviants(PARAMS, 0.4)])
        self.check("t2", deviant_pairs(PARAMS, 0.4))

    def test_other_seeds(self):
        seeds = (2, 999_983, 123_456_789)
        self.check("t4", [(d,) for d in standard_deviants(PARAMS, 0.4, seeds=seeds)])
        self.check("t2", deviant_pairs(PARAMS, 0.4, seeds=seeds))

    def test_good_deviants_in_any_seat_and_eps(self):
        # own seat, another player's seat, and a different threshold
        self.check("t4", [(GoodStrategy(3, 0.4, PARAMS),), (GoodStrategy(1, 0.4, PARAMS),),
                          (GoodStrategy(3, 0.25, PARAMS),), (Example2Defector(PARAMS, 0.3),)])
        self.check("t2", [(GoodStrategy(2, 0.4, PARAMS), GoodStrategy(3, 0.4, PARAMS)),
                          (GoodStrategy(3, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS)),
                          (GoodStrategy(2, 0.7, PARAMS), Example2Defector(PARAMS, 0.2))])

    def test_strategies_without_batch_forms(self):
        self.check("t4", [(Alternator(),), (Reluctant(3, 0.4, PARAMS),), (Contrary(0.3, 3),)])
        self.check("t2", [(Alternator(), RandomStrategy(0.5, 3)), (Reluctant(2, 0.4, PARAMS), Alternator()),
                          (Contrary(0.3, 3), RandomStrategy(0.3, 3))])

    @pytest.mark.parametrize("eps", [0.1, 0.4])
    def test_non_dyadic_game(self, eps):
        # the other batteries run dyadic payoffs, whose running sums never round
        config = HarnessConfig(params=NON_DYADIC, eps=eps, n=2000)
        self.check("t4", [(d,) for d in standard_deviants(NON_DYADIC, eps)]
                   + [(GoodStrategy(3, eps, NON_DYADIC),), (Hesitant(x3_cap=NON_DYADIC.p3),)], config)
        self.check("t2", deviant_pairs(NON_DYADIC, eps) + [(GoodStrategy(2, eps, NON_DYADIC), Alternator())], config)

    def test_no_trajectory_per_cell(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("t4/t2 cells must not run iterate")

        monkeypatch.setattr(harness, "iterate", refuse)
        cfg = HarnessConfig(params=PARAMS, n=1000, starts=((0.125,) * 8,))
        assert len(verify_t4(cfg).cells) == 13
        assert len(verify_t2(cfg).cells) == 15


class WideDefector(Example2Defector):
    """Overrides invests: refuses anywhere on Z inside V_1."""

    def invests(self, x):
        return x[0] != x[1] or not self._good1.invests(x)


class Inverted(RandomStrategy):
    """Overrides invests but not fresh."""

    def invests(self, x):
        return super().invests(x) ^ True


class Renamed(GoodStrategy):
    """Overrides nothing but its name."""

    def __init__(self, player, eps, params):
        super().__init__(player, eps, params)
        self.name = f"renamed(eps={eps:g})"


class Hesitant(Strategy):
    """A caller's stateless strategy written with `if`, `and` and `not`, so
    that its invests runs on floats only: refuses while x3 is above a cap and
    x1 is not below x2, and invests otherwise while x2 + x3 <= 2 p3.  It
    counts its calls, which no decision reads."""

    name = "hesitant"

    def __init__(self, x3_cap=PARAMS.p3):
        self.x3_cap = x3_cap
        self.calls = 0

    def invests(self, x):
        self.calls += 1
        if x[2] > self.x3_cap and not x[0] < x[1]:
            return False
        return not x[1] + x[2] > 2.0 * PARAMS.p3


class TestStackedRouting:
    """simulate_batch decides the seats of `GoodStrategy` in one
    `GoodColumns.invests_columns` call per stage and every other seat but constants and coin flips by its own
    `invests` on floats, once per (instance, row); every cell still matches
    `iterate`."""

    CONFIG = TestBatchedEngine.CONFIG
    check = TestBatchedEngine.check

    def test_defector_subclass_uses_its_own_triangle(self):
        self.check("t4", [(WideDefector(PARAMS, 0.4),), (Example2Defector(PARAMS, 0.4),)])
        cfg = HarnessConfig(params=PARAMS, n=2000, starts=((0.125,) * 8,))
        wide, plain = verify_t4(cfg, [WideDefector(PARAMS, 0.4), Example2Defector(PARAMS, 0.4)]).cells
        assert wide["measured"] != plain["measured"]

    def test_defector_in_both_seats_next_to_other_eps(self):
        d4, d2, d1 = (Example2Defector(PARAMS, eps) for eps in (0.4, 0.2, 0.1))
        self.check("t2", [(d4, d4), (d2, d2), (d4, d2), (d1, d4), (d2, ConstantStrategy("I")), (d1, d1)])
        self.check("t4", [(d4,), (d2,), (d1,)])

    def test_good_subclass_overriding_invests(self):
        self.check("t4", [(Reluctant(3, 0.4, PARAMS),), (GoodStrategy(3, 0.4, PARAMS),)])
        self.check("t2", [(Reluctant(2, 0.4, PARAMS), GoodStrategy(3, 0.25, PARAMS)),
                          (GoodStrategy(2, 0.4, PARAMS), Reluctant(3, 0.4, PARAMS))])

    def test_one_call_per_stacked_kind_and_stage(self, monkeypatch):
        calls, on_slice = [], []

        def spy(kind, name="invests"):
            inner = getattr(kind, name)

            def invests(self, x):
                calls.append((type(self), np.shape(x[0])))
                if not calls[-1][1]:
                    assert type(x) is tuple and all(type(c) is float for c in x)
                    if type(self) is Example2Defector and x[0] == x[1]:
                        on_slice.append(x)
                return inner(self, x)
            monkeypatch.setattr(kind, name, invests)

        spy(GoodStrategy)
        spy(GoodColumns, "invests_columns")
        spy(Example2Defector)
        n = 300
        d4, d2 = Example2Defector(PARAMS, 0.4), Example2Defector(PARAMS, 0.2)
        g1, g2 = GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.25, PARAMS)
        alt_a, alt_b = Alternator(), Alternator()
        profiles = [(g1, g2, d4), (g1, d4, d4), (g1, d2, alt_a), (g1, alt_b, Reluctant(3, 0.4, PARAMS)),
                    (g1, g2, GoodStrategy(3, 0.4, PARAMS)), (g1, d2, d2),
                    (Renamed(1, 0.4, PARAMS), ConstantStrategy("I"), ConstantStrategy("NI"))]
        starts = [VS.A, VS.B, VS.c1[0], VS.A, VS.c2[2], VS.B, VS.c1[1]]
        run = simulate_batch(profiles, PARAMS, starts, n, 0.5)
        # good slots 6 + 2 + 1 = 9, on columns
        assert calls.count((GoodColumns, (9,))) == n - 1
        # defector rows 0, 1, 2 and 5 on floats, once per row with both seats,
        # and the defector's own V_1 test once per such call on the slice x1 == x2
        assert calls.count((Example2Defector, ())) == 4 * (n - 1)
        assert 0 < len(on_slice) < 4 * (n - 1)
        assert calls.count((GoodStrategy, ())) == len(on_slice)
        assert calls.count((Reluctant, ())) == n - 1  # its own invests, through super()
        assert calls.count((Renamed, ())) == n - 1  # a subclass is not stacked, even one that overrides nothing
        assert len(calls) == 7 * (n - 1) + len(on_slice)
        assert alt_a.calls == alt_b.calls == n - 1
        monkeypatch.undo()
        fresh = {id(alt_a): Alternator(), id(alt_b): Alternator()}
        for b, (profile, x1) in enumerate(zip(profiles, starts)):
            profile = tuple(fresh.get(id(s), s) for s in profile)
            assert run.final[b].tolist() == list(iterate(induced_map(profile, PARAMS), x1, n).final)

    def test_deviant_written_for_floats_only(self):
        with pytest.raises(ValueError, match="ambiguous"):
            Hesitant().invests(np.full((3, 4), 20.0))
        self.check("t4", [(Hesitant(),), (Hesitant(x3_cap=24.0),)])
        self.check("t2", [(Hesitant(), RandomStrategy(0.5, 3)), (GoodStrategy(2, 0.4, PARAMS), Hesitant()),
                          (Hesitant(), Hesitant(x3_cap=24.0))])
        n, g1, g2 = 300, GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS)
        once, both = Hesitant(), Hesitant(x3_cap=24.0)
        profiles = [(g1, g2, once), (g1, both, both), (g1, g2, Example2Defector(PARAMS, 0.4))]
        starts = [VS.A, VS.c1[0], VS.B]
        run = simulate_batch(profiles, PARAMS, starts, n, 0.5)
        # a stateless instance filling both t2 seats is called once per row
        assert once.calls == both.calls == n - 1
        for b, (profile, x1) in enumerate(zip(profiles, starts)):
            traj = iterate(induced_map(profile, PARAMS), x1, n)
            assert run.final[b].tolist() == list(traj.final)
            tail = traj.tail(0.5)
            assert run.intervals(b) == np.stack((tail.min(axis=0), tail.max(axis=0)), axis=1).tolist()
        assert both.calls == n - 1 + 2 * (n - 1)  # iterate calls it once per seat

    def test_good_subclass_overriding_nothing(self):
        self.check("t4", [(Renamed(3, 0.4, PARAMS),), (GoodStrategy(3, 0.4, PARAMS),)])
        self.check("t2", [(Renamed(2, 0.4, PARAMS), Renamed(3, 0.25, PARAMS)),
                          (Renamed(2, 0.4, PARAMS), Example2Defector(PARAMS, 0.4))])

    def test_constants_are_not_called_per_stage(self, monkeypatch):
        calls = []
        inner = ConstantStrategy.invests

        def invests(self, x):
            calls.append(self.action)
            return inner(self, x)

        monkeypatch.setattr(ConstantStrategy, "invests", invests)
        n = 300
        inv, refuse, g1 = ConstantStrategy("I"), ConstantStrategy("NI"), GoodStrategy(1, 0.4, PARAMS)
        profiles = [(inv, inv, inv), (refuse, refuse, refuse), (inv, refuse, inv), (g1, inv, refuse),
                    (g1, refuse, refuse), (g1, inv, inv)]
        starts = [VS.A, VS.B, VS.c1[0], VS.c2[1], VS.A, VS.B]
        run = simulate_batch(profiles, PARAMS, starts, n, 0.5)
        assert calls == []
        monkeypatch.undo()
        for b, (profile, x1) in enumerate(zip(profiles, starts)):
            traj = iterate(induced_map(profile, PARAMS), x1, n)
            assert run.final[b].tolist() == list(traj.final)
            tail = traj.tail(0.5)
            assert run.intervals(b) == np.stack((tail.min(axis=0), tail.max(axis=0)), axis=1).tolist()
        both = [ConstantStrategy("I"), ConstantStrategy("NI")]
        self.check("t2", [(a, b) for a in both for b in both])

    @pytest.mark.parametrize("n, window", [(10, 0.95), (600, 0.999)])
    def test_window_holding_every_mean(self, n, window):
        # the start is the tail's first mean, folded before the stage loop
        assert tail_start(n, window) == 0

        def profiles():
            g1, g2 = GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS)
            return [(g1, g2, RandomStrategy(0.5, 3)), (g1, g2, Example2Defector(PARAMS, 0.4)),
                    (g1, ConstantStrategy("NI"), GoodStrategy(3, 0.4, PARAMS))]

        starts = [VS.A, VS.c1[0], VS.B]
        run = simulate_batch(profiles(), PARAMS, starts, n, window)
        for b, (profile, x1) in enumerate(zip(profiles(), starts)):
            traj = iterate(induced_map(profile, PARAMS), x1, n)
            tail = traj.tail(window)
            assert len(tail) == n
            assert run.final[b].tolist() == list(traj.final)
            assert run.tail_min[b].tolist() == tail.min(axis=0).tolist()
            assert run.tail_max[b].tolist() == tail.max(axis=0).tolist()
            assert run.tail_max_23[b] == (tail[:, 1] + tail[:, 2]).max()

    def test_stateful_instance_in_two_slots_is_rejected(self):
        g1, g2 = GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS)
        alt = Alternator()
        two_seats = [(g1, alt, alt)]
        two_cells = [(g1, g2, alt), (g1, g2, alt)]
        for profiles in (two_seats, two_cells):
            with pytest.raises(ValueError, match="alternator .*own fresh"):
                simulate_batch(profiles, PARAMS, [VS.A] * len(profiles), 50, 0.5)
        # with one copy per seat the cell matches iterate
        run = simulate_batch([(g1, Alternator(), Alternator())], PARAMS, [VS.A], 50, 0.5)
        traj = iterate(induced_map((g1, Alternator(), Alternator()), PARAMS), VS.A, 50)
        assert run.final[0].tolist() == list(traj.final)

    def test_random_subclass_fresh_keeps_its_type(self):
        s = Inverted(0.3, 3)
        first = [s.invests((0.0,) * 3) for _ in range(5)]
        clean = s.fresh()
        assert type(clean) is Inverted and clean.name == s.name
        assert [clean.invests((0.0,) * 3) for _ in range(5)] == first
        self.check("t4", [(Inverted(0.3, 3),)])
        cfg = HarnessConfig(params=PARAMS, n=2000, starts=((0.125,) * 8,))
        inverted, parent = verify_t4(cfg, [Inverted(0.3, 3), RandomStrategy(0.3, 3)]).cells
        assert inverted["measured"] != parent["measured"]


def _three_edge_defector(eps):
    """Three-edge reference of `Example2Defector.invests`: it refuses on Z
    inside V_1 where all three barycentric coordinates of (t, z) = (x1, x3)
    in the triangle B, D, C1_3 are at least -1e-10."""
    p3, r1, p1 = PARAMS.p3, PARAMS.r1, PARAMS.p1
    tb, zb = p3, p3
    td, zd = p3 - eps / 2.0, p3 + eps / 2.0
    tc, zc = r1, p1
    det = (tb - tc) * (zd - zc) - (td - tc) * (zb - zc)
    a11, a12, a21, a22 = (zd - zc) / det, -(td - tc) / det, -(zb - zc) / det, (tb - tc) / det
    good1 = GoodStrategy(1, eps, PARAMS)

    def invests(x):
        dt, dz = x[0] - tc, x[2] - zc
        l1 = a11 * dt + a12 * dz
        l2 = a21 * dt + a22 * dz
        l3 = 1.0 - l1 - l2
        in_triangle = l1 >= -1e-10 and l2 >= -1e-10 and l3 >= -1e-10
        return x[0] != x[1] or not (good1.invests(x) and in_triangle)

    return invests


class TestDefectorEdge:
    """The defector tests only the triangle edge D-C1_3, and decides as the
    three-edge reference on every mean the engines and slice grids give it."""

    EPS = (0.02, 0.1, 0.25, 0.4, 0.49)

    @staticmethod
    def check(points):
        """points: (eps, mean) pairs, some on the slice and refused there."""
        mine = {eps: Example2Defector(PARAMS, eps) for eps in {eps for eps, _ in points}}
        ref = {eps: _three_edge_defector(eps) for eps in mine}
        got = [mine[eps].invests(x) for eps, x in points]
        assert got == [ref[eps](x) for eps, x in points]
        assert 0 < got.count(False) < len(got)

    def test_battery_calls(self, monkeypatch):
        seen, inner = [], Example2Defector.invests

        def invests(self, x):
            seen.append((self.eps, x))
            return inner(self, x)

        monkeypatch.setattr(Example2Defector, "invests", invests)
        cfg = HarnessConfig(params=PARAMS, n=2000)
        verify_t4(cfg)
        verify_t2(cfg)
        monkeypatch.undo()
        self.check(seen)

    def test_example2_runs(self):
        points = []
        for eps in self.EPS:
            phi = induced_map((GoodStrategy(1, eps, PARAMS), GoodStrategy(2, eps, PARAMS),
                               Example2Defector(PARAMS, eps)), PARAMS)
            for start in z_starts(PARAMS):
                points += [(eps, x) for x in iterate(phi, start, 5000).means]
        self.check(points)

    def test_slice_grids(self):
        grids = [tuple(map(tuple, z_grid(PARAMS, pitch).tolist())) for pitch in (0.5, 0.3, 0.25, 0.2, 0.13, 0.1)]
        self.check([(eps, x) for eps in self.EPS for grid in grids for x in grid])


class TestSafetyChain:
    def test_t4_runs_satisfy_t2_conclusions(self):
        # a t4 cell is a t2 instance with the second deviant replaced by the
        # good strategy, so the t2 guarantees must hold on the same run
        eps, n, w = 0.4, 5000, 0.5
        for dev in standard_deviants(PARAMS, eps)[:4]:
            profile = (
                GoodStrategy(1, eps, PARAMS),
                GoodStrategy(2, eps, PARAMS),
                dev.fresh(),
            )
            traj = iterate(induced_map(profile, PARAMS), (23.0, 23.0, 23.0), n)
            tail = traj.tail(w)
            assert tail[:, 0].min() >= PARAMS.r0 - 0.05
            assert (tail[:, 1] + tail[:, 2]).max() <= 2 * PARAMS.p3 + 0.05
            d = dist_to_region(PARAMS, RegionSpec("v", 1, eps), traj.final, 0.25)
            assert d <= 0.1 + grid_slack(0.25)


class TestSymmetry:
    def test_relabeling_permutes_trajectories_exactly(self):
        # move the good player from seat 1 to seat sigma(1) and permute the
        # start: the mean sequence permutes bit for bit
        eps, n = 0.4, 400
        base_start = (36.0, 18.0, 18.0)
        sigma = (1, 2, 0)  # seat k -> seat sigma[k]
        kinds = ["good", "constant_I", "constant_NI"]

        def build(order, seats):
            out = [None, None, None]
            for seat0, kind in zip(seats, order):
                if kind == "good":
                    out[seat0] = GoodStrategy(seat0 + 1, eps, PARAMS)
                elif kind == "constant_I":
                    out[seat0] = ConstantStrategy("I")
                else:
                    out[seat0] = ConstantStrategy("NI")
            return tuple(out)

        base = build(kinds, (0, 1, 2))
        moved = build(kinds, tuple(sigma))
        traj_a = iterate(induced_map(base, PARAMS), base_start, n)
        traj_b = iterate(induced_map(moved, PARAMS), permute(base_start, sigma), n)
        for ma, mb in zip(traj_a.means, traj_b.means):
            assert permute(ma, sigma) == mb


class TestExample1:
    def test_quick_run(self):
        rep = run_example1((0, -1), (2, 1), example1_starts(5, seed=3), 20_000, 0.05)
        assert rep.passed
        assert rep.meta["limit"] == [1.0, 0.0]

    def test_start_at_the_limit_stays_close(self):
        d = example1_limit((0, -1), (2, 1))
        rep = run_example1((0, -1), (2, 1), [d], 10_000, 0.02)
        assert rep.passed

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_example1((0, 1), (2, 1), [(0, 0)], 1000, 0.1)  # a above the axis
        with pytest.raises(ValueError):
            run_example1((1, -1), (1, 1), [(0, 0)], 1000, 0.1)  # vertical segment

    def test_no_starts_rejected(self):
        with pytest.raises(ValueError, match="at least one start is required"):
            run_example1(starts=[], n=1000)

    @pytest.mark.parametrize("tol", [-0.01, float("nan")])
    def test_invalid_tol_rejected(self, tol):
        # a negative tolerance fails every cell whatever the dynamics do
        with pytest.raises(ValueError, match="tol must"):
            run_example1(starts=[(0.0, 0.0)], n=1000, tol=tol)

    def test_asymmetric_instance(self):
        a, b = (-1.0, -2.0), (0.5, 0.5)
        d = example1_limit(a, b)
        rep = run_example1(a, b, example1_starts(4, seed=9), 30_000, 0.05)
        assert rep.passed
        assert np.allclose(rep.meta["limit"], d)


class TestExample2:
    def test_quick_run(self):
        rep = run_example2(0.4, n=5000, tol=0.1)
        assert rep.passed
        for cell in rep.cells:
            assert cell["exceeds_p3"]

    def test_runs_each_start_once(self, monkeypatch):
        # the refinement and the intersection reuse the cells' final means
        from investgame import dynamics

        runs, engine_runs = [], []

        def counting_iterate(phi, x1, n):
            runs.append(x1)
            return iterate(phi, x1, n)

        def counting_stages(*args):
            engine_runs.append(args[1])
            return stages(*args)

        monkeypatch.setattr(harness, "iterate", counting_iterate)
        monkeypatch.setattr(dynamics, "stages", counting_stages)  # every `iterate` runs `stages`
        rep = run_example2(0.4, n=1000)
        assert runs == z_starts(PARAMS)
        assert len(runs) == 5
        assert engine_runs == runs  # no trajectory besides the cells'
        assert "refine_to_bd" in rep.meta

    def test_start_near_d_stays_near_d(self):
        d = (25.8, 25.8, 26.2)
        rep = run_example2(0.4, starts=[d], n=5000, tol=0.05)
        assert rep.passed

    def test_start_outside_z_rejected(self):
        with pytest.raises(ValueError, match="outside the slice Z"):
            run_example2(0.4, starts=[(20.0, 21.0, 20.0)], n=2000)

    @pytest.mark.parametrize("tol", [-0.01, float("nan")])
    def test_invalid_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must"):
            run_example2(0.4, n=1000, tol=tol)

    def test_default_starts_lie_in_z(self):
        for s in z_starts(PARAMS):
            assert s[0] == s[1]

    def test_trajectory_stays_in_z(self):
        from investgame.strategies import Example2Defector

        defc = Example2Defector(PARAMS, 0.4)
        profile = (
            GoodStrategy(1, 0.4, PARAMS),
            GoodStrategy(2, 0.4, PARAMS),
            defc,
        )
        traj = iterate(induced_map(profile, PARAMS), (19.0, 19.0, 28.0), 3000)
        assert all(m[0] == m[1] for m in traj.means)
