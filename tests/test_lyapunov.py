import math

import numpy as np
import pytest

from investgame.dynamics import iterate
from investgame.geometry import V_DIRS, dot3, hull_mask, project_plane, sample_points
from investgame.lyapunov import (
    LyapunovConstants,
    PlaneMultiMap,
    certification_grid,
    check_lyapunov,
    decrease_check,
    entrapment_check,
    four_direction_spec,
    good_profile_plane_map,
    six_direction_spec,
    support_value,
    t1_constants,
    two_good_plane_map,
    validate_constants,
)
from investgame.stage_game import GameParams, example_game, payoff_table, vertices
from investgame.strategies import (
    ConstantStrategy,
    Example2Defector,
    GoodStrategy,
    RandomStrategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)
S2 = math.sqrt(2.0)


class TestSupportValue:
    def test_origin_all_active(self):
        spec = six_direction_spec(0.3)
        v, active = support_value(spec, (0.0, 0.0, 0.0))
        assert v == 0.0
        assert active == tuple(range(6))

    def test_projected_vertex(self):
        spec = six_direction_spec(0.3, delta=0.1)
        y = project_plane((36.0, 18.0, 18.0))  # (12, -6, -6)
        v, active = support_value(spec, y)
        assert abs(v - 18.0 / S2) <= 1e-12
        assert active == (4, 5)  # v5 and v6, 0-based

    def test_positive_homogeneity(self):
        spec = six_direction_spec(0.3)
        y = project_plane((7.0, -2.0, 1.5))
        v1, _ = support_value(spec, y)
        v3, _ = support_value(spec, tuple(3.0 * c for c in y))
        assert abs(v3 - 3.0 * v1) <= 1e-12

    def test_one_lipschitz(self):
        spec = six_direction_spec(0.3)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = project_plane(rng.uniform(-20, 20, size=3))
            y = project_plane(rng.uniform(-20, 20, size=3))
            vx, _ = support_value(spec, x)
            vy, _ = support_value(spec, y)
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
            assert abs(vx - vy) <= dist + 1e-12

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            six_direction_spec(0.3, delta=0.3)
        with pytest.raises(ValueError):
            six_direction_spec(0.3, delta=0.0)


class TestPlaneMultimaps:
    def test_all_good_map_is_sound_for_the_dynamics(self):
        # every realized projected step must appear among the map's values
        mmap = good_profile_plane_map(PARAMS)
        phi = induced_map(good_profile(PARAMS, 0.4), PARAMS)
        for x in sample_points(PARAMS, 3000, seed=14):
            x = tuple(x)
            w = project_plane(phi(x))
            values = mmap(project_plane(x))
            assert any(max(abs(a - b) for a, b in zip(w, v)) <= 1e-9 for v in values)

    def test_two_good_envelope_covers_any_third_strategy(self):
        mmap = two_good_plane_map(PARAMS, 0.4)
        thirds = [
            ConstantStrategy("I"),
            ConstantStrategy("NI"),
            RandomStrategy(0.5, 3),
            Example2Defector(PARAMS, 0.4),
            GoodStrategy(3, 0.4, PARAMS),
        ]
        pts = sample_points(PARAMS, 800, seed=15)
        for third in thirds:
            phi = induced_map(
                (GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS), third),
                PARAMS,
            )
            for x in pts:
                x = tuple(x)
                w = project_plane(phi(x))
                values = mmap(project_plane(x))
                assert any(
                    max(abs(a - b) for a, b in zip(w, v)) <= 1e-9 for v in values
                )

    def test_values_never_empty_on_the_hexagon(self):
        mmap = good_profile_plane_map(PARAMS)
        mmap4 = two_good_plane_map(PARAMS, 0.4)
        grid = certification_grid(six_direction_spec(1e-6, delta=5e-7), PARAMS, 0.3)
        for x in grid:
            assert mmap(x)
            assert mmap4(x)


class TestCheckLyapunov:
    @pytest.mark.parametrize("c", [0.1, 0.3])
    def test_all_good_certifies(self, c):
        spec = six_direction_spec(c)
        mmap = good_profile_plane_map(PARAMS)
        grid = certification_grid(spec, PARAMS, 0.25)
        assert check_lyapunov(spec, mmap, grid).holds

    def test_two_good_certifies(self):
        eps, eta = 0.4, 0.1
        spec = four_direction_spec((eps + eta) / S2, delta=eta / (2 * S2))
        mmap = two_good_plane_map(PARAMS, eps)
        grid = certification_grid(spec, PARAMS, 0.25)
        assert check_lyapunov(spec, mmap, grid).holds

    def test_monotone_in_c(self):
        delta = 0.05
        mmap = good_profile_plane_map(PARAMS)
        for c in (0.1, 0.2, 0.5, 1.0):
            spec = six_direction_spec(c, delta=delta)
            grid = certification_grid(spec, PARAMS, 0.3)
            assert check_lyapunov(spec, mmap, grid).holds

    def test_negative_control_produces_witness(self):
        spec = six_direction_spec(0.3)
        bad = PlaneMultiMap([(10.0, -5.0, -5.0)], (), label="bad")
        grid = certification_grid(spec, PARAMS, 0.3)
        rep = check_lyapunov(spec, bad, grid)
        assert not rep.holds
        assert rep.witness is not None
        assert rep.witness["inner"] > 0

    def test_empty_grid_rejected(self):
        spec = six_direction_spec(0.3)
        with pytest.raises(ValueError):
            check_lyapunov(spec, good_profile_plane_map(PARAMS), [])


class TestConstants:
    def test_worked_example(self):
        spec = six_direction_spec(1.0, delta=0.5)
        consts = t1_constants(spec, 10.0)
        assert consts.r == 0.125
        assert consts.gamma == 0.25
        assert abs(consts.alpha0 - 0.005625) <= 1e-15

    def test_degenerate_delta_shrinks_everything(self):
        spec = six_direction_spec(1.0, delta=0.999)
        consts = t1_constants(spec, 10.0)
        assert consts.gamma < 1e-3
        assert consts.alpha0 < 1e-4

    def test_infeasible_delta(self):
        with pytest.raises(ValueError):
            t1_constants(six_direction_spec(0.3, delta=0.1), 0.0)
        bad = LyapunovConstants(m_bound=10.0, delta=0.5, r=0.3, gamma=0.25, alpha0=1e-3)
        with pytest.raises(ValueError, match="r"):
            validate_constants(six_direction_spec(1.0, delta=0.5), bad)


class TestDecrease:
    def test_all_good_with_derived_constants(self):
        spec = six_direction_spec(0.3)
        mmap = good_profile_plane_map(PARAMS)
        grid = certification_grid(spec, PARAMS, 0.25)
        consts = t1_constants(spec, 60.0)
        assert decrease_check(spec, mmap, consts, grid).holds

    def test_alpha_zero_is_trivial(self):
        spec = six_direction_spec(0.3)
        mmap = good_profile_plane_map(PARAMS)
        grid = certification_grid(spec, PARAMS, 0.4)
        consts = t1_constants(spec, 60.0)
        assert decrease_check(spec, mmap, consts, grid, alphas=(0.0,)).holds

    def test_inflated_gamma_yields_witness(self):
        spec = six_direction_spec(0.3)
        mmap = good_profile_plane_map(PARAMS)
        grid = certification_grid(spec, PARAMS, 0.3)
        bad = LyapunovConstants(m_bound=60.0, delta=spec.delta, r=spec.delta / 4,
                                gamma=10.0, alpha0=3e-4)
        rep = decrease_check(spec, mmap, bad, grid)
        assert not rep.holds
        assert rep.witness is not None

    def test_certificate_plus_constants_imply_decrease(self):
        # consistency across (c, delta) choices: a failure here would be an
        # implementation bug, not model behavior
        mmap = good_profile_plane_map(PARAMS)
        for c, delta in ((0.1, 0.05), (0.3, 0.2), (0.5, 0.1)):
            spec = six_direction_spec(c, delta=delta)
            grid = certification_grid(spec, PARAMS, 0.3)
            assert check_lyapunov(spec, mmap, grid).holds
            consts = t1_constants(spec, 60.0)
            assert decrease_check(spec, mmap, consts, grid).holds


class TestEntrapment:
    def test_all_good_run_gets_trapped(self):
        phi = induced_map(good_profile(PARAMS, 0.4), PARAMS)
        start = tuple(0.7 * a + 0.3 * b for a, b in zip(VS.c1[0], VS.B))
        traj = iterate(phi, start, 50_000)
        spec = six_direction_spec(0.4 / S2)
        rep = entrapment_check(spec, traj.means, 1.5 * spec.c)
        assert rep.ok
        assert rep.entry_index is not None
        assert rep.max_after_entry < 1.5 * spec.c

    def test_deviator_run_with_four_directions(self):
        eps, eta = 0.4, 0.1
        spec = four_direction_spec((eps + eta) / S2, delta=eta / (2 * S2))
        phi = induced_map(
            (
                GoodStrategy(1, eps, PARAMS),
                GoodStrategy(2, eps, PARAMS),
                ConstantStrategy("NI"),
            ),
            PARAMS,
        )
        start = tuple(0.7 * a + 0.3 * b for a, b in zip(VS.c1[0], VS.B))
        traj = iterate(phi, start, 50_000)
        rep = entrapment_check(spec, traj.means, 1.5 * spec.c)
        assert rep.ok

    def test_constant_origin_trajectory(self):
        spec = six_direction_spec(0.3)
        rep = entrapment_check(spec, [(0.0, 0.0, 0.0)] * 100, 0.45)
        assert rep.ok
        assert rep.entry_index == 1

    def test_failure_when_tail_sits_outside(self):
        spec = six_direction_spec(0.3)
        far = [project_plane((36.0, 18.0, 18.0))] * 50
        rep = entrapment_check(spec, far, 0.45)
        assert not rep.ok
        assert rep.entry_index is None

    def test_c1_must_exceed_c(self):
        spec = six_direction_spec(0.3)
        with pytest.raises(ValueError):
            entrapment_check(spec, [(0.0, 0.0, 0.0)], 0.2)


def test_active_indices_positive_outside_delta_c():
    # outside Delta_c every delta-active direction has a positive value,
    # which is what lets the drop rules stand in for the active condition
    spec = six_direction_spec(0.3, delta=0.2)
    grid = certification_grid(spec, PARAMS, 0.3)
    for x in grid[:500]:
        v, active = support_value(spec, x)
        assert v >= spec.c
        for i in active:
            assert dot3(spec.vectors[i], x) >= spec.c - spec.delta > 0


OTHER = GameParams(r0=5.0, r1=8.0, r2=12.0, p1=3.0, p2=7.0, p3=11.0)
TENTHS = GameParams(r0=2.0, r1=2.8, r2=3.6, p1=1.0, p2=1.8, p3=2.6)


def _vertices_by_hand(params):
    """The labeled vertices as written out from the six payoffs."""
    r0, r1, r2, p1, p2, p3 = params.r0, params.r1, params.r2, params.p1, params.p2, params.p3

    def lone(value, rest, j):
        return tuple(value if k == j else rest for k in range(3))

    return {"A": (r0,) * 3, "B": (p3,) * 3,
            **{f"C1_{j + 1}": lone(p1, r1, j) for j in range(3)},
            **{f"C2_{j + 1}": lone(r2, p2, j) for j in range(3)}}


#: The hand-indexed drop sets of the all-good map, one per direction v1..v6,
#: over the value order B, C1_1, C1_2, C1_3, C2_1, C2_2, C2_3.
ALL_GOOD_DROPS = ({2, 6}, {1, 6}, {1, 5}, {3, 5}, {3, 4}, {2, 4})


def _rule_triples(mmap):
    return [(direction, threshold, set(drops)) for direction, threshold, drops in mmap.rules]


@pytest.mark.parametrize("params", [PARAMS, OTHER, TENTHS], ids=["canonical", "other", "tenths"])
@pytest.mark.parametrize("eps", [0.1, 0.4, 1.5])
def test_coded_maps_equal_the_hand_indexed_tables(params, eps):
    # the maps derived from decision codes are the literal vertex lists and drop tables
    vs = _vertices_by_hand(params)
    good = good_profile_plane_map(params)
    assert good.values == [project_plane(vs[k]) for k in ("B", "C1_1", "C1_2", "C1_3", "C2_1", "C2_2", "C2_3")]
    assert _rule_triples(good) == [(V_DIRS[i], 0.0, ALL_GOOD_DROPS[i]) for i in range(6)]
    two = two_good_plane_map(params, eps)
    assert two.values == [project_plane(vs[k])
                          for k in ("C1_1", "C2_2", "C1_2", "C2_1", "B", "C2_3", "A", "C1_3")]
    thr = eps / S2
    assert _rule_triples(two) == [
        (V_DIRS[5], 0.0, {2, 3}),
        (V_DIRS[2], 0.0, {0, 1}),
        (V_DIRS[0], thr, {2, 3, 4, 5}),
        (V_DIRS[1], thr, {0, 1, 4, 5}),
    ]


def _grid_of_s(params, pitch):
    """The points of S on the pitch grid of its bounding box, (M, 3)."""
    verts = np.asarray(vertices(params).all_points())
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [np.arange(lo[d], hi[d] + pitch / 2, pitch) for d in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid[hull_mask(verts, grid)]


@pytest.fixture(scope="module")
def s_grid():
    return _grid_of_s(PARAMS, 0.5)


@pytest.mark.parametrize("eps", [0.5, 0.25, 1.5])
def test_maps_are_sound_on_the_rule_lines(s_grid, eps):
    # random interior points miss the lines where the region inequalities
    # switch; a dyadic grid of S lies on many of them exactly
    x = s_grid
    assert len(x) == 15997
    assert np.any(x[:, 0] == PARAMS.r0)
    assert np.any(x[:, 1] + x[:, 2] == 2 * PARAMS.p3)
    assert np.any(x[:, 0] == x[:, 1])
    table = np.asarray(payoff_table(PARAMS))
    cols = x.T
    y = project_plane(cols)
    good = [GoodStrategy(i, eps, PARAMS).invests(cols) for i in (1, 2, 3)]
    two = good[0] * 1 + good[1] * 2

    def assert_step_alive(mmap, codes):
        steps = np.column_stack(project_plane(table[codes].T))
        matches = np.all(steps[:, None, :] == np.asarray(mmap.values)[None, :, :], axis=2)
        sound = np.any(matches & mmap.alive(y), axis=1)
        assert sound.all(), x[~sound][:5]

    assert_step_alive(good_profile_plane_map(PARAMS), two + good[2] * 4)
    mmap = two_good_plane_map(PARAMS, eps)
    assert_step_alive(mmap, two)
    assert_step_alive(mmap, two + 4)
