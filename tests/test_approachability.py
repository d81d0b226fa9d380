import math

import numpy as np
import pytest

from investgame.approachability import (
    HullOracle,
    LineOracle,
    PointOracle,
    SegmentsOracle,
    check_blackwell,
    clip_segments_to_neighborhood,
    decay_bound_check,
    intersect_attractors,
    premise_start,
    refine_attractor,
    sample_intersection,
    verify_weak_attractor,
)
from investgame.dynamics import iterate
from investgame.harness import (
    example1_limit,
    example1_phi,
    sample_near_segments_z,
    z_grid,
)
from investgame.stage_game import example_game, vertices
from investgame.strategies import (
    Example2Defector,
    GoodStrategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)

A1 = (0.0, -1.0)
B1 = (2.0, 1.0)
D1 = example1_limit(A1, B1)  # (1, 0)


def box_grid(box=3.0, pitch=0.25):
    axis = np.arange(-box, box + pitch / 2, pitch)
    return [(float(u), float(v)) for u in axis for v in axis]


class TestOracles:
    def test_point(self):
        o = PointOracle((1.0, 2.0))
        assert o.distance((4.0, 6.0)) == 5.0

    def test_line(self):
        o = LineOracle((0.0, 0.0), (1.0, 0.0))
        (p,) = o.project((3.5, -2.0))
        assert tuple(p) == (3.5, 0.0)

    def test_segments_clamp_and_ties(self):
        o = SegmentsOracle([((0.0, 0.0), (1.0, 0.0))])
        (p,) = o.project((2.0, 1.0))
        assert tuple(p) == (1.0, 0.0)
        # equidistant union: both projections are reported
        o2 = SegmentsOracle([((0.0, 1.0), (1.0, 1.0)), ((0.0, -1.0), (1.0, -1.0))])
        cands = o2.project((0.5, 0.0))
        assert len(cands) == 2

    def test_hull_matches_variational_test(self):
        pts = np.asarray(VS.all_points())
        oracle = HullOracle(pts)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 50, size=(25, 3)):
            (p,) = oracle.project(x)
            for v in pts:
                assert float((x - p) @ (v - p)) <= 1e-8


class TestBlackwell:
    def test_line_holds(self):
        rep = check_blackwell(example1_phi(A1, B1), LineOracle((0, 0), (1, 0)), box_grid())
        assert rep.holds
        assert rep.witness is None

    def test_segment_holds(self):
        rep = check_blackwell(example1_phi(A1, B1), SegmentsOracle([(A1, B1)]), box_grid())
        assert rep.holds

    def test_singleton_violated_with_reproducible_witness(self):
        rep = check_blackwell(example1_phi(A1, B1), PointOracle(D1), box_grid())
        assert not rep.holds
        w = rep.witness
        assert w is not None and w["inner"] > 0
        x, fx, y = np.asarray(w["x"]), np.asarray(w["phi_x"]), np.asarray(w["proximal"])
        assert float((x - y) @ (fx - y)) == w["inner"]

    def test_specific_violation_point(self):
        # at (2, 0) the step is b and <x - d, b - d> = <(1,0),(1,1)> = 1 > 0
        phi = example1_phi(A1, B1)
        x = (2.0, 0.0)
        assert phi(x) == B1
        inner = float(np.dot(np.subtract(x, D1), np.subtract(phi(x), D1)))
        assert inner == 1.0
        rep = check_blackwell(phi, PointOracle(D1), [x])
        assert not rep.holds


class TestDecayBound:
    def test_constant_map_into_single_point(self):
        target = (1.0, 2.0, 3.0)
        traj = iterate(lambda x: target, (30.0, -10.0, 4.0), 3000)
        rep = decay_bound_check(traj, PointOracle(target), 1)
        assert rep.ok
        assert rep.violations == 0

    def test_example1_line_and_segment(self):
        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 10_000)
        for oracle in (LineOracle((0, 0), (1, 0)), SegmentsOracle([(A1, B1)])):
            n0 = premise_start(traj, oracle)
            assert n0 == 1
            rep = decay_bound_check(traj, oracle, n0)
            assert rep.premise_ok
            assert rep.ok

    def test_all_good_run_against_b(self):
        phi = induced_map(good_profile(PARAMS, 0.4), PARAMS)
        traj = iterate(phi, VS.c1[0], 10_000)
        oracle = PointOracle(VS.B)
        n0 = premise_start(traj, oracle)
        assert n0 is not None
        rep = decay_bound_check(traj, oracle, n0)
        assert rep.ok

    def test_projects_each_mean_once(self):
        calls = []

        class Counting(SegmentsOracle):
            def project(self, x):
                calls.append(1)
                return super().project(x)

        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 2000)
        oracle = Counting([(A1, B1)])
        n0 = 7
        rep = decay_bound_check(traj, oracle, n0)
        assert len(calls) == traj.horizon - n0 + 1
        # the distance taken from that one projection is oracle.distance's
        assert rep.d_n0 == n0 * n0 * oracle.distance(traj.means[n0 - 1]) ** 2

    def test_n0_validation(self):
        traj = iterate(lambda x: (0.0, 0.0), (1.0, 1.0), 10)
        with pytest.raises(ValueError):
            decay_bound_check(traj, PointOracle((0.0, 0.0)), 0)


class TestWeakAttractor:
    def test_map_into_convex_set(self):
        # steps inside the hull of two points: the hull attracts at rate ~ 1/n
        target = HullOracle([(0.0, 0.0), (1.0, 0.0)])
        phi = lambda x: (0.5, 0.0)
        n = 2000
        rep = verify_weak_attractor(phi, target, [(5.0, 5.0), (-3.0, 2.0)], n, tol=0.01)
        assert rep.passes

    def test_example1_singleton_attracts(self):
        rep = verify_weak_attractor(
            example1_phi(A1, B1), PointOracle(D1), [(2.5, -1.7), (-1.0, 2.0)], 50_000, tol=0.05
        )
        assert rep.passes
        assert rep.series[0]["distances"][-1] <= 0.05

    def test_disjoint_region_fails_with_positive_distance(self):
        rep = verify_weak_attractor(
            example1_phi(A1, B1), PointOracle((10.0, 10.0)), [(0.0, 0.0)], 5000, tol=0.05
        )
        assert not rep.passes
        assert rep.max_final_distance > 1.0


class TestIntersect:
    def test_example1_line_cap_segment(self):
        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 50_000)
        out = intersect_attractors(
            traj, LineOracle((0, 0), (1, 0)), SegmentsOracle([(A1, B1)]), tol=0.05
        )
        assert out["passes"]
        assert len(out["intersection_samples"]) == 1
        assert np.allclose(out["intersection_samples"][0], D1, atol=1e-6)

    def test_equal_regions_reduce_to_single_check(self):
        traj = iterate(example1_phi(A1, B1), (0.5, 0.5), 20_000)
        seg = SegmentsOracle([(A1, B1)])
        out = intersect_attractors(traj, seg, SegmentsOracle([(A1, B1)]), tol=0.05)
        assert out["passes"]
        assert abs(out["dist_to_intersection"] - seg.distance(traj.final)) <= 1e-6

    def test_empty_intersection_raises(self):
        traj = iterate(lambda x: (0.0, 0.0), (0.0, 0.0), 2000)
        far_a = PointOracle((10.0, 0.0))
        far_b = PointOracle((-10.0, 0.0))
        with pytest.raises(ValueError, match="empty sampled intersection"):
            intersect_attractors(traj, far_a, far_b, tol=100.0, seeds=[(0.0, 0.0)])


def defector_setup(eps=0.4):
    defc = Example2Defector(PARAMS, eps)
    phi = induced_map(
        (GoodStrategy(1, eps, PARAMS), GoodStrategy(2, eps, PARAMS), defc), PARAMS
    )
    union = [(VS.B, defc.d_point), (defc.d_point, VS.c1[2])]
    return defc, phi, union


class TestClipAndRefine:
    def test_clip_keeps_inner_segment_whole(self):
        defc, _, union = defector_setup()
        bd = SegmentsOracle([union[0]])
        clipped = clip_segments_to_neighborhood(union, bd, eps=0.25)
        # BD survives unchanged; the tail segment is shortened
        assert np.allclose(clipped[0][0], VS.B)
        assert np.allclose(clipped[0][1], defc.d_point)
        assert len(clipped) == 2
        far_end = clipped[1][1]
        assert bd.distance(far_end) <= 0.25 + 1e-6

    def test_vacuous_refinement_to_itself(self):
        _, phi, union = defector_setup()
        inner = SegmentsOracle(union)
        out = refine_attractor(
            phi, union, inner, [(0.5, 0.3)],
            lambda delta: sample_near_segments_z(PARAMS, union, delta),
            [iterate(phi, VS.A, 20_000).final], tol=0.05,
        )
        assert out["passes"]

    def test_example2_refinement_to_bd(self):
        defc, phi, union = defector_setup()
        bd = SegmentsOracle([union[0]])
        out = refine_attractor(
            phi, union, bd, [(0.5, 0.3), (0.25, 0.15)],
            lambda delta: sample_near_segments_z(PARAMS, union, delta),
            [iterate(phi, VS.A, 20_000).final], tol=0.05,
        )
        assert out["passes"], out

    def test_takes_final_points(self, monkeypatch):
        # the trajectories do not depend on the schedule: the caller runs
        # them once and passes their final means; refinement runs none
        from investgame import approachability

        _, phi, union = defector_setup()
        finals = [iterate(phi, x1, 2000).final for x1 in (VS.A, VS.B)]

        def refuse(*args):
            raise AssertionError("refine_attractor must not run trajectories")

        monkeypatch.setattr(approachability, "iterate", refuse)
        bd = SegmentsOracle([union[0]])
        out = refine_attractor(
            phi, union, bd, [(0.5, 0.3), (0.25, 0.15)],
            lambda delta: sample_near_segments_z(PARAMS, union, delta),
            finals, tol=0.05,
        )
        worst = max(bd.distance(x) for x in finals)
        assert [stage["max_final_dist_to_inner"] for stage in out["stages"]] == [worst, worst]

    def test_small_clip_radius_fails_with_witness(self):
        # below ~0.43*eps the clipped set's free end violates the condition
        # for every delta; the checker must report it rather than pass
        defc, phi, union = defector_setup(eps=0.4)
        bd = SegmentsOracle([union[0]])
        out = refine_attractor(
            phi, union, bd, [(0.1, 0.3)],
            lambda delta: sample_near_segments_z(PARAMS, union, delta),
            [iterate(phi, VS.A, 5000).final], tol=0.05,
        )
        assert not out["passes"]
        stage = out["stages"][0]
        assert not stage["blackwell_holds"]
        assert stage["witness"] is not None
        assert stage["witness"]["inner"] > 0


class TestExample2Pipeline:
    def test_blackwell_on_z_for_triangle_and_union(self):
        defc, phi, union = defector_setup()
        domain = z_grid(PARAMS, 0.25)
        triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
        assert check_blackwell(phi, triangle, domain).holds
        assert check_blackwell(phi, SegmentsOracle(union), domain).holds

    def test_bd_and_triangle_intersect_at_d(self):
        defc, phi, union = defector_setup()
        bd = SegmentsOracle([union[0]])
        triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
        samples = sample_intersection(bd, triangle, seeds=z_grid(PARAMS, 2.0))
        assert samples
        for p in samples:
            assert np.allclose(p, defc.d_point, atol=1e-6)


class TestCrossModuleConsistency:
    def test_blackwell_pass_implies_decay_style_attraction(self):
        # the decay constants themselves bound the final distance
        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 20_000)
        oracle = SegmentsOracle([(A1, B1)])
        rep = decay_bound_check(traj, oracle, 1)
        assert rep.ok
        n = traj.horizon
        tol = math.sqrt((rep.d_n0 + (n - 1) * rep.c_const) / n)
        assert oracle.distance(traj.final) <= tol
