import itertools
import math
from collections.abc import Sequence

import numpy as np
import pytest

from investgame.approachability import (
    CERT_TOL,
    PROXIMAL_TIE_TOL,
    HullOracle,
    LineOracle,
    PointOracle,
    SegmentsOracle,
    check_blackwell,
    clip_segments_to_neighborhood,
    decay_bound_check,
    premise_start,
    refine_attractor,
)
from investgame.dynamics import iterate
from investgame.harness import (
    example1_limit,
    example1_phi,
    example1_steps,
    intersect_at_d,
    z_grid,
    z_near_segments,
)
from investgame.stage_game import example_game, vertices
from investgame.strategies import (
    Example2Defector,
    GoodStrategy,
    good_profile,
    induced_columns,
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
        assert o.distances([(4.0, 6.0)])[0] == 5.0

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


def _ref_dot(a, b):
    out = float(a[0]) * float(b[0])
    for k in range(1, len(a)):
        out += float(a[k]) * float(b[k])
    return out


def _ref_dist(p, x):
    return math.sqrt(_ref_dot(np.subtract(p, x), np.subtract(p, x)))


def ref_segments(segments, x):
    """Per-point closed form on each segment; ties within the tolerance, in order."""
    cands = []
    for a, b in segments:
        a, b = np.asarray(a, float), np.asarray(b, float)
        u = b - a
        uu = _ref_dot(u, u)
        t = 0.0 if uu == 0.0 else _ref_dot(np.subtract(x, a), u) / uu
        p = a + min(1.0, max(0.0, t)) * u
        cands.append((_ref_dist(p, x), p))
    dmin = min(d for d, _ in cands)
    return [p for d, p in cands if d <= dmin + PROXIMAL_TIE_TOL]


def ref_hull(points, x):
    """The per-point face loop: solve each affinely independent subset's KKT
    system for x, keep feasible weights, take the closest candidate."""
    pts = np.asarray(points, float)
    best, best_d = None, math.inf
    for size in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        for idx in itertools.combinations(range(len(pts)), size):
            sub = pts[list(idx)]
            if size > 1 and np.linalg.matrix_rank(sub[1:] - sub[0]) < size - 1:
                continue
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = sub @ sub.T
            kkt[:size, size] = kkt[size, :size] = 1.0
            w = np.linalg.solve(kkt, np.append(sub @ x, 1.0))[:size]
            if np.any(w < -1e-12):
                continue
            d = _ref_dist(w @ sub, x)
            if d < best_d:
                best, best_d = w @ sub, d
    return [best]


def _edge_and_vertex_points(verts, rng, count):
    """Points outside a polygon or triangle near a vertex (pushed out from
    the centre through the vertex) and near an edge (pushed out along the
    edge's normal in the polygon's plane)."""
    verts = np.asarray(verts, float)
    center = verts.mean(axis=0)
    out = []
    for _ in range(count):
        i = rng.integers(len(verts))
        v = verts[i]
        out.append(v + rng.uniform(0.1, 3.0) * (v - center))  # vertex region
        e = verts[(i + 1) % len(verts)] - v
        mid = v + rng.uniform(0.1, 0.9) * e
        away = (mid - center) - ((mid - center) @ e) / (e @ e) * e
        out.append(mid + rng.uniform(0.1, 3.0) * away)  # edge region
    return np.array(out)


class TestBatchedOracles:
    """Each oracle's one-pass projection against a per-point reference, and
    the one-point project against the matching row of the batch."""

    TRIANGLE = [VS.c1[2], VS.c2[2], Example2Defector(PARAMS, 0.4).d_point]

    @staticmethod
    def _assert_rows_match(oracle, pts, ref):
        proj = oracle.project_many(pts)
        for m, x in enumerate(pts):
            want = ref(x)
            got = [p for p, tied in zip(proj.points[m], proj.tied[m]) if tied]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12
            assert abs(proj.nearest()[1][m] - _ref_dist(want[0], x)) <= 1e-12
            single = oracle.project(x)
            assert len(single) == len(got)
            for g, s in zip(got, single):
                assert np.array_equal(g, s)  # bit for bit
            assert oracle.distances([x])[0] == proj.nearest()[1][m]

    def _samples(self, verts, seed, lo, hi):
        rng = np.random.default_rng(seed)
        verts = np.asarray(verts, float)
        inside = rng.dirichlet(np.ones(len(verts)), size=15) @ verts
        rand = rng.uniform(lo, hi, size=(15, verts.shape[1]))
        return np.vstack([rand, inside, _edge_and_vertex_points(verts, rng, 10)])

    def test_point(self):
        oracle = PointOracle((1.0, 2.0, 3.0))
        pts = np.random.default_rng(1).uniform(-10, 10, size=(30, 3))
        self._assert_rows_match(oracle, pts, lambda x: [np.array([1.0, 2.0, 3.0])])

    def test_line(self):
        point, direction = np.array([0.5, -1.0]), np.array([3.0, 4.0]) / 5.0
        oracle = LineOracle(point, (3.0, 4.0))
        pts = np.random.default_rng(2).uniform(-10, 10, size=(30, 2))
        self._assert_rows_match(
            oracle, pts, lambda x: [point + _ref_dot(np.subtract(x, point), direction) * direction])

    def test_segments(self):
        _, _, _, union = defector_setup()
        oracle = SegmentsOracle(union)
        pts = self._samples([VS.B, union[0][1], VS.c1[2]], 3, 0.0, 40.0)
        self._assert_rows_match(oracle, pts, lambda x: ref_segments(union, x))

    def test_equidistant_segments_return_both_in_order(self):
        segs = [((0.0, 1.0), (1.0, 1.0)), ((0.0, -1.0), (1.0, -1.0)), ((5.0, 5.0), (6.0, 5.0))]
        oracle = SegmentsOracle(segs)
        # exactly equidistant, equidistant within the tie tolerance, and not
        pts = np.array([(0.5, 0.0), (0.25, 0.0), (-3.0, 0.0), (0.5, 1e-12), (0.5, 1e-6), (0.5, 0.5)])
        self._assert_rows_match(oracle, pts, lambda x: ref_segments(segs, x))
        proj = oracle.project_many(pts)
        assert proj.tied[:4, :2].all() and not proj.tied[:4, 2].any()
        assert np.array_equal(proj.points[0, :2], [(0.5, 1.0), (0.5, -1.0)])
        assert proj.tied[4:].tolist() == [[True, False, False]] * 2

    def test_hull_triangle_in_r3(self):
        oracle = HullOracle(self.TRIANGLE)
        pts = self._samples(self.TRIANGLE, 4, 0.0, 40.0)
        self._assert_rows_match(oracle, pts, lambda x: ref_hull(self.TRIANGLE, x))

    def test_hull_of_the_payoff_set(self):
        verts = VS.all_points()
        oracle = HullOracle(verts)
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.uniform(0, 50, size=(20, 3)),
                         rng.dirichlet(np.ones(8), size=10) @ np.asarray(verts)])
        self._assert_rows_match(oracle, pts, lambda x: ref_hull(verts, x))

    def test_hull_planar_polygon(self):
        square = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
        oracle = HullOracle(square)
        pts = self._samples(square, 6, -4.0, 5.0)
        self._assert_rows_match(oracle, pts, lambda x: ref_hull(square, x))

    def test_degenerate_collinear_hull(self):
        line = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (3.0, 3.0, 3.0)]
        oracle = HullOracle(line)
        pts = np.random.default_rng(7).uniform(-3, 6, size=(30, 3))
        self._assert_rows_match(oracle, pts, lambda x: ref_hull(line, x))
        # the collinear hull is the segment from the first point to the last
        seg = SegmentsOracle([(line[0], line[2])])
        assert np.allclose(oracle.distances(pts), seg.distances(pts), atol=1e-12)


class TestBlackwell:
    def test_line_holds(self):
        rep = check_blackwell(example1_steps(A1, B1), LineOracle((0, 0), (1, 0)), box_grid())
        assert rep.holds
        assert rep.witness is None

    def test_segment_holds(self):
        rep = check_blackwell(example1_steps(A1, B1), SegmentsOracle([(A1, B1)]), box_grid())
        assert rep.holds

    def test_singleton_violated_with_reproducible_witness(self):
        rep = check_blackwell(example1_steps(A1, B1), PointOracle(D1), box_grid())
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
        rep = check_blackwell(example1_steps(A1, B1), PointOracle(D1), [x])
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
        rows = []

        class Counting(SegmentsOracle):
            def project_many(self, pts):
                rows.extend(map(tuple, np.asarray(pts).tolist()))
                return super().project_many(pts)

        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 2000)
        oracle = Counting([(A1, B1)])
        n0 = 7
        rep = decay_bound_check(traj, oracle, n0)
        assert len(rows) == traj.horizon - n0 + 1
        assert rows == traj.means[n0 - 1:]
        # the distance taken from that one projection is oracle.distances'
        assert rep.d_n0 == n0 * n0 * oracle.distances([traj.means[n0 - 1]])[0] ** 2

    def test_premise_and_decay_project_each_mean_once(self):
        rows = []

        class Counting(SegmentsOracle):
            def project_many(self, pts):
                rows.extend(map(tuple, np.asarray(pts).tolist()))
                return super().project_many(pts)

        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 2000)
        oracle = Counting([(A1, B1)])
        rep = decay_bound_check(traj, oracle, premise_start(traj, oracle))
        # premise_start projects every mean with a next step, decay_bound_check the last
        assert rows == traj.means
        # and reads the others from the trajectory, as it would have projected them
        fresh = iterate(example1_phi(A1, B1), (2.5, -1.7), 2000)
        assert rep == decay_bound_check(fresh, SegmentsOracle([(A1, B1)]), rep.n0)

    def test_steps_are_converted_once(self):
        class Reads(Sequence):
            """The recorded steps, counting every item read."""

            def __init__(self, items):
                self.items, self.count = items, 0

            def __len__(self):
                return len(self.items)

            def __getitem__(self, i):
                got = self.items[i]
                self.count += len(got) if isinstance(i, slice) else 1
                return got

        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 2000)
        traj.steps = Reads(traj.steps)
        for oracle in (LineOracle((0, 0), (1, 0)), SegmentsOracle([(A1, B1)])):
            decay_bound_check(traj, oracle, premise_start(traj, oracle))
        assert traj.steps.count == traj.horizon - 1

    def test_n0_validation(self):
        traj = iterate(lambda x: (0.0, 0.0), (1.0, 1.0), 10)
        with pytest.raises(ValueError):
            decay_bound_check(traj, PointOracle((0.0, 0.0)), 0)


class TestWeakAttractor:
    """A weak attractor: every run ends within tol of the set."""

    @staticmethod
    def final_distances(phi, oracle, starts, n):
        return oracle.distances([iterate(phi, x1, n).final for x1 in starts])

    def test_map_into_convex_set(self):
        # steps inside the hull of two points: the hull attracts at rate ~ 1/n
        target = HullOracle([(0.0, 0.0), (1.0, 0.0)])
        phi = lambda x: (0.5, 0.0)
        assert self.final_distances(phi, target, [(5.0, 5.0), (-3.0, 2.0)], 2000).max() <= 0.01

    def test_example1_singleton_attracts(self):
        dists = self.final_distances(example1_phi(A1, B1), PointOracle(D1), [(2.5, -1.7), (-1.0, 2.0)], 50_000)
        assert dists.max() <= 0.05

    def test_disjoint_region_fails_with_positive_distance(self):
        dists = self.final_distances(example1_phi(A1, B1), PointOracle((10.0, 10.0)), [(0.0, 0.0)], 5000)
        assert dists.max() > 1.0


class TestIntersect:
    """Where a segment meets a hull: the segment clipped to within CERT_TOL
    of the hull."""

    def test_example1_line_cap_segment(self):
        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 50_000)
        pieces = clip_segments_to_neighborhood([(A1, B1)], HullOracle([(-3, 0), (3, 0)]), CERT_TOL)
        assert len(pieces) == 1
        for end in pieces[0]:
            assert np.allclose(end, D1, atol=1e-6)
        assert SegmentsOracle(pieces).distances([traj.final])[0] <= 0.05

    def test_equal_regions_reduce_to_single_check(self):
        traj = iterate(example1_phi(A1, B1), (0.5, 0.5), 20_000)
        seg = SegmentsOracle([(A1, B1)])
        pieces = clip_segments_to_neighborhood(seg.segments, HullOracle([A1, B1]), CERT_TOL)
        assert abs(SegmentsOracle(pieces).distances([traj.final])[0] - seg.distances([traj.final])[0]) <= 1e-6

    def test_empty_intersection_raises(self):
        far_a = [((10.0, 0.0), (11.0, 0.0))]
        far_b = HullOracle([(-10.0, 0.0)])
        assert clip_segments_to_neighborhood(far_a, far_b, CERT_TOL) == []
        with pytest.raises(ValueError, match="clipped region empty"):
            refine_attractor(example1_steps(A1, B1), far_a, far_b, [(CERT_TOL, 0.1)],
                             lambda delta: [(0.0, 0.0)], [(0.0, 0.0)], tol=100.0)


def defector_setup(eps=0.4):
    defc = Example2Defector(PARAMS, eps)
    profile = (GoodStrategy(1, eps, PARAMS), GoodStrategy(2, eps, PARAMS), defc)
    union = [(VS.B, defc.d_point), (defc.d_point, VS.c1[2])]
    return defc, induced_map(profile, PARAMS), induced_columns(profile, PARAMS), union


class TestClipAndRefine:
    def test_clip_keeps_inner_segment_whole(self):
        defc, _, _, union = defector_setup()
        bd = HullOracle(union[0])
        clipped = clip_segments_to_neighborhood(union, bd, eps=0.25)
        # BD survives unchanged; the tail segment is shortened
        assert np.allclose(clipped[0][0], VS.B)
        assert np.allclose(clipped[0][1], defc.d_point)
        assert len(clipped) == 2
        far_end = clipped[1][1]
        assert bd.distances([far_end])[0] <= 0.25 + 1e-6

    def test_vacuous_refinement_to_the_union_hull(self):
        # the hull of the union's ends holds the whole union: no clip cuts it
        _, phi, steps, union = defector_setup()
        inner = HullOracle([end for seg in union for end in seg])
        out = refine_attractor(
            steps, union, inner, [(0.5, 0.3)],
            lambda delta: z_near_segments(PARAMS, union, delta),
            [iterate(phi, VS.A, 20_000).final], tol=0.05,
        )
        assert out["passes"]

    def test_example2_refinement_to_bd(self):
        defc, phi, steps, union = defector_setup()
        bd = HullOracle(union[0])
        out = refine_attractor(
            steps, union, bd, [(0.5, 0.3), (0.25, 0.15)],
            lambda delta: z_near_segments(PARAMS, union, delta),
            [iterate(phi, VS.A, 20_000).final], tol=0.05,
        )
        assert out["passes"], out

    @pytest.mark.parametrize("eps", [0.02, 0.1, 0.25, 0.4, 0.49])
    def test_refinement_on_the_slice_grid(self, eps):
        # both scheduled stages certify on the pitch-delta/2 slice grid
        # within delta of the union, for defectors across (0, 1/2)
        defc, _, steps, union = defector_setup(eps)
        out = refine_attractor(
            steps, union, HullOracle(union[0]), [(0.5, 0.3), (0.25, 0.15)],
            lambda delta: z_near_segments(PARAMS, union, delta), [defc.d_point], tol=0.05,
        )
        assert out["passes"], out
        assert [stage["blackwell_holds"] for stage in out["stages"]] == [True, True]

    def test_takes_final_points(self, monkeypatch):
        # the trajectories do not depend on the schedule: the caller runs
        # them once and passes their final means; refinement runs none
        from investgame import dynamics

        _, phi, steps, union = defector_setup()
        finals = [iterate(phi, x1, 2000).final for x1 in (VS.A, VS.B)]

        def refuse(*args):
            raise AssertionError("refine_attractor must not run trajectories")

        monkeypatch.setattr(dynamics, "stages", refuse)  # every `iterate` runs `stages`
        bd = HullOracle(union[0])
        out = refine_attractor(
            steps, union, bd, [(0.5, 0.3), (0.25, 0.15)],
            lambda delta: z_near_segments(PARAMS, union, delta),
            finals, tol=0.05,
        )
        worst = max(bd.distances([x])[0] for x in finals)
        assert [stage["max_final_dist_to_inner"] for stage in out["stages"]] == [worst, worst]

    def test_small_clip_radius_fails_with_witness(self):
        # below ~0.43*eps the clipped set's free end violates the condition
        # for every delta; the checker must report it rather than pass
        defc, phi, steps, union = defector_setup(eps=0.4)
        bd = HullOracle(union[0])
        out = refine_attractor(
            steps, union, bd, [(0.1, 0.3)],
            lambda delta: z_near_segments(PARAMS, union, delta),
            [iterate(phi, VS.A, 5000).final], tol=0.05,
        )
        assert not out["passes"]
        stage = out["stages"][0]
        assert not stage["blackwell_holds"]
        assert stage["witness"] is not None
        assert stage["witness"]["inner"] > 0


class TestClipExact:
    """The closed-form clip against the hull's distance on 4 001 values of t:
    the samples inside the piece are within eps, the others beyond it, and
    an end strictly inside (0, 1) lies at distance eps."""

    TS = np.linspace(0.0, 1.0, 4001)

    def check(self, target, a, b, eps) -> bool:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        u = b - a
        pieces = clip_segments_to_neighborhood([(a, b)], target, eps)
        dist = target.distances(a + self.TS[:, None] * u)
        if not pieces:
            assert dist.min() > eps
            return False
        (lo, hi), = pieces
        t_lo, t_hi = (float((end - a) @ u / (u @ u)) for end in (lo, hi))
        inside = (self.TS >= t_lo) & (self.TS <= t_hi)
        assert np.all(dist[inside] <= eps)
        assert np.all(dist[~inside] > eps)
        for t, end in ((t_lo, lo), (t_hi, hi)):
            if 0.0 < t < 1.0:
                assert abs(target.distances([end])[0] - eps) <= 1e-9
        return True

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("eps", [1e-9, 0.1, 0.5, 2.0])
    def test_random_hulls_and_segments(self, dim, eps):
        rng = np.random.default_rng(100 * dim + int(10 * eps))
        kept = 0
        for size in (1, 2, 3, 4):
            for _ in range(10):
                target = HullOracle(rng.uniform(-1.0, 1.0, (size, dim)))
                kept += self.check(target, *rng.uniform(-2.0, 2.0, (2, dim)), eps)
        assert kept > 0

    @pytest.mark.parametrize("eps", [CERT_TOL, 0.1])
    def test_segment_across_a_triangle_in_its_plane(self, eps):
        # BD lies in the triangle's plane, the slice Z; a segment from B
        # through the triangle's centroid crosses it
        defc, _, _, _ = defector_setup()
        corners = np.array([VS.c1[2], VS.c2[2], defc.d_point])
        b = np.asarray(VS.B)
        assert self.check(HullOracle(corners), b, 2.0 * corners.mean(axis=0) - b, eps)

    def test_segment_square_to_an_edge_beyond_its_end(self):
        # the edge's weights do not move along the segment and one stays
        # negative: the edge's line passes within eps, the edge does not
        edge = HullOracle([(0.0, 0.0), (1.0, 0.0)])
        assert not self.check(edge, (2.0, -2.0), (2.0, 2.0), 0.5)
        assert self.check(edge, (2.0, -2.0), (2.0, 2.0), 1.5)

    def test_zero_length_segment_keeps_its_point(self):
        # the residual does not move: the point is kept whole or dropped,
        # kept on the boundary (distance 0.5 exactly)
        square = HullOracle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        (p, q), = clip_segments_to_neighborhood([((1.5, 0.5), (1.5, 0.5))], square, 0.5)
        assert p.tolist() == q.tolist() == [1.5, 0.5]
        assert clip_segments_to_neighborhood([((1.5, 0.5), (1.5, 0.5))], square, 0.4) == []

    def test_target_must_be_a_hull(self):
        with pytest.raises(TypeError, match="HullOracle"):
            clip_segments_to_neighborhood([((0.0, 0.0), (1.0, 0.0))], SegmentsOracle([((0.0, 0.0), (1.0, 0.0))]), 0.1)


class TestExample2Pipeline:
    def test_blackwell_on_z_for_triangle_and_union(self):
        defc, _, steps, union = defector_setup()
        domain = z_grid(PARAMS, 0.25)
        triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
        assert check_blackwell(steps, triangle, domain).holds
        assert check_blackwell(steps, SegmentsOracle(union), domain).holds

    @staticmethod
    def intersect(defc, finals, b=VS.B, tol=0.1):
        return intersect_at_d(finals, b, defc.d_point, VS.c1[2], VS.c2[2], tol)

    def test_bd_and_triangle_intersect_at_d(self):
        for eps in (0.02, 0.1, 0.25, 0.4, 0.49):
            defc = Example2Defector(PARAMS, eps)
            out = self.intersect(defc, [defc.d_point], tol=0.05)
            assert out["passes"], eps
            assert out["intersection"] == [[list(defc.d_point)] * 2]
            assert out["dist_to_intersection"] == 0.0

    def test_clip_at_cert_tol_ends_at_d(self):
        # the float clip's small-radius path agrees with the exact point
        defc, _, _, union = defector_setup()
        triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
        (lo, hi), = clip_segments_to_neighborhood(union[:1], triangle, CERT_TOL)
        assert np.allclose([lo, hi], [defc.d_point] * 2, rtol=0.0, atol=1e-8)

    def test_chain_into_the_triangle_fails(self):
        # a first segment from D towards the triangle's centroid runs inside
        # it, and one towards another corner runs along its edge
        defc = Example2Defector(PARAMS, 0.4)
        centroid = tuple(np.mean([VS.c1[2], VS.c2[2], defc.d_point], axis=0).tolist())
        for inward in (centroid, VS.c1[2], VS.c2[2]):
            assert inward[0] == inward[1]
            out = self.intersect(defc, [defc.d_point], b=inward)
            assert out["premise_ok"] and out["dist_to_intersection"] == 0.0
            assert not out["passes"], inward

    def test_chains_along_an_edge_away_from_the_triangle_hold(self):
        # B - D = -(C - D) for either other corner C: on the boundary of one
        # half-plane of the cone and strictly outside the other
        defc = Example2Defector(PARAMS, 0.4)
        d = np.asarray(defc.d_point)
        for corner in (VS.c1[2], VS.c2[2]):
            away = tuple((2.0 * d - np.asarray(corner)).tolist())
            assert self.intersect(defc, [defc.d_point], b=away)["passes"]

    def test_point_off_the_slice_raises(self):
        defc = Example2Defector(PARAMS, 0.4)
        with pytest.raises(ValueError, match="slice Z"):
            self.intersect(defc, [defc.d_point], b=(36.0, 28.0, 28.0))

    def test_one_final_far_from_d_fails(self):
        # every final mean is checked: one far from D fails the check, and
        # the distances reported are the worst over all of them
        defc, phi, _, union = defector_setup()
        triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
        near = iterate(phi, VS.A, 20_000).final
        far = VS.B  # the far end of BD, 0.35 from D
        assert self.intersect(defc, [near])["passes"]
        out = self.intersect(defc, [near, far])
        assert not out["passes"]
        assert out["dist_to_intersection"] > 0.3
        assert out["dist_to_b"] == max(triangle.distances([near])[0], triangle.distances([far])[0])


class TestCrossModuleConsistency:
    def test_blackwell_pass_implies_decay_style_attraction(self):
        # the decay constants themselves bound the final distance
        traj = iterate(example1_phi(A1, B1), (2.5, -1.7), 20_000)
        oracle = SegmentsOracle([(A1, B1)])
        rep = decay_bound_check(traj, oracle, 1)
        assert rep.ok
        n = traj.horizon
        tol = math.sqrt(rep.d_n0 + (n - 1) * rep.c_const) / n
        assert oracle.distances([traj.final])[0] <= tol
