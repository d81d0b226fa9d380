import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from investgame import geometry, harness
from investgame.approachability import HullOracle
from investgame.geometry import (
    V_DIRS,
    RegionSpec,
    dist_to_region,
    dot3,
    grid_slack,
    hull_faces,
    hull_halfspaces,
    hull_mask,
    hull_point,
    in_closure,
    project_plane,
    region_mask,
    sample_points,
    scaled_ints,
)
from investgame.lyapunov import _support, six_direction_spec
from investgame.stage_game import GameParams, example_game, vertices
from investgame.strategies import Example2Defector, GoodStrategy

PARAMS = example_game()
VS = vertices(PARAMS)


class TestProjections:
    def test_plane_examples(self):
        assert project_plane((1, 2, 3)) == (-1, 0, 1)
        for c in (0.0, 7.5, -3.25):
            assert project_plane((c, c, c)) == (0, 0, 0)
        assert project_plane((36, 18, 18)) == (12, -6, -6)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-50, 50, size=(200, 3)):
            u = (x[0] + x[1] + x[2]) / 3.0  # the projection onto the diagonal
            p = project_plane(x)
            for k in range(3):
                assert abs(u + p[k] - x[k]) <= 1e-12 * max(1.0, abs(x[k]))

    def test_plane_projection_idempotent_and_orthogonal(self):
        y = project_plane((3.7, -9.1, 4.4))
        again = project_plane(y)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(y, again))
        assert abs(sum(y)) <= 1e-12


class TestDirections:
    def test_unit_norms_and_antipodes(self):
        assert len(V_DIRS) == 6
        for v in V_DIRS:
            assert abs(dot3(v, v) - 1.0) <= 1e-12
        for i in range(3):
            assert all(V_DIRS[i + 3][k] == -V_DIRS[i][k] for k in range(3))


def _boundary_points() -> np.ndarray:
    """Points of S moved onto x_i = x_j - eps (eps = 0.1, 0.4), x_i = r0,
    x_j + x_k = 2 p3 and x_i = x_j, from raw and dyadic-rounded bases."""
    base = sample_points(PARAMS, 40, seed=7)
    base = np.vstack([base, np.round(base * 64.0) / 64.0])
    out = []
    for x in base:
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            for y_i in (x[j] - 0.1, x[j] - 0.4, PARAMS.r0, x[j]):
                y = x.copy()
                y[i] = y_i
                out.append(y)
            y = x.copy()
            y[k] = 2.0 * PARAMS.p3 - y[j]
            out.append(y)
    return np.asarray(out)


def _reference(spec, x, closed: bool) -> bool:
    """The regions' defining inequalities, written out on scalars."""
    i = spec.player
    j, k = [m for m in (1, 2, 3) if m != i]
    xi, xj, xk = x[i - 1], x[j - 1], x[k - 1]
    e, r0, cap = spec.eps, PARAMS.r0, 2.0 * PARAMS.p3
    if closed:
        return {
            "omega_eps": xi >= xj - e and xi >= xk - e,
            "w": xi <= r0 or xj + xk >= cap,
            "v": xi >= xj - e and xi >= xk - e and xi >= r0 and xj + xk <= cap,
            "omega_max": xi >= xj and xi >= xk,
            "phi_min": xi <= xj and xi <= xk,
        }[spec.kind]
    return {
        "omega_eps": xi > xj - e and xi > xk - e,
        "w": xi < r0 or xj + xk > cap,
        "v": xi > xj - e and xi > xk - e and not (xi < r0 or xj + xk > cap),
        "omega_max": xi >= xj and xi >= xk,
        "phi_min": xi <= xj and xi <= xk,
    }[spec.kind]


class TestMembership:
    def test_good_region_contains_a(self):
        # 20 > 19.6 on both comparisons; neither trigger fires at A
        assert region_mask(PARAMS, RegionSpec("v", 1, 0.4), [(20.0, 20.0, 20.0)])[0]

    def test_good_region_excludes_low_own_payoff(self):
        assert not region_mask(PARAMS, RegionSpec("v", 1, 0.4), [(19.0, 26.0, 26.0)])[0]

    def test_boundary_own_payoff_still_invests(self):
        # x1 exactly r0: the strict exploitation trigger does not fire
        assert region_mask(PARAMS, RegionSpec("v", 1, 0.4), [(20.0, 20.3, 20.1)])[0]

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            in_closure(PARAMS, RegionSpec("v", 1, 0.4), (1.0, 2.0))

    def test_unknown_kind_raises(self):
        pts = sample_points(PARAMS, 4, seed=1)
        with pytest.raises(ValueError, match="unknown region kind"):
            region_mask(PARAMS, RegionSpec("bogus"), pts)
        with pytest.raises(ValueError, match="unknown region kind"):
            in_closure(PARAMS, RegionSpec("bogus"), tuple(pts[0]))

    def test_scalar_matches_vectorized(self):
        pts = sample_points(PARAMS, 1500, seed=3)
        specs = [
            RegionSpec("v", 2, 0.4), RegionSpec("w", 3), RegionSpec("omega_max", 1),
            RegionSpec("phi_min", 2), RegionSpec("omega_eps", 3, 0.1),
        ]
        for spec in specs:
            vec = region_mask(PARAMS, spec, pts)
            scal = np.array([region_mask(PARAMS, spec, [x])[0] for x in pts])
            assert np.array_equal(vec, scal)

        # Points placed exactly on each inequality's boundary, where strict
        # and non-strict tests part ways; every kind, open and closed, must
        # agree with the reference predicates and with the good strategies.
        pts = _boundary_points()
        in_s = hull_mask(VS.all_points(), pts)
        specs = []
        for i in (1, 2, 3):
            specs += [RegionSpec("v", i, 0.4), RegionSpec("omega_eps", i, 0.1), RegionSpec("w", i),
                      RegionSpec("omega_max", i), RegionSpec("phi_min", i)]
        for spec in specs:
            vec = region_mask(PARAMS, spec, pts)
            vec_closed = region_mask(PARAMS, spec, pts, closed=True)
            assert np.array_equal(vec, [region_mask(PARAMS, spec, [x])[0] for x in pts])
            assert np.array_equal(vec, [_reference(spec, x, closed=False) for x in pts])
            assert np.array_equal(vec_closed, [_reference(spec, x, closed=True) for x in pts])
            assert np.array_equal(vec_closed & in_s, [in_closure(PARAMS, spec, tuple(x)) for x in pts])
            if spec.kind == "v":
                good = GoodStrategy(spec.player, spec.eps, PARAMS)
                assert np.array_equal(vec, [good.invests(tuple(x)) for x in pts])


class TestRegionAlgebra:
    """The set-algebra facts behind the good strategies, on dense samples."""

    N = 20_000

    def setup_method(self):
        self.pts = sample_points(PARAMS, self.N, seed=123)
        eps = 0.4
        self.v = [region_mask(PARAMS, RegionSpec("v", i, eps), self.pts) for i in (1, 2, 3)]
        self.om = [region_mask(PARAMS, RegionSpec("omega_max", i), self.pts) for i in (1, 2, 3)]
        self.ph = [region_mask(PARAMS, RegionSpec("phi_min", i), self.pts) for i in (1, 2, 3)]
        self.w = [region_mask(PARAMS, RegionSpec("w", i), self.pts) for i in (1, 2, 3)]

    def test_argmax_and_trigger_are_disjoint(self):
        for i in range(3):
            assert not np.any(self.om[i] & self.w[i])

    def test_sole_investor_is_argmax(self):
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            sole = self.v[i] & ~self.v[j] & ~self.v[k]
            assert np.all(self.om[i][sole])

    def test_pairwise_inclusion(self):
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                lhs = self.v[i] & ~self.v[j]
                assert np.all((self.om[i] | self.ph[j])[lhs])

    def test_sole_refuser_is_argmin(self):
        for i in range(3):
            j, k = [m for m in range(3) if m != i]
            refuse = ~self.v[i] & self.v[j] & self.v[k]
            assert np.all(self.ph[i][refuse])

    def test_plane_equivalence(self):
        # the three pairwise-threshold regions match the sub-level region
        # Delta_c of the six plane directions' support function at
        # c = eps / sqrt(2)
        for eps in (0.1, 0.4):
            c = eps / math.sqrt(2.0)
            om = np.ones(self.N, dtype=bool)
            for i in (1, 2, 3):
                om &= region_mask(PARAMS, RegionSpec("omega_eps", i, eps), self.pts)
            proj = self.pts - self.pts.mean(axis=1, keepdims=True)
            dl = _support(six_direction_spec(c), proj.T) < c
            assert np.array_equal(om, dl)


class TestHullPoint:
    def test_unit_weight_picks_vertex(self):
        w = [0.0] * 8
        w[1] = 1.0  # B is the second labeled vertex
        assert hull_point(VS, w) == (26, 26, 26)

    def test_midpoint(self):
        w = [0.5, 0.5] + [0.0] * 6
        assert hull_point(VS, w) == (23, 23, 23)

    def test_equal_weights_respect_sum_bounds(self):
        x = hull_point(VS, [0.125] * 8)
        assert 3 * PARAMS.r0 - 1e-9 <= sum(x) <= 3 * PARAMS.p3 + 1e-9

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            hull_point(VS, [0.5] * 8)
        with pytest.raises(ValueError):
            hull_point(VS, [1.5, -0.5] + [0.0] * 6)


class TestProjectToHull:
    """The exact projection onto conv(points), `HullOracle` over `hull_faces`."""

    def test_variational_optimality(self):
        # p is the projection iff <x - p, v - p> <= 0 for every hull vertex v
        pts = np.asarray(VS.all_points())
        rng = np.random.default_rng(17)
        xs = rng.uniform(0, 50, size=(40, 3))
        proj = HullOracle(pts).project_many(xs)
        for x, p, d in zip(xs, proj.points[:, 0], proj.dist[:, 0]):
            assert d >= -1e-12
            for v in pts:
                assert float((x - p) @ (v - p)) <= 1e-8

    def test_interior_point_has_zero_distance(self):
        centroid = np.asarray(VS.all_points()).mean(axis=0)
        assert HullOracle(VS.all_points()).distances([centroid])[0] <= 1e-9


def _det(m) -> Fraction:
    """Laplace expansion along the first row, in exact rationals."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _exact_kkt(rel, idx) -> list[list[Fraction]]:
    """A subset's KKT matrix [[G, 1], [1, 0]] from the exact mean-relative
    coordinates: G is the subset's Gram matrix."""
    pts = [[Fraction(c) for c in rel[i]] for i in idx]
    gram = [[sum(a * b for a, b in zip(p, q)) for q in pts] + [Fraction(1)] for p in pts]
    return gram + [[Fraction(1)] * len(idx) + [Fraction(0)]]


def _hull_sets():
    sets = {"S": VS.all_points(), "hexagon": [tuple(p) for p in geometry.hexagon_2d(PARAMS)]}
    for eps in (0.4, 0.1):
        d = Example2Defector(PARAMS, eps).d_point
        sets[f"triangle-eps{eps}"] = [VS.c1[2], VS.c2[2], d]
        sets[f"BD-eps{eps}"] = [VS.B, d]
    return sets


class TestExactHull:
    """`hull_faces` and `hull_halfspaces` against exact rational references
    built here by other means (cofactors, not Gauss-Jordan)."""

    def test_scaled_ints(self):
        assert scaled_ints([0.5, 3.0, -0.125, 0.0]) == ([4, 24, -1, 0], 8)
        assert scaled_ints([]) == ([], 1)
        ints, den = scaled_ints([0.1, 26.0])
        assert [Fraction(v, den) for v in ints] == [Fraction(0.1), Fraction(26)]

    @pytest.mark.parametrize("name", list(_hull_sets()))
    def test_faces_are_the_invertible_subsets_and_solve_is_rounded_exact(self, name):
        pts = np.asarray(_hull_sets()[name], dtype=float)
        origin, subs, solve = hull_faces(pts)
        rel = (pts - pts.mean(axis=0)).tolist()
        assert np.array_equal(origin, pts.mean(axis=0))
        faces = [(idx, kkt) for k in range(1, min(len(pts), pts.shape[1] + 1) + 1)
                 for idx in combinations(range(len(pts)), k)
                 if _det(kkt := _exact_kkt(rel, idx)) != 0]
        assert len(faces) == len(subs) == len(solve)
        s = subs.shape[1]
        for f, (idx, kkt) in enumerate(faces):
            k, det = len(idx), _det(kkt)
            assert np.array_equal(subs[f, :k], np.asarray(rel)[list(idx)])
            assert not subs[f, k:].any() and not solve[f, k:].any() and not solve[f, :, k:s].any()
            for r in range(k):
                # inverse entry (r, c) is the (c, r) cofactor over the determinant
                for c, col in [(c, c) for c in range(k)] + [(k, s)]:
                    minor = [row[:r] + row[r + 1:] for i, row in enumerate(kkt) if i != c]
                    assert solve[f, r, col] == float((-1) ** (r + c) * _det(minor) / det)

    def test_face_counts(self):
        counts = {name: len(hull_faces(pts)[1]) for name, pts in _hull_sets().items()}
        assert counts == {"S": 150, "hexagon": 41, "triangle-eps0.4": 7, "BD-eps0.4": 3,
                          "triangle-eps0.1": 7, "BD-eps0.1": 3}

    @staticmethod
    def _groups(pts) -> set[frozenset]:
        """The point sets of conv(pts)'s facets, from exact planes through
        every d points with all points on one side and some off it."""
        exact = [[Fraction(c) for c in p] for p in pts]
        d, groups = len(exact[0]), set()
        for sub in combinations(exact, d):
            e = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
            n = ([e[0][1] * e[1][2] - e[0][2] * e[1][1], e[0][2] * e[1][0] - e[0][0] * e[1][2],
                  e[0][0] * e[1][1] - e[0][1] * e[1][0]] if d == 3 else [-e[0][1], e[0][0]])
            side = [sum(a * (c - c0) for a, c, c0 in zip(n, p, sub[0])) for p in exact]
            if (max(side) <= 0 or min(side) >= 0) and any(side):
                groups.add(frozenset(i for i, v in enumerate(side) if v == 0))
        return groups

    @pytest.mark.parametrize("pts,count", [
        (VS.all_points(), 6),
        ([tuple(p) for p in geometry.hexagon_2d(PARAMS)], 6),
        ([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (1.0, 0.0)], 4),  # a midpoint on one edge
        ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0),
          (0.5, 0.5, 0.0)], 5),  # a square pyramid, with the base's centre as a sixth point
    ], ids=["S", "hexagon", "square-with-midpoint", "pyramid"])
    def test_one_facet_per_coplanar_group(self, pts, count):
        facets = hull_halfspaces(pts)
        groups = self._groups(pts)
        assert len(facets) == len(groups) == count
        arr = np.asarray(pts, dtype=float)
        scale = max(1.0, float(np.abs(arr).max()))
        on = set()
        for n, b in facets:
            assert abs(math.hypot(*n) - 1.0) <= 1e-15
            vals = arr @ n - b
            assert np.all(vals <= 1e-12 * scale)
            on.add(frozenset(np.flatnonzero(np.abs(vals) <= 1e-12 * scale).tolist()))
        assert on == groups

    @pytest.mark.parametrize("pts", [
        [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)],
        [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)],
        [(1.0, 2.0, 3.0)] * 4,
    ], ids=["collinear-2d", "coplanar-3d", "one-point"])
    def test_flat_set_raises(self, pts):
        with pytest.raises(ValueError, match="degenerate point set"):
            hull_halfspaces(pts)

    def test_equal_points_reuse_the_build(self):
        pts = [VS.c1[2], VS.c2[2], Example2Defector(PARAMS, 0.25).d_point]
        first = HullOracle(pts)
        hull_mask(VS.all_points(), np.zeros((1, 3)))
        built = geometry._built.cache_info().misses
        second = HullOracle(np.array(pts))
        assert all(a is b for a, b in zip(first._faces, second._faces))
        hull_mask([list(p) for p in VS.all_points()], np.zeros((1, 3)))
        assert in_closure(PARAMS, RegionSpec("omega_max", 1), VS.B)
        assert geometry._built.cache_info().misses == built
        for arr in (*first._faces, hull_halfspaces(VS.all_points())[0][0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def _uncached_grid(poly_2d, pitch) -> np.ndarray:
    """`polygon_grid` built afresh, without the shared cache."""
    lo, hi = poly_2d.min(axis=0), poly_2d.max(axis=0)
    xs = np.arange(lo[0], hi[0] + pitch / 2, pitch)
    ys = np.arange(lo[1], hi[1] + pitch / 2, pitch)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return grid[hull_mask([tuple(p) for p in poly_2d], grid)]


def _bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype, a.tobytes()


#: The certificates' polygons: the hexagon, example 1's box and the slice Z in (x1, x3).
GRID_POLYGONS = {
    "hexagon": geometry.hexagon_2d(PARAMS),
    "box": geometry.polygon_2d([(sx * harness.EXAMPLE1_BOX, sy * harness.EXAMPLE1_BOX)
                                for sx in (-1, 1) for sy in (-1, 1)]),
    "z": geometry.polygon_2d([(p[0], p[2]) for p in (VS.A, VS.B, VS.c1[2], VS.c2[2])]),
}
GRID_PITCHES = (0.5, 0.25, 0.13, 0.1)


class TestPolygonGridCache:
    def test_equal_polygon_and_pitch_share_one_read_only_grid(self):
        box = GRID_POLYGONS["box"]
        grid = geometry.polygon_grid(box, 0.25)
        assert geometry.polygon_grid(np.array(box.tolist()), np.float64(0.25)) is grid
        assert geometry.polygon_grid(box, 1) is geometry.polygon_grid(box, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0] = 0.0

    def test_other_pitch_or_polygon_builds_another_grid(self):
        grid = geometry.polygon_grid(GRID_POLYGONS["hexagon"], 0.25)
        assert geometry.polygon_grid(GRID_POLYGONS["hexagon"], 0.5) is not grid
        assert geometry.polygon_grid(GRID_POLYGONS["hexagon"] * 2.0, 0.25) is not grid

    @pytest.mark.parametrize("pitch", GRID_PITCHES)
    @pytest.mark.parametrize("name", sorted(GRID_POLYGONS))
    def test_grid_is_the_uncached_build(self, name, pitch):
        poly = GRID_POLYGONS[name]
        assert _bits(geometry.polygon_grid(poly, pitch)) == _bits(_uncached_grid(poly, pitch))

    @pytest.mark.parametrize("pitch", GRID_PITCHES)
    def test_plane_and_slice_grids_are_unchanged(self, pitch):
        hexagon = _uncached_grid(GRID_POLYGONS["hexagon"], pitch)
        plane = hexagon[:, :1] * np.asarray(geometry._E1) + hexagon[:, 1:2] * np.asarray(geometry._E2)
        assert _bits(geometry.plane_grid(PARAMS, pitch)) == _bits(plane)
        assert _bits(harness.z_grid(PARAMS, pitch)) == _bits(_uncached_grid(GRID_POLYGONS["z"], pitch)[:, [0, 0, 1]])

    def test_grid_too_fine_to_allocate_is_not_kept(self):
        misses = geometry._built.cache_info().misses
        with pytest.raises(MemoryError):
            geometry.polygon_grid(GRID_POLYGONS["box"], 1e-6)
        with pytest.raises(MemoryError):
            geometry.polygon_grid(GRID_POLYGONS["box"], 1e-6)
        assert geometry._built.cache_info().misses == misses + 2


class TestDistances:
    def test_member_reports_zero(self):
        # B satisfies the closed V1 predicate: 26 > 25.6, 26 >= 20, 52 <= 52
        assert dist_to_region(PARAMS, RegionSpec("v", 1, 0.4), VS.B, 0.25) == 0.0

    def test_argmax_distance_cross_check(self):
        x = (18.0, 36.0, 18.0)
        d = dist_to_region(PARAMS, RegionSpec("omega_max", 1), x, 0.25)
        # oracle: dense barycentric sampling of the closed region
        cand = sample_points(PARAMS, 400_000, seed=9)
        keep = cand[region_mask(PARAMS, RegionSpec("omega_max", 1), cand)]
        oracle = float(np.linalg.norm(keep - np.asarray(x), axis=1).min())
        assert d <= oracle + 1e-9  # grid found a closer admissible point
        assert abs(d - oracle) <= grid_slack(0.25) + 0.05

    def test_exact_hull_distance(self):
        # distance from C1_1 to the segment AB, the hull of its ends
        x = np.asarray(VS.c1[0])
        a, b = np.asarray(VS.A), np.asarray(VS.B)
        t = np.clip(((x - a) @ (b - a)) / ((b - a) @ (b - a)), 0, 1)
        expected = float(np.linalg.norm(a + t * (b - a) - x))
        assert abs(HullOracle([VS.A, VS.B]).distances([x])[0] - expected) <= 1e-9

    def test_empty_sampled_region_raises(self):
        with pytest.raises(ValueError, match="empty sampled region"):
            dist_to_region(PARAMS, RegionSpec("omega_max", 1), (0.0, 0.0, 0.0), 50.0)

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            dist_to_region(PARAMS, RegionSpec("omega_max", 1), VS.A, 0.0)

    @pytest.mark.parametrize("spec", [RegionSpec("v", 1, 0.4), RegionSpec("omega_max", 2),
                                      RegionSpec("w", 3)],
                             ids=["v1", "argmax2", "w3"])
    def test_slab_grid_equals_bounding_box_grid(self, spec):
        # the whole bounding-box meshgrid, masked by S and then the region
        want = _closure_grid(PARAMS, spec, 0.5)
        store = geometry._region_slabs(PARAMS, spec, 0.5)
        got = np.concatenate([store.slab(i) for i in range(len(store.x1s))])
        assert len(got) > 0
        assert np.array_equal(got, want)

    def test_non_finite_point_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            dist_to_region(PARAMS, RegionSpec("v", 1, 0.4), (math.nan, 20.0, 20.0), 0.25)


#: test_cross_game's admissible game, with payoffs unlike the canonical ones.
OTHER = GameParams(r0=5.0, r1=8.0, r2=12.0, p1=3.0, p2=7.0, p3=11.0)


@lru_cache(maxsize=None)
def _closure_grid(params, spec, h):
    """S's whole bounding-box meshgrid at pitch h, masked by S and then by
    the region's closure: the grid the slabs of dist_to_region cut up."""
    pts = vertices(params).all_points()
    arr = np.asarray(pts)
    axes = [np.arange(lo, hi + h / 2, h) for lo, hi in zip(arr.min(axis=0), arr.max(axis=0))]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[hull_mask(pts, grid)]
    return grid[region_mask(params, spec, grid, closed=True)]


@pytest.fixture(scope="module")
def t2_finals():
    """The final means of the README t2 battery at n = 2e3, as `verify_t2`
    hands them to dist_to_region."""
    seen = []

    def recording(params, spec, x, h):
        seen.append(x)
        return dist_to_region(params, spec, x, h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "dist_to_region", recording)
        harness.verify_t2(harness.HarnessConfig(params=PARAMS, n=2000))
    return seen


class TestGridDistanceIsTheWholeGridMinimum:
    """The slab search returns the minimum over the whole grid, bit for bit."""

    @pytest.mark.parametrize("params,eps", [(PARAMS, 0.4), (PARAMS, 0.1), (OTHER, 0.3)],
                             ids=["eps0.4", "eps0.1", "other-game"])
    @pytest.mark.parametrize("h", [0.25, 0.5])
    def test_equals_brute_force(self, params, eps, h, t2_finals):
        spec = RegionSpec("v", 1, eps)
        grid = _closure_grid(params, spec, h)
        queries = [tuple(x) for x in sample_points(params, 300, seed=41)] + list(vertices(params).all_points())
        if params == PARAMS:
            assert len(t2_finals) == 135
            queries += t2_finals
        inside = outside = 0
        for x in queries:
            got = dist_to_region(params, spec, x, h)
            if in_closure(params, spec, x):
                assert got == 0.0
                inside += 1
            else:
                assert got == float(np.linalg.norm(grid - np.asarray(x), axis=1).min())
                outside += 1
        assert inside > 0 and outside > 0


def test_all_vertices_lie_in_s():
    pts = VS.all_points()
    assert bool(np.all(hull_mask(pts, np.asarray(pts))))


def test_closure_refines_membership():
    pts = sample_points(PARAMS, 5000, seed=31)
    spec = RegionSpec("v", 2, 0.4)
    for x in pts[:500][region_mask(PARAMS, spec, pts[:500])]:
        assert in_closure(PARAMS, spec, tuple(x))
