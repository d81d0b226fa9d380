"""Geometry of the payoff set S: projections, regions, distances.

S is the convex hull of the eight stage-game payoff vertices.  The
orthogonal projection onto the zero-sum plane P = {x1 + x2 + x3 = 0},
along the diagonal line {x1 = x2 = x3}, structures the analysis.  Six
unit directions v1..v6 in P encode pairwise payoff comparisons; their
support function, in `lyapunov`, cuts the sub-level regions Delta_c.

Each region kind lists its inequalities once; membership follows the
strict-inequality definitions exactly, and the "closure" used by distance
computations relaxes strict inequalities to non-strict ones.  Distances
to payoff regions are grid-approximated (ambient pitch h, error at most
h*sqrt(3)).  The hull faces here are the kernel of the exact convex
projections, which `approachability`'s oracles offer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .stage_game import GameParams, PayoffVector, require_valid, vertices

_S2 = math.sqrt(2.0)

#: Unit directions in the plane P; v[i+3] = -v[i] for i = 0, 1, 2.
V_DIRS: tuple[tuple[float, float, float], ...] = (
    (0.0, -1.0 / _S2, 1.0 / _S2),
    (-1.0 / _S2, 0.0, 1.0 / _S2),
    (-1.0 / _S2, 1.0 / _S2, 0.0),
    (0.0, 1.0 / _S2, -1.0 / _S2),
    (1.0 / _S2, 0.0, -1.0 / _S2),
    (1.0 / _S2, -1.0 / _S2, 0.0),
)

HULL_TOL = 1e-9
#: A face's projection lies on the face while no weight is below -FACE_WEIGHT_TOL.
FACE_WEIGHT_TOL = 1e-12


def project_plane(x) -> PayoffVector:
    """Orthogonal projection onto the plane {x1 + x2 + x3 = 0}."""
    m = (x[0] + x[1] + x[2]) / 3.0
    return (x[0] - m, x[1] - m, x[2] - m)


def dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def dot_rows(a, b) -> np.ndarray:
    """Inner products over the last axis of two broadcastable arrays, summed
    in index order (dot3's operand order) elementwise: unlike `@`, each row
    comes out as the scalar sum would, however many rows there are."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, np.shape(a)[-1]):
        out = out + a[..., k] * b[..., k]
    return out


def norm3(a) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


# Orthonormal basis of the plane P, used for 2-d grids and projections.
_E1 = (1.0 / _S2, -1.0 / _S2, 0.0)
_E2 = (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0))


def to_plane_coords(y) -> tuple[float, float]:
    return (dot3(y, _E1), dot3(y, _E2))


# ---------------------------------------------------------------------------
# Region specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """A labeled region with the parameters its membership predicate needs."""

    kind: str
    player: int = 0
    eps: float = 0.0


def omega_eps_region(i: int, eps: float) -> RegionSpec:
    """{x in S : x_i > x_j - eps for both opponents j} (strict)."""
    return RegionSpec(kind="omega_eps", player=i, eps=eps)


def w_region(i: int) -> RegionSpec:
    """Stop-investing trigger: {x_i < r0 or x_j + x_k > 2 p3} (strict)."""
    return RegionSpec(kind="w", player=i)


def good_region(i: int, eps: float) -> RegionSpec:
    """V_i: where player i's threshold strategy invests."""
    return RegionSpec(kind="v", player=i, eps=eps)


def argmax_region(i: int) -> RegionSpec:
    """{x : x_i is a maximal coordinate}."""
    return RegionSpec(kind="omega_max", player=i)


def argmin_region(i: int) -> RegionSpec:
    """{x : x_i is a minimal coordinate}."""
    return RegionSpec(kind="phi_min", player=i)


def _others(i: int) -> tuple[int, int]:
    if i not in (1, 2, 3):
        raise ValueError(f"player index {i} out of range 1..3")
    return tuple(k for k in (1, 2, 3) if k != i)  # type: ignore[return-value]


def _inequalities(params: GameParams, spec: RegionSpec, cols) -> list[tuple]:
    """The region's inequalities as (lhs, op, rhs) over the coordinate columns.

    Strict ops ("<", ">") relax to non-strict ones in the closure.  "w" is
    the union of its inequalities, every other kind their intersection.
    """
    if spec.kind not in ("omega_eps", "w", "v", "omega_max", "phi_min"):
        raise ValueError(f"unknown region kind {spec.kind!r}")
    i = spec.player
    j, k = _others(i)
    xi, xj, xk = cols[i - 1], cols[j - 1], cols[k - 1]
    if spec.kind == "w":
        return [(xi, "<", params.r0), (xj + xk, ">", 2.0 * params.p3)]
    if spec.kind == "omega_max":
        return [(xi, ">=", xj), (xi, ">=", xk)]
    if spec.kind == "phi_min":
        return [(xi, "<=", xj), (xi, "<=", xk)]
    omega = [(xi, ">", xj - spec.eps), (xi, ">", xk - spec.eps)]
    if spec.kind == "omega_eps":
        return omega
    # "v": Omega_i^eps minus W_i, both W_i inequalities negated
    return omega + [(xi, ">=", params.r0), (xj + xk, "<=", 2.0 * params.p3)]


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_RELAXED = {"<": "<=", ">": ">="}


def inequality_margins(params: GameParams, spec: RegionSpec, x) -> list[tuple[bool, float]]:
    """Each of the region's inequalities at the point x as (holds, lhs - rhs).

    Evaluated in the scalar operand order, as `region_mask` and the good
    strategies' `invests` evaluate them; a NaN coordinate makes the margin
    of every inequality that reads it NaN.
    """
    return [(_OPS[op](lhs, rhs), lhs - rhs) for lhs, op, rhs in _inequalities(params, spec, x)]


def region_mask(params: GameParams, spec: RegionSpec, pts: np.ndarray, closed: bool = False) -> np.ndarray:
    """Membership over an (n, 3) array; closed=True tests the closure.

    Evaluated elementwise, in the operand order of the inequalities, so a
    single row gives the same answer as the scalar arithmetic would.
    """
    pts = np.asarray(pts, dtype=float)
    mask = None
    for lhs, op, rhs in _inequalities(params, spec, (pts[:, 0], pts[:, 1], pts[:, 2])):
        if closed:
            op = _RELAXED.get(op, op)
        held = _OPS[op](lhs, rhs)
        if mask is None:
            mask = held
        elif spec.kind == "w":
            mask |= held
        else:
            mask &= held
    return np.ones(len(pts), dtype=bool) if mask is None else mask


def _check_point(x) -> None:
    if len(x) != 3:
        raise ValueError("payoff regions take points of R^3")


def in_region(params: GameParams, spec: RegionSpec, x) -> bool:
    """Membership predicate, strict inequalities evaluated strictly.

    Raises ValueError unless x is a 3-vector and the kind is known.
    """
    _check_point(x)
    return bool(region_mask(params, spec, np.asarray([x], dtype=float))[0])


def in_closure(params: GameParams, spec: RegionSpec, x) -> bool:
    """Membership in the region's closure (strict inequalities relaxed),
    which includes membership in the closed hull S.
    """
    _check_point(x)
    held = region_mask(params, spec, np.asarray([x], dtype=float), closed=True)[0]
    return bool(held) and in_hull(vertices(params).all_points(), x)


# ---------------------------------------------------------------------------
# Convex hull helpers (tiny fixed point sets; brute-force facet enumeration)
# ---------------------------------------------------------------------------

def hull_halfspaces(points) -> list[tuple[np.ndarray, float]]:
    """Facet inequalities <n, x> <= b of conv(points), d in {2, 3}.

    Brute force over d-subsets; adequate for the at-most-8-point hulls
    used here.  The hull must be full-dimensional in its ambient space.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    if d not in (2, 3):
        raise ValueError("hull_halfspaces supports dimension 2 or 3")
    scale = max(1.0, float(np.abs(pts).max()))
    out: list[tuple[np.ndarray, float]] = []
    seen: set[tuple] = set()
    for idx in combinations(range(len(pts)), d):
        sub = pts[list(idx)]
        if d == 3:
            n = np.cross(sub[1] - sub[0], sub[2] - sub[0])
        else:
            e = sub[1] - sub[0]
            n = np.array([-e[1], e[0]])
        nn = np.linalg.norm(n)
        if nn < 1e-12 * scale:
            continue
        n = n / nn
        b = float(n @ sub[0])
        vals = pts @ n - b
        tol = HULL_TOL * scale
        if np.all(vals <= tol):
            pass
        elif np.all(vals >= -tol):
            n, b = -n, -b
        else:
            continue
        key = tuple(np.round(np.append(n, b), 9))
        if key not in seen:
            seen.add(key)
            out.append((n, b))
    if not out:
        raise ValueError("degenerate point set: no facets found")
    return out


@lru_cache(maxsize=64)
def _halfspaces_cached(points_key: tuple) -> tuple:
    hs = hull_halfspaces(np.array(points_key))
    return tuple((tuple(n), b) for n, b in hs)


def _hs_key(points) -> tuple:
    return tuple(tuple(float(c) for c in p) for p in points)


def hull_mask(points, pts: np.ndarray) -> np.ndarray:
    hs = _halfspaces_cached(_hs_key(points))
    scale = max(1.0, max(abs(c) for p in points for c in p))
    mask = np.ones(len(pts), dtype=bool)
    for n, b in hs:
        mask &= pts @ np.asarray(n) <= b + HULL_TOL * scale
    return mask


def in_hull(points, x) -> bool:
    return bool(hull_mask(points, np.asarray([x], dtype=float))[0])


def hull_point(vertex_set, weights) -> PayoffVector:
    """Convex combination of the eight labeled vertices.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """
    w = [float(t) for t in weights]
    pts = vertex_set.all_points()
    if len(w) != len(pts):
        raise ValueError(f"expected {len(pts)} weights, got {len(w)}")
    if any(t < -1e-12 for t in w) or abs(sum(w) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1 (tolerance 1e-12)")
    out = [0.0, 0.0, 0.0]
    for t, p in zip(w, pts):
        out[0] += t * p[0]
        out[1] += t * p[1]
        out[2] += t * p[2]
    return (out[0], out[1], out[2])


def hull_faces(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Faces of conv(points) for exact projection, stacked for a batched solve.

    Every affinely independent subset is a face, in coordinates relative to
    the points' mean (which keeps the KKT systems well scaled).  Returns that
    origin, the faces' points `subs` (F, s, d) zero-padded to the largest
    size s, and `solve` (F, s, s + 1), the weight rows of each face's inverse
    KKT matrix: the weights are solve applied to (<p_j, x>..., 1), 0 in
    padded slots.  Exhaustive, for small point sets.
    """
    pts = np.asarray(points, dtype=float)
    origin = pts.mean(axis=0)
    rel = pts - origin
    faces = [rel[list(idx)] for k in range(1, min(len(pts), pts.shape[1] + 1) + 1)
             for idx in combinations(range(len(pts)), k) if _affinely_independent(rel[list(idx)])]
    s = max(map(len, faces))
    subs = np.zeros((len(faces), s, pts.shape[1]))
    solve = np.zeros((len(faces), s, s + 1))
    for f, sub in enumerate(faces):
        k = len(sub)
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = sub @ sub.T
        kkt[k, k] = 0.0
        inv = np.linalg.inv(kkt)
        subs[f, :k], solve[f, :k, :k], solve[f, :k, s] = sub, inv[:k, :k], inv[:k, k]
    return origin, subs, solve


def _affinely_independent(sub: np.ndarray) -> bool:
    """The Gram determinant of the edges from sub[0] against its Hadamard
    bound (the product of their squared lengths): 0 for a flat set."""
    edges = sub[1:] - sub[0]
    sq = (edges * edges).sum(axis=1)
    return bool(np.all(sq > 0.0) and np.linalg.det(edges @ edges.T) > 1e-12 * np.prod(sq))


def face_projections(faces, x) -> tuple[np.ndarray, np.ndarray]:
    """Weights (..., F, s) and points (..., F, d) of the projections of x
    (..., d), relative to the faces' origin, onto each face's affine hull."""
    _, subs, solve = faces
    w = dot_rows(solve[..., :-1], dot_rows(subs, x[..., None, None, :])[..., None, :]) + solve[..., -1]
    return w, dot_rows(w[..., None, :], subs.transpose(0, 2, 1))


def nearest_on_faces(faces, pts) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points of a hull to the rows of pts (M, d), given its
    hull_faces, and their distances.

    Every face is solved for a block of rows at once, in elementwise
    arithmetic (see `dot_rows`), so a row's result does not depend on the
    other rows.  Faces whose optimal weights leave the simplex are skipped;
    the closest remaining candidate wins, the first face on an exact tie.
    """
    origin, subs, _ = faces
    x = np.asarray(pts, dtype=float) - origin
    near, dist = np.empty_like(x), np.empty(len(x))
    step = max(1, 2048 // (subs.shape[0] * subs.shape[1]))  # keeps (rows, F, s) temporaries small
    for lo in range(0, len(x), step):
        xb = x[lo:lo + step]
        w, cand = face_projections(faces, xb)  # (rows, F, s), (rows, F, d)
        diff = cand - xb[:, None, :]
        d = np.where(np.all(w >= -FACE_WEIGHT_TOL, axis=-1), np.sqrt(dot_rows(diff, diff)), np.inf)
        best = np.argmin(d, axis=1)
        rows = np.arange(len(best))
        near[lo:lo + step], dist[lo:lo + step] = cand[rows, best], d[rows, best]
    return near + origin, dist


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_points(params: GameParams, n: int, seed: int = 0) -> np.ndarray:
    """n points of S, barycentric weights over the 8 vertices drawn uniformly
    from the simplex."""
    require_valid(params)
    verts = np.asarray(vertices(params).all_points())
    return np.random.default_rng(seed).dirichlet(np.ones(len(verts)), size=n) @ verts


def polygon_2d(corners) -> np.ndarray:
    """A convex polygon's corners as an array, counter-clockwise about their centroid."""
    pts = np.asarray(corners, dtype=float)
    center = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))]


def hexagon_2d(params: GameParams) -> np.ndarray:
    """Vertices (2-d plane coordinates) of the projection of S onto P."""
    verts = vertices(params)
    return polygon_2d([to_plane_coords(project_plane(p)) for p in verts.c1 + verts.c2])


def polygon_grid(poly_2d: np.ndarray, pitch: float) -> np.ndarray:
    """2-d grid of the given convex polygon at the given pitch."""
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    lo = poly_2d.min(axis=0)
    hi = poly_2d.max(axis=0)
    xs = np.arange(lo[0], hi[0] + pitch / 2, pitch)
    ys = np.arange(lo[1], hi[1] + pitch / 2, pitch)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return grid[hull_mask([tuple(p) for p in poly_2d], grid)]


def plane_grid(params: GameParams, pitch: float) -> np.ndarray:
    """Grid of the hexagon (projection of S onto P) as (n, 3) plane points."""
    grid2 = polygon_grid(hexagon_2d(params), pitch)
    e1 = np.asarray(_E1)
    e2 = np.asarray(_E2)
    return grid2[:, :1] * e1 + grid2[:, 1:2] * e2


# ---------------------------------------------------------------------------
# Distances to regions
# ---------------------------------------------------------------------------

def grid_slack(h: float) -> float:
    """Worst-case extra distance reported by a pitch-h grid approximation."""
    return h * math.sqrt(3.0)


class _RegionSlabs:
    """The pitch-h points of S's bounding-box grid in a region's closure, one
    x1-slab per grid value of x1, each built on first use.  The (x2, x3)
    cross-section is built at once, so a pitch too fine to allocate fails
    before any slab is built; memory follows the slabs used, not the
    bounding box (pitch**-3 points)."""

    def __init__(self, params: GameParams, spec: RegionSpec, h: float):
        self.params, self.spec = params, spec
        self.verts = vertices(params).all_points()
        lo, hi = np.min(self.verts, axis=0), np.max(self.verts, axis=0)
        axes = [np.arange(lo[d], hi[d] + h / 2, h) for d in range(3)]
        self.x1s = axes[0]
        self.rest = np.stack(np.meshgrid(axes[1], axes[2], indexing="ij"), axis=-1).reshape(-1, 2)
        self.slabs: list[np.ndarray | None] = [None] * len(self.x1s)

    def slab(self, i: int) -> np.ndarray:
        """The grid points with x1 = x1s[i], in meshgrid ("ij") order."""
        if self.slabs[i] is None:
            self.slabs[i] = self._build(self.x1s[i])
        return self.slabs[i]

    def _build(self, x1) -> np.ndarray:
        slab = np.column_stack([np.full(len(self.rest), x1), self.rest])
        slab = slab[hull_mask(self.verts, slab)]
        return slab[region_mask(self.params, self.spec, slab, closed=True)]


@lru_cache(maxsize=32)
def _region_slabs(params: GameParams, spec: RegionSpec, h: float) -> _RegionSlabs:
    return _RegionSlabs(params, spec, h)


def dist_to_region(params: GameParams, spec: RegionSpec, x, h: float) -> float:
    """Distance from x to a payoff region's closure: 0 for points in the
    closure, otherwise the minimum over a pitch-h ambient grid intersected
    with it, an overestimate by at most grid_slack(h).

    The grid's x1-slabs are visited by their gap d = |g1 - x1| to x, nearest
    first, up to the first with d above the best norm so far: each norm of
    that slab and the ones beyond is at least d, since a rounded sum of
    nonnegative squares is at least each of them and sqrt(fl(d*d)) == d.
    So the result is the whole grid's minimum, bit for bit.
    """
    if h <= 0:
        raise ValueError("resolution h must be positive")
    if in_closure(params, spec, x):
        return 0.0
    point = np.asarray(x, float)
    if not np.all(np.isfinite(point)):
        raise ValueError(f"distance from a non-finite point {tuple(x)}")
    store = _region_slabs(params, spec, float(h))
    gaps = np.abs(store.x1s - point[0])
    best = math.inf
    for i in np.argsort(gaps, kind="stable"):
        if gaps[i] > best:
            break
        pts = store.slab(i)
        if len(pts):
            best = min(best, float(np.linalg.norm(pts - point, axis=1).min()))
    if best == math.inf:
        raise ValueError(f"empty sampled region for {spec} at resolution {h}")
    return best
