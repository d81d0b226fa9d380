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
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .stage_game import GameParams, PayoffVector, vertices

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
#: Float64 elements that the widest temporary of one array pass may hold.
#: Every batched pass (the face solve here, `approachability`'s proximal
#: inner products, `lyapunov`'s grid certificates) takes as many rows as fit
#: its row width, at least one.  Passes read it when they run, so a test can
#: shrink it; a row's result never depends on the pass it falls in.
PASS_ELEMENTS = 1 << 16
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
        out += a[..., k] * b[..., k]
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
    """A labeled payoff region, for `player` i with opponents j and k:

    - "omega_eps": {x in S : x_i > x_j - eps and x_i > x_k - eps} (strict);
    - "w": the stop-investing trigger {x_i < r0 or x_j + x_k > 2 p3} (strict);
    - "v": V_i = "omega_eps" minus "w", where player i's threshold strategy invests;
    - "omega_max": {x : x_i is a maximal coordinate};
    - "phi_min": {x : x_i is a minimal coordinate}.
    """

    kind: str
    player: int = 0
    eps: float = 0.0


def _others(i: int) -> tuple[int, int]:
    if i not in (1, 2, 3):
        raise ValueError(f"player index {i} out of range 1..3")
    return tuple(k for k in (1, 2, 3) if k != i)  # type: ignore[return-value]


def _inequalities(params: GameParams, spec: RegionSpec, cols) -> list[tuple]:
    """The region's inequalities as (lhs, op, rhs) over the coordinate columns.

    Strict ops ("<", ">") relax to non-strict ones in the closure.  "w" is
    the union of its inequalities, every other kind their intersection.
    Only params.r0, params.p3 and spec.eps are read: on int columns with
    int constants (or Fractions) every side is exact.
    """
    if spec.kind not in ("omega_eps", "w", "v", "omega_max", "phi_min"):
        raise ValueError(f"unknown region kind {spec.kind!r}")
    i = spec.player
    j, k = _others(i)
    xi, xj, xk = cols[i - 1], cols[j - 1], cols[k - 1]
    if spec.kind == "w":
        return [(xi, "<", params.r0), (xj + xk, ">", 2 * params.p3)]
    if spec.kind == "omega_max":
        return [(xi, ">=", xj), (xi, ">=", xk)]
    if spec.kind == "phi_min":
        return [(xi, "<=", xj), (xi, "<=", xk)]
    omega = [(xi, ">", xj - spec.eps), (xi, ">", xk - spec.eps)]
    if spec.kind == "omega_eps":
        return omega
    # "v": Omega_i^eps minus W_i, both W_i inequalities negated
    return omega + [(xi, ">=", params.r0), (xj + xk, "<=", 2 * params.p3)]


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_RELAXED = {"<": "<=", ">": ">="}


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


def in_closure(params: GameParams, spec: RegionSpec, x) -> bool:
    """Membership in the region's closure (strict inequalities relaxed),
    which includes membership in the closed hull S.
    """
    if len(x) != 3:
        raise ValueError("payoff regions take points of R^3")
    held = region_mask(params, spec, np.asarray([x], dtype=float), closed=True)[0]
    return bool(held) and in_hull(vertices(params).all_points(), x)


# ---------------------------------------------------------------------------
# Convex hull helpers (tiny fixed point sets; brute-force facet enumeration)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _built(build, points: tuple, *args) -> tuple:
    """build's arrays for one point set (a tuple of float tuples) and its
    further arguments, built once and shared read-only."""
    out = build(np.array(points, dtype=float), *args)
    for a in out:
        a.flags.writeable = False
    return out


def _points_key(points) -> tuple:
    return tuple(tuple(float(c) for c in p) for p in points)


def hull_halfspaces(points) -> list[tuple[np.ndarray, float]]:
    """Facet inequalities <n, x> <= b of conv(points), d in {2, 3}.

    Brute force over d-subsets in integers: every float is k / 2**e, so the
    points times their common power-of-two denominator are Python ints, and
    each candidate's normal and side test are exact.  A facet is kept once,
    keyed by the points on it, and its unit normal and offset are rounded
    from the exact ones.  The hull must be full-dimensional.
    """
    return list(zip(*_built(_facets, _points_key(points))))


def scaled_ints(values) -> tuple[list[int], int]:
    """The floats `values` times their common power-of-two denominator den,
    as ints, and den: every float is k / 2**e, so each product is exact."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max([q for _, q in ratios], default=1)
    return [k * (den // q) for k, q in ratios], den


def _facets(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = pts.shape[1]
    if d not in (2, 3):
        raise ValueError("hull_halfspaces supports dimension 2 or 3")
    flat, den = scaled_ints(pts.ravel().tolist())
    ints = [flat[r:r + d] for r in range(0, len(flat), d)]
    normals, offsets, seen = [], [], set()
    for sub in combinations(ints, d):
        e = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        if d == 3:
            (a1, a2, a3), (b1, b2, b3) = e
            n = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
        else:
            n = [-e[0][1], e[0][0]]
        side = [sum(a * (c - c0) for a, c, c0 in zip(n, p, sub[0])) for p in ints]
        if max(side) > 0 == min(side):
            n = [-c for c in n]
        elif not min(side) < 0 == max(side):
            continue  # points on both sides, or a flat set with every point on it
        on = frozenset(i for i, v in enumerate(side) if v == 0)
        if on not in seen:
            seen.add(on)
            norm = math.hypot(*n)
            normals.append([c / norm for c in n])
            offsets.append(sum(a * c for a, c in zip(n, sub[0])) / den / norm)
    if not normals:
        raise ValueError("degenerate point set: no facets found")
    return np.array(normals), np.array(offsets)


def hull_mask(points, pts: np.ndarray) -> np.ndarray:
    hs = hull_halfspaces(points)
    scale = max(1.0, max(abs(c) for p in points for c in p))
    mask = np.ones(len(pts), dtype=bool)
    for n, b in hs:
        mask &= pts @ n <= b + HULL_TOL * scale
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
    padded slots.  The KKT matrices are inverted in exact rationals, so a
    subset is a face exactly when its matrix is invertible, and every solve
    entry is its exact value correctly rounded.  Exhaustive, for small point
    sets; built once per point set, shared read-only.
    """
    return _built(_faces, _points_key(points))


def _faces(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    origin = pts.mean(axis=0)
    rel = pts - origin
    exact = [[Fraction(c) for c in p] for p in rel.tolist()]
    gram = [[sum(a * b for a, b in zip(p, q)) for q in exact] for p in exact]
    faces = []
    for k in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        for idx in combinations(range(len(pts)), k):
            inv = _inverse([[gram[i][j] for j in idx] + [1] for i in idx] + [[1] * k + [0]])
            if inv is not None:
                faces.append((rel[list(idx)], np.array(inv, dtype=float)))
    s = max(len(sub) for sub, _ in faces)
    subs = np.zeros((len(faces), s, pts.shape[1]))
    solve = np.zeros((len(faces), s, s + 1))
    for f, (sub, inv) in enumerate(faces):
        k = len(sub)
        subs[f, :k], solve[f, :k, :k], solve[f, :k, s] = sub, inv[:k, :k], inv[:k, k]
    return origin, subs, solve


def _inverse(m: list[list]) -> list[list[Fraction]] | None:
    """The inverse of a square matrix in exact rationals by Gauss-Jordan
    elimination, or None when it is singular."""
    n = len(m)
    rows = [[Fraction(v) for v in r] + [Fraction(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        head, rows[p] = rows[p], rows[c]
        rows[c] = pivot = [v / head[c] for v in head]
        for r, row in enumerate(rows):
            if r != c and row[c]:
                rows[r] = [a - row[c] * b for a, b in zip(row, pivot)]
    return [r[n:] for r in rows]


def _combine(coef, cols) -> np.ndarray:
    """out[f, k, m] = sum_i coef[f, k, i] * cols[f, i, m] for coef (F, r, n)
    and cols (F or 1, n, M), summed in index order (see `dot_rows`); each
    term runs over M contiguous columns."""
    return dot_rows(coef[:, :, None, :], np.moveaxis(cols, -2, -1)[:, None])


def face_projections(faces, x) -> tuple[np.ndarray, np.ndarray]:
    """Weights (F, s, M) and points (F, d, M) of the projections of the
    columns of x (d, M), relative to the faces' origin, onto each face's
    affine hull; the constant of each weight is added last."""
    _, subs, solve = faces
    w = _combine(solve[..., :-1], _combine(subs, x[None])) + solve[..., -1:]
    return w, _combine(subs.transpose(0, 2, 1), w)


def nearest_on_faces(faces, pts) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points of a hull to the rows of pts (M, d), given its
    hull_faces, and their distances.

    The points are solved as contiguous coordinate columns against every
    face at once, in passes of as many points as PASS_ELEMENTS holds at
    F * max(s, d) elements a point (the widest temporary), in elementwise
    arithmetic, so a row's result does not depend on the other rows.  Faces
    whose optimal weights leave the simplex are skipped; the closest
    remaining candidate wins, the first face on an exact tie.
    """
    origin, subs, _ = faces
    x = np.ascontiguousarray((np.asarray(pts, dtype=float) - origin).T)
    near, dist = np.empty(x.shape[::-1]), np.empty(x.shape[1])
    step = max(1, PASS_ELEMENTS // (len(subs) * max(subs.shape[1:])))
    for lo in range(0, x.shape[1], step):
        near[lo:lo + step], dist[lo:lo + step] = _nearest_in_pass(faces, x[:, lo:lo + step])
    return near + origin, dist


def _nearest_in_pass(faces, x) -> tuple[np.ndarray, np.ndarray]:
    """`nearest_on_faces` of one pass's columns x (d, m), relative to the
    faces' origin; its temporaries are freed when it returns."""
    w, cand = face_projections(faces, x)  # (F, s, m), (F, d, m)
    on_face = np.all(w >= -FACE_WEIGHT_TOL, axis=1)
    del w  # freed before the distances' temporaries
    diff = np.moveaxis(cand - x, 1, -1)
    d = np.where(on_face, np.sqrt(dot_rows(diff, diff)), np.inf)
    best = np.argmin(d, axis=0)
    cols = np.arange(len(best))
    return cand[best, :, cols], d[best, cols]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_points(params: GameParams, n: int, seed: int = 0) -> np.ndarray:
    """n points of S, barycentric weights over the 8 vertices drawn uniformly
    from the simplex."""
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
    """2-d grid of the given convex polygon at the given pitch, built once
    per (polygon, pitch) and shared read-only."""
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    return _built(_grid, _points_key(poly_2d), float(pitch))[0]


def _grid(poly_2d: np.ndarray, pitch: float) -> tuple[np.ndarray]:
    lo = poly_2d.min(axis=0)
    hi = poly_2d.max(axis=0)
    xs = np.arange(lo[0], hi[0] + pitch / 2, pitch)
    ys = np.arange(lo[1], hi[1] + pitch / 2, pitch)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return (grid[hull_mask([tuple(p) for p in poly_2d], grid)],)


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
