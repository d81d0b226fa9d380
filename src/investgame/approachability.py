"""Blackwell-condition certification, decay bounds and attractors.

A step map phi satisfies the Blackwell condition for a set A on a domain
D when every x in D admits a proximal point y of A with
<x - y, phi(x) - y> <= 0.  Along the mean dynamics this forces the
squared distance n^2 dist(mean_n, A)^2 to grow at most linearly, hence
dist(mean_n, A) -> 0.  This module certifies the condition on sampled
domains, checks the induced decay bound on recorded trajectories, and
implements the attractor refinement step used to pin down limit points.
That step clips segments to the eps-neighbourhood of a convex hull in
closed form, from the faces its exact projection solves.

Certification on samples is evidence, not proof: the step maps here are
piecewise constant with polyhedral pieces, so genuine violations fill
open sets and a grid of the reported pitch finds them reliably.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import geometry
from .dynamics import Trajectory
from .geometry import FACE_WEIGHT_TOL, dot_rows, face_projections, hull_faces, nearest_on_faces

PROXIMAL_TIE_TOL = 1e-9
#: Slack of every certificate inequality.
CERT_TOL = 1e-9


class Projection(NamedTuple):
    """Proximal candidates of M points: per row, one candidate for each of
    the set's K pieces, its distance, and whether it is proximal (within
    PROXIMAL_TIE_TOL of the nearest)."""

    points: np.ndarray  # (M, K, d)
    dist: np.ndarray    # (M, K)
    tied: np.ndarray    # (M, K)

    def nearest(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first proximal candidate and its distance."""
        first = (np.arange(len(self.tied)), np.argmax(self.tied, axis=1))
        return self.points[first], self.dist[first]


class ProximalOracle:
    """Nearest-point oracle for a region; exact for the shapes used here.

    A subclass gives its candidates for an (M, d) array of points in
    `_candidates`, in elementwise arithmetic, so each row's projection is
    the same whether it is projected alone or with others; `pieces` is K.
    """

    pieces = 1

    def _candidates(self, x: np.ndarray) -> np.ndarray:
        """(M, K, d): the nearest point of each of the K pieces."""
        raise NotImplementedError

    def project_many(self, pts) -> Projection:
        """Project every row of pts (M, d) in one pass."""
        x = np.asarray(pts, dtype=float)
        cands = self._candidates(x)
        diff = cands - x[:, None, :]
        dist = np.sqrt(dot_rows(diff, diff))
        return Projection(cands, dist, dist <= dist.min(axis=1, keepdims=True) + PROXIMAL_TIE_TOL)

    def project(self, x) -> list[np.ndarray]:
        """All proximal points of x, up to ties within PROXIMAL_TIE_TOL."""
        proj = self.project_many([x])
        return [p for p, tied in zip(proj.points[0], proj.tied[0]) if tied]

    def distances(self, pts) -> np.ndarray:
        return self.project_many(pts).nearest()[1]


class PointOracle(ProximalOracle):
    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)

    def _candidates(self, x):
        return np.broadcast_to(self.p, (len(x), 1, len(self.p)))


class LineOracle(ProximalOracle):
    """Infinite line through `point` with direction `direction`."""

    def __init__(self, point, direction):
        self.point = np.asarray(point, dtype=float)
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("direction must be nonzero")
        self.direction = d / n

    def _candidates(self, x):
        t = dot_rows(x - self.point, self.direction)
        return (self.point + t[:, None] * self.direction)[:, None, :]


class SegmentsOracle(ProximalOracle):
    """Finite union of closed segments; per-segment closed form, every
    segment's nearest point a candidate, ties kept in segment order."""

    def __init__(self, segments):
        self.segments = [
            (np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in segments
        ]
        if not self.segments:
            raise ValueError("need at least one segment")
        self._a = np.array([a for a, _ in self.segments])
        self._u = np.array([b - a for a, b in self.segments])
        self._uu = dot_rows(self._u, self._u)
        self.pieces = len(self.segments)

    def _candidates(self, x):
        num = dot_rows(x[:, None, :] - self._a, self._u)
        t = np.divide(num, self._uu, out=np.zeros_like(num), where=self._uu != 0.0)
        t = np.minimum(1.0, np.maximum(0.0, t))
        return self._a + t[..., None] * self._u


class HullOracle(ProximalOracle):
    """Convex hull of finitely many points; exact projection by face enumeration.

    The faces and their KKT inverses are built once; a projection solves
    every face for every point in one array pass.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self._faces = hull_faces(self.points)

    def _candidates(self, x):
        return nearest_on_faces(self._faces, x)[0][:, None, :]


# ---------------------------------------------------------------------------
# Sampled certificates and the Blackwell condition
# ---------------------------------------------------------------------------

@dataclass
class CertReport:
    """A sampled certificate: it holds, or `witness` records the first
    violating sample; `checked` counts the samples examined."""

    holds: bool
    witness: dict | None
    checked: int
    grid_pitch: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def grid_certificate(grid: np.ndarray, width: int, failing: Callable, witness: Callable[..., dict],
                     pitch: float | None = None) -> CertReport:
    """A certificate over the rows of an (M, d) grid, in passes of as many rows
    as `geometry.PASS_ELEMENTS` holds at `width` elements a row.

    `failing(rows)` yields, for a pass's rows, one (mask, detail) pair per way
    a row can fail, in a per-sample loop's order.  The first pass with a
    failing row ends the check: that row is evaluated again alone, the
    witness is its point and `witness(*detail)` of its first failing
    detail, and `checked` counts the rows up to it, as a loop stopping
    there would.
    """
    step = max(1, geometry.PASS_ELEMENTS // width)
    for lo in range(0, len(grid), step):
        rows = grid[lo:lo + step]
        hit = np.zeros(len(rows), dtype=bool)
        for mask, _ in failing(rows):
            hit |= mask
        if hit.any():
            g = lo + int(np.argmax(hit))
            detail = next(d for mask, d in failing(grid[g:g + 1]) if mask[0])
            return CertReport(holds=False, witness={"x": grid[g].tolist(), **witness(*detail)},
                              checked=g + 1, grid_pitch=pitch)
    return CertReport(holds=True, witness=None, checked=len(grid), grid_pitch=pitch)


def _best_inner(oracle: ProximalOracle, x: np.ndarray, steps: np.ndarray):
    """Per row of x: the least <x - y, step - y> over the proximal candidates
    y of x, the candidate attaining it (the first on a tie), and the
    distance from x to the set.  Each row is projected once, in passes of
    as many rows as `geometry.PASS_ELEMENTS` holds at K * d elements a row."""
    inner = np.empty(len(x))
    best = np.empty_like(x)
    dist = np.empty(len(x))
    step = max(1, geometry.PASS_ELEMENTS // (oracle.pieces * x.shape[1]))
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        proj = oracle.project_many(x[rows])
        y = proj.points
        vals = np.where(proj.tied, dot_rows(x[rows, None, :] - y, steps[rows, None, :] - y), np.inf)
        k = np.argmin(vals, axis=1)
        r = np.arange(len(k))
        inner[rows], best[rows], dist[rows] = vals[r, k], y[r, k], proj.nearest()[1]
    return inner, best, dist


def check_blackwell(steps: Callable, oracle: ProximalOracle, domain: Sequence,
                    pitch: float | None = None) -> CertReport:
    """Certify <x - y, phi(x) - y> <= CERT_TOL for some proximal y, on every sample.

    `steps(rows)`, phi in column form (`strategies.induced_columns`), runs
    once per pass of the (M, d) domain, as do the projections and inner
    products.  The first failing sample becomes the witness: its point,
    step value, best proximal candidate and the (positive) inner product,
    all of which reproduce the violation bit-exactly in dot3's order.
    """
    x = np.asarray(domain, dtype=float)

    def failing(rows):
        phi_x = steps(rows)
        inner, proximal, _ = _best_inner(oracle, rows, phi_x)
        yield inner > CERT_TOL, (phi_x, proximal, inner)

    def witness(phi_x, proximal, inner):
        return {"phi_x": phi_x[0].tolist(), "proximal": proximal[0].tolist(), "inner": float(inner[0])}

    return grid_certificate(x, oracle.pieces * x.shape[1], failing, witness, pitch)


def premise_start(traj: Trajectory, oracle: ProximalOracle) -> int | None:
    """Smallest 1-based n0 such that the Blackwell inner product is <= CERT_TOL
    at every recorded stage from n0 on; None when even the last stage fails.

    The projections are kept on the trajectory, keyed by the oracle, for
    `decay_bound_check` to read."""
    x = traj.means_array()[:-1]  # stages with a recorded step
    steps = traj.steps_array()
    inner, _, _ = traj._proximal[oracle] = _best_inner(oracle, x, steps)
    bad = np.flatnonzero(inner > CERT_TOL)
    last_bad = int(bad[-1]) + 1 if len(bad) else 0
    return last_bad + 1 if last_bad + 1 < traj.horizon else None


@dataclass
class DecayReport:
    ok: bool
    premise_ok: bool
    n0: int
    c_const: float
    d_n0: float
    max_ratio: float
    violations: int

    def as_dict(self) -> dict:
        return asdict(self)


def decay_bound_check(traj: Trajectory, oracle: ProximalOracle, n0: int) -> DecayReport:
    """Check dist(mean_n, A)^2 <= (d_n0 + (n - n0) C) / n^2 for all n >= n0.

    d_n0 = n0^2 dist(mean_n0, A)^2 and C bounds |x_{n+1} - y_n|^2, the
    squared distance from each realized stage payoff to the proximal point
    chosen at the current mean; the premise (Blackwell inner products
    <= CERT_TOL from n0 on) is re-verified, not assumed.  What
    `premise_start` kept for this oracle is read, not projected again; it is
    the same, since each row's projection does not depend on the others.
    """
    if not 1 <= n0 <= traj.horizon:
        raise ValueError("n0 out of range")
    x = traj.means_array()[n0 - 1:]
    m = traj.horizon - n0  # all but the last mean have a recorded next step
    steps = traj.steps_array()[n0 - 1:]
    kept = traj._proximal.get(oracle)
    if kept is None:
        inner, y, dists = _best_inner(oracle, x[:m], steps)
    else:
        inner, y, dists = (a[n0 - 1:] for a in kept)
    dists = np.append(dists, oracle.distances(x[m:]))  # the last mean, which has no next step
    premise_ok = not np.any(inner > CERT_TOL)
    c_const = float(np.max(dot_rows(steps - y, steps - y), initial=0.0))
    d_n0 = n0 * n0 * dists[0] ** 2
    ns = np.arange(n0, traj.horizon + 1, dtype=float)
    bounds = (d_n0 + (ns - n0) * c_const) / ns**2
    sq = dists**2
    violations = int(np.sum(sq > bounds + CERT_TOL))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, sq / bounds, np.where(sq <= CERT_TOL, 0.0, np.inf))
    return DecayReport(
        ok=premise_ok and violations == 0,
        premise_ok=premise_ok,
        n0=n0,
        c_const=c_const,
        d_n0=float(d_n0),
        max_ratio=float(np.max(ratios)),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Attractor refinement
# ---------------------------------------------------------------------------

def clip_segments_to_neighborhood(segments, target: HullOracle,
                                  eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sub-segments of the union lying within distance eps of the hull `target`.

    Along a segment a + t u, each face's projection weights w0 + t w1 and
    residual r0 + t r1 are affine in t.  The face keeps the t where no weight
    is below -FACE_WEIGHT_TOL and the residual is at most eps long: tc +- h
    around the residual's shortest point tc, h = sqrt((eps^2 - d^2) / r1.r1)
    with d the residual at tc (the quadratic's roots would lose every digit
    at eps = CERT_TOL), or every t where r1 = 0 and |r0| <= eps.  Distance to
    a convex set is convex in t, so the faces' intervals form one: the clip.
    """
    if not isinstance(target, HullOracle):
        raise TypeError(f"the clip target must be a HullOracle, not {type(target).__name__}")
    out = []
    for a, b in segments:
        a = np.asarray(a, dtype=float)
        u = np.asarray(b, dtype=float) - a
        ends = (np.array([a, a + u]) - target._faces[0]).T
        w, p = face_projections(target._faces, ends)  # (F, s, 2), (F, d, 2)
        r = p - ends
        w0, w1, r0, r1 = w[..., 0], w[..., 1] - w[..., 0], r[..., 0], r[..., 1] - r[..., 0]
        rr = dot_rows(r1, r1)
        with np.errstate(divide="ignore", invalid="ignore"):  # np.where drops the zero divisions
            tc = np.where(rr > 0.0, -dot_rows(r0, r1) / rr, 0.0)
            rc = r0 + tc[:, None] * r1
            slack = eps * eps - dot_rows(rc, rc)
            h = np.where(rr > 0.0, np.sqrt(np.maximum(slack, 0.0) / rr), np.inf)
            cross = (-FACE_WEIGHT_TOL - w0) / w1  # where each weight reaches -FACE_WEIGHT_TOL
        lo = np.maximum(np.max(np.where(w1 > 0.0, cross, -np.inf), axis=1), tc - h)
        hi = np.minimum(np.min(np.where(w1 < 0.0, cross, np.inf), axis=1), tc + h)
        ok = (slack >= 0.0) & np.all((w1 != 0.0) | (w0 >= -FACE_WEIGHT_TOL), axis=1) & (lo <= hi)
        lo_t, hi_t = max(0.0, np.min(lo[ok], initial=1.0)), min(1.0, np.max(hi[ok], initial=0.0))
        if hi_t > lo_t:
            out.append((a + lo_t * u, a + hi_t * u))
    return out


def refine_attractor(steps: Callable, outer_segments, inner: HullOracle, schedule,
                     domain_for_delta: Callable[[float], Sequence], finals: Sequence,
                     tol: float) -> dict:
    """Shrink a known segment-union attractor A to a subset B, a convex hull.

    For each scheduled (eps, delta): certify the Blackwell condition of
    `steps` (as `check_blackwell` takes it) for cl(N_eps(B)) ∩ A on a
    sampled delta-neighborhood of A, then check that every final mean in
    `finals` lies within eps + tol of B; the stage reports the largest of
    their distances to B.  The trajectories do not depend on (eps, delta),
    so the caller runs them once and passes every final mean.  The (eps,
    delta) schedule is caller-supplied configuration; the theory
    guarantees existence of a workable delta per eps but not a formula
    for it.
    """
    worst = float(np.max(inner.distances(np.reshape(finals, (-1, inner.points.shape[1]))), initial=0.0))
    stages = []
    ok = True
    for eps, delta in schedule:
        clipped = clip_segments_to_neighborhood(outer_segments, inner, eps)
        if not clipped:
            raise ValueError(f"clipped region empty at eps={eps}")
        region = SegmentsOracle(clipped)
        bw = check_blackwell(steps, region, domain_for_delta(delta))
        stage_ok = bw.holds and worst <= eps + tol
        ok = ok and stage_ok
        stages.append({
            "eps": eps,
            "delta": delta,
            "blackwell_holds": bw.holds,
            "witness": bw.witness,
            "max_final_dist_to_inner": worst,
            "passes": stage_ok,
        })
    return {"passes": ok, "stages": stages}
