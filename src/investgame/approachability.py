"""Blackwell-condition certification and weak-attractor verification.

A step map phi satisfies the Blackwell condition for a set A on a domain
D when every x in D admits a proximal point y of A with
<x - y, phi(x) - y> <= 0.  Along the mean dynamics this forces the
squared distance n^2 dist(mean_n, A)^2 to grow at most linearly, hence
dist(mean_n, A) -> 0.  This module certifies the condition on sampled
domains, checks the induced decay bound on recorded trajectories, and
implements the attractor intersection/refinement steps used to pin down
limit points.

Certification on samples is evidence, not proof: the step maps here are
piecewise constant with polyhedral pieces, so genuine violations fill
open sets and a grid of the reported pitch finds them reliably.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .dynamics import Trajectory, iterate
from .geometry import hull_faces, nearest_on_faces

PROXIMAL_TIE_TOL = 1e-9


class ProximalOracle:
    """Nearest-point oracle for a region; exact for the shapes used here."""

    def project(self, x) -> list[np.ndarray]:
        """All proximal points, up to ties within PROXIMAL_TIE_TOL."""
        raise NotImplementedError

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(self.project(x)[0] - x))


class PointOracle(ProximalOracle):
    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)

    def project(self, x):
        return [self.p.copy()]


class LineOracle(ProximalOracle):
    """Infinite line through `point` with direction `direction`."""

    def __init__(self, point, direction):
        self.point = np.asarray(point, dtype=float)
        d = np.asarray(direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("direction must be nonzero")
        self.direction = d / n

    def project(self, x):
        x = np.asarray(x, dtype=float)
        t = float((x - self.point) @ self.direction)
        return [self.point + t * self.direction]


class SegmentsOracle(ProximalOracle):
    """Finite union of closed segments; per-segment closed form, min over ties."""

    def __init__(self, segments):
        self.segments = [
            (np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in segments
        ]
        if not self.segments:
            raise ValueError("need at least one segment")

    def project(self, x):
        x = np.asarray(x, dtype=float)
        cands: list[tuple[float, np.ndarray]] = []
        for a, b in self.segments:
            u = b - a
            denom = float(u @ u)
            t = 0.0 if denom == 0.0 else float((x - a) @ u) / denom
            t = min(1.0, max(0.0, t))
            p = a + t * u
            cands.append((float(np.linalg.norm(p - x)), p))
        dmin = min(d for d, _ in cands)
        return [p for d, p in cands if d <= dmin + PROXIMAL_TIE_TOL]


class HullOracle(ProximalOracle):
    """Convex hull of finitely many points; exact projection by face enumeration.

    The faces and their KKT inverses are built once, so a projection costs
    one small matrix-vector product per face.
    """

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        self._faces = hull_faces(self.points)

    def project(self, x):
        return [nearest_on_faces(self._faces, x)[0]]


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


def first_violation(samples: Iterable, violation: Callable[[object], dict | None],
                    pitch: float | None = None) -> CertReport:
    """Evaluate `violation` on the samples in order and stop at the first
    one for which it returns a witness instead of None."""
    checked = 0
    for x in samples:
        checked += 1
        witness = violation(x)
        if witness is not None:
            return CertReport(holds=False, witness=witness, checked=checked, grid_pitch=pitch)
    return CertReport(holds=True, witness=None, checked=checked, grid_pitch=pitch)


def _best_inner(x: np.ndarray, step, proximal: Sequence[np.ndarray]):
    """The least <x - y, step - y> over the proximal candidates y of x."""
    step = np.asarray(step, dtype=float)
    best = math.inf
    best_y = None
    for y in proximal:
        inner = float((x - y) @ (step - y))
        if inner < best:
            best = inner
            best_y = y
    return best, best_y


def check_blackwell(phi: Callable, oracle: ProximalOracle, domain: Sequence, pitch: float | None = None,
                    tol: float = 1e-9) -> CertReport:
    """Certify <x - y, phi(x) - y> <= tol for some proximal y, on every sample.

    The first failing sample becomes the witness: its point, step value,
    best proximal candidate and the (positive) inner product, all of which
    reproduce the violation bit-exactly on re-evaluation.
    """
    def violation(x):
        step = phi(tuple(x))
        point = np.asarray(x, dtype=float)
        inner, y = _best_inner(point, step, oracle.project(point))
        if inner > tol:
            return {
                "x": [float(c) for c in x],
                "phi_x": [float(c) for c in step],
                "proximal": [float(c) for c in y],
                "inner": inner,
            }
        return None

    return first_violation(domain, violation, pitch)


def premise_start(traj: Trajectory, oracle: ProximalOracle, tol: float = 1e-9) -> int | None:
    """Smallest 1-based n0 such that the Blackwell inner product is <= tol
    at every recorded stage from n0 on; None when even the last stage fails."""
    last_bad = 0
    for n in range(1, traj.horizon):  # stages with a recorded step
        x = np.asarray(traj.means[n - 1], dtype=float)
        inner, _ = _best_inner(x, traj.steps[n - 1], oracle.project(x))
        if inner > tol:
            last_bad = n
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


def decay_bound_check(traj: Trajectory, oracle: ProximalOracle, n0: int, tol: float = 1e-9) -> DecayReport:
    """Check dist(mean_n, A)^2 <= (d_n0 + (n - n0) C) / n for all n >= n0.

    d_n0 = n0^2 dist(mean_n0, A)^2 and C bounds |x_{n+1} - y_n|^2, the
    squared distance from each realized stage payoff to the proximal point
    chosen at the current mean; the premise (Blackwell inner products <= tol
    from n0 on) is re-verified, not assumed.
    """
    if not 1 <= n0 <= traj.horizon:
        raise ValueError("n0 out of range")
    premise_ok = True
    c_const = 0.0
    dists = np.empty(traj.horizon - n0 + 1)
    for n in range(n0, traj.horizon + 1):
        x = np.asarray(traj.means[n - 1], dtype=float)
        proximal = oracle.project(x)
        if n < traj.horizon:
            step = np.asarray(traj.steps[n - 1])
            inner, y = _best_inner(x, step, proximal)
            if inner > tol:
                premise_ok = False
            c_const = max(c_const, float(np.sum((step - y) ** 2)))
        # what oracle.distance(x) computes, without projecting x again
        dists[n - n0] = float(np.linalg.norm(proximal[0] - x))
    d_n0 = n0 * n0 * dists[0] ** 2
    ns = np.arange(n0, traj.horizon + 1, dtype=float)
    bounds = (d_n0 + (ns - n0) * c_const) / ns
    sq = dists**2
    violations = int(np.sum(sq > bounds + tol))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, sq / bounds, np.where(sq <= tol, 0.0, np.inf))
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
# Weak attractors
# ---------------------------------------------------------------------------

@dataclass
class AttractorReport:
    passes: bool
    max_final_distance: float
    tol: float
    horizon: int
    series: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "passes": self.passes,
            "max_distance": self.max_final_distance,
            "tol": self.tol,
            "horizon": self.horizon,
            "series": self.series,
        }


def verify_weak_attractor(phi: Callable, oracle: ProximalOracle, starts: Sequence, n: int,
                          tol: float, series_points: int = 200) -> AttractorReport:
    """Run the dynamics from every start and compare final distances to tol."""
    series = []
    worst = 0.0
    for x1 in starts:
        traj = iterate(phi, x1, n)
        stride = max(1, n // series_points)
        idx = list(range(0, n, stride))
        if idx[-1] != n - 1:
            idx.append(n - 1)
        dists = [oracle.distance(traj.means[i]) for i in idx]
        worst = max(worst, dists[-1])
        series.append({
            "start": [float(c) for c in traj.start],
            "indices": [i + 1 for i in idx],
            "distances": dists,
            "final_distance": dists[-1],
        })
    return AttractorReport(
        passes=worst <= tol, max_final_distance=worst, tol=tol, horizon=n, series=series,
    )


def sample_intersection(oracle_a: ProximalOracle, oracle_b: ProximalOracle, seeds: Sequence,
                        tol: float = 1e-9, max_iter: int = 5000) -> list[np.ndarray]:
    """Points of A∩B found by alternating projections from the seeds."""
    found: list[np.ndarray] = []
    for seed in seeds:
        y = np.asarray(seed, dtype=float)
        for _ in range(max_iter):
            y_next = oracle_b.project(oracle_a.project(y)[0])[0]
            if np.linalg.norm(y_next - y) < 1e-13:
                y = y_next
                break
            y = y_next
        if oracle_a.distance(y) <= tol and oracle_b.distance(y) <= tol:
            if not any(np.linalg.norm(y - p) <= 1e-7 for p in found):
                found.append(y)
    return found


def intersect_attractors(traj: Trajectory, oracle_a: ProximalOracle, oracle_b: ProximalOracle,
                         tol: float, seeds: Sequence | None = None, slack: float = 1e-6) -> dict:
    """Check that the trajectory ends near the (sampled) intersection A∩B.

    Premise: the final mean is within tol of each set separately.  The
    intersection is sampled by alternating projections from the seeds
    (default: late trajectory points); the check compares the distance
    from the final mean to those samples against tol + slack.
    """
    final = np.asarray(traj.final)
    da = oracle_a.distance(final)
    db = oracle_b.distance(final)
    premise_ok = da <= tol and db <= tol
    if seeds is None:
        take = max(1, traj.horizon // 8)
        seeds = [traj.means[i] for i in range(traj.horizon - 1, -1, -take)]
    samples = sample_intersection(oracle_a, oracle_b, seeds)
    if not samples:
        raise ValueError("empty sampled intersection")
    d = min(float(np.linalg.norm(final - p)) for p in samples)
    return {
        "passes": bool(premise_ok and d <= tol + slack),
        "premise_ok": bool(premise_ok),
        "dist_to_a": da,
        "dist_to_b": db,
        "dist_to_intersection": d,
        "intersection_samples": [[float(c) for c in p] for p in samples],
        "tol": tol,
    }


def clip_segments_to_neighborhood(segments, target: ProximalOracle, eps: float,
                                  iters: int = 80) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sub-segments of the union lying within distance eps of the target set.

    Along each segment the distance to a convex target is convex in the
    parameter, so the feasible part is a single sub-interval, located by
    bisection around the minimizing parameter.
    """
    out = []
    for a, b in segments:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)

        def g(t):
            return target.distance(a + t * (b - a))

        # ternary search for the minimizer of the convex g
        l, r = 0.0, 1.0
        for _ in range(iters):
            m1 = l + (r - l) / 3
            m2 = r - (r - l) / 3
            if g(m1) <= g(m2):
                r = m2
            else:
                l = m1
        t_min = (l + r) / 2
        if g(t_min) > eps:
            continue
        # grow left boundary
        if g(0.0) <= eps:
            lo_t = 0.0
        else:
            lo, hi = 0.0, t_min
            for _ in range(iters):
                mid = (lo + hi) / 2
                if g(mid) <= eps:
                    hi = mid
                else:
                    lo = mid
            lo_t = hi
        if g(1.0) <= eps:
            hi_t = 1.0
        else:
            lo, hi = t_min, 1.0
            for _ in range(iters):
                mid = (lo + hi) / 2
                if g(mid) <= eps:
                    lo = mid
                else:
                    hi = mid
            hi_t = lo
        if hi_t > lo_t:
            out.append((a + lo_t * (b - a), a + hi_t * (b - a)))
    return out


def refine_attractor(phi: Callable, outer_segments, inner: ProximalOracle, schedule,
                     domain_for_delta: Callable[[float], Sequence], finals: Sequence,
                     tol: float) -> dict:
    """Shrink a known segment-union attractor A to a subset B.

    For each scheduled (eps, delta): certify the Blackwell condition for
    cl(N_eps(B)) ∩ A on a sampled delta-neighborhood of A, then check that
    the trajectories' final means `finals` lie within eps + tol of B.  The
    trajectories do not depend on (eps, delta), so the caller runs them
    once.  The (eps, delta) schedule is caller-supplied configuration; the
    theory guarantees existence of a workable delta per eps but not a
    formula for it.
    """
    worst = max((inner.distance(x) for x in finals), default=0.0)
    stages = []
    ok = True
    for eps, delta in schedule:
        clipped = clip_segments_to_neighborhood(outer_segments, inner, eps)
        if not clipped:
            raise ValueError(f"clipped region empty at eps={eps}")
        region = SegmentsOracle(clipped)
        bw = check_blackwell(phi, region, domain_for_delta(delta))
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
