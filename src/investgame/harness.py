"""End-to-end numerical verification of the equilibrium claims.

Three claims are checked at finite horizon, each over a battery of starts
and deviant strategies:

  t3: all three players follow threshold-good strategies -> the mean
      payoff converges to the full-investment point B.
  t4: two good players, arbitrary third -> the deviator's tail mean stays
      below p3 + 2*eps/3.
  t2: one good player, two arbitrary deviators -> the good player's tail
      mean stays above r0, the deviators' sum below 2*p3, and the mean
      trajectory ends on (the closure of) the good player's invest region.

Two worked examples accompany the claims: example 1, a planar two-value
step map whose mean converges to a singleton that itself fails the
Blackwell condition, and example 2, a crafted third-player defector that
drags the play to a point D overshooting p3 by eps/2 while still
respecting the t4 cap.  "Arbitrary strategy" is not testable as stated,
so the battery below (constants, seeded coin flips, the crafted
defector) is the documented adversarial stand-in, extendable by callers:
`verify_t4` and `verify_t2` take any `strategies.Strategy` that defines
`invests` on a mean, a tuple of floats, plus `fresh()` when it keeps state.

Repeated-game payoffs are reported as [tail min, tail max] intervals over
the trailing window, never as single numbers.  The batteries step all
their cells together with `dynamics.simulate_batch`: one fused call per
stage on columns for the good seats, and one on floats per stage and row
for each deviant that is not a constant or a coin flip, with each cell's
means bit-identical to a run of `dynamics.iterate`.  Each t3 start runs
on `dynamics.simulate_events`, which decides and jumps fixed-profile
stretches in exact integers and reports correctly rounded exact means,
on every admissible game.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .approachability import (
    CertReport,
    HullOracle,
    LineOracle,
    PointOracle,
    ProximalOracle,
    SegmentsOracle,
    check_blackwell,
    refine_attractor,
)
from .dynamics import BatchTails, iterate, simulate_batch, simulate_events, tail_start
from .geometry import (
    RegionSpec,
    dist_to_region,
    grid_slack,
    hull_point,
    in_hull,
    norm3,
    polygon_2d,
    polygon_grid,
)
from .stage_game import (
    ALL_INVEST,
    INVEST,
    NOT_INVEST,
    GameParams,
    example_game,
    vertices,
)
from .strategies import (
    ConstantStrategy,
    Example2Defector,
    GoodStrategy,
    RandomStrategy,
    Strategy,
    good_profile,
    induced_columns,
    induced_map,
)

#: Named seeds of the standard random-deviant battery.
DEFAULT_SEEDS = (11, 23, 37, 41, 53, 67, 79, 83, 97, 101)
#: Defaults of the batteries and worked examples: horizon, threshold eps, grid pitch.
DEFAULT_N = 100_000
DEFAULT_EPS = 0.4
CERT_PITCH = 0.25
#: Pitch of the grid on which t2 measures the distance to cl(V_1).
DIST_PITCH = 0.25
#: The shortest horizon a harness run takes.
MIN_RUN = 1000
#: Example 1's segment ends (a below the horizontal axis, b above it), and
#: the half-width of the square around the origin holding its starts and grid.
EXAMPLE1_A = (0.0, -1.0)
EXAMPLE1_B = (2.0, 1.0)
EXAMPLE1_BOX = 3.0
#: (eps, delta) schedule of example 2's attractor refinement.  The theory
#: promises a workable delta for every eps but gives no formula; below a
#: clip radius of roughly 0.43 * (defector eps) the certificate fails near
#: the clipped set's free end for every delta, so the schedule stops at 0.25,
#: which certifies for every admissible defector eps in (0, 1/2).
REFINE_SCHEDULE = ((0.5, 0.3), (0.25, 0.15))


def default_starts() -> tuple[tuple[float, ...], ...]:
    """Barycentric weights of the 8 vertices plus the centroid."""
    return tuple(tuple(float(i == j) for j in range(8)) for i in range(8)) + ((0.125,) * 8,)


@dataclass(frozen=True)
class HarnessConfig:
    params: GameParams
    eps: float = DEFAULT_EPS
    starts: tuple[tuple[float, ...], ...] = field(default_factory=default_starts)
    n: int = DEFAULT_N
    window: float = 0.5
    slack: float = 0.05
    dist_slack: float = 0.1

    def __post_init__(self):
        if self.n < MIN_RUN:
            raise ValueError(f"horizon must be at least {MIN_RUN}")
        tail_start(self.n, self.window)
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        for key in ("slack", "dist_slack"):
            if not (math.isfinite(getattr(self, key)) and getattr(self, key) >= 0):
                raise ValueError(f"{key} must be nonnegative and finite")
        if not self.starts:
            raise ValueError("at least one start is required")

    def start_points(self) -> list[tuple[float, float, float]]:
        vs = vertices(self.params)
        return [hull_point(vs, w) for w in self.starts]


@dataclass
class VerifyReport:
    """A claim's cells; it passes when every cell passes and the report-level
    `checks` (certificates, pipeline) hold."""

    name: str
    cells: list[dict]
    meta: dict = field(default_factory=dict)
    checks: InitVar[bool] = True
    passed: bool = field(init=False)

    def __post_init__(self, checks: bool):
        self.passed = checks and all(c["pass"] for c in self.cells)

    def as_dict(self) -> dict:
        return asdict(self)


def _defectors(params: GameParams, eps: float) -> list[Strategy]:
    """The crafted defector, where the game and eps admit it."""
    return [Example2Defector(params, eps)] if params == example_game() and 0.0 < eps < 0.5 else []


def standard_deviants(params: GameParams, eps: float, seeds=DEFAULT_SEEDS) -> list[Strategy]:
    """Constant I, constant NI, seeded coin flips, and the crafted defector
    where it applies."""
    battery: list[Strategy] = [ConstantStrategy(INVEST), ConstantStrategy(NOT_INVEST)]
    battery += [RandomStrategy(0.5, s) for s in seeds]
    return battery + _defectors(params, eps)


def deviant_pairs(params: GameParams, eps: float, seeds=DEFAULT_SEEDS) -> list[tuple[Strategy, Strategy]]:
    constants = (ConstantStrategy(INVEST), ConstantStrategy(NOT_INVEST))
    pairs = [(x, y) for x in constants for y in constants]
    pairs += [(RandomStrategy(0.5, s), RandomStrategy(0.5, s + 1000)) for s in seeds]
    return pairs + [(defector, defector) for defector in _defectors(params, eps)]


def _run_battery(config: HarnessConfig, battery, goods: tuple[Strategy, ...]) -> BatchTails:
    """Step every (start, deviants) cell of a battery together: the good
    strategies take the first seats, fresh copies of the deviants the rest."""
    profiles = [goods + tuple(dev.fresh() for dev in devs) for _, devs in battery]
    return simulate_batch(profiles, config.params, [x1 for x1, _ in battery], config.n, config.window)


def _cell(theorem: str, start, deviants, n: int, measured, bound, margin, passed, **extra) -> dict:
    """One report cell: the keys every claim shares plus its own `extra` keys."""
    return {
        "theorem": theorem,
        "start": list(start),
        "deviants": [dev.name for dev in deviants],
        "N": n,
        "measured": measured,
        "bound": bound,
        "margin": margin,
        "pass": bool(passed),
        **extra,
    }


def verify_t3(config: HarnessConfig) -> VerifyReport:
    """All-good profile: final mean within slack of B from every start.

    Also records the first stage whose mean lies in the triple-invest
    region V^3 (where all three invest), the absorption event behind the
    convergence; no a-priori bound on that stage exists, so a trajectory
    that never enters is flagged rather than extrapolated.
    """
    params = config.params
    profile = good_profile(params, config.eps)
    b_point = vertices(params).B
    cells = []
    for w, x1 in zip(config.starts, config.start_points()):
        run = simulate_events(profile, params, x1, config.n, config.window)
        entry = next((first for first, _, code in run.segments if code == ALL_INVEST), None)
        dist = norm3([run.final[k] - b_point[k] for k in range(3)])
        cells.append(_cell("t3", x1, (), config.n, dist, config.slack, config.slack - dist,
                           dist <= config.slack and entry is not None, start_weights=list(w),
                           entered_v3_at=entry,
                           tail_intervals=[list(pair) for pair in zip(run.tail_min, run.tail_max)]))
    return VerifyReport(name="t3", cells=cells, meta={"eps": config.eps, "target": list(b_point)})


def verify_t4(config: HarnessConfig, deviants: list[Strategy] | None = None) -> VerifyReport:
    """Two good players cap the third's tail mean at p3 + 2*eps/3 (+ slack)."""
    params = config.params
    if deviants is None:
        deviants = standard_deviants(params, config.eps)
    bound = params.p3 + 2.0 * config.eps / 3.0
    cap = bound + config.slack
    battery = [(x1, (dev,)) for x1 in config.start_points() for dev in deviants]
    run = _run_battery(config, battery, (GoodStrategy(1, config.eps, params), GoodStrategy(2, config.eps, params)))
    cells = []
    for b, (x1, devs) in enumerate(battery):
        measured = float(run.tail_max[b, 2])
        cells.append(_cell("t4", x1, devs, config.n, measured, cap, cap - measured, measured <= cap,
                           tail_intervals=run.intervals(b)))
    return VerifyReport(
        name="t4",
        cells=cells,
        meta={
            "eps": config.eps,
            "cap": bound,
            # The sharp cap is p3 + 2*eps/3; the coarser p3 + eps version some
            # statements use is implied by it.  Both are recorded, only the
            # sharp one is asserted.
            "coarse_cap": params.p3 + config.eps,
        },
    )


def verify_t2(config: HarnessConfig, pairs: list[tuple[Strategy, Strategy]] | None = None) -> VerifyReport:
    """One good player: floor r0 on own tail, cap 2*p3 on the deviators' sum,
    and vanishing distance to the closure of the invest region V1."""
    params = config.params
    if pairs is None:
        pairs = deviant_pairs(params, config.eps)
    v1 = RegionSpec("v", 1, config.eps)
    # own_tail_min is a floor, the other two are caps.
    bound = {
        "own_tail_min": params.r0 - config.slack,
        "deviators_tail_sum_max": 2.0 * params.p3 + config.slack,
        "dist_to_v1": config.dist_slack + grid_slack(DIST_PITCH),
    }
    battery = [(x1, pair) for x1 in config.start_points() for pair in pairs]
    run = _run_battery(config, battery, (GoodStrategy(1, config.eps, params),))
    cells = []
    for b, (x1, devs) in enumerate(battery):
        measured = {
            "own_tail_min": float(run.tail_min[b, 0]),
            "deviators_tail_sum_max": float(run.tail_max_23[b]),
            "dist_to_v1": dist_to_region(params, v1, tuple(run.final[b].tolist()), DIST_PITCH),
        }
        margin = {k: m - bound[k] if k == "own_tail_min" else bound[k] - m for k, m in measured.items()}
        checks = {k: bool(m >= 0.0) for k, m in margin.items()}
        cells.append(_cell("t2", x1, devs, config.n, measured, dict(bound), margin, all(checks.values()),
                           tail_intervals=run.intervals(b), checks=checks))
    return VerifyReport(name="t2", cells=cells, meta={"eps": config.eps})


# ---------------------------------------------------------------------------
# Worked example 1: planar two-value step map
# ---------------------------------------------------------------------------

def example1_phi(a, b):
    a, b = tuple(map(float, a)), tuple(map(float, b))

    def phi(x):
        return a if x[1] > 0 else b

    return phi


def example1_steps(a, b):
    """`example1_phi` on the rows of an (M, 2) array, as an (M, 2) array."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return lambda rows: np.where(rows[:, 1:] > 0, a, b)


def example1_limit(a, b) -> tuple[float, float]:
    """Intersection of the segment ab with the horizontal axis."""
    t = a[1] / (a[1] - b[1])
    return (a[0] + t * (b[0] - a[0]), 0.0)


def example1_starts(count: int, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-EXAMPLE1_BOX, EXAMPLE1_BOX, size=(count, 2))
    return [(float(p[0]), float(p[1])) for p in pts]


class BlackwellTargets(NamedTuple):
    """A worked example's Blackwell targets: the step map in column form, its
    sampled domain and the oracle of each named target set.  Building them
    is cheap; each `certify` call runs one certificate."""

    steps: Callable
    domain: np.ndarray
    pitch: float
    oracles: dict[str, ProximalOracle]

    def certify(self, name: str) -> CertReport:
        return replace(check_blackwell(self.steps, self.oracles[name], self.domain), grid_pitch=self.pitch)

    def certify_all(self) -> dict[str, CertReport]:
        return {f"blackwell_{name}": self.certify(name) for name in self.oracles}


def example1_targets(a=EXAMPLE1_A, b=EXAMPLE1_B, pitch: float = CERT_PITCH) -> BlackwellTargets:
    """The two-value map on a pitch grid of the box, against the axis and
    the segment ab (both hold) and the singleton {d} (a violation witness
    is expected: the singleton is a weak attractor that fails the
    condition)."""
    a, b = tuple(map(float, a)), tuple(map(float, b))
    if not (a[1] < 0.0 < b[1]):
        raise ValueError("need a below and b above the horizontal axis")
    if a[0] == b[0]:
        raise ValueError("need a1 != b1")
    box = polygon_2d([(sx * EXAMPLE1_BOX, sy * EXAMPLE1_BOX) for sx in (-1, 1) for sy in (-1, 1)])
    return BlackwellTargets(example1_steps(a, b), polygon_grid(box, pitch), pitch, {
        "line": LineOracle((0.0, 0.0), (1.0, 0.0)),
        "segment": SegmentsOracle([(a, b)]),
        "singleton": PointOracle(example1_limit(a, b)),
    })


def run_example1(a=EXAMPLE1_A, b=EXAMPLE1_B, starts=20, n: int = DEFAULT_N,
                 tol: float = 0.05, seed: int = 7) -> VerifyReport:
    """Mean dynamics of the two-value planar map.

    Checks convergence of every start (a list, or a count of random ones
    drawn by example1_starts with seed) to the segment/axis intersection
    d, and the certificates of all three example1_targets.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if isinstance(starts, int):
        starts = example1_starts(starts, seed)
    if not starts:
        raise ValueError("at least one start is required")
    certs = example1_targets(a, b).certify_all()
    a, b = tuple(map(float, a)), tuple(map(float, b))
    d = example1_limit(a, b)
    phi = example1_phi(a, b)
    cells = []
    for x1 in starts:
        traj = iterate(phi, x1, n)
        dist = math.hypot(traj.final[0] - d[0], traj.final[1] - d[1])
        cells.append(_cell("example1", x1, (), n, dist, tol, tol - dist, dist <= tol))
    checks = certs["blackwell_line"].holds and certs["blackwell_segment"].holds \
        and not certs["blackwell_singleton"].holds
    return VerifyReport(
        name="example1",
        cells=cells,
        meta={"a": list(a), "b": list(b), "limit": list(d),
              **{key: rep.as_dict() for key, rep in certs.items()}},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Worked example 2: the crafted defector on the symmetric slice Z
# ---------------------------------------------------------------------------

def z_grid(params: GameParams, pitch: float) -> np.ndarray:
    """Pitch grid of Z = {x in S : x1 = x2} as (M, 3) points (t, t, z)."""
    vs = vertices(params)
    z = polygon_2d([(p[0], p[2]) for p in (vs.A, vs.B, vs.c1[2], vs.c2[2])])
    return polygon_grid(z, pitch)[:, [0, 0, 1]]


def z_starts(params: GameParams) -> list[tuple[float, float, float]]:
    vs = vertices(params)
    mid_ab = tuple((va + vb) / 2.0 for va, vb in zip(vs.A, vs.B))
    low = tuple((va + vc) / 2.0 for va, vc in zip(vs.A, vs.c2[2]))
    high = tuple((vb + vc) / 2.0 for vb, vc in zip(vs.B, vs.c1[2]))
    return [vs.A, vs.B, mid_ab, low, high]


def z_near_segments(params: GameParams, segments, delta: float) -> np.ndarray:
    """The points of the pitch-delta/2 grid of Z within delta of the segments."""
    grid = z_grid(params, delta / 2)
    return grid[SegmentsOracle(segments).distances(grid) <= delta]


def intersect_at_d(finals, b, d, c1, c2, tol: float) -> dict:
    """Check that every final mean ends within tol of D, where the segment BD
    meets the triangle co{C1, C2, D} and nowhere else.

    That meeting is proved in exact rationals on Z, where the four points
    must lie (x1 == x2): in (t, z) = (x1, x3), with w = B - D, u = C1 - D,
    v = C2 - D and s = cross(u, v), w lies outside the cone of u and v, so
    BD meets the triangle only at D, when cross(u, w) s >= 0 and
    cross(w, v) s >= 0 do not both hold; a flat triangle (s = 0) fails.
    Premise: every final mean lies within tol of BD and of the triangle.
    Distances are maxima over the final means.
    """
    tz = [(Fraction(p[0]), Fraction(p[2])) for p in (b, d, c1, c2) if p[0] == p[1]]
    if len(tz) < 4:
        raise ValueError("B, D, C1 and C2 must lie on the slice Z (x1 == x2)")
    w, u, v = ((t - tz[1][0], z - tz[1][1]) for t, z in (tz[0], tz[2], tz[3]))
    s = u[0] * v[1] - u[1] * v[0]
    in_cone = (u[0] * w[1] - u[1] * w[0]) * s >= 0 and (w[0] * v[1] - w[1] * v[0]) * s >= 0
    da = float(np.max(SegmentsOracle([(b, d)]).distances(finals)))
    db = float(np.max(HullOracle([c1, c2, d]).distances(finals)))
    dd = max(norm3([f[k] - d[k] for k in range(3)]) for f in finals)
    premise_ok = da <= tol and db <= tol
    return {"passes": bool(premise_ok and not in_cone and dd <= tol),
            "premise_ok": bool(premise_ok), "dist_to_a": da, "dist_to_b": db,
            "dist_to_intersection": dd, "intersection": [[list(d), list(d)]], "tol": tol}


def _example2_setup(eps: float):
    """The canonical game, the defector, the profile (good, good, defector),
    the triangle co{C1_3, C2_3, D} and the segment chain BD u DC1_3."""
    params = example_game()
    defector = Example2Defector(params, eps)
    profile = (GoodStrategy(1, eps, params), GoodStrategy(2, eps, params), defector)
    vs = vertices(params)
    d_point = defector.d_point
    triangle = HullOracle([vs.c1[2], vs.c2[2], d_point])
    return params, defector, profile, triangle, [(vs.B, d_point), (d_point, vs.c1[2])]


def example2_targets(eps: float = DEFAULT_EPS, pitch: float = CERT_PITCH) -> BlackwellTargets:
    """The (good, good, defector) map on a pitch grid of the slice Z,
    against the triangle and the segment union."""
    params, _, profile, triangle, union_segments = _example2_setup(eps)
    return BlackwellTargets(induced_columns(profile, params), z_grid(params, pitch), pitch,
                            {"triangle": triangle, "union": SegmentsOracle(union_segments)})


def run_example2(eps: float = DEFAULT_EPS, starts=None, n: int = DEFAULT_N,
                 tol: float = 0.1) -> VerifyReport:
    """Good, good, crafted defector: play from Z converges to D.

    D = (p3 - eps/2, p3 - eps/2, p3 + eps/2), so the defector's tail mean
    strictly exceeds p3 while still respecting the t4 cap p3 + 2*eps/3.
    The attractor pipeline cross-check adds the certificates of both
    example2_targets (the triangle co{C1_3, C2_3, D} and the segment union
    BD u DC1_3 on Z), refines the union to the segment BD on samples of the
    slice grid near the union, and proves exactly that BD meets the triangle
    only at D; the refinement and the intersection check the final mean of
    every start.
    """
    if n < 2:
        raise ValueError("n must be at least 2: the deviator's tail minimum reads the second half of the run")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    params, defector, profile, _, union_segments = _example2_setup(eps)
    if starts is None:
        starts = z_starts(params)
    if not starts:
        raise ValueError("at least one start is required")
    vs = vertices(params)
    for x1 in starts:
        if x1[0] != x1[1]:
            raise ValueError(f"start {x1} is outside the slice Z (x1 != x2)")
        if not in_hull(vs.all_points(), x1):
            raise ValueError(f"start {x1} is outside the payoff hull S")
    d_point = defector.d_point
    phi = induced_map(profile, params)
    cells = []
    finals = []
    for x1 in starts:
        traj = iterate(phi, x1, n)
        finals.append(traj.final)
        dist = norm3([traj.final[k] - d_point[k] for k in range(3)])
        overshoot = float(traj.tail(0.5)[:, 2].min())
        cells.append(_cell("example2", x1, (defector,), n, dist, tol, tol - dist,
                           dist <= tol and overshoot > params.p3,
                           deviator_tail_min=overshoot, exceeds_p3=bool(overshoot > params.p3)))
    targets = example2_targets(eps)
    certs = targets.certify_all()
    refine = refine_attractor(targets.steps, union_segments, HullOracle(union_segments[0]), REFINE_SCHEDULE,
                              lambda delta: z_near_segments(params, union_segments, delta),
                              finals, tol)
    intersect = intersect_at_d(finals, vs.B, d_point, vs.c1[2], vs.c2[2], tol)
    meta = {"eps": eps, "d_point": list(d_point),
            **{key: rep.as_dict() for key, rep in certs.items()},
            "refine_to_bd": refine, "intersect_bd_triangle": intersect}
    checks = all(rep.holds for rep in certs.values()) and refine["passes"] and intersect["passes"]
    return VerifyReport(name="example2", cells=cells, meta=meta, checks=checks)
