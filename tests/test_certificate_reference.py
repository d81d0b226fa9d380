"""The array-pass certificates against a per-sample reference loop.

The reference below is the per-sample form of each certificate: it walks
the samples in order, evaluates one sample at a time and stops at the first
violation, whose details become the witness.  Inner products are summed in
index order (dot3's operand order), as the array passes sum them, and every
projection is the oracle's one-point `project`.  The array passes must agree
with it on `holds`, `checked` and the whole witness, and on the decay
report's fields to within 1e-12; the example-2 defector's decay reports are
pinned exactly.  The hull face solve is checked bit for bit against a
per-row reference in its own operand order.
"""

import json
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from investgame import geometry
from investgame.approachability import (
    CertReport,
    DecayReport,
    HullOracle,
    SegmentsOracle,
    check_blackwell,
    clip_segments_to_neighborhood,
    decay_bound_check,
    premise_start,
)
from investgame.cli import main
from investgame.dynamics import iterate
from investgame.geometry import dot3, plane_grid, project_plane
from investgame.harness import (
    _example2_setup,
    example1_phi,
    example1_targets,
    example2_targets,
    z_grid,
    z_near_segments,
)
from investgame.lyapunov import (
    EntrapmentReport,
    LyapunovConstants,
    PlaneMultiMap,
    SupportSpec,
    _support,
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
)
from investgame.stage_game import example_game, vertices
from investgame.strategies import ConstantStrategy, GoodStrategy, good_profile, induced_columns, induced_map

PARAMS = example_game()
VS = vertices(PARAMS)
S2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# The per-sample reference loop
# ---------------------------------------------------------------------------

def ref_first_violation(samples, violation) -> CertReport:
    checked = 0
    for x in samples:
        checked += 1
        witness = violation(x)
        if witness is not None:
            return CertReport(holds=False, witness=witness, checked=checked)
    return CertReport(holds=True, witness=None, checked=checked)


def _dot(a, b) -> float:
    out = float(a[0]) * float(b[0])
    for k in range(1, len(a)):
        out += float(a[k]) * float(b[k])
    return out


def ref_best_inner(x, step, proximal):
    step = np.asarray(step, dtype=float)
    best, best_y = math.inf, None
    for y in proximal:
        inner = _dot(x - y, step - y)
        if inner < best:
            best, best_y = inner, y
    return best, best_y


def ref_check_blackwell(phi, oracle, domain, tol=1e-9):
    def violation(x):
        step = phi(tuple(x))
        point = np.asarray(x, dtype=float)
        inner, y = ref_best_inner(point, step, oracle.project(point))
        if inner > tol:
            return {"x": [float(c) for c in x], "phi_x": [float(c) for c in step],
                    "proximal": [float(c) for c in y], "inner": inner}
        return None

    return ref_first_violation(domain, violation)


def ref_premise_start(traj, oracle, tol=1e-9):
    last_bad = 0
    for n in range(1, traj.horizon):
        x = np.asarray(traj.means[n - 1], dtype=float)
        inner, _ = ref_best_inner(x, traj.steps[n - 1], oracle.project(x))
        if inner > tol:
            last_bad = n
    return last_bad + 1 if last_bad + 1 < traj.horizon else None


def ref_decay_bound_check(traj, oracle, n0, tol=1e-9) -> DecayReport:
    premise_ok = True
    c_const = 0.0
    dists = np.empty(traj.horizon - n0 + 1)
    for n in range(n0, traj.horizon + 1):
        x = np.asarray(traj.means[n - 1], dtype=float)
        proximal = oracle.project(x)
        if n < traj.horizon:
            step = np.asarray(traj.steps[n - 1], dtype=float)
            inner, y = ref_best_inner(x, step, proximal)
            if inner > tol:
                premise_ok = False
            c_const = max(c_const, _dot(step - y, step - y))
        dists[n - n0] = math.sqrt(_dot(proximal[0] - x, proximal[0] - x))
    d_n0 = n0 * n0 * dists[0] ** 2
    ns = np.arange(n0, traj.horizon + 1, dtype=float)
    bounds = (d_n0 + (ns - n0) * c_const) / ns**2
    sq = dists**2
    violations = int(np.sum(sq > bounds + tol))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, sq / bounds, np.where(sq <= tol, 0.0, np.inf))
    return DecayReport(ok=premise_ok and violations == 0, premise_ok=premise_ok, n0=n0,
                       c_const=c_const, d_n0=float(d_n0), max_ratio=float(np.max(ratios)),
                       violations=violations)


def ref_check_lyapunov(spec, mmap, grid, tol=1e-9):
    def violation(x):
        v, active = support_value(spec, x)
        values = mmap(x)
        for i in active:
            for w in values:
                inner = dot3(spec.vectors[i], w)
                if inner > tol:
                    return {"x": list(x), "direction_index": i + 1, "value": list(w),
                            "inner": inner, "support": v}
        return None

    return ref_first_violation(grid, violation)


def ref_decrease_check(spec, mmap, consts, grid, tol=1e-9, alphas=None):
    """The decrease test at each sample, map value and alpha in `alphas`
    (alpha0 alone by default), in that order."""
    alphas = (consts.alpha0,) if alphas is None else alphas

    def violation(x):
        v, _ = support_value(spec, x)
        for w in mmap(x):
            for a in alphas:
                pt = (a * w[0] + (1 - a) * x[0], a * w[1] + (1 - a) * x[1], a * w[2] + (1 - a) * x[2])
                val = max(dot3(p, pt) for p in spec.vectors)
                if val > v - a * consts.gamma + tol:
                    return {"x": list(x), "value": list(w), "alpha": a,
                            "lhs": val, "rhs": v - a * consts.gamma}
        return None

    return ref_first_violation(grid, violation)


def ladder(consts):
    """The alphas alpha0/8, alpha0/4, alpha0/2 and alpha0: by convexity they
    fail where alpha0 fails, which the tests check against alpha0 alone."""
    a0 = consts.alpha0
    return (a0 / 8, a0 / 4, a0 / 2, a0)


def assert_same_report(got: CertReport, want: CertReport):
    assert got.holds == want.holds
    assert got.checked == want.checked
    assert got.grid_pitch == want.grid_pitch
    assert got.witness == want.witness


# ---------------------------------------------------------------------------
# Blackwell certificates
# ---------------------------------------------------------------------------

def _example2_phi(eps):
    """The scalar step map of example 2's profile (good, good, defector)."""
    return induced_map(_example2_setup(eps)[2], PARAMS)


def _blackwell_cases():
    """(name, scalar phi, column steps, oracle, domain) of every
    certificate target and of a failing refinement stage."""
    cases = []
    for label, phi, targets in (
            ("example1", example1_phi((0.0, -1.0), (2.0, 1.0)), example1_targets((0.0, -1.0), (2.0, 1.0))),
            ("example2", _example2_phi(0.4), example2_targets(0.4)),
            ("example1-other-ab", example1_phi((0.3, -1.7), (2.1, 0.9)),
             example1_targets((0.3, -1.7), (2.1, 0.9), pitch=0.13)),
            ("example2-eps0.1", _example2_phi(0.1), example2_targets(0.1, 0.2))):
        cases += [(f"{label}-{name}", phi, targets.steps, oracle, targets.domain)
                  for name, oracle in targets.oracles.items()]
    # a refinement stage whose clip radius is too small: a failing witness
    # on a clipped segment, where nothing is exactly representable
    _, _, profile, _, union = _example2_setup(0.4)
    clipped = SegmentsOracle(clip_segments_to_neighborhood(union, HullOracle(union[0]), 0.1))
    cases.append(("clipped", induced_map(profile, PARAMS), induced_columns(profile, PARAMS), clipped,
                  z_near_segments(PARAMS, union, 0.3)))
    return cases


@pytest.mark.parametrize("case", _blackwell_cases(), ids=lambda c: c[0])
def test_blackwell_matches_reference(case):
    # the array pass runs the column map; the reference, phi on one sample at a time
    _, phi, steps, oracle, domain = case
    got = check_blackwell(steps, oracle, domain)
    assert_same_report(got, ref_check_blackwell(phi, oracle, domain))


@pytest.mark.parametrize("case", [c for c in _blackwell_cases() if c[0].endswith(("line", "triangle", "clipped"))],
                         ids=lambda c: c[0])
def test_column_steps_match_phi_on_the_certificate_grid(case):
    # example 1's box at both pitches, example 2's slice grid at eps 0.4 and
    # 0.1, and the clipped refinement stage's domain near the union
    _, phi, steps, _, domain = case
    want = np.array([phi(x) for x in map(tuple, domain.tolist())])
    assert steps(domain).tobytes() == want.tobytes()


def test_blackwell_forced_failures_are_covered():
    verdicts = {name: check_blackwell(steps, oracle, domain).holds
                for name, _, steps, oracle, domain in _blackwell_cases()}
    assert [name for name, holds in verdicts.items() if not holds] == \
        ["example1-singleton", "example1-other-ab-singleton", "clipped"]


def test_blackwell_on_an_empty_domain_holds_vacuously():
    # a pitch wider than the slice leaves no grid point
    targets = example2_targets(0.4, pitch=1000.0)
    assert targets.domain.shape == (0, 3)
    rep = targets.certify("triangle")
    assert_same_report(rep, replace(ref_check_blackwell(_example2_phi(0.4), targets.oracles["triangle"], []),
                                    grid_pitch=1000.0))
    assert rep.holds and rep.checked == 0


def ref_z_near_segments(params, segments, delta):
    """The per-point filter: each point of the pitch-delta/2 slice grid
    projected alone, kept as a float tuple (t, t, z) when its distance to
    the segments, summed in index order, is at most delta."""
    oracle = SegmentsOracle(segments)
    out = []
    for x in z_grid(params, delta / 2):
        y = oracle.project(x)[0]
        if math.sqrt(_dot(y - x, y - x)) <= delta:
            out.append(tuple(x.tolist()))
    return out


@pytest.mark.parametrize("eps", [0.4, 0.1])
@pytest.mark.parametrize("delta", [0.5, 0.3, 0.15])
def test_slice_samples_match_the_per_point_loop(eps, delta):
    # example 2's union BD u DC1_3, at the refinement schedule's deltas
    _, _, _, _, union = _example2_setup(eps)
    got = z_near_segments(PARAMS, union, delta)
    want = ref_z_near_segments(PARAMS, union, delta)
    assert got.dtype == float and got.shape == (len(want), 3)
    assert list(map(tuple, got.tolist())) == want
    assert 0 < len(want) < len(z_grid(PARAMS, delta / 2))


@pytest.mark.parametrize("pitch", [0.25, 0.13])
@pytest.mark.parametrize("spec", [six_direction_spec(0.3), four_direction_spec(0.5 / S2, 0.1 / (2 * S2))],
                         ids=["six", "four"])
def test_certification_grid_matches_the_list(spec, pitch):
    # reference: the grid outside Delta_c as a list of float tuples, from its columns
    cols = plane_grid(PARAMS, pitch).T
    outside = _support(spec, cols) >= spec.c
    want = list(zip(*(c[outside].tolist() for c in cols)))
    got = certification_grid(spec, PARAMS, pitch)
    assert got.dtype == float and got.shape == (len(want), 3)
    assert list(map(tuple, got.tolist())) == want


def test_singleton_witness_reproduces_exactly():
    rep = example1_targets((0.0, -1.0), (2.0, 1.0)).certify("singleton")
    w = rep.witness
    x, fx, y = (np.asarray(w[k]) for k in ("x", "phi_x", "proximal"))
    assert _dot(x - y, fx - y) == w["inner"] > 0


# ---------------------------------------------------------------------------
# Lyapunov and decrease certificates
# ---------------------------------------------------------------------------

def _plane_cases():
    eps, eta = 0.4, 0.1
    two_good = four_direction_spec((eps + eta) / S2, delta=eta / (2 * S2))
    return {
        # the README configurations
        "all_good": (six_direction_spec(0.3), good_profile_plane_map(PARAMS)),
        "two_good": (two_good, two_good_plane_map(PARAMS, eps)),
        # c below eps / sqrt(2): the v1/v2 drop rules cannot fire in time
        "two_good_small_c": (four_direction_spec(0.1, 0.05), two_good_plane_map(PARAMS, eps)),
    }


@pytest.mark.parametrize("name", sorted(_plane_cases()))
def test_lyapunov_matches_reference(name):
    spec, mmap = _plane_cases()[name]
    grid = certification_grid(spec, PARAMS, 0.25)
    got = check_lyapunov(spec, mmap, grid)
    assert_same_report(got, ref_check_lyapunov(spec, mmap, grid))
    if name == "two_good_small_c":
        assert not got.holds


def _decrease_cases():
    out = []
    for name, (spec, mmap) in _plane_cases().items():
        out.append((name, spec, mmap, t1_constants(spec, 60.0)))
    spec, mmap = _plane_cases()["all_good"]
    # alpha0 past its cap: alpha0 = 1 fails at the first sample, 0.05
    # midway through the grid
    out.append(("alpha_override", spec, mmap, replace(t1_constants(spec, 60.0), alpha0=1.0)))
    out.append(("mid_grid_alpha", spec, mmap, replace(t1_constants(spec, 60.0), alpha0=0.05)))
    inflated = LyapunovConstants(m_bound=60.0, delta=spec.delta, r=spec.delta / 4, gamma=10.0, alpha0=3e-4)
    out.append(("inflated_gamma", spec, mmap, inflated))
    return out


@pytest.mark.parametrize("case", _decrease_cases(), ids=lambda c: c[0])
def test_decrease_matches_reference(case):
    name, spec, mmap, consts = case
    grid = certification_grid(spec, PARAMS, 0.25)
    got = decrease_check(spec, mmap, consts, grid)
    assert_same_report(got, ref_decrease_check(spec, mmap, consts, grid))
    assert got.holds == (name in ("all_good", "two_good"))
    # the four-alpha ladder fails at the same sample and map value; the witness alpha is alpha0
    old = ref_decrease_check(spec, mmap, consts, grid, alphas=ladder(consts))
    assert (old.holds, old.checked) == (got.holds, got.checked)
    if not got.holds:
        assert (old.witness["x"], old.witness["value"]) == (got.witness["x"], got.witness["value"])
        assert got.witness["alpha"] == consts.alpha0


def _failing_rows(spec, mmap, consts, grid, alphas) -> np.ndarray:
    """Which grid rows fail the decrease test at some kept map value and alpha."""
    cols = grid.T
    support, alive = _support(spec, cols), mmap.alive(cols)
    fail = np.zeros(len(grid), dtype=bool)
    for j, w in enumerate(mmap.values):
        for a in alphas:
            lhs = _support(spec, [a * w[c] + (1 - a) * cols[c] for c in range(3)])
            fail |= alive[:, j] & (lhs > support - a * consts.gamma + 1e-9)
    return fail


def test_alpha0_fails_exactly_where_the_ladder_fails():
    # f(a) = V(a w + (1-a) x) - V(x) + a gamma is convex with f(0) = 0, so a
    # smaller alpha fails only where alpha0 fails; swept over both maps, c
    # from 0.05 to 3, two pitches, a feasible alpha0 and two inflated ones
    mixed = 0
    for c in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0):
        for spec, mmap in ((six_direction_spec(c), good_profile_plane_map(PARAMS)),
                           (four_direction_spec(c, c / 4), two_good_plane_map(PARAMS, 0.4))):
            feasible = t1_constants(spec, 60.0)
            for consts in (feasible, t1_constants(spec, 0.01), replace(feasible, alpha0=1.0)):
                for pitch in (0.25, 0.13):
                    grid = certification_grid(spec, PARAMS, pitch)
                    fail = _failing_rows(spec, mmap, consts, grid, (consts.alpha0,))
                    assert fail.tolist() == _failing_rows(spec, mmap, consts, grid, ladder(consts)).tolist()
                    rep = decrease_check(spec, mmap, consts, grid)
                    assert (rep.holds, rep.checked) == ((True, len(grid)) if not fail.any()
                                                        else (False, int(np.argmax(fail)) + 1))
                    mixed += 0 < fail.sum() < len(grid)
    assert mixed >= 10  # the sweep separates failing rows from holding ones


def test_witness_is_the_first_failing_pair_of_the_sample():
    # at this one sample several pairs fail: the witness is the first in the
    # per-sample order, directions before values
    spec = six_direction_spec(0.3)
    grid = [(1.0, -0.5, -0.5)]
    mmap = PlaneMultiMap([(-1.0, -2.0, 3.0), (1.0, 0.0, -1.0)], (), label="probe")
    rep = check_lyapunov(spec, mmap, grid)
    assert_same_report(rep, ref_check_lyapunov(spec, mmap, grid))
    assert (rep.witness["direction_index"], rep.witness["value"]) == (5, [1.0, 0.0, -1.0])
    mmap = PlaneMultiMap([(-2.0, 4.0, -2.0), (2.0, -1.0, -1.0)], (), label="probe")
    # at alpha0 = 0.9 both values fail: the witness is the first value.  On
    # the ladder (0.1125, 0.225, 0.45, 0.9) the second fails from the first
    # alpha, the first only from the third, and its witness is the first
    # value too, at 0.45
    consts = replace(t1_constants(spec, 60.0), alpha0=0.9)
    rep = decrease_check(spec, mmap, consts, grid)
    assert_same_report(rep, ref_decrease_check(spec, mmap, consts, grid))
    assert (rep.witness["value"], rep.witness["alpha"]) == ([-2.0, 4.0, -2.0], 0.9)
    old = ref_decrease_check(spec, mmap, consts, grid, alphas=ladder(consts))
    assert (old.witness["value"], old.witness["alpha"]) == ([-2.0, 4.0, -2.0], 0.45)


def test_delta_active_set_includes_its_boundary():
    # V_2(x) = V(x) - delta exactly: direction 2 is delta-active
    spec = SupportSpec(vectors=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), c=0.3, delta=0.25)
    grid = [(0.5, 0.25, -0.75)]
    mmap = PlaneMultiMap([(0.0, 1.0, -1.0)], (), label="probe")
    rep = check_lyapunov(spec, mmap, grid)
    assert_same_report(rep, ref_check_lyapunov(spec, mmap, grid))
    assert rep.witness["direction_index"] == 2


def test_empty_decrease_grid_holds_vacuously():
    spec, mmap = _plane_cases()["all_good"]
    rep = decrease_check(spec, mmap, t1_constants(spec, 60.0), [])
    assert rep.holds and rep.checked == 0


# ---------------------------------------------------------------------------
# Premise and decay bound
# ---------------------------------------------------------------------------

def _decay_cases():
    _, _, profile, triangle, union = _example2_setup(0.4)
    defector = iterate(induced_map(profile, PARAMS), VS.A, 5000)
    targets = example1_targets((0.0, -1.0), (2.0, 1.0))
    planar = iterate(example1_phi((0.0, -1.0), (2.0, 1.0)), (2.5, -1.7), 3000)
    return [
        ("defector-triangle", defector, triangle),
        ("defector-union", defector, SegmentsOracle(union)),
        ("planar-line", planar, targets.oracles["line"]),
        ("planar-segment", planar, targets.oracles["segment"]),
        # the singleton fails the condition: the premise never settles
        ("planar-singleton", planar, targets.oracles["singleton"]),
    ]


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("case", _decay_cases(), ids=lambda c: c[0])
def test_premise_and_decay_match_reference(case):
    _, traj, oracle = case
    n0 = premise_start(traj, oracle)
    assert n0 == ref_premise_start(traj, oracle)
    for start in {1, n0 or 1, traj.horizon}:
        got = decay_bound_check(traj, oracle, start)
        want = ref_decay_bound_check(traj, oracle, start)
        assert (got.ok, got.premise_ok, got.n0, got.violations) == \
            (want.ok, want.premise_ok, want.n0, want.violations)
        for field in ("c_const", "d_n0", "max_ratio"):
            assert _close(getattr(got, field), getattr(want, field)), field


# The defector's reports bit for bit, where the test above allows 1e-12.
DEFECTOR_DECAY = {
    ("defector-triangle", 1): (272.10265197451054, 26.630136986301387, 1.0),
    ("defector-triangle", 2500): (272.10265197451054, 0.0, 2.250896431977547e-06),
    ("defector-triangle", 5000): (0.0, 0.0, 0.0),
    ("defector-union", 1): (272.1026487156969, 85.09304718506542, 1.0),
    ("defector-union", 2500): (272.1026487156969, 4.520358665304089, 1.0),
    ("defector-union", 5000): (0.0, 14.229016610367541, 1.0),
}


@pytest.mark.parametrize("case", _decay_cases()[:2], ids=lambda c: c[0])
def test_defector_decay_reports_are_exact(case):
    name, traj, oracle = case
    assert premise_start(traj, oracle) == 1
    for n0 in (1, 2500, 5000):
        c_const, d_n0, max_ratio = DEFECTOR_DECAY[name, n0]
        assert decay_bound_check(traj, oracle, n0).as_dict() == {
            "ok": True, "premise_ok": True, "n0": n0, "c_const": c_const, "d_n0": d_n0,
            "max_ratio": max_ratio, "violations": 0}


def test_decay_forced_failure_is_covered():
    _, traj, oracle = _decay_cases()[-1]
    rep = decay_bound_check(traj, oracle, 1)
    assert not rep.premise_ok and not rep.ok


def test_premise_on_a_one_stage_trajectory():
    traj = iterate(lambda x: (0.0, 0.0), (1.0, 1.0), 1)
    assert premise_start(traj, SegmentsOracle([((0.0, 0.0), (1.0, 0.0))])) is None


# ---------------------------------------------------------------------------
# Face kernel
# ---------------------------------------------------------------------------

def ref_nearest_on_faces(faces, pts):
    """Per row in Python floats: each face's weights w_j = sum_i solve[j][i]
    g_i + solve[j][s] with g_i = <subs[i], x>, its point sum_j w_j subs[j]
    and the distance to it, every sum in index order and padded slots
    included, as the kernel sums them.  Faces with a weight below
    -FACE_WEIGHT_TOL are skipped; the first face wins a tie."""
    origin, subs, solve = (a.tolist() for a in faces)
    s, d = len(subs[0]), len(origin)
    near, dist = [], []
    for p in np.asarray(pts, dtype=float).tolist():
        x = [p[k] - origin[k] for k in range(d)]
        best, best_cand = math.inf, None
        for sub, sol in zip(subs, solve):
            g = [_dot(sub[i], x) for i in range(s)]
            w = [_dot(sol[j][:s], g) + sol[j][s] for j in range(s)]
            if min(w) < -geometry.FACE_WEIGHT_TOL:
                continue
            cand = [_dot(w, [sub[j][k] for j in range(s)]) for k in range(d)]
            diff = [cand[k] - x[k] for k in range(d)]
            gap = math.sqrt(_dot(diff, diff))
            if gap < best:
                best, best_cand = gap, cand
        near.append([best_cand[k] + origin[k] for k in range(d)])
        dist.append(best)
    return near, dist


def _face_cases():
    _, _, profile, triangle, _ = _example2_setup(0.4)
    hull = HullOracle(VS.all_points())  # F = 150 faces of up to s = 4 points: s > d
    hexagon = HullOracle(geometry.hexagon_2d(PARAMS))
    rng = np.random.default_rng(7)
    cases = []
    for name, oracle in (("triangle", triangle), ("hull", hull), ("hexagon", hexagon)):
        pts, d = oracle.points, oracle.points.shape[1]
        mid = [(a + b) / 2 for a, b in combinations(pts, 2)]
        cases += [(f"{name}-random", oracle, rng.normal(0.0, 30.0, (120, d))),
                  (f"{name}-corners", oracle, np.vstack([pts, mid]))]
    cases += [("triangle-z-grid", triangle, z_grid(PARAMS, 0.25)),
              ("triangle-defector", triangle, iterate(induced_map(profile, PARAMS), VS.A, 5000).means_array())]
    return cases


@pytest.mark.parametrize("case", _face_cases(), ids=lambda c: c[0])
def test_nearest_on_faces_matches_the_reference(case):
    _, oracle, pts = case
    near, dist = geometry.nearest_on_faces(oracle._faces, pts)
    want_near, want_dist = ref_nearest_on_faces(oracle._faces, pts)
    assert near.tolist() == want_near
    assert dist.tolist() == want_dist


# ---------------------------------------------------------------------------
# Pass size
# ---------------------------------------------------------------------------

CERTIFY_RUNS = [("blackwell", {"target": t}) for t in (
    "example1_line", "example1_segment", "example1_singleton", "example2_triangle", "example2_union")] + [
    ("lyapunov", {"map": "all_good", "c": 0.3}),
    ("decrease", {"map": "two_good", "eps": 0.4, "eta": 0.1}),
]


def _certify_reports(tmp_path, capsys):
    """Exit code and report bytes of each certify command at pitch 0.25, then
    premise_start and the decay report of the example-2 defector's run
    (5000 stages from A) against the triangle and the segment union."""
    reports = []
    cfg = tmp_path / "cfg.json"
    for kind, body in CERTIFY_RUNS:
        cfg.write_text(json.dumps(body))
        reports.append((main(["certify", kind, str(cfg), "--pitch", "0.25"]), capsys.readouterr().out))
    # a new run, so no projection is kept from the other pass size
    traj = iterate(_example2_phi(0.4), VS.A, 5000)
    _, _, _, triangle, union = _example2_setup(0.4)
    for oracle in (triangle, SegmentsOracle(union)):
        n0 = premise_start(traj, oracle)
        reports.append((n0, decay_bound_check(traj, oracle, n0).as_dict()))
    return reports


def test_reports_do_not_depend_on_the_pass_size(tmp_path, capsys, monkeypatch):
    # the triangle's F * max(s, d) elements, the widest row of its face
    # solve: each face pass holds one row, and every other pass a few rows,
    # so that passes end at many offsets
    subs = _example2_setup(0.4)[3]._faces[1]
    monkeypatch.setattr(geometry, "PASS_ELEMENTS", len(subs) * max(subs.shape[1:]))
    tiny = _certify_reports(tmp_path, capsys)
    monkeypatch.undo()
    assert tiny == _certify_reports(tmp_path, capsys)


# ---------------------------------------------------------------------------
# Entrapment
# ---------------------------------------------------------------------------

def ref_entrapment_check(spec, means, c1) -> EntrapmentReport:
    """V of each projected mean in a Python loop; the last stage at or above
    c1 bounds the entry stage."""
    vals = [max(dot3(p, project_plane(x)) for p in spec.vectors) for x in means]
    last_bad = 0
    for idx, v in enumerate(vals, start=1):
        if v >= c1:
            last_bad = idx
    if last_bad == len(vals):
        return EntrapmentReport(ok=False, entry_index=None, c1=c1, max_after_entry=vals[-1])
    entry = last_bad + 1
    return EntrapmentReport(ok=True, entry_index=entry, c1=c1, max_after_entry=max(vals[entry - 1:]))


def _entrapment_cases():
    start = tuple(0.7 * a + 0.3 * b for a, b in zip(VS.c1[0], VS.B))
    deviant = (GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS), ConstantStrategy("NI"))
    six = six_direction_spec(0.4 / S2)
    four = four_direction_spec(0.5 / S2, delta=0.1 / (2 * S2))
    return [
        ("all-good", six, iterate(induced_map(good_profile(PARAMS, 0.4), PARAMS), start, 20_000).means),
        ("two-good", four, iterate(induced_map(deviant, PARAMS), start, 20_000).means),
        ("origin", six_direction_spec(0.3), [(0.0, 0.0, 0.0)] * 100),
        # the tail never enters: the report fails
        ("outside", six_direction_spec(0.3), [project_plane((36.0, 18.0, 18.0))] * 50),
    ]


@pytest.mark.parametrize("case", _entrapment_cases(), ids=lambda c: c[0])
def test_entrapment_matches_reference(case):
    _, spec, means = case
    got = entrapment_check(spec, means, 1.5 * spec.c)
    assert got == ref_entrapment_check(spec, means, 1.5 * spec.c)
