"""The array-pass certificates against a per-sample reference loop.

The reference below is the per-sample form of each certificate: it walks
the samples in order, evaluates one sample at a time and stops at the first
violation, whose details become the witness.  Inner products are summed in
index order (dot3's operand order), as the array passes sum them, and every
projection is the oracle's one-point `project`.  The array passes must agree
with it on `holds`, `checked` and the whole witness, and on the decay
report's fields to within 1e-12.
"""

import math

import numpy as np
import pytest

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
from investgame.dynamics import iterate
from investgame.geometry import dot3, hull_mask, plane_grid, project_plane
from investgame.harness import (
    Z_ALONG_PITCH,
    Z_OFFSETS,
    _example2_setup,
    example1_targets,
    example2_targets,
    sample_near_segments_z,
    z_polygon_2d,
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
from investgame.strategies import ConstantStrategy, GoodStrategy, good_profile, induced_map

PARAMS = example_game()
VS = vertices(PARAMS)
S2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# The per-sample reference loop
# ---------------------------------------------------------------------------

def ref_first_violation(samples, violation, pitch=None) -> CertReport:
    checked = 0
    for x in samples:
        checked += 1
        witness = violation(x)
        if witness is not None:
            return CertReport(holds=False, witness=witness, checked=checked, grid_pitch=pitch)
    return CertReport(holds=True, witness=None, checked=checked, grid_pitch=pitch)


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


def ref_check_blackwell(phi, oracle, domain, pitch=None, tol=1e-9):
    def violation(x):
        step = phi(tuple(x))
        point = np.asarray(x, dtype=float)
        inner, y = ref_best_inner(point, step, oracle.project(point))
        if inner > tol:
            return {"x": [float(c) for c in x], "phi_x": [float(c) for c in step],
                    "proximal": [float(c) for c in y], "inner": inner}
        return None

    return ref_first_violation(domain, violation, pitch)


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
    bounds = (d_n0 + (ns - n0) * c_const) / ns
    sq = dists**2
    violations = int(np.sum(sq > bounds + tol))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bounds > 0, sq / bounds, np.where(sq <= tol, 0.0, np.inf))
    return DecayReport(ok=premise_ok and violations == 0, premise_ok=premise_ok, n0=n0,
                       c_const=c_const, d_n0=float(d_n0), max_ratio=float(np.max(ratios)),
                       violations=violations)


def ref_check_lyapunov(spec, mmap, grid, tol=1e-9, pitch=None):
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

    return ref_first_violation(grid, violation, pitch)


def ref_decrease_check(spec, mmap, consts, grid, alphas=None, tol=1e-9, pitch=None):
    if alphas is None:
        a0 = consts.alpha0
        alphas = (a0 / 8, a0 / 4, a0 / 2, a0)

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

    return ref_first_violation(grid, violation, pitch)


def assert_same_report(got: CertReport, want: CertReport):
    assert got.holds == want.holds
    assert got.checked == want.checked
    assert got.grid_pitch == want.grid_pitch
    assert got.witness == want.witness


# ---------------------------------------------------------------------------
# Blackwell certificates
# ---------------------------------------------------------------------------

def _blackwell_cases():
    cases = []
    for label, targets in (("example1", example1_targets((0.0, -1.0), (2.0, 1.0))),
                           ("example2", example2_targets(0.4)),
                           ("example1-other-ab", example1_targets((0.3, -1.7), (2.1, 0.9), pitch=0.13)),
                           ("example2-eps0.1", example2_targets(0.1, 0.2))):
        cases += [(f"{label}-{name}", targets.phi, oracle, targets.domain, targets.pitch)
                  for name, oracle in targets.oracles.items()]
    # a refinement stage whose clip radius is too small: a failing witness
    # on a clipped segment, where nothing is exactly representable
    _, _, phi, _, union = _example2_setup(0.4)
    clipped = SegmentsOracle(clip_segments_to_neighborhood(union, HullOracle(union[0]), 0.1))
    cases.append(("clipped", phi, clipped, sample_near_segments_z(PARAMS, union, 0.3), None))
    return cases


@pytest.mark.parametrize("case", _blackwell_cases(), ids=lambda c: c[0])
def test_blackwell_matches_reference(case):
    _, phi, oracle, domain, pitch = case
    got = check_blackwell(phi, oracle, domain, pitch)
    assert_same_report(got, ref_check_blackwell(phi, oracle, domain, pitch))


def test_blackwell_forced_failures_are_covered():
    verdicts = {name: check_blackwell(phi, oracle, domain, pitch).holds
                for name, phi, oracle, domain, pitch in _blackwell_cases()}
    assert [name for name, holds in verdicts.items() if not holds] == \
        ["example1-singleton", "example1-other-ab-singleton", "clipped"]


def test_blackwell_on_an_empty_domain_holds_vacuously():
    # a pitch wider than the slice leaves no grid point
    targets = example2_targets(0.4, pitch=1000.0)
    assert targets.domain.shape == (0, 3)
    rep = targets.certify("triangle")
    assert_same_report(rep, ref_check_blackwell(targets.phi, targets.oracles["triangle"], [], 1000.0))
    assert rep.holds and rep.checked == 0


def ref_sample_near_segments_z(params, segments, delta):
    """The per-point sampler: one hull test per candidate, kept points as
    float tuples (t, t, z)."""
    poly_key = [tuple(p) for p in z_polygon_2d(params)]
    out = []
    for a3, b3 in segments:
        a2 = np.array([a3[0], a3[2]])
        b2 = np.array([b3[0], b3[2]])
        u = b2 - a2
        length = float(np.linalg.norm(u))
        n_along = max(2, int(length / Z_ALONG_PITCH) + 1)
        normal = np.array([-u[1], u[0]]) / (length if length else 1.0)
        for t in np.linspace(0.0, 1.0, n_along):
            base = a2 + t * u
            for off in np.linspace(-delta, delta, Z_OFFSETS):
                q = base + off * normal
                if hull_mask(poly_key, q.reshape(1, 2))[0]:
                    out.append((float(q[0]), float(q[0]), float(q[1])))
    return out


@pytest.mark.parametrize("eps", [0.4, 0.1])
@pytest.mark.parametrize("delta", [0.5, 0.3, 0.15])
def test_slice_samples_match_the_per_point_loop(eps, delta):
    # example 2's union BD u DC1_3, at the refinement schedule's deltas
    _, _, _, _, union = _example2_setup(eps)
    got = sample_near_segments_z(PARAMS, union, delta)
    want = ref_sample_near_segments_z(PARAMS, union, delta)
    assert got.dtype == float and got.shape == (len(want), 3)
    assert list(map(tuple, got.tolist())) == want


def test_slice_samples_of_no_segments():
    assert sample_near_segments_z(PARAMS, [], 0.3).shape == (0, 3)


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
    got = check_lyapunov(spec, mmap, grid, pitch=0.25)
    assert_same_report(got, ref_check_lyapunov(spec, mmap, grid, pitch=0.25))
    if name == "two_good_small_c":
        assert not got.holds


def _decrease_cases():
    out = []
    for name, (spec, mmap) in _plane_cases().items():
        out.append((name, spec, mmap, t1_constants(spec, 60.0), None))
    spec, mmap = _plane_cases()["all_good"]
    out.append(("alpha_override", spec, mmap, t1_constants(spec, 60.0), (0.5, 1.0)))
    out.append(("mid_grid_alpha", spec, mmap, t1_constants(spec, 60.0), (0.01, 0.05)))
    inflated = LyapunovConstants(m_bound=60.0, delta=spec.delta, r=spec.delta / 4, gamma=10.0, alpha0=3e-4)
    out.append(("inflated_gamma", spec, mmap, inflated, None))
    return out


@pytest.mark.parametrize("case", _decrease_cases(), ids=lambda c: c[0])
def test_decrease_matches_reference(case):
    name, spec, mmap, consts, alphas = case
    grid = certification_grid(spec, PARAMS, 0.25)
    got = decrease_check(spec, mmap, consts, grid, alphas=alphas, pitch=0.25)
    assert_same_report(got, ref_decrease_check(spec, mmap, consts, grid, alphas=alphas, pitch=0.25))
    assert got.holds == (name in ("all_good", "two_good"))


def test_witness_is_the_first_failing_pair_of_the_sample():
    # at this one sample several pairs fail: the witness is the first in the
    # per-sample order, directions before values and values before alphas
    spec = six_direction_spec(0.3)
    grid = [(1.0, -0.5, -0.5)]
    mmap = PlaneMultiMap([(-1.0, -2.0, 3.0), (1.0, 0.0, -1.0)], (), label="probe")
    rep = check_lyapunov(spec, mmap, grid)
    assert_same_report(rep, ref_check_lyapunov(spec, mmap, grid))
    assert (rep.witness["direction_index"], rep.witness["value"]) == (5, [1.0, 0.0, -1.0])
    mmap = PlaneMultiMap([(-2.0, 4.0, -2.0), (2.0, -1.0, -1.0)], (), label="probe")
    consts = t1_constants(spec, 60.0)
    rep = decrease_check(spec, mmap, consts, grid, alphas=(0.1, 0.9))
    assert_same_report(rep, ref_decrease_check(spec, mmap, consts, grid, alphas=(0.1, 0.9)))
    assert (rep.witness["value"], rep.witness["alpha"]) == ([-2.0, 4.0, -2.0], 0.9)


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
    _, _, phi, triangle, union = _example2_setup(0.4)
    defector = iterate(phi, VS.A, 5000)
    targets = example1_targets((0.0, -1.0), (2.0, 1.0))
    planar = iterate(targets.phi, (2.5, -1.7), 3000)
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


def test_decay_forced_failure_is_covered():
    _, traj, oracle = _decay_cases()[-1]
    rep = decay_bound_check(traj, oracle, 1)
    assert not rep.premise_ok and not rep.ok


def test_premise_on_a_one_stage_trajectory():
    traj = iterate(lambda x: (0.0, 0.0), (1.0, 1.0), 1)
    assert premise_start(traj, SegmentsOracle([((0.0, 0.0), (1.0, 0.0))])) is None


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
