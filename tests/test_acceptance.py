"""Acceptance battery: every criterion at its stated scale and tolerance.

Each test prints one ACCEPTANCE line (visible with pytest -s / -rA; the
pytest -v status line carries the same verdict).  Horizons, tolerances
and batteries are pinned here, not configurable.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from investgame.approachability import (
    HullOracle,
    LineOracle,
    PointOracle,
    SegmentsOracle,
    decay_bound_check,
    premise_start,
)
from investgame.cli import main
from investgame.dynamics import iterate, tail_start
from investgame.geometry import RegionSpec, region_mask, sample_points
from investgame.harness import (
    HarnessConfig,
    example1_starts,
    run_example1,
    run_example2,
    verify_t2,
    verify_t3,
    verify_t4,
)
from investgame.lyapunov import (
    _support,
    certification_grid,
    check_lyapunov,
    decrease_check,
    entrapment_check,
    four_direction_spec,
    good_profile_plane_map,
    six_direction_spec,
    t1_constants,
    two_good_plane_map,
)
from investgame.stage_game import example_game, vertices
from investgame.strategies import (
    ConstantStrategy,
    Example2Defector,
    GoodStrategy,
    good_profile,
    induced_map,
)

PARAMS = example_game()
VS = vertices(PARAMS)
N_FULL = 100_000
S2 = math.sqrt(2.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name}: {detail}"


def test_criterion_t3_full_cooperation():
    t0 = time.perf_counter()
    rep = verify_t3(HarnessConfig(params=PARAMS, eps=0.4, n=N_FULL, slack=0.1))
    elapsed = time.perf_counter() - t0
    worst = max(c["measured"] for c in rep.cells)
    ok = rep.passed and len(rep.cells) == 9 and elapsed < 10.0
    report(
        "t3",
        ok,
        f"9 starts, N=1e5, worst dist to B {worst:.2e} (tol 0.1), runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_t4_single_deviator_cap():
    cfg = HarnessConfig(params=PARAMS, eps=0.4, n=N_FULL, slack=0.05, starts=((0.125,) * 8,))
    rep = verify_t4(cfg)
    worst = max(c["measured"] for c in rep.cells)
    bound = PARAMS.p3 + 2 * 0.4 / 3 + 0.05
    ok = rep.passed and len(rep.cells) == 13
    report("t4", ok, f"13 deviants, N=1e5, worst tail max {worst:.4f} <= {bound:.4f}")


def test_criterion_t2_two_deviator_safety():
    cfg = HarnessConfig(
        params=PARAMS, eps=0.4, n=N_FULL, slack=0.05, dist_slack=0.1, starts=((0.125,) * 8,)
    )
    rep = verify_t2(cfg)
    floors = min(c["measured"]["own_tail_min"] for c in rep.cells)
    caps = max(c["measured"]["deviators_tail_sum_max"] for c in rep.cells)
    dists = max(c["measured"]["dist_to_v1"] for c in rep.cells)
    ok = rep.passed and len(rep.cells) == 15
    report(
        "t2",
        ok,
        f"15 pairs, N=1e5, floor {floors:.3f} >= 19.95, cap {caps:.3f} <= 52.05, "
        f"V1 dist {dists:.3f} <= 0.1 + grid error",
    )


@pytest.mark.parametrize("eps", [0.1, 0.4])
def test_criterion_example2_defector(eps):
    rep = run_example2(eps, n=N_FULL, tol=0.1)
    worst = max(c["measured"] for c in rep.cells)
    tail3 = min(c["deviator_tail_min"] for c in rep.cells)
    ok = rep.passed and tail3 > PARAMS.p3
    report(
        f"example2(eps={eps})",
        ok,
        f"dist to D {worst:.2e} <= 0.1, deviator tail min {tail3:.4f} > 26, pipeline ok",
    )


def test_criterion_example1_planar_map():
    rep = run_example1((0.0, -1.0), (2.0, 1.0), example1_starts(20, seed=7), N_FULL, 0.05)
    worst = max(c["measured"] for c in rep.cells)
    bw = (
        rep.meta["blackwell_line"]["holds"],
        rep.meta["blackwell_segment"]["holds"],
        rep.meta["blackwell_singleton"]["holds"],
        rep.meta["blackwell_singleton"]["witness"] is not None,
    )
    ok = rep.passed and bw[0] and bw[1] and not bw[2] and bw[3]
    report(
        "example1",
        ok,
        f"20 starts, N=1e5, worst dist to (1,0) {worst:.2e} <= 0.05; "
        f"line holds, segment holds, singleton violated with witness",
    )


def test_criterion_decay_bound():
    n = 20_000
    checks = []

    traj1 = iterate(lambda x: (1.0, 2.0, 3.0), (30.0, -10.0, 4.0), n)
    checks.append(("constant-map", traj1, PointOracle((1.0, 2.0, 3.0))))

    from investgame.harness import example1_phi

    traj2 = iterate(example1_phi((0, -1), (2, 1)), (2.5, -1.7), n)
    checks.append(("planar-line", traj2, LineOracle((0, 0), (1, 0))))
    checks.append(("planar-segment", traj2, SegmentsOracle([((0, -1), (2, 1))])))

    traj3 = iterate(induced_map(good_profile(PARAMS, 0.4), PARAMS), VS.c1[0], n)
    checks.append(("all-good-vs-B", traj3, PointOracle(VS.B)))

    defc = Example2Defector(PARAMS, 0.4)
    phi_d = induced_map(
        (GoodStrategy(1, 0.4, PARAMS), GoodStrategy(2, 0.4, PARAMS), defc), PARAMS
    )
    traj4 = iterate(phi_d, VS.A, n)
    union = SegmentsOracle([(VS.B, defc.d_point), (defc.d_point, VS.c1[2])])
    triangle = HullOracle([VS.c1[2], VS.c2[2], defc.d_point])
    checks.append(("defector-vs-union", traj4, union))
    checks.append(("defector-vs-triangle", traj4, triangle))

    total_violations = 0
    for name, traj, oracle in checks:
        n0 = premise_start(traj, oracle)
        assert n0 is not None, f"{name}: premise never starts"
        rep = decay_bound_check(traj, oracle, n0)
        assert rep.premise_ok, name
        total_violations += rep.violations
    report(
        "decay-bound",
        total_violations == 0,
        f"{len(checks)} premise-verified trajectories, zero violations of "
        f"dist^2 <= (d_n0 + (n - n0) C) / n^2",
    )


def test_criterion_lyapunov_certification():
    pitch = 0.25
    mmap6 = good_profile_plane_map(PARAMS)
    all_good_ok = True
    for c in (0.1, 0.3):
        spec = six_direction_spec(c)
        grid = certification_grid(spec, PARAMS, pitch)
        rep = check_lyapunov(spec, mmap6, grid, pitch=pitch)
        dec = decrease_check(spec, mmap6, t1_constants(spec, 60.0), grid)
        all_good_ok = all_good_ok and rep.holds and dec.holds

    eps, eta = 0.4, 0.1
    spec4 = four_direction_spec((eps + eta) / S2, delta=eta / (2 * S2))
    mmap4 = two_good_plane_map(PARAMS, eps)
    grid4 = certification_grid(spec4, PARAMS, pitch)
    rep4 = check_lyapunov(spec4, mmap4, grid4, pitch=pitch)
    dec4 = decrease_check(spec4, mmap4, t1_constants(spec4, 60.0), grid4)

    start = tuple(0.7 * a + 0.3 * b for a, b in zip(VS.c1[0], VS.B))
    spec_e = six_direction_spec(0.4 / S2)
    traj = iterate(induced_map(good_profile(PARAMS, 0.4), PARAMS), start, N_FULL)
    ent = entrapment_check(spec_e, traj.means, 1.5 * spec_e.c)
    phi_dev = induced_map(
        (GoodStrategy(1, eps, PARAMS), GoodStrategy(2, eps, PARAMS), ConstantStrategy("NI")),
        PARAMS,
    )
    traj_dev = iterate(phi_dev, start, N_FULL)
    ent4 = entrapment_check(spec4, traj_dev.means, 1.5 * spec4.c)

    tail_ok = True
    for spec_x, ent_x, tr in ((spec_e, ent, traj), (spec4, ent4, traj_dev)):
        w0 = tail_start(tr.horizon, 0.5)
        tail_ok = tail_ok and ent_x.ok and ent_x.entry_index is not None
        tail_ok = tail_ok and ent_x.entry_index <= w0 + 1

    ok = all_good_ok and rep4.holds and dec4.holds and tail_ok
    report(
        "lyapunov",
        ok,
        f"all-good certified at c in {{0.1, 0.3}}, envelope at c={(eps + eta) / S2:.4f}, "
        f"decrease holds, entrapment entries at {ent.entry_index} and {ent4.entry_index} "
        f"with tails inside 1.5c",
    )


def test_criterion_region_algebra():
    n = 100_000
    pts = sample_points(PARAMS, n, seed=123)
    eps = 0.4
    v = [region_mask(PARAMS, RegionSpec("v", i, eps), pts) for i in (1, 2, 3)]
    om = [region_mask(PARAMS, RegionSpec("omega_max", i), pts) for i in (1, 2, 3)]
    ph = [region_mask(PARAMS, RegionSpec("phi_min", i), pts) for i in (1, 2, 3)]
    w = [region_mask(PARAMS, RegionSpec("w", i), pts) for i in (1, 2, 3)]
    fails = 0
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        fails += int(np.sum(om[i] & w[i]))
        fails += int(np.sum((v[i] & ~v[j] & ~v[k]) & ~om[i]))
        fails += int(np.sum((v[i] & ~v[j]) & ~(om[i] | ph[j])))
        fails += int(np.sum((~v[i] & v[j] & v[k]) & ~ph[i]))

    eq20_fails = 0
    proj = pts - pts.mean(axis=1, keepdims=True)
    for e in (0.1, 0.4):
        omega = np.ones(n, dtype=bool)
        for i in (1, 2, 3):
            omega &= region_mask(PARAMS, RegionSpec("omega_eps", i, e), pts)
        c = e / S2
        dl = _support(six_direction_spec(c), proj.T) < c
        eq20_fails += int(np.sum(omega != dl))

    report(
        "region-algebra",
        fails == 0 and eq20_fails == 0,
        f"set inclusions: {fails} counterexamples on 1e5 samples; "
        f"plane equivalence: {eq20_fails} mismatches for eps in {{0.1, 0.4}}",
    )


def test_criterion_scalar_mean_cap():
    rng = np.random.default_rng(2024)
    n = 10_000
    t0 = tail_start(n, 0.5)
    worst = -math.inf
    for _ in range(100):
        mean = 1.0 - 2.0 * rng.random()
        tail_max = -math.inf
        for k in range(1, n):
            nxt = -rng.random() if mean > 0.0 else 1.0 - 2.0 * rng.random()
            mean += (nxt - mean) / (k + 1)
            if k >= t0:
                tail_max = max(tail_max, mean)
        worst = max(worst, tail_max)
    report(
        "scalar-mean-cap",
        worst <= 10.0 / n,
        f"100 premise-compliant sequences at N=1e4: worst tail mean max "
        f"{worst:.2e} <= {10.0 / n:.0e}",
    )


def test_criterion_determinism(tmp_path):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(asdict(PARAMS)))
    run = tmp_path / "run.json"
    run.write_text(json.dumps({
        "strategies": [
            {"kind": "good", "eps": 0.4},
            {"kind": "random", "p": 0.5, "seed": 11},
            {"kind": "random", "p": 0.5, "seed": 23},
        ],
        "start": {"weights": [0.125] * 8},
        "n": 2000,
    }))
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", str(run), "--game", str(game), "--out", out1]) == 0
    assert main(["simulate", str(run), "--game", str(game), "--out", out2]) == 0
    same = open(out1, "rb").read() == open(out2, "rb").read()
    report("determinism", same, "identical config twice -> byte-identical trajectory CSV")
