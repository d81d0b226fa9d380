"""The machinery is parametric in the game: nothing below is specific to
the canonical example payoffs."""

import json
import math
import random
from dataclasses import asdict, astuple
from itertools import product

import numpy as np
import pytest

from investgame.geometry import RegionSpec, dist_to_region, grid_slack, region_mask, sample_points
from investgame.harness import (
    HarnessConfig,
    default_starts,
    standard_deviants,
    verify_t2,
    verify_t3,
    verify_t4,
)
from investgame.lyapunov import (
    _support,
    certification_grid,
    check_lyapunov,
    decrease_check,
    four_direction_spec,
    good_profile_plane_map,
    six_direction_spec,
    t1_constants,
    two_good_plane_map,
)
from investgame.stage_game import INVEST, NOT_INVEST, GameParams, validate_params, vertices
from investgame.strategies import ConstantStrategy, GoodStrategy, RandomStrategy, good_profile, induced_map
from investgame.geometry import hull_point, norm3, project_plane
from investgame.dynamics import iterate, simulate_batch
from investgame.cli import main

OTHER = GameParams(r0=5.0, r1=8.0, r2=12.0, p1=3.0, p2=7.0, p3=11.0)
EPS = 0.3


def test_other_game_is_admissible():
    assert validate_params(astuple(OTHER)).ok


def test_region_algebra_transfers():
    pts = sample_points(OTHER, 20_000, seed=42)
    v = [region_mask(OTHER, RegionSpec("v", i, EPS), pts) for i in (1, 2, 3)]
    om = [region_mask(OTHER, RegionSpec("omega_max", i), pts) for i in (1, 2, 3)]
    ph = [region_mask(OTHER, RegionSpec("phi_min", i), pts) for i in (1, 2, 3)]
    w = [region_mask(OTHER, RegionSpec("w", i), pts) for i in (1, 2, 3)]
    for i in range(3):
        j, k = [m for m in range(3) if m != i]
        assert not np.any(om[i] & w[i])
        assert np.all(om[i][v[i] & ~v[j] & ~v[k]])
        assert np.all((om[i] | ph[j])[v[i] & ~v[j]])
        assert np.all(ph[i][~v[i] & v[j] & v[k]])


def test_plane_equivalence_transfers():
    pts = sample_points(OTHER, 20_000, seed=43)
    c = EPS / math.sqrt(2.0)
    omega = np.ones(len(pts), dtype=bool)
    for i in (1, 2, 3):
        omega &= region_mask(OTHER, RegionSpec("omega_eps", i, EPS), pts)
    proj = pts - pts.mean(axis=1, keepdims=True)
    assert np.array_equal(omega, _support(six_direction_spec(c), proj.T) < c)


def test_claims_hold_for_the_other_game():
    assert verify_t3(HarnessConfig(params=OTHER, eps=EPS, n=20_000)).passed
    cfg = HarnessConfig(params=OTHER, eps=EPS, n=20_000, starts=((0.125,) * 8,))
    t4 = verify_t4(cfg)
    assert t4.passed
    assert len(t4.cells) == 12  # the crafted defector only exists canonically
    assert verify_t2(cfg).passed


def test_battery_size_without_defector():
    assert len(standard_deviants(OTHER, EPS)) == 12


def test_lyapunov_certificates_transfer():
    spec = six_direction_spec(0.2)
    mmap = good_profile_plane_map(OTHER)
    grid = certification_grid(spec, OTHER, 0.25)
    assert check_lyapunov(spec, mmap, grid).holds
    assert decrease_check(spec, mmap, t1_constants(spec, 20.0), grid).holds

    eta = 0.1
    spec4 = four_direction_spec((EPS + eta) / math.sqrt(2.0), delta=eta / (2 * math.sqrt(2.0)))
    mmap4 = two_good_plane_map(OTHER, EPS)
    grid4 = certification_grid(spec4, OTHER, 0.25)
    assert check_lyapunov(spec4, mmap4, grid4).holds


def test_plane_map_soundness_transfers():
    mmap = good_profile_plane_map(OTHER)
    phi = induced_map(good_profile(OTHER, EPS), OTHER)
    for x in sample_points(OTHER, 1500, seed=44):
        x = tuple(x)
        w = project_plane(phi(x))
        values = mmap(project_plane(x))
        assert any(max(abs(a - b) for a, b in zip(w, v)) <= 1e-9 for v in values)


def test_all_good_converges_to_b():
    phi = induced_map(good_profile(OTHER, EPS), OTHER)
    b_point = vertices(OTHER).B
    for start in vertices(OTHER).all_points():
        traj = iterate(phi, start, 20_000)
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(traj.final, b_point)))
        assert dist <= 0.05


@pytest.mark.parametrize("query", [(2.0, 10.0, 3.0), (12.0, 3.0, 9.0), (6.0, 6.0, 11.0)])
def test_dist_to_region_against_sampling_oracle(query):
    spec = RegionSpec("v", 1, EPS)
    d = dist_to_region(OTHER, spec, query, 0.25)
    cand = sample_points(OTHER, 300_000, seed=45)
    keep = cand[region_mask(OTHER, spec, cand, closed=True)]
    oracle = float(np.linalg.norm(keep - np.asarray(query), axis=1).min())
    # both overestimate the true distance; they must agree up to their slacks
    assert abs(d - oracle) <= grid_slack(0.25) + 0.1


#: Admissible games whose payoff sums are exact for 3 and for 1 stage, too
#: few for a harness run to jump, so `verify t3` steps them in `simulate_batch`.
SHORT_EXACT_HORIZON = (
    GameParams(r0=6.5, r1=20.0, r2=20.1, p1=3.5, p2=16.0, p3=21.1),
    GameParams(r0=5.1, r1=6.3, r2=7.7, p1=4.3, p2=5.3, p3=6.9),
)


def sampled_games(seed: int, per_grid: int) -> list[GameParams]:
    """`per_grid` admissible games with payoffs in (0, 30] on each of the
    grids 0.1, 0.25 and 1, drawn by rejection."""
    rng = random.Random(seed)
    games = []
    for steps in (10, 4, 1):
        found = 0
        while found < per_grid:
            values = tuple(rng.randint(1, 30 * steps) / steps for _ in range(6))
            if validate_params(values).ok:
                games.append(GameParams(*values))
                found += 1
    return games


@pytest.mark.parametrize("game", SHORT_EXACT_HORIZON + tuple(sampled_games(seed=5, per_grid=4)),
                         ids=lambda g: ",".join(f"{v:g}" for v in astuple(g)))
def test_t3_cells_match_iterate_on_admissible_games(game):
    # verify_t3 runs every admissible game, on either engine (exact sums or
    # rounding ones), and each cell's distance to B, tail intervals and
    # entry into V^3 are those of the recorded trajectory
    config = HarnessConfig(game, starts=tuple(random.Random(repr(game)).sample(default_starts(), 3)), n=2000)
    report = verify_t3(config)
    profile = good_profile(game, config.eps)
    phi = induced_map(profile, game)
    b_point = vertices(game).B
    for cell, x1 in zip(report.cells, config.start_points(), strict=True):
        traj = iterate(phi, x1, config.n)
        tail = traj.tail(config.window)
        entry = next((k for k, mean in enumerate(traj.means, 1)
                      if all(s.invests(mean) for s in profile)), None)
        assert cell["measured"] == norm3([f - b for f, b in zip(traj.final, b_point)])
        assert cell["tail_intervals"] == [list(pair) for pair in zip(tail.min(axis=0).tolist(),
                                                                     tail.max(axis=0).tolist())]
        assert cell["entered_v3_at"] == entry


def _random_cell(game: GameParams, rng: random.Random):
    """A random start of S and a profile with at least one good seat, each
    good seat with its own eps, the others constant or coin-flip deviants."""
    weights = [rng.random() for _ in range(8)]
    start = hull_point(vertices(game), [w / sum(weights) for w in weights])
    good = rng.choice([seats for seats in product((True, False), repeat=3) if any(seats)])
    profile = tuple(GoodStrategy(i + 1, rng.uniform(0.01, 1.0), game) if good[i] else
                    rng.choice([ConstantStrategy(INVEST), ConstantStrategy(NOT_INVEST),
                                RandomStrategy(rng.random(), rng.randrange(1000))])
                    for i in range(3))
    return start, profile


@pytest.mark.parametrize("game", sampled_games(seed=9, per_grid=2),
                         ids=lambda g: ",".join(f"{v:g}" for v in astuple(g)))
def test_batch_cells_equal_iterate_on_sampled_games(game):
    # every simulate_batch cell is `iterate` on its own, bit for bit: the
    # final mean, the tail extrema and the first all-invest decision, with
    # unequal eps and random starts, at horizons at and just past the ends
    # of 512-stage blocks
    rng = random.Random(repr(game))
    window = 0.5
    cells = [_random_cell(game, rng) for _ in range(16)]
    # rows whose third seat first invests at stage 512 (seed 888) and 513
    # (seed 1008), the last stage of the first block and the first of the
    # second; an all-good row; and a row that never enters V^3
    invest = ConstantStrategy(INVEST)
    cells += [(cells[0][0], (invest, invest, RandomStrategy(0.002, seed))) for seed in (888, 1008)]
    cells += [(cells[0][0], good_profile(game, EPS)),
              (cells[1][0], (GoodStrategy(1, EPS, game), GoodStrategy(2, EPS, game), ConstantStrategy(NOT_INVEST)))]
    b_point = vertices(game).B
    for n, edge in ((500, [0, 0]), (512, [0, 0]), (513, [512, 0]), (1025, [512, 513])):
        run = simulate_batch([tuple(s.fresh() for s in p) for _, p in cells], game,
                             [x1 for x1, _ in cells], n, window)
        for b, (x1, profile) in enumerate(cells):
            traj = iterate(induced_map(tuple(s.fresh() for s in profile), game), x1, n)
            tail = traj.tail(window)
            assert run.final[b].tolist() == list(traj.final)
            assert run.tail_min[b].tolist() == tail.min(axis=0).tolist()
            assert run.tail_max[b].tolist() == tail.max(axis=0).tolist()
            assert run.tail_max_23[b] == (tail[:, 1] + tail[:, 2]).max()
            # steps[k - 1] is decided at mean k, and B is the all-invest payoff only
            assert run.entered[b] == next((k for k, step in enumerate(traj.steps, 1) if step == b_point), 0)
        # mean n is not decided
        assert run.entered[-4:-2].tolist() == edge
        assert run.entered[-1] == 0 and run.entered[-2] > 0


MALFORMED = [("eps", -0.3), ("eps", "abc"), ("eps", True), ("n", 10), ("n", 2.5), ("n", 1e300),
             ("window", 1.5), ("window", 0), ("slack", -1), ("dist_pitch", 0), ("starts", []),
             ("starts", [[1, 2]]), ("starts", [[2.0, -1.0] + [0.0] * 6]), ("game", 5)]


def test_malformed_battery_configs_exit_2(tmp_path, capsys):
    rng = random.Random(17)
    for (key, value), game in zip(MALFORMED, rng.choices(sampled_games(seed=17, per_grid=2), k=len(MALFORMED))):
        game_file = tmp_path / "game.json"
        game_file.write_text(json.dumps(asdict(game)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": str(game_file), key: value}))
        claim = rng.choice(("t4", "t2"))
        assert main(["verify", claim, str(cfg)]) == 2, (claim, key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
