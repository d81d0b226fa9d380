import json
import math
from dataclasses import asdict, astuple, fields, replace
from itertools import permutations, product

import numpy as np
import pytest

from investgame.stage_game import (
    INVEST,
    NOT_INVEST,
    GameParams,
    example_game,
    payoff,
    permute,
    validate_params,
    vertices,
)

#: All 8 action profiles (a1, a2, a3).
PROFILES = tuple(product((INVEST, NOT_INVEST), repeat=3))
FIELDS = tuple(f.name for f in fields(GameParams))

#: The canonical game with p1 = r0 = 20: it breaks p1 < r0, p1 < p2 and the first welfare link.
P1_AT_R0 = (20, 28, 36, 20, 18, 26)


class TestValidate:
    def test_canonical_game_is_admissible(self):
        report = validate_params(astuple(example_game()))
        assert report.ok
        assert report.violations == ()

    def test_boundary_p1_equals_r0_is_rejected(self):
        report = validate_params(P1_AT_R0)
        assert not report.ok
        assert "p1 < r0" in report.violations

    def test_welfare_chain_boundary_is_rejected(self):
        # 2*18 + 36 = 72 and 3*24 = 72: the strict chain fails at its last link
        report = validate_params((20, 28, 36, 10, 18, 24))
        assert not report.ok
        assert "2*p2 + r2 < 3*p3" in report.violations

    def test_each_violation_is_reported_individually(self):
        report = validate_params(P1_AT_R0)
        # p1=20 also breaks p1 < p2 and the first welfare link (76 < 72)
        assert "p1 < p2" in report.violations
        assert "p1 + 2*r1 < 2*p2 + r2" in report.violations

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_raises_distinct_error(self, bad):
        with pytest.raises(ValueError, match="finite"):
            validate_params((20, 28, 36, bad, 18, 26))


class TestAdmissibleByConstruction:
    """Every GameParams is admissible: each way of building one refuses the
    payoffs `validate_params` rejects, with the labels it lists."""

    MESSAGE = "inadmissible game parameters: " + "; ".join(validate_params(P1_AT_R0).violations)

    @pytest.mark.parametrize("build", [
        lambda: GameParams(*P1_AT_R0),
        lambda: GameParams.from_dict(dict(zip(FIELDS, P1_AT_R0))),
        lambda: replace(example_game(), p1=20.0),
    ], ids=["direct", "from_dict", "replace"])
    def test_every_constructor_refuses_an_inadmissible_game(self, build):
        with pytest.raises(ValueError, match="p1 < r0") as info:
            build()
        assert str(info.value) == self.MESSAGE

    def test_from_file_refuses_an_inadmissible_game(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(zip(FIELDS, P1_AT_R0))))
        with pytest.raises(ValueError, match="p1 < r0") as info:
            GameParams.from_file(str(path))
        assert str(info.value) == self.MESSAGE

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_payoffs_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GameParams(20, 28, 36, bad, 18, 26)
        with pytest.raises(ValueError, match="finite"):
            replace(example_game(), p3=bad)


class TestPayoff:
    def test_full_investment_gives_b(self):
        assert payoff(example_game(), (INVEST, INVEST, INVEST)) == (26, 26, 26)

    def test_no_investment_gives_a(self):
        assert payoff(example_game(), (NOT_INVEST, NOT_INVEST, NOT_INVEST)) == (20, 20, 20)

    def test_lone_investor_row(self):
        assert payoff(example_game(), (INVEST, NOT_INVEST, NOT_INVEST)) == (10, 28, 28)

    def test_full_table(self):
        # all eight rows of the two normal-form matrices
        params = example_game()
        expected = {
            (INVEST, INVEST, INVEST): (26, 26, 26),
            (INVEST, NOT_INVEST, INVEST): (18, 36, 18),
            (NOT_INVEST, INVEST, INVEST): (36, 18, 18),
            (NOT_INVEST, NOT_INVEST, INVEST): (28, 28, 10),
            (INVEST, INVEST, NOT_INVEST): (18, 18, 36),
            (INVEST, NOT_INVEST, NOT_INVEST): (10, 28, 28),
            (NOT_INVEST, INVEST, NOT_INVEST): (28, 10, 28),
            (NOT_INVEST, NOT_INVEST, NOT_INVEST): (20, 20, 20),
        }
        for profile, row in expected.items():
            assert payoff(params, profile) == row

    def test_permutation_equivariance(self):
        params = example_game()
        for profile in PROFILES:
            base = payoff(params, profile)
            for sigma in permutations(range(3)):
                assert payoff(params, permute(profile, sigma)) == permute(base, sigma)

    def test_total_welfare_increases_with_investors(self):
        params = example_game()
        totals = {}
        for profile in PROFILES:
            n = sum(a == INVEST for a in profile)
            totals.setdefault(n, sum(payoff(params, profile)))
        assert totals[0] < totals[1] < totals[2] < totals[3]
        assert totals[0] == 3 * params.r0
        assert totals[3] == 3 * params.p3

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            payoff(example_game(), (INVEST, "X", NOT_INVEST))


class TestVertices:
    def test_labeled_examples(self):
        labeled = vertices(example_game()).labeled()
        assert labeled["C2_1"] == (36, 18, 18)
        assert labeled["A"] == (20, 20, 20)
        assert labeled["C1_3"] == (28, 28, 10)

    def test_vertices_are_the_payoff_image(self):
        params = example_game()
        image = {payoff(params, profile) for profile in PROFILES}
        assert image == set(vertices(params).all_points())

    def test_convex_combinations_respect_sum_bounds(self):
        params = example_game()
        pts = np.asarray(vertices(params).all_points())
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(8), size=500)
        sums = (w @ pts).sum(axis=1)
        assert np.all(sums >= 3 * params.r0 - 1e-9)
        assert np.all(sums <= 3 * params.p3 + 1e-9)


def test_round_trip_through_dict():
    params = example_game()
    assert GameParams.from_dict(asdict(params)) == params


def test_from_dict_missing_key():
    with pytest.raises(ValueError, match="missing"):
        GameParams.from_dict({"r0": 20})


def test_second_admissible_game():
    # a different admissible parameter set keeps the machinery honest
    other = GameParams(5.0, 8.0, 12.0, 3.0, 7.0, 11.0)
    report = validate_params(astuple(other))
    assert report.ok, report.violations
    assert math.isclose(sum(payoff(other, (INVEST, INVEST, INVEST))), 33.0)
