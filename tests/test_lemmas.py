"""The linear lemmas behind the reports, proved for every admissible game.

Each lemma is a linear form in (r0, r1, r2, p1, p2, p3, eps) that is a
nonnegative combination of the admissibility constraints, each label of
`CONSTRAINT_LABELS` read as "rhs - lhs > 0", and of eps > 0 (Farkas).  The
identities are checked in exact rationals, so they hold for every game, not
a sample.  A strict lemma needs a positive multiplier on some constraint or
on eps.  In the multipliers, key i is the i-th label (1-based), "eps" eps.
The all-good lemma is over the points x = (x1, x2, x3) of S, so its forms
also read x1, x2 and x3.
"""

import re
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from investgame.geometry import sample_points
from investgame.stage_game import CONSTRAINT_LABELS, GameParams, example_game, validate_params, vertices
from investgame.strategies import good_profile, induced_columns

VARS = ("r0", "r1", "r2", "p1", "p2", "p3", "eps")
_TERM = re.compile(r"([+-]?)\s*(?:(\d+(?:/\d+)?)\*)?(\w+)")


def form(text: str) -> dict[str, Fraction]:
    """A linear form such as "p1 + 2*r1" or "2*p3 - x2", by variable and
    "1" for the constant; zero coefficients are dropped."""
    out: dict[str, Fraction] = {}
    for sign, coef, name in _TERM.findall(text.replace(" ", "")):
        value = Fraction(coef or 1) * (-1 if sign == "-" else 1)
        key = "1" if name.isdigit() else name
        if key == "1":
            value *= int(name)
        out[key] = out.get(key, Fraction(0)) + value
    return {k: v for k, v in out.items() if v != 0}


def combine(*terms: tuple[Fraction, dict]) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for coef, f in terms:
        for k, v in f.items():
            out[k] = out.get(k, Fraction(0)) + coef * v
    return {k: v for k, v in out.items() if v != 0}


#: c_i = rhs - lhs of the i-th label, 1-based; every c_i > 0 on an admissible game.
CONSTRAINTS = {i: combine((Fraction(1), form(rhs)), (Fraction(-1), form(lhs)))
               for i, (lhs, rhs) in enumerate((label.split("<") for label in CONSTRAINT_LABELS), 1)}


def test_constraints_parse_over_the_game_variables():
    assert len(CONSTRAINTS) == 12
    assert CONSTRAINTS[8] == {"p1": 1, "r1": 2, "r0": -3}
    assert CONSTRAINTS[1] == {"r0": 1}
    assert all(set(c) <= set(VARS) for c in CONSTRAINTS.values())


def margin(c: dict[str, Fraction], values) -> Fraction:
    """The exact value of a form at the six payoffs `values`, in field order."""
    point = dict(zip(VARS, map(Fraction, values)))
    return sum((v * (1 if k == "1" else point[k]) for k, v in c.items()), Fraction(0))


def _tie(values: tuple, i: int) -> tuple:
    """`values` with the i-th constraint made an equality, solved for its
    first variable of coefficient +-1 (every label has one), so a quarter
    grid point stays on the quarter grid."""
    c = CONSTRAINTS[i]
    var = next(k for k, v in c.items() if abs(v) == 1)
    j = VARS.index(var)
    out = list(values)
    out[j] = float(Fraction(values[j]) - margin(c, values) / c[var])
    return tuple(out)


def test_validate_params_enforces_the_proved_constraints():
    # quarter-grid payoffs in [-5, 40] keep every float sum and product of
    # the checks exact, so validate_params must reject exactly the labels
    # whose rhs - lhs is not positive in exact rationals, ties included
    draws = [tuple(row) for row in (np.random.default_rng(35).integers(-20, 161, size=(2000, 6)) / 4).tolist()]
    games = draws + [_tie(g, i) for g in draws[:50] + [astuple(example_game())] for i in CONSTRAINTS]
    ties = 0
    for values in games:
        margins = [margin(CONSTRAINTS[i], values) for i in CONSTRAINTS]
        want = tuple(label for label, m in zip(CONSTRAINT_LABELS, margins) if m <= 0)
        assert validate_params(values).violations == want, values
        ties += 0 in margins
    assert ties >= 51 * 12
    assert validate_params(astuple(example_game())).ok


def _forms_at(step: str) -> list[str]:
    """V_1's four relaxed forms, each ">= 0", at the payoff vector `step`."""
    x1, x2, x3 = step.split(",")
    return [f"{x1} - {x2} + eps", f"{x1} - {x3} + eps", f"{x1} - r0", f"2*p3 - {x2} - {x3}"]


THIRD, TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
CHAIN = (8, 9, 10)

#: (name, lemma form, strict, multipliers)
LEMMAS = [
    ("r0 < p3", "p3 - r0", True, {i: THIRD for i in CHAIN}),
    ("3 r0 < p1 + 2 r1", "p1 + 2*r1 - 3*r0", True, {8: 1}),
    ("p1 + 2 r1 < 2 p2 + r2", "2*p2 + r2 - p1 - 2*r1", True, {9: 1}),
    ("2 p2 + r2 < 3 p3", "3*p3 - 2*p2 - r2", True, {10: 1}),
]
#: t2's premise: each step at which the good player 1 refuses lies in cl(V_1).
REFUSING_STEPS = {
    "r0,r0,r0": [{"eps": 1}, {"eps": 1}, {}, {i: TWO_THIRDS for i in CHAIN}],
    "r1,p1,r1": [{2: 1, 7: 1, "eps": 1}, {"eps": 1}, {2: 1}, {11: 1}],
    "r1,r1,p1": [{"eps": 1}, {2: 1, 7: 1, "eps": 1}, {2: 1}, {11: 1}],
    "r2,p2,p2": [{12: 1, "eps": 1}, {12: 1, "eps": 1}, {2: 1, 3: 1}, {6: 2}],
}
for step, multipliers in REFUSING_STEPS.items():
    LEMMAS += [(f"V_1 form {k} at ({step})", text, False, m)
               for k, (text, m) in enumerate(zip(_forms_at(step), multipliers), 1)]


@pytest.mark.parametrize("name,lemma,strict,multipliers", LEMMAS, ids=[lemma[0] for lemma in LEMMAS])
def test_lemma_is_a_nonnegative_combination(name, lemma, strict, multipliers):
    coefs = {k: Fraction(v) for k, v in multipliers.items()}
    assert all(v >= 0 for v in coefs.values())
    assert combine(*((v, CONSTRAINTS[k] if k != "eps" else {"eps": Fraction(1)})
                     for k, v in coefs.items())) == form(lemma)
    if strict:
        assert any(v > 0 for v in coefs.values())


def test_every_refusing_step_is_checked():
    # player 1 plays NI: 0, 1 or 2 of the others invest (r0, r1, r2), and an
    # investor among them earns p1 or p2 by the total count
    assert set(REFUSING_STEPS) == {"r0,r0,r0", "r1,p1,r1", "r1,r1,p1", "r2,p2,p2"}


@pytest.mark.parametrize("i", [1, 2, 3])
def test_all_good_map_never_reaches_a(i):
    """At every x of S the argmax seat i of x invests under the all-good
    profile, so the map never steps to A (code 0).  With s = x1 + x2 + x3,
    s - 3 r0 >= 0 and 3 p3 - s >= 0 on S, since S is the hull of vertices
    whose sums are ordered from 3 r0 to 3 p3 (the chain lemmas above), and
    x_i - x_j, x_i - x_k >= 0 at the argmax: so x_i > x_j - eps since
    eps > 0, and x_i - r0 and 2 p3 - x_j - x_k are nonnegative
    combinations of these."""
    xi = f"x{i}"
    xj, xk = (f"x{m}" for m in (1, 2, 3) if m != i)
    gap_j, gap_k = form(f"{xi} - {xj}"), form(f"{xi} - {xk}")
    low, high = form("x1 + x2 + x3 - 3*r0"), form("3*p3 - x1 - x2 - x3")
    assert combine((THIRD, gap_j), (THIRD, gap_k), (THIRD, low)) == form(f"{xi} - r0")
    assert combine((TWO_THIRDS, high), (THIRD, gap_j), (THIRD, gap_k)) == form(f"2*p3 - {xj} - {xk}")
    for gap, other in ((gap_j, xj), (gap_k, xk)):
        assert combine((Fraction(1), gap), (Fraction(1), {"eps": Fraction(1)})) == form(f"{xi} - {other} + eps")


@pytest.mark.parametrize("game", [
    example_game(),
    GameParams(r0=5.1, r1=8.3, r2=12.7, p1=3.3, p2=7.1, p3=11.3),
    GameParams(r0=6.5, r1=20, r2=20.1, p1=3.5, p2=16, p3=21.1),
], ids=["example", "rounding", "short-exact"])
@pytest.mark.parametrize("eps", [0.4, 1e-9])
def test_all_good_steps_never_reach_a(game, eps):
    vs = vertices(game)
    rows = np.vstack([sample_points(game, 20_000, seed=3), vs.all_points()])
    steps = induced_columns(good_profile(game, eps), game)(rows)
    assert not np.any(np.all(steps == vs.A, axis=1))
