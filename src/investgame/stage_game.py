"""Parametric 3-player symmetric invest/not-invest stage game.

The game is described by six numbers: what a non-investor earns when
0, 1 or 2 of the others' group invests (r0, r1, r2, indexed by the total
number of investors), and what an investor earns when 1, 2 or 3 players
invest in total (p1, p2, p3).  All payoffs depend only on the total
number of investors, which makes the game symmetric by construction.

An admissible parameter set satisfies a family of strict inequalities:
monotone payoffs, all-NI being the unique stage Nash profile, total
welfare increasing in the number of investors, a pairwise cap that makes
two-player coalitions unprofitable in the long run, and p2 < r2 so that
full investment is not itself a Nash profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

INVEST = "I"
NOT_INVEST = "NI"

PayoffVector = tuple[float, float, float]
ActionProfile = tuple[str, str, str]

# Labels of the admissibility constraints, one per atomic inequality.
CONSTRAINT_LABELS = (
    "0 < r0",
    "r0 < r1",
    "r1 < r2",
    "0 < p1",
    "p1 < p2",
    "p2 < p3",
    "p1 < r0",
    "3*r0 < p1 + 2*r1",
    "p1 + 2*r1 < 2*p2 + r2",
    "2*p2 + r2 < 3*p3",
    "p1 + r1 < 2*p3",
    "p2 < r2",
)


@dataclass(frozen=True)
class GameParams:
    """The six stage-game payoff levels of an admissible game: building one
    from payoffs that are not finite or that break an inequality of
    CONSTRAINT_LABELS raises ValueError, so every GameParams is admissible.

    r0, r1, r2: non-investor payoff with 0/1/2 total investors.
    p1, p2, p3: investor payoff with 1/2/3 total investors.
    """

    r0: float
    r1: float
    r2: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        report = validate_params(astuple(self))
        if not report.ok:
            raise ValueError("inadmissible game parameters: " + "; ".join(report.violations))

    @classmethod
    def from_dict(cls, d: dict) -> "GameParams":
        return cls(*read_payoffs(d))

    @classmethod
    def from_file(cls, path: str) -> "GameParams":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def read_payoffs(d) -> tuple[float, ...]:
    """The six payoffs of a game object, in field order, each a finite number."""
    keys = ("r0", "r1", "r2", "p1", "p2", "p3")
    payoffs = read_object(d, dict.fromkeys(keys, read_finite), "game file")
    missing = [k for k in keys if k not in payoffs]
    if missing:
        raise ValueError(f"game file missing key {missing[0]!r}")
    return tuple(payoffs.values())


def read_object(value, readers: dict, what: str) -> dict:
    """A JSON object's keys, each parsed by its reader in `readers`' order; a
    key no reader takes is an error, one the object lacks is left out."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    unread = [key for key in value if key not in readers]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}")
    return {key: read(value[key], key) for key, read in readers.items() if key in value}


def read_finite(value, what: str) -> float:
    """A config number that must be finite; the error names the key.  A JSON
    boolean is not a number, nor is an integer too large for a float."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    return x


def read_path(value, what: str) -> str:
    """A config file path: a JSON string, never a number (open() takes one for a descriptor)."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a file path string, not {value!r}")
    return value


def read_integer(value, what: str) -> int:
    """A config integer in the range of a float, taken exactly, as is an
    integer string; an integral float such as 1e9 (or "1e9") is accepted,
    anything else is an error that names the key."""
    x = read_finite(value, what)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    if not x.is_integer():
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return int(x)


def read_vector(value, length: int, what: str) -> tuple[float, ...]:
    """A config list of `length` finite numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ValueError(f"{what} must be a list of {length} finite numbers, not {value!r}")
    return tuple(read_finite(c, what) for c in value)


def example_game() -> GameParams:
    """The canonical admissible game used throughout the docs and tests."""
    return GameParams(r0=20.0, r1=28.0, r2=36.0, p1=10.0, p2=18.0, p3=26.0)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_params(values: Sequence[float]) -> ValidationReport:
    """Check the admissibility inequalities on the six payoffs (r0, r1, r2,
    p1, p2, p3), strictly and with no tolerance.

    Returns the list of violated constraint labels.  Non-finite inputs are
    rejected with a ValueError before any inequality is evaluated, so a NaN
    cannot silently "pass" a strict comparison.
    """
    if not all(math.isfinite(v) for v in values):
        raise ValueError("game parameters must be finite reals")
    r0, r1, r2, p1, p2, p3 = values
    checks = (
        0.0 < r0,
        r0 < r1,
        r1 < r2,
        0.0 < p1,
        p1 < p2,
        p2 < p3,
        p1 < r0,
        3.0 * r0 < p1 + 2.0 * r1,
        p1 + 2.0 * r1 < 2.0 * p2 + r2,
        2.0 * p2 + r2 < 3.0 * p3,
        p1 + r1 < 2.0 * p3,
        p2 < r2,
    )
    violations = tuple(label for label, ok in zip(CONSTRAINT_LABELS, checks) if not ok)
    return ValidationReport(ok=not violations, violations=violations)


def payoff(params: GameParams, profile: ActionProfile) -> PayoffVector:
    """Vector payoff of an action profile.

    Implemented by counting investors and reading the (P_I, P_NI) table,
    so permutation equivariance holds by construction.
    """
    n = sum(1 for a in profile if a == INVEST)
    p_invest = (None, params.p1, params.p2, params.p3)[n]
    p_not = (params.r0, params.r1, params.r2, None)[n]
    out = []
    for a in profile:
        if a == INVEST:
            out.append(p_invest)
        elif a == NOT_INVEST:
            out.append(p_not)
        else:
            raise ValueError(f"unknown action {a!r}")
    return (out[0], out[1], out[2])


#: Decision code of the all-invest profile (bit i set when seat i invests).
ALL_INVEST = 7


def payoff_table(params: GameParams) -> list[PayoffVector]:
    """The stage payoff of each decision code 0..7 (bit i set when seat i invests)."""
    return [payoff(params, tuple(INVEST if code >> i & 1 else NOT_INVEST for i in range(3)))
            for code in range(8)]


@dataclass(frozen=True)
class VertexSet:
    """The eight labeled payoff vertices spanning the feasible set S, read
    from `payoff_table` by decision code: A all-NI (code 0), B all-invest
    (code 7), c1[j] seat j investing alone (code 1 << j), c2[j] seat j
    refusing alone (code 7 ^ 1 << j); j is 0-based, labels C1_1..C2_3 1-based.
    """

    A: PayoffVector
    B: PayoffVector
    c1: tuple[PayoffVector, PayoffVector, PayoffVector]
    c2: tuple[PayoffVector, PayoffVector, PayoffVector]

    def labeled(self) -> dict[str, PayoffVector]:
        out = {"A": self.A, "B": self.B}
        for j in range(3):
            out[f"C1_{j + 1}"] = self.c1[j]
        for j in range(3):
            out[f"C2_{j + 1}"] = self.c2[j]
        return out

    def all_points(self) -> tuple[PayoffVector, ...]:
        return (self.A, self.B) + self.c1 + self.c2


def vertices(params: GameParams) -> VertexSet:
    t = payoff_table(params)
    return VertexSet(
        A=t[0],
        B=t[ALL_INVEST],
        c1=tuple(t[1 << j] for j in range(3)),
        c2=tuple(t[ALL_INVEST ^ 1 << j] for j in range(3)),
    )


def permute(x: Iterable, sigma: tuple[int, int, int]) -> tuple:
    """Apply a coordinate permutation: out[sigma[k]] = x[k]."""
    seq = tuple(x)
    out = [None, None, None]
    for k in range(3):
        out[sigma[k]] = seq[k]
    return tuple(out)
