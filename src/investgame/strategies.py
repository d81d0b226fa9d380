"""Strategies of the repeated game and the induced step map.

A strategy is a total function from the payoff hull S to {I, NI}; the
only observable it may read is the current mean payoff vector.  Each kind
declares it once, as the predicate `invests(x)` on a mean, which every
engine evaluates on a tuple of floats; `dynamics.simulate_batch` decides
the good strategy's on columns, many means at once, by `GoodColumns`.
A profile of three strategies composed with the stage payoff map yields
the step map phi driving the mean dynamics.

Strategy kinds double as JSON descriptors for run configuration files:
  {"kind": "good", "eps": 0.4}
  {"kind": "constant", "action": "I" | "NI"}
  {"kind": "random", "p": 0.5, "seed": 11}
  {"kind": "example2_defector", "eps": 0.4}
"""

from __future__ import annotations

import copy
import math
import random
from itertools import repeat, starmap

import numpy as np

from .stage_game import (
    INVEST,
    NOT_INVEST,
    GameParams,
    example_game,
    payoff_table,
    read_finite,
    read_integer,
    require_valid,
)


class Strategy:
    """Base: deterministic given (point, own generator state), total on S.

    A kind defines `invests(x)`: whether it invests at the mean x, a tuple
    of three floats, as a bool; a kind that keeps state also overrides
    `fresh`.  Engines call it once per seat and stage, except on the array
    routes of `dynamics.simulate_batch`: constants, coin flips (`plan`) and
    exact-type `GoodStrategy`, decided on numpy columns by the fused test
    `GoodColumns.invests_columns`, which equals `invests` exactly as rounding
    is monotone.
    """

    name = "strategy"

    def invests(self, x):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def fresh(self) -> "Strategy":
        """Instance with pristine generator state; stateless kinds return self,
        and a kind that keeps state overrides this."""
        return self


class GoodStrategy(Strategy):
    """Invest iff the mean payoff lies in V_i = Omega_i^eps minus W_i.

    Player i invests while close enough to the top (strictly within eps of
    every opponent) and not exploited (own mean at least r0, opponents' sum
    at most 2 p3, the strict complement of the W_i trigger).  Boundary
    points follow the letter of these definitions with no tolerance band,
    also in the fused column test of `GoodColumns`, exact as rounding is monotone.
    """

    def __init__(self, player: int, eps: float, params: GameParams):
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("eps must be positive and finite")
        require_valid(params)
        if player not in (1, 2, 3):
            raise ValueError("player must be 1, 2 or 3")
        self.player = player
        self.eps = float(eps)
        self._i = player - 1
        self._j, self._k = [m for m in range(3) if m != self._i]
        self._r0 = params.r0
        self._cap = 2.0 * params.p3
        self.name = f"good(eps={eps:g})"

    def invests(self, x):
        xi = x[self._i]
        xj = x[self._j]
        xk = x[self._k]
        eps = self.eps
        return (xi > xj - eps) & (xi > xk - eps) & (xi >= self._r0) & (xj + xk <= self._cap)

    def descriptor(self) -> dict:
        return {"kind": "good", "eps": self.eps}


class GoodColumns:
    """Good strategies of m slots, decided together on columns.

    Not a strategy: it fills no seat, it only decides column r as
    instances[r] does, in one fused test per call.
    """

    def __init__(self, instances):
        rows = [(g.eps, math.nextafter(g._r0, -math.inf), g._cap) for g in instances]
        self.eps, self._r0_below, self._cap = np.array(rows).T

    def invests_columns(self, x):
        """`invests` of each slot on a (3, m) array x of its own, lower and
        higher opponent coordinate, as xi > max(max(xj, xk) - eps, r0_below)
        & (xj + xk <= cap).  This is the scalar test exactly at every non-NaN
        point: rounding is monotone, so fl(max(xj, xk) - eps) equals
        max(fl(xj - eps), fl(xk - eps)), and xi >= r0 holds exactly when
        xi > r0_below = nextafter(r0, -inf), as no float lies between."""
        xj, xk = x[1], x[2]
        above = np.maximum(np.maximum(xj, xk) - self.eps, self._r0_below)
        return (x[0] > above) & (xj + xk <= self._cap)


class ConstantStrategy(Strategy):
    def __init__(self, action: str):
        if action not in (INVEST, NOT_INVEST):
            raise ValueError(f"unknown action {action!r}")
        self.action = action
        self._invests = action == INVEST
        self.name = f"constant({action})"

    def invests(self, x) -> bool:
        return self._invests

    def descriptor(self) -> dict:
        return {"kind": "constant", "action": self.action}


class RandomStrategy(Strategy):
    """Invest with fixed probability using Python's Mersenne Twister.

    The generator is random.Random(seed); one uniform draw per decision,
    invest iff draw < p.  The algorithm is part of the contract so that
    runs reproduce bit-exactly across machines.  The state is mutable:
    one trajectory at a time; use fresh() for a clean copy.
    """

    def __init__(self, p: float, seed: int):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        self.p = float(p)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.name = f"random({p:g},seed={seed})"

    def invests(self, x) -> bool:
        return self._rng.random() < self.p

    def plan(self, stages: int, cache: dict) -> np.ndarray:
        """The next `stages` decisions as an invest mask.

        Draws exactly as `stages` calls to invests would and leaves the
        generator in the same state.  `cache` shares the draws among
        instances whose generators are in equal states (fresh copies of
        one seed), which then only jump to the end state.
        """
        key = (self.p, stages, self._rng.getstate())
        hit = cache.get(key)
        if hit is None:
            rnd = self._rng.random
            draws = np.fromiter(starmap(rnd, repeat((), stages)), dtype=float, count=stages)
            hit = cache[key] = (draws < self.p, self._rng.getstate())
        else:
            self._rng.setstate(hit[1])
        return hit[0]

    def descriptor(self) -> dict:
        return {"kind": "random", "p": self.p, "seed": self.seed}

    def fresh(self) -> "RandomStrategy":
        clean = copy.copy(self)
        clean._rng = random.Random(self.seed)
        return clean


class Example2Defector(Strategy):
    """The third-player strategy from worked example 2 of the docs.

    Built for the canonical example game and a threshold eps in (0, 1/2)
    shared with the two good players.  It refuses to invest exactly on
    V_1 intersected with the symmetric slice Z = {x1 = x2} and with the
    triangle spanned by B, D and player 3's lone-investor vertex C1_3,
    where D = (p3 - eps/2, p3 - eps/2, p3 + eps/2).  Against two good
    players this drags the play toward D, overshooting p3 by eps/2, and
    slides along the edge D-C1_3, the one edge tested (B's barycentric
    coordinate, -1e-10 band): on Z in V_1 and S, BD lies on V_1's cap
    t + z = 2 p3 and B-C1_3 on an edge of S cut with Z, so neither decides.
    """

    def __init__(self, params: GameParams, eps: float):
        canon = example_game()
        if params != canon:
            raise ValueError("the example-2 defector is defined for the canonical example game only")
        if not 0.0 < eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        self.eps = float(eps)
        self._good1 = GoodStrategy(1, eps, params)
        # Triangle vertices in the (t, z) coordinates of Z, x = (t, t, z), and B's barycentric row.
        p3, r1, p1 = params.p3, params.r1, params.p1
        tb, zb = p3, p3
        td, zd = p3 - eps / 2.0, p3 + eps / 2.0
        tc, zc = r1, p1
        det = (tb - tc) * (zd - zc) - (td - tc) * (zb - zc)
        self._tc, self._zc = tc, zc
        self._a11, self._a12 = (zd - zc) / det, -(td - tc) / det
        self.d_point = (td, td, zd)
        self.name = f"example2_defector(eps={eps:g})"

    def invests(self, x) -> bool:
        # invest off the slice Z, else unless in V_1 (= V_2 on Z) and on B's side of D-C1_3
        return x[0] != x[1] or not (self._good1.invests(x) and
                                    self._a11 * (x[0] - self._tc) + self._a12 * (x[2] - self._zc) >= -1e-10)

    def descriptor(self) -> dict:
        return {"kind": "example2_defector", "eps": self.eps}


def build_strategy(desc: dict, params: GameParams, seat: int) -> Strategy:
    """Instantiate a strategy from its JSON descriptor for the given seat."""
    if not isinstance(desc, dict):
        raise ValueError(f"a strategy descriptor must be a JSON object, not {desc!r}")
    kind = desc.get("kind")
    if kind == "good":
        return GoodStrategy(seat, read_finite(desc.get("eps"), "eps"), params)
    if kind == "constant":
        return ConstantStrategy(desc.get("action"))
    if kind == "random":
        return RandomStrategy(read_finite(desc.get("p"), "p"), read_integer(desc.get("seed"), "seed"))
    if kind == "example2_defector":
        return Example2Defector(params, read_finite(desc.get("eps"), "eps"))
    raise ValueError(f"unknown strategy kind {kind!r}")


def build_profile(descs, params: GameParams) -> tuple[Strategy, Strategy, Strategy]:
    if not isinstance(descs, (list, tuple)) or len(descs) != 3:
        raise ValueError("a profile needs a list of exactly three strategy descriptors")
    return tuple(build_strategy(d, params, seat) for seat, d in enumerate(descs, start=1))


def good_profile(params: GameParams, eps: float) -> tuple[Strategy, Strategy, Strategy]:
    return tuple(GoodStrategy(i, eps, params) for i in (1, 2, 3))


def induced_map(profile, params: GameParams):
    """phi = payoff o profile: the step map of the mean dynamics."""
    require_valid(params)
    table = payoff_table(params)
    i1, i2, i3 = (s.invests for s in profile)

    def phi(x):
        return table[i1(x) | i2(x) << 1 | i3(x) << 2]

    return phi
