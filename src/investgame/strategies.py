"""Strategies of the repeated game and the induced step map.

A strategy is a total function from the payoff hull S to {I, NI}; the
only observable it may read is the current mean payoff vector.  A
profile of three strategies composed with the stage payoff map yields
the step map phi driving the mean dynamics.

Strategy kinds double as JSON descriptors for run configuration files:
  {"kind": "good", "eps": 0.4}
  {"kind": "constant", "action": "I" | "NI"}
  {"kind": "random", "p": 0.5, "seed": 11}
  {"kind": "example2_defector", "eps": 0.4}
"""

from __future__ import annotations

import math
import random

import numpy as np

from .stage_game import (
    ALL_PROFILES,
    INVEST,
    NOT_INVEST,
    GameParams,
    example_game,
    payoff,
    read_finite,
    read_integer,
    require_valid,
)


class Strategy:
    """Base: deterministic given (point, own generator state), total on S.

    Besides the scalar `decide`, a kind may offer one of two batch forms
    for `dynamics.simulate_batch`:
      decide_batch(X) -> bool[B], the invest mask at the rows of a (B, 3)
        array of means, for kinds that read the mean;
      plan(stages, cache) -> bool[stages], the invest mask of the next
        `stages` decisions, for kinds that ignore it.
    A batch form counts only where its class is the class that defines
    `decide` or a subclass of it, so a subclass that overrides `decide`
    alone is stepped through `decide`, as are kinds with neither form.
    """

    name = "strategy"

    def decide(self, x) -> str:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def fresh(self) -> "Strategy":
        """Instance with pristine generator state; stateless kinds return self."""
        return self


class GoodStrategy(Strategy):
    """Invest iff the mean payoff lies in V_i = Omega_i^eps minus W_i.

    Player i invests while close enough to the top (strictly within eps of
    every opponent) and not exploited (own mean at least r0, opponents' sum
    at most 2 p3, the strict complement of the W_i trigger).  Boundary
    points follow the letter of these definitions with no tolerance band.
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

    def decide(self, x) -> str:
        xi = x[self._i]
        xj = x[self._j]
        xk = x[self._k]
        eps = self.eps
        if xi > xj - eps and xi > xk - eps:
            if xi >= self._r0 and xj + xk <= self._cap:
                return INVEST
        return NOT_INVEST

    def decide_batch(self, x: np.ndarray) -> np.ndarray:
        xi = x[:, self._i]
        xj = x[:, self._j]
        xk = x[:, self._k]
        eps = self.eps
        return (xi > xj - eps) & (xi > xk - eps) & (xi >= self._r0) & (xj + xk <= self._cap)

    def descriptor(self) -> dict:
        return {"kind": "good", "eps": self.eps}


class ConstantStrategy(Strategy):
    def __init__(self, action: str):
        if action not in (INVEST, NOT_INVEST):
            raise ValueError(f"unknown action {action!r}")
        self.action = action
        self.name = f"constant({action})"

    def decide(self, x) -> str:
        return self.action

    def plan(self, stages: int, cache: dict) -> np.ndarray:
        """`stages` copies of the action as an invest mask; `cache` shares
        one array among equal constants."""
        key = ("constant", self.action, stages)
        if key not in cache:
            cache[key] = np.full(stages, self.action == INVEST)
        return cache[key]

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

    def decide(self, x) -> str:
        return INVEST if self._rng.random() < self.p else NOT_INVEST

    def plan(self, stages: int, cache: dict) -> np.ndarray:
        """The next `stages` decisions as an invest mask.

        Draws exactly as `stages` calls to decide would and leaves the
        generator in the same state.  `cache` shares the draws among
        instances whose generators are in equal states (fresh copies of
        one seed), which then only jump to the end state.
        """
        key = ("random", self.p, stages, self._rng.getstate())
        hit = cache.get(key)
        if hit is None:
            rnd = self._rng.random
            draws = np.fromiter((rnd() for _ in range(stages)), dtype=float, count=stages)
            hit = cache[key] = (draws < self.p, self._rng.getstate())
        else:
            self._rng.setstate(hit[1])
        return hit[0]

    def descriptor(self) -> dict:
        return {"kind": "random", "p": self.p, "seed": self.seed}

    def fresh(self) -> "RandomStrategy":
        return RandomStrategy(self.p, self.seed)


class Example2Defector(Strategy):
    """The third-player strategy from worked example 2 of the docs.

    Built for the canonical example game and a threshold eps in (0, 1/2)
    shared with the two good players.  It refuses to invest exactly on
    V_1 intersected with the symmetric slice Z = {x1 = x2} and with the
    triangle spanned by B, D and the lone-investor vertex of player 3,
    where D = (p3 - eps/2, p3 - eps/2, p3 + eps/2).  Against two good
    players this drags the play toward D, overshooting p3 by eps/2.
    """

    def __init__(self, params: GameParams, eps: float):
        canon = example_game()
        if params != canon:
            raise ValueError("the example-2 defector is defined for the canonical example game only")
        if not 0.0 < eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        self.eps = float(eps)
        self.params = params
        self._good1 = GoodStrategy(1, eps, params)
        # Triangle vertices in the (t, z) coordinates of Z, x = (t, t, z).
        p3, r1, p1 = params.p3, params.r1, params.p1
        tb, zb = p3, p3
        td, zd = p3 - eps / 2.0, p3 + eps / 2.0
        tc, zc = r1, p1
        det = (tb - tc) * (zd - zc) - (td - tc) * (zb - zc)
        self._tc, self._zc = tc, zc
        self._inv = (
            (zd - zc) / det, -(td - tc) / det,
            -(zb - zc) / det, (tb - tc) / det,
        )
        self.d_point = (td, td, zd)
        self.name = f"example2_defector(eps={eps:g})"

    def _in_triangle(self, t, z):
        """Barycentric test of (t, z); floats give a bool, arrays a mask."""
        a11, a12, a21, a22 = self._inv
        dt = t - self._tc
        dz = z - self._zc
        l1 = a11 * dt + a12 * dz
        l2 = a21 * dt + a22 * dz
        l3 = 1.0 - l1 - l2
        return (l1 >= -1e-10) & (l2 >= -1e-10) & (l3 >= -1e-10)

    def decide(self, x) -> str:
        if x[0] != x[1]:  # outside the slice Z
            return INVEST
        if self._good1.decide(x) == NOT_INVEST:  # outside V_1 (= V_2 on Z)
            return INVEST
        return NOT_INVEST if self._in_triangle(x[0], x[2]) else INVEST

    def decide_batch(self, x: np.ndarray) -> np.ndarray:
        return (x[:, 0] != x[:, 1]) | ~self._good1.decide_batch(x) | ~self._in_triangle(x[:, 0], x[:, 2])

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
    s1, s2, s3 = profile
    table = {acts: payoff(params, acts) for acts in ALL_PROFILES}
    d1, d2, d3 = s1.decide, s2.decide, s3.decide

    def phi(x):
        return table[(d1(x), d2(x), d3(x))]

    return phi
