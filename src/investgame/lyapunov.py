"""Max-of-linear-forms Lyapunov certificates for the projected dynamics.

V(x) = max_i <p_i, x> over unit directions p_i is the support function of
the direction set: convex, positively homogeneous, 1-Lipschitz.  V
certifies a multivalued step map phi when, outside the sub-level region
Delta_c = {V < c}, every delta-active direction is non-positive on every
value of phi.  That property forces a uniform decrease of V along mean
trajectories (with explicit constants r, gamma, alpha0) and ultimately
traps the trajectory in Delta_c1 for any c1 > c.

The projected step maps of the repeated game are represented here as
finite-valued multimaps on the plane P: the value set starts from the
projected payoff vertices and drops the values a plane position provably
cannot realize.  Each drop rule is keyed to a direction v and a threshold
t: whenever <v, y> > t, every lift of y satisfies a strict coordinate
inequality which, through the region algebra of the good strategies,
rules out the associated stage outcomes.  Dropping too little is safe:
the represented value set is always a superset of the true one, so a
certificate on the representation covers the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approachability import CERT_TOL, CertReport, grid_certificate
from .geometry import V_DIRS, dot3, norm3, plane_grid, project_plane
from .stage_game import ALL_INVEST, GameParams, payoff_table

_S2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SupportSpec:
    """Unit directions plus the certificate constants c and delta."""

    vectors: tuple[tuple[float, float, float], ...]
    c: float
    delta: float

    def __post_init__(self):
        for p in self.vectors:
            if abs(norm3(p) - 1.0) > 1e-12:
                raise ValueError(f"direction {p} is not a unit vector")
        if not 0.0 < self.delta < self.c:
            raise ValueError("need 0 < delta < c")


def six_direction_spec(c: float, delta: float | None = None) -> SupportSpec:
    """All six plane directions; certifies the all-good projected map."""
    return SupportSpec(vectors=V_DIRS, c=c, delta=c / 2 if delta is None else delta)


def four_direction_spec(c: float, delta: float) -> SupportSpec:
    """Directions v1, v2, v3, v6; certifies the two-good-players map."""
    return SupportSpec(
        vectors=(V_DIRS[0], V_DIRS[1], V_DIRS[2], V_DIRS[5]), c=c, delta=delta
    )


def support_value(spec: SupportSpec, x) -> tuple[float, tuple[int, ...]]:
    """V(x) and the delta-active index set {i : V_i(x) >= V(x) - delta}."""
    vals = [dot3(p, x) for p in spec.vectors]
    v = max(vals)
    active = tuple(i for i, val in enumerate(vals) if val >= v - spec.delta)
    return v, active


def _support(spec: SupportSpec, cols) -> np.ndarray:
    """V over many points, given their three coordinate columns; dot3 on
    columns keeps its operand order, so each point's value is the scalar
    one."""
    out = dot3(spec.vectors[0], cols)
    for p in spec.vectors[1:]:
        out = np.maximum(out, dot3(p, cols))
    return out


class PlaneMultiMap:
    """Finite-valued multimap on the plane P with (direction, threshold, drops) rules."""

    def __init__(self, values, rules: Sequence[tuple], label: str):
        self.values = [tuple(map(float, v)) for v in values]
        self.rules = tuple(rules)
        self.label = label

    def alive(self, cols) -> np.ndarray:
        """(M, len(values)): which values each of M plane points keeps, given
        the points' coordinate columns; a rule fires where
        <direction, y> > threshold and drops its values."""
        keep = np.ones((len(cols[0]), len(self.values)), dtype=bool)
        for direction, threshold, drops in self.rules:
            fired = dot3(direction, cols) > threshold
            keep[:, drops] &= ~fired[:, None]
        return keep

    def __call__(self, x) -> list[tuple[float, float, float]]:
        keep = self.alive(np.asarray([x], dtype=float).T)[0]
        return [v for v, kept in zip(self.values, keep) if kept]


def _coded_map(params: GameParams, codes, rules, label: str) -> PlaneMultiMap:
    """The projected payoffs of decision `codes` (bit i set when seat i invests), in
    order, under rules (direction, threshold, dropped codes) turned into value indices."""
    table = payoff_table(params)
    return PlaneMultiMap([project_plane(table[c]) for c in codes],
                         [(v, t, [j for j, c in enumerate(codes) if c in dropped]) for v, t, dropped in rules],
                         label)


def good_profile_plane_map(params: GameParams) -> PlaneMultiMap:
    """Projected step map of the all-good profile.

    Values: B, C1_1, C1_2, C1_3, C2_1, C2_2, C2_3 (projected onto P).  A
    never occurs: the coordinate-sum bounds of S force the argmax player to
    invest.  A positive <v, y> orients one pairwise coordinate comparison
    for every lift, y_lo < y_hi with lo = argmin v and hi = argmax v.  A
    lone investor is an argmax, so seat lo does not invest alone, and a
    lone refuser is an argmin, so seat hi does not refuse alone.
    """
    return _coded_map(params, (ALL_INVEST, 1, 2, 4, 6, 5, 3), [
        (v, 0.0, {1 << v.index(min(v)), ALL_INVEST ^ 1 << v.index(max(v))}) for v in V_DIRS
    ], label="all_good")


def two_good_plane_map(params: GameParams, eps: float) -> PlaneMultiMap:
    """Projected envelope of any profile (good, good, arbitrary third).

    Value cells on the lifts: {C1_1, C2_2} on V1 minus V2, {C1_2, C2_1} on
    V2 minus V1, {B, C2_3} on V1 and V2, {A, C1_3} on neither.  Value order
    here: C1_1, C2_2, C1_2, C2_1, B, C2_3, A, C1_3.  The v6 (v3) rule drops
    the cell where seat 2 (1) is the lone investor of the good seats, by the
    argmax/argmin algebra; the v1 (v2) rule fires only above eps/sqrt(2),
    where every lift leaves Omega_2^eps (Omega_1^eps) and with it V2 (V1),
    and drops every code where that seat invests."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    thr = eps / _S2
    return _coded_map(params, (1, 5, 2, 6, ALL_INVEST, 3, 0, 4), [
        (V_DIRS[5], 0.0, {c for c in range(8) if c & 3 == 2}),
        (V_DIRS[2], 0.0, {c for c in range(8) if c & 3 == 1}),
        (V_DIRS[0], thr, {c for c in range(8) if c & 2}),
        (V_DIRS[1], thr, {c for c in range(8) if c & 1}),
    ], label="two_good")


def certification_grid(spec: SupportSpec, params: GameParams, pitch: float) -> np.ndarray:
    """Plane-grid samples of the projected payoff hexagon outside Delta_c, (M, 3)."""
    grid = plane_grid(params, pitch)
    return grid[_support(spec, grid.T) >= spec.c]


def check_lyapunov(spec: SupportSpec, mmap: PlaneMultiMap, grid: Sequence) -> CertReport:
    """Certify the support function against the multimap outside Delta_c.

    For every sample x (which must satisfy V(x) >= c), every delta-active
    index i and every value w of the map: V_i(w) <= CERT_TOL.  Evaluated
    over the whole grid, one (i, w) pair at a time; the witness is the
    first violating pair at the first violating sample.
    """
    if len(grid) == 0:
        raise ValueError("empty certification grid")
    inner = [[dot3(p, w) for w in mmap.values] for p in spec.vectors]

    def violations(cols, support, alive):
        for i, p in enumerate(spec.vectors):
            active = dot3(p, cols) >= support - spec.delta
            for j in range(len(mmap.values)):
                if inner[i][j] > CERT_TOL:
                    yield active & alive[:, j], (i, j, support)

    def witness(i, j, support):
        return {"direction_index": i + 1, "value": list(mmap.values[j]), "inner": inner[i][j],
                "support": float(support[0])}

    return _plane_certificate(spec, mmap, grid, violations, witness)


def _plane_certificate(spec, mmap, grid, violations, witness) -> CertReport:
    """`grid_certificate` over an (M, 3) grid, a row's elements its coordinates or the map values
    it keeps; `violations(cols, support, alive)` reads the rows' columns, V and kept values."""
    return grid_certificate(np.asarray(grid, dtype=float).reshape(-1, 3), max(3, len(mmap.values)),
                            lambda rows: violations(rows.T, _support(spec, rows.T), mmap.alive(rows.T)),
                            witness)


@dataclass(frozen=True)
class LyapunovConstants:
    """Feasible constants for the uniform-decrease property.

    Invariants (validated on construction via t1_constants): r < delta/2,
    gamma < c - delta, alpha0 < min{(c-delta-gamma)/(c-delta+M), r/(2M), 1}.
    """

    m_bound: float
    delta: float
    r: float
    gamma: float
    alpha0: float


def validate_constants(spec: SupportSpec, consts: LyapunovConstants) -> None:
    c, d = spec.c, consts.delta
    if not 0.0 < d < c:
        raise ValueError("need 0 < delta < c")
    if not consts.r < d / 2:
        raise ValueError("need r < delta/2")
    if not consts.gamma < c - d:
        raise ValueError("need gamma < c - delta")
    cap = min((c - d - consts.gamma) / (c - d + consts.m_bound), consts.r / (2 * consts.m_bound), 1.0)
    if not 0.0 < consts.alpha0 < cap:
        raise ValueError("alpha0 out of the feasible range")


def t1_constants(spec: SupportSpec, m_bound: float) -> LyapunovConstants:
    """One strictly feasible choice: r = delta/4, gamma = (c - delta)/2,
    alpha0 at 90% of its cap.  Existence is all the decrease property needs;
    optimality of alpha0 is irrelevant."""
    if m_bound <= 0:
        raise ValueError("norm bound must be positive")
    c, d = spec.c, spec.delta
    r = d / 4.0
    gamma = (c - d) / 2.0
    alpha0 = 0.9 * min((c - d - gamma) / (c - d + m_bound), r / (2.0 * m_bound), 1.0)
    consts = LyapunovConstants(m_bound=m_bound, delta=d, r=r, gamma=gamma, alpha0=alpha0)
    validate_constants(spec, consts)
    return consts


def decrease_check(spec: SupportSpec, mmap: PlaneMultiMap, consts: LyapunovConstants, grid: Sequence) -> CertReport:
    """Certify V(a w + (1-a) x) <= V(x) - a gamma (+ CERT_TOL) on the sampled domain.

    Sampled at a = alpha0 alone, which decides every a in (0, alpha0], as
    f(a) = V(a w + (1-a) x) - V(x) + a gamma is convex with f(0) = 0; for
    every map value w at every grid point outside Delta_c, one w at a time
    over the grid points where the map keeps w, failures scattered back to
    grid order.  The witness is the first violating w at the first violating sample.
    """
    a = consts.alpha0

    def violations(cols, support, alive):
        for j, w in enumerate(mmap.values):
            rows = np.flatnonzero(alive[:, j])
            kept, kept_support = cols[:, rows], support[rows]
            lhs = _support(spec, [a * w[c] + (1 - a) * kept[c] for c in range(3)])
            rhs = kept_support - a * consts.gamma
            hit = np.zeros(len(support), dtype=bool)
            hit[rows] = lhs > rhs + CERT_TOL
            yield hit, (w, lhs, rhs)

    def witness(w, lhs, rhs):
        return {"value": list(w), "alpha": a, "lhs": float(lhs[0]), "rhs": float(rhs[0])}

    return _plane_certificate(spec, mmap, grid, violations, witness)


@dataclass
class EntrapmentReport:
    ok: bool
    entry_index: int | None
    c1: float
    max_after_entry: float


def entrapment_check(spec: SupportSpec, means: Sequence, c1: float) -> EntrapmentReport:
    """Least stage N after which the projected means stay inside Delta_c1.

    The means are payoff-space points; each is projected onto P before V is
    evaluated.  Fails when the final mean still sits outside Delta_c1.
    """
    if c1 <= spec.c:
        raise ValueError("need c1 > c")
    vals = _support(spec, project_plane(np.asarray(means, dtype=float).T))
    bad = np.flatnonzero(vals >= c1)
    last_bad = int(bad[-1]) + 1 if len(bad) else 0
    if last_bad == len(vals):
        return EntrapmentReport(ok=False, entry_index=None, c1=c1, max_after_entry=float(vals[-1]))
    entry = last_bad + 1
    return EntrapmentReport(
        ok=True, entry_index=entry, c1=c1, max_after_entry=float(vals[entry - 1:].max()),
    )
