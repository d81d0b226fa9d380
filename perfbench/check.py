"""Correctness checks on a repetition's outputs, run after the child has exited.

An operation is a battery or t3 cell, a certificate, a decay check or a CSV.
Each has an expected verdict: every cell passes; every certificate holds and
exits 0 except `certify blackwell example1_singleton`, which must fail, exit
1 and carry a witness; every decay check reports premise_ok and 0 violations.
Values are compared with the references recorded at the seed commit
(reference.json) within TOL_ABS + TOL_REL * |reference|: an engine that only
moves the last bits passes, a changed decision or payoff does not.

Cells with a coin-flip deviant have references for the default workload
seed only; at other seeds they are checked for their verdict and internal
consistency.  The trajectory CSV is checked at every seed by replaying it:
the good players' decisions, the coin flips of random.Random(seed) and the
mean recursion are recomputed from the file itself.
"""

from __future__ import annotations

import copy
import json
import os
import random

import numpy as np

from workloads import DEFAULT_SEED

TOL_ABS = 1e-6
TOL_REL = 1e-9

# The canonical example game (README): non-investor r0..r2, investor p1..p3.
R = (20.0, 28.0, 36.0)
P = (10.0, 18.0, 26.0)

EXPECT_FAIL = {"blackwell_example1_singleton.json"}

REFERENCE_FIELDS = {
    "cell": ("measured", "bound", "tail_intervals", "entered_v3_at"),
    "blackwell": ("holds", "checked", "witness"),
    "lyapunov": ("holds", "checked"),
    "decrease": ("holds", "checked", "constants"),
    "decay": ("n0", "c_const", "d_n0", "max_ratio", "violations"),
    "csv": ("rows", "first", "last"),
}


def close(got, ref) -> bool:
    """Equal within tolerance for numbers, exactly for everything else."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return got == ref
    if isinstance(ref, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - ref) <= TOL_ABS + TOL_REL * abs(ref))
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(map(close, got, ref))
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() \
            and all(close(got[k], ref[k]) for k in ref)
    raise TypeError(f"unexpected reference value {ref!r}")


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Operation records
# ---------------------------------------------------------------------------

def cell_id(cell: dict) -> str:
    start = ",".join(f"{c:.6f}" for c in cell["start"])
    return f"{cell['theorem']}|{'+'.join(cell['deviants'])}|{start}"


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_csv(path: str) -> dict | None:
    try:
        with open(path) as fh:
            comment = fh.readline().rstrip("\n")
            header = fh.readline().rstrip("\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError):
        return None
    return {"comment": comment, "header": header, "data": data}


def records(plan: dict, out_dir: str, codes: dict) -> list[tuple[str, str, object]]:
    """(op id, op kind, record) for every operation output found."""
    workload = plan["workload"]
    out: list[tuple[str, str, object]] = []
    if workload in ("battery", "long_horizon"):
        names = ("t4.json", "t2.json") if workload == "battery" else ("t3.json",)
        for name in names:
            report = _read_json(os.path.join(out_dir, name))
            for cell in (report or {}).get("cells", []):
                out.append((cell_id(cell), "cell", cell))
    elif workload == "trajectory_csv":
        rec = read_csv(os.path.join(out_dir, "traj.csv"))
        if rec is not None:
            rec["exit_code"] = codes.get("simulate")
            out.append(("simulate", "csv", rec))
    else:
        for kind, name in plan["certs"]:
            rec = _read_json(os.path.join(out_dir, name))
            if rec is not None:
                out.append((name, kind, {**rec, "exit_code": codes.get(name)}))
        for oracle in plan["configs"]["decay.json"]["oracles"]:
            rec = _read_json(os.path.join(out_dir, f"decay_{oracle}.json"))
            if rec is not None:
                out.append((f"decay_{oracle}", "decay", rec))
    return out


# ---------------------------------------------------------------------------
# Per-operation checks
# ---------------------------------------------------------------------------

def _cell_problems(plan: dict, cell: dict) -> list[str]:
    bad = []
    if cell.get("pass") is not True:
        bad.append("verdict is not pass")
    if cell.get("N") != plan["n"]:
        bad.append("wrong horizon")
    ivs = cell.get("tail_intervals", [])
    if len(ivs) != 3 or any(lo > hi for lo, hi in ivs):
        bad.append("malformed tail intervals")
        return bad
    m, b = cell["measured"], cell["bound"]
    theorem = cell["theorem"]
    if theorem == "t3":
        if not (m <= b and isinstance(cell.get("entered_v3_at"), int)):
            bad.append("t3 distance or V3 entry inconsistent")
    elif theorem == "t4":
        if not (m == ivs[2][1] and m <= b):
            bad.append("t4 measured differs from the deviator's tail max")
    elif theorem == "t2":
        ok = (m["own_tail_min"] == ivs[0][0]
              and m["own_tail_min"] >= b["own_tail_min"]
              and m["deviators_tail_sum_max"] <= b["deviators_tail_sum_max"]
              and m["dist_to_v1"] <= b["dist_to_v1"]
              and all(v is True for v in cell.get("checks", {}).values()))
        if not ok:
            bad.append("t2 measured values inconsistent with intervals or bounds")
    else:
        bad.append(f"unexpected theorem {theorem!r}")
    return bad


def _payoff_table() -> np.ndarray:
    """Row k: payoff of the profile whose bit i (1 = invest) is bit i of k."""
    rows = []
    for k in range(8):
        acts = [(k >> i) & 1 for i in range(3)]
        n = sum(acts)
        rows.append([P[n - 1] if a else R[n] for a in acts])
    return np.array(rows)


def csv_problems(plan: dict, rec: dict) -> list[str]:
    """Replay the CSV: decisions, coin flips and the mean recursion."""
    cfg = plan["configs"]["run.json"]
    eps = cfg["strategies"][0]["eps"]
    coin = cfg["strategies"][2]
    data = rec["data"]
    bad = []
    if rec["exit_code"] != 0:
        bad.append("simulate exited nonzero")
    if rec["header"] != "n,x1,x2,x3,step1,step2,step3":
        bad.append("unexpected header")
    if data.shape != (plan["rows"], 7):
        return bad + [f"expected {plan['rows']} rows of 7 columns, got {data.shape}"]
    n, x, step = data[:, 0], data[:, 1:4], data[:, 4:7]
    start = np.array(cfg["start"]["point"], dtype=float)
    if not (np.array_equal(n, np.arange(1, len(n) + 1)) and np.array_equal(x[0], start)
            and np.array_equal(step[0], start)):
        bad.append("stage numbering or first row wrong")
    table = _payoff_table()
    match = np.all(step[1:, None, :] == table[None, :, :], axis=2)
    if not np.all(match.sum(axis=1) == 1):
        return bad + ["a step is not a stage payoff"]
    prof = np.argmax(match, axis=1)
    acts = [(prof >> i) & 1 for i in range(3)]
    prev = x[:-1]
    for i, (j, k) in ((0, (1, 2)), (1, (0, 2))):
        xi, xj, xk = prev[:, i], prev[:, j], prev[:, k]
        good = (xi > xj - eps) & (xi > xk - eps) & (xi >= R[0]) & (xj + xk <= 2 * P[2])
        if not np.array_equal(acts[i], good.astype(int)):
            bad.append(f"player {i + 1} deviates from the good strategy")
    rng = random.Random(coin["seed"])
    flips = np.fromiter((rng.random() < coin["p"] for _ in range(len(prev))), dtype=int,
                        count=len(prev))
    if not np.array_equal(acts[2], flips):
        bad.append("player 3 deviates from its coin flips")
    stage = n[1:, None]
    want = ((stage - 1) * prev + step[1:]) / stage
    if not np.all(np.abs(x[1:] - want) <= TOL_ABS + TOL_REL * np.abs(want)):
        bad.append("means do not follow the mean recursion")
    return bad


def _csv_reference_view(rec: dict) -> dict:
    data = rec["data"]
    return {"rows": int(data.shape[0]), "first": data[0].tolist(), "last": data[-1].tolist()}


def op_problems(plan: dict, op_id: str, kind: str, rec, refs: dict | None) -> list[str]:
    """Reasons the operation's output is wrong; empty when it is right.

    refs maps op ids to reference entries of this workload and size; None
    skips the comparison (used only while recording the references).
    """
    if kind == "cell":
        bad = _cell_problems(plan, rec)
    elif kind == "csv":
        bad = csv_problems(plan, rec)
    elif kind == "decay":
        bad = [] if (rec.get("premise_ok") is True and rec.get("violations") == 0
                     and rec.get("ok") is True) else ["decay bound premise or violations"]
    else:
        fail = op_id in EXPECT_FAIL
        bad = []
        if rec.get("exit_code") != (1 if fail else 0) or rec.get("holds") is not (not fail):
            bad.append("certificate verdict or exit code unexpected")
        if fail and not (rec.get("witness") and rec["witness"].get("inner", 0) > 0):
            bad.append("failing certificate carries no witness")
        if kind == "decrease" and rec.get("lyapunov_holds") is not True:
            bad.append("base Lyapunov certificate does not hold")
    if refs is None:
        return bad
    ref = refs.get(op_id)
    default_seed = plan["seed"] == DEFAULT_SEED
    if ref is None:
        if default_seed or not _random_cell(kind, rec):
            bad.append("no reference value")
        return bad
    got = _csv_reference_view(rec) if kind == "csv" else rec
    for key in ref:
        if kind == "csv" and key == "last" and not default_seed:
            continue  # the last row depends on the coin-flip seed
        if key not in got or not close(got[key], ref[key]):
            bad.append(f"{key} differs from the reference")
    return bad


def _random_cell(kind: str, rec) -> bool:
    return kind == "cell" and any(d.startswith("random(") for d in rec["deviants"])


def reference_entry(kind: str, rec) -> dict:
    """The fields of an operation recorded as its reference."""
    if kind == "csv":
        return _csv_reference_view(rec)
    return {k: rec[k] for k in REFERENCE_FIELDS[kind] if k in rec}


def count_failed(plan: dict, recs, refs: dict | None) -> tuple[int, list[str]]:
    """Failed operations (wrong or missing) out of plan['ops']."""
    problems = []
    ok = 0
    for op_id, kind, rec in recs:
        bad = op_problems(plan, op_id, kind, rec, refs)
        if bad:
            problems.append(f"{op_id}: {'; '.join(bad)}")
        else:
            ok += 1
    missing = plan["ops"] - len(recs)
    if missing > 0:
        problems.append(f"{missing} operation outputs missing")
    return plan["ops"] - min(ok, plan["ops"]), problems


# ---------------------------------------------------------------------------
# Negative control
# ---------------------------------------------------------------------------

def _doctor(kind: str, rec):
    """Two doctored copies: one verdict flipped, one value perturbed."""
    flipped, perturbed = copy.deepcopy(rec), copy.deepcopy(rec)
    if kind == "cell":
        flipped["pass"] = not rec["pass"]
        perturbed["tail_intervals"][0][1] += 1e-3
    elif kind == "csv":
        mid = len(rec["data"]) // 2
        bit3 = np.all(_payoff_table() == rec["data"][mid, 4:7], axis=1).argmax() ^ 4
        flipped["data"][mid, 4:7] = _payoff_table()[bit3]  # player 3's action flipped
        perturbed["data"][mid, 1] += 1e-3
    elif kind == "decay":
        flipped["premise_ok"] = not rec["premise_ok"]
        perturbed["max_ratio"] += 1e-3
    else:
        flipped["holds"] = not rec["holds"]
        perturbed["checked"] += 1
    return flipped, perturbed


def negative_control(plan: dict, recs, refs: dict) -> bool:
    """True when both doctored copies of a passing operation are caught."""
    for op_id, kind, rec in recs:
        if _random_cell(kind, rec) or op_problems(plan, op_id, kind, rec, refs):
            continue  # coin-flip cells have references at the default seed only
        return all(op_problems(plan, op_id, kind, bad, refs) for bad in _doctor(kind, rec))
    return False
