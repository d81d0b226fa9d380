"""Command-line interface: validate, simulate, verify, certify.

Exit codes are uniform across subcommands: 0 the check passed, 1 the
check ran and came out false, 2 usage or configuration errors.  All file
outputs honor the INVESTGAME_OUTDIR environment variable; identical
configuration (seeds included) produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import harness
from .dynamics import stages, write_csv
from .geometry import hull_point, in_hull
from .stage_game import (
    GameParams,
    example_game,
    read_finite,
    read_integer,
    read_path,
    read_vector,
    require_valid,
    validate_params,
    vertices,
)
from .strategies import build_profile, induced_map

OUTDIR_ENV = "INVESTGAME_OUTDIR"


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _load_game(path: str | None) -> GameParams:
    if path is None:
        return example_game()
    try:
        return GameParams.from_file(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad game file {path}: {exc}") from exc


def _vectors(value, length: int, what: str) -> list[tuple[float, ...]]:
    """A non-empty config list of points, each `length` finite numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{what} must be a non-empty list of points")
    return [read_vector(v, length, f"each of {what}") for v in value]


def _positive(value, what: str) -> float:
    x = read_finite(value, what)
    if not x > 0:
        raise ValueError(f"{what} must be positive and finite, not {value!r}")
    return x


#: Readers of example 1's segment ends, each a point of the plane.
_EXAMPLE1_ENDS = dict.fromkeys("ab", lambda value, key: read_vector(value, 2, key))


def _given(cfg: dict, args, readers: dict) -> dict:
    """The options a flag or the config file gives, each parsed by its reader
    (a flag wins); options given by neither are left out for the library's defaults."""
    out = {}
    for key, read in readers.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = read(flag, key)
        elif key in cfg:
            out[key] = read(cfg[key], key)
    return out


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = _resolve_out(out)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    report = validate_params(GameParams.from_file(args.game))
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 1


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    params = _load_game(_given(cfg, args, {"game": read_path}).get("game"))
    require_valid(params)
    descs = cfg.get("strategies")
    if descs is None:
        raise ValueError("run config needs a 'strategies' list of three descriptors")
    profile = build_profile(descs, params)
    n = _given(cfg, args, {"n": read_integer}).get("n", harness.DEFAULT_N)
    start_cfg = cfg.get("start", {"weights": [0.125] * 8})
    if not (isinstance(start_cfg, dict) and ("point" in start_cfg or "weights" in start_cfg)):
        raise ValueError(f"start must be an object giving 'point' or 'weights', not {start_cfg!r}")
    if "point" in start_cfg:
        x1 = read_vector(start_cfg["point"], 3, "start point")
    else:
        x1 = hull_point(vertices(params), read_vector(start_cfg["weights"], 8, "start weights"))
    if not in_hull(vertices(params).all_points(), x1):
        raise ValueError(f"start point {list(x1)} is outside the payoff hull S")
    rows = stages(induced_map(profile, params), x1, n)
    comment = "strategies: " + json.dumps([s.descriptor() for s in profile], sort_keys=True)
    out = _resolve_out(_given(cfg, args, {"out": read_path}).get("out"))
    if out:
        with open(out, "w", newline="") as fh:
            write_csv(rows, fh, comment=comment)
    else:
        write_csv(rows, sys.stdout, comment=comment)
    return 0


def _example1_starts(cfg: dict):
    """Example 1's starts: a list of points, or a count (and seed) of random ones."""
    starts = cfg.get("starts")
    if isinstance(starts, (list, tuple)):
        return _vectors(starts, 2, "starts")
    opts = _given(cfg, None, {"seed": read_integer})
    if starts is not None:
        opts["count"] = read_integer(starts, "starts")
        if opts["count"] < 1:
            raise ValueError("starts must be a positive count or a list of points")
    return harness.example1_starts(**opts)


def cmd_verify(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    out = _given(cfg, args, {"out": read_path}).get("out")
    if args.claim in ("t3", "t4", "t2"):
        params = _load_game(_given(cfg, args, {"game": read_path}).get("game"))
        config = harness.HarnessConfig(params=params, **_given(cfg, args, {
            "eps": read_finite, "n": read_integer, "slack": read_finite, "window": read_finite,
            "dist_slack": read_finite, "dist_pitch": read_finite,
            "starts": lambda v, key: tuple(_vectors(v, 8, key)),
        }))
        report = {"t3": harness.verify_t3, "t4": harness.verify_t4, "t2": harness.verify_t2}[args.claim](config)
    elif args.claim == "example1":
        report = harness.run_example1(starts=_example1_starts(cfg), **_given(cfg, args, {
            **_EXAMPLE1_ENDS, "n": read_integer, "tol": read_finite,
        }))
    else:  # example2; argparse restricts the choices
        report = harness.run_example2(**_given(cfg, args, {
            "eps": read_finite, "n": read_integer, "tol": read_finite,
            "starts": lambda v, key: _vectors(v, 3, key),
        }))
    _emit(report.as_dict(), out)
    return 0 if report.passed else 1


def _certify_blackwell(cfg: dict, pitch: float) -> tuple[bool, dict]:
    target = cfg.get("target")
    if target in ("example1_line", "example1_segment", "example1_singleton"):
        targets = harness.example1_targets(**_given(cfg, None, _EXAMPLE1_ENDS), pitch=pitch)
    elif target in ("example2_triangle", "example2_union"):
        targets = harness.example2_targets(**_given(cfg, None, {"eps": read_finite}), pitch=pitch)
    else:
        raise ValueError(f"unknown blackwell target {target!r}")
    if len(targets.domain) == 0:
        raise ValueError(f"pitch {pitch} leaves no grid point in the {target} domain")
    sub = targets.certify(target.partition("_")[2]).as_dict()
    return bool(sub["holds"]), {"kind": "blackwell", "target": target, **sub}


def _certify_lyapunov(cfg: dict, pitch: float, want_decrease: bool) -> tuple[bool, dict]:
    from . import lyapunov  # imported on use: verify and simulate never need it

    params = _load_game(_given(cfg, None, {"game": read_path}).get("game"))
    map_kind = cfg.get("map", "all_good")
    if map_kind == "all_good":
        c = read_finite(cfg.get("c", 0.3), "c")
        spec = lyapunov.six_direction_spec(c, **_given(cfg, None, {"delta": read_finite}))
        mmap = lyapunov.good_profile_plane_map(params)
    elif map_kind == "two_good":
        eps = _positive(cfg.get("eps", harness.DEFAULT_EPS), "eps")  # before c, derived from it
        eta = read_finite(cfg.get("eta", 0.1), "eta")
        c = (eps + eta) / 2.0**0.5
        delta = read_finite(cfg.get("delta", eta / (2.0 * 2.0**0.5)), "delta")
        spec = lyapunov.four_direction_spec(c, delta)
        mmap = lyapunov.two_good_plane_map(params, eps)
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")
    grid = lyapunov.certification_grid(spec, params, pitch)
    if len(grid) == 0:
        raise ValueError(f"pitch {pitch} leaves no grid point outside Delta_c")
    base = lyapunov.check_lyapunov(spec, mmap, grid, pitch=pitch)
    payload = {"kind": "lyapunov", "map": mmap.label, "c": spec.c, "delta": spec.delta}
    if not want_decrease:
        return base.holds, {**payload, **base.as_dict()}
    consts = lyapunov.t1_constants(spec, _positive(cfg.get("m_bound", 60.0), "m_bound"))
    dec = lyapunov.decrease_check(spec, mmap, consts, grid, pitch=pitch)
    payload.update(kind="decrease", constants=asdict(consts), lyapunov_holds=base.holds)
    return base.holds and dec.holds, {**payload, **dec.as_dict()}


def cmd_certify(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    if args.pitch is not None:
        cfg["pitch"] = args.pitch
    pitch = _positive(cfg.get("pitch", harness.CERT_PITCH), "pitch")
    out = _given(cfg, args, {"out": read_path}).get("out")
    if args.kind == "blackwell":
        ok, payload = _certify_blackwell(cfg, pitch)
    else:  # lyapunov or decrease; argparse restricts the choices
        ok, payload = _certify_lyapunov(cfg, pitch, want_decrease=args.kind == "decrease")
    _emit(payload, out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    `main` call in the process (each parse returns a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="investgame",
        description="Simulate and verify threshold strategies in the repeated 3-player invest dilemma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a game file's admissibility inequalities")
    p_val.add_argument("game")
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="run the mean dynamics and emit a trajectory CSV")
    p_sim.add_argument("config", nargs="?", help="run configuration JSON")
    p_sim.add_argument("--game")
    p_sim.add_argument("--n")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a claim's verification battery")
    p_ver.add_argument("claim", choices=("t3", "t4", "t2", "example1", "example2"))
    p_ver.add_argument("config", nargs="?")
    p_ver.add_argument("--game")
    p_ver.add_argument("--n")
    p_ver.add_argument("--eps")
    p_ver.add_argument("--slack")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_cert = sub.add_parser("certify", help="grid-certify a Blackwell or Lyapunov property")
    p_cert.add_argument("kind", choices=("blackwell", "lyapunov", "decrease"))
    p_cert.add_argument("config", nargs="?")
    p_cert.add_argument("--pitch", help="certification grid pitch (payoff units)")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
