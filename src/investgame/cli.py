"""Command-line interface: validate, simulate, verify, certify.

Exit codes are uniform across subcommands: 0 the check passed, 1 the
check ran and came out false, 2 usage or configuration errors.  All file
outputs honor the INVESTGAME_OUTDIR environment variable; identical
configuration (seeds included) produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import harness
from .dynamics import iterate, write_csv
from .geometry import hull_point
from .stage_game import GameParams, example_game, validate_params, vertices
from .strategies import build_profile, induced_map

OUTDIR_ENV = "INVESTGAME_OUTDIR"


class ConfigError(Exception):
    pass


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
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return data


def _load_game(path: str | None) -> GameParams:
    if path is None:
        return example_game()
    try:
        return GameParams.from_file(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"bad game file {path}: {exc}") from exc


def _vector(value, length: int, what: str) -> tuple[float, ...]:
    """A config list of `length` finite numbers."""
    try:
        vec = tuple(float(c) for c in value) if isinstance(value, (list, tuple)) else None
    except (TypeError, ValueError):
        vec = None
    if vec is None or len(vec) != length or not all(math.isfinite(c) for c in vec):
        raise ConfigError(f"{what} must be a list of {length} finite numbers, not {value!r}")
    return vec


def _vectors(value, length: int, what: str) -> list[tuple[float, ...]]:
    """A non-empty config list of points, each `length` finite numbers."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{what} must be a non-empty list of points")
    return [_vector(v, length, f"each of {what}") for v in value]


def _positive(value, what: str) -> float:
    x = _finite(value, what)
    if not x > 0:
        raise ConfigError(f"{what} must be positive and finite, not {value!r}")
    return x


def _finite(value, what: str) -> float:
    """A config number that must be finite; the error names the key."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, not {value!r}")
    return x


def _integer(value, what: str) -> int:
    """A config integer; an integral float such as 1e9 is accepted, anything
    else is an error that names the key."""
    x = _finite(value, what)
    if not x.is_integer():
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return int(x)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    out = _resolve_out(out)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    try:
        params = GameParams.from_file(args.game)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = validate_params(params)
    except ValueError as exc:  # non-finite entries
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 1


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    game_path = args.game or cfg.get("game")
    params = _load_game(game_path)
    report = validate_params(params)
    if not report.ok:
        raise ConfigError("game parameters are inadmissible: " + "; ".join(report.violations))
    descs = cfg.get("strategies")
    if descs is None:
        raise ConfigError("run config needs a 'strategies' list of three descriptors")
    profile = build_profile(descs, params)
    n = args.n if args.n is not None else _integer(cfg.get("n", 100_000), "n")
    start_cfg = cfg.get("start", {"weights": [0.125] * 8})
    if "point" in start_cfg:
        x1 = _vector(start_cfg["point"], 3, "start point")
    elif "weights" in start_cfg:
        x1 = hull_point(vertices(params), start_cfg["weights"])
    else:
        raise ConfigError("start must give 'point' or 'weights'")
    traj = iterate(induced_map(profile, params), x1, n)
    comment = "strategies: " + json.dumps([s.descriptor() for s in profile], sort_keys=True)
    out = _resolve_out(args.out or cfg.get("out"))
    if out:
        with open(out, "w", newline="") as fh:
            write_csv(traj, fh, comment=comment)
    else:
        write_csv(traj, sys.stdout, comment=comment)
    return 0


def _harness_config(params: GameParams, cfg: dict, args) -> harness.HarnessConfig:
    kwargs: dict = {"params": params}
    for key in ("eps", "n", "slack", "window", "dist_slack", "dist_pitch"):
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key in cfg:
            kwargs[key] = _integer(cfg[key], key) if key == "n" else _finite(cfg[key], key)
    if "starts" in cfg:
        kwargs["starts"] = tuple(_vectors(cfg["starts"], 8, "starts"))
    return harness.HarnessConfig(**kwargs)


def cmd_verify(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    out = args.out or cfg.get("out")
    if args.claim in ("t3", "t4", "t2"):
        params = _load_game(args.game or cfg.get("game"))
        config = _harness_config(params, cfg, args)
        if args.claim == "t3":
            report = harness.verify_t3(config)
        elif args.claim == "t4":
            report = harness.verify_t4(config)
        else:
            report = harness.verify_t2(config)
    elif args.claim == "example1":
        a = _vector(cfg.get("a", (0.0, -1.0)), 2, "a")
        b = _vector(cfg.get("b", (2.0, 1.0)), 2, "b")
        n = args.n if args.n is not None else _integer(cfg.get("n", 100_000), "n")
        tol = _finite(cfg.get("tol", 0.05), "tol")
        starts_cfg = cfg.get("starts", 20)
        if isinstance(starts_cfg, int):
            if starts_cfg < 1:
                raise ConfigError("starts must be a positive count or a list of points")
            starts = harness.example1_starts(starts_cfg, seed=_integer(cfg.get("seed", 7), "seed"))
        else:
            starts = _vectors(starts_cfg, 2, "starts")
        report = harness.run_example1(a, b, starts, n, tol)
    elif args.claim == "example2":
        eps = args.eps if args.eps is not None else _finite(cfg.get("eps", 0.4), "eps")
        n = args.n if args.n is not None else _integer(cfg.get("n", 100_000), "n")
        tol = _finite(cfg.get("tol", 0.1), "tol")
        starts = cfg.get("starts")
        if starts is not None:
            starts = _vectors(starts, 3, "starts")
        report = harness.run_example2(eps, starts, n, tol, pipeline=bool(cfg.get("pipeline", True)))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown claim {args.claim!r}")
    _emit(report.as_dict(), out)
    return 0 if report.passed else 1


def _certify_blackwell(cfg: dict) -> tuple[bool, dict]:
    target = cfg.get("target")
    pitch = _positive(cfg.get("pitch", 0.25), "pitch")
    if target in ("example1_line", "example1_segment", "example1_singleton"):
        a = _vector(cfg.get("a", (0.0, -1.0)), 2, "a")
        b = _vector(cfg.get("b", (2.0, 1.0)), 2, "b")
        targets = harness.example1_targets(a, b, pitch)
    elif target in ("example2_triangle", "example2_union"):
        targets = harness.example2_targets(_finite(cfg.get("eps", 0.4), "eps"), pitch)
    else:
        raise ConfigError(f"unknown blackwell target {target!r}")
    sub = targets.certify(target.partition("_")[2]).as_dict()
    return bool(sub["holds"]), sub


def _certify_lyapunov(cfg: dict, want_decrease: bool) -> tuple[bool, dict]:
    from . import lyapunov  # imported on use: verify and simulate never need it

    params = _load_game(cfg.get("game"))
    map_kind = cfg.get("map", "all_good")
    pitch = _positive(cfg.get("pitch", 0.25), "pitch")
    if map_kind == "all_good":
        c = _finite(cfg.get("c", 0.3), "c")
        delta = cfg.get("delta")
        spec = lyapunov.six_direction_spec(c, None if delta is None else _finite(delta, "delta"))
        mmap = lyapunov.good_profile_plane_map(params)
    elif map_kind == "two_good":
        eps = _finite(cfg.get("eps", 0.4), "eps")
        eta = _finite(cfg.get("eta", 0.1), "eta")
        c = (eps + eta) / 2.0**0.5
        delta = _finite(cfg.get("delta", eta / (2.0 * 2.0**0.5)), "delta")
        spec = lyapunov.four_direction_spec(c, delta)
        mmap = lyapunov.two_good_plane_map(params, eps)
    else:
        raise ConfigError(f"unknown map kind {map_kind!r}")
    grid = lyapunov.certification_grid(spec, params, pitch)
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
    out = args.out or cfg.get("out")
    if args.kind == "blackwell":
        ok, payload = _certify_blackwell(cfg)
        payload = {"kind": "blackwell", **payload}
    elif args.kind == "lyapunov":
        ok, payload = _certify_lyapunov(cfg, want_decrease=False)
    elif args.kind == "decrease":
        ok, payload = _certify_lyapunov(cfg, want_decrease=True)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown certification kind {args.kind!r}")
    _emit(payload, out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a claim's verification battery")
    p_ver.add_argument("claim", choices=("t3", "t4", "t2", "example1", "example2"))
    p_ver.add_argument("config", nargs="?")
    p_ver.add_argument("--game")
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--eps", type=float)
    p_ver.add_argument("--slack", type=float)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_cert = sub.add_parser("certify", help="grid-certify a Blackwell or Lyapunov property")
    p_cert.add_argument("kind", choices=("blackwell", "lyapunov", "decrease"))
    p_cert.add_argument("config", nargs="?")
    p_cert.add_argument("--pitch", type=float, help="certification grid pitch (payoff units)")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
