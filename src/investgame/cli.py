"""Command-line interface: validate, simulate, verify, certify.

Exit codes are uniform across subcommands: 0 the check passed, 1 the
check ran and came out false, 2 usage or configuration errors.  All file
outputs honor the INVESTGAME_OUTDIR environment variable; identical
configuration (seeds included) produces byte-identical outputs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import asdict, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import harness
from .dynamics import stages, write_csv
from .geometry import hull_point, in_hull
from .stage_game import (
    GameParams,
    example_game,
    read_finite,
    read_integer,
    read_object,
    read_path,
    read_payoffs,
    read_vector,
    validate_params,
    vertices,
)
from .strategies import build_profile, induced_map

OUTDIR_ENV = "INVESTGAME_OUTDIR"


def _out_path(value, key: str) -> str:
    """An output file path, resolved against $INVESTGAME_OUTDIR (if set) when relative."""
    return os.path.join(os.environ.get(OUTDIR_ENV, ""), read_path(value, key))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _game(value, key: str) -> GameParams:
    path = read_path(value, key)
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


def _as_is(value, key: str):
    """A value its command reads itself (descriptors need the game loaded)."""
    return value


def _start(value, key: str) -> dict:
    """simulate's start: exactly one of a `point` of S or barycentric `weights`."""
    start = read_object(value, {"point": lambda v, _: read_vector(v, 3, "start point"),
                                "weights": lambda v, _: read_vector(v, 8, "start weights")}, key)
    if len(start) != 1:
        raise ValueError(f"start must give exactly one of point or weights, not {value!r}")
    return start


def _example1_starts(value, key: str):
    """Example 1's starts: a list of points, or a positive count of random ones."""
    if isinstance(value, (list, tuple)):
        return _vectors(value, 2, key)
    count = read_integer(value, key)
    if count < 1:
        raise ValueError("starts must be a positive count or a list of points")
    return count


_FILES = {"game": _game, "out": _out_path}
_EXAMPLE1_ENDS = dict.fromkeys("ab", lambda value, key: read_vector(value, 2, key))
_BATTERY = {"eps": read_finite, "n": read_integer, "slack": read_finite, "window": read_finite,
            "dist_slack": read_finite, "starts": lambda v, key: tuple(_vectors(v, 8, key)), **_FILES}
_LYAPUNOV = {"map": _as_is, "c": read_finite, "eps": _positive, "eta": read_finite, "delta": read_finite,
             "pitch": _positive, **_FILES}

#: The keys each command variant reads, flags included, with their readers,
#: declared once: `_options` refuses a flag or a config key its map lacks.
_OPTIONS = {
    "simulate": {"strategies": _as_is, "start": _start, "n": read_integer, **_FILES},
    **dict.fromkeys(("verify t3", "verify t4", "verify t2"), _BATTERY),
    "verify example1": {**_EXAMPLE1_ENDS, "n": read_integer, "tol": read_finite, "starts": _example1_starts,
                        "seed": read_integer, "out": _out_path},
    "verify example2": {"eps": read_finite, "n": read_integer, "tol": read_finite,
                        "starts": lambda v, key: _vectors(v, 3, key), "out": _out_path},
    "certify blackwell": {"target": _as_is, **_EXAMPLE1_ENDS, "eps": read_finite, "pitch": _positive,
                          "out": _out_path},
    "certify lyapunov": _LYAPUNOV,
    "certify decrease": {**_LYAPUNOV, "m_bound": _positive},
}


def _options(args) -> dict:
    """The options of args' command variant, its config file's keys with the given
    flags laid over them (a flag wins), each parsed by its `_OPTIONS` reader; a flag
    or key it lacks is an error, and one given by neither takes the library's default."""
    command = _GRAMMAR[args.command]
    given = vars(args)
    variant = " ".join([args.command] + [given[name] for name, choices, _ in command.positionals if choices])
    readers = _OPTIONS[variant]
    flags = {flag: given[flag] for flag in command.flags if given[flag] is not None}
    unread = [f"--{flag}" for flag in flags if flag not in readers]
    if unread:
        raise ValueError(f"{variant} does not read {', '.join(unread)}")
    cfg = _load_json(args.config) if args.config else {}
    return read_object({**cfg, **flags} if isinstance(cfg, dict) else cfg, readers, f"{variant} config")


def _emit(payload: dict, out: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # JSON has no Infinity or NaN
        raise ValueError("the report holds a number that is not finite, which JSON cannot write") from exc
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_validate(args) -> int:
    report = validate_params(read_payoffs(_load_json(args.game)))
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 1


def cmd_simulate(args) -> int:
    opts = _options(args)
    params = opts.get("game") or example_game()
    profile = build_profile(opts.get("strategies"), params)
    [(key, x1)] = opts.get("start", {"weights": (0.125,) * 8}).items()
    if key == "weights":
        x1 = hull_point(vertices(params), x1)
    if not in_hull(vertices(params).all_points(), x1):
        raise ValueError(f"start point {list(x1)} is outside the payoff hull S")
    rows = stages(induced_map(profile, params), x1, opts.get("n", harness.DEFAULT_N))
    comment = "strategies: " + json.dumps([s.descriptor() for s in profile], sort_keys=True)
    if opts.get("out"):
        with open(opts["out"], "w", newline="") as fh:
            write_csv(rows, fh, comment=comment)
    else:
        write_csv(rows, sys.stdout, comment=comment)
    return 0


def cmd_verify(args) -> int:
    opts = _options(args)
    out = opts.pop("out", None)
    if args.claim in ("t3", "t4", "t2"):
        config = harness.HarnessConfig(params=opts.pop("game", None) or example_game(), **opts)
        report = {"t3": harness.verify_t3, "t4": harness.verify_t4, "t2": harness.verify_t2}[args.claim](config)
    else:  # example1 or example2; the grammar restricts the choices
        report = {"example1": harness.run_example1, "example2": harness.run_example2}[args.claim](**opts)
    _emit(report.as_dict(), out)
    return 0 if report.passed else 1


def _certify_blackwell(opts: dict, pitch: float) -> tuple[bool, dict]:
    target = opts.get("target")
    if target in ("example1_line", "example1_segment", "example1_singleton"):
        targets = harness.example1_targets(opts.get("a", harness.EXAMPLE1_A), opts.get("b", harness.EXAMPLE1_B), pitch)
    elif target in ("example2_triangle", "example2_union"):
        targets = harness.example2_targets(opts.get("eps", harness.DEFAULT_EPS), pitch)
    else:
        raise ValueError(f"unknown blackwell target {target!r}")
    if len(targets.domain) == 0:
        raise ValueError(f"pitch {pitch} leaves no grid point in the {target} domain")
    sub = targets.certify(target.partition("_")[2]).as_dict()
    return bool(sub["holds"]), {"kind": "blackwell", "target": target, **sub}


def _certify_lyapunov(opts: dict, pitch: float, want_decrease: bool) -> tuple[bool, dict]:
    from . import lyapunov  # imported on use: verify and simulate never need it

    params = opts.get("game") or example_game()
    map_kind = opts.get("map", "all_good")
    if map_kind == "all_good":
        spec = lyapunov.six_direction_spec(opts.get("c", 0.3), opts.get("delta"))
        mmap = lyapunov.good_profile_plane_map(params)
    elif map_kind == "two_good":
        eps, eta = opts.get("eps", harness.DEFAULT_EPS), opts.get("eta", 0.1)
        c = (eps + eta) / 2.0**0.5
        spec = lyapunov.four_direction_spec(c, opts.get("delta", eta / (2.0 * 2.0**0.5)))
        mmap = lyapunov.two_good_plane_map(params, eps)
    else:
        raise ValueError(f"unknown map kind {map_kind!r}")
    grid = lyapunov.certification_grid(spec, params, pitch)
    if len(grid) == 0:
        raise ValueError(f"pitch {pitch} leaves no grid point outside Delta_c")
    base = replace(lyapunov.check_lyapunov(spec, mmap, grid), grid_pitch=pitch)
    payload = {"kind": "lyapunov", "map": mmap.label, "c": spec.c, "delta": spec.delta}
    if not want_decrease:
        return base.holds, {**payload, **base.as_dict()}
    consts = lyapunov.t1_constants(spec, opts.get("m_bound", 60.0))
    dec = replace(lyapunov.decrease_check(spec, mmap, consts, grid), grid_pitch=pitch)
    payload.update(kind="decrease", constants=asdict(consts), lyapunov_holds=base.holds)
    return base.holds and dec.holds, {**payload, **dec.as_dict()}


def cmd_certify(args) -> int:
    opts = _options(args)
    pitch = opts.get("pitch", harness.CERT_PITCH)
    if args.kind == "blackwell":
        ok, payload = _certify_blackwell(opts, pitch)
    else:  # lyapunov or decrease; the grammar restricts the choices
        ok, payload = _certify_lyapunov(opts, pitch, want_decrease=args.kind == "decrease")
    _emit(payload, opts.get("out"))
    return 0 if ok else 1


class _Command(NamedTuple):
    """One subcommand of the grammar: its handler and help, its positionals in
    order as (name, choices or None, help or None), the last of them optional
    when `last_optional` is set, and its flags as {name: help or None}."""

    func: Callable[..., int]
    help: str
    positionals: tuple[tuple[str, tuple[str, ...] | None, str | None], ...]
    last_optional: bool
    flags: dict[str, str | None]


#: The command-line grammar, declared once: `build_parser` builds argparse's
#: parser from it, and `_parse_plain` reads the plain command lines with it.
_GRAMMAR = {
    "validate": _Command(cmd_validate, "check a game file's admissibility inequalities",
                         (("game", None, None),), False, {}),
    "simulate": _Command(cmd_simulate, "run the mean dynamics and emit a trajectory CSV",
                         (("config", None, "run configuration JSON"),), True,
                         dict.fromkeys(("game", "n", "out"))),
    "verify": _Command(cmd_verify, "run a claim's verification battery",
                       (("claim", ("t3", "t4", "t2", "example1", "example2"), None), ("config", None, None)),
                       True, dict.fromkeys(("game", "n", "eps", "slack", "out"))),
    "certify": _Command(cmd_certify, "grid-certify a Blackwell or Lyapunov property",
                        (("kind", ("blackwell", "lyapunov", "decrease"), None), ("config", None, None)),
                        True, {"pitch": "certification grid pitch (payoff units)", "out": None}),
}


@functools.cache
def build_parser():
    """The argparse parser of `_GRAMMAR`, built on first use and shared by
    every later `main` call in the process (each parse returns a fresh
    namespace).  Only help and the command lines `_parse_plain` leaves to it
    need it, so argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="investgame",
        description="Simulate and verify threshold strategies in the repeated 3-player invest dilemma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _GRAMMAR.items():
        p = sub.add_parser(name, help=command.help)
        last = len(command.positionals) - 1
        for k, (pos, choices, text) in enumerate(command.positionals):
            p.add_argument(pos, nargs="?" if command.last_optional and k == last else None,
                           choices=choices, help=text)
        for flag, text in command.flags.items():
            p.add_argument("--" + flag, help=text)
        p.set_defaults(func=command.func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for a plain
    command line: `COMMAND POSITIONAL... [--flag value]...`, with exact flag
    names, each flag at most once and no value that starts with "-".  None
    for any other line (help, `--flag=value`, a prefix, a flag before a
    positional, a usage error), which argparse parses or refuses instead."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    command = _GRAMMAR[argv[0]]
    values = {"command": argv[0], "func": command.func}
    rest = argv[1:]
    k = 0
    for i, (name, choices, _) in enumerate(command.positionals):
        if k < len(rest) and not rest[k].startswith("-"):
            if choices is not None and rest[k] not in choices:
                return None
            values[name] = rest[k]
            k += 1
        elif command.last_optional and i == len(command.positionals) - 1:
            values[name] = None
        else:
            return None
    values.update(dict.fromkeys(command.flags))
    flags = rest[k:]
    if len(flags) % 2:
        return None
    for flag, value in zip(flags[::2], flags[1::2]):
        name = flag[2:]
        if (not flag.startswith("--") or name not in command.flags or values[name] is not None
                or value.startswith("-")):
            return None
        values[name] = value
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
