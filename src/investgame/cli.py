"""Command-line interface: validate, simulate, verify, certify.

Exit codes are uniform across subcommands: 0 the check passed, 1 the
check ran and came out false, 2 usage or configuration errors.  All file
outputs honor the INVESTGAME_OUTDIR environment variable; identical
configuration (seeds included) produces byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from dataclasses import replace
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


def _json(passed: bool, payload: dict) -> tuple[bool, Callable]:
    """A report's verdict, and the writer of the report as strict JSON."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # JSON has no Infinity or NaN
        raise ValueError("the report holds a number that is not finite, which JSON cannot write") from exc
    return passed, lambda fh: fh.write(text + "\n")


def _simulate(strategies=None, start=None, n=harness.DEFAULT_N, game=None) -> tuple[bool, Callable]:
    params = game or example_game()
    profile = build_profile(strategies, params)
    [(key, x1)] = (start or {"weights": (0.125,) * 8}).items()
    if key == "weights":
        x1 = hull_point(vertices(params), x1)
    if not in_hull(vertices(params).all_points(), x1):
        raise ValueError(f"start point {list(x1)} is outside the payoff hull S")
    rows = stages(induced_map(profile, params), x1, n)
    comment = "strategies: " + json.dumps([s.descriptor() for s in profile], sort_keys=True)
    return True, lambda fh: write_csv(rows, fh, comment=comment)


def _report(report) -> tuple[bool, Callable]:
    return _json(report.passed, report.as_dict())


def _battery(verify, game=None, **keys) -> tuple[bool, Callable]:
    return _report(verify(harness.HarnessConfig(game or example_game(), **keys)))


def _blackwell(targets, target: str, **keys) -> tuple[bool, Callable]:
    """The certificate of `target` among its worked example's `targets`."""
    built = targets(**keys)
    if len(built.domain) == 0:
        raise ValueError(f"pitch {built.pitch} leaves no grid point in the {target} domain")
    sub = built.certify(target.partition("_")[2]).as_dict()
    return _json(bool(sub["holds"]), {"kind": "blackwell", "target": target, **sub})


def _all_good(lyapunov, params, c=0.3, delta=None):
    return lyapunov.six_direction_spec(c, delta), lyapunov.good_profile_plane_map(params)


def _two_good(lyapunov, params, eps=harness.DEFAULT_EPS, eta=0.1, delta=None):
    spec = lyapunov.four_direction_spec((eps + eta) / 2.0**0.5, eta / (2.0 * 2.0**0.5) if delta is None else delta)
    return spec, lyapunov.two_good_plane_map(params, eps)


def _plane(plane, decrease: bool, game=None, pitch=harness.CERT_PITCH, m_bound=60.0, **keys):
    """The Lyapunov certificate of a plane map (`_all_good` or `_two_good`) and
    its support function, and with `decrease` the decrease certificate too."""
    from . import lyapunov  # imported on use: verify and simulate never need it

    params = game or example_game()
    spec, mmap = plane(lyapunov, params, **keys)
    grid = lyapunov.certification_grid(spec, params, pitch)
    if len(grid) == 0:
        raise ValueError(f"pitch {pitch} leaves no grid point outside Delta_c")
    base = replace(lyapunov.check_lyapunov(spec, mmap, grid), grid_pitch=pitch)
    payload = {"kind": "lyapunov", "map": mmap.label, "c": spec.c, "delta": spec.delta}
    if not decrease:
        return _json(base.holds, {**payload, **base.as_dict()})
    consts = lyapunov.t1_constants(spec, m_bound)
    dec = replace(lyapunov.decrease_check(spec, mmap, consts, grid), grid_pitch=pitch)
    payload.update(kind="decrease", constants=dict(vars(consts)), lyapunov_holds=base.holds)
    return _json(base.holds and dec.holds, {**payload, **dec.as_dict()})


_FILES = {"game": _game, "out": _out_path}
_ENDS = dict.fromkeys("ab", lambda value, key: read_vector(value, 2, key))
_BATTERY = {"eps": read_finite, "n": read_integer, "slack": read_finite, "window": read_finite,
            "dist_slack": read_finite, "starts": lambda v, key: tuple(_vectors(v, 8, key)), **_FILES}
_T3_T4 = {key: read for key, read in _BATTERY.items() if key != "dist_slack"}  # t2 alone reads dist_slack
_PITCH = {"pitch": _positive, "out": _out_path}
_ALL_GOOD = {"c": read_finite, "delta": read_finite, "pitch": _positive, **_FILES}
_TWO_GOOD = {"eps": _positive, "eta": read_finite, "delta": read_finite, "pitch": _positive, **_FILES}

#: One row per command variant, (runner, {key: reader}) over the keys and
#: flags the runner acts on; a certify variant adds its `_ROW_KEYS` value.
#: A runner returns its verdict and the writer of its output.
_OPTIONS = {
    "simulate": (_simulate, {"strategies": _as_is, "start": _start, "n": read_integer, **_FILES}),
    "verify t3": (functools.partial(_battery, harness.verify_t3), _T3_T4),
    "verify t4": (functools.partial(_battery, harness.verify_t4), _T3_T4),
    "verify t2": (functools.partial(_battery, harness.verify_t2), _BATTERY),
    "verify example1": (lambda **keys: _report(harness.run_example1(**keys)), {
        **_ENDS, "n": read_integer, "tol": read_finite, "starts": _example1_starts, "seed": read_integer,
        "out": _out_path}),
    "verify example2": (lambda **keys: _report(harness.run_example2(**keys)), {
        "eps": read_finite, "n": read_integer, "tol": read_finite, "starts": lambda v, key: _vectors(v, 3, key),
        "out": _out_path}),
    **{f"certify blackwell {target}": (functools.partial(_blackwell, harness.example1_targets, target),
                                       {**_ENDS, **_PITCH})
       for target in ("example1_line", "example1_segment", "example1_singleton")},
    **{f"certify blackwell {target}": (functools.partial(_blackwell, harness.example2_targets, target),
                                       {"eps": read_finite, **_PITCH})
       for target in ("example2_triangle", "example2_union")},
    "certify lyapunov all_good": (functools.partial(_plane, _all_good, False), _ALL_GOOD),
    "certify lyapunov two_good": (functools.partial(_plane, _two_good, False), _TWO_GOOD),
    "certify decrease all_good": (functools.partial(_plane, _all_good, True), {**_ALL_GOOD, "m_bound": _positive}),
    "certify decrease two_good": (functools.partial(_plane, _two_good, True), {**_TWO_GOOD, "m_bound": _positive}),
}

#: The config key naming a certify kind's row, its default (None: required) and what errors call its values.
_ROW_KEYS = {"certify blackwell": ("target", None, "blackwell target"),
             **dict.fromkeys(("certify lyapunov", "certify decrease"), ("map", "all_good", "map kind"))}


def _options(args) -> tuple[Callable, dict]:
    """The runner of args' command variant and its options.  The row is picked
    first (a certify row by the config's `_ROW_KEYS` key); the options are the
    config file's keys with the given flags laid over them (a flag wins), each
    parsed by the row's reader.  A flag or key the row lacks is an error."""
    command = _GRAMMAR[args.command]
    given = vars(args)
    variant = " ".join([args.command] + [given[name] for name, choices, _ in command.positionals if choices])
    cfg = _load_json(args.config) if args.config is not None else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{variant} config must be a JSON object, not {cfg!r}")
    if variant in _ROW_KEYS:
        key, default, what = _ROW_KEYS[variant]
        name = cfg.pop(key, default)
        variant += f" {name}"
        if variant not in _OPTIONS:
            raise ValueError(f"unknown {what} {name!r}")
    run, readers = _OPTIONS[variant]
    flags = {flag: given[flag] for flag in command.flags if given[flag] is not None}
    unread = [f"--{flag}" for flag in flags if flag not in readers]
    if unread:
        raise ValueError(f"{variant} does not read {', '.join(unread)}")
    return run, read_object({**cfg, **flags}, readers, f"{variant} config")


def cmd_validate(args) -> int:
    report = validate_params(read_payoffs(_load_json(args.game)))
    if report.ok:
        print("ok")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 1


def cmd_run(args) -> int:
    """Run a simulate, verify or certify variant and write its output to `out`, or stdout."""
    run, opts = _options(args)
    out = opts.pop("out", None)
    passed, write = run(**opts)
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        write(fh)
    return 0 if passed else 1


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
    "simulate": _Command(cmd_run, "run the mean dynamics and emit a trajectory CSV",
                         (("config", None, "run configuration JSON"),), True,
                         dict.fromkeys(("game", "n", "out"))),
    "verify": _Command(cmd_run, "run a claim's verification battery",
                       (("claim", ("t3", "t4", "t2", "example1", "example2"), None), ("config", None, None)),
                       True, dict.fromkeys(("game", "n", "eps", "slack", "out"))),
    "certify": _Command(cmd_run, "grid-certify a Blackwell or Lyapunov property",
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
