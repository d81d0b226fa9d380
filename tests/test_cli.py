import ast
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from investgame.cli import _GRAMMAR, _OPTIONS, _ROW_KEYS, _options, _parse_plain, build_parser, main
from investgame.harness import CERT_PITCH, run_example2

CANON = {"r0": 20, "r1": 28, "r2": 36, "p1": 10, "p2": 18, "p3": 26}


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(CANON))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidate:
    def test_admissible_game(self, game_file, capsys):
        assert main(["validate", game_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_printed_one_per_line(self, tmp_path, capsys):
        bad = dict(CANON, p1=20)
        path = write_json(tmp_path, "bad.json", bad)
        assert main(["validate", path]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("violated: ") for line in lines)
        assert "violated: p1 < r0" in lines

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2

    def test_non_finite_is_a_config_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"r0": NaN, "r1": 28, "r2": 36, "p1": 10, "p2": 18, "p3": 26}')
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2


GOOD_RUN = {
    "strategies": [
        {"kind": "good", "eps": 0.4},
        {"kind": "good", "eps": 0.4},
        {"kind": "good", "eps": 0.4},
    ],
    "start": {"point": [20.0, 20.0, 20.0]},
    "n": 3,
}


class TestSimulate:
    def test_hand_iterated_rows(self, tmp_path, game_file, capsys):
        cfg = write_json(tmp_path, "run.json", GOOD_RUN)
        assert main(["simulate", cfg, "--game", game_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "n,x1,x2,x3,step1,step2,step3"
        rows = [line.split(",") for line in lines[2:]]
        means = [tuple(float(c) for c in r[1:4]) for r in rows]
        assert means == [(20.0, 20.0, 20.0), (23.0, 23.0, 23.0), (24.0, 24.0, 24.0)]

    def test_single_stage_equals_start(self, tmp_path, game_file, capsys):
        cfg = write_json(tmp_path, "run.json", dict(GOOD_RUN, n=1))
        assert main(["simulate", cfg, "--game", game_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[1:4] == ["20", "20", "20"]

    def test_byte_identical_reruns_with_seeds(self, tmp_path, game_file):
        run = {
            "strategies": [
                {"kind": "good", "eps": 0.4},
                {"kind": "random", "p": 0.5, "seed": 11},
                {"kind": "example2_defector", "eps": 0.4},
            ],
            "start": {"weights": [0.125] * 8},
            "n": 500,
        }
        cfg = write_json(tmp_path, "run.json", run)
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["simulate", cfg, "--game", game_file, "--out", out1]) == 0
        assert main(["simulate", cfg, "--game", game_file, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_seeds_recorded_in_header(self, tmp_path, game_file, capsys):
        run = dict(GOOD_RUN)
        run["strategies"] = [
            {"kind": "random", "p": 0.5, "seed": 42},
            {"kind": "constant", "action": "NI"},
            {"kind": "constant", "action": "NI"},
        ]
        cfg = write_json(tmp_path, "run.json", run)
        assert main(["simulate", cfg, "--game", game_file]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("#")
        assert '"seed": 42' in header

    def test_flag_overrides_horizon(self, tmp_path, game_file, capsys):
        cfg = write_json(tmp_path, "run.json", GOOD_RUN)
        assert main(["simulate", cfg, "--game", game_file, "--n", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 + 5

    def test_outdir_env_honored(self, tmp_path, game_file, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv("INVESTGAME_OUTDIR", str(outdir))
        cfg = write_json(tmp_path, "run.json", GOOD_RUN)
        assert main(["simulate", cfg, "--game", game_file, "--out", "traj.csv"]) == 0
        assert (outdir / "traj.csv").exists()

    def test_missing_strategies_is_config_error(self, tmp_path, game_file):
        cfg = write_json(tmp_path, "run.json", {"start": {"point": [20, 20, 20]}})
        assert main(["simulate", cfg, "--game", game_file]) == 2

    def test_unknown_strategy_kind_is_config_error(self, tmp_path, game_file):
        run = dict(GOOD_RUN, strategies=[{"kind": "wat"}] * 3)
        cfg = write_json(tmp_path, "run.json", run)
        assert main(["simulate", cfg, "--game", game_file]) == 2

    def test_inadmissible_game_rejected(self, tmp_path, capsys):
        bad_game = write_json(tmp_path, "bad.json", dict(CANON, p1=20))
        cfg = write_json(tmp_path, "run.json", GOOD_RUN)
        assert main(["simulate", cfg, "--game", bad_game]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad game file {bad_game}: inadmissible game parameters: ")

    def test_zero_horizon_writes_no_file(self, tmp_path):
        cfg = write_json(tmp_path, "run.json", dict(GOOD_RUN, n=0))
        out = tmp_path / "traj.csv"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_horizon_beyond_an_index_writes_no_file(self, tmp_path):
        cfg = write_json(tmp_path, "run.json", dict(GOOD_RUN, n=1e300))
        out = tmp_path / "traj.csv"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_rows_stream_in_constant_memory(self, tmp_path):
        # 50 000 rows of means and steps held at once take several MB
        run = dict(GOOD_RUN, n=50_000, strategies=[
            {"kind": "good", "eps": 0.4}, {"kind": "good", "eps": 0.4},
            {"kind": "random", "p": 0.5, "seed": 11}])
        cfg = write_json(tmp_path, "run.json", run)
        out = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            assert main(["simulate", cfg, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 2 + 50_000
        assert peak < 2_000_000


#: Runs the CLI on its arguments, as `python -m investgame.cli` does, and
#: appends every pid os.fork returns to the parent to the file $FORK_LOG.
FORK_LOGGING_CLI = """
import os, sys
fork = os.fork
def logged():
    pid = fork()
    if pid:
        with open(os.environ["FORK_LOG"], "a") as log:
            print(pid, file=log)
    return pid
os.fork = logged
from investgame.cli import main
sys.exit(main(sys.argv[1:]))
"""

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: A hung writer fails a test rather than blocking it.
CLI_TIMEOUT_S = 60

SIM_RUN = dict(GOOD_RUN, n=100_000, strategies=[
    {"kind": "good", "eps": 0.4}, {"kind": "good", "eps": 0.4}, {"kind": "random", "p": 0.5, "seed": 11}])


class TestSimulateWriter:
    """simulate's rows go through one forked writer when the output is a file
    or a pipe; no writer outlives the command, whichever way it ends."""

    def spawn(self, tmp_path, *args, **popen):
        log = tmp_path / "forks.log"
        log.write_text("")
        env = dict(os.environ, FORK_LOG=str(log),
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", FORK_LOGGING_CLI, *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)
        return proc, log

    @staticmethod
    def assert_gone(log, forked):
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == forked
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_stdout_matches_out_file(self, tmp_path):
        cfg = write_json(tmp_path, "run.json", dict(SIM_RUN, n=5_000))
        out = tmp_path / "traj.csv"
        proc, log = self.spawn(tmp_path, "simulate", cfg, "--out", str(out))
        assert proc.communicate(timeout=CLI_TIMEOUT_S) == (b"", b"")
        assert proc.returncode == 0
        self.assert_gone(log, forked=1)
        proc, log = self.spawn(tmp_path, "simulate", cfg)
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        assert (proc.returncode, stderr) == (0, b"")
        assert stdout == out.read_bytes()
        assert len(stdout.splitlines()) == 2 + 5_000
        self.assert_gone(log, forked=1)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2_without_traceback(self, tmp_path):
        # the header's flush fails, before any writer is forked
        cfg = write_json(tmp_path, "run.json", SIM_RUN)
        proc, log = self.spawn(tmp_path, "simulate", cfg, "--out", "/dev/full")
        _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        assert proc.returncode == 2
        assert stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]
        self.assert_gone(log, forked=0)

    def test_closed_pipe_exits_2_without_traceback(self, tmp_path):
        cfg = write_json(tmp_path, "run.json", SIM_RUN)
        proc, log = self.spawn(tmp_path, "simulate", cfg)
        # the header is flushed before the writer is forked, and the rows come after it
        assert proc.stdout.readline().startswith(b"# strategies: ")
        assert proc.stdout.readline() == b"n,x1,x2,x3,step1,step2,step3\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        assert proc.returncode == 2
        assert stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]
        self.assert_gone(log, forked=1)

    def test_writer_error_exits_2_without_traceback(self, tmp_path):
        # the header fits under the file size limit, the first block of rows does not
        cfg = write_json(tmp_path, "run.json", SIM_RUN)
        proc, log = self.spawn(tmp_path, "simulate", cfg, "--out", str(tmp_path / "traj.csv"),
                               preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)))
        _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        assert proc.returncode == 2
        assert stderr.decode().splitlines() == ["error: [Errno 27] File too large"]
        self.assert_gone(log, forked=1)


class TestVerify:
    def test_t3_passes_and_writes_report(self, tmp_path, game_file):
        cfg = write_json(tmp_path, "v.json", {"n": 2000})
        out = str(tmp_path / "report.json")
        rc = main(["verify", "t3", cfg, "--game", game_file, "--out", out])
        assert rc == 0
        report = json.loads(open(out).read())
        assert report["passed"] is True
        assert len(report["cells"]) == 9

    def test_zero_slack_fails_at_finite_horizon(self, tmp_path, game_file):
        cfg = write_json(tmp_path, "v.json", {"n": 2000, "slack": 0.0})
        rc = main(["verify", "t3", cfg, "--game", game_file])
        assert rc == 1

    def test_t4_battery_via_cli(self, tmp_path, game_file):
        cfg = write_json(tmp_path, "v.json", {"n": 1000, "starts": [[0.125] * 8]})
        out = str(tmp_path / "t4.json")
        assert main(["verify", "t4", cfg, "--game", game_file, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert len(report["cells"]) == 13

    def test_t2_battery_via_cli(self, tmp_path, game_file):
        cfg = write_json(tmp_path, "v.json", {"n": 1000, "starts": [[0.125] * 8]})
        out = str(tmp_path / "t2.json")
        assert main(["verify", "t2", cfg, "--game", game_file, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert len(report["cells"]) == 15

    def test_example1_quick(self, tmp_path):
        cfg = write_json(tmp_path, "e1.json", {"n": 20_000, "starts": 4, "tol": 0.05})
        assert main(["verify", "example1", cfg]) == 0

    def test_example1_starts_as_points(self, tmp_path, capsys):
        starts = [[1.5, -2.0], [-3.25, 0.5]]
        cfg = write_json(tmp_path, "e1.json", {"n": 20_000, "starts": starts, "tol": 0.05})
        assert main(["verify", "example1", cfg]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [cell["start"] for cell in cells] == starts

    def test_example2_quick(self, tmp_path):
        cfg = write_json(tmp_path, "e2.json", {"n": 5000, "tol": 0.1, "eps": 0.4})
        assert main(["verify", "example2", cfg]) == 0

    def test_unknown_claim_is_usage_error(self):
        assert main(["verify", "t9"]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2]")
        assert main(["verify", "t3", str(path)]) == 2

    def test_config_that_is_not_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["verify", "t3", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("claim, flags, unread", [
        ("example1", ["--game", "bad.json", "--eps", "7", "--slack", "9"], "--game, --eps, --slack"),
        ("example2", ["--game", "bad.json", "--slack", "9"], "--game, --slack"),
        ("example2", ["--n", "1000", "--out", "report.json", "--game", "bad.json"], "--game"),
    ])
    def test_example_refuses_flags_it_does_not_read(self, claim, flags, unread, tmp_path, capsys, monkeypatch):
        # a flag the claim reads nothing from is refused, not silently ignored
        monkeypatch.setenv("INVESTGAME_OUTDIR", str(tmp_path))
        cfg = write_json(tmp_path, "e.json", {"n": 1000, "starts": 2} if claim == "example1" else {"n": 1000})
        assert main(["verify", claim, cfg, *flags]) == 2
        assert capsys.readouterr().err == f"error: verify {claim} does not read {unread}\n"
        assert not (tmp_path / "report.json").exists()

    def test_game_file_holding_a_list_is_config_error(self, tmp_path, capsys):
        game = write_json(tmp_path, "game.json", list(CANON.values()))
        cfg = write_json(tmp_path, "v.json", {"n": 1000})
        assert main(["verify", "t3", cfg, "--game", game]) == 2
        assert "game file must be a JSON object, not [20, 28" in capsys.readouterr().err


class TestCertify:
    def test_lyapunov_all_good(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"map": "all_good", "c": 0.3, "pitch": 0.3})
        out = str(tmp_path / "out.json")
        assert main(["certify", "lyapunov", cfg, "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["holds"] is True
        assert payload["witness"] is None

    def test_decrease_two_good(self, tmp_path):
        cfg = write_json(
            tmp_path, "c.json", {"map": "two_good", "eps": 0.4, "eta": 0.1, "pitch": 0.3}
        )
        assert main(["certify", "decrease", cfg]) == 0

    def test_blackwell_singleton_fails_with_witness(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"target": "example1_singleton"})
        out = str(tmp_path / "bw.json")
        assert main(["certify", "blackwell", cfg, "--out", out]) == 1
        payload = json.loads(open(out).read())
        assert payload["holds"] is False
        assert payload["witness"]["inner"] > 0

    def test_blackwell_line_and_segment_hold(self, tmp_path):
        for target in ("example1_line", "example1_segment"):
            cfg = write_json(tmp_path, f"{target}.json", {"target": target})
            assert main(["certify", "blackwell", cfg]) == 0

    def test_blackwell_example2_targets_match_run_example2(self, tmp_path):
        meta = run_example2(0.4, n=1000, tol=10.0).meta
        for target, key in (("example2_triangle", "blackwell_triangle"),
                            ("example2_union", "blackwell_union")):
            cfg = write_json(tmp_path, f"{target}.json", {"target": target})
            out = str(tmp_path / f"{target}.out.json")
            assert main(["certify", "blackwell", cfg, "--out", out]) == 0
            payload = json.loads(open(out).read())
            assert payload == {"kind": "blackwell", "target": target, **json.loads(json.dumps(meta[key]))}

    def test_blackwell_reports_name_their_target(self, tmp_path, capsys):
        # line and segment (and triangle and union) certify alike
        texts = set()
        for target in ("example1_line", "example1_segment", "example1_singleton",
                       "example2_triangle", "example2_union"):
            cfg = write_json(tmp_path, f"{target}.json", {"target": target})
            main(["certify", "blackwell", cfg])
            out = capsys.readouterr().out
            assert json.loads(out)["target"] == target
            texts.add(out)
        assert len(texts) == 5

    def test_pitch_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"map": "all_good", "c": 0.3, "pitch": 0.25})
        out = str(tmp_path / "out.json")
        assert main(["certify", "lyapunov", cfg, "--pitch", "0.5", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["grid_pitch"] == 0.5

    def test_numeric_strings_parse_as_numbers(self, tmp_path):
        texts = []
        for delta in (0.1, "0.1"):
            cfg = write_json(tmp_path, "c.json", {"map": "all_good", "c": 0.3, "delta": delta})
            out = str(tmp_path / "out.json")
            assert main(["certify", "lyapunov", cfg, "--out", out]) == 0
            texts.append(open(out).read())
        assert texts[0] == texts[1]

    def test_unknown_kind_is_usage_error(self):
        assert main(["certify", "nonsense"]) == 2

    def test_unknown_target_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path, "c.json", {"target": "mystery"})
        assert main(["certify", "blackwell", cfg]) == 2

    @pytest.mark.parametrize("kind", ["lyapunov", "decrease"])
    def test_inadmissible_game_rejected(self, kind, tmp_path, capsys):
        # the plane maps' drop rules assume the admissibility inequalities
        game = write_json(tmp_path, "bad.json", dict(CANON, r1=19))
        cfg = write_json(tmp_path, "c.json", {"map": "all_good" if kind == "lyapunov" else "two_good",
                                              "game": game})
        assert main(["certify", kind, cfg]) == 2
        assert "r0 < r1" in capsys.readouterr().err


#: The README certify commands: (kind, config, exit code).
README_CERTIFY = [
    ("lyapunov", {"map": "all_good", "c": 0.3}, 0),
    ("decrease", {"map": "two_good", "eps": 0.4, "eta": 0.1}, 0),
    ("decrease", {"map": "all_good", "m_bound": 0.01}, 1),
    ("blackwell", {"target": "example1_line"}, 0),
    ("blackwell", {"target": "example1_segment"}, 0),
    ("blackwell", {"target": "example1_singleton"}, 1),
    ("blackwell", {"target": "example2_triangle"}, 0),
    ("blackwell", {"target": "example2_union"}, 0),
]


def test_one_parser_per_process():
    assert build_parser() is build_parser()


ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("validate", "simulate", "verify", "certify")


def _shell_command_lines(path: Path, prefix: str) -> list[list[str]]:
    """The CLI's arguments on each line of a shell text: the words after
    prefix (heredoc lines that start with a command), up to a redirection;
    a shell variable stays a word of its own."""
    out = []
    for line in path.read_text().splitlines():
        text = line.strip()
        if text.startswith(prefix) or " " + prefix in text:
            text = text.split(prefix, 1)[1]
        elif not text.startswith(tuple(c + " " for c in COMMANDS)):
            continue
        words = shlex.split(text, comments=True)
        stop = [k for k, w in enumerate(words) if w[:1] in "<>|" or w.startswith(("2>", "&"))]
        out.append(words[:stop[0]] if stop else words)
    return out


def _main_calls(path: Path) -> list[list[str]]:
    """The argument list of each `main([...])` call in a Python file, with an
    expression that is not a string constant read as the path "ARG"."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.List)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "main"):
            out.append([e.value if isinstance(e, ast.Constant) else "ARG"
                        for e in node.args[0].elts if not isinstance(e, ast.Starred)])
    return out


#: Lines the plain parser leaves to argparse: help, `--flag=value`, prefixes,
#: a flag before a positional, a repeated flag, a value that starts with "-",
#: usage errors.
ARGPARSE_ONLY = [
    ["verify", "t3", "cfg.json", "--out=report.json"],
    ["verify", "t3", "cfg.json", "--ou", "report.json"],
    ["verify", "t3", "--out", "report.json", "cfg.json"],
    ["simulate", "--game", "game.json", "run.json"],
    ["verify", "t3", "cfg.json", "--out", "a.json", "--out", "b.json"],
    ["verify", "t4", "cfg.json", "--eps", "-1"],
    ["simulate", "run.json", "--n", "-5"],
    ["-h"], ["--help"], ["verify", "-h"], ["certify", "blackwell", "--help"],
    ["verify", "t3", "--", "cfg.json"],
    [], ["t3"], ["verify"], ["validate"], ["verify", "t9"], ["certify", "nonsense", "c.json"],
    ["verify", "t3", "cfg.json", "--bogus", "x"], ["simulate", "--bogus", "x"],
    ["certify", "blackwell", "--pitch"], ["verify", "t3", "cfg.json", "--n"],
    ["validate", "game.json", "extra.json"], ["verify", "t3", "cfg.json", "extra.json"],
    ["validate", "-"],
]


def _corpus() -> list[list[str]]:
    lines = _shell_command_lines(ROOT / "README.md", "investgame ")
    lines += _shell_command_lines(ROOT / ".github" / "workflows" / "tests.yml", "investgame.cli ")
    lines += _main_calls(Path(__file__)) + _main_calls(ROOT / "perfbench" / "child.py")
    lines += [command.split() + ["ARG"] for command, _, _ in BAD_INPUTS.values()]
    return lines + ARGPARSE_ONLY + [["simulate", "--game", ""]]  # an empty value is a value


def test_plain_parser_agrees_with_argparse():
    # every line the plain parser takes, it reads as argparse does
    corpus = _corpus()
    plain = 0
    for argv in corpus:
        args = _parse_plain(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv)), argv
            plain += 1
    assert plain > len(corpus) // 2


def test_documented_lines_take_the_plain_route():
    # the benchmark's certify call names its kind by a variable
    lines = _shell_command_lines(ROOT / "README.md", "investgame ")
    lines += [argv for argv in _main_calls(ROOT / "perfbench" / "child.py") if argv[0] != "certify"]
    assert len(lines) >= 12
    assert all(_parse_plain(argv) is not None for argv in lines)
    assert [argv for argv in ARGPARSE_ONLY if _parse_plain(argv) is not None] == []


def _readme_config_rows() -> list[tuple[str, list[str], list[str]]]:
    """(command variant, keys, flags) of each row of README "Configuration
    keys", a `t3\\|t4` cell expanded to one row per claim; a key is a
    backticked name outside the parentheses that give defaults and notes."""
    text = (ROOT / "README.md").read_text().split("### Configuration keys")[1].split("\n## ")[0]
    rows = []
    for line in text.splitlines():
        if not line.startswith("| `"):
            continue
        command, keys, flags = (cell.strip() for cell in line.strip("|").split(" | "))
        while re.search(r"\([^()]*\)", keys):
            keys = re.sub(r"\([^()]*\)", "", keys)
        words = command.strip("`").split()
        for variant in words[-1].split("\\|"):
            rows.append((" ".join(words[:-1] + [variant]), re.findall(r"`(\w+)`", keys),
                         re.findall(r"`--(\w+)`", flags)))
    return rows


README_CONFIG_ROWS = _readme_config_rows()


def test_readme_config_rows_cover_every_command():
    assert sorted(variant for variant, _, _ in README_CONFIG_ROWS) == sorted(_OPTIONS)


@pytest.mark.parametrize("command", sorted({" ".join(row[0].split()[:2]) for row in README_CONFIG_ROWS}))
def test_readme_config_row_is_what_the_command_reads(command, tmp_path):
    # every key and flag of each row of the command (one per target or map
    # under certify) passes the row's reader map (its value may still be
    # refused), and a key or flag the row lacks is refused
    for variant, keys, flags in README_CONFIG_ROWS:
        if variant.split()[:2] != command.split():
            continue
        words = variant.split()
        pick = {_ROW_KEYS[command][0]: words[2]} if command in _ROW_KEYS else {}

        def refusal(config, extra=()):
            cfg = write_json(tmp_path, "cfg.json", {**pick, **config})
            try:
                _options(_parse_plain(words[:2] + [cfg, *extra]))
            except ValueError as exc:
                return str(exc) if "does not read" in str(exc) else None
            return None

        assert sorted(keys) == sorted(_OPTIONS[variant][1])
        assert all(refusal({key: None}) is None for key in keys)
        assert refusal({"no_such_key": 1}) == f"{variant} config does not read no_such_key"
        for flag in _GRAMMAR[command.split()[0]].flags:
            assert (refusal({}, ["--" + flag, "x"]) is None) == (flag in flags), (variant, flag)


def test_plain_command_line_leaves_argparse_unimported(tmp_path):
    cfg = write_json(tmp_path, "t3.json", {"n": 2000})
    code = ("import sys\nfrom investgame.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, sorted(m for m in ('argparse', 'gettext') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, "verify", "t3", cfg, "--out", str(tmp_path / "t3.out")],
                          capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S)
    assert (proc.stdout, proc.stderr) == ("0 []\n", "")


def test_certify_commands_in_one_process(tmp_path):
    """The README certify commands, run in one process forward and then in
    reverse around a refused pitch and an unknown kind, write the same bytes
    and exit codes: the shared parser and grids carry nothing from one
    command to the next."""
    cfgs = [write_json(tmp_path, f"cfg{i}.json", cfg) for i, (_, cfg, _) in enumerate(README_CERTIFY)]

    def run(i, tag):
        out = tmp_path / f"{tag}{i}.json"
        code = main(["certify", README_CERTIFY[i][0], cfgs[i], "--out", str(out)])
        return code, out.read_bytes()

    first = {i: run(i, "first") for i in range(len(README_CERTIFY))}
    assert main(["certify", "blackwell", cfgs[5], "--pitch", "1e-6"]) == 2  # example1_singleton
    assert main(["certify", "nope"]) == 2
    again = {i: run(i, "again") for i in reversed(range(len(README_CERTIFY)))}
    assert again == first
    assert [first[i][0] for i in range(len(README_CERTIFY))] == [code for *_, code in README_CERTIFY]
    assert all(json.loads(text)["grid_pitch"] == CERT_PITCH for _, text in again.values())


GOOD3 = [{"kind": "good", "eps": 0.4}] * 3
# case -> (command, config, the name the error message must give)
BAD_INPUTS = {
    "strategies-not-a-list": ("simulate", {"strategies": "abc", "n": 5}, "strategy descriptors"),
    "descriptor-not-an-object": ("simulate", {"strategies": [5, 5, 5], "n": 5}, "strategy descriptor"),
    "two-coordinate-start-point": ("simulate", {"strategies": GOOD3, "start": {"point": [1, 2]}, "n": 5},
                                   "start point"),
    "nan-good-eps": ("simulate", {"strategies": [{"kind": "good", "eps": "nan"}] * 3, "n": 5}, "eps"),
    "example1-one-coordinate-a": ("verify example1", {"a": [0], "n": 1000, "starts": 2}, "a must"),
    "example1-no-starts": ("verify example1", {"n": 1000, "starts": 0}, "starts"),
    "example2-two-coordinate-start": ("verify example2", {"starts": [[1, 1]], "n": 1000}, "starts"),
    "example2-empty-starts": ("verify example2", {"starts": [], "n": 1000}, "starts"),
    "t3-nan-eps": ("verify t3", {"eps": "nan", "n": 1000}, "eps"),
    "t3-window-above-one": ("verify t3", {"window": 1.5, "n": 1000}, "window"),
    "t4-infinite-eps": ("verify t4", {"eps": "inf", "n": 1000}, "eps"),
    "t2-nan-slack": ("verify t2", {"slack": "nan", "n": 1000}, "slack"),
    "t3-negative-slack": ("verify t3", {"n": 1000, "slack": -0.01}, "slack must"),
    "t2-negative-dist-slack": ("verify t2", {"n": 1000, "dist_slack": -1, "starts": [[0.125] * 8]},
                               "dist_slack must"),
    "blackwell-zero-pitch": ("certify blackwell", {"target": "example1_line", "pitch": 0}, "pitch"),
    "blackwell-negative-pitch": ("certify blackwell", {"target": "example1_line", "pitch": -1}, "pitch"),
    "blackwell-text-eps": ("certify blackwell", {"target": "example2_triangle", "eps": "abc"}, "eps must"),
    "lyapunov-nan-c": ("certify lyapunov", {"map": "all_good", "c": "nan"}, "c must"),
    "lyapunov-text-delta": ("certify lyapunov", {"map": "all_good", "delta": "abc"}, "delta"),
    "lyapunov-nan-pitch": ("certify lyapunov", {"map": "all_good", "pitch": "nan"}, "pitch"),
    "lyapunov-zero-pitch": ("certify lyapunov", {"map": "all_good", "pitch": 0}, "pitch"),
    "lyapunov-empty-grid": ("certify lyapunov", {"map": "all_good", "pitch": 50}, "pitch"),
    "lyapunov-unknown-map": ("certify lyapunov", {"map": "three_good"}, "unknown map kind 'three_good'"),
    "decrease-empty-grid": ("certify decrease", {"map": "two_good", "pitch": 50}, "pitch"),
    "two-good-nan-eps": ("certify lyapunov", {"map": "two_good", "eps": "nan"}, "eps"),
    # c is derived from eps, so a bad eps must be named before c is checked
    "two-good-negative-eps": ("certify lyapunov", {"map": "two_good", "eps": -0.4}, "eps must be positive"),
    "two-good-infinite-eta": ("certify lyapunov", {"map": "two_good", "eta": "inf"}, "eta"),
    "decrease-nan-delta": ("certify decrease", {"map": "two_good", "delta": "nan"}, "delta"),
    "decrease-nan-m-bound": ("certify decrease", {"map": "two_good", "m_bound": "nan"}, "m_bound"),
    "decrease-negative-m-bound": ("certify decrease", {"map": "all_good", "m_bound": -1}, "m_bound"),
    "t3-text-eps": ("verify t3", {"eps": "abc", "n": 1000}, "eps must"),
    "t3-fractional-n": ("verify t3", {"n": 1500.5}, "n must"),
    "t3-text-n": ("verify t3", {"n": "many"}, "n must"),
    "t3-short-start-weights": ("verify t3", {"starts": [[1, 0]], "n": 1000}, "starts"),
    "t4-text-slack": ("verify t4", {"slack": "abc", "n": 1000}, "slack must"),
    "t2-text-window": ("verify t2", {"window": "half", "n": 1000}, "window must"),
    "t2-text-dist-slack": ("verify t2", {"dist_slack": "abc", "n": 1000}, "dist_slack must"),
    "example1-fractional-n": ("verify example1", {"n": 1000.5, "starts": 2}, "n must"),
    "example1-text-seed": ("verify example1", {"n": 1000, "starts": 2, "seed": "x"}, "seed must"),
    "example2-text-eps": ("verify example2", {"eps": "abc", "n": 1000}, "eps must"),
    "example2-fractional-n": ("verify example2", {"n": 1000.5}, "n must"),
    "example2-one-stage": ("verify example2", {"n": 1}, "n must"),
    "example1-negative-tol": ("verify example1", {"n": 1000, "starts": 2, "tol": -0.01}, "tol must"),
    "example2-negative-tol": ("verify example2", {"n": 1000, "tol": -0.01}, "tol must"),
    "simulate-fractional-n": ("simulate", {"strategies": GOOD3, "n": 1.5}, "n must"),
    "simulate-fractional-seed": ("simulate", {"strategies": [{"kind": "random", "p": 0.5, "seed": 1.5}] * 3,
                                              "n": 5}, "seed must"),
    "simulate-boolean-seed": ("simulate", {"strategies": [{"kind": "random", "p": 0.5, "seed": True}] * 3,
                                           "n": 5}, "seed must"),
    "simulate-text-seed": ("simulate", {"strategies": [{"kind": "random", "p": 0.5, "seed": "x"}] * 3,
                                        "n": 5}, "seed must"),
    "simulate-text-good-eps": ("simulate", {"strategies": [{"kind": "good", "eps": "abc"}] * 3, "n": 5},
                               "eps must"),
    "simulate-missing-good-eps": ("simulate", {"strategies": [{"kind": "good"}] * 3, "n": 5}, "eps must"),
    "simulate-start-not-an-object": ("simulate", {"strategies": GOOD3, "start": "point", "n": 5}, "start must"),
    "validate-text-r0": ("validate", dict(CANON, r0="abc"), "r0 must"),
    "example1-boolean-starts": ("verify example1", {"n": 1000, "starts": True}, "starts must"),
    "blackwell-pitch-leaves-no-grid-point": ("certify blackwell", {"target": "example2_union", "pitch": 20},
                                             "pitch"),
    # a number would be opened as a file descriptor; 0, 1 and 2 are the runner's own stdio
    "simulate-number-game": ("simulate", {"strategies": GOOD3, "n": 5, "game": 987654}, "game must"),
    "simulate-list-out": ("simulate", {"strategies": GOOD3, "n": 5, "out": ["traj.csv"]}, "out must"),
    "t3-number-out": ("verify t3", {"n": 1000, "out": 987654}, "out must"),
    "t3-list-game": ("verify t3", {"n": 1000, "game": ["game.json"]}, "game must"),
    "example2-number-out": ("verify example2", {"n": 1000, "out": 987654}, "out must"),
    "lyapunov-number-game": ("certify lyapunov", {"map": "all_good", "game": 987654}, "game must"),
    "blackwell-list-out": ("certify blackwell", {"target": "example1_line", "out": ["bw.json"]}, "out must"),
    "simulate-start-outside-s": ("simulate", {"strategies": GOOD3, "start": {"point": [100, -5, 3]}, "n": 5},
                                 "payoff hull"),
    "example2-start-outside-s": ("verify example2", {"starts": [[100, 100, -3]], "n": 1000}, "payoff hull"),
    # grids too fine to allocate fail at once, before any memory is taken
    "blackwell-grid-too-fine": ("certify blackwell", {"target": "example1_line", "pitch": 1e-6}, "allocate"),
    # a key its command does not read is refused by name, not ignored
    "t2-dist-pitch-unread": ("verify t2", {"n": 1000, "dist_pitch": 0.25}, "verify t2 config does not read dist_pitch"),
    "t3-misspelled-slack": ("verify t3", {"n": 1000, "slak": 0.0}, "verify t3 config does not read slak"),
    "good-descriptor-unread-key": ("simulate", {"strategies": [dict(GOOD3[0], epz=3)] + GOOD3[1:], "n": 5},
                                   "good descriptor does not read epz"),
    "start-point-and-weights": ("simulate", {"strategies": GOOD3, "n": 5,
                                             "start": {"point": [20, 20, 20], "weights": [0.125] * 8}},
                                "start must give exactly one of point or weights"),
    "lyapunov-m-bound": ("certify lyapunov", {"map": "all_good", "m_bound": 60},
                         "certify lyapunov all_good config does not read m_bound"),
    # a key a target, map or claim does not act on is refused, though its
    # command's other rows read it
    "example1-line-eps": ("certify blackwell", {"target": "example1_line", "eps": 0.1},
                          "certify blackwell example1_line config does not read eps"),
    "example2-triangle-a": ("certify blackwell", {"target": "example2_triangle", "a": [0, -1]},
                            "certify blackwell example2_triangle config does not read a"),
    "all-good-eta": ("certify lyapunov", {"map": "all_good", "eta": 5},
                     "certify lyapunov all_good config does not read eta"),
    "two-good-c": ("certify decrease", {"map": "two_good", "c": 0.3},
                   "certify decrease two_good config does not read c"),
    "t3-dist-slack": ("verify t3", {"n": 2000, "dist_slack": 1e9}, "verify t3 config does not read dist_slack"),
    "t4-dist-slack": ("verify t4", {"n": 1000, "starts": [[0.125] * 8], "dist_slack": 1e9},
                      "verify t4 config does not read dist_slack"),
    "example1-seed-beside-listed-starts": ("verify example1", {"n": 20_000, "starts": [[1.5, -2.0]], "seed": 3},
                                           "seed is read only with a count of starts"),
    # an empty path is not a file
    "t3-empty-out": ("verify t3", {"n": 2000, "out": ""}, "out must be a non-empty file path string"),
    "simulate-empty-out": ("simulate", {"strategies": GOOD3, "n": 5, "out": ""},
                           "out must be a non-empty file path string"),
    "validate-seventh-key": ("validate", dict(CANON, p4=30), "game file does not read p4"),
    # JSON integers too large for a float
    "t3-overflowing-eps": ("verify t3", {"eps": 10**400, "n": 1000}, "eps must"),
    "t3-overflowing-n": ("verify t3", {"n": 10**400}, "n must"),
    # t3 jumps fixed-profile stretches in exact integers, up to the largest index
    "t3-horizon-beyond-exact-sums": ("verify t3", {"n": 1e300}, f"n = 1e+300 is beyond {sys.maxsize}"),
    # the batteries index their stages: a horizon past sys.maxsize is refused before any draw
    "t4-horizon-beyond-index": ("verify t4", {"n": 1e300}, f"n = 1e+300 is beyond {sys.maxsize}"),
    "t2-horizon-beyond-index": ("verify t2", {"n": 1e300}, f"n = 1e+300 is beyond {sys.maxsize}"),
    # so does every stage loop: no run of such a horizon would end
    "simulate-horizon-beyond-index": ("simulate", {"strategies": GOOD3, "n": 1e300},
                                      f"n = 1e+300 is beyond {sys.maxsize}"),
    "example1-horizon-beyond-index": ("verify example1", {"n": 1e300}, f"n = 1e+300 is beyond {sys.maxsize}"),
    "example2-horizon-beyond-index": ("verify example2", {"n": 1e300}, f"n = 1e+300 is beyond {sys.maxsize}"),
    # the horizon is checked before the tail window is placed in it
    "t4-negative-horizon": ("verify t4", {"n": -5}, "horizon must be at least 1000"),
    "simulate-overflowing-seed": ("simulate", {"strategies": [{"kind": "random", "p": 0.5, "seed": 10**400}] * 3,
                                               "n": 5}, "seed must"),
    "validate-overflowing-r0": ("validate", dict(CANON, r0=10**400), "r0 must"),
    # p3 + 2 eps/3 overflows to inf in every cell, which JSON cannot hold
    "t4-report-holds-infinity": ("verify t4", {"n": 1000, "eps": 1e308}, "not finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_config_error(case, tmp_path, capsys):
    # exit 1 means "the check ran and failed"; bad input must not look like that
    command, cfg, key = BAD_INPUTS[case]
    path = write_json(tmp_path, "cfg.json", cfg)
    assert main(command.split() + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case", ["t2-dist-pitch-unread", "t3-misspelled-slack", "good-descriptor-unread-key",
                                  "start-point-and-weights", "lyapunov-m-bound", "example1-line-eps",
                                  "example1-seed-beside-listed-starts"])
def test_unread_key_writes_no_file(case, tmp_path):
    command, cfg, _ = BAD_INPUTS[case]
    out = tmp_path / "out.txt"
    assert main(command.split() + [write_json(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify t3", "simulate"])
def test_empty_out_flag_is_refused(command, tmp_path, capsys, monkeypatch):
    # under $INVESTGAME_OUTDIR an empty path names the directory itself:
    # refused before anything runs, not after the run on "Is a directory"
    monkeypatch.setenv("INVESTGAME_OUTDIR", str(tmp_path))
    cfg = write_json(tmp_path, "cfg.json", GOOD_RUN if command == "simulate" else {"n": 2000})
    assert main(command.split() + [cfg, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: out must be a non-empty file path string, not ''\n")


def test_empty_config_path_is_refused(capsys):
    assert main(["verify", "t3", ""]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read : ")


@pytest.mark.parametrize("variant", [v for v in _OPTIONS if v.startswith("certify ")])
def test_certify_row_runs_and_names_itself(variant, tmp_path):
    # each certify row is wired to its own runner: its report names the kind
    # and the target or map that picked it
    _, kind, name = variant.split()
    key = _ROW_KEYS[f"certify {kind}"][0]
    out = tmp_path / "report.json"
    assert main(["certify", kind, write_json(tmp_path, "cfg.json", {key: name}), "--pitch", "0.5",
                 "--out", str(out)]) in (0, 1)
    payload = json.loads(out.read_text())
    assert (payload["kind"], payload[key]) == (kind, name)


def test_game_file_with_a_seventh_key_is_refused(tmp_path, capsys):
    game = write_json(tmp_path, "game.json", dict(CANON, p4=30))
    cfg = write_json(tmp_path, "v.json", {"n": 1000})
    assert main(["verify", "t3", cfg, "--game", game]) == 2
    assert capsys.readouterr().err == f"error: bad game file {game}: game file does not read p4\n"


def test_report_holding_infinity_writes_no_file(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", BAD_INPUTS["t4-report-holds-infinity"][1])
    out = tmp_path / "t4.json"
    assert main(["verify", "t4", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: the report holds a number that is not finite, which JSON cannot write\n"
    assert not out.exists()


def test_t3_horizon_beyond_an_index_on_a_rounding_game(tmp_path, capsys):
    # no payoff sum of this game is exact in floats, and t3 refuses 1e300
    # as on any other game, with one error line
    game = write_json(tmp_path, "game.json", {"r0": 5.1, "r1": 8.3, "r2": 12.7, "p1": 3.3, "p2": 7.1, "p3": 11.3})
    cfg = write_json(tmp_path, "cfg.json", {"n": 1e300, "game": game})
    assert main(["verify", "t3", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"error: n = 1e+300 is beyond {sys.maxsize}, the largest horizon an array index holds\n"


@pytest.mark.parametrize("command", ["verify t3", "verify t4", "verify t2", "verify example1",
                                     "verify example2", "simulate"])
def test_flags_are_read_like_config_keys(command, tmp_path, capsys):
    # a flag passes its config key's reader: a horizon too large for a float
    # is refused at once, not carried into the run
    cfg = write_json(tmp_path, "cfg.json", GOOD_RUN if command == "simulate" else {})
    assert main(command.split() + [cfg, "--n", "1" + "0" * 400]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n must be a finite number")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify t3", "simulate"])
def test_integral_float_horizon_flag(command, tmp_path, capsys):
    # a flag is parsed by its key's reader, so an integral float is an integer
    cfg = write_json(tmp_path, "cfg.json", GOOD_RUN if command == "simulate" else {})

    def run(value):
        assert main(command.split() + [cfg, "--n", value]) == 0
        return capsys.readouterr().out

    assert run("1e3") == run("1000")


@pytest.mark.parametrize("command, flag", [("verify t3", "--n"), ("verify t4", "--eps"),
                                           ("verify t2", "--slack"), ("simulate", "--n"),
                                           ("certify lyapunov", "--pitch")])
def test_text_flag_is_a_config_error(command, flag, tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", GOOD_RUN if command == "simulate" else {})
    assert main(command.split() + [cfg, flag, "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:]} must")
    assert "Traceback" not in err


def test_integral_float_horizon(tmp_path, capsys):
    # JSON writes large horizons as 1e9; an integral float is an integer
    path = write_json(tmp_path, "cfg.json", {"n": 2e3, "starts": [[0.125] * 8]})
    assert main(["verify", "t3", path]) == 0
    assert json.loads(capsys.readouterr().out)["cells"][0]["N"] == 2000


def test_integral_float_start_count(tmp_path, capsys):
    # a count of starts reads like the horizon: 2.0 is the integer 2
    path = write_json(tmp_path, "cfg.json", {"n": 2000, "starts": 2.0, "tol": 10.0})
    assert main(["verify", "example1", path]) == 0
    assert len(json.loads(capsys.readouterr().out)["cells"]) == 2


def test_seed_beyond_float_precision_round_trips(tmp_path):
    # 2**53 + 1 has no float of its own; the seed is the exact integer
    def run(seed):
        descs = [{"kind": "good", "eps": 0.4}] * 2 + [{"kind": "random", "p": 0.5, "seed": seed}]
        out = tmp_path / f"{seed}.csv"
        cfg = write_json(tmp_path, "run.json", {"strategies": descs, "n": 200, "out": str(out)})
        assert main(["simulate", cfg]) == 0
        comment, *rows = out.read_text().splitlines()
        assert json.loads(comment.removeprefix("# strategies: "))[2]["seed"] == seed
        return rows

    assert run(2**53 + 1) != run(2**53)


def test_integer_strings_are_taken_exactly(tmp_path):
    # an integer string is read with int, as a JSON integer is: no rounding through float
    def run(seed, n, *flags):
        descs = [{"kind": "good", "eps": 0.4}] * 2 + [{"kind": "random", "p": 0.5, "seed": seed}]
        out = tmp_path / "traj.csv"
        cfg = write_json(tmp_path, "run.json", {"strategies": descs, "n": n, "out": str(out)})
        assert main(["simulate", cfg, *flags]) == 0
        comment, header, *rows = out.read_text().splitlines()
        return json.loads(comment.removeprefix("# strategies: "))[2]["seed"], rows

    seed, rows = run("9007199254740993", "200")
    assert seed == 2**53 + 1
    assert len(rows) == 200
    assert (seed, rows) == run(2**53 + 1, 200)
    assert run("9007199254740993", 200, "--n", "150") == (seed, rows[:150])
    assert run(2**53 + 1, "2e2") == (seed, rows)


def test_console_entry_point_runs(game_file):
    proc = subprocess.run(
        [sys.executable, "-m", "investgame.cli", "validate", game_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
