"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py PLAN_JSON OUT_DIR RESULT_JSON [--trace] [--setup-only]

Times the set-up (import investgame, load and parse the workload's configs)
and then the workload itself, from the first call into investgame until the
last report or CSV is written.  Throughout, a host sampler times a fixed
calibration piece (see `HostSampler`), so that the parent can scale both
times to a reference host speed.  Nothing is checked here: the parent
checks the outputs after this process has exited.  The result (times,
calibrations, exit codes, peak RSS and, with --trace, per-layer metrics)
goes to RESULT_JSON.
"""

import json
import os
import random
import resource
import signal
import sys
import time

_pc = time.perf_counter

#: The host sampler's period and its calibration piece's size: a piece of
#: about 0.5 ms every 40 ms costs about 2 % of the measured time.
SAMPLE_EVERY_S = 0.04
CAL_ITERS = 500
#: Pieces timed right after the set-up (or a run shorter than one period),
#: added to the samples taken during it.
SETUP_PIECES = 8


class _Mean:
    __slots__ = ("x", "n")

    def __init__(self):
        self.x = (0.2, 0.3, 0.5)
        self.n = 1

    def update(self, step):
        self.n += 1
        w = 1.0 / self.n
        x = self.x
        self.x = (x[0] + (step[0] - x[0]) * w, x[1] + (step[1] - x[1]) * w,
                  x[2] + (step[2] - x[2]) * w)
        return self.x


def _scattered(n: int) -> list:
    # Small tuples in a shuffled order: about 4 MB, more than a core's own
    # caches hold.
    order = list(range(n))
    random.Random(1).shuffle(order)
    cells = [(float(i), 0.5 * i) for i in range(n)]
    return [cells[i] for i in order]


def _cal_piece(scattered: list, k: int) -> None:
    # Work of the kinds the program's per-stage loop does, fixed here so that
    # no change to the program changes it: a method call building small
    # float tuples, and reads spread over a few megabytes of objects.
    m = _Mean()
    x = m.x
    for _ in range(CAL_ITERS):
        x = m.update((x[1] * 0.9 + 0.05, x[2] * 0.9 + 0.03, x[0] * 0.9 + 0.02))
    j = (k * 4 * CAL_ITERS) % (len(scattered) - 4 * CAL_ITERS)
    s = 0.0
    for t in scattered[j:j + 4 * CAL_ITERS]:
        s += t[0] - t[1]


class HostSampler:
    """Times the calibration piece every SAMPLE_EVERY_S of wall time.

    On a shared host the CPU runs the same code up to 1.7 times slower for
    seconds at a time, whatever the program does.  A SIGALRM handler runs
    the fixed piece at bytecode boundaries of the measured code, so its mean
    time over an interval gives the host's speed over that interval; the
    parent scales the interval's time, less the handler's own time, by it.
    """

    def __init__(self):
        self.scattered = _scattered(32_768)
        self.pieces: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        t = _pc()
        _cal_piece(self.scattered, len(self.pieces))
        d = _pc() - t
        self.pieces.append(d)
        self.spent += d

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.pieces), self.spent

    def since(self, mark: tuple[int, float]) -> dict:
        """Mean piece time and handler time since mark."""
        pieces = self.pieces[mark[0]:]
        return {"cal_s": sum(pieces) / len(pieces) if pieces else None,
                "pieces": len(pieces), "sampler_s": self.spent - mark[1]}


def _with_pieces_after(sampler: HostSampler, mark: tuple[int, float]) -> dict:
    """sampler.since(mark), with SETUP_PIECES more pieces in its mean time.

    For an interval that may have ended before the first sample.  The
    handler time stays that of the interval itself.
    """
    cal = sampler.since(mark)
    for _ in range(SETUP_PIECES):
        sampler.sample()
    cal["cal_s"] = sampler.since(mark)["cal_s"]
    return cal


def _emit(report: dict, path: str) -> None:
    # Same layout as the CLI's report files.
    with open(path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _setup(plan: dict, cfg_dir: str):
    """Load and parse the workload's configs; returns the timed run."""
    from investgame import approachability, cli, dynamics, harness, strategies
    from investgame.stage_game import example_game, vertices

    def load(name):
        with open(os.path.join(cfg_dir, name)) as fh:
            return json.load(fh)

    def path(name):
        return os.path.join(cfg_dir, name)

    params = example_game()
    workload = plan["workload"]
    if workload == "battery":
        cfg = load("battery.json")
        config = harness.HarnessConfig(params=params, eps=cfg["eps"], n=cfg["n"],
                                       starts=tuple(tuple(w) for w in cfg["starts"]))
        deviants = harness.standard_deviants(params, config.eps, seeds=cfg["deviant_seeds"])
        pairs = harness.deviant_pairs(params, config.eps, seeds=cfg["deviant_seeds"])

        def run(out, codes):
            _emit(harness.verify_t4(config, deviants).as_dict(), os.path.join(out, "t4.json"))
            _emit(harness.verify_t2(config, pairs).as_dict(), os.path.join(out, "t2.json"))
        return run

    if workload == "long_horizon":
        cfg = load("t3.json")
        harness.HarnessConfig(params=params, eps=cfg["eps"], n=cfg["n"],
                              starts=tuple(tuple(w) for w in cfg["starts"]))

        def run(out, codes):
            codes["t3"] = cli.main(["verify", "t3", path("t3.json"),
                                    "--out", os.path.join(out, "t3.json")])
        return run

    if workload == "trajectory_csv":
        cfg = load("run.json")
        strategies.build_profile(cfg["strategies"], params)

        def run(out, codes):
            codes["simulate"] = cli.main(["simulate", path("run.json"),
                                          "--out", os.path.join(out, "traj.csv")])
        return run

    certs = [(kind, name, load(name)) for kind, name in plan["certs"]]
    decay = load("decay.json")
    vs = vertices(params)
    defector = strategies.Example2Defector(params, decay["eps"])
    profile = (strategies.GoodStrategy(1, decay["eps"], params),
               strategies.GoodStrategy(2, decay["eps"], params), defector)
    shapes = {
        "triangle": lambda: approachability.HullOracle([vs.c1[2], vs.c2[2], defector.d_point]),
        "union": lambda: approachability.SegmentsOracle(
            [(vs.B, defector.d_point), (defector.d_point, vs.c1[2])]),
    }
    oracles = [(name, shapes[name]()) for name in decay["oracles"]]
    start = vs.labeled()[decay["start"]]

    def run(out, codes):
        for kind, name, _ in certs:
            codes[name] = cli.main(["certify", kind, path(name),
                                    "--out", os.path.join(out, name)])
        traj = dynamics.iterate(strategies.induced_map(profile, params), start, decay["n"])
        for name, oracle in oracles:
            n0 = approachability.premise_start(traj, oracle)
            rep = approachability.decay_bound_check(traj, oracle, n0)
            _emit({"oracle": name, "n0": n0, **rep.as_dict()},
                  os.path.join(out, f"decay_{name}.json"))
    return run


def main(argv) -> int:
    plan_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv
    setup_only = "--setup-only" in argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    cfg_dir = os.path.dirname(plan_path)

    sampler = HostSampler()
    sampler.start()
    try:
        t0 = _pc()
        import investgame.cli  # noqa: F401  (imports every layer the CLI uses)
        tracer = None
        if traced:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        run = _setup(plan, cfg_dir)
        setup_s = _pc() - t0
        setup_cal = _with_pieces_after(sampler, (0, 0.0))
        result = {"setup_s": setup_s, "setup_cal": setup_cal, "traced": traced}
        if not setup_only:
            codes: dict[str, int] = {}
            if tracer is not None:
                tracer.start()
            mark = sampler.mark()
            t1, c1 = _pc(), time.process_time()
            try:
                run(out_dir, codes)
            finally:
                wall_s = _pc() - t1
                cpu_s = time.process_time() - c1
                run_cal = sampler.since(mark)
                if tracer is not None:
                    tracer.stop()
                    tracer.uninstall()
            if run_cal["cal_s"] is None:  # a run shorter than one period
                run_cal = _with_pieces_after(sampler, mark)
            result.update(wall_s=wall_s, cpu_s=cpu_s, run_cal=run_cal, exit_codes=codes)
            if tracer is not None:
                result["layers"] = spans.layer_metrics(tracer, plan)
                result["trace_missing"] = tracer.missing
    finally:
        sampler.stop()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
