"""investgame benchmark: end-to-end timings and a traced per-module breakdown.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke               # every workload once at tiny sizes
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory.  Each repetition runs in a fresh
single-threaded child interpreter (BLAS threads pinned to 1), one at a time,
until --seconds have passed (at least MIN_REPS repetitions).  With --trace 0
the last line of standard output is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 untraced and traced
repetitions alternate, and the metrics are the per-layer ones plus the
tracing overhead.  Times are scaled to a reference host speed with a
calibration piece timed in the same child (see `scaled`).  Outputs are
checked after each child has exited; see check.py.  A result file with
provenance goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
from workloads import DEFAULT_SEED, WORKLOADS, deterministic, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_REPS = 3          # untraced repetitions per run (median of at least 3)
MIN_TRACED_REPS = 2   # traced and untraced repetitions each (alternating), with --trace 1
MIN_SETUPS = 9        # set-up measurements per run
CHILD_TIMEOUT_S = 150
#: Time of the host sampler's calibration piece (child.py) on the reference
#: host, a 2-core Xeon VM at its usual speed; reported times are scaled to it.
CAL_REF_S = 0.0005
PINNED_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _provenance() -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "INVESTGAME_OUTDIR"}
    env.update(PINNED_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(plan_path: str, out_dir: str, traced: bool = False, setup_only: bool = False) -> dict:
    result_path = os.path.join(out_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, out_dir, result_path]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def _write_plan(plan: dict) -> tuple[str, str]:
    """A fresh work directory holding the plan and the workload's configs."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{plan['workload']}-", dir=OUT)
    cfg_dir = os.path.join(work, "cfg")
    os.makedirs(cfg_dir)
    for name, cfg in plan["configs"].items():
        with open(os.path.join(cfg_dir, name), "w") as fh:
            json.dump(cfg, fh)
    plan_path = os.path.join(cfg_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump({**plan, "root": ROOT}, fh)
    return work, plan_path


def run_reps(plan: dict, seconds: float, traced_mode: bool, refs: dict, min_reps: int) -> dict:
    """Repeat the workload in fresh children and check every repetition."""
    work, plan_path = _write_plan(plan)
    try:
        def fresh_dir(tag):
            d = os.path.join(work, tag)
            os.makedirs(d)
            return d

        _run_child(plan_path, fresh_dir("warmup"), setup_only=True)  # byte-compile, fill caches
        reps: list[dict] = []
        control = None
        deadline = time.monotonic() + seconds
        while True:
            n_untraced = sum(not r["traced"] for r in reps)
            n_traced = len(reps) - n_untraced
            balanced = not traced_mode or n_traced == n_untraced
            if balanced and n_untraced >= min_reps and time.monotonic() >= deadline:
                break
            traced = traced_mode and n_traced < n_untraced
            out_dir = fresh_dir(f"rep{len(reps)}")
            rep = _run_child(plan_path, out_dir, traced=traced)
            recs = check.records(plan, out_dir, rep["exit_codes"])
            rep["failed"], rep["problems"] = check.count_failed(plan, recs, refs)
            if control is None:
                control = check.negative_control(plan, recs, refs)
            reps.append(rep)
            shutil.rmtree(out_dir)
        setup_runs = [r for r in reps if not r["traced"]]
        while not traced_mode and len(setup_runs) < MIN_SETUPS:
            setup_runs.append(_run_child(plan_path, fresh_dir(f"setup{len(setup_runs)}"),
                                         setup_only=True))
        return {"reps": reps, "setups": [scaled_setup(r) for r in setup_runs],
                "setups_unscaled": [r["setup_s"] for r in setup_runs],
                "negative_control_caught": bool(control)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def scaled(seconds: float, cal: dict) -> float:
    """A time measured with the host sampler running, at the reference speed.

    A shared host runs the same code up to 1.7 times slower for seconds at a
    time.  The sampler's calibration piece slows down with it, so the time
    less the sampler's own, times CAL_REF_S over the piece's mean time in
    the same interval, reads the same whichever speed the host had, and
    still moves in proportion to any change in the program's own work.  The
    raw times stay in the result file.
    """
    return (seconds - cal["sampler_s"]) * CAL_REF_S / cal["cal_s"]


def scaled_wall(rep: dict) -> float:
    return scaled(rep["wall_s"], rep["run_cal"])


def scaled_setup(rep: dict) -> float:
    return scaled(rep["setup_s"], rep["setup_cal"])


def _median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(plan: dict, run: dict) -> dict:
    reps = [r for r in run["reps"] if not r["traced"]]
    wall = _median([scaled_wall(r) for r in reps])
    return {
        "wall_s": wall,
        "stages_per_s": plan["stages"] / wall,
        "setup_s": _median(run["setups"]),
        "peak_rss_mb": _median([r["maxrss_kb"] for r in reps]) / 1024.0,
    }


def layer_metrics(run: dict) -> dict:
    traced = [r for r in run["reps"] if r["traced"]]
    untraced = [r for r in run["reps"] if not r["traced"]]
    names = traced[0]["layers"].keys()
    out = {k: _median([r["layers"][k] for r in traced]) for k in names}
    out["trace.overhead_frac"] = (_median([scaled_wall(r) for r in traced])
                                  / _median([scaled_wall(r) for r in untraced]) - 1.0)
    return out


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def _check_layout() -> None:
    for path in ("BENCHMARK.json", os.path.join("src", "investgame", "__init__.py"),
                 os.path.join("src", "investgame", "cli.py")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} not found under {ROOT}: run from a checkout of the repository")


def _summary(plan, run, metrics, units, failed, attempted) -> list[str]:
    reps = run["reps"]
    lines = [
        f"perfbench workload={plan['workload']} seed={plan['seed']} "
        f"reps={sum(not r['traced'] for r in reps)} untraced, {sum(r['traced'] for r in reps)} traced"
        + (" (inputs do not depend on the seed)" if deterministic(plan["workload"]) else ""),
    ]
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    untraced = [r for r in reps if not r["traced"]]
    lines.append(f"  {'unscaled wall_s':<44} {_median([r['wall_s'] for r in untraced]):>14.6g} s   "
                 f"(calibration {_median([r['run_cal']['cal_s'] for r in untraced]) * 1e6:.0f} us, "
                 f"reference {CAL_REF_S * 1e6:.0f} us)")
    lines.append(f"  {'ops_failed_frac':<44} {failed / attempted:>14.6g} 1   "
                 f"({failed} of {attempted} operations failed)")
    lines.append("  negative control: " + ("caught" if run["negative_control_caught"] else "NOT caught"))
    return lines


def measure(args) -> int:
    spec = _load_spec()
    plan = make_plan(args.workload, args.seed)
    refs = check.load_reference(REFERENCE)["full"][args.workload]
    traced_mode = bool(args.trace)
    run = run_reps(plan, args.seconds, traced_mode, refs,
                   MIN_TRACED_REPS if traced_mode else MIN_REPS)
    if traced_mode:
        metrics = layer_metrics(run)
        units = _units(spec, "per_layer")
    else:
        metrics = e2e_metrics(plan, run)
        units = _units(spec, "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    metrics = {k: metrics[k] for k in units}
    reps = run["reps"]
    attempted = plan["ops"] * len(reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and run["negative_control_caught"]
    prov = _provenance()
    lines = _summary(plan, run, metrics, units, failed, attempted)
    lines.insert(1, "  " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for r in reps:
        for p in r["problems"][:5]:
            lines.append(f"  FAILED {p}")
    untraced_names = sorted({m for r in reps for m in r.get("trace_missing", [])})
    if untraced_names:
        lines.append(f"  not traced (absent from the program): {', '.join(untraced_names)}")

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "workload": args.workload, "seed": args.seed,
                   "traced": traced_mode, "seconds": args.seconds, "plan": plan,
                   "metrics": metrics, "attempted": attempted, "failed": failed,
                   "correct": correct, "negative_control_caught": run["negative_control_caught"],
                   "setups": run["setups"], "setups_unscaled": run["setups_unscaled"],
                   "reps": reps}, fh, indent=1)
    lines.append(f"  result file: {os.path.relpath(path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Every workload once untraced and once traced at tiny sizes."""
    spec = _load_spec()
    e2e, layers = _units(spec, "end_to_end"), _units(spec, "per_layer")
    reference = check.load_reference(REFERENCE)["smoke"]
    ok = True
    for workload in WORKLOADS:
        plan = make_plan(workload, DEFAULT_SEED, smoke=True)
        run = run_reps(plan, 0, True, reference[workload], 1)
        metrics = {**e2e_metrics(plan, run), **layer_metrics(run)}
        failed = sum(r["failed"] for r in run["reps"])
        missing = sorted((set(e2e) | set(layers)) ^ set(metrics))
        good = not missing and failed == 0 and run["negative_control_caught"] \
            and all(isinstance(u, str) and u for u in {**e2e, **layers}.values())
        ok = ok and good
        print(f"smoke {workload}: {'ok' if good else 'FAILED'} "
              f"({len(metrics)} metrics, {failed} failed ops, negative control "
              f"{'caught' if run['negative_control_caught'] else 'NOT caught'}"
              + (f", not matching BENCHMARK.json: {missing}" if missing else "") + ")")
        for r in run["reps"]:
            for p in r["problems"][:5]:
                print(f"  FAILED {p}")
        for name in list(e2e) + list(layers):
            if name in metrics:
                print(f"  {name:<44} {metrics[name]:>14.6g} {e2e.get(name) or layers[name]}")
    print("smoke: " + ("all workloads ok" if ok else "FAILED"))
    return 0 if ok else 1


def record_reference() -> int:
    """Record every operation's reference values at the default seed."""
    out = {}
    for size, smoke_size in (("full", False), ("smoke", True)):
        out[size] = {}
        for workload in WORKLOADS:
            plan = make_plan(workload, DEFAULT_SEED, smoke=smoke_size)
            work, plan_path = _write_plan(plan)
            try:
                rep = _run_child(plan_path, work)
                recs = check.records(plan, work, rep["exit_codes"])
                failed, problems = check.count_failed(plan, recs, None)
                if failed:
                    raise BenchError(f"{workload}: outputs fail their checks: {problems[:5]}")
                out[size][workload] = {op_id: check.reference_entry(kind, rec)
                                       for op_id, kind, rec in recs}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {size} {workload}: {len(out[size][workload])} operations")
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; 0 reproduces the README battery")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference values at the default seed")
    args = parser.parse_args(argv)
    try:
        _check_layout()
        if args.smoke:
            return smoke()
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
