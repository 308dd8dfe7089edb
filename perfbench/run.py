"""gzeros benchmark: one workload of gz commands and library calls, each
in a fresh process, timed end to end (--trace 0) or traced per layer
(--trace 1).

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from anywhere; the gzeros sources are taken from ../src relative to
this file.  The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and the environment.  The full result, and in traced runs
every span, are also written to .perfbench_out/ at the checkout root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import DETERMINISTIC, PER_LAYER, layer_metrics
from workloads import WORKLOADS, Checker, Outcome, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "slowest_cmd_s": "s",
}
# Thread-pool cap for children.  One thread: on a few shared CPUs a second
# BLAS thread made the oracle step use 1.5x the CPU for no wall-time gain,
# and its run-to-run spread followed the neighbours' load.
THREADS = "1"
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0      # the whole run must end well within 180 s
CHECK_RESERVE_S = 10.0      # kept back for checks, output and clean-up


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter() - CHECK_RESERVE_S


def run_process(argv, env, cwd, timeout, stdout_path, stderr_path):
    """Run argv to completion; return (returncode or None on timeout,
    wall seconds, rusage of that child alone)."""
    fired = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if fired.is_set() else proc.returncode), wall, usage


class Runner:
    """Runs steps in fresh processes with an isolated environment and
    checks their outputs, counting every check attempted and failed."""

    def __init__(self, work: Path, checker: Checker, budget: Budget):
        self.work = work
        self.checker = checker
        self.budget = budget
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                       if os.environ.get("PYTHONPATH") else [])),
            "OMP_NUM_THREADS": THREADS,
            "OPENBLAS_NUM_THREADS": THREADS,
            "MKL_NUM_THREADS": THREADS,
            "TMPDIR": str(work / "tmp"),
        })
        (work / "tmp").mkdir(parents=True, exist_ok=True)

    def run(self, step: Step, out_dir: Path, cache_dir: Path,
            trace_path: Path | None = None) -> Outcome:
        out_dir.mkdir(parents=True, exist_ok=True)
        if trace_path is not None:
            argv = [sys.executable, str(CHILD), "--trace", str(trace_path),
                    "--run-id", f"{out_dir.name}/{step.name}", step.kind, *step.args]
        elif step.kind == "cli":
            argv = [sys.executable, "-m", "gzeros.cli", *step.args]
        else:
            argv = [sys.executable, str(CHILD), "lib", *step.args]
        env = dict(self.env, GZ_CACHE_DIR=str(cache_dir))
        stdout_path = out_dir / f"{step.name}.stdout"
        stderr_path = out_dir / f"{step.name}.stderr"
        timeout = min(STEP_TIMEOUT_S, self.budget.left())
        if timeout < 1.0:
            outcome = Outcome(None, "", "not started: run deadline", 0.0, 0.0, 0.0)
        else:
            code, wall, usage = run_process(argv, env, self.work, timeout,
                                            stdout_path, stderr_path)
            stdout = stdout_path.read_text(errors="replace")
            outcome = Outcome(
                code, stdout, stderr_path.read_text(errors="replace"), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            )
            if code == 0 and step.kind == "lib":
                try:
                    outcome.result = json.loads(stdout.strip().splitlines()[-1])
                except (ValueError, IndexError):
                    outcome.result = {}
        self.expect(f"{step.name}: exit 0", outcome.returncode == 0,
                    outcome.stderr.strip()[-300:])
        return outcome

    def check(self, step: Step, outcome: Outcome) -> None:
        for name, ok in step.check(outcome, self.checker).items():
            self.expect(f"{step.name}: {name}", ok)

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} {detail}".strip())


def run_iteration(runner: Runner, workload, params, index: int, cache_dir: Path | None,
                  traced: bool) -> dict:
    """All steps of the workload once, then their checks (untimed)."""
    d = runner.work / f"iter{index}"
    d.mkdir()
    cache = cache_dir or d / "cache"
    cache.mkdir(exist_ok=True)
    steps = workload.steps(params, d)
    outcomes = []
    procs = []
    t0 = time.perf_counter()
    for step in steps:
        trace_path = d / f"{step.name}.spans.json" if traced else None
        outcomes.append(runner.run(step, d, cache, trace_path))
    wall = time.perf_counter() - t0
    wall -= sum(o.wall_s - o.latency_s for o in outcomes)
    for step, outcome in zip(steps, outcomes):
        runner.check(step, outcome)
        if traced:
            procs.append(_load_spans(runner, step, outcome, d / f"{step.name}.spans.json"))
    it = {
        "traced": traced,
        "wall_s": wall,
        "latency_s": {s.name: o.latency_s for s, o in zip(steps, outcomes)},
        "cpu_s": {s.name: o.cpu_s for s, o in zip(steps, outcomes)},
        "maxrss_mb": {s.name: o.maxrss_mb for s, o in zip(steps, outcomes)},
        "procs": procs,
    }
    shutil.rmtree(d, ignore_errors=True)
    return it


def _load_spans(runner: Runner, step: Step, outcome: Outcome, path: Path) -> dict:
    try:
        proc = json.loads(path.read_text())
    except (OSError, ValueError):
        runner.expect(f"{step.name}: spans written", False)
        proc = {"kind": step.kind, "import_s": 0.0, "spans": [], "run_id": ""}
    proc.update(cpu_s=outcome.cpu_s, maxrss_mb=outcome.maxrss_mb)
    return proc


def setup(runner: Runner, workload) -> tuple[float, Path | None]:
    """Set up SETUP_REPEATS times from scratch; return the median time and,
    for a warm-cache workload, the cache the last set-up filled."""
    step = workload.setup_step()
    times = []
    for k in range(SETUP_REPEATS):
        d = runner.work / f"setup{k}"
        t0 = time.perf_counter()
        cache = d / "cache"
        cache.mkdir(parents=True)
        outcome = runner.run(step, d, cache)
        times.append(time.perf_counter() - t0)
        runner.check(step, outcome)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(d, ignore_errors=True)
    return statistics.median(times), (cache if workload.warm_cache else None)


def measure(runner: Runner, workload, params, seconds: int, trace: bool,
            cache: Path | None) -> list[dict]:
    """Whole iterations until `seconds` have passed (at least one).  A traced
    run alternates untraced and traced iterations and ends on a traced one,
    so the two can be compared for the tracing overhead."""
    iterations = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_iteration(runner, workload, params, len(iterations),
                                        cache, traced))
        if trace and len(iterations) % 2:
            continue
        if (time.perf_counter() - t0 >= seconds
                or runner.budget.left() < 1.2 * iterations[-1]["wall_s"]):
            return iterations


def end_to_end(iterations: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Per-step medians over the iterations, summed for the workload."""
    def median(key):
        return {name: statistics.median(it[key][name] for it in iterations)
                for name in iterations[0][key]}

    latencies = median("latency_s")
    metrics = {
        "wall_s": sum(latencies.values()),
        "setup_s": setup_s,
        "cpu_s": sum(median("cpu_s").values()),
        "peak_rss_mb": max(median("maxrss_mb").values()),
        "slowest_cmd_s": max(latencies.values()),
    }
    return metrics, latencies


def per_layer(runner: Runner, iterations: list[dict], record_key: str) -> dict:
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    per_it = [layer_metrics(it["procs"], it["wall_s"]) for it in traced]
    counts = {name: per_it[0][name] for name in DETERMINISTIC}
    runner.expect("trace: counts repeat within the run",
                  all({name: m[name] for name in DETERMINISTIC} == counts
                      for m in per_it))
    runner.expect("trace: counts repeat across runs",
                  runner.checker.repeats(record_key, counts))
    metrics = {name: statistics.median(m[name] for m in per_it) for name in per_it[0]}
    metrics.update(counts)
    metrics["trace.overhead_frac"] = (
        statistics.median(it["wall_s"] for it in traced)
        / statistics.median(it["wall_s"] for it in plain) - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER}


def _digest(files: list[Path]) -> tuple[str, int]:
    """sha256 over the files' names and contents, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def environment(seed: int) -> dict:
    source, src_lines = _digest(sorted((ROOT / "src").rglob("*.py")))
    bench, _ = _digest(sorted(HERE.glob("*.py")))
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        import scipy
        versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    except ImportError:
        versions = {}
    mem_kb = 0
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_commit": commit or None,
        "source_sha256": source,
        "bench_sha256": bench,
        "src_lines": src_lines,
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "thread_caps": {k: THREADS for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "platform": platform.platform(),
    }


def _read_record(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, payload, indent: int | None = 1) -> None:
    tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True))
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gzeros" / "cli.py").is_file():
        print(f"perfbench: no gzeros sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    budget = Budget(RUN_DEADLINE_S)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / "repeat_record.json"
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(args.seed)
        checker = Checker(_read_record(record_path),
                          f"{env['source_sha256'][:16]}-{env['bench_sha256'][:16]}")
        runner = Runner(work, checker, budget)
        params = workload.choose(random.Random(args.seed))
        setup_s, cache = setup(runner, workload)
        iterations = measure(runner, workload, params, args.seconds,
                             bool(args.trace), cache)
        if args.trace:
            metrics = per_layer(runner, iterations,
                                f"trace-counts|{workload.name}|seed={args.seed}")
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            metrics, latencies = end_to_end(iterations, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    _write_json(record_path, checker.record)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": workload.name, "params": params, "env": env,
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "failures": runner.failures,
        "metrics": metrics,
    }
    if args.trace:
        spans = [
            {"run_id": proc["run_id"], "kind": proc["kind"],
             "import_s": proc["import_s"], "spans": proc["spans"]}
            for it in iterations for proc in it["procs"]
        ]
        _write_json(out_dir / f"spans-{tag}.json",
                    {"fields": ["name", "start", "end", "parent", "attrs"],
                     "processes": spans}, indent=None)
    else:
        details["command_latency_s"] = latencies
    _write_json(out_dir / f"result-{tag}.json", details)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iteration(s), {runner.attempted} checks, "
          f"{len(runner.failures)} failed")
    for failure in runner.failures:
        print(f"  FAIL {failure}")
    if not args.trace:
        for name, value in latencies.items():
            print(f"  {name}_s {value:.4f} s")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
