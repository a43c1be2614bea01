"""digitscreen benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the `digitscreen` CLI runs as a subprocess, closed-loop (one
client; the next run starts after the previous one exits), for about S
seconds and at least once. Each run is checked against the oracle and, when
one is recorded for this seed, the reference digests (see check.py). The
benchmark and every process it starts are pinned to one CPU, where a probe
measures the CPU's speed (speed.py); each timed process's wall time is
scaled to the CPU's full speed. Traced runs are neither pinned nor scaled. The end-to-end metrics are medians over
the runs.

With --trace 1 each CLI run is followed by a traced in-process replay of the
same command (replay.py) in a fresh interpreter, and the per-layer metrics
are medians over the replays. A layer's busy_s is its self time: the span
durations minus the parts covered by nested spans.

Every line before the last is for people: metrics by name with their unit,
check verdicts and provenance. The last line is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with every run and
the provenance, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import check
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
REFERENCES = Path(__file__).resolve().parent / "references"

# every process this benchmark starts must end within this many seconds of its start
TOTAL_BUDGET_S = 170.0
# fresh imports timed after each CLI run, and at least this many in all
SETUP_PER_RUN = 3
SETUP_MIN = 15
MIN_FREE_BYTES = 4 << 30
# The CLI's entry point, which also writes its own peak RSS (VmHWM) at exit.
# wait4's ru_maxrss cannot serve: Python starts children with vfork, and exec
# keeps the larger of the benchmark's own high-water RSS and the program's.
CLI_CODE = (
    "import atexit, os\n"
    "def peak(path=os.environ.pop('PERFBENCH_PEAK_FILE')):\n"
    "    with open('/proc/self/status') as src, open(path, 'w') as dst:\n"
    "        dst.write(next(line for line in src if line.startswith('VmHWM:')))\n"
    "atexit.register(peak)\n"
    "from digitscreen.cli import entrypoint\n"
    "entrypoint()\n"
)


def declared_units(root: Path) -> tuple[dict, dict]:
    """Metric name -> unit, end-to-end and per-layer, as BENCHMARK.json declares them."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in declared[part]} for part in ("end_to_end", "per_layer"))


class Budget:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds

    def left(self) -> float:
        return TOTAL_BUDGET_S - (time.perf_counter() - self.start)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIGITSCREEN_OUT", None)  # outputs go where the arguments say
    return env


def spawn(cmd: list, out_dir: Path, budget: Budget, env: dict | None = None) -> dict:
    """Run one child to completion; wall time from spawn to exit."""
    if budget.left() <= 0:
        raise TimeoutError("time budget spent before the next process")
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env or child_env(), cwd=ROOT)
        killer = threading.Timer(budget.left(), proc.kill)
        killer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    return {
        "start": t0,
        "wall_s": t1 - t0,
        "exit": proc.returncode,
        "stdout": (out_dir / "stdout").read_bytes(),
    }


def at_full_speed(result: dict, probe: SpeedProbe) -> float:
    """A process's wall time scaled to the CPU's full speed; keeps the speed in `result`."""
    result["speed"] = probe.speed(result["start"], result["start"] + result["wall_s"])
    return result["wall_s"] * result["speed"]


def time_setup(budget: Budget, probe: SpeedProbe) -> float:
    """Wall time of one fresh `import digitscreen.cli`, at full speed."""
    scratch = STATE / "setup"
    scratch.mkdir(parents=True, exist_ok=True)
    result = spawn([sys.executable, "-c", "import digitscreen.cli"], scratch, budget)
    if result["exit"] != 0:
        raise RuntimeError("importing digitscreen.cli failed: "
                           + (scratch / "stderr").read_text(encoding="utf-8", errors="replace"))
    return at_full_speed(result, probe)


def output_dirs(name: str):
    """A new, empty directory for each process's outputs, never deleted by a run.

    On ext4, a run creating 10 000 proportions files within about 30 s of
    deleting the previous run's 10 000 took 4.5 s of system time instead of
    0.5 s (2-vCPU VM, Python 3.11), so outputs stay until `.perfbench/run` is
    removed by hand, or by `reclaim_space` when the disk runs low.
    """
    base = STATE / "run" / name / f"{time.time_ns()}-{os.getpid()}"
    for k in itertools.count():
        path = base / str(k)
        path.mkdir(parents=True)
        yield path


def reclaim_space() -> None:
    if shutil.disk_usage(ROOT).free < MIN_FREE_BYTES:
        shutil.rmtree(STATE / "run", ignore_errors=True)


def substitute(argv: list, cache: Path, run_dir: Path) -> list:
    return [a.replace("{input}", str(cache)).replace("{run}", str(run_dir)) for a in argv]


def numpy_provenance() -> dict:
    import numpy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    active = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return {"numpy": numpy.__version__, "cpu_baseline": list(umath.__cpu_baseline__), "cpu_dispatch": active}


def env_key(workload: str, prov: dict) -> str:
    # simulated mixture bytes depend on numpy's SIMD transcendentals
    if workload == "sim-mixture":
        return f"numpy={prov['numpy']};dispatch={','.join(prov['cpu_dispatch'])}"
    return "any"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, plan: dict) -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        **numpy_provenance(),
        "seed": seed,
        "generator_version": workloads.GENERATOR_VERSION,
        "inputs": plan["input_digests"],
    }


class Checker:
    """Checks each run's outputs; a run whose digests match an earlier run reuses its verdict."""

    def __init__(self, workload: str, seed: int, plan: dict, key: str):
        self.workload, self.seed, self.plan, self.key = workload, seed, plan, key
        path = REFERENCES / f"{workload}.json"
        self.references = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.seen: dict = {}

    def verdict(self, result: dict, run_dir: Path) -> dict:
        digests = check.observed_digests(result["exit"], result["stdout"], run_dir, self.plan["outputs"])
        frozen = json.dumps(digests, sort_keys=True)
        if frozen not in self.seen:
            problems = check.oracle_problems(self.plan["expect"], result["exit"], result["stdout"], run_dir)
            ref = check.reference_verdict(self.references, self.key, self.seed, digests)
            self.seen[frozen] = {"oracle": "fail" if problems else "pass", "reference": ref,
                                 "problems": problems[:10], "digests": digests}
        return self.seen[frozen]


def run_cli(argv: list, cache: Path, run_dir: Path, budget: Budget) -> dict:
    peak_file = run_dir / "peak_rss"
    env = dict(child_env(), PERFBENCH_PEAK_FILE=str(peak_file))
    result = spawn([sys.executable, "-c", CLI_CODE, *substitute(argv, cache, run_dir)], run_dir, budget, env)
    # "VmHWM:   51234 kB"; a CLI killed before its exit handlers ran leaves no file
    result["peak_rss_mb"] = int(peak_file.read_text().split()[1]) / 1024.0 if peak_file.exists() else 0.0
    return result


def untraced(name: str, plan: dict, cache: Path, checker: Checker, budget: Budget, probe: SpeedProbe,
             names) -> tuple[dict, list]:
    """CLI runs for the window; setup is timed between them, so it samples the window's whole span."""
    time_setup(budget, probe)  # warm-up, untimed
    dirs = output_dirs(name)
    runs, setups, rounds = [], [], []
    deadline = time.perf_counter() + budget.seconds
    while not runs or time.perf_counter() + statistics.median(rounds) <= deadline:
        t0 = time.perf_counter()
        run_dir = next(dirs)
        result = run_cli(plan["argv"], cache, run_dir, budget)
        result["wall_ref_s"] = at_full_speed(result, probe)
        result["check"] = checker.verdict(result, run_dir)
        runs.append(result)
        setups.extend(time_setup(budget, probe) for _ in range(SETUP_PER_RUN))
        rounds.append(time.perf_counter() - t0)
    while len(setups) < SETUP_MIN:
        setups.append(time_setup(budget, probe))
    wall = statistics.median(r["wall_ref_s"] for r in runs)
    metrics = {
        "wall_ref_s": wall,
        "items_per_s": plan["items"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return {n: metrics[n] for n in names}, runs


def self_times(spans: list) -> tuple[dict, Counter, float]:
    """Self time and call count per span name, and the root span's duration."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    busy, calls, root = defaultdict(float), Counter(), 0.0
    for s in spans:
        if s["parent"] is None:
            root += s["end"] - s["start"]
            continue
        busy[s["name"]] += s["end"] - s["start"] - covered[s["id"]]
        calls[s["name"]] += 1
    return busy, calls, root


def layer_metrics(trace: dict, names) -> dict:
    busy, calls, root = self_times(trace["spans"])
    counts = Counter(trace["counts"])
    metrics = {name: 0.0 for name in names}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if kind == "busy_s":
            metrics[name] = busy.get(layer, 0.0)
        elif kind == "calls":
            metrics[name] = calls.get(layer, 0)
        elif name in counts:
            metrics[name] = counts[name]
    retained = counts["retained"]
    metrics["digits.scans_per_value"] = counts["scanned"] / retained if retained else 0.0
    requested = counts["requested_units"]
    metrics["simulate.hmpm.units_per_requested"] = counts["simulate.hmpm.units"] / requested if requested else 0.0
    metrics["trace.coverage"] = sum(busy.values()) / root if root else 0.0
    return metrics


def traced(name: str, plan: dict, cache: Path, checker: Checker, budget: Budget, names) -> tuple[dict, list]:
    dirs = output_dirs(name)
    samples, runs = [], []
    deadline = time.perf_counter() + budget.seconds
    while not runs or time.perf_counter() + statistics.median(r["pair_s"] for r in runs) <= deadline:
        t0 = time.perf_counter()
        run_dir, replay_dir = next(dirs), next(dirs)
        result = run_cli(plan["argv"], cache, run_dir, budget)
        result["check"] = checker.verdict(result, run_dir)
        spec = {"argv": substitute(plan["argv"], cache, replay_dir / "out"),
                "stdout": str(replay_dir / "report"), "spans": str(replay_dir / "spans.json"),
                "run_id": f"{name}-s{checker.seed}-r{len(runs)}"}
        (replay_dir / "out").mkdir()
        (replay_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        replay = spawn([sys.executable, str(Path(__file__).with_name("replay.py")), str(replay_dir / "spec.json")],
                       replay_dir, budget)
        same = False
        if replay["exit"] == 0:
            trace = json.loads((replay_dir / "spans.json").read_text(encoding="utf-8"))
            rendered = (replay_dir / "report").read_bytes()
            mirrored = check.observed_digests(trace["exit"], rendered, replay_dir / "out", plan["outputs"])
            same = mirrored == result["check"]["digests"]
        result["replay_identical"] = same
        result["pair_s"] = time.perf_counter() - t0
        runs.append(result)
        if same:
            samples.append(layer_metrics(trace, names))
            shutil.copyfile(replay_dir / "spans.json", STATE / "results" / f"{name}-s{checker.seed}-spans.json")
        else:
            result["replay_stderr"] = (replay_dir / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
    metrics = {n: statistics.median(s[n] for s in samples) if samples else 0.0 for n in names}
    return metrics, runs


def run_failed(run: dict) -> bool:
    verdict = run["check"]
    return verdict["oracle"] == "fail" or verdict["reference"] == "fail" or run.get("replay_identical") is False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "digitscreen" / "cli.py").is_file():
        print(f"error: no digitscreen sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    end_to_end, per_layer = declared_units(ROOT)
    units = per_layer if args.trace else end_to_end
    budget = Budget(args.seconds)
    cache, plan = workloads.plan(ROOT, args.workload, args.seed)
    prov = provenance(args.seed, plan)
    checker = Checker(args.workload, args.seed, plan, env_key(args.workload, prov))
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    reclaim_space()
    if args.trace:
        metrics, runs = traced(args.workload, plan, cache, checker, budget, units)
    else:
        with SpeedProbe(STATE / "speed-samples") as probe:
            metrics, runs = untraced(args.workload, plan, cache, checker, budget, probe, units)

    failed = sum(run_failed(r) for r in runs)
    verdicts = Counter(f"oracle={r['check']['oracle']} reference={r['check']['reference']}" for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "metrics": metrics, "attempted": len(runs), "failed": failed,
        "error_rate": failed / len(runs), "verdicts": dict(verdicts),
        "runs": [{k: v for k, v in r.items() if k != "stdout"} for r in runs],
    }
    out = STATE / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  runs {len(runs)}  "
          f"commit {prov['commit'][:12]}  numpy {prov['numpy']}  nproc {prov['nproc']}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<36} {failed / len(runs):>16.6g} ratio  ({failed} of {len(runs)} runs failed)")
    if not args.trace:
        walls = [r["wall_s"] for r in runs]
        speeds = [r["speed"] for r in runs]
        print(f"  CLI wall time as measured: median {statistics.median(walls):.4g} s, "
              f"range {min(walls):.4g}-{max(walls):.4g} s; CPU speed {min(speeds):.3f}-{max(speeds):.3f} of full")
    for verdict, n in verdicts.items():
        print(f"  check: {verdict}  x{n}")
    for r in runs:
        for problem in r["check"]["problems"]:
            print(f"  problem: {problem}")
        if r.get("replay_identical") is False:
            print("  problem: the traced replay's outputs differ from the CLI's")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
