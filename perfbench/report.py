"""Run every workload, or show a recorded result, with every metric by name.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seed N [--seconds S] [--out FILE]
    python3 perfbench/report.py --show FILE

The first form runs run.py on each workload, untraced and then traced, one
process at a time, prints every end-to-end and per-layer metric with its
unit and the check verdicts, and with --out writes them all to FILE
(perfbench/results/BENCH_<n>.json is the naming the repository uses). The
second form prints a file written that way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

# known waste at the seed commit, measured as counts by the traced replay
WASTE = {
    "simulate.hmpm.units_per_requested": "sim-voting generates every unit of replicate 0 twice: once for --out, once in the experiment",
    "digits.scans_per_value": "each test re-reads every value for tabulation, exclusion and the median sort",
}


def collect(seed: int, seconds: float) -> dict:
    result = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace {trace} failed:\n{proc.stderr}")
            summary = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((run.STATE / "results" / f"{name}-s{seed}-t{trace}.json").read_text(encoding="utf-8"))
            part = "per_layer" if trace else "end_to_end"
            entry[part] = summary["metrics"]
            entry[f"{part}_runs"] = {"attempted": summary["attempted"], "failed": summary["failed"],
                                     "correct": summary["correct"], "verdicts": record["verdicts"]}
            entry["inputs"] = record["provenance"]["inputs"]
            result["provenance"] = {k: v for k, v in record["provenance"].items() if k not in ("inputs", "seed")}
        result["workloads"][name] = entry
    result["known_waste"] = {
        metric: {"why": why, **{name: w["per_layer"][metric]["value"] for name, w in result["workloads"].items()}}
        for metric, why in WASTE.items()
    }
    return result


def show(result: dict) -> None:
    prov = result["provenance"]
    print(f"commit {prov['commit']}  seed {result['seed']}  seconds {result['seconds']}")
    print(f"python {prov['python']}  numpy {prov['numpy']}  dispatch {','.join(prov['cpu_dispatch'])}  "
          f"nproc {prov['nproc']}  cpu {prov['cpu_model']}")
    for name, entry in result["workloads"].items():
        print(f"\n{name}")
        for part in ("end_to_end", "per_layer"):
            runs = entry[f"{part}_runs"]
            attempted, failed = runs["attempted"], runs["failed"]
            print(f"  [{part}]  runs {attempted}  failed {failed}  error_rate {failed / attempted:g}  "
                  f"correct {runs['correct']}  checks {runs['verdicts']}")
            for metric, m in entry[part].items():
                print(f"    {metric:<36} {m['value']:>16.6g} {m['unit']}")
        for fname, d in entry["inputs"].items():
            print(f"  input {fname}: {d['bytes']} bytes, sha256 {d['sha256']}")
    print("\nknown waste")
    for metric, w in result["known_waste"].items():
        values = "  ".join(f"{k} {v:g}" for k, v in w.items() if k != "why")
        print(f"  {metric}: {values}\n    ({w['why']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--show", type=Path)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.show:
        result = json.loads(args.show.read_text(encoding="utf-8"))
    else:
        result = collect(args.seed, args.seconds)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    show(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
