"""Record reference digests for a range of seeds.

Usage: python3 perfbench/record.py WORKLOAD FIRST LAST

Runs the CLI once per seed in FIRST..LAST and stores the exit code and the
sha256 of stdout and of every written file in
perfbench/references/WORKLOAD.json. A run is recorded only when the oracle
accepts it. References must come from a commit whose outputs are known
good; each file names the commit it was recorded at. sim-mixture
references are keyed by numpy version and CPU dispatch, the others hold on
any build.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(argv: list) -> int:
    name, first, last = argv[0], int(argv[1]), int(argv[2])
    path = run.REFERENCES / f"{name}.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    refs["recorded_at_commit"] = run.git_commit()
    refs["generator_version"] = workloads.GENERATOR_VERSION
    for seed in range(first, last + 1):
        budget = run.Budget(0)
        cache, plan = workloads.plan(run.ROOT, name, seed)
        prov = run.provenance(seed, plan)
        checker = run.Checker(name, seed, plan, run.env_key(name, prov))
        run_dir = run.STATE / "record" / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        result = run.run_cli(plan["argv"], cache, run_dir, budget)
        verdict = checker.verdict(result, run_dir)
        if verdict["oracle"] != "pass":
            print(f"{name} seed {seed}: oracle rejects the run, not recorded: {verdict['problems']}")
            return 1
        refs.setdefault(checker.key, {})[str(seed)] = verdict["digests"]
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name} seed {seed}: exit {result['exit']}, {result['wall_s']:.2f} s, recorded", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
