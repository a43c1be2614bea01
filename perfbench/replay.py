"""Traced in-process replay of one CLI command.

Usage: python3 perfbench/replay.py SPEC.json

SPEC.json holds `argv` (the digitscreen arguments of the CLI run being
replayed), `stdout` (where to write what the command printed), `spans`
(where to write the trace) and `run_id`. Each layer's public functions are
wrapped in place, in every digitscreen module that imported them, and then
`digitscreen.cli.main(argv)` runs inside one root span, so the replay does
exactly the work of the CLI, in the CLI's own order, and every call into a
layer gets a span. `cli.run_simulation` is traced as `simulate.write`: its
self time is the CSV write it does inline, because everything else it calls
has a span of its own. Spans stay in memory until the replay ends; the exit
code, the spans and the counters are written to SPEC's `spans` file.
"""

from __future__ import annotations

import io
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace `module.attr` by a traced wrapper in every digitscreen module that holds it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "digitscreen" or mod_name.startswith("digitscreen."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_ingest(c, args, kwargs, columns):
    c["cli.ingest.cells"] += sum(col.m + col.excluded_count for col in columns)
    c["cli.ingest.excluded"] += sum(col.excluded_count for col in columns)
    c["retained"] += sum(col.m for col in columns)


def _count_column_scan(metric):
    def count(c, args, kwargs, result):
        m = _arg(args, kwargs, 0, "column").m
        c[metric] += m
        c["scanned"] += m

    return count


def _count_report(c, args, kwargs, result):
    c["scanned"] += len(_arg(args, kwargs, 1, "analyzed"))


def _count_real(c, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "values"))
    c["digits.real.values"] += n
    c["scanned"] += n


def _count_render(c, args, kwargs, result):
    c["report.render.rows"] += len(_arg(args, kwargs, 0, "doc").rows)
    c["report.render.bytes"] += len(result.encode("utf-8"))


def _count_files(c, args, kwargs, result):
    c["cli.proportions.files"] += 1


def _count_units(c, args, kwargs, result):
    c["simulate.hmpm.units"] += len(result)


def _count_samples(c, args, kwargs, result):
    c["simulate.sample.values"] += len(result)
    c["retained"] += len(result)


def _count_experiment(c, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    c["requested_units"] += config.n_units * kwargs.get("replicates", args[4] if len(args) > 4 else 1)
    c["retained"] += max(res.pooled.m for res in result.results)


def _count_write(c, args, kwargs, result):
    out_path = _arg(args, kwargs, 1, "out_path")
    if out_path is not None:
        c["simulate.write.bytes"] += out_path.stat().st_size


def instrument(tracer: Tracer):
    """Wrap each layer's public functions; returns the cli module."""
    from digitscreen import cli, digits, inference, laws, report
    from digitscreen import simulate as sim

    tracer.patch(cli, "ingest", "cli.ingest", _count_ingest)
    tracer.patch(cli, "law_for_test", "laws.build")
    tracer.patch(laws, "law_from_name", "laws.build")
    tracer.patch(digits, "digit_frequencies", "digits.tabulate", _count_column_scan("digits.tabulate.values"))
    tracer.patch(digits, "joint_frequencies", "digits.tabulate", _count_column_scan("digits.tabulate.values"))
    tracer.patch(digits, "analyzable_values", "digits.analyzable", _count_column_scan("digits.analyzable.values"))
    tracer.patch(digits, "real_digit_frequencies", "digits.real", _count_real)
    tracer.patch(inference, "report_from_counts", "inference.report", _count_report)
    tracer.patch(inference, "chi_squared_stat", "inference.pvalue")
    tracer.patch(inference, "chi_squared_pvalue", "inference.pvalue")
    tracer.patch(inference, "log_bayes_factor_uniform", "inference.log_b01")
    tracer.patch(report, "render", "report.render", _count_render)
    tracer.patch(cli, "proportions_table", "cli.proportions")
    tracer.patch(cli, "write_proportions", "cli.proportions", _count_files)
    tracer.patch(sim, "hmpm_unit_counts", "simulate.hmpm", _count_units)
    tracer.patch(sim, "conformance_experiment", "simulate.experiment", _count_experiment)
    tracer.patch(sim, "sample_mixture", "simulate.sample", _count_samples)
    tracer.patch(cli, "run_simulation", "simulate.write", _count_write)
    return cli


def tracing_cost(samples: int = 20_000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""

    def noop():
        return None

    traced = Tracer("calibration").wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, time.perf_counter() - t0 - bare) / samples


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer(spec["run_id"])
    cli = instrument(tracer)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tracer.span("replay"), redirect_stdout(stdout), redirect_stderr(stderr):
        exit_code = cli.main(spec["argv"])
    if tracer.counts["cli.ingest.cells"]:
        tracer.counts["cli.ingest.diagnostics"] = stderr.getvalue().count("\n")
    tracer.counts["trace.overhead_s"] = tracing_cost() * (len(tracer.spans) - 1)
    Path(spec["stdout"]).write_text(stdout.getvalue(), encoding="utf-8")
    Path(spec["spans"]).write_text(json.dumps({"exit": exit_code, "spans": tracer.spans, "counts": tracer.counts}),
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
