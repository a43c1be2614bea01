"""Mutation sweep of the report gate, the screen config checks, the warning
rule, the law sum check, the readers' cell classifier (with the csv reader's
batch re-join) and row bound (with the column builder and both readers), the
unchecked tally constructor, a column's checks and exclusion record, the
stderr diagnostic lines, the mixture writer's shortest-digit kernel, the
voting model's block Beta stage and count loop, and the mixture's block
sampler and screen.

Each mutant changes one spot of one target: a relational operator flipped
(< and <=, > and >=, == and !=, each way), an int constant shifted by one
(up and down), a float constant shifted by one decade (x10 and /10), a
``not`` removed, or a statement replaced by ``pass``. For each mutant the
script copies ``src/``, ``tests/``, ``perfbench/`` (which tests import) and
``pyproject.toml`` to a work directory, writes the mutated module there, and
runs the target's tests with pytest. The copy's ``tests/conftest.py`` loads
a Hypothesis profile without the shrink phase: a verdict needs only whether
the tests fail, and shrinking a failing example can take longer than the
time limit below. A target names its tests by file or node id, never by a
``-k`` name filter, so every test of a named file can kill its mutants. A
mutant is killed when they fail, and survives when they pass. The target's
unmutated tests are timed first: a mutant whose tests take more than five
times as long, plus 30 s, is stopped (a mutated loop may never end) and
counts as killed. The script uses the standard library only and is not part
of the test suite.

    python3 tools/mutate.py                  # every target; survivors are listed at the end
    python3 tools/mutate.py --target report  # one target
    python3 tools/mutate.py --list           # the mutants, without running them
    python3 tools/mutate.py --target classifier --at 414:72  # only the mutants at one line:column

The unmutated copy must pass every target's tests first.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Target:
    name: str
    module: str  # path under src/digitscreen
    scopes: tuple  # dotted names of the functions, classes or module-level assignments to mutate; () is all
    tests: tuple  # test files or node ids


TARGETS = (
    Target("report", "report.py", (), ("tests/test_report.py", "tests/test_cli.py")),
    Target("screen-config", "cli.py", ("ScreenConfig.__post_init__",), ("tests/test_cli.py",)),
    Target("small-expected", "inference.py", ("_small_expected_cells", "SMALL_EXPECTED_COUNT"),
           ("tests/test_inference.py",)),
    Target("law-sum", "laws.py", ("DigitDistribution.__post_init__", "_SUM_TOL"), ("tests/test_laws.py",)),
    Target("classifier", "cli.py", ("_plain_cells", "_cell_count", "_csv_batch", "_UNPLAIN"), ("tests/test_cli.py",)),
    Target("row-bound", "cli.py", ("_read_plain", "_read_csv", "_columns", "_line_count"), ("tests/test_cli.py",)),
    Target("count-vector", "digits.py", ("_count_vector",), ("tests/test_digits.py", "tests/test_inference.py")),
    Target("column-record", "digits.py", ("DatasetColumn.__post_init__", "_count_array"),
           ("tests/test_digits.py", "tests/test_cli.py", "tests/test_simulate.py")),
    Target("diagnostic-lines", "cli.py", ("_diagnostic_lines",), ("tests/test_cli.py",)),
    Target("repr-lines", "cli.py", ("_KERNEL_LOW", "_LOW32", "_POW10", "_SLOT", "_ryu_tables", "_repr_lines"),
           ("tests/test_cli.py::TestReprLines", "tests/test_cli.py::test_simulate_digests_under_baseline_dispatch")),
    Target("voting-model", "simulate.py", ("_libm", "_gammas", "_block_betas", "hmpm_unit_counts", "_block_units"),
           ("tests/test_simulate.py", "tests/test_cli.py::test_simulate_digests_under_baseline_dispatch")),
    Target("mixture-sampler", "simulate.py", ("_family_values", "_draw_family", "sample_mixture", "screen_mixture"),
           ("tests/test_simulate.py", "tests/test_cli.py::test_simulate_digests_under_baseline_dispatch")),
)

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


@dataclass(frozen=True)
class Mutant:
    target: Target
    line: int
    col: int
    description: str
    source: str


def _scoped_nodes(tree: ast.Module, scopes: tuple):
    """The top-level nodes (or class members) the scopes name, or the whole module.

    A scope that names nothing raises ValueError: after a rename it would quietly drop its spots from the sweep.
    """
    if not scopes:
        yield tree
        return
    for scope in scopes:
        outer, _, inner = scope.partition(".")
        found = []
        for node in tree.body:
            names = [n.id for t in getattr(node, "targets", []) for n in ast.walk(t) if isinstance(n, ast.Name)]
            if getattr(node, "name", None) == outer or outer in names:
                found += [node] if not inner else [n for n in node.body if getattr(n, "name", None) == inner]
        if not found:
            raise ValueError(f"scope {scope!r} names nothing in the module")
        yield from found


def _spots(tree: ast.Module, scopes: tuple):
    """(node, change, description) of every single change in scope; calling ``change()`` makes it in ``tree``."""
    for scope in _scoped_nodes(tree, scopes):
        for parent in ast.walk(scope):
            if isinstance(parent, ast.Compare):
                for i, op in enumerate(parent.ops):
                    if type(op) in _FLIPS:
                        yield (parent, partial(parent.ops.__setitem__, i, _FLIPS[type(op)]()),
                               f"{type(op).__name__} -> {_FLIPS[type(op)].__name__}")
            elif isinstance(parent, ast.Constant) and type(parent.value) in (int, float):
                value = parent.value
                shifted = (value + 1, value - 1) if type(value) is int else (value * 10, value / 10)
                for new in shifted:
                    if new != value:
                        yield parent, partial(setattr, parent, "value", new), f"{value!r} -> {new!r}"
            for field, child in ast.iter_fields(parent):
                if isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                    yield child, partial(setattr, parent, field, child.operand), "not removed"
                if not isinstance(child, list):
                    continue
                for i, node in enumerate(child):
                    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                        yield node, partial(child.__setitem__, i, node.operand), "not removed"
                    elif isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) and not _docstring(node):
                        yield node, partial(child.__setitem__, i, ast.Pass()), f"{type(node).__name__} -> pass"


def _docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def mutants(target: Target) -> list[Mutant]:
    path = ROOT / "src" / "digitscreen" / target.module
    source = path.read_text(encoding="utf-8")
    found = []
    count = sum(1 for _ in _spots(ast.parse(source), target.scopes))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant, changed at its k-th spot
        node, change, description = list(_spots(tree, target.scopes))[k]
        change()
        found.append(Mutant(target, node.lineno, node.col_offset, description, ast.unparse(tree) + "\n"))
    return found


# appended to the copy's tests/conftest.py, which pytest imports before the test modules whose settings it sets
_NO_SHRINK = """
from hypothesis import Phase, settings

settings.register_profile("mutate", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("mutate")
"""


def _copy_tree(work: Path) -> None:
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    with open(work / "tests" / "conftest.py", "a", encoding="utf-8") as conftest:
        conftest.write(_NO_SHRINK)


def _run_tests(work: Path, target: Target, timeout: float | None) -> str:
    """How the target's tests end in the work copy: "passed", "failed" or "timed out"."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *target.tests]
    try:
        code = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", action="append", choices=[t.name for t in TARGETS])
    parser.add_argument("--list", action="store_true", help="list the mutants without running them")
    parser.add_argument("--at", action="append", help="only the mutants at this line:column (repeatable)")
    parser.add_argument("--workdir", default=None, help="where the copy is made (default: a temporary directory)")
    args = parser.parse_args(argv)
    targets = [t for t in TARGETS if not args.target or t.name in args.target]
    if args.list:
        for target in targets:
            for m in mutants(target):
                print(f"{target.name}: {target.module}:{m.line}:{m.col}: {m.description}")
        return 0
    work = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.workdir))
    try:
        _copy_tree(work)
        survivors = []
        for target in targets:
            module = work / "src" / "digitscreen" / target.module
            original = module.read_text(encoding="utf-8")
            start = time.perf_counter()
            if _run_tests(work, target, None) != "passed":
                print(f"{target.name}: the unmutated tests fail; skipped", flush=True)
                continue
            unmutated = time.perf_counter() - start
            limit = 5 * unmutated + 30
            print(f"{target.name}: unmutated tests {unmutated:.1f} s; each mutant's limit {limit:.0f} s", flush=True)
            found = [m for m in mutants(target) if not args.at or f"{m.line}:{m.col}" in args.at]
            killed = 0
            for m in found:
                start = time.perf_counter()
                module.write_text(m.source, encoding="utf-8")
                try:
                    outcome = _run_tests(work, target, limit)
                finally:
                    module.write_text(original, encoding="utf-8")
                passed = outcome == "passed"
                verdict = "SURVIVED" if passed else "killed" if outcome == "failed" else "killed (timed out)"
                killed += not passed
                if passed:
                    survivors.append(m)
                print(f"{target.name}: {target.module}:{m.line}:{m.col}: {m.description}: {verdict} "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
            print(f"{target.name}: {killed} of {len(found)} killed", flush=True)
        print(f"survivors: {len(survivors)}")
        for m in survivors:
            print(f"  {m.target.name}: {m.target.module}:{m.line}:{m.col}: {m.description}")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
