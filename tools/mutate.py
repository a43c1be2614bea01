"""Mutation sweep of the report gate, the screen config checks, the warning
rule, the law sum check and the plain reader's cell classifier.

Each mutant changes one spot of one target: a relational operator flipped
(< and <=, > and >=, == and !=, each way), an int constant shifted by one
(up and down), or a float constant shifted by one decade (x10 and /10). For
each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml``
to a work directory, writes the mutated module there, and runs the target's
tests with pytest. A mutant is killed when they fail (or run out of time),
and survives when they pass. The script uses the standard library only and
is not part of the test suite.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Target:
    name: str
    module: str  # path under src/digitscreen
    scopes: tuple  # dotted names of the functions, classes or module-level assignments to mutate; () is all
    tests: tuple  # pytest arguments


TARGETS = (
    Target("report", "report.py", (), ("tests/test_report.py", "tests/test_cli.py", "-k",
                                       "report or exit or threshold or median or digest or format or json")),
    Target("screen-config", "cli.py", ("ScreenConfig.__post_init__",), ("tests/test_cli.py", "-k",
                                                                       "ScreenConfig or threshold or bound or "
                                                                       "lower or restricted or policy or format")),
    Target("small-expected", "inference.py", ("_small_expected_cells", "SMALL_EXPECTED_COUNT"),
           ("tests/test_inference.py",)),
    Target("law-sum", "laws.py", ("DigitDistribution.__post_init__", "_SUM_TOL"), ("tests/test_laws.py",)),
    Target("classifier", "cli.py", ("_plain_cells", "_cell_count"), ("tests/test_cli.py", "-k",
                                                                      "Ingest or Classifier or digest")),
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
    """The top-level nodes (or class members) the scopes name, or the whole module."""
    if not scopes:
        yield tree
        return
    for scope in scopes:
        outer, _, inner = scope.partition(".")
        for node in tree.body:
            names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
            if getattr(node, "name", None) == outer or outer in names:
                if not inner:
                    yield node
                else:
                    yield from (n for n in node.body if getattr(n, "name", None) == inner)


def _spots(tree: ast.Module, scopes: tuple):
    """(node, index, replacement, description) of every single change in scope."""
    seen = set()
    for scope in _scoped_nodes(tree, scopes):
        for node in ast.walk(scope):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _FLIPS:
                        yield node, i, _FLIPS[type(op)](), f"{type(op).__name__} -> {_FLIPS[type(op)].__name__}"
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                value = node.value
                shifted = (value + 1, value - 1) if type(value) is int else (value * 10, value / 10)
                for new in shifted:
                    if new != value:
                        yield node, None, new, f"{value!r} -> {new!r}"


def mutants(target: Target) -> list[Mutant]:
    path = ROOT / "src" / "digitscreen" / target.module
    source = path.read_text(encoding="utf-8")
    found = []
    count = sum(1 for _ in _spots(ast.parse(source), target.scopes))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant, changed at its k-th spot
        node, index, new, description = list(_spots(tree, target.scopes))[k]
        if index is None:
            node.value = new
        else:
            node.ops[index] = new
        found.append(Mutant(target, node.lineno, node.col_offset, description, ast.unparse(tree) + "\n"))
    return found


def _copy_tree(work: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _run_tests(work: Path, target: Target, timeout: float) -> bool:
    """Whether the target's tests pass in the work copy."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *target.tests]
    try:
        return subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", action="append", choices=[t.name for t in TARGETS])
    parser.add_argument("--list", action="store_true", help="list the mutants without running them")
    parser.add_argument("--at", action="append", help="only the mutants at this line:column (repeatable)")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per test run (a timeout kills)")
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
            if not _run_tests(work, target, args.timeout):
                print(f"{target.name}: the unmutated tests fail; skipped", flush=True)
                continue
            found = [m for m in mutants(target) if not args.at or f"{m.line}:{m.col}" in args.at]
            killed = 0
            for m in found:
                start = time.perf_counter()
                module.write_text(m.source, encoding="utf-8")
                try:
                    passed = _run_tests(work, target, args.timeout)
                finally:
                    module.write_text(original, encoding="utf-8")
                verdict = "SURVIVED" if passed else "killed"
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
