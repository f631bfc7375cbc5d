"""Mutation runner: seed one small fault at a time into crawsim and see
whether the test suite notices.

Each mutant changes one site of one module, parsed with ``ast`` and written
back with ``ast.unparse``.  The operators are a selective set (Offutt,
Rothermel & Zapf, "An Experimental Evaluation of Selective Mutation",
ICSE 1993):

* ``cmp``: flip a comparison (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
  ``is``/``is not``, ``in``/``not in``);
* ``bool``: swap ``and`` and ``or``;
* ``int``: add 1 to an integer constant;
* ``pass``: replace a call statement or a ``raise`` with ``pass``.

The runner never edits the checkout it is run from.  It copies ``src``,
``tests``, ``bench`` (the tracing tests load it) and ``pyproject.toml``
into a fresh temporary directory, checks that the unparsed but unmutated
modules pass the suite there (keeping the directory for a look when they
do not), and then runs the suite once per mutant with
``pytest -x``.  A mutant is killed when the run fails, takes four times
as long as the unmutated suite (a mutant can loop forever) or outgrows
``MEMORY_CAP`` bytes of address space, and survives when it passes.  It prints each
mutant's ``file:line``, operator and verdict, then the counts.

Usage (module paths as seen from the working directory):

    python tools/mutate.py src/crawsim/tree.py src/crawsim/ckc.py
    python tools/mutate.py --sample 40 --seed 1 src/crawsim/*.py

Only the standard library is used.  The sites and their order are fixed by
the source; ``--sample`` picks that many of them with ``random.Random(seed)``.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BOOLS = {ast.And: ast.Or, ast.Or: ast.And}
MEMORY_CAP = 2 << 30  # a mutant can also grow a list forever


def sites(tree: ast.AST) -> list[tuple[str, int, object]]:
    """Every mutable site of a parsed module, in ``ast.walk`` order, as
    (operator, line, how); ``mutate`` applies one to the same tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            out += [("cmp", node.lineno, (node, i)) for i, op in enumerate(node.ops)
                    if type(op) in FLIPS]
        elif isinstance(node, ast.BoolOp):
            out.append(("bool", node.lineno, node))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append(("int", node.lineno, node))
        for field, value in ast.iter_fields(node):
            if not isinstance(value, list):
                continue
            for i, stmt in enumerate(value):
                call = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                if call or isinstance(stmt, ast.Raise):
                    out.append(("pass", stmt.lineno, (node, field, i)))
    return out


def mutate(source: str, index: int) -> tuple[str, str, int]:
    """The module with its ``index``-th site mutated, the operator and the
    site's line in ``source``."""
    tree = ast.parse(source)
    kind, line, how = sites(tree)[index]
    if kind == "cmp":
        node, i = how
        node.ops[i] = FLIPS[type(node.ops[i])]()
    elif kind == "bool":
        how.op = BOOLS[type(how.op)]()
    elif kind == "int":
        how.value += 1
    else:
        node, field, i = how
        getattr(node, field)[i] = ast.Pass()
    return ast.unparse(tree), kind, line


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_suite(work: Path, timeout: float | None = None) -> tuple[bool, float]:
    """Whether the suite in ``work`` passes, and how long it took; a run
    past ``timeout`` seconds counts as a failure."""
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(
            cmd, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, env=dict(os.environ, PYTHONPATH=str(work / "src")),
            preexec_fn=_cap_memory,
        )
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files under src/")
    parser.add_argument("--sample", type=int, help="run only this many mutants, drawn by seed")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    work = Path(tempfile.mkdtemp(prefix="mutate-"))
    for name in ("src", "tests", "bench"):
        shutil.copytree(root / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(root / "pyproject.toml", work / "pyproject.toml")

    modules = [m.resolve().relative_to(root) for m in args.modules]
    sources = {m: (root / m).read_text(encoding="utf-8") for m in modules}
    plan = [(m, i) for m, text in sources.items() for i in range(len(sites(ast.parse(text))))]
    if args.sample is not None:
        plan = sorted(random.Random(args.seed).sample(plan, min(args.sample, len(plan))))
    for module, text in sources.items():
        (work / module).write_text(ast.unparse(ast.parse(text)), encoding="utf-8")
    passed, took = run_suite(work)
    if not passed:
        print(f"the unmutated, unparsed modules fail the suite in {work}", file=sys.stderr)
        return 2
    print(f"{len(plan)} mutants; unmutated suite {took:.1f} s", flush=True)
    timeout = 4 * took

    survived, start = [], time.perf_counter()
    for module, index in plan:
        mutant, kind, line = mutate(sources[module], index)
        (work / module).write_text(mutant, encoding="utf-8")
        passed, took = run_suite(work, timeout)
        (work / module).write_text(ast.unparse(ast.parse(sources[module])), encoding="utf-8")
        verdict = "survived" if passed else "killed"
        if passed:
            survived.append(f"{module}:{line}")
        print(f"{module}:{line} {kind} {verdict} ({took:.1f} s)", flush=True)
    elapsed = time.perf_counter() - start
    print(f"killed {len(plan) - len(survived)}, survived {len(survived)} in {elapsed:.0f} s")
    shutil.rmtree(work)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
