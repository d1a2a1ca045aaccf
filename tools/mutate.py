"""Mutation check of weylkit's kernels: each small change to a kernel must fail a test.

Usage::

    python3 tools/mutate.py --list                      # the kernels of the table
    python3 tools/mutate.py cocycle                     # run one kernel's mutants
    python3 tools/mutate.py cocycle --check             # exit 1 on a survivor the table does not name

A kernel is a list of functions of one module and a selection of tests.  Each
mutant changes one expression inside those functions: a comparison, an
arithmetic or boolean operator, a small integer or boolean constant, an
``operator`` function, ``any``/``all`` or ``min``/``max``, or the negation of
an ``if`` test.  The rest of the module is kept byte for byte.  Every mutant
runs in a copy of this checkout's ``src/`` and ``tests/`` (never in the checkout itself), with
``pytest -x`` on the kernel's tests, and counts as

* killed: the tests fail;
* survived: the tests pass;
* timeout: the tests run longer than ``TIMEOUT_FACTOR`` times the unmutated run, plus 10 s.

The unmutated run comes first, alone.  The mutants then run in as many
workers as the process may use CPUs, each worker in its own copy, and their
results are printed in source order.

Only the standard library is used (``ast``, ``subprocess``); pytest must be
importable.  A kernel's known survivors are listed in the table with the reason
each is equivalent; ``--check`` fails on any other survivor and on a timeout.
"""

from __future__ import annotations

import argparse
import ast
import collections
import concurrent.futures
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_FACTOR = 5
LT_TESTS = "tests/test_lambda_tree.py"
TW_TESTS = "tests/test_twisted_algebra.py"

# name -> (module under src/, functions (a method as ``Class.name``), pytest arguments,
#          {known survivor: why it is equivalent})
KERNELS = {
    "cocycle": (
        "weylkit/lambda_tree.py",
        ["_failed_blocks"],
        [LT_TESTS, "-k", "cocycle or check_pv or WorkCounts or Carried or HalfOrbits"],
        {},
    ),
    "cocycle-listing": (
        "weylkit/lambda_tree.py",
        ["_cocycle_failures"],
        [LT_TESTS, "-k", "check_pv or WorkCounts or Carried or HalfOrbits"],
        {},
    ),
    "check_pv": (
        "weylkit/lambda_tree.py",
        ["check_pv"],
        [LT_TESTS, "-k", "check_pv or WorkCounts or Carried or HalfOrbits or TestProjectiveValuation"],
        {},
    ),
    "laurent": (
        "weylkit/twisted_algebra.py",
        ["_merge", "LaurentElement.__add__", "LaurentElement.__neg__", "LaurentElement.__sub__",
         "LaurentElement.__mul__", "LaurentElement.theta"],
        [TW_TESTS, "-k", "CanonicalOrder or TestTheta or TestNorms"],
        {},
    ),
    "quad_sign": (
        "weylkit/scalars.py",
        ["_quad_sign"],
        ["tests/test_scalars.py", "-k", "QuadInt or quadint or TestSign or TestCompare"],
        {
            "LtE->Lt at 14 in `if a <= 0 and b <= 0:`":
                "b == 0 here means a < 0, and the mixed branch then answers -1 (a*a < 0 fails)",
            "0->1 at 8 in `if a <= 0 and b <= 0:`":
                "a == 1 here means b < 0, and 1 + b sqrt p < 0 since sqrt p > 1: -1 either way",
            "Gt->GtE at 3 in `if a > 0:  # b < 0`":
                "a == 0 never reaches the mixed branch: the branch above returns for it",
            "Gt->GtE at 12 in `return 1 if a * a > p * b * b else -1`":
                "a*a == p*b*b has no solution with b != 0, as sqrt p is irrational",
            "Lt->LtE at 12 in `return 1 if a * a < p * b * b else -1  # a < 0, b > 0`":
                "a*a == p*b*b has no solution with b != 0, as sqrt p is irrational",
        },
    ),
}

_COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}  # fmt: skip
_BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr, ast.RShift: ast.LShift, ast.LShift: ast.RShift,
}  # fmt: skip
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_NAMES = {"any": "all", "all": "any", "min": "max", "max": "min"}
_ATTRS = {
    "add": "sub", "sub": "add", "neg": "pos", "pos": "neg", "lt": "le", "le": "lt", "gt": "ge", "ge": "gt",
    "__lt__": "__le__", "__le__": "__lt__", "__gt__": "__ge__", "__ge__": "__gt__",
}  # fmt: skip


def _variants(node: ast.AST):
    """(description, replacement) for each mutant of one node: an expression, or (the test, its negation)."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _COMPARE:
                ops = list(node.ops)
                ops[i] = _COMPARE[type(op)]()
                yield f"{type(op).__name__}->{type(ops[i]).__name__}", ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        new = _BINARY[type(node.op)]
        yield f"{type(node.op).__name__}->{new.__name__}", ast.BinOp(node.left, new(), node.right)
    elif isinstance(node, ast.BoolOp):
        new = _BOOL[type(node.op)]
        yield f"{type(node.op).__name__}->{new.__name__}", ast.BoolOp(new(), node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield f"drop {type(node.op).__name__}", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
        new = (not node.value) if isinstance(node.value, bool) else node.value + 1
        yield f"{node.value!r}->{new!r}", ast.Constant(new)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in _NAMES:
        yield f"{node.id}->{_NAMES[node.id]}", ast.Name(_NAMES[node.id], ast.Load())
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in _ATTRS:
        yield f".{node.attr}->.{_ATTRS[node.attr]}", ast.Attribute(node.value, _ATTRS[node.attr], ast.Load())
    elif isinstance(node, (ast.If, ast.While, ast.IfExp, ast.comprehension)):
        for test in node.ifs if isinstance(node, ast.comprehension) else [node.test]:
            yield "negate test", (test, ast.UnaryOp(ast.Not(), test))


def mutants(source: str, functions: list) -> list:
    """(line, name, mutated source) for every mutant inside the named functions, in source order.

    A mutant's name is its change, its column in the stripped source line and
    that line, so that it stays the same when other lines move; a name met
    again in the same functions (a repeated line) is numbered from #2."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line.encode()))
    data = source.encode()
    found = {}
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        found.update((prefix + f.name, f) for f in methods if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
    missing = [f for f in functions if f not in found]
    if missing:
        raise SystemExit(f"mutate: no function {missing[0]!r} in the module")
    out, seen = [], collections.Counter()
    for func in functions:
        body = found[func].body
        doc = body[0] if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) else None
        for stmt in body:
            if stmt is doc:
                continue
            for node in ast.walk(stmt):
                for desc, new in _variants(node):
                    target, new = new if isinstance(new, tuple) else (node, new)
                    lo = starts[target.lineno - 1] + target.col_offset
                    hi = starts[target.end_lineno - 1] + target.end_col_offset
                    text = data[:lo] + f"({ast.unparse(new)})".encode() + data[hi:]
                    line = lines[target.lineno - 1]
                    col = target.col_offset - (len(line) - len(line.lstrip()))
                    name = f"{desc} at {col} in `{line.strip()}`"
                    seen[name] += 1
                    out.append((target.lineno, name + (f" #{seen[name]}" if seen[name] > 1 else ""), text.decode()))
    return sorted(out, key=lambda m: m[0])


def _run(copy: str, args: list, timeout: float) -> str:
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return "survived"
    if done.returncode in (1, 2):  # tests failed, or the mutant did not import
        return "killed"
    raise SystemExit(f"mutate: pytest exit {done.returncode}\n{done.stdout.decode()[-2000:]}")


def run_kernel(name: str) -> dict:
    module, functions, args, _ = KERNELS[name]
    workers = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="weylkit-mutate-") as root:
        copies = queue.SimpleQueue()  # the copies no worker is using
        for i in range(workers):
            copy = os.path.join(root, str(i))
            for part in ("src", "tests"):
                shutil.copytree(os.path.join(REPO, part), os.path.join(copy, part),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))  # fmt: skip
            copies.put(copy)
        with open(os.path.join(REPO, "src", module), encoding="utf-8") as fh:
            source = fh.read()
        start = time.perf_counter()
        if _run(os.path.join(root, "0"), args, timeout=3600) != "survived":
            raise SystemExit(f"mutate: the tests of {name} fail on the unmutated code")
        limit = TIMEOUT_FACTOR * (time.perf_counter() - start) + 10

        def run(text: str) -> str:
            copy = copies.get()
            try:
                with open(os.path.join(copy, "src", module), "w", encoding="utf-8") as fh:
                    fh.write(text)
                return _run(copy, args, limit)
            finally:
                copies.put(copy)

        tally = {"killed": [], "survived": [], "timeout": []}
        found = mutants(source, functions)
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            for (line, mutant, _), result in zip(found, pool.map(run, [text for _, _, text in found])):
                tally[result].append(mutant)
                print(f"{name}: L{line} {mutant}: {result}", flush=True)
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kernels", nargs="*", help="kernel names from the table (default: all)")
    parser.add_argument("--check", action="store_true", help="exit 1 on an unlisted survivor or a timeout")
    parser.add_argument("--list", action="store_true", help="list the kernels and their mutant counts")
    opts = parser.parse_args(argv)
    names = opts.kernels or list(KERNELS)
    unknown = [k for k in names if k not in KERNELS]
    if unknown:
        parser.error(f"unknown kernel {unknown[0]!r}; known: {', '.join(KERNELS)}")
    if opts.list:
        for name in names:
            module, functions = KERNELS[name][:2]
            with open(os.path.join(REPO, "src", module), encoding="utf-8") as fh:
                count = len(mutants(fh.read(), functions))
            print(f"{name}: {module} {', '.join(functions)}: {count} mutants")
        return 0
    bad = []
    for name in names:
        tally, known = run_kernel(name), KERNELS[name][3]
        new = [m for m in tally["survived"] if m not in known]
        killed, survived, timeout = (len(tally[k]) for k in ("killed", "survived", "timeout"))
        print(f"{name}: {killed} killed, {survived} survived, {timeout} timed out")
        for m in tally["survived"]:
            print(f"  survivor {m}" + ("" if m in new else " (known)"))
        bad += [f"{name}: {m}" for m in new + tally["timeout"]]
    if opts.check and bad:
        print("new survivors or timeouts:\n  " + "\n  ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
