"""List the code in src/plucker_lab that no benchmark workload runs.

    python3 tools/traffic.py

Imports perfbench/run.py and perfbench/workloads.py, which it only
reads, and runs every workload once under a sys.settrace line tracer:
the library import, the set-up at seed 1 and its checks, then one pass
over the operations, each output checked as the benchmark checks it.
Then it prints, per module of src/plucker_lab, its line count as the
ast module reads it (the last line of its last statement), the functions
no workload enters and, inside the functions that do run, the statements
no workload executes, each with its line number and first line of text.
A last line gives the line count of the whole package.
Stdlib only; a run takes about 10 s (Python 3.11, 2 vCPU).
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plucker_lab"
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402
import workloads  # noqa: E402

COMPOUND = (ast.ExceptHandler, ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def traced(fn):
    """fn() under a line tracer; returns filename -> the set of line
    numbers executed in the package's modules."""
    prefix = str(PACKAGE)
    hits, tracers = {}, {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        if name not in tracers:
            lines = hits.setdefault(name, set())

            def on_line(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return on_line

            tracers[name] = on_line
        return tracers[name]

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return hits


def run_workloads():
    lib = bench.load_library()
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](ROOT)
        ops = workload.setup(lib, SEED)
        workload.check_setup()
        for kind, arg in ops:
            workload.check(kind, arg, workload.run(kind, arg))


def _own_lines(node):
    """The lines whose execution means node ran: a simple statement's own
    lines, or a compound statement's or definition's header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    if isinstance(node, COMPOUND + DEFS):
        return range(first, node.body[0].lineno)
    return range(first, node.end_lineno + 1)


def _is_docstring(node, index):
    return (index == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(body, prefix="", function=None):
    """(enclosing function, statement) for every statement that compiles
    to code, in source order.  The function is a dotted name such as
    Class.method, None in module and class bodies; prefix is the dotted
    name of the enclosing definition."""
    for index, node in enumerate(body):
        if _is_docstring(node, index) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        yield function, node
        inner = (prefix, function)
        if isinstance(node, DEFS):
            name = prefix + node.name
            inner = (name + ".", None if isinstance(node, ast.ClassDef) else name)
        for field in ("body", "orelse", "finalbody"):
            yield from statements(getattr(node, field, ()), *inner)
        for handler in getattr(node, "handlers", ()):
            yield function, handler
            yield from statements(handler.body, *inner)


def report(path, lines):
    """The report lines of the module at path, and its line count."""
    source = path.read_text(encoding="utf-8").splitlines()
    body = ast.parse("\n".join(source)).body
    size = max((node.end_lineno for node in body), default=0)
    funcs = {}  # function -> [entered, lines of the statements never run]
    for function, node in statements(body):
        if function is None:
            continue
        ran = any(n in lines for n in _own_lines(node))
        entry = funcs.setdefault(function, [False, []])
        entry[0] = entry[0] or ran
        if not ran:
            entry[1].append(node.lineno)
    dead = [f for f, (entered, _) in funcs.items() if not entered]
    out = ["%s: %d lines, %d of %d functions never entered"
           % (path.relative_to(ROOT), size, len(dead), len(funcs))]
    if dead:
        out.append("  never entered: " + ", ".join(dead))
    for f, (entered, missed) in funcs.items():
        if entered and missed:
            out.append("  %s, statements never run:" % f)
            out.extend("    %4d  %s" % (n, source[n - 1].strip()) for n in missed)
    return out, size


def main():
    hits = traced(run_workloads)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        out, size = report(path, hits.get(str(path), set()))
        total += size
        print("\n".join(out))
    print("%s: %d lines" % (PACKAGE.relative_to(ROOT), total))


if __name__ == "__main__":
    main()
