"""Every module-level import of the package and of its tests is used.

Each module under src/ and tests/ is parsed with ast; a name bound by a
module-level import must occur as a name somewhere in the module (an
attribute chain counts by its first name).  An import that is kept on
purpose, such as a re-export, carries `# noqa: F401` on its own line or
on the first line of its statement.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def _imports(tree):
    """The import statements of the module outside its functions and
    classes, also those under a module-level if or try."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(path):
    """The (line, name) of every name a module-level import of the file
    binds and the module never uses."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if NOQA in lines[alias.lineno - 1] or NOQA in lines[node.lineno - 1]:
                continue
            if name not in used:
                out.append((alias.lineno, name))
    return out


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(modules) > 20
    unused = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
              for p in modules for line, name in unused_imports(p)]
    assert unused == []
