"""Every module-level constant and private function of bernmix is read.

An AST scan of every module under src/bernmix: each name a module binds
at its top level by assignment must be listed in that module's __all__
or be read (a loaded name or an attribute) somewhere in the package.  A
constant that nothing reads documents a limit the code no longer keeps.
Each top-level private function (_name) must be read somewhere in the
package outside its own body: a helper nothing calls is dead code left
behind by the caller it served.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module_constants(tree):
    """(name, line) of each plain name bound by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_constant_is_read_or_exported():
    trees = {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "bernmix").rglob("*.py"))
    }
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [
        (path, name, line)
        for path, tree in trees.items()
        for name, line in _module_constants(tree)
        if name not in read and name not in _exported(tree)
    ]
    assert unread == []


def test_every_private_function_is_referenced_elsewhere():
    defs, read = [], set()
    for path in sorted((ROOT / "src" / "bernmix").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            names = set(_reads(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(node.name)  # a call of itself does not count
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((path.relative_to(ROOT).as_posix(), node.name, node.lineno))
            read |= names
    assert defs
    assert [d for d in defs if d[1] not in read] == []
