"""A mixture with known weights is evaluated by basis._bernstein_sum alone.

The (points x (m+1)) matrices of basis_matrix and cdf_matrix build the
likelihood problems and nothing else: an AST scan of every module under
src/bernmix finds them named only where they are defined (basis), where
the package re-exports them (__init__) and where the problems are built
(likelihood).  A density, CDF or cell probability that went through a
matrix again would show up here.  Both matrices read one closed-form
Binomial table, basis._binomial_table, which no other function names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATRICES = {"basis_matrix", "cdf_matrix"}


def _matrix_uses(path):
    """(kind, line) of each import of a matrix builder and each other reference to one."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and MATRICES & {alias.name for alias in node.names}:
            yield "import", node.lineno
        elif getattr(node, "id", None) in MATRICES or getattr(node, "attr", None) in MATRICES:
            yield "use", node.lineno


def test_only_the_likelihood_builds_basis_matrices():
    sources = sorted((ROOT / "src" / "bernmix").rglob("*.py"))
    uses = {path.name: list(_matrix_uses(path)) for path in sources}
    assert any(kind == "use" for kind, _ in uses["likelihood.py"])
    allowed = {"likelihood.py": {"import", "use"}, "__init__.py": {"import"}}
    offenders = {
        name: [(kind, line) for kind, line in found if kind not in allowed.get(name, set())]
        for name, found in uses.items()
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def _names_table(node):
    return any(
        getattr(sub, "id", None) == "_binomial_table"
        or getattr(sub, "attr", None) == "_binomial_table"
        or (isinstance(sub, ast.ImportFrom) and "_binomial_table" in {a.name for a in sub.names})
        for sub in ast.walk(node)
    )


def test_only_the_matrix_builders_read_the_binomial_table():
    sources = sorted((ROOT / "src" / "bernmix").rglob("*.py"))
    readers = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name == "_binomial_table":
                continue
            if _names_table(node):
                readers.add((path.name, getattr(node, "name", type(node).__name__)))
    assert readers == {("basis.py", "basis_matrix"), ("basis.py", "cdf_matrix")}
