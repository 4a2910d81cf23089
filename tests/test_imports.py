"""The package's import graph: every sibling import sits at module level,
and the root exports only the names of the README example and the CLI,
and that example runs as printed.

A sibling imported inside a function body hides an import cycle; at module
level the cycle fails at import time instead.
"""

import ast
import re
from pathlib import Path

import numpy as np

import signorini_fem
from signorini_fem.norms import RATE_KEYS

PACKAGE = Path(signorini_fem.__file__).parent


def sibling_imports_in_functions(source: str) -> list[str]:
    """'function:line' of every import of the package inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                sibling = node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name
            elif isinstance(node, ast.Import):
                sibling = any(alias.name.split(".")[0] == PACKAGE.name for alias in node.names)
            else:
                continue
            if sibling:
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_the_check_sees_a_deferred_sibling_import():
    source = "import numpy\n\ndef f():\n    import scipy\n    from .steklov import GridPoisson\n"
    assert sibling_imports_in_functions(source) == ["f:5"]
    assert sibling_imports_in_functions("class C:\n    def m(self):\n        import signorini_fem.mesh\n") == ["m:3"]


def test_the_package_root_exports_what_readme_and_cli_use():
    assert sorted(signorini_fem.__all__) == [
        "ExactSolution",
        "SolverError",
        "StudyConfig",
        "StudyError",
        "build_system",
        "config_from_file",
        "error_report",
        "mesh_at_level",
        "run_study",
        "solve_vi",
        "trace_map",
    ]
    assert all(hasattr(signorini_fem, name) for name in signorini_fem.__all__)


def test_no_module_imports_a_sibling_inside_a_function():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    deferred = {
        path.name: found
        for path in modules
        if (found := sibling_imports_in_functions(path.read_text(encoding="utf-8")))
    }
    assert deferred == {}


def test_the_readme_library_example_runs_and_its_claim_holds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    assert list(names["errors"]) == list(RATE_KEYS)
    # "Dirichlet-to-Neumann: vi.multiplier.values"
    lam, expected = names["lam"], names["vi"].multiplier.values
    assert np.abs(lam - expected).max() <= 1e-12 * np.abs(expected).max()
    hat = names["hat"]
    assert hat.shape == names["tmap"].x.shape and hat[0] == hat[-1] == 0.0
    assert np.array_equal(hat[1:-1], lam)
