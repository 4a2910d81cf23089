"""The package's import graph: every sibling import sits at module level,
and the root exports only the names of the README example and the CLI,
that example runs as printed, and every module or class member that the
README names exists.

A sibling imported inside a function body hides an import cycle; at module
level the cycle fails at import time instead.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import numpy as np

import signorini_fem
from signorini_fem.norms import RATE_KEYS

PACKAGE = Path(signorini_fem.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = {
    info.name: importlib.import_module(f"signorini_fem.{info.name}")
    for info in pkgutil.iter_modules(signorini_fem.__path__)
    if not info.name.startswith("_")
}
CLASSES = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__.startswith("signorini_fem.")
}


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


def members(owner) -> set[str]:
    """The names of owner's attributes, and for a class also its dataclass
    fields and the attributes its methods assign on self."""
    names = set(dir(owner))
    if isinstance(owner, type):
        names |= {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else set()
        tree = ast.parse(textwrap.dedent(inspect.getsource(owner)))
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
    return names


def readme_member_names(text: str) -> tuple[list[str], list[str]]:
    """The inline code spans outside fenced blocks that start with
    ``owner.name``, where owner is a module or class of the package, as
    'line:owner.name'; returns (those that resolve, those that do not).  A
    name resolves when it is one of the owner's ``members``."""
    prose = re.sub(r"^```.*?^```", lambda m: "\n" * m.group().count("\n"), text, flags=re.DOTALL | re.MULTILINE)
    found, missing = [], []
    for span in re.finditer(r"`([^`]*)`", prose):
        dotted = re.match(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span[1])
        owner = dotted and MODULES.get(dotted[1], CLASSES.get(dotted[1]))
        if owner is None:
            continue
        line = prose.count("\n", 0, span.start()) + 1
        (found if dotted[2] in members(owner) else missing).append(f"{line}:{dotted[0]}")
    return found, missing


def test_the_readme_check_sees_a_missing_name_outside_fences_only():
    text = (
        "`assembly.dof_partition(mesh)` and `FeSystem.grid`\n```python\nassembly.gone\n`mesh.gone`\n```\n"
        "`numpy.gone`, `GridPoisson.interior` and `GridPoisson.gone`\n"
    )
    found, missing = readme_member_names(text)
    assert found == ["1:FeSystem.grid", "6:GridPoisson.interior"]
    assert missing == ["1:assembly.dof_partition", "6:GridPoisson.gone"]


def test_every_member_the_readme_names_exists():
    found, missing = readme_member_names(README.read_text(encoding="utf-8"))
    assert missing == []
    assert len(found) >= 10


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
    readme = README.read_text(encoding="utf-8")
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
