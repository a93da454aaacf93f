"""The two engines check each other only while neither is built from the other.

These tests read the package's import statements from its sources: the
closed form stands on ``linalg`` alone, the numeric engine on ``linalg`` and
the shared success floor, and every module takes the matrix route from
``numeric`` itself.  They also read the test suite's sources: only
``test_wrapper_api.py`` names a general-state wrapper, so the wrappers can
go with that one module.  Two rules keep the package's lazy API load whole:
no module imports a sibling as ``from . import x``, and the first read of a
name the package lacks loads every module whose functions a tracer wraps.
One rule keeps each name's home plain: every ``from .<m> import n`` and
``from gravcat_coding.<m> import n`` in the package, the tests and the
scripts names something that ``<m>`` defines at its top level, and the
package's ``_API`` table lists each exported name once, under its definer.
"""

import ast
from pathlib import Path

import pytest

import gravcat_coding as gc
from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gravcat_coding"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
TESTS = Path(__file__).resolve().parent
WRAPPER_MODULE = "test_wrapper_api.py"


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> list[tuple[str, str | None]]:
    """(package module, name) of each import of a package module in ``<module>.py``;
    ``from . import x`` and ``import gravcat_coding.x`` give (x, None)."""
    found = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                found.append((node.module, alias.name) if node.module else (alias.name, None))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            assert not any(name.startswith("gravcat_coding") for name in names), module
    return found


def defined_names(module: str) -> set[str]:
    """The functions, classes and constants that ``<module>.py`` defines at its top level."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def definer_imports(path: Path) -> list[tuple[str, str]]:
    """(package module, name) of each ``from .<module> import name`` and
    ``from gravcat_coding.<module> import name`` in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("gravcat_coding."):
            module = node.module.partition(".")[2]
        else:
            continue
        found.extend((module, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_sibling_through_the_package(module):
    # `from . import x` reads the package attribute first, which in a
    # half-loaded package runs its `__getattr__` in the middle of the load
    assert [source for source, name in package_imports(module) if name is None] == []


def test_package_read_after_the_cli_import_loads_the_whole_api():
    # the order of a traced CLI run: the CLI's import, then the package's,
    # then a submodule read from it
    probe = (
        "import sys\n"
        "import gravcat_coding.cli\n"
        "import gravcat_coding\n"
        "from gravcat_coding import thermal\n"
        "print(sorted(m.partition('.')[2] for m in sys.modules "
        "if m.startswith('gravcat_coding.')))\n"
    )
    loaded = set(ast.literal_eval(fresh_python(probe)))
    assert {"linalg", "thermal", "coding", "weak_measurement", "sweep", "verify"} <= loaded


def test_each_name_is_imported_from_the_module_that_defines_it():
    # a name read through a module that only imports it breaks when that
    # module stops needing it
    sources = [*SRC.glob("*.py"), *TESTS.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    stray = [
        (str(path.relative_to(ROOT)), module, name)
        for path in sorted(sources)
        for module, name in definer_imports(path)
        if name not in defined_names(module)
    ]
    assert stray == []


def test_api_table_lists_each_name_once_under_its_definer():
    listed = [name for names in gc._API.values() for name in names]
    assert len(listed) == len(set(listed))
    assert gc.__all__ == sorted(set(gc.__all__)) == sorted(["TOOL_NAME", "__version__", *listed])
    stray = [(module, name) for module, names in gc._API.items()
             for name in names if name not in defined_names(module)]
    assert stray == []


def test_bare_import_binds_no_api_name():
    probe = (
        "import gravcat_coding as gc\n"
        "print([n for names in gc._API.values() for n in names if n in vars(gc)])\n"
    )
    assert fresh_python(probe) == "[]\n"


def test_star_import_binds_exactly_all():
    probe = (
        "names = {}\n"
        "exec('from gravcat_coding import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}))\n"
    )
    assert ast.literal_eval(fresh_python(probe)) == sorted(gc.__all__)


def test_each_package_name_is_the_object_its_module_defines():
    probe = (
        "from importlib import import_module\n"
        "import gravcat_coding as gc\n"
        "print([(m, n) for m, names in gc._API.items() for n in names\n"
        "       if getattr(gc, n) is not getattr(import_module(f'gravcat_coding.{m}'), n)])\n"
    )
    assert fresh_python(probe) == "[]\n"


def test_closed_form_imports_only_linalg():
    assert {module for module, _ in package_imports("closed_form")} == {"linalg"}


def test_numeric_imports_only_linalg_and_the_success_floor():
    imports = package_imports("numeric")
    assert [item for item in imports if item[0] != "linalg"] == [
        ("closed_form", "MIN_SUCCESS_PROBABILITY"), ("closed_form", "check_success"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_matrix_route_is_imported_from_numeric_only(module):
    route = defined_names("numeric")
    assert {"_gibbs", "_post_select", "_twirl", "numeric_engine"} <= route
    stray = [(source, name) for source, name in package_imports(module)
             if name in route and source != "numeric"]
    assert stray == []


def test_verify_takes_the_matrix_route_from_numeric():
    imports = package_imports("verify")
    assert {"coding", "weak_measurement"}.isdisjoint(module for module, _ in imports)
    from_numeric = {name for module, name in imports if module == "numeric"}
    assert {"_hamiltonian", "_gibbs", "_post_select", "_twirl", "_entropies"} <= from_numeric


def wrapper_names() -> set[str]:
    """The ``WRAPPER_NAMES`` tuple of ``tests/test_wrapper_api.py``."""
    for node in ast.parse((TESTS / WRAPPER_MODULE).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPER_NAMES":
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"tests/{WRAPPER_MODULE} defines no WRAPPER_NAMES")


def used_names(path: Path) -> set[str]:
    """Every name, attribute, import, definition and string constant in a source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.asname or alias.name.rpartition(".")[2] for alias in node.names)
            found.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_the_wrapper_module_names_a_wrapper():
    wrappers = wrapper_names()
    assert len(wrappers) == 19  # the seventeen wrappers and two constants of one of them
    stray = [
        (path.name, name)
        for path in sorted(TESTS.glob("*.py")) if path.name != WRAPPER_MODULE
        for name in sorted(wrappers & used_names(path))
    ]
    assert stray == []
