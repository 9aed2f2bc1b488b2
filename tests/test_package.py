"""The package's public surface: the paper's objects and operations, and no dead imports."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import negcurve

PUBLIC = {
    "ConsistencyError", "RingElem", "RingParams", "invert_unit", "sector_split", "truncate",
    "TwistedSection", "cone_check", "h0_basis", "h0_dim", "h1_dim",
    "ExtClass", "Mat2", "ModuliParams", "basis_W", "reduce_cocycle", "restrict_level",
    "CocyclePair", "GroupElem", "act", "cocycle_matrices", "induced_inverse",
    "induced_product", "sample_ext_class", "sample_group_elem", "verify_groupoid",
    "HomProfile", "brute_force_hom", "hom_ext_dims", "isom_decide",
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 30
    assert len(negcurve.__all__) == len(PUBLIC)
    assert set(negcurve.__all__) == PUBLIC
    for name in negcurve.__all__:
        assert getattr(negcurve, name) is not None


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from negcurve import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def unused_imports(path: Path) -> list[str]:
    """Names a module imports (``from __future__`` aside) but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # negcurve/__init__.py is left out: its imports are the re-exports.
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in sorted((root / "src" / "negcurve").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    assert [name for path in paths for name in unused_imports(path)] == []


def definitions(path: Path) -> dict[str, int]:
    """The functions, methods and classes a module defines, at any depth, with their lines."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, kinds)}


def referenced_names(path: Path) -> set[str]:
    """Every name a module reads, attribute it touches, or string constant it holds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def uncalled_shared_class_methods(sources: list[Path], callers: list[Path]) -> list[str]:
    """The classmethods and staticmethods whose name two classes define,
    called neither as ``<Class>.<name>`` in ``callers`` nor as ``cls.<name>``
    inside their own class."""
    classes = [(path, node) for path in sources for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    methods = [(path, cls, item) for path, cls in classes for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owners = Counter(item.name for _, _, item in methods)
    called = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
                owner = node.value.id if isinstance(node.value, ast.Name) else node.value.attr
                called.add((owner, node.attr))
    uncalled = []
    for path, cls, item in methods:
        decorators = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
        if owners[item.name] < 2 or not decorators & {"classmethod", "staticmethod"}:
            continue
        own = {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "cls"}
        if (cls.name, item.name) not in called and item.name not in own:
            uncalled.append(f"{path.name}:{item.lineno} {cls.name}.{item.name}")
    return uncalled


def test_every_definition_has_a_caller():
    """No API that nothing calls: each definition in src is referenced in src or perfbench.

    The check works by name, not by binding: a definition counts as called
    when its bare name appears anywhere in ``src/negcurve`` or ``perfbench``
    as a ``Name``, an ``Attribute`` or a whole string constant.  String
    constants count because the benchmark tracer patches functions and
    methods by name.  Two definitions sharing a name would cover each
    other, so a classmethod or staticmethod whose name two classes define
    counts as called only through its class: ``<Class>.<name>``, or
    ``cls.<name>`` inside the class.  Dunders, which the language calls,
    and the names of ``negcurve.__all__`` are exempt; tests are not callers.
    """
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "negcurve").glob("*.py"))
    callers = sources + sorted((root / "perfbench").glob("*.py"))
    referenced = set().union(*(referenced_names(path) for path in callers))
    exempt = set(negcurve.__all__)
    uncalled = [f"{path.name}:{line} {name}" for path in sources
                for name, line in definitions(path).items()
                if name not in referenced and name not in exempt
                and not (name.startswith("__") and name.endswith("__"))]
    assert uncalled + uncalled_shared_class_methods(sources, callers) == []


def references(path: Path) -> set[str]:
    """Every name a module reads, attribute it touches, or name it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    """No public API that nothing calls: each name of ``negcurve.__all__``
    is referenced in ``src/negcurve`` outside ``__init__.py``, or in
    ``perfbench``, as a ``Name``, an ``Attribute`` or an import.  String
    constants do not count, and tests are not callers."""
    root = Path(__file__).resolve().parent.parent
    src = [path for path in sorted((root / "src" / "negcurve").glob("*.py"))
           if path.name != "__init__.py"]
    callers = src + sorted((root / "perfbench").glob("*.py"))
    referenced = set().union(*(references(path) for path in callers))
    assert [name for name in negcurve.__all__ if name not in referenced] == []


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    path = [str(Path(negcurve.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(sorted(sys.modules))"],
                          capture_output=True, text=True, env=env, check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_neither_dataclasses_nor_inspect():
    # Against a bare interpreter, so that what ``site`` loads on a given machine does not count.
    added = loaded_modules("import negcurve, negcurve.cli") - loaded_modules("pass")
    assert "negcurve.cli" in added
    assert not added & {"dataclasses", "inspect"}
