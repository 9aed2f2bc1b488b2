"""The package's public surface: the paper's objects and operations, and no dead imports."""

import ast
from pathlib import Path

import negcurve

PUBLIC = {
    "ConsistencyError", "RingElem", "RingParams", "invert_unit", "plus_part", "sector_split",
    "truncate",
    "TwistedSection", "cone_check", "h0_basis", "h0_dim", "h1_dim",
    "ExtClass", "Mat2", "ModuliParams", "basis_W", "reduce_cocycle", "restrict_level",
    "CocyclePair", "GroupElem", "act", "cocycle_matrices", "induced_inverse",
    "induced_product", "sample_ext_class", "sample_group_elem", "verify_groupoid",
    "HomProfile", "brute_force_hom", "hom_ext_dims", "isom_decide", "obstruction",
    "witness_condition",
}


def test_all_is_exactly_the_public_names():
    assert len(PUBLIC) == 33
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
