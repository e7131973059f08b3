"""No module in src/gmexp or tests imports a name it never uses, no
function in src/gmexp imports anything (outside one allowlisted cycle), no
top-level definition in src/gmexp is dead, and importing gmexp leaves the
operator calculus unloaded."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "gmexp").glob("*.py"))

# module.name -> why it stays although nothing in src/gmexp reads it
KEPT = {
    "operators.check_commutation": "acceptance criterion 5 checks the paper's "
    "displayed commutation relations through it",
}


def exported(tree: ast.Module) -> set[str]:
    """The names an __all__ assignment of the module lists."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for name in ast.literal_eval(node.value)
    }


def unused_imports(path: Path) -> list[str]:
    imported, used = {}, set()  # bound name -> line; names read
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    used |= exported(tree)  # re-exported names count as used
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = SRC + sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in paths for u in unused_imports(p)] == []


# module.function -> why it imports inside its body
LOCAL_IMPORTS = {
    "engine.exponent_test": "the per-degree route lives in gmexp.arrangements, "
    "which imports gmexp.engine: importing it at call time breaks the cycle",
}


def local_imports() -> list[str]:
    """Imports inside a function body of src/gmexp, as module.function:line."""
    out = []
    for path in SRC:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += [f"{path.stem}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                        if isinstance(node, (ast.Import, ast.ImportFrom))]
    return out


def test_no_function_local_imports():
    assert [f for f in local_imports() if f.partition(":")[0] not in LOCAL_IMPORTS] == []


def top_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def references(node: ast.AST) -> set[str]:
    """Names node reads, as bare names, attributes or imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def dead_definitions() -> list[str]:
    """Top-level names of src/gmexp that no other top-level statement there
    reads and no __all__ exports; a definition reading itself does not count."""
    defined, referenced = [], set()
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        referenced |= exported(tree)
        for node in tree.body:
            names = top_level_names(node)
            defined += [(path.stem, name, node.lineno) for name in names]
            referenced |= references(node) - set(names)
    return [f"src/gmexp/{mod}.py:{line} {name}" for mod, name, line in defined
            if name not in referenced and not name.startswith("__")
            and f"{mod}.{name}" not in KEPT]


def test_no_dead_definitions():
    assert dead_definitions() == []


def test_import_leaves_the_operator_calculus_unloaded():
    # the verdict path (engine, arrangements' per-degree route) needs no
    # operator tree; only the CLI's operator-check and the tests load them
    code = "import sys, gmexp; print('gmexp.operators' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT / "src").stdout
    assert out.strip() == "False"
