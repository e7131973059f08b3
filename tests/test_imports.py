"""No module in src/gmexp or tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    imported, used = {}, set()  # bound name -> line; names read
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "__all__"
        ]:
            used |= set(ast.literal_eval(node.value))  # re-exported names count as used
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "gmexp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in paths for u in unused_imports(p)] == []
