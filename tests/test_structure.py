"""Module boundaries: no edgesplit module imports another module's private names."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edgesplit"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_cross_module_private_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("edgesplit")):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name} from "
                          f"{'.' * node.level}{node.module or ''}"
                          for alias in node.names if _is_private(alias.name)]
    assert not offenders, offenders
