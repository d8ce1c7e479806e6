"""Source-layout rules that no other test exercises."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wreathq"


def _private_imports(path: pathlib.Path) -> list[str]:
    """``from .x import _name`` (or ``from wreathq.x import _name``) lines of one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "wreathq"
        for alias in node.names:
            if internal and alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {alias.name}")
    return found


def test_no_private_cross_module_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = [line for path in files for line in _private_imports(path)]
    assert offenders == []


def test_the_guard_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .linalg import Mat, _mat\nfrom wreathq.io import _int\n"
                     "from .errors import FormatError\n")
    assert _private_imports(probe) == ["probe.py:1: _mat", "probe.py:2: _int"]
