"""The package stays stdlib-only: every import in ``src/beadiag``, the
function-local ones too, names ``beadiag``, a relative module or a module of
the standard library."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "beadiag").glob("*.py"))


def imported_modules(path):
    """(line, top-level module) of each import of a source file; None for a
    relative one."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_beadiag_or_stdlib(path):
    allowed = sys.stdlib_module_names | {"beadiag", None}
    outside = [(line, name) for line, name in imported_modules(path) if name not in allowed]
    assert not outside, outside


def test_every_source_is_checked():
    assert len(SOURCES) > 10
    assert any(name is None for path in SOURCES for _line, name in imported_modules(path))
