"""Correctness checks in the library raise explicitly instead of asserting,
so ``python -O``, which strips ``assert`` statements, cannot turn a failed
check into a wrong number."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# A one-key stub space on the strut with bead x1.  Swapping its legs gives
# the strut with bead x1^-1, a key outside the stub's span, so S_2 does not
# act on the space and the coinvariant dimension must not come out as a number.
STUB = """
import types
from beadiag import bridge
strut_x1 = (2, 0, ((0, 1, ((1, 1),)),))
space = types.SimpleNamespace(d=1, dimension=1, span=(strut_x1,), free_keys=(strut_x1,),
                              reduce=dict)
try:
    print(bridge.coinvariant_dim(space, 2, 1))
except ValueError as exc:
    print("raised:", exc)
"""


def test_swap_out_of_the_span_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-O", "-c", STUB], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised:") and "leaves the span" in done.stdout, done.stdout


def test_library_has_no_assert_statements():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted((SRC / "beadiag").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
