"""Correctness checks in the library raise explicitly instead of asserting,
so ``python -O``, which strips ``assert`` statements, cannot turn a failed
check into a wrong number."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# A one-key space on the strut with bead x1 and no relations.  Swapping its
# legs gives the strut with bead x1^-1, a key outside the span, so S_2 does
# not act on the space and the coinvariant dimension must not come out as a
# number: the library's own span check has to raise.
STUB = """
from beadiag import bridge
from beadiag.jspaces import JSpace
from beadiag.linalg import echelonize
from beadiag.words import alphabet_from_spec
strut_x1 = (2, 0, ((0, 1, ((1, 1),)),))
space = JSpace(d=1, m=2, alphabet=alphabet_from_spec("gen:1:1"), span=(strut_x1,),
               relations=echelonize([]))
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
