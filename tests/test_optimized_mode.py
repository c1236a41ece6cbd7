"""Checks that must hold under ``python -O``, which strips assert statements:
the bounded-completion certificate and the explicit invariant checks, and
no assert statement in the library at all; and a library that imports
nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SCRIPT = """
import sys
from fractions import Fraction

from univhopf import lio
from univhopf.errors import InputError
from univhopf.finmonoid import monoid_from_rows
from univhopf.hopf import FinDimHopf, group_algebra_hopf
from univhopf.ncalg import AlgebraPresentation, NCPoly, complete_rules_up_to, ideal_member_up_to
from helpers import thin_chain_category

assert False, "asserts are stripped"

a, b, one = NCPoly.gen(0), NCPoly.gen(1), NCPoly.one()
pres = AlgebraPresentation(2, ("a", "b"), (a * a * b - a, a * b * b - one))
system = complete_rules_up_to(pres, 3)
verdict = ideal_member_up_to(a * b - a, system)
print("certain", system.confluent_up_to, verdict.certain)

h = group_algebra_hopf(monoid_from_rows([[0, 1], [1, 0]], 0))
delta = (h.delta[0], {(-1, -1): Fraction(1)})
try:
    FinDimHopf(h.dim, h.mult, h.unit, delta, h.counit, h.antipode)
except InputError as exc:
    print("InputError", exc)

# the lifted object's absolute value is recomputed: make that second call fail
real, calls = lio.absolute_value, []

def second_call_fails(x, obj):
    calls.append(obj)
    return real(x, obj) if len(calls) == 1 else None

lio.absolute_value = second_call_fails
try:
    lio.universal_object_of(lio.identity_functor(thin_chain_category(3)), 1)
except RuntimeError as exc:
    print("RuntimeError", exc)
"""


def test_checks_raise_typed_errors_under_python_O():
    env_path = [str(HERE.parent / "src"), str(HERE)]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", f"import sys; sys.path[:0] = {env_path!r}\n" + SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "certain False False",
        "InputError comultiplication index out of range",
        "RuntimeError lifted object's absolute value does not agree up to isomorphism",
    ]


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((HERE.parent / "src" / "univhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert statements vanish under python -O: " + ", ".join(found)


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted((HERE.parent / "src" / "univhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, "the runtime is stdlib-only: " + ", ".join(found)
