"""Checks that must hold under ``python -O``, which strips assert statements:
the bounded-completion certificate and the explicit invariant checks, and
no assert statement in the library at all; a library that imports
nothing outside the standard library; no library module importing
another's private name; no process-wide memo; and one exactness gate,
``_linalg.check_exact``, behind every entry point that takes rational
data."""

import ast
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from univhopf.coact import FamilyMap, FDAlgebra, FDCoalgebra, TensorValuedMap, cosupport_of_map
from univhopf.errors import InputError
from univhopf.hopf import BialgebraPresentation, FinDimHopf, check_hopf_axioms_fd
from univhopf.ncalg import AlgebraPresentation, NCPoly
from univhopf.signature import FinVectMagma, is_linear_omega_morphism, unital_signature

from helpers import rational_line

HERE = Path(__file__).resolve().parent

SCRIPT = """
import sys
from fractions import Fraction

from univhopf import lio
from univhopf.errors import InputError
from univhopf.finmonoid import monoid_from_rows
from univhopf.hopf import FinDimHopf
from univhopf.ncalg import AlgebraPresentation, NCPoly, complete_rules_up_to, ideal_member_up_to
from helpers import group_algebra_hopf, thin_chain_category

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


def test_library_imports_no_private_name_of_another_module():
    found = []
    for path in sorted((HERE.parent / "src" / "univhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").partition(".")[0] == "univhopf":
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, "a private name is read only in its own module: " + ", ".join(found)


def test_library_keeps_no_process_wide_memo():
    # the benchmark runs the same jobs every cycle, so a functools memo
    # would time cache hits; a memo owned by an object, such as a
    # RewriteSystem's normal forms or a cached_property, goes with it
    memos = {"cache", "lru_cache"}
    found = []
    for path in sorted((HERE.parent / "src" / "univhopf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "functools" else []
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in memos]
    assert not found, "no process-wide memo: " + ", ".join(found)


def test_only_linalg_decides_what_is_exact():
    found = []
    for path in sorted((HERE.parent / "src" / "univhopf").glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and "non-exact" in str(node.value):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "exactness is decided by _linalg.check_exact: " + ", ".join(found)


def _line(c):
    """Q as a unital algebra whose product has the coefficient c."""
    tensors = {"mu": {((0,), (0, 0)): c}, "unit": {((0,), ()): 1}}
    return FinVectMagma(unital_signature(), 1, ("1",), tensors)


_UNIT_ALGEBRA = FDAlgebra(1, (((1,),),), (1,))
_GENERATOR = AlgebraPresentation(1, ("g",), ())

# each builds from the scalar c, whose exact value is 1, a comparable result
GATED = {
    "NCPoly": lambda c: NCPoly({(0,): c}),
    "NCPoly.scale": lambda c: NCPoly.gen(0).scale(c),
    "NCPoly.monomial": lambda c: NCPoly.monomial((0,), c),
    "FinVectMagma": _line,
    "TensorValuedMap": lambda c: TensorValuedMap(1, 1, 1, (((c,),),)).entries,
    "FamilyMap": lambda c: cosupport_of_map(FamilyMap(1, 1, 1, (((c,),),))),
    "FDAlgebra constants": lambda c: FDAlgebra(1, (((c,),),), (c,)).product_of([]),
    "FDAlgebra.product_of": lambda c: _UNIT_ALGEBRA.product_of([(c,), (1,)]),
    "FDCoalgebra delta": lambda c: FDCoalgebra(1, ({(0, 0): c},), (1,)).delta,
    "FDCoalgebra counit": lambda c: FDCoalgebra(1, ({(0, 0): 1},), (c,)).counit,
    "FinDimHopf": lambda c: check_hopf_axioms_fd(
        FinDimHopf(1, (((1,),),), (1,), ({(0, 0): 1},), (1,), ((c,),))
    ),
    "BialgebraPresentation": lambda c: BialgebraPresentation(
        _GENERATOR, ({((0,), (0,)): c},), (c,)
    ).delta,
    "is_linear_omega_morphism": lambda c: is_linear_omega_morphism(
        ((c,),), rational_line(), rational_line()
    ),
}


@pytest.mark.parametrize("name", GATED)
def test_every_rational_entry_point_takes_int_or_fraction_only(name):
    build = GATED[name]
    assert build(1) == build(Fraction(1))
    for inexact in (1.0, "1", Decimal(1)):
        with pytest.raises(InputError, match="^non-exact "):
            build(inexact)
