import ast
import pathlib
import types

import pytest

import qltc
from qltc import zoo
from qltc.attacks import SoundnessProfile
from qltc.pauli import PauliOp
from qltc.stabilizer import StabilizerCode

# names only tests reach: they live in tests/helpers.py, not in the library
MOVED = (
    "string_error",
    "random_regular_bipartite",
    "regular_circulant_matrix",
    "ClassicalParityCode",
    "classical_soundness_check",
    "inverse",
    "power",
    "restrict",
    "commutes_with",
    "symplectic_product",
    "r_at_coset_weight",
)
# deleted outright: its callers read code.penalty(e) > 0
DELETED = ("is_error",)


def test_all_lists_importable_api_and_no_submodules():
    namespace = {}
    exec("from qltc import *", namespace)
    for name in qltc.__all__:
        assert namespace[name] is getattr(qltc, name)
        assert not isinstance(getattr(qltc, name), types.ModuleType), name
    assert len(set(qltc.__all__)) == len(qltc.__all__)


def _defined_names(path: pathlib.Path) -> list[str]:
    """Every function and class defined in the file, at any depth."""
    tree = ast.parse(path.read_text())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.walk(tree) if isinstance(node, kinds)]


@pytest.mark.parametrize("name", MOVED + DELETED)
def test_test_only_names_are_not_in_the_library(name):
    for owner in (qltc, zoo, PauliOp, StabilizerCode, SoundnessProfile):
        assert not hasattr(owner, name), (owner, name)
    assert name not in qltc.__all__
    src = pathlib.Path(qltc.__file__).parent
    in_src = [p.name for p in sorted(src.glob("*.py")) if name in _defined_names(p)]
    assert in_src == [], in_src
    helpers = _defined_names(pathlib.Path(__file__).parent / "helpers.py")
    assert helpers.count(name) == (name in MOVED)


def test_refusal_is_defined_once_and_its_old_forms_nowhere():
    src = pathlib.Path(qltc.__file__).parent
    defined = {p.name: _defined_names(p) for p in sorted(src.glob("*.py"))}
    assert [name for name, names in defined.items() if "Refusal" in names] == ["graphs.py"]
    assert sum(names.count("Refusal") for names in defined.values()) == 1
    for gone in ("SizeCapError", "_expander_bound"):
        assert not any(gone in names for names in defined.values()), gone
    assert qltc.Refusal is qltc.attacks.Refusal is qltc.dense.Refusal
    assert issubclass(qltc.NotAnErrorError, qltc.Refusal)
