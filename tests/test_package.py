import ast
import pathlib
import types

import numpy as np
import pytest

import qltc
import qltc.cli
from qltc import zoo
from qltc.attacks import SoundnessProfile
from qltc.fieldmath import RowSpace, Sites
from qltc.graphs import BipartiteGraph
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
    "group_contains",
    "GroupMembership",
    "coefficients",
    "connected_sets",
    "densify",
    "identity",
    "product_phase",
    "left_kernel",
    "kernel",
)
# deleted outright: is_error's callers read code.penalty(e) > 0, the RowSpace
# matrix _pivot_combinations was read by coefficients alone, the set-at-a-time
# _connected_sets is the test helper connected_sets (the witness walks the level
# scan's _children), gamma(vertices, side, i) took over gamma_iter and _adj, and
# contains_batch took over RowSpace.contains
DELETED = ("is_error", "_pivot_combinations", "_connected_sets", "gamma_iter", "_adj",
           "contains")


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
    rowspace = RowSpace(Sites.of(np.array([[1, 1, 0, 0], [0, 0, 1, 1]])), 2)  # XX, ZZ
    owners = (qltc, zoo, PauliOp, StabilizerCode, SoundnessProfile, RowSpace, rowspace,
              BipartiteGraph)
    for owner in owners:
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


def test_bad_input_types_are_defined_once_and_the_cli_catches_no_value_error():
    src = pathlib.Path(qltc.__file__).parent
    defined = {p.name: _defined_names(p) for p in sorted(src.glob("*.py"))}
    for name in ("InputError", "CodeValidationError"):
        assert [f for f, names in defined.items() if name in names] == ["fieldmath.py"], name
        assert sum(names.count(name) for names in defined.values()) == 1, name
    assert qltc.InputError is qltc.cli.InputError is qltc.fieldmath.InputError
    assert qltc.CodeValidationError is qltc.stabilizer.CodeValidationError
    assert issubclass(qltc.CodeValidationError, (qltc.InputError, ValueError))
    # argparse turns a ValueError from a flag's type function into its usage error
    assert not issubclass(qltc.InputError, ValueError)
    tree = ast.parse((src / "cli.py").read_text())
    # what an except clause or a _bad_input block turns into exit 1 or passes on
    caught = [h.type for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type]
    caught += [c.args[0] for c in ast.walk(tree) if isinstance(c, ast.Call)
               and isinstance(c.func, ast.Name) and c.func.id == "_bad_input"]
    names = {n.id for t in caught for n in ast.walk(t) if isinstance(n, ast.Name)}
    names |= {n.attr for t in caught for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    assert not names & {"ValueError", "KeyError"}, names
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handled = [ast.unparse(h.type) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert handled.count("InputError") == 1 and "OSError" not in handled, handled
    assert "CodeValidationError" not in handled, handled


def test_the_phase_obstruction_needs_no_left_kernel_in_the_library():
    # the elimination carries each row's phase: no left kernel is formed, and the
    # phase of a product of generators is computed only by the test oracle
    src = pathlib.Path(qltc.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            words = {getattr(node, key, None) for key in ("id", "attr", "name", "arg")}
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                words |= set(node.value.replace("`", " ").split())
            assert not words & {"product_phase", "left_kernel"}, (path.name, words)
