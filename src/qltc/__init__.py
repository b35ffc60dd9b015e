"""Stabilizer codes over prime qudits and their local-testability limits.

Construct k-local stabilizer codes, measure soundness R(delta) and
relative soundness r(delta), and run adversarial error constructions
that witness upper bounds on testability (expander, alphabet-majority
and random-island attacks), with a dense Hilbert-space oracle for small
instances.
"""

from .pauli import PauliOp
from .stabilizer import (
    BoundedWeight,
    CodeValidationError,
    GroupMembership,
    IrregularDegreeError,
    NonAbelianError,
    NonUniformLocalityError,
    PhaseObstructionError,
    StabilizerCode,
    TrivialQuditError,
    build_code,
)
from .graphs import BipartiteGraph, ExpansionStats
from .attacks import (
    AttackReport,
    IslandTrialStats,
    NotAnErrorError,
    SoundnessProfile,
    alphabet_alpha,
    alphabet_attack,
    alphabet_t,
    evaluate_r,
    expander_attack,
    island_attack,
    refined_expander_attack,
    soundness_profile,
)
from .zoo import (
    ClassicalParityCode,
    classical_soundness_check,
    css_code,
    css_hypergraph_product,
    random_regular_bipartite,
    steane_code,
    string_error,
    toric_code,
)
from . import dense

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
