"""Stabilizer codes over prime qudits and their local-testability limits.

Construct k-local stabilizer codes, measure soundness R(delta) and
relative soundness r(delta), and run adversarial error constructions
that witness upper bounds on testability (expander, alphabet-majority
and random-island attacks), with a dense Hilbert-space oracle for small
instances.
"""

from .fieldmath import CodeValidationError, InputError
from .pauli import PauliOp
from .stabilizer import (
    BoundedWeight,
    IrregularDegreeError,
    NonAbelianError,
    NonUniformLocalityError,
    PhaseObstructionError,
    StabilizerCode,
    TrivialQuditError,
    build_code,
)
from .graphs import BipartiteGraph, ExpansionStats, Refusal
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
    css_code,
    css_hypergraph_product,
    steane_code,
    toric_code,
)
from . import dense

__all__ = [
    "AttackReport",
    "BipartiteGraph",
    "BoundedWeight",
    "CodeValidationError",
    "ExpansionStats",
    "InputError",
    "IrregularDegreeError",
    "IslandTrialStats",
    "NonAbelianError",
    "NonUniformLocalityError",
    "NotAnErrorError",
    "PauliOp",
    "PhaseObstructionError",
    "Refusal",
    "SoundnessProfile",
    "StabilizerCode",
    "TrivialQuditError",
    "alphabet_alpha",
    "alphabet_attack",
    "alphabet_t",
    "build_code",
    "css_code",
    "css_hypergraph_product",
    "evaluate_r",
    "expander_attack",
    "island_attack",
    "refined_expander_attack",
    "soundness_profile",
    "steane_code",
    "toric_code",
]
__version__ = "0.1.0"
