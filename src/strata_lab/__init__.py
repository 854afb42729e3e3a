"""Exact workbench for boundary-strata homology of moduli of stable rational curves."""

__version__ = "0.1.0"

from .characters import Character, cycle_type_key, partitions_of, representative  # noqa: F401
from .conjecture import betti_formula, q_dim_formula  # noqa: F401
from .homology import (  # noqa: F401
    betti,
    character_graded,
    character_homology,
    class_equal,
    graded_class_equal,
    graded_dims,
    inner_graded_dims,
)
from .psets import (  # noqa: F401
    PairLabel,
    cardinality_p1,
    cardinality_p2,
    character_pset,
    enumerate_p1,
    enumerate_p2,
    inner_level,
)
from .relations import relations_jsonl  # noqa: F401
from .trees import (  # noqa: F401
    DomainError,
    MarkedTree,
    apply_permutation,
    canonical_form,
    decompose_two_vertex,
    enumerate_strata,
    filtration_level,
    forget_mark,
)
from .wtilde import (  # noqa: F401
    RewriteMove,
    apply_move,
    rewrite_to_standard,
    standard_tree,
    verify_forgetful_square,
    verify_relations_killed,
    w_map,
)
