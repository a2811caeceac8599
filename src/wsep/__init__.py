"""Weakly separated set collections, quasi-commuting quantum minors, exchange
moves on maximal collections, wiring-arrangement parametrizations, the k=3
lift/projection bijection, and Grassmannian positivity tests, with an exact
symbolic oracle for every algebraic claim."""

from .laurent import Laurent
from .subsets import (
    Dihedral,
    MinorIndex,
    diameter,
    is_boundary,
    minor_exponent,
    plucker_exponent,
    precedes,
    stieffel_subset,
    weakly_separated,
)
from .quantum import (
    NCPoly,
    normalize_word,
    plucker_realize,
    qplucker_relation_holds,
    quantum_minor,
    quasi_commutation_exponent,
    verify_embedding,
)
from .wscoll import (
    Move,
    Reduction,
    WSCollection,
    apply_move,
    base_collection,
    dihedral_orbits,
    enumerate_component,
    find_moves,
    height,
    is_maximal,
    reduce_to_base,
    translate,
    validate,
)
from .reduction import f_set, generate_w3, lift, pinch_point, project
from .wiring import (
    Chamber,
    chambers,
    is_optimal,
    is_wiring_parametrizable,
    parse_word,
    validate_word,
    word_collection,
)
from .positivity import (
    GrassmannPoint,
    positivity_test,
    propagate,
    vandermonde_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
