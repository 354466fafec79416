"""Linear extension diameters of downset lattices of two-dimensional posets.

The package computes led(D_P) in polynomial time via the antichain-pair
decomposition, constructs the diametral pair of lattice extensions from a
realizer, and ships a brute-force oracle to verify both at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    ContractViolation,
    CycleDetected,
    EqualSets,
    IndexOutOfRange,
    MismatchedGroundSets,
    NotADownset,
    NotALinearExtension,
    NotAnAntichain,
    NotTwoDimensional,
    PosetFormatError,
    PosetkitError,
    SeparatingExtension,
)
from .poset import (
    DEFAULT_CAP,
    DownsetLattice,
    Poset,
    all_downsets,
    antichain_poset,
    chain,
    chain_union,
    chevron,
    components,
    cover_pairs,
    downset_lattice,
    downset_of,
    enumerate_antichains,
    format_poset,
    incomparable_pairs,
    induced,
    load_poset,
    max_of,
    maxima_of_downset,
    min_of,
    parse_poset,
    poset_from_relations,
)
from .realizer import (
    Realizer2D,
    is_linear_extension,
    is_non_separating,
    is_two_dimensional,
    realizer,
    transitive_orientation,
)
from .revlex import (
    LatticeExtension,
    build_revlex_extension,
    diametral_pair,
    dominance_coordinates,
    reversal_distance,
    revlex_less,
)
from .led import (
    AntichainCountTable,
    LedBreakdown,
    SizeVector,
    count_antichains,
    delta1,
    delta2,
    gamma,
    led_boolean,
    led_chain_union,
    led_downset,
    led_upper_bound,
    restricted_subposets,
    size_vectors,
)
from .oracle import (
    CriticalPair,
    EquivalenceClass,
    all_linear_extensions,
    brute_led_downset,
    class_reversals,
    critical_pairs,
    enumerate_classes,
    is_diametrally_reversing,
    kleitman_families,
    le_graph_diameter,
)
from .svg import dominance_svg

# every public name the imports above bind; the submodules drop out, except
# realizer, which the import rebinds to the function of that name
__all__ = sorted(k for k, v in globals().items()
                 if not k.startswith("_") and type(v) is not type(errors))
