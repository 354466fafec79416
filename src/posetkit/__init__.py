"""Linear extension diameters of downset lattices of two-dimensional posets.

The package computes led(D_P) in polynomial time via the antichain-pair
decomposition, constructs the diametral pair of lattice extensions from a
realizer, and ships a brute-force oracle to verify both at desk scale.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the one eager import: it binds realizer to the function, not the submodule
from .realizer import realizer

# every public name -> the submodule that defines it; the rest load on first
# use (PEP 562), so `import posetkit.cli` does not compile what it never calls
_HOME = {name: module for module, names in {
    "errors": "CapExceeded ContractViolation CycleDetected EqualSets IndexOutOfRange "
              "MismatchedGroundSets NotADownset NotALinearExtension NotAnAntichain "
              "NotTwoDimensional PosetFormatError PosetkitError SeparatingExtension",
    "poset": "DEFAULT_CAP DownsetLattice Poset all_downsets antichain_poset chain "
             "chain_union chevron components cover_pairs downset_lattice downset_of "
             "enumerate_antichains format_poset incomparable_pairs induced load_poset "
             "max_of maxima_of_downset min_of parse_poset poset_from_relations",
    "realizer": "Realizer2D is_linear_extension is_non_separating is_two_dimensional "
                "realizer transitive_orientation",
    "revlex": "LatticeExtension build_revlex_extension diametral_pair "
              "dominance_coordinates reversal_distance revlex_less",
    "led": "AntichainCountTable LedBreakdown SizeVector count_antichains delta1 delta2 "
           "gamma led_boolean led_chain_union led_downset led_upper_bound "
           "restricted_subposets size_vectors",
    "oracle": "CriticalPair EquivalenceClass all_linear_extensions brute_led_downset "
              "class_reversals critical_pairs enumerate_classes is_diametrally_reversing "
              "kleitman_families le_graph_diameter",
    "svg": "dominance_svg",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule itself (pk.led)."""
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _HOME.values():
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
