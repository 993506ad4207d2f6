"""hivekit: invariant factors over discrete valuation rings and the hive
of a lattice pair, with brute-force certification at small sizes."""

from .hive import (DualityError, Hive, HiveType, LRFilling, RhombusReport,
                   RhombusViolation, build_hive, check_rhombus,
                   hive_to_lr_filling, hive_type, render, validate_lr)
from .lattice import (Lattice, Submodule, adapted_slice,
                      greedy_slice_first_min, lattice_invariants,
                      max_direct_sum_norm, min_direct_sum_norm,
                      pair_invariant)
from .matops import (ValuedMatrix, invariant_partition, matrix_norm,
                     quotient_free_invariants, smith_decompose,
                     unimodular_check)
from .oracle import (BruteResult, BudgetExceededError, EnumerationBudget,
                     brute_max_direct_sum, brute_min_direct_sum,
                     enumerate_lr_fillings, span_fingerprint,
                     stabilized_value)
from .ring import INFINITY, RingConfig, RingElement

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "RingConfig", "RingElement",
    "ValuedMatrix", "smith_decompose",
    "invariant_partition", "matrix_norm", "unimodular_check",
    "quotient_free_invariants",
    "Lattice", "Submodule", "lattice_invariants", "pair_invariant",
    "adapted_slice", "min_direct_sum_norm",
    "max_direct_sum_norm", "greedy_slice_first_min",
    "Hive", "HiveType", "RhombusReport", "RhombusViolation", "DualityError",
    "build_hive", "check_rhombus", "hive_type", "hive_to_lr_filling",
    "LRFilling", "validate_lr", "render",
    "EnumerationBudget", "BudgetExceededError", "BruteResult",
    "brute_min_direct_sum", "brute_max_direct_sum",
    "stabilized_value", "enumerate_lr_fillings", "span_fingerprint",
]
