"""Secret key agreement toolkit for tree sources with a linear eavesdropper.

Computes wiretap secret key capacity and minimum omniscience leakage,
synthesises optimal linear non-interactive communication schemes, verifies
them by exact rank accounting, simulates the protocols, and cross-checks
everything against brute-force information-theoretic oracles.
"""

from .gfield import ExtFieldCtx, FieldElem, make_ext_field
from .falinalg import FMatrix
from .model import (
    EdgeSpec,
    InstanceError,
    NodeView,
    TreePinSource,
    Wiretapper,
    load_instance,
    random_instance,
    save_instance,
)
from .capacity import CapacityReport, capacity_report
from .reduce import (
    ReductionError,
    ReductionStep,
    ReductionTrace,
    is_irreducible,
    reduce_full,
)
from .scheme import (
    CommScheme,
    KeyExtractor,
    SchemeError,
    choose_extension_degree,
    load_scheme,
    sample_alignment_certificate,
    save_scheme,
    synth_explicit_unit,
    synth_random,
)
from .verify import (
    VerifyReport,
    leakage_symbol_dims,
    verify_scheme,
)
from .simulate import SimReport, SimulationError, run_protocol
from .oracle import (
    BudgetError,
    McfExhaustive,
    cond_mutual_info_exhaustive,
    entropy_exhaustive,
    mcf_exhaustive,
)

__version__ = "0.1.0"

__all__ = [
    "ExtFieldCtx",
    "FieldElem",
    "make_ext_field",
    "FMatrix",
    "EdgeSpec",
    "InstanceError",
    "NodeView",
    "TreePinSource",
    "Wiretapper",
    "load_instance",
    "random_instance",
    "save_instance",
    "CapacityReport",
    "capacity_report",
    "ReductionError",
    "ReductionStep",
    "ReductionTrace",
    "is_irreducible",
    "reduce_full",
    "CommScheme",
    "KeyExtractor",
    "SchemeError",
    "choose_extension_degree",
    "load_scheme",
    "sample_alignment_certificate",
    "save_scheme",
    "synth_explicit_unit",
    "synth_random",
    "VerifyReport",
    "leakage_symbol_dims",
    "verify_scheme",
    "SimReport",
    "SimulationError",
    "run_protocol",
    "BudgetError",
    "McfExhaustive",
    "cond_mutual_info_exhaustive",
    "entropy_exhaustive",
    "mcf_exhaustive",
    "__version__",
]
