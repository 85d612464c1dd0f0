"""Upper bounds on one-way secret-key rates via best extendible
approximations, computed with a built-in semidefinite-program solver."""

from .basis import build_basis, expand, reconstruct
from .bounds import (BoundPoint, bound_points_to_csv, bound_points_to_json,
                     find_cutoff, one_way_upper_bound, sweep)
from .extendibility import (ExtendibilityResult, ExtensionReport,
                            best_extendible_decomposition, build_sdp, verify_extension)
from .infotheory import JointDistribution, mutual_information, shannon_entropy
from .protocols import (EquivalenceClassSpec, InconsistentDataError, ObservedData,
                        Povm, ProtocolSpec, assemble_class, class_from_state,
                        four_state_povms, load_protocol, matched_key_distribution,
                        qber, realize_protocol, simulate_observed_data, six_state_povms)
from .sdp import LmiBlock, SdpProblem, SdpSolution, SolverError, solve
from .states import (DensityOperator, bell_psi_plus, depolarized_bell,
                     partial_trace_matrix, swap_last_two)

__version__ = "0.1.0"

__all__ = [
    "BoundPoint", "DensityOperator", "EquivalenceClassSpec",
    "ExtendibilityResult", "ExtensionReport", "InconsistentDataError",
    "JointDistribution", "LmiBlock", "ObservedData", "Povm",
    "ProtocolSpec", "SdpProblem", "SdpSolution", "SolverError",
    "assemble_class", "bell_psi_plus",
    "best_extendible_decomposition", "bound_points_to_csv",
    "bound_points_to_json", "build_basis", "build_sdp",
    "class_from_state", "depolarized_bell", "expand", "find_cutoff",
    "four_state_povms", "load_protocol", "matched_key_distribution",
    "mutual_information", "one_way_upper_bound", "partial_trace_matrix",
    "qber", "realize_protocol", "reconstruct",
    "shannon_entropy", "simulate_observed_data", "six_state_povms", "solve",
    "swap_last_two", "sweep", "verify_extension",
]
