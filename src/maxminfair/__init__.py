"""Exact solver and verification suite for restricted max-min fair allocation.

Indivisible resources with player-independent values must be split among
players so the worst-off player gets as much as possible.  The package
computes the optimal target of the configuration LP with exact rational
arithmetic, builds an allocation guaranteeing every player 6/23 of that
target via local-search hypergraph matching, and certifies infeasibility with
verified dual prices whenever a forced target is out of reach.
"""

from .instances import (
    GUARANTEE_FRACTION,
    Instance,
    NormalizedInstance,
    bundle_value,
    format_rational,
    normalize,
    parse_rational,
    validate_instance,
)
from .configlp import (
    ClpVerdict,
    ConfigColumn,
    clp_feasible,
    compute_T_star,
    min_cost_configuration,
    subset_sum_breakpoints,
)
from .matching import (
    Blocker,
    Edge,
    Matching,
    SearchState,
    build_step,
    complete_allocation,
    contract_step,
    extend_matching,
    find_addable_edge,
    find_perfect_matching,
    is_minimal_thin_edge,
    signature,
)
from .certificates import (
    DualCertificate,
    check_blocker_balances,
    construct_dual_certificate,
    verify_certificate_feasibility,
)
from .oracle import (
    AuditReport,
    brute_force_opt,
    check_state_invariants,
    exact_T_star_enumerated,
    monitor_signatures,
    verify_allocation,
)
from .generators import generate_instance

__all__ = [
    "GUARANTEE_FRACTION",
    "Instance",
    "NormalizedInstance",
    "bundle_value",
    "format_rational",
    "normalize",
    "parse_rational",
    "validate_instance",
    "ClpVerdict",
    "ConfigColumn",
    "clp_feasible",
    "compute_T_star",
    "min_cost_configuration",
    "subset_sum_breakpoints",
    "Blocker",
    "Edge",
    "Matching",
    "SearchState",
    "build_step",
    "complete_allocation",
    "contract_step",
    "extend_matching",
    "find_addable_edge",
    "find_perfect_matching",
    "is_minimal_thin_edge",
    "signature",
    "DualCertificate",
    "check_blocker_balances",
    "construct_dual_certificate",
    "verify_certificate_feasibility",
    "AuditReport",
    "brute_force_opt",
    "check_state_invariants",
    "exact_T_star_enumerated",
    "monitor_signatures",
    "verify_allocation",
    "generate_instance",
]
