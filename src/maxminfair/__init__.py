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
from .configlp import compute_T_star
from .matching import complete_allocation, find_perfect_matching
from .certificates import (
    DualCertificate,
    check_blocker_balances,
    construct_dual_certificate,
    verify_certificate_feasibility,
)
from .oracle import verify_allocation
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
    "compute_T_star",
    "find_perfect_matching",
    "complete_allocation",
    "DualCertificate",
    "construct_dual_certificate",
    "verify_certificate_feasibility",
    "check_blocker_balances",
    "verify_allocation",
    "generate_instance",
]
