"""Command-line surface: generate, solve, verify, and gap experiments.

Reports go to standard output as JSON; allocations, instances and traces are
written to files given by flags.  Exit codes are a stable contract for
scripting: 0 success/allocated, 1 failed verification, 2 certified
infeasible, 3 input error, 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certificates import (
    check_blocker_balances,
    construct_dual_certificate,
    verify_certificate_feasibility,
)
from .configlp import DEFAULT_BREAKPOINT_BUDGET, compute_T_star
from .errors import (
    BudgetExceeded,
    InvalidInstance,
    MaxMinFairError,
    VerificationFailed,
)
from .generators import KINDS, generate_instance
from .instances import (
    GUARANTEE_FRACTION,
    Instance,
    bundle_value,
    format_rational,
    normalize,
    parse_rational,
    validate_instance,
)
from .matching import Matching, SearchOutcome, complete_allocation, find_perfect_matching
from .oracle import brute_force_opt, verify_allocation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

ALLOCATED = "Allocated"
CERTIFIED_INFEASIBLE = "Certified-Infeasible"


@dataclass(frozen=True)
class SolveResult:
    """One solve at a fixed target: an allocation, or a verified certificate.

    `search` is None at target 0, where no search runs.  `certificate` is the
    certificate JSON with both check reports embedded, present exactly when
    the search halted.
    """

    search: Optional[SearchOutcome]
    allocation: Optional[dict[str, set[str]]]
    values: Optional[dict[str, Fraction]]
    min_value: Optional[Fraction]
    certificate: Optional[dict] = None

    @property
    def outcome(self) -> str:
        return ALLOCATED if self.allocation is not None else CERTIFIED_INFEASIBLE

    @property
    def certified(self) -> bool:
        """Whether both checks of the certificate passed."""
        cert = self.certificate
        return (
            cert is not None
            and cert["feasibility_check"]["passed"]
            and cert["balance_check"]["passed"]
        )


def solve(instance: Instance, target: Fraction) -> SolveResult:
    """Allocate at `target`, or certify that the search cannot.

    At target 0 the leftover rule hands out every resource.  Otherwise the
    search runs on the instance normalized at `target`; a perfect matching is
    completed into an allocation, and a halted search yields a dual
    certificate whose feasibility and blocker balances are both re-checked.
    """
    target = Fraction(target)
    search = None
    matching = Matching.empty()
    if target != 0:
        ni = normalize(instance, target)
        search = find_perfect_matching(ni)
        if not search.perfect:
            cert = construct_dual_certificate(ni, search.state)
            feasibility = verify_certificate_feasibility(ni, cert)
            balances = check_blocker_balances(ni, search.state, cert)
            certificate = cert.to_json_dict()
            certificate["feasibility_check"] = feasibility.to_json_dict()
            certificate["balance_check"] = balances.to_json_dict()
            return SolveResult(search, None, None, None, certificate)
        matching = search.matching
    allocation = complete_allocation(instance, matching, target)
    values = {p: bundle_value(instance, p, allocation[p]) for p in instance.players}
    return SolveResult(search, allocation, values, min(values.values()))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_instance(path: str) -> Instance:
    return validate_instance(_load_json(path))


def _resolve_t_star(instance: Instance, delta: Fraction, budget: int):
    """Exact optimal target when the breakpoint budget allows, else a bracket."""
    try:
        t_star, _ = compute_T_star(instance, "exact", budget=budget)
        return t_star, {"mode": "exact", "value": format_rational(t_star)}
    except BudgetExceeded:
        lo, _ = compute_T_star(instance, "bisect", delta=delta)
        return lo, {
            "mode": "bracket",
            "feasible": format_rational(lo),
            "infeasible_beyond": format_rational(lo + delta),
        }


def cmd_solve(args) -> int:
    start = time.perf_counter()
    instance = _load_instance(args.instance)
    delta = parse_rational(args.delta)
    t_star, t_star_info = _resolve_t_star(instance, delta, args.budget)
    target = t_star if args.target == "auto" else parse_rational(args.target)

    result = solve(instance, target)
    search = result.search
    if result.certificate is not None and not result.certified:
        print("internal error: certificate failed verification", file=sys.stderr)
        return EXIT_FAIL

    if args.trace:
        extensions = () if search is None else search.extensions
        with open(args.trace, "w", encoding="utf-8") as handle:
            for ext_index, ext in enumerate(extensions):
                for ev in ext.trace:
                    row = ev.to_json_dict()
                    row["extension"] = ext_index
                    handle.write(json.dumps(row) + "\n")

    per_player = None
    ratio = None
    if result.allocation is not None:
        per_player = {p: format_rational(v) for p, v in result.values.items()}
        if t_star_info["mode"] == "exact" and t_star > 0:
            ratio = result.min_value / t_star

        allocation_json = {
            "target": format_rational(target),
            "min_value": format_rational(result.min_value),
            "allocation": {
                p: instance.sorted_resources(result.allocation[p])
                for p in instance.players
            },
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(allocation_json, handle, indent=2)
            emitted = _load_json(args.out)["allocation"]
        else:
            emitted = allocation_json["allocation"]
        # Self-audit: re-verify the emitted allocation before reporting.
        audited = verify_allocation(instance, emitted)
        if audited < GUARANTEE_FRACTION * target:
            print(
                f"internal error: allocation audit {audited} below the "
                f"guarantee at target {target}",
                file=sys.stderr,
            )
            return EXIT_FAIL

    report = {
        "players": instance.num_players,
        "resources": instance.num_resources,
        "t_star": t_star_info,
        "target": format_rational(target),
        "outcome": result.outcome,
        "per_player_values": per_player,
        "min_value": None if result.min_value is None else format_rational(result.min_value),
        "ratio": None if ratio is None else format_rational(ratio),
        "builds": 0 if search is None else search.builds,
        "contracts": 0 if search is None else search.contracts,
        "wall_time_seconds": round(time.perf_counter() - start, 6),
        "certificate": result.certificate,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if result.allocation is not None else EXIT_INFEASIBLE


def cmd_gen(args) -> int:
    instance = generate_instance(args.kind, args.players, args.resources, args.seed)
    payload = json.dumps(instance.to_json_dict(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def cmd_gap(args) -> int:
    rows = []
    max_gap: Optional[Fraction] = None
    for trial in range(args.trials):
        instance = generate_instance(
            args.kind, args.players, args.resources, args.seed + trial
        )
        t_star, _ = compute_T_star(instance, "exact", budget=args.budget)
        opt = brute_force_opt(instance)
        min_value = None
        ratio = None
        if t_star > 0:
            result = solve(instance, t_star)
            if result.allocation is None:
                print(
                    f"internal error: search halted at T* = {t_star} "
                    f"on trial {trial}",
                    file=sys.stderr,
                )
                return EXIT_FAIL
            min_value = result.min_value
            ratio = min_value / t_star
        degenerate = opt == 0
        gap = None if degenerate else t_star / opt
        if gap is not None and (max_gap is None or gap > max_gap):
            max_gap = gap
        rows.append(
            {
                "trial": trial,
                "t_star": format_rational(t_star),
                "opt": format_rational(opt),
                "gap": None if gap is None else format_rational(gap),
                "degenerate": degenerate,
                "min_value": None if min_value is None else format_rational(min_value),
                "ratio": None if ratio is None else format_rational(ratio),
            }
        )
    print(
        json.dumps(
            {
                "rows": rows,
                "summary": {
                    "trials": args.trials,
                    "max_gap": None if max_gap is None else format_rational(max_gap),
                },
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    payload = _load_json(args.allocation)
    if not isinstance(payload, dict) or "allocation" not in payload:
        raise InvalidInstance("allocation file must contain an 'allocation' object")
    allocation = payload["allocation"]
    if not isinstance(allocation, dict) or not all(
        isinstance(bundle, list) and all(isinstance(r, str) for r in bundle)
        for bundle in allocation.values()
    ):
        raise InvalidInstance("allocation must map player ids to lists of resource ids")
    threshold = parse_rational(args.threshold)
    min_value = verify_allocation(instance, allocation)
    passed = min_value >= threshold
    print(
        json.dumps(
            {
                "min_value": format_rational(min_value),
                "threshold": format_rational(threshold),
                "passed": passed,
            },
            indent=2,
        )
    )
    return EXIT_OK if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxminfair",
        description="Exact solver and verifier for restricted max-min fair allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance end to end")
    solve.add_argument("--instance", required=True, help="instance JSON path")
    solve.add_argument("--target", default="auto", help="'auto' or an exact rational")
    solve.add_argument("--delta", default="1/1000", help="bracket width for oversized instances")
    solve.add_argument("--budget", type=int, default=DEFAULT_BREAKPOINT_BUDGET)
    solve.add_argument("--trace", default=None, help="write step trace lines here")
    solve.add_argument("--out", default=None, help="write the allocation JSON here")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--kind", choices=KINDS, default="uniform")
    gen.add_argument("--players", type=int, required=True)
    gen.add_argument("--resources", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    gap = sub.add_parser("gap", help="measure LP-vs-integral gaps on random instances")
    gap.add_argument("--kind", choices=KINDS, default="uniform")
    gap.add_argument("--players", type=int, required=True)
    gap.add_argument("--resources", type=int, required=True)
    gap.add_argument("--trials", type=int, default=10)
    gap.add_argument("--seed", type=int, default=0)
    gap.add_argument("--budget", type=int, default=DEFAULT_BREAKPOINT_BUDGET)
    gap.set_defaults(func=cmd_gap)

    verify = sub.add_parser("verify", help="check an allocation against a threshold")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--allocation", required=True)
    verify.add_argument("--threshold", default="0")
    verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reuses: a parser is a web of reference cycles,
    so building one per call leaves garbage for the cyclic collector."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (InvalidInstance, MaxMinFairError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
