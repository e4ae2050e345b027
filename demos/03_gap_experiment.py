"""Measuring the LP-vs-integral gap on random instances.

For each seeded instance we compute the exact LP optimum, the exact integral
optimum by enumeration, and the value actually achieved by the matching
pipeline at the LP optimum.  The observed gap never exceeds 23/6 and the
achieved ratio never drops below 6/23.
"""

from fractions import Fraction

from maxminfair import compute_T_star, generate_instance
from maxminfair.cli import solve
from maxminfair.oracle import brute_force_opt

BOUND = Fraction(23, 6)

print(f"{'seed':>4} {'T*':>8} {'OPT':>8} {'gap':>8} {'achieved':>10} {'ratio':>8}")
worst_gap = Fraction(0)
for seed in range(12):
    instance = generate_instance("uniform", 4, 7, seed)
    t_star = compute_T_star(instance)
    opt = brute_force_opt(instance)
    if opt == 0:
        print(f"{seed:>4} {str(t_star):>8} {str(opt):>8} {'degen':>8}")
        continue
    gap = t_star / opt
    worst_gap = max(worst_gap, gap)

    achieved = solve(instance, t_star).min_value
    ratio = achieved / t_star
    print(
        f"{seed:>4} {str(t_star):>8} {str(opt):>8} {str(gap):>8} "
        f"{str(achieved):>10} {str(ratio):>8}"
    )
    assert gap <= BOUND
    assert ratio >= Fraction(6, 23)

print(f"\nworst observed gap {worst_gap} (bound {BOUND} = {float(BOUND):.4f})")
