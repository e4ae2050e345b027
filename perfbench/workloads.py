"""The four benchmark workloads: what each operation runs and how it is checked.

Each workload turns a seed into a fixed list of operations (`build`), runs
one operation inside the timed region (`run`) and checks its output outside
that region (`check`).  A check that fails raises `CheckFailed`, which aborts
the run: a wrong answer is never reported as a slow operation.

Inputs come from a recorded pool (`pool.json`, written by `record_pool.py`):
for every cell (generator kind x size) a list of generator seeds, the time
each one's operations took when recorded, and the reference answers.  Within
one cell that time spreads over two orders of magnitude, so a plain random
draw of a few dozen instances moves the percentiles by a third from one seed
to the next.  The pools of a group of cells are therefore sorted together by
recorded time and cut into `strata` equal-count slices, and a seed picks one
instance from each (stratified sampling): the instances differ from seed to
seed, their difficulty mix does not.

Cell sizes keep one operation under about a second on a 2-vCPU x86 host
(Python 3.11), so a pass of at least 100 operations takes about 7 s while
keeping each layer's slow tail in the grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from timing import fastest_calibrated

GUARANTEE = Fraction(6, 23)
CERTIFICATE_FLOOR = Fraction(15, 23)
KINDS = ("uniform", "fat-thin-mix", "clustered-desire")
POOL_FILE = Path(__file__).resolve().parent / "pool.json"


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


class OpFailed(Exception):
    """An operation did not complete as expected (counted, not fatal)."""


@dataclass
class Op:
    key: str
    payload: dict


@dataclass(frozen=True)
class Cell:
    kind: str
    players: int
    resources: int

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.players}x{self.resources}"

    def generate(self, pkg, seed: int):
        return pkg.generators.generate_instance(self.kind, self.players, self.resources, seed)


def ceiling(instance) -> Fraction:
    """min over players of the total desired value: no target above it is met."""
    return min(
        sum((instance.value[r] for r in instance.desired_by(p)), Fraction(0))
        for p in instance.players
    )


def _min_value(instance, allocation) -> Fraction:
    """Minimum player value of a partition, recomputed without the package."""
    owners = Counter(r for bundle in allocation.values() for r in bundle)
    if set(owners) != set(instance.resources) or any(n != 1 for n in owners.values()):
        raise CheckFailed("allocation is not a partition of the resources")
    return min(
        sum(
            (instance.value[r] for r in allocation.get(p, ()) if r in instance.desired_by(p)),
            Fraction(0),
        )
        for p in instance.players
    )


def _require(checks: Counter, name: str, ok: bool, detail: str) -> None:
    checks[name] += 1
    if not ok:
        raise CheckFailed(f"{name}: {detail}")


class PooledWorkload:
    """Stratified draw from the recorded pool; subclasses define the cells."""

    name: str
    pool_size: int  # generator seeds 0..n-1 drawn from per cell
    checks: tuple[str, ...]
    # Instances whose operations took longer than this when recorded stay
    # out of the draw: the few slowest (up to 4.4 s in certify-mid) would
    # otherwise decide alone how long a pass takes.
    max_recorded_s = 1.0

    def __init__(self, pool: Optional[dict] = None):
        if pool is None:
            with open(POOL_FILE, encoding="utf-8") as handle:
                pool = json.load(handle)
        self.pool: dict[str, list] = pool.get(self.name, {})

    def groups(self, tiny: bool) -> list[tuple[list[Cell], int]]:
        """(cells, strata) pairs; the cells' pools are drawn from together."""
        raise NotImplementedError

    def pool_size_of(self, cell: Cell) -> int:
        return self.pool_size

    def record(self, pkg, cell: Cell, seed: int, workdir: Path) -> list:
        """Pool entry [seed, recorded seconds, reference...] for one instance."""
        raise NotImplementedError

    def make_ops(self, pkg, cell: Cell, entry: list, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def pinned(self, entries: list) -> Optional[int]:
        """Index of the entry of a group that every pass runs, or None."""
        return None

    def build(self, pkg, seed: int, workdir: Path, tiny: bool) -> list[Op]:
        """One pass: the pinned entry and one pick per stratum of each group,
        in a seeded order."""
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for cells, strata in self.groups(tiny):
            entries = sorted(
                (
                    (e[1], cell.key, e)
                    for cell in cells
                    for e in self.pool[cell.key][: self.pool_size_of(cell)]
                    if e[1] <= self.max_recorded_s
                ),
                key=lambda t: t[:2],
            )
            cell_of = {cell.key: cell for cell in cells}
            pin = self.pinned(entries)
            if pin is not None:
                _, key, entry = entries.pop(pin)
                ops.extend(self.make_ops(pkg, cell_of[key], entry, workdir))
            bounds = [round(i * len(entries) / strata) for i in range(strata + 1)]
            for a, b in zip(bounds, bounds[1:]):
                _, key, entry = rng.choice(entries[a:b])
                ops.extend(self.make_ops(pkg, cell_of[key], entry, workdir))
        rng.shuffle(ops)
        return ops


class ExactSmall(PooledWorkload):
    """`maxminfair solve` through `cli.main`, with exact T* by the config LP."""

    name = "exact-small"
    pool_size = 100
    sizes = ((2, 4), (3, 6), (4, 8), (5, 10))
    # The enumeration oracle solves one LP over every minimal configuration;
    # beyond this many subsets per instance it costs more than the solve.
    # Every recorded T* was cross-checked at 2**12.
    oracle_budget = 2**7
    record_oracle_budget = 2**12
    checks = ("allocated", "t_star_reference", "t_star_oracle", "allocation_guarantee")

    def __init__(self, pool=None):
        super().__init__(pool)
        self._oracle_done: set[str] = set()

    def pool_size_of(self, cell):
        # 5x10 solves average 0.3 s; a quarter share keeps a pass near 7 s.
        return 25 if cell.players == 5 else self.pool_size

    def groups(self, tiny):
        sizes = self.sizes[:1] if tiny else self.sizes
        return [([Cell(k, p, r) for p, r in sizes for k in KINDS], 6 if tiny else 110)]

    def _op(self, pkg, cell, seed, workdir, t_star) -> Op:
        instance = cell.generate(pkg, seed)
        stem = workdir / f"{cell.kind}_{cell.players}x{cell.resources}_{seed}"
        path, out = f"{stem}.json", f"{stem}.out.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(instance.to_json_dict(), handle)
        payload = {"instance": instance, "path": path, "out": out, "t_star": t_star}
        return Op(f"{cell.key}/{seed}", payload)

    def make_ops(self, pkg, cell, entry, workdir):
        seed, _, t_star = entry
        return [self._op(pkg, cell, seed, workdir, Fraction(t_star))]

    def record(self, pkg, cell, seed, workdir):
        op = self._op(pkg, cell, seed, workdir, None)
        seconds = fastest_calibrated(self.run, pkg, op)
        t_star = Fraction(json.loads(self.run(pkg, op))["t_star"]["value"])
        oracle = pkg.oracle.exact_T_star_enumerated(
            op.payload["instance"], budget=self.record_oracle_budget
        )
        if oracle != t_star:
            raise CheckFailed(f"{op.key}: solver T* {t_star} != oracle {oracle}")
        return [seed, round(seconds, 5), str(t_star)]

    def run(self, pkg, op: Op):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(
                ["solve", "--instance", op.payload["path"], "--out", op.payload["out"]]
            )
        if code != 0:
            raise OpFailed(f"solve exited {code}")
        return stdout.getvalue()

    def check(self, pkg, op: Op, output, checks: Counter) -> dict:
        instance = op.payload["instance"]
        report = json.loads(output)
        _require(checks, "allocated", report["outcome"] == "Allocated", report["outcome"])
        t_star = Fraction(report["t_star"]["value"])
        _require(
            checks, "t_star_reference",
            report["t_star"]["mode"] == "exact" and t_star == op.payload["t_star"],
            f"{op.key}: T* {t_star} != reference {op.payload['t_star']}",
        )
        if op.key not in self._oracle_done:
            self._oracle_done.add(op.key)
            try:
                oracle_t = pkg.oracle.exact_T_star_enumerated(instance, budget=self.oracle_budget)
            except pkg.errors.BudgetExceeded:
                pass
            else:
                _require(checks, "t_star_oracle", oracle_t == t_star,
                         f"{op.key}: T* {t_star} != oracle {oracle_t}")
        with open(op.payload["out"], encoding="utf-8") as handle:
            allocation = json.load(handle)["allocation"]
        min_value = pkg.oracle.verify_allocation(instance, allocation)
        _require(checks, "allocation_guarantee", min_value >= GUARANTEE * t_star,
                 f"{op.key}: min value {min_value} < 6/23 * {t_star}")
        # T* is 0 when some player desires nothing of value; no ratio then.
        return {"alloc_ratio": min_value / t_star} if t_star else {}


class SearchLarge(PooledWorkload):
    """normalize + local search (+ completion and audit when perfect), no LP."""

    name = "search-large"
    pool_size = 15
    # Target fractions of the ceiling, and strata, per size; the strata are
    # drawn across the three kinds, one instance with all its targets each.
    # Small fractions at the large sizes run for seconds (uniform 100x300 at
    # 1/16: 3.3 s) and are left out so a pass keeps at least 100 operations.
    # Three 200x600 instances: generating one takes 0.4 s of set-up.
    grid = {
        (30, 80): ((Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)), 16),
        (60, 160): ((Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)), 8),
        (100, 300): ((Fraction(1, 4), Fraction(1, 2)), 6),
        (200, 600): ((Fraction(1, 2),), 3),
    }
    checks = ("allocation_guarantee", "audit_agrees", "stuck_is_stuck")

    def groups(self, tiny):
        if tiny:
            return [([Cell(k, 30, 80) for k in KINDS], 3)]
        return [([Cell(k, p, r) for k in KINDS], strata)
                for (p, r), (_, strata) in self.grid.items()]

    def make_ops(self, pkg, cell, entry, workdir):
        seed = entry[0]
        instance = cell.generate(pkg, seed)
        top = ceiling(instance)
        return [
            Op(f"{cell.key}/{seed}@{f}", {"instance": instance, "target": top * f})
            for f in self.grid[(cell.players, cell.resources)][0]
        ]

    def record(self, pkg, cell, seed, workdir):
        ops = self.make_ops(pkg, cell, [seed], workdir)
        return [seed, round(sum(fastest_calibrated(self.run, pkg, op) for op in ops), 5)]

    def run(self, pkg, op: Op):
        instance, target = op.payload["instance"], op.payload["target"]
        ni = pkg.instances.normalize(instance, target)
        result = pkg.matching.find_perfect_matching(ni)
        allocation = audited = None
        if result.perfect:
            allocation = pkg.matching.complete_allocation(instance, result.matching, target)
            audited = pkg.oracle.verify_allocation(instance, allocation)
        return ni, result, allocation, audited

    def check(self, pkg, op: Op, output, checks: Counter) -> dict:
        ni, result, allocation, audited = output
        instance, target = op.payload["instance"], op.payload["target"]
        if not result.perfect:
            try:
                pkg.certificates.assert_stuck(ni, result.state)
                ok, detail = True, ""
            except pkg.errors.StateNotStuck as exc:
                ok, detail = False, str(exc)
            _require(checks, "stuck_is_stuck", ok, f"{op.key}: {detail}")
            return {"outcome": "stuck"}
        min_value = _min_value(instance, allocation)
        _require(checks, "audit_agrees", min_value == audited,
                 f"{op.key}: audit {audited} != recomputed {min_value}")
        _require(checks, "allocation_guarantee", min_value >= GUARANTEE * target,
                 f"{op.key}: min value {min_value} < 6/23 * {target}")
        return {"outcome": "perfect", "alloc_ratio": min_value / target}


class CertifyMid(PooledWorkload):
    """Search to a halt, then build and re-verify the dual certificate."""

    name = "certify-mid"
    pool_size = 48
    # The target is the first rung of the ladder (times the ceiling) at which
    # the search halts, found when the pool is recorded.  The 4x rung always
    # halts: some player's desired total is below 6/23 of it.  12x30 starts
    # at 3/2, since at 1/2 and 1 its verification runs 0.2-2.5 s.
    ladder = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))
    grid = {(6, 14): 0, (8, 20): 0, (10, 25): 0, (12, 30): 2}
    checks = ("halted", "dual_feasible", "balances", "objective_floor")

    def groups(self, tiny):
        sizes = [(6, 14)] if tiny else list(self.grid)
        return [([Cell(k, p, r) for p, r in sizes for k in KINDS], 6 if tiny else 170)]

    def _op(self, cell, seed, instance, fraction) -> Op:
        target = ceiling(instance) * fraction
        return Op(f"{cell.key}/{seed}@{fraction}", {"instance": instance, "target": target})

    def make_ops(self, pkg, cell, entry, workdir):
        seed, _, fraction = entry
        return [self._op(cell, seed, cell.generate(pkg, seed), Fraction(fraction))]

    def record(self, pkg, cell, seed, workdir):
        instance = cell.generate(pkg, seed)
        start = self.grid[(cell.players, cell.resources)]
        for fraction in self.ladder[start:]:
            ni = pkg.instances.normalize(instance, ceiling(instance) * fraction)
            if not pkg.matching.find_perfect_matching(ni).perfect:
                break
        op = self._op(cell, seed, instance, fraction)
        return [seed, round(fastest_calibrated(self.run, pkg, op), 5), str(fraction)]

    def run(self, pkg, op: Op):
        ni = pkg.instances.normalize(op.payload["instance"], op.payload["target"])
        result = pkg.matching.find_perfect_matching(ni)
        if result.perfect:
            return result, None, None, None
        cert = pkg.certificates.construct_dual_certificate(ni, result.state)
        feasibility = pkg.certificates.verify_certificate_feasibility(ni, cert)
        balances = pkg.certificates.check_blocker_balances(ni, result.state, cert)
        return result, cert, feasibility, balances

    def check(self, pkg, op: Op, output, checks: Counter) -> dict:
        result, cert, feasibility, balances = output
        _require(checks, "halted", not result.perfect, f"{op.key}: search did not halt")
        _require(checks, "dual_feasible", feasibility.passed,
                 f"{op.key}: {list(feasibility.failures)}")
        _require(checks, "balances", balances.passed, f"{op.key}: {list(balances.failures)}")
        _require(checks, "objective_floor", cert.objective >= CERTIFICATE_FLOOR,
                 f"{op.key}: objective {cert.objective} < 15/23")
        return {"objective": cert.objective}


def bitset_breakpoints(instance) -> list[Fraction]:
    """Subset sums of every player's desired values, by integer bitsets.

    Independent of `configlp.subset_sum_breakpoints`: values are scaled to
    integers over their common denominator and each player's reachable sums
    are one Python int, grown by `bits |= bits << v`.
    """
    values = [v for v in instance.value.values() if v > 0]
    denominator = math.lcm(*(v.denominator for v in values)) if values else 1
    reachable = 0
    for p in instance.players:
        bits = 1
        for r in instance.desired_by(p):
            v = instance.value[r]
            if v > 0:
                bits |= bits << int(v * denominator)
        reachable |= bits
    text = bin(reachable)[:1:-1]
    points, i = [], text.find("1")
    while i != -1:
        points.append(Fraction(i, denominator))
        i = text.find("1", i + 1)
    return points


def digest(points) -> str:
    h = hashlib.sha256()
    for q in points:
        h.update(f"{q.numerator}/{q.denominator};".encode())
    return h.hexdigest()


class Breakpoints(PooledWorkload):
    """`configlp.subset_sum_breakpoints`, the first step of every exact solve."""

    name = "breakpoints"
    # Seeds per cell: the slow cells get a smaller share so a pass of 100
    # operations stays near 7 s.
    pool_sizes = {
        "uniform/16x40": 30, "fat-thin-mix/12x30": 16, "clustered-desire/50x150": 20,
    }
    pool_size = 60
    # Fat-thin-mix point sets grow fastest (12x30: up to 10k points, 0.6 s;
    # 16x40: 60k points, 3.8 s), uniform ones next (30x80: 1.4 s), so each
    # kind stops at the size where one call stays under about a second.
    grid = (
        ("uniform", ((8, 20), (12, 30), (16, 40))),
        ("fat-thin-mix", ((8, 20), (12, 30))),
        ("clustered-desire", ((8, 20), (20, 50), (50, 150))),
    )
    checks = ("point_count", "point_digest", "sorted_distinct")

    def groups(self, tiny):
        if tiny:
            return [([Cell("uniform", 8, 20), Cell("fat-thin-mix", 8, 20)], 4)]
        return [([Cell(k, p, r) for k, sizes in self.grid for p, r in sizes], 110)]

    def pool_size_of(self, cell):
        return self.pool_sizes.get(cell.key, self.pool_size)

    def pinned(self, entries):
        # Peak memory follows the largest point set of the pass, which the
        # draw varies from 13k to 16k points; running the pool's largest in
        # every pass keeps peak_rss_mb from following the seed.
        return max(range(len(entries)), key=lambda i: entries[i][2][2])

    def make_ops(self, pkg, cell, entry, workdir):
        seed, _, count, expected = entry
        instance = cell.generate(pkg, seed)
        return [Op(f"{cell.key}/{seed}",
                   {"instance": instance, "count": count, "digest": expected})]

    def record(self, pkg, cell, seed, workdir):
        instance = cell.generate(pkg, seed)
        points = bitset_breakpoints(instance)
        op = Op(f"{cell.key}/{seed}", {"instance": instance})
        return [seed, round(fastest_calibrated(self.run, pkg, op), 5), len(points), digest(points)]

    def run(self, pkg, op: Op):
        return pkg.configlp.subset_sum_breakpoints(op.payload["instance"])

    def check(self, pkg, op: Op, output, checks: Counter) -> dict:
        _require(checks, "sorted_distinct",
                 all(a < b for a, b in zip(output, output[1:])),
                 f"{op.key}: points not strictly increasing")
        _require(checks, "point_count", len(output) == op.payload["count"],
                 f"{op.key}: {len(output)} points, reference {op.payload['count']}")
        _require(checks, "point_digest", digest(output) == op.payload["digest"],
                 f"{op.key}: point digest differs from the reference")
        return {}


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (ExactSmall, SearchLarge, CertifyMid, Breakpoints)
}
