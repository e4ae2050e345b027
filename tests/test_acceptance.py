"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact rational arithmetic with zero tolerance.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from maxminfair import (
    check_blocker_balances,
    compute_T_star,
    construct_dual_certificate,
    find_perfect_matching,
    generate_instance,
    normalize,
    parse_rational,
    verify_certificate_feasibility,
)
from maxminfair.cli import EXIT_OK, main
from maxminfair.errors import BudgetExceeded
from maxminfair.matching import (
    FAT,
    INFINITY,
    Edge,
    Matching,
    SearchState,
    build_step,
    extend_matching,
    trace_signatures,
)
from maxminfair.oracle import (
    brute_force_opt,
    check_state_invariants,
    exact_T_star_enumerated,
    monitor_signatures,
)

from conftest import make_instance

F = Fraction
LAMBDA = F(6, 23)
ACTIVE_PRICE = F(15, 23)

CORPUS_SIZE = 500
CERT_CORPUS_SIZE = 100


@dataclass(frozen=True)
class CorpusEntry:
    seed: int
    instance: object
    t_star: Fraction


@pytest.fixture(scope="module")
def corpus():
    """Deterministic fuzz corpus: m <= 5, n <= 10, values in {1/20..1}."""
    entries = []
    for seed in range(CORPUS_SIZE):
        shape = random.Random(seed)
        m = shape.randint(1, 5)
        n = shape.randint(1, 10)
        instance = generate_instance("uniform", m, n, seed)
        t_star = compute_T_star(instance)
        entries.append(CorpusEntry(seed=seed, instance=instance, t_star=t_star))
    return entries


def conclude(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, failures[:10]


def test_criterion_1_constants():
    failures = []
    checks = [
        ("1 - 4*lambda/3 == 15/23", 1 - F(4, 3) * LAMBDA == F(15, 23)),
        ("3 * (5*lambda/6) == 15/23", 3 * (F(5, 6) * LAMBDA) == F(15, 23)),
        ("5*lambda/2 == 15/23", F(5, 2) * LAMBDA == F(15, 23)),
        ("2*lambda <= 1 - 4*lambda/3", 2 * LAMBDA <= 1 - F(4, 3) * LAMBDA),
    ]
    failures = [name for name, ok in checks if not ok]
    conclude(1, "constants", failures)


def test_criterion_2_pipeline_guarantee(corpus, tmp_path, capsys):
    failures = []
    inst_path = tmp_path / "instance.json"
    for entry in corpus:
        inst_path.write_text(json.dumps(entry.instance.to_json_dict()))
        code = main(["solve", "--instance", str(inst_path)])
        report = json.loads(capsys.readouterr().out)
        if code != EXIT_OK or report["outcome"] != "Allocated":
            failures.append(f"seed {entry.seed}: outcome {report['outcome']}")
            continue
        if report["t_star"]["mode"] != "exact":
            failures.append(f"seed {entry.seed}: expected an exact optimal target")
            continue
        if parse_rational(report["t_star"]["value"]) != entry.t_star:
            failures.append(f"seed {entry.seed}: t_star mismatch")
        if entry.t_star > 0:
            min_value = parse_rational(report["min_value"])
            if min_value < LAMBDA * entry.t_star:
                failures.append(
                    f"seed {entry.seed}: min {min_value} < (6/23)*{entry.t_star}"
                )
    conclude(2, "pipeline guarantee over fuzz corpus", failures)


def test_criterion_3_never_stuck(corpus):
    failures = []
    for entry in corpus:
        if entry.t_star == 0:
            continue
        for target in (entry.t_star, entry.t_star * F(3, 4)):
            ni = normalize(entry.instance, target)
            outcome = find_perfect_matching(ni)
            if not outcome.perfect:
                failures.append(
                    f"seed {entry.seed}: stuck at target {target} <= T* {entry.t_star}"
                )
    conclude(3, "never stuck at target <= T*", failures)


def _force_stuck(instance, t_star):
    """Escalate the target until the search halts; always terminates because
    large targets eventually empty the hypergraph."""
    target = t_star + F(1, 10)
    while True:
        ni = normalize(instance, target)
        outcome = find_perfect_matching(ni)
        if outcome.status == "stuck":
            return target, ni, outcome
        target *= 2


def test_criterion_4_certificate_soundness(corpus):
    failures = []
    for entry in corpus[:CERT_CORPUS_SIZE]:
        target, ni, outcome = _force_stuck(entry.instance, entry.t_star)
        cert = construct_dual_certificate(ni, outcome.state)
        if not verify_certificate_feasibility(ni, cert).passed:
            failures.append(f"seed {entry.seed}: dual feasibility failed")
        if not check_blocker_balances(ni, outcome.state, cert).passed:
            failures.append(f"seed {entry.seed}: blocker balances failed")
        if not cert.objective >= ACTIVE_PRICE:
            failures.append(f"seed {entry.seed}: objective {cert.objective} < 15/23")
        if not exact_T_star_enumerated(entry.instance, budget=2**14) < target:
            failures.append(f"seed {entry.seed}: stuck target not beyond T*")
        for trace in outcome.traces:
            report = monitor_signatures(
                trace_signatures(trace), entry.instance.num_players
            )
            if not report.passed:
                failures.append(f"seed {entry.seed}: stuck-run signatures broken")
    conclude(4, "certificate soundness on forced-stuck corpus", failures)


def test_criterion_5_state_invariants(corpus):
    failures = []
    for entry in corpus:
        if entry.t_star == 0:
            continue
        ni = normalize(entry.instance, entry.t_star)
        audits = []

        def audit(state):
            report = check_state_invariants(ni, state)
            if not report.passed:
                audits.append(report.violations)

        outcome = find_perfect_matching(ni, on_step=audit)
        if audits or not outcome.perfect:
            failures.append(f"seed {entry.seed}: {audits[:1]}")

    # Planted violations must be detected.
    inst = make_instance(
        {"r": "1", "s": "1"}, {"p1": ["r", "s"], "p2": ["r", "s"]}
    )
    ni = normalize(inst, F(1))
    matched = Edge("p1", frozenset({"r"}), FAT)
    state = SearchState(ni, Matching.of([matched]), "p2")
    build_step(state, Edge("p2", frozenset({"r"}), FAT))
    from maxminfair.matching import Blocker

    planted = []
    # (a) same matching edge blocking two blockers
    state.blockers.append(
        Blocker(candidate=Edge("p2", frozenset({"s"}), FAT), blocking=(matched,))
    )
    state.covered |= {"s"}
    planted.append(("blocking-disjoint", check_state_invariants(ni, state)))
    # (b) second candidate sharing a resource with the first
    state.blockers[1] = Blocker(
        candidate=Edge("p1", frozenset({"r"}), FAT), blocking=()
    )
    planted.append(("candidates-disjoint", check_state_invariants(ni, state)))
    # (c) drifted incremental covered set
    del state.blockers[1]
    state.covered = {"r", "s"}
    planted.append(("covered-recompute", check_state_invariants(ni, state)))

    for name, report in planted:
        if report.passed or name not in {v.invariant for v in report.violations}:
            failures.append(f"planted {name} not detected")
    conclude(5, "blocker-sequence invariants audited every step", failures)


def _signature_ceiling(num_players: int) -> int:
    """Count of signature vectors reachable during one extension run:
    blocking sizes at least 1 except at most one zero, total at most m."""
    m = num_players
    seen = set()

    def grow(prefix, total, zeros):
        seen.add(tuple(prefix))
        if len(prefix) > m:
            return
        for nxt in range(0, m - total + 1):
            if nxt == 0 and zeros:
                continue
            if len(prefix) + 1 > m + 1:
                continue
            prefix.append(nxt)
            grow(prefix, total + nxt, zeros or nxt == 0)
            prefix.pop()

    grow([], 0, False)
    return len(seen)


def test_criterion_6_termination(corpus):
    failures = []
    ceilings = {m: _signature_ceiling(m) for m in range(1, 6)}
    for entry in corpus:
        if entry.t_star == 0:
            continue
        ni = normalize(entry.instance, entry.t_star)
        outcome = find_perfect_matching(ni)
        m = entry.instance.num_players
        for trace in outcome.traces:
            report = monitor_signatures(trace_signatures(trace), m)
            if not report.passed:
                failures.append(f"seed {entry.seed}: {report.violations[:1]}")
            if len(trace_signatures(trace)) > ceilings[m]:
                failures.append(
                    f"seed {entry.seed}: {len(trace_signatures(trace))} signatures exceed "
                    f"the ceiling {ceilings[m]} for m={m}"
                )
    conclude(6, "signature descent and step ceiling", failures)


def test_criterion_7_oracle_agreement(corpus):
    failures = []
    tractable = 0
    for entry in corpus:
        try:
            enumerated = exact_T_star_enumerated(entry.instance)
        except BudgetExceeded:
            enumerated = None
        if enumerated is not None:
            tractable += 1
            if enumerated != entry.t_star:
                failures.append(
                    f"seed {entry.seed}: enumerated {enumerated} != {entry.t_star}"
                )
        opt = brute_force_opt(entry.instance)
        if opt > entry.t_star:
            failures.append(f"seed {entry.seed}: OPT {opt} > T* {entry.t_star}")
        if opt > 0 and entry.t_star / opt > F(23, 6):
            failures.append(
                f"seed {entry.seed}: gap {entry.t_star / opt} exceeds 23/6"
            )
    if tractable < CORPUS_SIZE // 2:
        failures.append(f"only {tractable} instances were oracle-tractable")
    conclude(7, f"oracle agreement ({tractable} tractable)", failures)


def test_criterion_8_worked_micro_traces(two_fat, thin_chain, shared_single):
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: {got!r} != {want!r}")

    # (a) Two-player fat extension: p1 holds a; inserting p2 first tries a
    # (blocked), then b (free), and the terminal contract matches p2 with b.
    ni = normalize(two_fat, F(1))
    out = extend_matching(
        ni, Matching.of([Edge("p1", frozenset({"a"}), FAT)]), "p2"
    )
    steps = [(ev.kind, ev.player, ev.bundle, ev.blocker_index) for ev in out.trace]
    expect(
        "fat-extension steps",
        steps,
        [
            ("build", "p2", ("a",), 0),
            ("build", "p2", ("b",), 1),
            ("terminate", "p2", ("b",), 1),
        ],
    )
    expect("fat-extension status", out.status, "extended")
    expect(
        "fat-extension matching",
        sorted((e.player, tuple(sorted(e.bundle))) for e in out.matching),
        [("p1", ("a",)), ("p2", ("b",))],
    )
    expect(
        "fat-extension signatures",
        list(out.signatures),
        [(INFINITY,), (1, INFINITY), (1, 0, INFINITY)],
    )

    # (b) Thin chain with one truncating contract.
    ni = normalize(thin_chain, F(1))
    out = extend_matching(
        ni, Matching.of([Edge("p1", frozenset({"t1", "t2"}), "thin")]), "p2"
    )
    steps = [(ev.kind, ev.player, ev.bundle, ev.blocker_index) for ev in out.trace]
    expect(
        "thin-chain steps",
        steps,
        [
            ("build", "p2", ("t1", "t2"), 0),
            ("build", "p1", ("t3", "t4"), 1),
            ("contract", "p1", ("t3", "t4"), 1),
            ("terminate", "p2", ("t1", "t2"), 0),
        ],
    )
    expect(
        "thin-chain matching",
        sorted((e.player, tuple(sorted(e.bundle))) for e in out.matching),
        [("p1", ("t3", "t4")), ("p2", ("t1", "t2"))],
    )
    expect(
        "thin-chain signatures",
        list(out.signatures),
        [(INFINITY,), (1, INFINITY), (1, 0, INFINITY), (0, INFINITY)],
    )

    # (c) Shared single resource: stuck with the 15/23 certificate.
    ni = normalize(shared_single, F(1))
    outcome = find_perfect_matching(ni)
    expect("stuck status", outcome.status, "stuck")
    stuck_trace = outcome.traces[-1]
    steps = [(ev.kind, ev.player, ev.bundle, ev.blocker_index) for ev in stuck_trace]
    expect(
        "stuck steps",
        steps,
        [("build", "p2", ("r",), 0), ("stuck", None, (), None)],
    )
    cert = construct_dual_certificate(ni, outcome.state)
    expect("stuck y", dict(cert.y), {"p1": F(15, 23), "p2": F(15, 23)})
    expect("stuck z", dict(cert.z), {"r": F(15, 23)})
    expect("stuck objective", cert.objective, F(15, 23))
    conclude(8, "worked micro traces", failures)
