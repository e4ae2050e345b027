"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload emits exactly the metrics BENCHMARK.json names,
that every output check runs, and that each check rejects a wrong answer.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

import run
from workloads import WORKLOADS, CheckFailed

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _tiny(name, trace):
    return run.bench(name, seed=3, seconds=0.05, trace=trace, tiny=True,
                     min_ops=4, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_and_checks(name, trace):
    result, checks, summary = _tiny(name, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] is True
    assert result["attempted"] >= 4 and result["failed"] == 0
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    fired = set(checks)
    # The oracle cross-check fires only where its budget allows; the tiny
    # exact-small grid is inside it.  Stuck and perfect searches both occur
    # on the tiny search-large grid.
    assert fired == set(WORKLOADS[name].checks), summary
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _one(name):
    workload = WORKLOADS[name]()
    pkg = run.load_package()
    workdir = run.WORK / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workload.build(pkg, 3, workdir, True)
    return workload, pkg, ops


def _rejects(workload, pkg, op, output):
    with pytest.raises(CheckFailed):
        workload.check(pkg, op, output, Counter())


def test_wrong_answers_are_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)

    workload, pkg, ops = _one("exact-small")
    op = ops[0]
    report = json.loads(workload.run(pkg, op))
    workload.check(pkg, op, json.dumps(report), Counter())
    wrong = dict(report, t_star=dict(report["t_star"], value="1000"))
    _rejects(workload, pkg, op, json.dumps(wrong))
    op.payload["t_star"] = Fraction(1000)  # the oracle then disagrees instead
    workload._oracle_done.clear()
    _rejects(workload, pkg, op, json.dumps(wrong))

    workload, pkg, ops = _one("search-large")
    perfect = next(o for o in ops if workload.run(pkg, o)[1].perfect)
    ni, result, allocation, audited = workload.run(pkg, perfect)
    _rejects(workload, pkg, perfect, (ni, result, allocation, audited + 1))
    robbed = {p: set() for p in allocation}
    robbed[next(iter(allocation))] = set().union(*allocation.values())
    _rejects(workload, pkg, perfect, (ni, result, robbed, Fraction(0)))

    workload, pkg, ops = _one("certify-mid")
    result, cert, feasibility, balances = workload.run(pkg, ops[0])
    _rejects(workload, pkg, ops[0], (result, cert.scaled(Fraction(1, 100)), feasibility, balances))
    broken = type(feasibility)(passed=False, margins={}, failures=("x",))
    _rejects(workload, pkg, ops[0], (result, cert, broken, balances))

    workload, pkg, ops = _one("breakpoints")
    points = workload.run(pkg, ops[0])
    workload.check(pkg, ops[0], points, Counter())
    _rejects(workload, pkg, ops[0], points[:-1])
    _rejects(workload, pkg, ops[0], points[:-1] + [points[-1] + 1])
